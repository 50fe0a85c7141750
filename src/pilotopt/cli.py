"""Command-line front end.

Subcommands:
  design     pattern visualizations and per-method JSON for one configuration
  sweep      CSV of objective/MSE across a density, SNR or spreading axis
  structure  designed patterns plus a dispersion statistic along an axis
  validate   run the automated acceptance checks

Configurations are JSON files; every output embeds the fully resolved
configuration and a format version.  Floats are written with 12 significant
digits and rows/keys in a fixed order, so identical configurations reproduce
identical result files (recorded wall times are the one exception).
"""

import argparse
import itertools
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import GridConfig, ScatteringSpec, build_statistics, is_finite_number
from .errors import BudgetError, ConfigError, InvalidSpecError, PilotOptError
from .objective import (
    FractionalAllocation,
    average_mse,
    compute_alpha,
    make_design_problem,
    noise_var_from_snr_db,
    objective_value,
)
from .optimizers import (
    METHOD_CR,
    METHOD_CR_ROUND,
    METHOD_CR_ROUND_SWAP,
    METHOD_DIAMOND,
    METHOD_GREEDY,
    METHOD_GREEDY_SWAP,
    METHOD_RECT,
    METHOD_EXHAUSTIVE,
    DesignReport,
    best_lattice,
    dependent_rounding,
    exhaustive_search,
    greedy_design,
    greedy_swap_design,
    relax_round_swap_design,
    solve_relaxation,
)
from .validation import run_all_checks

FORMAT_VERSION = 1

CSV_COLUMNS = (
    "axis",
    "method",
    "K",
    "objective",
    "average_mse",
    "swap_iterations",
    "wall_time",
    "axis_name",
    "density",
    "snr_db",
    "spreading_factor",
    "seed",
    "rounding_seed",
)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_BAD_CONFIG = 2
EXIT_IO_ERROR = 3


# --------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    grid: GridConfig
    scattering: dict  # ScatteringSpec kwargs minus spreading_factor
    spreading_factors: tuple
    snr_dbs: tuple
    budgets: tuple  # (kind, value) with kind in {"pilots", "density"}
    beta: float | None
    methods: tuple
    seeds: tuple
    rounding_repeats: int
    output_dir: str
    list_axes: tuple = ()  # axis names the config gave as lists


def _as_tuple(value, field: str) -> tuple:
    values = tuple(value) if isinstance(value, (list, tuple)) else (value,)
    _require(values, f"field '{field}' must not be an empty list")
    return values


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _gives_noise_var(snr_db) -> bool:
    """True when ``10^(-snr_db/10)`` is a finite positive float."""
    try:
        return 0.0 < noise_var_from_snr_db(snr_db) < float("inf")
    except OverflowError:
        return False


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate an experiment configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
    _require(isinstance(raw, dict), "config root must be an object")
    unknown = set(raw) - {
        "grid",
        "scattering",
        "snr_db",
        "pilot_budget",
        "beta",
        "methods",
        "seeds",
        "rounding_repeats",
        "output_dir",
    }
    _require(not unknown, f"unknown config fields: {sorted(unknown)}")

    grid_raw = raw.get("grid")
    _require(isinstance(grid_raw, dict) and "M" in grid_raw and "N" in grid_raw,
             "field 'grid' must be an object with M and N")
    _require(_is_int(grid_raw["M"]) and _is_int(grid_raw["N"]),
             "field 'grid': M and N must be integers")
    try:
        grid = GridConfig(grid_raw["M"], grid_raw["N"])
    except PilotOptError as exc:
        raise ConfigError(f"field 'grid': {exc}") from exc

    list_axes = []
    scattering_raw = raw.get("scattering") or {}
    _require(isinstance(scattering_raw, dict), "field 'scattering' must be an object")
    scattering_raw = dict(scattering_raw)
    if isinstance(scattering_raw.get("spreading_factor"), list):
        list_axes.append("spreading_factor")
    spreading = _as_tuple(scattering_raw.pop("spreading_factor", None), "scattering.spreading_factor")
    _require(spreading != (None,), "field 'scattering.spreading_factor' is required")
    for value in spreading:
        _require(is_finite_number(value) and value > 0,
                 f"field 'scattering.spreading_factor': {value!r} is not a finite positive number")
    try:
        ScatteringSpec(spreading_factor=spreading[0], **scattering_raw)
    except (PilotOptError, TypeError, ValueError) as exc:
        raise ConfigError(f"field 'scattering': {exc}") from exc

    if isinstance(raw.get("snr_db"), list):
        list_axes.append("snr_db")
    snr = _as_tuple(raw.get("snr_db", 10.0), "snr_db")
    for value in snr:
        _require(is_finite_number(value), f"field 'snr_db': {value!r} is not a finite number")
        _require(_gives_noise_var(value),
                 f"field 'snr_db': {value!r} gives a noise variance 10^(-snr_db/10) "
                 "that is not a finite positive float")

    budget_raw = raw.get("pilot_budget")
    _require(budget_raw is not None, "field 'pilot_budget' is required")
    if isinstance(budget_raw, list):
        _require(budget_raw, "field 'pilot_budget' must not be an empty list")
        list_axes.insert(0, "density")
        for d in budget_raw:
            _require(is_finite_number(d) and 0 < d <= 1,
                     f"field 'pilot_budget': density {d!r} outside (0, 1]")
        budgets = tuple(("density", float(d)) for d in budget_raw)
    else:
        _require(_is_int(budget_raw),
                 "field 'pilot_budget' must be an integer or a list of densities")
        _require(budget_raw >= 1, f"field 'pilot_budget': K = {budget_raw} is not a valid budget")
        budgets = (("pilots", int(budget_raw)),)

    beta = raw.get("beta")
    if beta is not None:
        _require(is_finite_number(beta) and beta > 0, "field 'beta' must be a finite positive number")
    for kind, value in budgets:
        try:
            K = budget_pilots(grid, kind, value)
        except BudgetError as exc:
            raise ConfigError(f"field 'pilot_budget': {exc}") from exc
        for snr_db in snr:
            # The pilot SNR exactly as ``make_design_problem`` derives it.
            try:
                compute_alpha(K / grid.N if beta is None else beta, grid.N, K,
                              noise_var_from_snr_db(snr_db))
            except InvalidSpecError as exc:
                raise ConfigError(f"fields 'snr_db' and 'beta': {exc}") from exc

    methods_raw = raw.get("methods", ["greedy-swap"])
    _require(isinstance(methods_raw, list) and len(methods_raw) >= 1,
             "field 'methods' must list at least one method")
    methods = tuple(methods_raw)
    for m in methods:
        _require(m in VALID_METHODS, f"field 'methods': unknown method {m!r}; valid: {VALID_METHODS}")
    _require(len(set(methods)) == len(methods), "field 'methods' lists a method twice")

    seeds = _as_tuple(raw.get("seeds", 0), "seeds")
    for s in seeds:
        _require(_is_int(s) and s >= 0, f"field 'seeds': {s!r} is not a non-negative integer")
    repeats = raw.get("rounding_repeats", 50)
    _require(_is_int(repeats) and repeats >= 1, "field 'rounding_repeats' must be an integer >= 1")
    output_dir = raw.get("output_dir", "out")
    _require(isinstance(output_dir, str), "field 'output_dir' must be a string")

    return ExperimentConfig(
        grid=grid,
        scattering=scattering_raw,
        spreading_factors=spreading,
        snr_dbs=snr,
        budgets=budgets,
        beta=beta,
        methods=methods,
        seeds=seeds,
        rounding_repeats=repeats,
        output_dir=output_dir,
        list_axes=tuple(list_axes),
    )


def resolved_config_dict(cfg: ExperimentConfig) -> dict:
    if cfg.budgets[0][0] == "pilots":
        budget = cfg.budgets[0][1]
    else:
        budget = [value for _, value in cfg.budgets]
    return {
        "grid": {"M": cfg.grid.M, "N": cfg.grid.N},
        "scattering": {
            "spreading_factor": list(cfg.spreading_factors),
            **cfg.scattering,
        },
        "snr_db": list(cfg.snr_dbs),
        "pilot_budget": budget,
        "beta": cfg.beta,
        "methods": list(cfg.methods),
        "seeds": list(cfg.seeds),
        "rounding_repeats": cfg.rounding_repeats,
        "output_dir": cfg.output_dir,
    }


def budget_pilots(grid: GridConfig, kind: str, value) -> int:
    """Density fractions convert to K = round(density * M * N)."""
    K = int(round(value * grid.size)) if kind == "density" else int(value)
    if not 1 <= K <= grid.size:
        raise BudgetError(f"budget {K} from {kind}={value} outside [1, {grid.size}]")
    return K


def derive_rounding_seed(seed: int, index: int) -> int:
    """Stable per-rounding seed derived from the run seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(ss.generate_state(1)[0])


# --------------------------------------------------------------------------
# serialization helpers


def fmt_float(x) -> str:
    return format(float(x), ".12g")


def _round_floats(obj):
    if isinstance(obj, float):
        return float(fmt_float(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _round_floats(obj.item())
    return obj


def write_json(path: Path, payload: dict) -> None:
    body = {"format_version": FORMAT_VERSION, **payload}
    path.write_text(
        json.dumps(_round_floats(body), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _render_grid(grid: GridConfig, marks, footer: str) -> str:
    """ASCII grid, rows subcarriers and columns OFDM symbols, with a footer
    line.  ``marks`` yields (flat index, character); other cells are '.'."""
    cells = [["."] * grid.N for _ in range(grid.M)]
    for k, mark in marks:
        m, n = grid.cell(int(k))
        cells[m][n] = mark
    return "\n".join([" ".join(row) for row in cells] + [footer]) + "\n"


def render_pattern(grid: GridConfig, indices, footer: str) -> str:
    """ASCII grid with 'X' on the pilot cells."""
    return _render_grid(grid, ((k, "X") for k in indices), footer)


def render_weights(grid: GridConfig, weights, footer: str) -> str:
    """ASCII grid of fractional weights in deciles ('.' for ~0, 9 for ~1)."""
    deciles = (int(round(float(w) * 9)) for w in weights)
    return _render_grid(
        grid, ((k, "." if d == 0 else str(d)) for k, d in enumerate(deciles)), footer
    )


# --------------------------------------------------------------------------
# one design point


def _mse_scorer(stats):
    """``score(problem, pattern)``: the average MSE of a pattern or allocation
    on ``stats`` at the pilot SNR of ``problem``, whose budget is the one the
    pattern uses.  One scorer serves one design point; it scores each
    distinct (budget, indices) pair of an integer pattern once."""
    memo = {}

    def score(problem, pattern):
        if isinstance(pattern, FractionalAllocation):
            return average_mse(stats, pattern, problem.pilot_snr)
        key = (problem.budget, pattern.indices)
        if key not in memo:
            memo[key] = average_mse(stats, pattern, problem.pilot_snr)
        return memo[key]

    return score


def _pattern_outcome(problem, pattern, objective, swap_iterations, score) -> dict:
    """The outcome fields of an integer pattern scored on ``problem``, whose
    budget is the one actually used."""
    return {
        "indices": list(pattern.indices),
        "objective": objective,
        "average_mse": score(problem, pattern),
        "K": problem.budget,
        "swap_iterations": swap_iterations,
    }


def _report_outcome(report: DesignReport, score) -> dict:
    return _pattern_outcome(
        report.problem, report.pattern, report.objective, report.swap_iterations, score
    )


def _run_relaxation(problem, allocation, seed, repeats, score) -> dict:
    return {
        "weights": allocation.weights.tolist(),
        "objective": objective_value(problem, allocation),
        "average_mse": score(problem, allocation),
        "K": problem.budget,
        "converged": allocation.converged,
        "swap_iterations": 0,
    }


def _run_rounding(problem, allocation, seed, repeats, score) -> dict:
    pattern = dependent_rounding(allocation, derive_rounding_seed(seed, 0), grid=problem.grid)
    return _pattern_outcome(problem, pattern, objective_value(problem, pattern), 0, score)


def _run_rounding_swap(problem, allocation, seed, repeats, score) -> dict:
    seeds = [derive_rounding_seed(seed, i) for i in range(repeats)]
    best, reports = relax_round_swap_design(problem, seeds, allocation=allocation)
    distribution = [
        {"rounding_seed": s, "wall_time": r.wall_time, **_report_outcome(r, score)}
        for s, r in zip(seeds, reports)
    ]
    return {**_report_outcome(best, score), "distribution": distribution}


# Each runner takes (problem, allocation, seed, repeats, score); ``allocation``
# is the shared relaxation solve, present whenever a method starting with "cr"
# runs, and ``score`` the point's ``_mse_scorer``.
RUNNERS = {
    METHOD_CR: _run_relaxation,
    METHOD_CR_ROUND: _run_rounding,
    METHOD_CR_ROUND_SWAP: _run_rounding_swap,
    METHOD_GREEDY: lambda problem, *_, score: _report_outcome(greedy_design(problem), score),
    METHOD_GREEDY_SWAP: lambda problem, *_, score: _report_outcome(
        greedy_swap_design(problem), score
    ),
    METHOD_RECT: lambda problem, *_, score: _report_outcome(
        best_lattice(problem, METHOD_RECT), score
    ),
    METHOD_DIAMOND: lambda problem, *_, score: _report_outcome(
        best_lattice(problem, METHOD_DIAMOND), score
    ),
    METHOD_EXHAUSTIVE: lambda problem, *_, score: _report_outcome(
        exhaustive_search(problem), score
    ),
}
VALID_METHODS = tuple(RUNNERS)


def run_point(cfg: ExperimentConfig, stats, K, snr_db, seed, methods, repeats):
    """Run every requested method at one configuration point.

    Returns ``{method: outcome}``.  An outcome holds ``indices``,
    ``objective``, ``average_mse``, ``K``, ``swap_iterations`` and
    ``wall_time``; ``cr-round-swap`` adds the per-rounding ``distribution``,
    and ``cr`` has ``weights`` and ``converged`` in place of ``indices``.  A
    method infeasible at this point gets ``error`` and ``K`` instead.

    ``objective`` is the design objective on the design problem's one,
    reduced-rank basis; for ``cr`` it is the relaxation bound on it.
    ``average_mse`` is scored from the channel statistics ``stats``, on every
    significant eigenpair: the exact LMMSE error of the pattern at the budget
    ``K`` actually used.  Each distinct (K used, indices) pair is scored once
    per point, across all methods and roundings.  For ``cr`` it is the error
    of the weights read as per-cell pilot power, which is not a bound, and
    it depends on which of the non-unique relaxed optima the solver stops at
    far more than the objective does.  One relaxation solve is shared by all
    relaxation-based methods; its time is attributed to the first of them.
    """
    problem = make_design_problem(stats, K=K, snr_db=snr_db, beta=cfg.beta)
    score = _mse_scorer(stats)
    outcomes = {}
    allocation = None
    relax_time = 0.0
    if any(m.startswith("cr") for m in methods):
        t0 = time.perf_counter()
        allocation = solve_relaxation(problem)
        relax_time = time.perf_counter() - t0

    for method in methods:
        t0 = time.perf_counter()
        shared = 0.0
        if method.startswith("cr"):
            shared, relax_time = relax_time, 0.0
        try:
            outcome = RUNNERS[method](problem, allocation, seed, repeats, score=score)
        except PilotOptError as exc:
            outcomes[method] = {"error": f"{type(exc).__name__}: {exc}", "K": K}
            continue
        outcome["wall_time"] = shared + time.perf_counter() - t0
        outcomes[method] = outcome
    return outcomes


def _statistics_cache(cfg: ExperimentConfig) -> dict:
    cache = {}
    for dd in cfg.spreading_factors:
        spec = ScatteringSpec(spreading_factor=dd, **cfg.scattering)
        cache[dd] = build_statistics(cfg.grid, spec)
    return cache


# --------------------------------------------------------------------------
# subcommands


def cmd_design(cfg: ExperimentConfig, out_dir: Path) -> int:
    if cfg.list_axes:
        raise ConfigError(f"design needs scalar parameters; {cfg.list_axes[0]!r} is a list")
    dd = cfg.spreading_factors[0]
    snr_db = cfg.snr_dbs[0]
    kind, value = cfg.budgets[0]
    K = budget_pilots(cfg.grid, kind, value)
    stats = _statistics_cache(cfg)[dd]
    resolved = resolved_config_dict(cfg)

    summary = {"config": resolved, "runs": []}
    for seed in cfg.seeds:
        # Panels stay consistent: the swap-refined rounding refines the same
        # single rounding that the unrefined panel displays.
        outcomes = run_point(cfg, stats, K, snr_db, seed, cfg.methods, repeats=1)
        for method, outcome in outcomes.items():
            stem = f"design_{method}_seed{seed}"
            entry = {"method": method, "seed": seed, **outcome}
            entry.pop("distribution", None)
            if "error" in outcome:
                summary["runs"].append(entry)
                print(f"[design] {method} seed={seed}: {outcome['error']}", file=sys.stderr)
                continue
            payload = {
                "config": resolved,
                "M": cfg.grid.M,
                "N": cfg.grid.N,
                "K": outcome["K"],
                "method": method,
                "seed": seed,
                "objective": outcome["objective"],
                "average_mse": outcome["average_mse"],
            }
            footer = f"avg MSE = {outcome['average_mse']:.2f}"
            if method == METHOD_CR:
                payload["weights"] = outcome["weights"]
                art = render_weights(cfg.grid, outcome["weights"], footer)
            else:
                payload["indices"] = outcome["indices"]
                art = render_pattern(cfg.grid, outcome["indices"], footer)
            write_json(out_dir / f"{stem}.json", payload)
            (out_dir / f"{stem}.txt").write_text(art, encoding="utf-8")
            summary["runs"].append(entry)
    write_json(out_dir / "design_summary.json", summary)
    return EXIT_OK


def _axis_points(cfg: ExperimentConfig):
    for kind_value in cfg.budgets:
        for snr_db in cfg.snr_dbs:
            for dd in cfg.spreading_factors:
                yield kind_value, snr_db, dd


def _csv_row(base: dict, method: str, record: dict) -> str:
    """One sweep CSV line: the point's ``base`` columns plus one outcome or
    one rounding of its distribution."""
    row = dict(
        base,
        method=method,
        K=str(record["K"]),
        objective=fmt_float(record["objective"]),
        average_mse=fmt_float(record["average_mse"]),
        swap_iterations=str(record["swap_iterations"]),
        wall_time=format(record["wall_time"], ".3f"),
        rounding_seed=str(record.get("rounding_seed", "")),
    )
    return ",".join(row[c] for c in CSV_COLUMNS)


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path) -> int:
    if not cfg.list_axes:
        raise ConfigError("sweep needs a list-valued axis (pilot_budget, snr_db or spreading)")
    primary = cfg.list_axes[0]
    cache = _statistics_cache(cfg)
    meta = {"format_version": FORMAT_VERSION, "config": resolved_config_dict(cfg), "columns": list(CSV_COLUMNS)}
    lines = ["# " + json.dumps(_round_floats(meta), sort_keys=True)]
    lines.append(",".join(CSV_COLUMNS))
    errors = []
    for ((kind, value), snr_db, dd), seed in itertools.product(_axis_points(cfg), cfg.seeds):
        K = budget_pilots(cfg.grid, kind, value)
        outcomes = run_point(cfg, cache[dd], K, snr_db, seed, cfg.methods, cfg.rounding_repeats)
        density = value if kind == "density" else value / cfg.grid.size
        axis_value = {"density": density, "snr_db": snr_db, "spreading_factor": dd}[primary]
        base = {
            "axis": fmt_float(axis_value),
            "axis_name": primary,
            "density": fmt_float(density),
            "snr_db": fmt_float(snr_db),
            "spreading_factor": fmt_float(dd),
            "seed": str(seed),
        }
        for method in cfg.methods:
            outcome = outcomes[method]
            if "error" in outcome:
                errors.append({"method": method, "seed": seed, "axis": axis_value, **outcome})
                continue
            lines.append(_csv_row(base, method, outcome))
            for dist in outcome.get("distribution", ()):
                lines.append(_csv_row(base, method + "-dist", dist))
    (out_dir / "sweep.csv").write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    if errors:
        write_json(out_dir / "sweep_errors.json", {"errors": errors})
        for err in errors:
            print(f"[sweep] {err['method']}: {err['error']}", file=sys.stderr)
    return EXIT_OK


def nearest_neighbor_dispersion(grid: GridConfig, indices) -> float | None:
    """Mean distance from each pilot to its nearest other pilot, in cells."""
    if len(indices) < 2:
        return None
    cells = np.array([grid.cell(int(k)) for k in indices], dtype=float)
    diff = cells[:, None, :] - cells[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return float(dist.min(axis=1).mean())


def cmd_structure(cfg: ExperimentConfig, out_dir: Path) -> int:
    kind, value = cfg.budgets[0]
    if len(cfg.budgets) > 1 or "density" in cfg.list_axes:
        raise ConfigError("structure needs a fixed pilot budget")
    if cfg.list_axes not in (("snr_db",), ("spreading_factor",)):
        raise ConfigError("structure needs exactly one list axis: snr_db or spreading factor")
    axis = cfg.list_axes[0]
    K = budget_pilots(cfg.grid, kind, value)
    cache = _statistics_cache(cfg)
    methods = [m for m in cfg.methods if m != METHOD_CR]
    resolved = resolved_config_dict(cfg)

    summary = {"config": resolved, "axis": axis, "patterns": []}
    for snr_db in cfg.snr_dbs:
        for dd in cfg.spreading_factors:
            axis_value = snr_db if axis == "snr_db" else dd
            for seed in cfg.seeds:
                outcomes = run_point(
                    cfg, cache[dd], K, snr_db, seed, methods, cfg.rounding_repeats
                )
                for method, outcome in outcomes.items():
                    if "error" in outcome:
                        print(f"[structure] {method}: {outcome['error']}", file=sys.stderr)
                        continue
                    dispersion = nearest_neighbor_dispersion(cfg.grid, outcome["indices"])
                    stem = f"structure_{axis}_{fmt_float(axis_value)}_{method}_seed{seed}"
                    payload = {
                        "config": resolved,
                        "M": cfg.grid.M,
                        "N": cfg.grid.N,
                        "K": outcome["K"],
                        "method": method,
                        "seed": seed,
                        "axis": axis,
                        "axis_value": axis_value,
                        "objective": outcome["objective"],
                        "average_mse": outcome["average_mse"],
                        "indices": outcome["indices"],
                        "dispersion": dispersion,
                    }
                    write_json(out_dir / f"{stem}.json", payload)
                    footer = (
                        f"avg MSE = {outcome['average_mse']:.2f} | "
                        f"dispersion = {'n/a' if dispersion is None else format(dispersion, '.2f')}"
                    )
                    (out_dir / f"{stem}.txt").write_text(
                        render_pattern(cfg.grid, outcome["indices"], footer), encoding="utf-8"
                    )
                    summary["patterns"].append(
                        {
                            "axis_value": axis_value,
                            "method": method,
                            "seed": seed,
                            "K": outcome["K"],
                            "objective": outcome["objective"],
                            "average_mse": outcome["average_mse"],
                            "dispersion": dispersion,
                        }
                    )
    write_json(out_dir / "structure_summary.json", summary)
    return EXIT_OK


def cmd_validate(cfg: ExperimentConfig | None, out_dir: Path) -> int:
    results = run_all_checks(progress=lambda r: print(r.line(), flush=True))
    payload = {
        "config": resolved_config_dict(cfg) if cfg else None,
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "runtime_s": r.runtime,
                "budget_s": r.budget_s,
                "details": r.details,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    write_json(out_dir / "validate.json", payload)
    return EXIT_OK if payload["all_passed"] else EXIT_CHECK_FAILURE


# --------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pilotopt",
        description="A-optimal pilot pattern design for OFDM over doubly dispersive channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (
        ("design", True),
        ("sweep", True),
        ("structure", True),
        ("validate", False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config, help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seeds")
        p.add_argument("--out", default=None, help="override the config output directory")
        p.add_argument(
            "--method",
            action="append",
            default=None,
            help="override config methods (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else None
        if cfg is not None:
            if args.seed is not None:
                _require(args.seed >= 0, f"--seed {args.seed} is not a non-negative integer")
                cfg = replace(cfg, seeds=(args.seed,))
            if args.method:
                for m in args.method:
                    if m not in VALID_METHODS:
                        raise ConfigError(f"--method {m!r} unknown; valid: {VALID_METHODS}")
                cfg = replace(cfg, methods=tuple(args.method))
        out_dir = Path(args.out) if args.out else Path(cfg.output_dir if cfg else "out")
        out_dir.mkdir(parents=True, exist_ok=True)

        if args.command == "design":
            return cmd_design(cfg, out_dir)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir)
        if args.command == "structure":
            return cmd_structure(cfg, out_dir)
        if args.command == "validate":
            return cmd_validate(cfg, out_dir)
        raise ConfigError(f"unknown command {args.command}")  # pragma: no cover
    except PilotOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
