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
import functools
import itertools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import GridConfig, ScatteringSpec, build_statistics, is_finite_number, is_integer
from .errors import BudgetError, ConfigError, InvalidSpecError, PilotOptError
from .objective import (
    FractionalAllocation,
    _error_covariance,
    _scoring_problem,
    compute_alpha,
    make_design_problem,
    noise_var_from_snr_db,
    objective_value,
    pilot_power_fraction,
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
EXIT_POINT_FAILED = 4
EXIT_OUT_OF_MEMORY = 5


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


def _require_distinct(values, field: str, noun: str):
    """A repeated value would repeat its runs, files and rows."""
    _require(len(set(values)) == len(values), f"field '{field}' lists {noun} twice")


def _gives_noise_var(snr_db) -> bool:
    """True when ``10^(-snr_db/10)`` is a finite positive float."""
    try:
        return 0.0 < noise_var_from_snr_db(snr_db) < float("inf")
    except OverflowError:
        return False


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate an experiment configuration file.  ``overrides``
    replaces top-level fields of the file before validation, so an override
    passes the same checks as the field it replaces."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # An integer past Python's digit limit, or nesting past its recursion limit.
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if overrides and isinstance(raw, dict):
        raw = {**raw, **overrides}
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
    _require(set(grid_raw) == {"M", "N"}, f"unknown grid fields: {sorted(set(grid_raw) - {'M', 'N'})}")
    _require(is_integer(grid_raw["M"]) and is_integer(grid_raw["N"]),
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
    _require_distinct(spreading, "scattering.spreading_factor", "a spreading factor")
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
    _require_distinct(snr, "snr_db", "an SNR")

    budget_raw = raw.get("pilot_budget")
    _require(budget_raw is not None, "field 'pilot_budget' is required")
    if isinstance(budget_raw, list):
        _require(budget_raw, "field 'pilot_budget' must not be an empty list")
        list_axes.insert(0, "density")
        for d in budget_raw:
            _require(is_finite_number(d) and 0 < d <= 1,
                     f"field 'pilot_budget': density {d!r} outside (0, 1]")
        _require_distinct(budget_raw, "pilot_budget", "a density")
        budgets = tuple(("density", float(d)) for d in budget_raw)
    else:
        _require(is_integer(budget_raw),
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
                compute_alpha(pilot_power_fraction(beta, K, grid.N), grid.N, K,
                              noise_var_from_snr_db(snr_db))
            except InvalidSpecError as exc:
                raise ConfigError(f"fields 'snr_db' and 'beta': {exc}") from exc

    methods_raw = raw.get("methods", ["greedy-swap"])
    _require(isinstance(methods_raw, list) and len(methods_raw) >= 1,
             "field 'methods' must list at least one method")
    methods = tuple(methods_raw)
    for m in methods:
        _require(m in VALID_METHODS, f"field 'methods': unknown method {m!r}; valid: {VALID_METHODS}")
    _require_distinct(methods, "methods", "a method")

    seeds = _as_tuple(raw.get("seeds", 0), "seeds")
    for s in seeds:
        _require(is_integer(s) and s >= 0, f"field 'seeds': {s!r} is not a non-negative integer")
    _require_distinct(seeds, "seeds", "a seed")
    repeats = raw.get("rounding_repeats", 50)
    _require(is_integer(repeats) and repeats >= 1, "field 'rounding_repeats' must be an integer >= 1")
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
    """``score(problem, pattern)``: ``average_mse`` of a pattern or allocation
    on ``stats`` at the pilot SNR of ``problem``, whose budget is the one the
    pattern uses.  One scorer serves one design point: it moves the problem
    of each budget to the significant eigenpairs once
    (``_scoring_problem``), and scores each distinct (budget, indices) pair
    of an integer pattern once."""
    scoring, memo = {}, {}

    def score(problem, pattern):
        K = problem.budget
        if K not in scoring:
            scoring[K] = _scoring_problem(stats, problem)
        if isinstance(pattern, FractionalAllocation):
            return _error_covariance(scoring[K], pattern)[1]
        key = (K, pattern.indices)
        if key not in memo:
            memo[key] = _error_covariance(scoring[K], pattern)[1]
        return memo[key]

    return score


def _outcome(problem, result, score) -> dict:
    """The outcome record of what a runner produced at ``problem``: a
    ``DesignReport``, the ``PilotPattern`` of a rounding, the shared
    ``FractionalAllocation``, or ``(best report, [(rounding seed, report,
    seconds), ...])`` for the per-rounding ``distribution``, whose rows take
    the seconds of their rounding and swap run as their ``wall_time``.  A
    report is scored on its own problem, at the budget actually used, so a
    lattice that fell back to K' is scored at K'."""
    if isinstance(result, tuple):
        best, rounds = result
        distribution = [
            {"rounding_seed": s, "wall_time": t, **_outcome(problem, r, score)}
            for s, r, t in rounds
        ]
        return {**_outcome(problem, best, score), "distribution": distribution}
    if isinstance(result, DesignReport):
        problem, pattern = result.problem, result.pattern
        objective, swaps = result.objective, result.swap_iterations
    else:
        pattern, objective, swaps = result, objective_value(problem, result), 0
    record = {
        "objective": objective,
        "average_mse": score(problem, pattern),
        "K": problem.budget,
        "swap_iterations": swaps,
    }
    if isinstance(pattern, FractionalAllocation):
        record.update(weights=pattern.weights.tolist(), converged=pattern.converged)
    else:
        record["indices"] = list(pattern.indices)
    return record


def _run_rounding_swap(problem, relax, seed, repeats):
    seeds = [derive_rounding_seed(seed, i) for i in range(repeats)]
    best, rounds = relax_round_swap_design(problem, seeds, relax())
    return best, [(s, report, seconds) for s, (report, seconds) in zip(seeds, rounds)]


# Each runner takes (problem, relax, seed, repeats) and returns what
# ``_outcome`` builds the record from; ``relax()`` is the point's one
# relaxation solve.
RUNNERS = {
    METHOD_CR: lambda problem, relax, *_: relax(),
    METHOD_CR_ROUND: lambda problem, relax, seed, _: dependent_rounding(
        relax(), derive_rounding_seed(seed, 0), grid=problem.grid
    ),
    METHOD_CR_ROUND_SWAP: _run_rounding_swap,
    METHOD_GREEDY: lambda problem, *_: greedy_design(problem),
    METHOD_GREEDY_SWAP: lambda problem, *_: greedy_swap_design(problem),
    METHOD_RECT: lambda problem, *_: best_lattice(problem, METHOD_RECT),
    METHOD_DIAMOND: lambda problem, *_: best_lattice(problem, METHOD_DIAMOND),
    METHOD_EXHAUSTIVE: lambda problem, *_: exhaustive_search(problem),
}
VALID_METHODS = tuple(RUNNERS)


def run_point(cfg: ExperimentConfig, stats, K, snr_db, seed, methods, repeats):
    """Run every requested method at one configuration point.

    Returns ``{method: outcome}``.  An outcome holds ``indices``,
    ``objective``, ``average_mse``, ``K``, ``swap_iterations`` and
    ``wall_time``; ``cr-round-swap`` adds the per-rounding ``distribution``,
    and ``cr`` has ``weights`` and ``converged`` in place of ``indices``.  A
    method infeasible at this point, or out of memory in its own run, gets
    ``error`` and ``K`` instead, and the point's other methods still run.

    ``objective`` is the design objective on the design problem's one,
    reduced-rank basis; for ``cr`` it is its value at the relaxation solver's
    stopping iterate, an upper bound on the relaxed optimum.
    ``average_mse`` is the objective of the same problem moved to every
    significant eigenpair of ``stats``: the exact LMMSE error of the pattern
    at the budget ``K`` actually used.  Each distinct (K used, indices) pair
    is scored once per point, across all methods and roundings.  For ``cr``
    it is the error of the weights read as per-cell pilot power, which is
    not a bound, and it depends on which of the non-unique relaxed optima
    the solver stops at far more than the objective does.

    ``wall_time`` is timed here, since the optimizers keep no clocks: the
    wall seconds of the method's runner and of building its record, scoring
    included.  The relaxation-based methods share one relaxation solve,
    ``relax()``, which the first of them to run pays for in its
    ``wall_time``.  A ``distribution`` row's ``wall_time`` covers its own
    rounding and swap run, as ``relax_round_swap_design`` times them.

    The record is built by ``_outcome`` from what the method's runner
    returns.  The runners call the optimizers inside their bodies, so each
    call looks the name up in this module when it runs: a wrapper installed
    on the module afterwards (the benchmark's tracer and hooks) sees every
    call, which a table of functions bound at import would bypass.
    """
    problem = make_design_problem(stats, K=K, snr_db=snr_db, beta=cfg.beta)
    score = _mse_scorer(stats)
    relax = functools.cache(lambda: solve_relaxation(problem))
    outcomes = {}
    for method in methods:
        t0 = time.perf_counter()
        try:
            result = RUNNERS[method](problem, relax, seed, repeats)
            outcome = _outcome(problem, result, score)
        except (PilotOptError, MemoryError) as exc:
            outcomes[method] = {"error": f"{type(exc).__name__}: {exc}", "K": K}
            continue
        outcome["wall_time"] = time.perf_counter() - t0
        outcomes[method] = outcome
    return outcomes


def _run_points(cfg: ExperimentConfig, command: str, methods, repeats):
    """``(points, status)``: ``(point, outcomes)`` of ``run_point`` at each
    design point of ``cfg``, budgets x SNR x spreading factor x seeds, with
    its ``density``, ``snr_db``, ``spreading_factor`` and ``seed`` in
    ``point``, and ``EXIT_POINT_FAILED`` if every method failed at a point,
    else ``EXIT_OK``.  All statistics are built first, so a failing build
    stops the run before any file is written.  Each failed method is printed
    once, naming its point."""
    points = []
    stats = {
        dd: build_statistics(cfg.grid, ScatteringSpec(spreading_factor=dd, **cfg.scattering))
        for dd in cfg.spreading_factors
    }
    for (kind, value), snr_db, dd, seed in itertools.product(
        cfg.budgets, cfg.snr_dbs, cfg.spreading_factors, cfg.seeds
    ):
        K = budget_pilots(cfg.grid, kind, value)
        outcomes = run_point(cfg, stats[dd], K, snr_db, seed, methods, repeats)
        density = value if kind == "density" else value / cfg.grid.size
        point = {"density": density, "snr_db": snr_db, "spreading_factor": dd}
        where = " ".join(f"{name}={fmt_float(x)}" for name, x in point.items())
        for method, outcome in outcomes.items():
            if "error" in outcome:
                print(f"[{command}] {method} {where} seed={seed}: {outcome['error']}", file=sys.stderr)
        points.append(({**point, "seed": seed}, outcomes))
    failed = any(all("error" in o for o in outcomes.values()) for _, outcomes in points)
    return points, EXIT_POINT_FAILED if failed else EXIT_OK


# --------------------------------------------------------------------------
# subcommands


# The record fields a pattern file carries: ``indices``, or ``weights`` for
# ``cr``, and what they score.
PATTERN_FIELDS = ("K", "objective", "average_mse", "indices", "weights")
# The fields of a structure pattern file that its summary entry repeats.
STRUCTURE_SUMMARY_FIELDS = (
    "axis_value", "method", "seed", "K", "objective", "average_mse", "dispersion"
)


def _write_pattern(out_dir: Path, stem: str, cfg, method, seed, outcome, **extras) -> dict:
    """Write one outcome record's pattern file ``stem.json`` and its ASCII
    art ``stem.txt``, and return the file's payload.  ``extras`` are payload
    fields outside the record: structure's ``axis``, ``axis_value`` and
    ``dispersion``, which the art's footer also shows."""
    record = {k: outcome[k] for k in PATTERN_FIELDS if k in outcome}
    payload = {"config": resolved_config_dict(cfg), "M": cfg.grid.M, "N": cfg.grid.N,
               "method": method, "seed": seed, **record, **extras}
    write_json(out_dir / f"{stem}.json", payload)
    footer = f"avg MSE = {outcome['average_mse']:.4g}"
    if "dispersion" in extras:
        dispersion = extras["dispersion"]
        footer += f" | dispersion = {'n/a' if dispersion is None else format(dispersion, '.2f')}"
    if "weights" in record:
        art = render_weights(cfg.grid, record["weights"], footer)
    else:
        art = render_pattern(cfg.grid, record["indices"], footer)
    (out_dir / f"{stem}.txt").write_text(art, encoding="utf-8")
    return payload


def cmd_design(cfg: ExperimentConfig, out_dir: Path) -> int:
    if cfg.list_axes:
        raise ConfigError(f"design needs scalar parameters; {cfg.list_axes[0]!r} is a list")
    summary = {"config": resolved_config_dict(cfg), "runs": []}
    # Panels stay consistent: the swap-refined rounding refines the same
    # single rounding that the unrefined panel displays.
    points, status = _run_points(cfg, "design", cfg.methods, repeats=1)
    for point, outcomes in points:
        seed = point["seed"]
        for method, outcome in outcomes.items():
            run = {k: v for k, v in outcome.items() if k != "distribution"}
            summary["runs"].append({"method": method, "seed": seed, **run})
            if "error" not in outcome:
                _write_pattern(out_dir, f"design_{method}_seed{seed}", cfg, method, seed, outcome)
    write_json(out_dir / "design_summary.json", summary)
    return status


def _csv_row(base: dict, method: str, record: dict) -> str:
    """One sweep CSV line: the point's ``base`` columns plus the columns of
    one outcome record or one rounding of its distribution.  Record floats
    take 12 significant digits; ``wall_time``, telemetry, takes three
    decimals."""
    row = {**base, "method": method, "rounding_seed": ""}
    for column, value in record.items():
        if column == "wall_time":
            row[column] = format(value, ".3f")
        elif column in CSV_COLUMNS:
            row[column] = fmt_float(value) if isinstance(value, float) else str(value)
    return ",".join(row[c] for c in CSV_COLUMNS)


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path) -> int:
    if not cfg.list_axes:
        raise ConfigError("sweep needs a list-valued axis (pilot_budget, snr_db or spreading)")
    primary = cfg.list_axes[0]
    meta = {"format_version": FORMAT_VERSION, "config": resolved_config_dict(cfg), "columns": list(CSV_COLUMNS)}
    lines = ["# " + json.dumps(_round_floats(meta), sort_keys=True)]
    lines.append(",".join(CSV_COLUMNS))
    errors = []
    points, status = _run_points(cfg, "sweep", cfg.methods, cfg.rounding_repeats)
    for point, outcomes in points:
        base = {name: fmt_float(point[name]) for name in ("density", "snr_db", "spreading_factor")}
        base.update(axis=fmt_float(point[primary]), axis_name=primary, seed=str(point["seed"]))
        for method, outcome in outcomes.items():
            if "error" in outcome:
                errors.append({"method": method, "axis": point[primary], **point, **outcome})
                continue
            lines.append(_csv_row(base, method, outcome))
            for dist in outcome.get("distribution", ()):
                lines.append(_csv_row(base, method + "-dist", dist))
    (out_dir / "sweep.csv").write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    if errors:
        write_json(out_dir / "sweep_errors.json", {"errors": errors})
    return status


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
    if len(cfg.budgets) > 1 or "density" in cfg.list_axes:
        raise ConfigError("structure needs a fixed pilot budget")
    if cfg.list_axes not in (("snr_db",), ("spreading_factor",)):
        raise ConfigError("structure needs exactly one list axis: snr_db or spreading factor")
    axis = cfg.list_axes[0]
    methods = [m for m in cfg.methods if m != METHOD_CR]
    if not methods:
        raise ConfigError("structure needs a method that places pilots; cr gives only weights")

    summary = {"config": resolved_config_dict(cfg), "axis": axis, "patterns": []}
    points, status = _run_points(cfg, "structure", methods, cfg.rounding_repeats)
    for point, outcomes in points:
        axis_value, seed = point[axis], point["seed"]
        for method, outcome in outcomes.items():
            if "error" in outcome:
                entry = {"axis_value": axis_value, "method": method, "seed": seed, **outcome}
                summary["patterns"].append(entry)
                continue
            stem = f"structure_{axis}_{fmt_float(axis_value)}_{method}_seed{seed}"
            dispersion = nearest_neighbor_dispersion(cfg.grid, outcome["indices"])
            payload = _write_pattern(out_dir, stem, cfg, method, seed, outcome,
                                     axis=axis, axis_value=axis_value, dispersion=dispersion)
            summary["patterns"].append({k: payload[k] for k in STRUCTURE_SUMMARY_FIELDS})
    write_json(out_dir / "structure_summary.json", summary)
    return status


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pilotopt",
        description="A-optimal pilot pattern design for OFDM over doubly dispersive channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("design", "sweep", "structure", "validate"):
        needs_config = name != "validate"
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config, help="path to a JSON config file")
        p.add_argument("--out", default=None, help="override the config output directory")
        if needs_config:  # validate runs fixed checks: no seeds or methods to override
            p.add_argument("--seed", type=int, default=None, help="override the config seeds")
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
        overrides = {}
        if getattr(args, "seed", None) is not None:
            overrides["seeds"] = [args.seed]
        if getattr(args, "method", None):
            overrides["methods"] = args.method
        cfg = load_config(args.config, overrides) if args.config else None
        out_dir = Path(args.out) if args.out else Path(cfg.output_dir if cfg else "out")
        out_dir.mkdir(parents=True, exist_ok=True)
        # By name when it runs, so a wrapper set on this module sees the call.
        return globals()[f"cmd_{args.command}"](cfg, out_dir)
    except PilotOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY


if __name__ == "__main__":
    sys.exit(main())
