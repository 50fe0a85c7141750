"""The benchmark's workloads: set-up, units of work and output checks.

Each workload is a closed loop with a single caller.  Its set-up builds the
channel statistics and warms BLAS at every rank it will use; its measured
phase repeats a fixed list of units.  A unit is one call into the program
(a ``sweep`` CLI run, a batch of roundings, one Monte Carlo simulation);
only that call is timed, and the unit's outputs are checked afterwards.

Units are short and every repetition of a unit does the same work: a sweep
unit reruns the same config, and the rounding and Monte Carlo units draw
fresh seeds for a fixed amount of work.  ``run.py`` times each repetition
against a fixed reference computation run beside it.
"""

import contextlib
import csv
import inspect
import io
import json
import warnings
from collections import Counter, defaultdict

import numpy as np

from . import checks
from .harness import Digest, Tracer, fmt12

SNR_DB = 20.0
SPREADING = 0.005

RB_GRID = {"M": 12, "N": 14}
RB_DENSITIES = (0.05, 0.08, 0.1, 0.15, 0.2, 0.3)
# Axes and methods of the shipped configs/sweep_density.json and
# configs/sweep_spreading.json, split into one sweep run per design point.
RB_SWEEPS = (
    (
        "density",
        (SPREADING,),
        ("cr", "cr-round-swap", "greedy", "greedy-swap", "rect", "diamond"),
    ),
    ("spreading", (0.0001, 0.001, 0.01), ("greedy-swap", "cr-round-swap")),
)
RB_ROUNDINGS = 50
RB_K = round(0.1 * RB_GRID["M"] * RB_GRID["N"])  # 17 pilots

BIG_GRID = {"M": 48, "N": 28}
BIG_K = round(0.1 * BIG_GRID["M"] * BIG_GRID["N"])  # 134 pilots

ROUNDINGS_PER_UNIT = 1000
# Realizations per simulation unit, and the fewest units a run pools for the
# Monte Carlo check: enough realizations in all (10000 and 2500) that 2% of
# the analytic MSE is more than 4 standard errors, so criterion 5 fails a
# correct run rarely.
MC_REALIZATIONS = {"12x14": 1000, "48x28": 250}
MC_MIN_UNITS = 10

SWAP_METHODS = ("greedy-swap", "cr-round-swap")
LATTICE_METHODS = ("rect", "diamond")

# Functions wrapped only while a traced unit runs; the hooked ones in
# ``Bench.install`` are wrapped for the whole run and traced as well.
SPAN_ONLY = {
    "objective": (
        "make_design_problem",
        "objective_value",
        "objective_gradient",
        "gains_for_candidates",
        "removal_terms",
        "rank_one_update",
    ),
    "optimizers": (
        "project_capped_simplex",
        "greedy_design",
        "greedy_swap_design",
        "relax_round_swap_design",
    ),
    "mcsim": ("run_simulation", "sample_channels", "lmmse_weights", "analytic_mse"),
    "cli": ("main", "cmd_sweep"),
}


class Bench:
    """State of one benchmark run: tracer, checks, counters and the hook
    observations that wait for a unit's check."""

    def __init__(self, seed: int, out_dir, run_id: str):
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = Tracer(run_id)
        self.ledger = checks.Ledger()
        self.counters = Counter()
        self.obs = defaultdict(list)
        self.gaps: list[float] = []  # design gaps, one per distinct output
        self.ranks: set[int] = set()
        self.last_allocation = None
        self.notes: list[str] = []

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        """Import the package and wrap the functions whose calls are checked."""
        from pilotopt import channel, cli, mcsim, objective, optimizers
        from pilotopt.errors import NoFeasibleLatticeError

        self.channel, self.objective, self.optimizers = channel, objective, optimizers
        self.mcsim, self.cli = mcsim, cli
        self._infeasible = NoFeasibleLatticeError
        self._swap_sig = inspect.signature(optimizers.local_swap)
        self._point_sig = inspect.signature(cli.run_point)
        wrap = self.tracer.wrap
        wrap("hooks", channel, "build_statistics", "channel.build_statistics", self._on_statistics)
        wrap("hooks", optimizers, "local_swap", "optimizers.local_swap", self._on_swap)
        wrap("hooks", optimizers, "dependent_rounding", "optimizers.dependent_rounding", self._on_rounding)
        wrap("hooks", optimizers, "solve_relaxation", "optimizers.solve_relaxation", self._on_relaxation)
        wrap("hooks", optimizers, "best_lattice", "optimizers.best_lattice", self._on_lattice)
        wrap("hooks", cli, "run_point", "cli.run_point", self._on_point)

    def trace_on(self) -> None:
        for module, attrs in SPAN_ONLY.items():
            for attr in attrs:
                self.tracer.wrap("spans", getattr(self, module), attr, f"{module}.{attr}")
        self.tracer.enabled = True

    def trace_off(self) -> None:
        self.tracer.enabled = False
        self.tracer.unwrap("spans")

    # -- hooks: record only, the checks run after the unit ------------------

    def _on_statistics(self, args, kwargs, result, exc):
        if exc is None:
            self.ranks.add(int(result.effective_rank))

    def _on_swap(self, args, kwargs, result, exc):
        if exc is not None:
            return
        call = self._swap_sig.bind(*args, **kwargs)
        call.apply_defaults()
        max_passes = call.arguments["max_passes"]
        self.obs["swaps"].append((call.arguments["problem"], call.arguments["init"], result))
        self.counters["optimizers.local_swap.passes"] += result.swap_iterations
        self.counters["optimizers.local_swap.cap_hits"] += result.swap_iterations >= max_passes

    def _on_rounding(self, args, kwargs, result, exc):
        if exc is None:
            allocation = args[0] if args else kwargs["allocation"]
            self.obs["roundings"].append((allocation, result.indices))

    def _on_relaxation(self, args, kwargs, result, exc):
        if exc is None:
            self.last_allocation = result

    def _on_lattice(self, args, kwargs, result, exc):
        if isinstance(exc, self._infeasible):
            self.counters["optimizers.best_lattice.infeasible"] += 1
        elif exc is None:
            problem = args[0] if args else kwargs["problem"]
            self.counters["optimizers.best_lattice.fallbacks"] += result.budget_used != problem.budget

    def _on_point(self, args, kwargs, result, exc):
        if exc is None:
            call = self._point_sig.bind(*args, **kwargs)
            self.obs["points"].append((call.arguments, result, self.last_allocation))
        self.last_allocation = None

    def take(self, kind: str) -> list:
        return self.obs.pop(kind, [])

    def count_warnings(self, caught) -> None:
        """Count warnings instead of printing them."""
        for w in caught:
            text = str(w.message)
            if "relaxation stopped" in text:
                self.counters["optimizers.solve_relaxation.nonconverged"] += 1
            elif "power_fraction" in text:
                self.counters["warnings.power_fraction"] += 1
            else:
                self.counters["warnings.other"] += 1
                self.notes.append(f"warning: {text}")

    @contextlib.contextmanager
    def quiet(self):
        """Collect warnings and stderr of a call into the program."""
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            yield
        self.count_warnings(caught)
        if err.getvalue().strip():
            self.notes.append(err.getvalue().strip())

    # -- checks -------------------------------------------------------------

    def check_swaps(self, unit: str, digest: Digest) -> None:
        for problem, init, report in self.take("swaps"):
            start = checks.a_optimal_objective(problem.prior, problem.rows, problem.pilot_snr, init.indices)
            end = checks.a_optimal_objective(
                problem.prior, problem.rows, problem.pilot_snr, report.pattern.indices
            )
            problems = (
                checks.objective_problems(report.initial_objective, start)
                + checks.objective_problems(report.objective, end)
                + checks.swap_problems(report.initial_objective, report.objective)
            )
            if len(report.pattern) != problem.budget:
                problems.append(f"swap returned {len(report.pattern)} pilots, budget {problem.budget}")
            self.ledger.record(f"{unit}: local_swap", problems)
            digest.add("swap", report.pattern.indices, fmt12(report.objective), report.swap_iterations)

    def check_roundings(self, unit: str, digest: Digest) -> None:
        """Every rounding has exactly K ones."""
        for allocation, indices in self.take("roundings"):
            K = allocation.budget
            problems = [] if len(indices) == K else [f"rounding has {len(indices)} ones, expected {K}"]
            self.ledger.record(f"{unit}: dependent_rounding", problems)
            digest.add("round", indices)

    def check_point(self, unit: str, point, digest: Digest, record_gap: bool = True) -> None:
        """Recompute every method's objective at one design point."""
        arguments, outcomes, allocation = point
        cfg, stats, K, snr_db = arguments["cfg"], arguments["stats"], arguments["K"], arguments["snr_db"]
        N = cfg.grid.N
        beta = cfg.beta if cfg.beta is not None else K / N
        noise_var = 10.0 ** (-snr_db / 10.0)
        prior, rows = stats.eigvals, stats.eigvecs
        bound = None
        if allocation is not None:
            bound = checks.a_optimal_objective(
                prior, rows, checks.pilot_snr(beta, N, K, noise_var), weights=allocation.weights
            )
        for method in arguments["methods"]:
            outcome = outcomes.get(method)
            problems = []
            if outcome is None:
                problems.append("no outcome")
            elif "error" in outcome:
                if not (method in LATTICE_METHODS and outcome["error"].startswith("NoFeasibleLatticeError")):
                    problems.append(outcome["error"])
                digest.add(method, K, "error", outcome["error"])
            elif method == "cr":
                problems += checks.objective_problems(outcome["objective"], bound)
                digest.add(method, K, [fmt12(w) for w in outcome["weights"]], fmt12(outcome["objective"]))
            else:
                used, indices = outcome["K"], outcome["indices"]
                low = K - 2 if method in LATTICE_METHODS else K
                if len(indices) != used or not low <= used <= K:
                    problems.append(f"{len(indices)} pilots reported as K={used} for budget {K}")
                recomputed = checks.a_optimal_objective(
                    prior, rows, checks.pilot_snr(beta, N, used, noise_var), indices
                )
                problems += checks.objective_problems(outcome["objective"], recomputed)
                integer_objectives = [outcome["objective"]] + [
                    d["objective"] for d in outcome.get("distribution", ())
                ]
                if bound is not None and used == K:
                    for value in integer_objectives:
                        problems += checks.bound_problems(bound, value)
                digest.add(method, K, used, indices, [fmt12(v) for v in integer_objectives])
            self.ledger.record(f"{unit}: {method} at K={K}", problems)
        refined = [
            outcomes[m]["objective"]
            for m in SWAP_METHODS
            if m in outcomes and "error" not in outcomes[m]
        ]
        if record_gap and bound is not None and refined:
            self.gaps.append(min(refined) / bound - 1.0)


def _csv_problems(path, outcomes, methods) -> list[str]:
    """The sweep CSV rows, minus wall times, against the run_point outcomes."""
    expected = []
    for method in methods:
        outcome = outcomes[method]
        if "error" in outcome:
            continue
        expected.append((method, str(outcome["K"]), fmt12(outcome["objective"]), str(outcome["swap_iterations"])))
        for dist in outcome.get("distribution", ()):
            expected.append(
                (method + "-dist", str(outcome["K"]), fmt12(dist["objective"]), str(dist["swap_iterations"]))
            )
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    got = [(r["method"], r["K"], r["objective"], r["swap_iterations"]) for r in rows]
    return [] if got == expected else [f"sweep.csv rows differ from the run_point outcomes in {path}"]


# -- units -----------------------------------------------------------------


class SweepUnit:
    """One ``pilotopt sweep`` run over a single design point.  Every
    repetition runs the same config, with the workload seed as its seed."""

    # Repetitions must reproduce the first one's outputs exactly.
    deterministic = True

    def __init__(self, bench: Bench, name: str, config: dict):
        self.bench, self.name, self.config = bench, name, config
        self.out = bench.out_dir / "cli" / name
        self.config_path = bench.out_dir / "configs" / f"{name}.json"
        self.checked = 0

    def prepare(self, cycle: int):
        if self.checked == 0:
            self.out.mkdir(parents=True, exist_ok=True)
            self.config_path.parent.mkdir(parents=True, exist_ok=True)
            config = dict(self.config, seeds=[self.bench.seed], output_dir=str(self.out))
            self.config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        return self.config_path

    def run(self, config_path):
        return self.bench.cli.main(["sweep", "--config", str(config_path), "--out", str(self.out)])

    def check(self, config_path, exit_code, digest: Digest) -> None:
        bench = self.bench
        bench.ledger.record(f"{self.name}: exit code", [] if exit_code == 0 else [f"exit code {exit_code}"])
        points = bench.take("points")
        for point in points:
            bench.check_point(self.name, point, digest, record_gap=self.checked == 0)
        self.checked += 1
        bench.check_swaps(self.name, digest)
        bench.check_roundings(self.name, digest)
        if exit_code == 0:
            problems = []
            if len(points) != 1:
                problems.append(f"{len(points)} design points, expected 1")
            else:
                arguments, outcomes, _ = points[0]
                problems += _csv_problems(self.out / "sweep.csv", outcomes, arguments["methods"])
            bench.ledger.record(f"{self.name}: sweep.csv", problems)


class RoundingUnit:
    """Many seeded dependent roundings of one relaxed allocation."""

    name = "rounding-12x14"

    def __init__(self, bench: Bench, problem, allocation):
        self.bench, self.problem, self.allocation = bench, problem, allocation
        self.bound = checks.a_optimal_objective(
            problem.prior, problem.rows, problem.pilot_snr, weights=allocation.weights
        )
        self.counts = np.zeros(problem.grid.size)
        self.total = 0
        self.seen = set()  # a traced run repeats each batch; count it once

    def prepare(self, cycle: int):
        entropy = [self.bench.seed, cycle]
        return [int(s) for s in np.random.SeedSequence(entropy).generate_state(ROUNDINGS_PER_UNIT)]

    def run(self, seeds):
        rounding, allocation, grid = self.bench.optimizers.dependent_rounding, self.allocation, self.problem.grid
        return [rounding(allocation, s, grid=grid) for s in seeds]

    def check(self, seeds, patterns, digest: Digest) -> None:
        bench, problem = self.bench, self.problem
        taken = bench.take("roundings")
        fresh = seeds[0] not in self.seen
        self.seen.add(seeds[0])
        gaps = []
        for allocation, indices in taken:
            problems = []
            if len(indices) != allocation.budget:
                problems.append(f"rounding has {len(indices)} ones, expected {allocation.budget}")
            value = checks.a_optimal_objective(problem.prior, problem.rows, problem.pilot_snr, indices)
            problems += checks.bound_problems(self.bound, value)
            bench.ledger.record(f"{self.name}: dependent_rounding", problems)
            gaps.append(value / self.bound - 1.0)
            digest.add("round", indices)
            if fresh:
                self.counts[list(indices)] += 1
        if len(taken) != len(seeds):
            bench.ledger.record(self.name, [f"{len(taken)} roundings observed for {len(seeds)} calls"])
        if fresh:
            self.total += len(taken)
            bench.gaps += gaps

    def final_check(self) -> dict:
        """Aggregate marginals of every rounding in the run."""
        problems, worst_z, limit_z = checks.marginal_problems(
            self.allocation.weights, self.counts, self.total
        )
        self.bench.ledger.record(f"{self.name}: marginals over {self.total} roundings", problems)
        return {"roundings": self.total, "max_deviation_se": worst_z, "limit_se": limit_z}


class SimulationUnit:
    """One seeded Monte Carlo run of a fixed pattern.  The check against the
    analytic MSE pools every distinct run of the unit."""

    min_repeats = MC_MIN_UNITS

    def __init__(self, bench: Bench, label: str, index: int, stats, problem, pattern):
        self.bench, self.index = bench, index
        self.name = f"mc-{label}"
        self.stats, self.problem, self.pattern = stats, problem, pattern
        self.realizations = MC_REALIZATIONS[label]
        self.runs = {}  # rng seed -> (empirical MSE, standard error, analytic MSE)

    def prepare(self, cycle: int):
        entropy = [self.bench.seed, cycle, self.index]
        return int(np.random.SeedSequence(entropy).generate_state(1)[0])

    def run(self, rng_seed):
        mcsim = self.bench.mcsim
        cfg = mcsim.SimConfig(
            realizations=self.realizations, rng_seed=rng_seed, noise_var=self.problem.noise_var
        )
        return mcsim.run_simulation(self.stats, self.problem, self.pattern, cfg)

    def check(self, rng_seed, result, digest: Digest) -> None:
        run = (result.empirical_mse, result.standard_error, result.analytic_mse)
        problems = []
        if not (np.isfinite(run).all() and min(run) > 0):
            problems.append(f"MSE, standard error and analytic MSE must be positive: {run}")
        if self.runs.setdefault(rng_seed, run) != run:
            problems.append(f"rng seed {rng_seed} gave {run}, before {self.runs[rng_seed]}")
        self.bench.ledger.record(f"{self.name}: Monte Carlo run", problems)
        self.bench.counters["mcsim.realizations"] += self.realizations
        digest.add(self.name, *(fmt12(v) for v in run))

    def final_check(self) -> dict:
        """Criterion 5 on the mean of the run's distinct simulations."""
        runs = list(self.runs.values())
        empirical = float(np.mean([r[0] for r in runs]))
        standard_error = float(np.sqrt(np.sum(np.square([r[1] for r in runs])))) / len(runs)
        analytic = runs[0][2]
        problems = checks.monte_carlo_problems(empirical, analytic, standard_error)
        if len(runs) < self.min_repeats:
            problems.append(f"{len(runs)} simulations pooled, at least {self.min_repeats} needed")
        if any(r[2] != analytic for r in runs):
            problems.append("the analytic MSE differs between runs of one pattern")
        self.bench.ledger.record(f"{self.name}: Monte Carlo vs analytic over {len(runs)} runs", problems)
        return {
            "unit": self.name,
            "realizations": len(runs) * self.realizations,
            "deviation_se": abs(empirical - analytic) / standard_error,
            "deviation_rel": abs(empirical - analytic) / analytic,
        }


# -- set-ups ---------------------------------------------------------------


def _statistics(bench: Bench, grid: dict, spreading: float):
    ch = bench.channel
    return ch.build_statistics(ch.GridConfig(grid["M"], grid["N"]), ch.ScatteringSpec(spreading_factor=spreading))


def _warm_up(bench: Bench, stats, K: int, snr_db: float):
    """One objective and gradient evaluation: the first BLAS call at a new
    rank pays a one-off cost the measured phase should not see."""
    obj = bench.objective
    problem = obj.make_design_problem(stats, K=K, snr_db=snr_db)
    weights = np.full(stats.grid.size, K / stats.grid.size)
    obj.objective_value(problem, weights)
    obj.objective_gradient(problem, weights)
    return problem


def _warm_up_ranks(bench: Bench, stats_list, K: int, snr_db: float) -> None:
    seen = set()
    for stats in stats_list:
        if stats.effective_rank not in seen:
            seen.add(stats.effective_rank)
            _warm_up(bench, stats, K, snr_db)


def _sweep_config(grid, spreading, density, snr_db, methods, roundings) -> dict:
    return {
        "grid": dict(grid),
        "scattering": {"spreading_factor": spreading},
        "snr_db": snr_db,
        "pilot_budget": [density],
        "methods": list(methods),
        "rounding_repeats": roundings,
    }


def setup_rb_sweep(bench: Bench) -> list:
    spreadings = sorted({dd for _, dds, _ in RB_SWEEPS for dd in dds})
    stats_list = [_statistics(bench, RB_GRID, dd) for dd in spreadings]
    _warm_up_ranks(bench, stats_list, RB_K, SNR_DB)
    units = []
    for label, dds, methods in RB_SWEEPS:
        for density in RB_DENSITIES:
            for dd in dds:
                # The density sweep has a scalar spreading factor; keep it so.
                spreading = dd if len(dds) == 1 else [dd]
                name = f"{label}-d{density:g}" + ("" if len(dds) == 1 else f"-s{dd:g}")
                config = _sweep_config(RB_GRID, spreading, density, SNR_DB, methods, RB_ROUNDINGS)
                units.append(SweepUnit(bench, name, config))
    return units


def setup_mc_rounding(bench: Bench) -> list:
    stats_small = _statistics(bench, RB_GRID, SPREADING)
    stats_big = _statistics(bench, BIG_GRID, SPREADING)
    small = _warm_up(bench, stats_small, RB_K, SNR_DB)
    big = _warm_up(bench, stats_big, BIG_K, SNR_DB)
    opt = bench.optimizers
    allocation = opt.solve_relaxation(small)
    units = [RoundingUnit(bench, small, allocation)]
    for index, (label, stats, problem) in enumerate((("12x14", stats_small, small), ("48x28", stats_big, big))):
        pattern = opt.greedy_design(problem).pattern
        units.append(SimulationUnit(bench, label, index, stats, problem, pattern))
    return units


WORKLOADS = {
    "rb-sweep": setup_rb_sweep,
    "mc-rounding": setup_mc_rounding,
}
