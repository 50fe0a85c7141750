"""Automated acceptance checks.

Each check returns a ``CheckResult`` with measured quantities; a check passes
only if its correctness conditions hold and it finishes within its runtime
budget.  The checks are shared between the test suite and the ``validate``
CLI command.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .channel import GridConfig, ScatteringSpec, build_statistics
from .errors import NoFeasibleLatticeError
from .mcsim import SimConfig, run_simulation
from .objective import (
    FractionalAllocation,
    PilotPattern,
    average_mse,
    gains_for_candidates,
    make_design_problem,
    objective_gradient,
    objective_value,
    pattern_inverse,
    swap_deltas,
)
from .optimizers import (
    best_lattice,
    dependent_rounding,
    exhaustive_search,
    greedy_design,
    greedy_swap_design,
    local_swap,
    project_capped_simplex,
    relax_round_swap_design,
    solve_relaxation,
)

DENSITIES = (0.05, 0.08, 0.1, 0.15, 0.2, 0.3)
ROUNDING_REPEATS = 50


@dataclass
class CheckResult:
    name: str
    passed: bool
    runtime: float
    budget_s: float | None
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        budget = f" (runtime {self.runtime:.1f}s / budget {self.budget_s:.0f}s)" if self.budget_s else ""
        return f"{verdict}  {self.name}{budget}"


def _finish(name, budget_s, t0, ok, details) -> CheckResult:
    runtime = time.perf_counter() - t0
    if budget_s is not None and runtime >= budget_s:
        ok = False
        details["runtime_exceeded"] = True
    return CheckResult(name=name, passed=bool(ok), runtime=runtime, budget_s=budget_s, details=details)


def _oracle_grid_problem(K):
    spec = ScatteringSpec(
        spreading_factor=0.09,
        normalized_delay_spread=0.3,
        normalized_doppler_spread=0.3,
        delay_profile="uniform",
        doppler_spectrum="uniform",
    )
    stats = build_statistics(GridConfig(4, 4), spec)
    return make_design_problem(stats, K=K, snr_db=10.0)


def check_oracle_gap() -> CheckResult:
    """4x4 grid: exhaustive optimum <= greedy+swap <= 1.05x optimum, and the
    relaxed value lower-bounds the optimum, for K in {2, 3, 4}."""
    t0 = time.perf_counter()
    ok, details = True, {}
    for K in (2, 3, 4):
        problem = _oracle_grid_problem(K)
        optimum = exhaustive_search(problem).objective
        refined = greedy_swap_design(problem).objective
        relaxed = objective_value(problem, solve_relaxation(problem))
        good = optimum <= refined + 1e-12 <= 1.05 * optimum + 1e-12 and relaxed <= optimum + 1e-9
        ok &= good
        details[f"K={K}"] = {
            "optimum": optimum,
            "greedy_swap": refined,
            "ratio": refined / optimum,
            "relaxed": relaxed,
        }
    return _finish("criterion 1: oracle optimality gap", 5.0, t0, ok, details)


def check_incremental_updates() -> CheckResult:
    """The batched kernels the optimizers run match full reinversion to 1e-9
    relative over 200 random cases each on a 12x14 instance: greedy's
    ``gains_for_candidates`` over all P rows and the swap pass's
    ``swap_deltas`` screen, each on the pattern's ``A^{-1}``."""
    t0 = time.perf_counter()
    stats = build_statistics(GridConfig(12, 14), ScatteringSpec(spreading_factor=0.001))
    problem = make_design_problem(stats, K=14, snr_db=10.0)
    rng = np.random.default_rng(2024)
    P = problem.grid.size
    worst_gain, worst_swap = 0.0, 0.0
    for _ in range(200):
        S = tuple(int(i) for i in rng.choice(P, size=14, replace=False))
        selected = np.array(sorted(S), dtype=np.intp)
        A_inv = pattern_inverse(problem, selected)
        outside = [k for k in range(P) if k not in S]
        j = int(rng.choice(outside))
        gain = float(gains_for_candidates(A_inv, problem.rows, problem.pilot_snr)[j])
        direct = objective_value(problem, PilotPattern(S, problem.grid)) - objective_value(
            problem, PilotPattern(S + (j,), problem.grid)
        )
        worst_gain = max(worst_gain, abs(gain - direct) / max(abs(direct), 1e-30))

        i = int(rng.choice(S))
        j2 = int(rng.choice(outside))
        deltas = swap_deltas(problem, A_inv, selected, np.array(outside, dtype=np.intp))
        delta = float(deltas[selected.searchsorted(i), outside.index(j2)])
        swapped = tuple(sorted(set(S) - {i} | {j2}))
        direct_delta = objective_value(
            problem, PilotPattern(swapped, problem.grid)
        ) - objective_value(problem, PilotPattern(S, problem.grid))
        denom = max(abs(direct_delta), 1e-9)
        worst_swap = max(worst_swap, abs(delta - direct_delta) / denom)
    ok = worst_gain <= 1e-9 and worst_swap <= 1e-9
    return _finish(
        "criterion 2: incremental updates vs reinversion",
        10.0,
        t0,
        ok,
        {"worst_gain_rel_err": worst_gain, "worst_swap_rel_err": worst_swap},
    )


def check_gradient() -> CheckResult:
    """Analytic gradient matches central finite differences (step 1e-5)
    within 1e-5 relative on a seed-fixed 4x4 instance."""
    t0 = time.perf_counter()
    problem = _oracle_grid_problem(5)
    rng = np.random.default_rng(7)
    w = project_capped_simplex(rng.uniform(0.1, 0.9, size=16), 5)
    grad = objective_gradient(problem, w)
    h = 1e-5
    fd = np.empty_like(grad)
    for i in range(w.size):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        fd[i] = (objective_value(problem, wp) - objective_value(problem, wm)) / (2 * h)
    rel = float(np.linalg.norm(grad - fd) / np.linalg.norm(grad))
    return _finish(
        "criterion 3: analytic gradient vs finite differences",
        None,
        t0,
        rel <= 1e-5,
        {"relative_error": rel},
    )


def check_dependent_rounding() -> CheckResult:
    """1e5 seeded roundings of a fixed P=16, K=5 allocation: every output has
    exactly 5 ones and marginals stay within 3 standard errors."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    target = project_capped_simplex(rng.uniform(0.05, 0.95, size=16), 5)
    allocation = FractionalAllocation(target, budget=5)
    trials = 100_000
    counts = np.zeros(16)
    budget_ok = True
    for seed in range(trials):
        pattern = dependent_rounding(allocation, rng_seed=seed)
        if len(pattern) != 5:
            budget_ok = False
            break
        counts[list(pattern.indices)] += 1
    freq = counts / trials
    se = np.sqrt(np.clip(target * (1 - target), 1e-12, None) / trials)
    deviations = np.abs(freq - target) / se
    ok = budget_ok and bool(np.all(deviations <= 3.0))
    return _finish(
        "criterion 4: dependent rounding marginals",
        20.0,
        t0,
        ok,
        {
            "budget_exact": budget_ok,
            "max_deviation_se": float(deviations.max()),
            "marginal_targets": target.tolist(),
            "marginal_freq": freq.tolist(),
        },
    )


def check_monte_carlo() -> CheckResult:
    """12x14, K=14, spreading 1e-3, SNR 10 dB, 1e4 realizations: empirical MSE
    within 4 standard errors and 2% relative of the analytic value."""
    t0 = time.perf_counter()
    stats = build_statistics(GridConfig(12, 14), ScatteringSpec(spreading_factor=0.001))
    problem = make_design_problem(stats, K=14, snr_db=10.0)
    pattern = greedy_swap_design(problem).pattern
    cfg = SimConfig(realizations=10_000, rng_seed=1234, noise_var=problem.noise_var)
    res = run_simulation(stats, problem, pattern, cfg)
    gap = abs(res.empirical_mse - res.analytic_mse)
    ok = gap <= 4 * res.standard_error and gap <= 0.02 * res.analytic_mse
    return _finish(
        "criterion 5: Monte Carlo vs analytic MSE",
        60.0,
        t0,
        ok,
        {
            "empirical": res.empirical_mse,
            "analytic": res.analytic_mse,
            "standard_error": res.standard_error,
            "gap_in_se": gap / res.standard_error,
            "gap_relative": gap / res.analytic_mse,
        },
    )


def check_density_sweep_ordering() -> CheckResult:
    """Spreading 5e-3, SNR 20 dB: at every density the better designed pattern
    beats the best rectangular and best diamond lattice.  Densities where no
    lattice exists within the K-2 fallback are vacuous and recorded."""
    t0 = time.perf_counter()
    grid = GridConfig(12, 14)
    stats = build_statistics(grid, ScatteringSpec(spreading_factor=0.005))
    ok, details = True, {}
    for density in DENSITIES:
        K = round(density * grid.size)
        problem = make_design_problem(stats, K=K, snr_db=20.0)
        designed = min(
            greedy_swap_design(problem).objective,
            relax_round_swap_design(problem, range(ROUNDING_REPEATS))[0].objective,
        )
        entry = {"K": K, "designed": designed}
        for shape in ("rect", "diamond"):
            try:
                lattice = best_lattice(problem, shape)
                entry[shape] = lattice.objective
                entry[f"{shape}_K"] = lattice.budget_used
                ok &= designed < lattice.objective
            except NoFeasibleLatticeError:
                entry[shape] = None
        details[f"density={density}"] = entry
    return _finish("criterion 6: designed beats lattices across densities", 180.0, t0, ok, details)


def check_swap_and_pipeline_agreement() -> CheckResult:
    """K=14, spreading 1e-3, SNR 10 dB: local swap never degrades either
    initialization and the two refined objectives agree within 2%."""
    t0 = time.perf_counter()
    stats = build_statistics(GridConfig(12, 14), ScatteringSpec(spreading_factor=0.001))
    problem = make_design_problem(stats, K=14, snr_db=10.0)

    greedy = greedy_design(problem)
    greedy_refined = local_swap(problem, greedy.pattern)
    alloc = solve_relaxation(problem)
    rounded = dependent_rounding(alloc, rng_seed=0, grid=problem.grid)
    rounded_obj = objective_value(problem, rounded)
    rounded_refined = local_swap(problem, rounded)

    improves = (
        greedy_refined.objective <= greedy.objective + 1e-12
        and rounded_refined.objective <= rounded_obj + 1e-12
    )
    gap = abs(greedy_refined.objective - rounded_refined.objective)
    agreement = gap <= 0.02 * min(greedy_refined.objective, rounded_refined.objective)
    return _finish(
        "criterion 7: swap improvement and pipeline agreement",
        30.0,
        t0,
        improves and agreement,
        {
            "greedy": greedy.objective,
            "greedy_swap": greedy_refined.objective,
            "rounded": rounded_obj,
            "rounded_swap": rounded_refined.objective,
            "relative_gap": gap / greedy_refined.objective,
        },
    )


def check_spreading_monotonicity() -> CheckResult:
    """Density 0.15, SNR 20 dB: designed-pattern average MSE increases with
    the channel spreading factor across {1e-4, 1e-3, 1e-2}."""
    t0 = time.perf_counter()
    grid = GridConfig(12, 14)
    K = round(0.15 * grid.size)
    values = []
    for dd in (1e-4, 1e-3, 1e-2):
        stats = build_statistics(grid, ScatteringSpec(spreading_factor=dd))
        problem = make_design_problem(stats, K=K, snr_db=20.0)
        pattern = greedy_swap_design(problem).pattern
        values.append(average_mse(stats, pattern, problem.pilot_snr))
    ok = values[0] < values[1] < values[2]
    return _finish(
        "criterion 8: MSE monotone in spreading factor",
        None,
        t0,
        ok,
        {"average_mse": values},
    )


def check_kronecker_consistency() -> CheckResult:
    """Factored eigenvalues match the dense eigendecomposition within 1e-9
    relative (to the largest eigenvalue) on grids up to 8x8."""
    t0 = time.perf_counter()
    ok, details = True, {}
    for M, N in ((2, 2), (3, 5), (4, 4), (8, 7), (8, 8)):
        stats = build_statistics(
            GridConfig(M, N),
            ScatteringSpec(spreading_factor=0.01, rank_energy_threshold=1.0),
        )
        dense = np.kron(stats.time_corr, stats.freq_corr)
        direct = np.sort(np.linalg.eigvalsh(dense))[::-1]
        factored = np.sort(
            np.outer(
                np.linalg.eigvalsh(stats.time_corr), np.linalg.eigvalsh(stats.freq_corr)
            ).ravel()
        )[::-1]
        err = float(np.abs(direct - factored).max() / direct[0])
        details[f"{M}x{N}"] = err
        ok &= err <= 1e-9
    return _finish("criterion 10: Kronecker eigenvalue consistency", None, t0, ok, details)


ALL_CHECKS = (
    check_oracle_gap,
    check_incremental_updates,
    check_gradient,
    check_dependent_rounding,
    check_monte_carlo,
    check_density_sweep_ordering,
    check_swap_and_pipeline_agreement,
    check_spreading_monotonicity,
    check_kronecker_consistency,
)


def run_all_checks(progress=None) -> list:
    """Run every automated acceptance check, optionally reporting progress."""
    results = []
    for check in ALL_CHECKS:
        result = check()
        if progress is not None:
            progress(result)
        results.append(result)
    return results
