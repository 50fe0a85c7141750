"""Pilot pattern optimizers.

Two heuristic pipelines produce near-optimal patterns: convex relaxation of
the binary constraint followed by dependent randomized rounding, and greedy
selection by largest marginal gain.  Both are refined by Fedorov-style local
swaps.  Rectangular and diamond lattices serve as baselines, and an exhaustive
oracle covers tiny instances.

The relaxed problem min trace(A(w)^{-1}) over {w in [0,1]^P, sum w = K} is
smooth and convex on its feasible set, so it is solved by projected gradient
descent with Armijo backtracking instead of the equivalent SDP.
"""

import itertools
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

from .channel import GridConfig
from .errors import (
    BudgetError,
    ComplexityGuardError,
    InfeasibleAllocationError,
    LatticeError,
    NoFeasibleLatticeError,
)
from .objective import (
    DesignProblem,
    FractionalAllocation,
    ObjectiveState,
    PilotPattern,
    average_mse,
    gains_for_candidates,
    objective_gradient,
    objective_value,
    removal_terms,
    rank_one_update,
    swap_deltas,
)

EXHAUSTIVE_GUARD = 2_000_000
SWAP_TOLERANCE = 1e-10
# Screened swaps within this fraction of the objective of the best one are
# refereed by the per-row arithmetic.
SWAP_SCREEN_BAND = 1e-9

METHOD_CR = "cr"
METHOD_CR_ROUND = "cr-round"
METHOD_CR_ROUND_SWAP = "cr-round-swap"
METHOD_GREEDY = "greedy"
METHOD_GREEDY_SWAP = "greedy-swap"
METHOD_EXHAUSTIVE = "exhaustive"
METHOD_RECT = "rect"
METHOD_DIAMOND = "diamond"


@dataclass(frozen=True)
class DesignReport:
    """Outcome of one design run.

    ``objective`` is the design objective on the reduced-rank basis;
    ``problem`` is the instance the pattern was scored on, at the budget
    actually used.
    """

    pattern: PilotPattern
    objective: float
    method: str
    initial_objective: float
    swap_iterations: int
    wall_time: float
    budget_used: int
    problem: DesignProblem = field(repr=False, compare=False)

    @cached_property
    def average_mse(self) -> float:
        """Exact LMMSE error of the pattern, computed when first read."""
        return average_mse(self.problem, self.pattern)


def _report(problem, pattern, objective, method, initial, swaps, t0):
    return DesignReport(
        pattern=pattern,
        objective=objective,
        method=method,
        initial_objective=initial,
        swap_iterations=swaps,
        wall_time=time.perf_counter() - t0,
        budget_used=problem.budget,
        problem=problem,
    )


def project_capped_simplex(v: np.ndarray, K: int) -> np.ndarray:
    """Euclidean projection onto ``{w in [0,1]^P : sum w = K}``.

    The projection is ``clip(v - theta, 0, 1)`` for the unique shift theta
    making the sum K; theta is found by bisection to 1e-12 on the sum.
    """
    v = np.asarray(v, dtype=float)
    P = v.size
    if K > P:
        raise BudgetError(f"budget {K} exceeds {P} cells")
    if K == P:
        return np.ones(P)
    if v.min() >= 0.0 and v.max() <= 1.0 and abs(v.sum() - K) <= 1e-12:
        return v.copy()
    lo, hi = float(v.min()) - 1.0, float(v.max())
    for _ in range(200):
        theta = 0.5 * (lo + hi)
        total = np.clip(v - theta, 0.0, 1.0).sum()
        if abs(total - K) <= 1e-12:
            break
        if total > K:
            lo = theta
        else:
            hi = theta
    return np.clip(v - theta, 0.0, 1.0)


def solve_relaxation(
    problem: DesignProblem,
    tol: float = 1e-6,
    max_iters: int = 5000,
) -> FractionalAllocation:
    """Fractional A-optimal allocation by projected gradient descent.

    Converged when the unit-step projected-gradient residual norm drops below
    ``tol``; otherwise the best iterate is returned with ``converged=False``
    and a warning.  Steps use a Barzilai-Borwein guess safeguarded by Armijo
    backtracking (constant 1e-4, shrink 0.5) along the projection arc.
    """
    P, K = problem.grid.size, problem.budget
    w = np.full(P, K / P)
    f = objective_value(problem, w)
    grad = objective_gradient(problem, w)
    best_w, best_f = w.copy(), f
    step = 1.0 / max(float(np.abs(grad).max()), 1e-12)
    converged = False

    for _ in range(max_iters):
        residual = w - project_capped_simplex(w - grad, K)
        if float(np.linalg.norm(residual)) <= tol:
            converged = True
            break
        w_new = f_new = None
        t = step
        for _ in range(60):
            cand = project_capped_simplex(w - t * grad, K)
            move = cand - w
            if not move.any():
                break
            f_cand = objective_value(problem, cand)
            if f_cand <= f + 1e-4 * float(grad @ move):
                w_new, f_new = cand, f_cand
                break
            t *= 0.5
        if w_new is None:
            break  # no feasible decrease left at machine precision
        grad_new = objective_gradient(problem, w_new)
        dw, dg = w_new - w, grad_new - grad
        bb = float(dw @ dw) / float(dw @ dg) if float(dw @ dg) > 0 else 2.0 * t
        step = min(max(bb, 1e-12), 1e12)
        w, f, grad = w_new, f_new, grad_new
        if f < best_f:
            best_w, best_f = w.copy(), f

    if not converged:
        warnings.warn(
            f"relaxation stopped before reaching tol={tol:g}; returning best iterate",
            stacklevel=2,
        )
    return FractionalAllocation(weights=best_w, budget=K, converged=converged)


def dependent_rounding(
    allocation: FractionalAllocation,
    rng_seed: int,
    grid: GridConfig | None = None,
) -> PilotPattern:
    """Round a fractional allocation to exactly K pilots.

    Repeatedly takes the two lowest-indexed fractional coordinates (i, j) and
    shifts mass between them: with probability ``delta-/(delta+ + delta-)``
    move ``delta+ = min(1-c[i], c[j])`` from j to i, otherwise move
    ``delta- = min(c[i], 1-c[j])`` from i to j.  Each draw pins at least one
    coordinate to {0, 1}, marginals are preserved, and the budget holds almost
    surely.  ``grid`` defaults to a 1-symbol grid of matching size.
    """
    if isinstance(allocation, FractionalAllocation):
        w, K = allocation.weights, allocation.budget
    else:
        w = np.asarray(allocation, dtype=float)
        K = int(round(w.sum()))
    if abs(w.sum() - round(w.sum())) > 1e-6:
        raise InfeasibleAllocationError(
            f"allocation sums to {w.sum():.9f}, not an integer"
        )
    if np.any(w < -1e-9) or np.any(w > 1 + 1e-9):
        raise InfeasibleAllocationError("allocation entries outside [0, 1]")
    if grid is None:
        grid = GridConfig(M=w.size, N=1)
    elif grid.size != w.size:
        raise InfeasibleAllocationError("allocation length does not match the grid")

    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    c = [min(max(float(x), 0.0), 1.0) for x in w]
    eps = 1e-9
    fractional = [k for k, x in enumerate(c) if eps < x < 1.0 - eps]
    while len(fractional) >= 2:
        i, j = fractional[0], fractional[1]
        d_plus = min(1.0 - c[i], c[j])
        d_minus = min(c[i], 1.0 - c[j])
        if rng.uniform() <= d_minus / (d_plus + d_minus):
            c[i] += d_plus
            c[j] -= d_plus
        else:
            c[i] -= d_minus
            c[j] += d_minus
        fractional = [k for k in fractional if eps < c[k] < 1.0 - eps]

    indices = tuple(k for k, x in enumerate(c) if x > 0.5)
    if len(indices) != K:
        raise InfeasibleAllocationError(
            f"rounding produced {len(indices)} pilots, expected {K}"
        )
    return PilotPattern(indices, grid)


def greedy_design(problem: DesignProblem) -> DesignReport:
    """Select K pilots by repeated largest marginal gain (ties: lowest index)."""
    t0 = time.perf_counter()
    state = ObjectiveState.empty(problem)
    initial = state.value
    unselected = np.ones(problem.grid.size, dtype=bool)
    for _ in range(problem.budget):
        gains = gains_for_candidates(state.A_inv, problem.rows, problem.pilot_snr)
        gains[~unselected] = -1.0
        j = int(np.argmax(gains))
        rank_one_update(state, j, "add")
        unselected[j] = False
    return _report(problem, state.pattern(), state.value, METHOD_GREEDY, initial, 0, t0)


def _best_swap(state: ObjectiveState, selected: list, candidates: np.ndarray):
    """The improving swap (i out, j in) of the per-row scan, or None.

    The scan takes, per selected i in ascending order, the candidate of largest
    gain after removing i (lowest j on ties) and keeps the first i with the
    lowest delta.  Mirror-symmetric channels give exactly tied swaps, and the
    batched screen's arithmetic differs from the scan's by a few ulps, enough
    to flip such a tie.  So the screen only shortlists the rows within
    ``SWAP_SCREEN_BAND`` of its best delta, and the scan referees them.
    """
    problem = state.problem
    row_best = swap_deltas(state, selected, candidates).min(axis=1)
    band = SWAP_SCREEN_BAND * state.value
    if row_best.min() > -SWAP_TOLERANCE + band:
        return None
    cand_rows = problem.rows[candidates]
    best_delta, best_pair = 0.0, None
    for a in np.flatnonzero(row_best <= row_best.min() + band):
        i = selected[a]
        increase, A_inv_without = removal_terms(state, i)
        gains = gains_for_candidates(A_inv_without, cand_rows, problem.pilot_snr)
        pos = int(np.argmax(gains))
        delta = increase - float(gains[pos])
        if delta < best_delta:
            best_delta, best_pair = delta, (i, int(candidates[pos]))
    if best_delta >= -SWAP_TOLERANCE:
        return None
    return best_pair


def local_swap(
    problem: DesignProblem,
    init: PilotPattern,
    max_passes: int = 100,
) -> DesignReport:
    """Fedorov exchange: apply the best improving (i out, j in) swap per pass.

    Stops when the best improvement falls below ``SWAP_TOLERANCE`` absolute,
    leaving a 1-swap locally optimal pattern, or after ``max_passes`` passes;
    a run the cap stops with an improving swap left warns.
    """
    if len(init) != problem.budget:
        raise BudgetError(f"initial pattern has {len(init)} pilots, budget is {problem.budget}")
    t0 = time.perf_counter()
    state = ObjectiveState.from_pattern(problem, init)
    initial = state.value
    accepted = 0
    for passes in range(max_passes + 1):
        selected = sorted(state.selected)
        candidates = np.array(
            [j for j in range(problem.grid.size) if j not in state.selected]
        )
        if candidates.size == 0:
            break
        pair = _best_swap(state, selected, candidates)
        if pair is None:
            break
        if passes == max_passes:
            warnings.warn(
                f"local_swap stopped at max_passes={max_passes} with an improving "
                "swap left; the pattern is not 1-swap locally optimal",
                stacklevel=2,
            )
            break
        rank_one_update(state, pair[0], "remove")
        rank_one_update(state, pair[1], "add")
        accepted += 1
    return _report(problem, state.pattern(), state.value, "swap", initial, accepted, t0)


@dataclass(frozen=True)
class LatticeParams:
    """Rectangular lattice parameters, optionally staggered into a diamond."""

    freq_spacing: int
    time_spacing: int
    freq_offset: int = 0
    time_offset: int = 0
    staggered: bool = False
    wrap: bool = False

    def __post_init__(self):
        if self.freq_spacing < 1 or self.time_spacing < 1:
            raise LatticeError("spacings must be positive")
        if not (0 <= self.freq_offset < self.freq_spacing):
            raise LatticeError("freq_offset must be in [0, freq_spacing)")
        if not (0 <= self.time_offset < self.time_spacing):
            raise LatticeError("time_offset must be in [0, time_spacing)")


def lattice_pattern(grid: GridConfig, params: LatticeParams) -> PilotPattern:
    """Pilots on a rectangular lattice, or a diamond when staggered.

    The diamond shifts the subcarrier indices of every second pilot-bearing
    column by half the frequency spacing; shifted pilots falling off the grid
    edge are dropped unless ``wrap`` is set.
    """
    rows = np.arange(params.freq_offset, grid.M, params.freq_spacing)
    cols = np.arange(params.time_offset, grid.N, params.time_spacing)
    shift = params.freq_spacing // 2
    indices = []
    for pos, n in enumerate(cols):
        if params.staggered and pos % 2 == 1:
            m_vals = rows + shift
            if params.wrap:
                m_vals = m_vals % grid.M
            else:
                m_vals = m_vals[m_vals < grid.M]
        else:
            m_vals = rows
        indices.extend(int(n) * grid.M + int(m) for m in m_vals)
    if not indices:
        raise LatticeError(f"lattice {params} selects no cells on {grid.M}x{grid.N}")
    return PilotPattern(tuple(indices), grid)


def _lattice_params_iter(grid: GridConfig, staggered: bool):
    for f_sp in range(1, grid.M + 1):
        for t_sp in range(1, grid.N + 1):
            for f_off in range(f_sp):
                for t_off in range(t_sp):
                    yield LatticeParams(f_sp, t_sp, f_off, t_off, staggered=staggered)


def best_lattice(problem: DesignProblem, grid: GridConfig, shape: str) -> DesignReport:
    """Lowest-objective lattice of the given shape and pilot count.

    All spacing/offset combinations with exactly K pilots are scored.  If no
    lattice hits K, the largest count K' in [K-2, K) with candidates is used
    instead and alpha is recomputed for K'.
    """
    if shape not in (METHOD_RECT, METHOD_DIAMOND):
        raise LatticeError(f"shape must be 'rect' or 'diamond', got {shape!r}")
    t0 = time.perf_counter()
    staggered = shape == METHOD_DIAMOND
    by_count: dict[int, list] = {}
    for params in _lattice_params_iter(grid, staggered):
        pattern = lattice_pattern(grid, params)
        by_count.setdefault(len(pattern), []).append(pattern)

    for K_used in range(problem.budget, problem.budget - 3, -1):
        if K_used in by_count and K_used >= 1:
            sub_problem = problem if K_used == problem.budget else problem.with_budget(K_used)
            best_obj, best_pattern = np.inf, None
            for pattern in by_count[K_used]:
                obj = objective_value(sub_problem, pattern)
                if obj < best_obj:
                    best_obj, best_pattern = obj, pattern
            return _report(sub_problem, best_pattern, best_obj, shape, best_obj, 0, t0)
    raise NoFeasibleLatticeError(
        f"no {shape} lattice on {grid.M}x{grid.N} has {problem.budget - 2}"
        f"..{problem.budget} pilots"
    )


def greedy_swap_design(problem: DesignProblem, max_passes: int = 100) -> DesignReport:
    """Greedy initialization refined by local swaps."""
    t0 = time.perf_counter()
    seeded = greedy_design(problem)
    refined = local_swap(problem, seeded.pattern, max_passes)
    return _report(
        problem,
        refined.pattern,
        refined.objective,
        METHOD_GREEDY_SWAP,
        seeded.objective,
        refined.swap_iterations,
        t0,
    )


def relax_round_swap_design(
    problem: DesignProblem,
    rounding_seeds,
    refine: bool = True,
    tol: float = 1e-6,
    max_iters: int = 5000,
    max_passes: int = 100,
    allocation: FractionalAllocation | None = None,
) -> tuple[DesignReport, list[DesignReport]]:
    """Relaxation, then one rounding per seed (each optionally swap-refined).

    Returns the best report together with the per-seed reports, so callers can
    record the rounding distribution.  A precomputed ``allocation`` can be
    supplied to share one relaxation solve across calls.
    """
    if allocation is None:
        allocation = solve_relaxation(problem, tol=tol, max_iters=max_iters)
    method = METHOD_CR_ROUND_SWAP if refine else METHOD_CR_ROUND
    reports = []
    for seed in rounding_seeds:
        t0 = time.perf_counter()
        pattern = dependent_rounding(allocation, seed, grid=problem.grid)
        rounded_obj = objective_value(problem, pattern)
        if refine:
            refined = local_swap(problem, pattern, max_passes)
            reports.append(
                _report(
                    problem,
                    refined.pattern,
                    refined.objective,
                    method,
                    rounded_obj,
                    refined.swap_iterations,
                    t0,
                )
            )
        else:
            reports.append(
                _report(problem, pattern, rounded_obj, method, rounded_obj, 0, t0)
            )
    best = min(reports, key=lambda r: r.objective)
    return best, reports


def exhaustive_search(problem: DesignProblem) -> DesignReport:
    """Global optimum by enumerating all K-subsets; desk-scale oracle only."""
    P, K = problem.grid.size, problem.budget
    n_subsets = comb(P, K)
    if n_subsets > EXHAUSTIVE_GUARD:
        raise ComplexityGuardError(
            f"C({P},{K}) = {n_subsets} subsets exceeds the {EXHAUSTIVE_GUARD} guard"
        )
    t0 = time.perf_counter()
    alpha = problem.pilot_snr
    prior_inv = np.diag(1.0 / problem.prior).astype(np.complex128)
    updates = alpha * np.einsum("ia,ib->iab", problem.rows.conj(), problem.rows)
    best_obj, best_subset = np.inf, None
    for subset in itertools.combinations(range(P), K):
        A = prior_inv + updates[list(subset)].sum(axis=0)
        obj = float(np.trace(np.linalg.inv(A)).real)
        if obj < best_obj:
            best_obj, best_subset = obj, subset
    pattern = PilotPattern(best_subset, problem.grid)
    return _report(problem, pattern, best_obj, METHOD_EXHAUSTIVE, best_obj, 0, t0)
