"""Pilot pattern optimizers.

Two heuristic pipelines produce near-optimal patterns: convex relaxation of
the binary constraint followed by dependent randomized rounding, and greedy
selection by largest marginal gain.  Both are refined by Fedorov-style local
swaps.  Rectangular and diamond lattices serve as baselines, and an exhaustive
oracle covers tiny instances.

The relaxed problem min trace(A(w)^{-1}) over {w in [0,1]^P, sum w = K} is
smooth and convex on its feasible set, so it is solved by a nonmonotone
spectral projected gradient method instead of the equivalent SDP.
"""

import itertools
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .channel import GridConfig
from .errors import (
    BudgetError,
    ComplexityGuardError,
    InfeasibleAllocationError,
    LatticeError,
    NoFeasibleLatticeError,
    NumericError,
)
from .objective import (
    DesignProblem,
    FractionalAllocation,
    PilotPattern,
    ROUNDING_EPS,
    allocation_inverse,
    gains_for_candidates,
    gradient_from_inverse,
    pattern_inverse,
    rank_one_update,
    swap_deltas,
)

EXHAUSTIVE_GUARD = 2_000_000
SWAP_TOLERANCE = 1e-10
# Exact ties are broken by index, not by arithmetic: the swap pass, greedy
# selection and the choice of best rounding each take the lowest index (the
# earliest seed) among the choices within this fraction of the objective of
# the best one.  Mirror-symmetric channels give ties whose values differ in
# the last bits, far inside the band.
TIE_BAND = 1e-9

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
    initial_objective: float
    swap_iterations: int
    wall_time: float
    problem: DesignProblem = field(repr=False, compare=False)

    @property
    def budget_used(self) -> int:
        """Pilot count of the pattern: the budget, or a lattice's fallback."""
        return self.problem.budget


def _report(problem, pattern, objective, initial, swaps, t0):
    return DesignReport(
        pattern=pattern,
        objective=objective,
        initial_objective=initial,
        swap_iterations=swaps,
        wall_time=time.perf_counter() - t0,
        problem=problem,
    )


def project_capped_simplex(v: np.ndarray, K: int) -> np.ndarray:
    """Exact Euclidean projection onto ``{w in [0,1]^P : sum w = K}``.

    The projection is ``clip(v - theta, 0, 1)`` for a shift theta making the
    sum K.  The sum is piecewise linear and non-increasing in theta with
    breakpoints ``{v_i - 1, v_i}``; sorting and a prefix sum evaluate it at
    all 2P of them, and on the segment bracketing K theta is solved in closed
    form from the segment's free set (Wang & Lu 2015, "Projection onto the
    capped simplex", arXiv:1503.01002).  O(P log P), no iteration.
    """
    v = np.asarray(v, dtype=float)
    P = v.size
    if not 0 <= K <= P:
        raise BudgetError(f"budget {K} outside [0, {P}]")
    bad = int(np.count_nonzero(~np.isfinite(v)))
    if bad:
        raise NumericError(f"cannot project non-finite entries ({bad} of {P})")
    if K == P:
        return np.ones(P)
    if K == 0:
        return np.zeros(P)
    u = np.sort(v)
    u_minus = u - 1.0
    csum = np.empty(P + 1)
    csum[0] = 0.0
    np.cumsum(u, out=csum[1:])
    theta = np.concatenate((u_minus, u))
    theta.sort()
    # For theta just right of each breakpoint, sorted entries [lo, hi) are
    # free (0 < v - theta < 1) and the P - hi entries above them are capped.
    lo = u.searchsorted(theta, side="right")
    hi = u_minus.searchsorted(theta, side="right")
    n_free = hi - lo
    total = (P - hi) + (csum[hi] - csum[lo]) - theta * n_free
    # The sum is P at theta[0] and 0 at theta[-1], so K lies on the segment
    # [theta[j], theta[j + 1]] ending at the first breakpoint with sum <= K.
    # The sum exceeds K on that segment's left end, so it is not flat there
    # and has at least one free entry.  The free sum is taken afresh, not
    # from the prefix sums, so the projection sums to K to rounding.
    j = int((total <= K).argmax()) - 1
    lo_j, hi_j = int(lo[j]), int(hi[j])
    shift = (u[lo_j:hi_j].sum() + (P - hi_j) - K) / (hi_j - lo_j)
    out = v - shift
    return out.clip(0.0, 1.0, out=out)


def _unit_step_residual(w: np.ndarray, grad: np.ndarray, K: int) -> float:
    """Projected-gradient residual norm ``|P(w - grad) - w|`` of the unit step."""
    return float(np.linalg.norm(w - project_capped_simplex(w - grad, K)))


def solve_relaxation(
    problem: DesignProblem,
    tol: float = 1e-6,
    max_iters: int = 5000,
) -> FractionalAllocation:
    """Fractional A-optimal allocation by the nonmonotone spectral projected
    gradient method SPG2 (Birgin, Martinez & Raydan 2000, "Nonmonotone
    spectral projected gradient methods on convex sets", SIAM J. Optim.
    10(4)).

    Each iteration projects once, for the direction ``d = P(w - lam grad) - w``
    at the Barzilai-Borwein step ``lam`` (BB1, clamped to [1e-12, 1e12]), and
    backtracks ``s <- s/2`` along ``w + s d`` with no further projection.  A
    trial is accepted when its objective is at most the largest of the last
    10 objectives plus ``1e-4 * s * grad.d`` (the Grippo-Lampariello-Lucidi
    rule).  Each trial's ``A^{-1}`` gives its
    objective and, once accepted, its gradient.

    Converged when the unit-step projected-gradient residual norm
    ``r(1) = |P(w - grad) - w|`` drops below ``tol``; otherwise, after
    ``max_iters`` steps or when no trial is accepted, the best iterate is
    returned with ``converged=False`` and a warning.  The allocation records
    the steps taken, the last iterate's residual and the objective
    evaluations made.

    The residual costs a projection of its own, so it is formed only when
    the iterate may have converged.  Along the projection arc,
    ``|P(w - t grad) - w|`` is non-decreasing in t and divided by t
    non-increasing (Calamai & More 1987, "Projected gradient methods for
    linearly constrained problems", Math. Programming 39, Lemma 2.2).  ``d``
    is the arc point at ``t = lam``, so ``r(1) >= |d| * min(1, 1/lam)``.
    When that bound exceeds ``tol`` (with a 1e-9 relative margin for
    rounding) the iterate cannot have converged and the residual is skipped;
    a run that stops at an iterate without one forms it there.
    """
    P, K = problem.grid.size, problem.budget
    w = np.full(P, K / P)
    A_inv = allocation_inverse(problem, w)
    evaluations = 1
    f = float(np.trace(A_inv).real)
    grad = gradient_from_inverse(problem, A_inv)
    best_w, best_f = w.copy(), f
    recent = deque([f], maxlen=10)
    lam = 1.0 / max(float(np.abs(grad).max()), 1e-12)
    bound_tol = tol * (1.0 + 1e-9)
    residual = None  # r(1) at the current iterate, once formed

    iterations = 0
    while iterations < max_iters:
        cand = project_capped_simplex(w - lam * grad, K)
        d = cand - w
        if float(np.linalg.norm(d)) * min(1.0, 1.0 / lam) <= bound_tol:
            residual = _unit_step_residual(w, grad, K)
            if residual <= tol:
                break
        if not d.any():
            break  # no feasible decrease left at machine precision
        f_ref, slope = max(recent), 1e-4 * float(grad @ d)
        s = 1.0
        for trial in range(60):
            if trial:
                s *= 0.5
                cand = w + s * d
            A_inv = allocation_inverse(problem, cand)
            evaluations += 1
            f_cand = float(np.trace(A_inv).real)
            if f_cand <= f_ref + s * slope:
                break
        else:
            break  # no feasible decrease left at machine precision
        grad_new = gradient_from_inverse(problem, A_inv)
        dw, dg = cand - w, grad_new - grad
        curvature = float(dw @ dg)
        lam = min(max(float(dw @ dw) / curvature, 1e-12), 1e12) if curvature > 0 else 1e12
        w, f, grad = cand, f_cand, grad_new
        recent.append(f)
        residual = None
        iterations += 1
        if f < best_f:
            best_w, best_f = w.copy(), f

    if residual is None:
        residual = _unit_step_residual(w, grad, K)
    converged = residual <= tol
    if not converged:
        warnings.warn(
            f"relaxation stopped after {iterations} iterations at residual "
            f"{residual:.3g} > tol={tol:g}; returning best iterate",
            stacklevel=2,
        )
    return FractionalAllocation(
        weights=best_w,
        budget=K,
        converged=converged,
        iterations=iterations,
        residual=residual,
        evaluations=evaluations,
    )


def dependent_rounding(
    allocation: FractionalAllocation,
    rng_seed: int,
    grid: GridConfig | None = None,
) -> PilotPattern:
    """Round a fractional allocation to exactly K pilots.

    Scans the fractional coordinates once in index order, pairing the
    fractional survivor of the last step (i) with the next fractional
    coordinate (j), and shifts mass between them: with probability
    ``delta-/(delta+ + delta-)`` move ``delta+ = min(1-c[i], c[j])`` from j to
    i, otherwise move ``delta- = min(c[i], 1-c[j])`` from i to j.  Each step
    pins at least one of the pair to {0, 1}, marginals are preserved, and the
    budget holds almost surely.  ``rng_seed`` is an integer seed of
    ``np.random.default_rng``; the uniforms of all steps are drawn at once
    (``random`` gives the same doubles as ``uniform(0, 1)``).
    ``grid`` defaults to a 1-symbol grid of matching size.  The allocation
    brings its checked weights and its ``RoundingPlan``.
    """
    w, plan = allocation.weights, allocation.plan
    if grid is None:
        grid = GridConfig(M=w.size, N=1)
    elif grid.size != w.size:
        raise InfeasibleAllocationError("allocation length does not match the grid")

    rng = np.random.default_rng(rng_seed)
    eps = ROUNDING_EPS
    values = list(plan.values)
    draws = iter(rng.random(max(len(values) - 1, 0)).tolist())
    i = ci = None  # position in ``values`` and value of the fractional survivor
    for j, cj in enumerate(values):
        if i is None:
            i, ci = j, cj
            continue
        up, down = 1.0 - ci, 1.0 - cj
        d_plus = up if up < cj else cj
        d_minus = ci if ci < down else down
        if next(draws) <= d_minus / (d_plus + d_minus):
            ci, cj = ci + d_plus, cj - d_plus
        else:
            ci, cj = ci - d_minus, cj + d_minus
        values[i], values[j] = ci, cj
        if not eps < ci < 1.0 - eps:
            i, ci = (j, cj) if eps < cj < 1.0 - eps else (None, None)

    # Entries outside (eps, 1 - eps) are already pinned; clipping them to
    # [0, 1] would not move them across 0.5.
    indices = plan.fixed_ones + tuple(k for k, x in zip(plan.fractional, values) if x > 0.5)
    if len(indices) != allocation.budget:
        raise InfeasibleAllocationError(
            f"rounding produced {len(indices)} pilots, expected {allocation.budget}"
        )
    return PilotPattern(indices, grid)


def greedy_design(problem: DesignProblem) -> DesignReport:
    """Select K pilots by repeated largest marginal gain; the lowest index
    within ``TIE_BAND`` of the largest gain wins."""
    t0 = time.perf_counter()
    A_inv = np.diag(problem.prior).astype(np.complex128)
    initial = float(np.trace(A_inv).real)
    unselected = np.ones(problem.grid.size, dtype=bool)
    for _ in range(problem.budget):
        gains = gains_for_candidates(A_inv, problem.rows, problem.pilot_snr)
        gains[~unselected] = -1.0
        j = int(np.argmax(gains >= gains.max() - TIE_BAND * float(np.trace(A_inv).real)))
        A_inv = rank_one_update(problem, A_inv, j)
        unselected[j] = False
    # Report the trace of the pattern's own A^{-1}, as every other method
    # does, not the end of the update chain, which drifts in the last bits.
    selected = np.flatnonzero(~unselected)
    A_inv = pattern_inverse(problem, selected)
    pattern = PilotPattern(tuple(selected.tolist()), problem.grid)
    return _report(problem, pattern, float(np.trace(A_inv).real), initial, 0, t0)


def _best_swap(problem: DesignProblem, A_inv: np.ndarray, selected, candidates):
    """The swap (i out, j in) the screen accepts for the pattern ``selected``
    whose inverse is ``A_inv``, or None.

    None when no swap improves by more than ``SWAP_TOLERANCE``.  Otherwise a
    swap ties with the best when its delta is within ``TIE_BAND`` times the
    objective of the best delta and still improves by more than
    ``SWAP_TOLERANCE``: the lowest selected i with a tied swap goes out, and
    the lowest tied candidate j of its row comes in.  ``selected`` and
    ``candidates`` are ascending.
    """
    deltas = swap_deltas(problem, A_inv, selected, candidates)
    row_best = deltas.min(axis=1)
    best = row_best.min()
    if best >= -SWAP_TOLERANCE:
        return None
    limit = min(best + TIE_BAND * float(np.trace(A_inv).real), -SWAP_TOLERANCE)
    a = int(np.argmax(row_best <= limit))
    b = int(np.argmax(deltas[a] <= limit))
    return int(selected[a]), int(candidates[b])


def local_swap(
    problem: DesignProblem,
    init: PilotPattern,
    max_passes: int = 100,
    visited: dict | None = None,
) -> DesignReport:
    """Fedorov exchange: apply the best improving (i out, j in) swap per pass.

    Stops when the best improvement falls below ``SWAP_TOLERANCE`` absolute,
    leaving a 1-swap locally optimal pattern, or after ``max_passes`` passes;
    a run the cap stops with an improving swap left warns.

    Each state's ``A^{-1}`` is computed from its pattern alone, so a state's
    objective and best swap are functions of its indices.  ``visited`` maps
    the indices of every screened state to ``(objective, successor indices or
    None)``; a run that reaches a recorded state follows its successors
    instead of screening again.  Runs on one problem may share the map
    (``relax_round_swap_design`` does so for one call's roundings).
    """
    if len(init) != problem.budget:
        raise BudgetError(f"initial pattern has {len(init)} pilots, budget is {problem.budget}")
    t0 = time.perf_counter()
    if visited is None:
        visited = {}
    indices = init.indices
    initial, successor = _swap_state(problem, indices, visited)
    value, accepted = initial, 0
    while successor is not None:
        if accepted == max_passes:
            warnings.warn(
                f"local_swap stopped at max_passes={max_passes} with an improving "
                "swap left; the pattern is not 1-swap locally optimal",
                stacklevel=2,
            )
            break
        indices = successor
        value, successor = _swap_state(problem, indices, visited)
        accepted += 1
    return _report(problem, PilotPattern(indices, problem.grid), value, initial, accepted, t0)


def _swap_state(problem: DesignProblem, indices: tuple, visited: dict):
    """``(objective, indices after the best swap or None)`` of one swap state,
    screened from the ``A^{-1}`` of its pattern unless ``visited`` has it."""
    if indices not in visited:
        selected = np.array(indices, dtype=np.intp)
        A_inv = pattern_inverse(problem, selected)
        unselected = np.ones(problem.grid.size, dtype=bool)
        unselected[selected] = False
        candidates = np.flatnonzero(unselected)
        pair = _best_swap(problem, A_inv, selected, candidates) if candidates.size else None
        successor = None if pair is None else tuple(sorted(set(indices) - {pair[0]} | {pair[1]}))
        visited[indices] = float(np.trace(A_inv).real), successor
    return visited[indices]


@dataclass(frozen=True)
class LatticeParams:
    """Rectangular lattice parameters, optionally staggered into a diamond."""

    freq_spacing: int
    time_spacing: int
    freq_offset: int = 0
    time_offset: int = 0
    staggered: bool = False

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
    edge are dropped.
    """
    rows = np.arange(params.freq_offset, grid.M, params.freq_spacing)
    cols = np.arange(params.time_offset, grid.N, params.time_spacing)
    shift = params.freq_spacing // 2
    indices = []
    for pos, n in enumerate(cols):
        if params.staggered and pos % 2 == 1:
            m_vals = rows + shift
            m_vals = m_vals[m_vals < grid.M]
        else:
            m_vals = rows
        indices.extend(int(n) * grid.M + int(m) for m in m_vals)
    if not indices:
        raise LatticeError(f"lattice {params} selects no cells on {grid.M}x{grid.N}")
    return PilotPattern(tuple(indices), grid)


def lattice_count(
    grid: GridConfig,
    freq_spacing: int | np.ndarray,
    time_spacing: int | np.ndarray,
    freq_offset: int | np.ndarray = 0,
    time_offset: int | np.ndarray = 0,
    staggered: bool = False,
) -> int | np.ndarray:
    """``len(lattice_pattern(grid, LatticeParams(...)))`` in closed form, from
    the ``LatticeParams`` fields; the integer fields may be broadcastable
    numpy arrays, giving an array of counts."""
    rows = (grid.M - 1 - freq_offset) // freq_spacing + 1
    cols = (grid.N - 1 - time_offset) // time_spacing + 1
    if not staggered:
        return rows * cols
    # Every second column keeps the rows that stay on the grid when shifted.
    shifted = np.maximum((grid.M - 1 - freq_offset - freq_spacing // 2) // freq_spacing + 1, 0)
    return rows * ((cols + 1) // 2) + shifted * (cols // 2)


def _spacing_offsets(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (spacing, offset) with ``1 <= spacing <= size`` and
    ``0 <= offset < spacing``, in (spacing, offset) order."""
    spacings = np.arange(1, size + 1)
    spacing = np.repeat(spacings, spacings)
    # The run of spacing s starts at position s*(s-1)/2.
    return spacing, np.arange(spacing.size) - spacing * (spacing - 1) // 2


def _lattices(grid: GridConfig, staggered: bool, counts: range):
    """(count, params) of every lattice of one shape whose pilot count is in
    ``counts``, in (freq_spacing, time_spacing, offsets) order.

    The counts of the whole (frequency pair) x (time pair) grid come from one
    array evaluation of ``lattice_count``."""
    f_sp, f_off = _spacing_offsets(grid.M)
    t_sp, t_off = _spacing_offsets(grid.N)
    count = lattice_count(
        grid, f_sp[:, None], t_sp[None, :], f_off[:, None], t_off[None, :], staggered
    )
    f, t = np.nonzero(np.isin(count, counts))
    order = np.lexsort((t_off[t], f_off[f], t_sp[t], f_sp[f]))
    for a, b in zip(f[order].tolist(), t[order].tolist()):
        params = LatticeParams(
            int(f_sp[a]), int(t_sp[b]), int(f_off[a]), int(t_off[b]), staggered=staggered
        )
        yield int(count[a, b]), params


def best_lattice(problem: DesignProblem, shape: str) -> DesignReport:
    """Lowest-objective lattice of the given shape and pilot count.

    All spacing/offset combinations with exactly K pilots are scored.  If no
    lattice hits K, the largest count K' in [K-2, K) with candidates is used
    instead and alpha is recomputed for K'.  Lattices are grouped by their
    closed-form count, and only those of the count scored are built.
    """
    if shape not in (METHOD_RECT, METHOD_DIAMOND):
        raise LatticeError(f"shape must be 'rect' or 'diamond', got {shape!r}")
    t0 = time.perf_counter()
    grid = problem.grid
    staggered = shape == METHOD_DIAMOND
    by_count: dict[int, list] = {}
    for count, params in _lattices(grid, staggered, range(problem.budget - 2, problem.budget + 1)):
        by_count.setdefault(count, []).append(params)

    for K_used in range(problem.budget, problem.budget - 3, -1):
        if K_used in by_count and K_used >= 1:
            sub_problem = problem if K_used == problem.budget else problem.with_budget(K_used)
            best_obj, best_pattern = np.inf, None
            for params in by_count[K_used]:
                pattern = lattice_pattern(grid, params)
                idx = np.array(pattern.indices, dtype=np.intp)
                obj = float(np.trace(pattern_inverse(sub_problem, idx)).real)
                if obj < best_obj:
                    best_obj, best_pattern = obj, pattern
            return _report(sub_problem, best_pattern, best_obj, best_obj, 0, t0)
    raise NoFeasibleLatticeError(
        f"no {shape} lattice on {grid.M}x{grid.N} has {problem.budget - 2}"
        f"..{problem.budget} pilots"
    )


def greedy_swap_design(problem: DesignProblem) -> DesignReport:
    """Greedy initialization refined by local swaps."""
    t0 = time.perf_counter()
    seeded = greedy_design(problem)
    refined = local_swap(problem, seeded.pattern)
    return _report(
        problem, refined.pattern, refined.objective, seeded.objective, refined.swap_iterations, t0
    )


def relax_round_swap_design(
    problem: DesignProblem,
    rounding_seeds,
    allocation: FractionalAllocation | None = None,
) -> tuple[DesignReport, list[DesignReport]]:
    """Relaxation, then one swap-refined rounding per seed.

    Returns the best report together with the per-seed reports, so callers can
    record the rounding distribution.  The best is the earliest seed whose
    objective is within ``TIE_BAND`` of the lowest.  A precomputed
    ``allocation`` can be supplied to share one relaxation solve across calls.
    The roundings share one ``local_swap`` visited map, so a duplicate
    rounding, or a chain that merges into an earlier one, screens no state
    twice.
    """
    if allocation is None:
        allocation = solve_relaxation(problem)
    reports = []
    visited = {}
    for seed in rounding_seeds:
        t0 = time.perf_counter()
        pattern = dependent_rounding(allocation, seed, grid=problem.grid)
        # The swap run's initial objective is the rounded pattern's.
        refined = local_swap(problem, pattern, visited=visited)
        reports.append(
            _report(
                problem,
                refined.pattern,
                refined.objective,
                refined.initial_objective,
                refined.swap_iterations,
                t0,
            )
        )
    lowest = min(r.objective for r in reports)
    best = next(r for r in reports if r.objective <= lowest * (1.0 + TIE_BAND))
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
    best_obj, best_subset = np.inf, None
    for subset in itertools.combinations(range(P), K):
        obj = float(np.trace(pattern_inverse(problem, np.array(subset, dtype=np.intp))).real)
        if obj < best_obj:
            best_obj, best_subset = obj, subset
    pattern = PilotPattern(best_subset, problem.grid)
    return _report(problem, pattern, best_obj, best_obj, 0, t0)
