"""Pilot pattern optimizers.

Two heuristic pipelines produce near-optimal patterns: convex relaxation of
the binary constraint followed by dependent randomized rounding, and greedy
selection by largest marginal gain.  Both are refined by Fedorov-style local
swaps.  Rectangular and diamond lattices serve as baselines, and an exhaustive
oracle covers tiny instances.

The relaxed problem min trace(A(w)^{-1}) over {w in [0,1]^P, sum w = K} is
smooth and convex on its feasible set, so it is solved directly instead of
as the equivalent SDP, in two phases: the nonmonotone spectral projected
gradient method SPG2 finds the face of weights pinned at 0 or 1, and once
that face has held for a few steps, Newton steps on its free weights
converge (Bertsekas 1982).  A Newton step is cut at the first bound it hits,
a solved face releases its KKT violators, and a failed step hands back to
SPG2.  Both phases stop on the same unit-step projected-gradient residual.
"""

import itertools
import time
import warnings
from collections import deque
from dataclasses import dataclass, field, replace
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
    _face_hessian,
    _gains,
    _row_terms,
    add_row,
    allocation_lower_inverse,
    gradient_from_inverse,
    hermitian_from_lower,
    pattern_inverse,
    pattern_objective,
    swap_deltas,
)

EXHAUSTIVE_GUARD = 2_000_000
SWAP_TOLERANCE = 1e-10
# A swap state takes the successor of a mirrored state (a reflection of its
# pattern under which the problem is invariant) without a screen of its own
# only when the mirrored screen's decision holds with every delta and the
# objective moved by this fraction of the objective.  Reflected screens
# agree to about 1e-14 of it.
REFLECT_SLACK = 1e-12
# Exact ties are broken by index, not by arithmetic: the swap pass, greedy
# selection and the choice of best rounding each take the lowest index (the
# earliest seed) among the choices within this fraction of the objective of
# the best one.  Mirror-symmetric channels give ties whose values differ in
# the last bits, far inside the band.
TIE_BAND = 1e-9
# The relaxation turns from SPG2 to Newton steps on the free weights once
# this many accepted SPG2 steps in a row leave the weights pinned at 0 or 1
# unchanged.  A Newton step halves at most FACE_HALVINGS times before the
# face phase hands back to SPG2; the face Hessian takes a ridge of
# FACE_RIDGE times its largest diagonal entry; and a face is solved when its
# reduced gradient is at most FACE_TOL times RELAX_TOL.
FACE_SWITCH = 3
FACE_HALVINGS = 10
FACE_RIDGE = 1e-10
FACE_TOL = 1e-3
# The relaxation converges when its unit-step projected-gradient residual is
# at most RELAX_TOL, and stops unconverged after RELAX_MAX_ITERS steps.
RELAX_TOL = 1e-6
RELAX_MAX_ITERS = 5000
# An SPG2 trial whose weights miss sum w = K by more than BUDGET_SLACK is
# refused.  Its projection lost the budget to rounding: with lam near its
# 1e12 clamp, w - lam grad is so large that the projected weights fall below
# its last bits.  A step short enough along the direction keeps the budget.
# Over the shipped configs the projections miss K by at most 6.3e-13.
BUDGET_SLACK = 1e-9

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


def solve_relaxation(problem: DesignProblem) -> FractionalAllocation:
    """Fractional A-optimal allocation: the nonmonotone spectral projected
    gradient method SPG2 (Birgin, Martinez & Raydan 2000, "Nonmonotone
    spectral projected gradient methods on convex sets", SIAM J. Optim.
    10(4)) finds the optimal face, and Newton steps on that face converge.

    Each SPG2 iteration projects once, for the direction
    ``d = P(w - lam grad) - w`` at the Barzilai-Borwein step ``lam`` (BB1,
    clamped to [1e-12, 1e12]), and backtracks ``s <- s/2`` along ``w + s d``
    with no further projection.  A trial is accepted when its objective is at
    most the largest of the last 10 objectives plus ``1e-4 * s * grad.d``
    (the Grippo-Lampariello-Lucidi rule).

    Once ``FACE_SWITCH`` accepted SPG2 steps in a row leave the set of weights
    pinned at 0 or 1 unchanged, with at least two weights free and one
    pinned, the free weights F take Newton steps under ``sum w = K``
    (``_face_direction``), on the face Hessian ``objective._face_hessian``
    plus a ridge of ``FACE_RIDGE`` times its largest diagonal entry, since
    the relaxed optimum is not unique.  A step that would leave the box is
    cut at the first bound it hits (``_face_line_search``), which pins that
    weight; the step is never projected, since projecting it undoes it.
    When the reduced gradient ``grad_F - nu``, ``nu = mean(grad_F)``, is at
    most ``FACE_TOL * RELAX_TOL`` the face is solved, and every KKT violator
    is released into F: a weight at 0 with ``grad_i < nu`` or at 1 with
    ``grad_i > nu`` (the active-set finish of Bertsekas 1982, "Projected
    Newton methods for optimization problems with simple constraints", SIAM
    J. Control Optim. 20(2)).  A released weight whose Newton direction
    points out of the box stays pinned; when none is left to release, the
    residual is formed.  A step that is not a descent, a line search that
    fails within ``FACE_HALVINGS`` halvings, a singular solve, a residual
    above ``RELAX_TOL`` at a solved face, or a face that shrinks below two
    weights hands back to SPG2 from the current iterate.  Each trial's
    ``A^{-1}`` gives its objective as the trace of its lower triangle
    (``objective.allocation_lower_inverse``), and, once accepted, the
    mirrored inverse gives its gradient and face Hessian.

    Converged when the unit-step projected-gradient residual norm
    ``r(1) = |P(w - grad) - w|`` drops below ``RELAX_TOL``; otherwise, after
    ``RELAX_MAX_ITERS`` accepted steps of either kind or when no trial is
    accepted, the best iterate is returned with ``converged=False`` and a
    warning.  An SPG2 trial that misses ``sum w = K`` by more than
    ``BUDGET_SLACK`` is refused unevaluated, so every iterate holds the
    budget to that slack.  The tolerance is absolute, and the gradient
    shrinks as the pilot SNR grows, so the relative optimality gap at the
    stopping iterate grows with the SNR: on 12x14, K = 17, spreading 5e-3, about 5e-10 at 20 dB,
    3e-4 at 40 dB and 1e-2 at 60 dB.
    The allocation records the steps taken, the last iterate's residual, the
    objective evaluations made, the Newton steps among the steps and the
    hand-backs to SPG2.

    The residual costs a projection of its own, so it is formed only when
    the iterate may have converged.  Along the projection arc,
    ``|P(w - t grad) - w|`` is non-decreasing in t and divided by t
    non-increasing (Calamai & More 1987, "Projected gradient methods for
    linearly constrained problems", Math. Programming 39, Lemma 2.2).  In
    SPG2, ``d`` is the arc point at ``t = lam``, so
    ``r(1) >= |d| * min(1, 1/lam)``; when that bound exceeds ``RELAX_TOL``
    (with a 1e-9 relative margin for rounding) the residual is skipped.  On a
    face, it is formed only at a solved face with nothing to release; a run
    that stops at an iterate without one forms it there.
    """
    P, K = problem.grid.size, problem.budget
    w = np.full(P, K / P)
    lower = allocation_lower_inverse(problem, w)
    evaluations = 1
    f = float(np.trace(lower).real)
    A_inv = hermitian_from_lower(lower)
    grad = gradient_from_inverse(problem, A_inv)
    best_w, best_f = w.copy(), f
    recent = deque([f], maxlen=10)
    lam = 1.0 / max(float(np.abs(grad).max()), 1e-12)
    bound_tol = RELAX_TOL * (1.0 + 1e-9)
    residual = None  # r(1) at the current iterate, once formed
    bounds, unchanged = _bound_pattern(w), 0
    face = None  # the free weights while Newton steps run
    face_steps = face_fallbacks = 0

    iterations = 0
    while iterations < RELAX_MAX_ITERS:
        if face is not None:
            reduced = grad[face]
            nu = reduced.mean()
            solved = 0  # the size of a solved face before its violators enter
            if float(np.linalg.norm(reduced - nu)) <= FACE_TOL * RELAX_TOL:
                violators = ((w == 0.0) & (grad < nu)) | ((w == 1.0) & (grad > nu))
                violators[face] = True  # a mask union: np.union1d imports numpy.ma
                solved, face = face.size, np.flatnonzero(violators)
            d, face = _face_direction(problem, w, grad, A_inv, face)
            if face.size == solved:
                # Optimal on its face, and no violator can enter it.
                residual = _unit_step_residual(w, grad, K)
                if residual <= RELAX_TOL:
                    break
                d = None
            cand = None
            if d is not None:
                cand, lower, f_cand, trials = _face_line_search(problem, w, f, grad, d, face)
                evaluations += trials
            if cand is not None:
                face_steps += 1
                face = face[(cand[face] > 0.0) & (cand[face] < 1.0)]
            if cand is None or face.size < 2:
                face, unchanged = None, 0
                face_fallbacks += 1
                if cand is None:
                    continue
        else:
            cand = project_capped_simplex(w - lam * grad, K)
            d = cand - w
            if float(np.linalg.norm(d)) * min(1.0, 1.0 / lam) <= bound_tol:
                residual = _unit_step_residual(w, grad, K)
                if residual <= RELAX_TOL:
                    break
            if not d.any():
                break  # no feasible decrease left at machine precision
            f_ref, slope = max(recent), 1e-4 * float(grad @ d)
            s = 1.0
            for trial in range(60):
                if trial:
                    s *= 0.5
                    cand = w + s * d
                if abs(cand.sum() - K) > BUDGET_SLACK:
                    continue  # a long step off a projection that lost the budget
                lower = allocation_lower_inverse(problem, cand)
                evaluations += 1
                f_cand = float(np.trace(lower).real)
                if f_cand <= f_ref + s * slope:
                    break
            else:
                break  # no feasible decrease left at machine precision
            cand_bounds = _bound_pattern(cand)
            unchanged = unchanged + 1 if np.array_equal(cand_bounds, bounds) else 0
            bounds = cand_bounds
            if unchanged >= FACE_SWITCH and 2 <= np.count_nonzero(bounds == 0) < P:
                face = np.flatnonzero(bounds == 0)
        A_inv = hermitian_from_lower(lower)
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
    converged = residual <= RELAX_TOL
    if not converged:
        warnings.warn(
            f"relaxation stopped after {iterations} iterations at residual "
            f"{residual:.3g} > tol={RELAX_TOL:g}; returning best iterate",
            stacklevel=2,
        )
    return FractionalAllocation(
        weights=best_w,
        budget=K,
        converged=converged,
        iterations=iterations,
        residual=residual,
        evaluations=evaluations,
        face_steps=face_steps,
        face_fallbacks=face_fallbacks,
    )


def _bound_pattern(w: np.ndarray) -> np.ndarray:
    """Which weights are pinned: 1 at 1, -1 at 0 and 0 for a free weight."""
    return (w == 1.0).view(np.int8) - (w == 0.0).view(np.int8)


def _face_direction(problem: DesignProblem, w, grad, A_inv, face):
    """Newton direction on the weights ``face`` of ``w`` under ``sum w = K``:
    ``(d, face)``, with d None when the bordered system is singular.

    The direction solves ``[[H, 1], [1^T, 0]] (d, mu) = (-grad_F, 0)``.  A
    weight of ``face`` on a bound whose direction points out of the box is
    dropped from the face and the system solved again.
    """
    H = _face_hessian(problem, A_inv, face)
    while True:
        n = face.size
        kkt = np.ones((n + 1, n + 1))
        kkt[:n, :n] = H
        kkt[n, n] = 0.0
        kkt.flat[: n * (n + 1) : n + 2] += FACE_RIDGE * H.diagonal().max()
        rhs = np.zeros(n + 1)
        rhs[:n] = -grad[face]
        try:
            d = np.linalg.solve(kkt, rhs)[:n]
        except np.linalg.LinAlgError:
            return None, face
        d -= d.mean()
        w_face = w[face]
        out = ((w_face == 0.0) & (d < 0.0)) | ((w_face == 1.0) & (d > 0.0))
        if not out.any():
            return d, face
        keep = ~out
        face, H = face[keep], H[np.ix_(keep, keep)]


def _face_line_search(problem: DesignProblem, w, f: float, grad, d, face):
    """``(weights, lower inverse, objective, trials)`` of the step along the
    Newton direction ``d`` on ``face``, with None for the first three when it
    fails.

    The step length starts at 1, cut at the first bound the step hits (the
    ratio test; that weight lands on its bound), and halves until the
    objective falls by ``1e-4 * t * grad_F.d`` (Armijo), at most
    ``FACE_HALVINGS`` times.  A direction that is not a descent fails.
    """
    slope = float(grad[face] @ d)
    w_face = w[face]
    with np.errstate(divide="ignore", invalid="ignore"):
        room = np.where(d > 0.0, (1.0 - w_face) / d, -w_face / d)
    room[d == 0.0] = np.inf
    b = int(np.argmin(room))
    if not (slope < 0.0 and room[b] > 0.0):
        return None, None, None, 0
    t = min(float(room[b]), 1.0)
    for trial in range(FACE_HALVINGS + 1):
        cand = w.copy()
        moved = w_face + t * d
        cand[face] = moved.clip(0.0, 1.0, out=moved)
        if t == room[b]:
            cand[face[b]] = 1.0 if d[b] > 0.0 else 0.0
        lower = allocation_lower_inverse(problem, cand)
        f_cand = float(np.trace(lower).real)
        if f_cand <= f + 1e-4 * t * slope:
            return cand, lower, f_cand, trial + 1
        t *= 0.5
    return None, None, None, FACE_HALVINGS + 1


def dependent_rounding(
    allocation: FractionalAllocation, rng_seed: int, grid: GridConfig
) -> PilotPattern:
    """Round a fractional allocation to exactly K pilots.

    Scans the fractional coordinates once in index order, pairing the
    fractional survivor of the last step (i) with the next fractional
    coordinate (j), and shifts mass between them: with probability
    ``delta-/(delta+ + delta-)`` move ``delta+ = min(1-c[i], c[j])`` from j to
    i, otherwise move ``delta- = min(c[i], 1-c[j])`` from i to j.  Each step
    pins at least one of the pair to {0, 1}, marginals are preserved, and the
    budget holds almost surely.  A cell's pilot is decided (value above 0.5)
    the moment the cell is pinned, and the survivor's after the scan, so the
    plan's values are read, never copied or written back.  ``rng_seed`` is
    an integer seed of ``np.random.default_rng``; the uniforms of all steps
    are drawn at once (``random`` gives the same doubles as
    ``uniform(0, 1)``).  Seeding the generator is about half of each call,
    and the seed contract fixes it.  The pattern is placed on ``grid``,
    whose size must match the allocation.  The allocation brings its checked
    weights and its ``RoundingPlan``.
    """
    w, plan = allocation.weights, allocation.plan
    if grid.size != w.size:
        raise InfeasibleAllocationError("allocation length does not match the grid")

    rng = np.random.default_rng(rng_seed)
    eps = ROUNDING_EPS
    draws = iter(rng.random(max(len(plan.values) - 1, 0)).tolist())
    ones = list(plan.fixed_ones)
    i = ci = None  # grid index and value of the fractional survivor
    for j, cj in zip(plan.fractional, plan.values):
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
        # A cell leaves the scan when it is pinned, and its value is final
        # then.  A pinned value lies outside (eps, 1 - eps), so clipping it
        # to [0, 1] would not move it across 0.5.
        if eps < ci < 1.0 - eps:
            if cj > 0.5:
                ones.append(j)
            continue
        if ci > 0.5:
            ones.append(i)
        if eps < cj < 1.0 - eps:
            i, ci = j, cj
        else:
            if cj > 0.5:
                ones.append(j)
            i = None
    if i is not None and ci > 0.5:
        ones.append(i)

    if len(ones) != allocation.budget:
        raise InfeasibleAllocationError(
            f"rounding produced {len(ones)} pilots, expected {allocation.budget}"
        )
    return PilotPattern(ones, grid)


def greedy_design(problem: DesignProblem) -> DesignReport:
    """Select K pilots by repeated largest marginal gain; the lowest index
    within ``TIE_BAND`` of the largest gain wins.

    The gains of every row come from the row terms ``Y = U A^{-1}``, ``q``
    and ``n`` that ``objective.add_row`` carries from one pick to the next
    in O(P r), rebuilding them from ``A^{-1}`` every r picks; the band is
    read from the trace of that ``A^{-1}``."""
    t0 = time.perf_counter()
    alpha = problem.pilot_snr
    A_inv = np.diag(problem.prior).astype(np.complex128)
    initial = float(np.trace(A_inv).real)
    Y, quad, norm2 = _row_terms(A_inv, problem.rows)
    selected = np.zeros(problem.grid.size, dtype=bool)
    for size in range(1, problem.budget + 1):
        gains = _gains(quad, norm2, alpha)
        gains[selected] = -1.0
        j = int((gains >= gains.max() - TIE_BAND * A_inv.trace().real).argmax())
        selected[j] = True
        if size < problem.budget:
            A_inv, Y, quad, norm2 = add_row(problem, A_inv, Y, quad, j, size)
    # Report the trace of the pattern's own A^{-1}, as every other method
    # does, not the end of the update chain, which drifts in the last bits.
    selected = np.flatnonzero(selected)
    pattern = PilotPattern(tuple(selected.tolist()), problem.grid)
    return _report(problem, pattern, pattern_objective(problem, selected), initial, 0, t0)


def _best_swap(problem: DesignProblem, A_inv: np.ndarray, selected, candidates, objective):
    """``(pair, clear)``: the swap ``pair = (i out, j in)`` the screen accepts,
    or None, for the pattern ``selected`` whose inverse is ``A_inv`` and
    whose objective is ``objective``, and whether that decision is clear.

    None when no swap improves by more than ``SWAP_TOLERANCE``.  Otherwise a
    swap ties with the best when its delta is within ``TIE_BAND`` times the
    objective of the best delta and still improves by more than
    ``SWAP_TOLERANCE``: the lowest selected i with a tied swap goes out, and
    the lowest tied candidate j of its row comes in.  ``selected`` and
    ``candidates`` are ascending.

    A decision is clear when it would not change if every delta and the
    objective moved by up to ``slack = REFLECT_SLACK * objective``: a None
    whose best delta is at least ``-SWAP_TOLERANCE + slack``, or a swap whose
    best delta is below ``limit - slack``, where ``limit`` is the top of the
    band, and is the only delta at most ``limit + (2 + TIE_BAND) * slack``:
    the limit moves with the best delta, so the other deltas need twice the
    slack.  A tie in the band is never clear.
    """
    deltas = swap_deltas(problem, A_inv, selected, candidates)
    row_best = deltas.min(axis=1)
    best = row_best.min()
    slack = REFLECT_SLACK * objective
    if best >= -SWAP_TOLERANCE:
        return None, bool(best >= -SWAP_TOLERANCE + slack)
    limit = min(best + TIE_BAND * objective, -SWAP_TOLERANCE)
    a = int(np.argmax(row_best <= limit))
    b = int(np.argmax(deltas[a] <= limit))
    # Unique when (a, b)'s row is the only one within reach, and (a, b) the
    # only entry of its row.
    reach = limit + (2.0 + TIE_BAND) * slack
    clear = (
        best < limit - slack
        and np.count_nonzero(row_best <= reach) == 1
        and np.count_nonzero(deltas[a] <= reach) == 1
    )
    return (int(selected[a]), int(candidates[b])), bool(clear)


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
    the indices of every recorded state to ``(objective, successor indices or
    None, clear)``; a run that reaches a recorded state follows its
    successors instead of screening again.  A state is recorded without a
    screen when a reflection of it that leaves the problem invariant
    (``DesignProblem.reflections``) was screened with a clear decision
    (``_best_swap``): it takes that successor, reflected back, and its own
    objective, and is marked not clear.  A clear decision is the one the
    state's own screen makes, so the result is the one an unshared run
    gives, bit for bit; a tie in the band is screened.  Runs on one problem
    may share the map (``relax_round_swap_design`` does so for one call's
    roundings).
    """
    if len(init) != problem.budget:
        raise BudgetError(f"initial pattern has {len(init)} pilots, budget is {problem.budget}")
    t0 = time.perf_counter()
    if visited is None:
        visited = {}
    indices = init.indices
    initial, successor, _ = _swap_state(problem, indices, visited)
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
        value, successor, _ = _swap_state(problem, indices, visited)
        accepted += 1
    return _report(problem, PilotPattern(indices, problem.grid), value, initial, accepted, t0)


def _swap_state(problem: DesignProblem, indices: tuple, visited: dict):
    """``(objective, indices after the best swap or None, clear)`` of one swap
    state, from ``visited`` if it has the state; otherwise from the entry of
    a reflection of it (``problem.reflections``) screened with a clear
    decision, whose successor is mapped back through the reflection and
    whose objective is taken from the state's own pattern; otherwise screened
    from the ``A^{-1}`` of its pattern.  Only a screened state's entry can be
    clear, so a reused state is never reused from."""
    entry = visited.get(indices)
    if entry is not None:
        return entry
    selected = np.array(indices, dtype=np.intp)
    for perm in problem.reflections:
        mirror = visited.get(tuple(sorted(perm[selected].tolist())))
        if mirror is not None and mirror[2]:
            successor = mirror[1]
            if successor is not None:
                successor = tuple(sorted(perm[list(successor)].tolist()))
            entry = visited[indices] = pattern_objective(problem, selected), successor, False
            return entry
    A_inv = pattern_inverse(problem, selected)
    objective = float(np.trace(A_inv).real)
    unselected = np.ones(problem.grid.size, dtype=bool)
    unselected[selected] = False
    candidates = np.flatnonzero(unselected)
    pair, clear = None, True
    if candidates.size:
        pair, clear = _best_swap(problem, A_inv, selected, candidates, objective)
    successor = None if pair is None else tuple(sorted(set(indices) - {pair[0]} | {pair[1]}))
    entry = visited[indices] = objective, successor, clear
    return entry


def _spacing_offsets(size: int):
    """The lattice lines of one grid axis of ``size`` cells.

    Returns every ``(spacing, offset)`` with ``1 <= spacing <= size`` and
    ``0 <= offset < spacing``, in (spacing, offset) order, as two arrays, and
    per pair four boolean masks over the axis: its lattice positions, those
    positions shifted by ``spacing // 2`` (dropped past the edge), and its
    lattice positions of even and of odd rank.
    """
    spacings = np.arange(1, size + 1)
    spacing = np.repeat(spacings, spacings)
    # The run of spacing s starts at position s*(s-1)/2.
    offset = np.arange(spacing.size) - spacing * (spacing - 1) // 2
    s = spacing[:, None]
    pos = np.arange(size) - offset[:, None]
    on = (pos >= 0) & (pos % s == 0)
    shifted = (pos >= s // 2) & ((pos - s // 2) % s == 0)
    even = on & (pos // s % 2 == 0)
    return spacing, offset, on, shifted, even, on & ~even


def best_lattice(problem: DesignProblem, shape: str) -> DesignReport:
    """Lowest-objective lattice of the given shape and pilot count.

    A lattice takes the subcarriers of one (spacing, offset) pair in every
    symbol of another.  The diamond shifts the subcarriers of every second
    pilot-bearing symbol by half the frequency spacing, dropping those that
    fall off the grid edge.  All lattices with exactly K pilots are scored,
    in (spacing, offset) order, the first of equal objectives winning.  If no
    lattice hits K, the largest count K' in [K-2, K) with candidates is used
    instead and alpha is recomputed for K'.  A lattice's count is a product
    of mask sums, so only the lattices of the count scored are built.
    """
    if shape not in (METHOD_RECT, METHOD_DIAMOND):
        raise LatticeError(f"shape must be 'rect' or 'diamond', got {shape!r}")
    t0 = time.perf_counter()
    grid = problem.grid
    f_sp, f_off, rows, shifted, _, _ = _spacing_offsets(grid.M)
    t_sp, t_off, _, _, even, odd = _spacing_offsets(grid.N)
    if shape == METHOD_RECT:
        shifted = rows
    count = np.outer(rows.sum(1), even.sum(1)) + np.outer(shifted.sum(1), odd.sum(1))
    for K_used in range(problem.budget, problem.budget - 3, -1):
        f, t = np.nonzero(count == K_used)
        if not f.size:
            continue
        sub_problem = problem if K_used == problem.budget else replace(problem, budget=K_used)
        order = np.lexsort((t_off[t], f_off[f], t_sp[t], f_sp[f]))
        best_obj, best_idx = np.inf, None
        for a, b in zip(f[order], t[order]):
            # Cell n*M + m: symbol n, subcarrier m.
            idx = np.flatnonzero(np.outer(even[b], rows[a]) | np.outer(odd[b], shifted[a]))
            obj = pattern_objective(sub_problem, idx)
            if obj < best_obj:
                best_obj, best_idx = obj, idx
        return _report(sub_problem, PilotPattern(best_idx, grid), best_obj, best_obj, 0, t0)
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
    problem: DesignProblem, rounding_seeds, allocation: FractionalAllocation
) -> tuple[DesignReport, list[DesignReport]]:
    """One swap-refined rounding of the relaxed ``allocation`` of ``problem``
    (``solve_relaxation``) per seed.

    Returns the best report together with the per-seed reports, so callers can
    record the rounding distribution.  The best is the earliest seed whose
    objective is within ``TIE_BAND`` of the lowest.  The roundings share one
    ``local_swap`` visited map, so a duplicate rounding, or a chain that
    merges into an earlier one, screens no state twice, and a state whose
    reflection was screened with a clear decision is not screened at all;
    each report is the one an unshared run gives.
    """
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
        obj = pattern_objective(problem, np.array(subset, dtype=np.intp))
        if obj < best_obj:
            best_obj, best_subset = obj, subset
    pattern = PilotPattern(best_subset, problem.grid)
    return _report(problem, pattern, best_obj, best_obj, 0, t0)
