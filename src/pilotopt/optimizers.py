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
SPG2.  Both phases stop on one certified relative gap between the best
objective and the best lower bound that the gradients give.
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
# The swap pass stops when no swap lowers the objective by more than this
# fraction of it.
SWAP_TOLERANCE = 1e-10
# A swap state takes the successor of a mirrored state (a reflection of its
# pattern under which the problem is invariant) without a screen of its own
# only when the mirrored screen's decision holds with every delta and the
# objective moved by this fraction of the objective.  Reflected screens
# agree to about 1e-14 of it.
REFLECT_SLACK = 1e-12
# Exact ties are broken by index, not by arithmetic: the swap pass, greedy
# selection, the lattice search, the exhaustive search and the choice of best
# rounding each take the lowest index (the earliest seed) among the choices
# within this fraction of the objective of the best one.  Mirror-symmetric
# channels give ties whose values differ in the last bits, far inside the
# band.
TIE_BAND = 1e-9
# The relaxation turns from SPG2 to Newton steps on the free weights once
# this many accepted SPG2 steps in a row leave the weights pinned at 0 or 1
# unchanged, and the face Hessian takes a ridge of FACE_RIDGE times its
# largest diagonal entry.  A Newton step that fails its one trial hands back
# to SPG2.
FACE_SWITCH = 3
FACE_RIDGE = 1e-10
# The relaxation converges when its best objective is within GAP_TOL of its
# best lower bound, relative to that bound, and stops unconverged after
# RELAX_MAX_ITERS steps.
GAP_TOL = 1e-9
RELAX_MAX_ITERS = 5000

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
    """Outcome of one design run: its result and counts, and no time, which
    its caller measures where it writes it (``cli.run_point``).

    ``objective`` is the design objective on the reduced-rank basis;
    ``problem`` is the instance the pattern was scored on, at the budget
    actually used.
    """

    pattern: PilotPattern
    objective: float
    initial_objective: float
    swap_iterations: int
    problem: DesignProblem = field(repr=False, compare=False)

    @property
    def budget_used(self) -> int:
        """Pilot count of the pattern: the budget, or a lattice's fallback."""
        return self.problem.budget


def _first_in_band(objectives) -> int:
    """Index of the first of ``objectives`` within ``TIE_BAND`` of the lowest."""
    objectives = np.asarray(objectives, dtype=float)
    return int(np.argmax(objectives <= objectives.min() * (1.0 + TIE_BAND)))


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


def _lower_bound(f: float, grad: np.ndarray, w: np.ndarray, K: int) -> float:
    """Lower bound ``f - (grad.w - sum of the K smallest grad)`` on the
    relaxed optimum, and so on every pattern of K pilots, from the objective
    f and gradient at weights w in the box: by convexity, the objective's
    linearization at w minimized over the capped simplex (the Frank-Wolfe
    gap, Jaggi 2013, "Revisiting Frank-Wolfe", ICML)."""
    return f - (float(grad @ w) - float(np.partition(grad, K - 1)[:K].sum()))


def solve_relaxation(problem: DesignProblem) -> FractionalAllocation:
    """Fractional A-optimal allocation: the nonmonotone spectral projected
    gradient method SPG2 (Birgin, Martinez & Raydan 2000, "Nonmonotone
    spectral projected gradient methods on convex sets", SIAM J. Optim.
    10(4)) finds the optimal face, and Newton steps on that face converge.

    Each SPG2 iteration projects once, for the direction
    ``d = P(w - lam grad) - w`` at the Barzilai-Borwein step ``lam`` (BB1,
    clamped to [1e-12, 1e3] times ``scale``, the reciprocal of the start's
    largest absolute gradient, which is the first step; the top of that
    range where the curvature is not positive), and backtracks ``s <- s/2``
    along ``w + s d`` with no further projection.  A trial is accepted when
    its objective is at most the largest of the last 10 objectives plus
    ``1e-4 * s * grad.d`` (the Grippo-Lampariello-Lucidi rule).

    Once ``FACE_SWITCH`` accepted SPG2 steps in a row leave the set of weights
    pinned at 0 or 1 unchanged, with at least two weights free and one
    pinned, the free weights F take Newton steps under ``sum w = K``
    (``_face_direction``), on the face Hessian ``objective._face_hessian``
    plus a ridge of ``FACE_RIDGE`` times its largest diagonal entry, since
    the relaxed optimum is not unique.  A step that would leave the box is
    cut at the first bound it hits (``_face_line_search``), which pins that
    weight; the step is never projected, since projecting it undoes it.
    The face is solved when its reduced gradient ``grad_F - nu``,
    ``nu = mean(grad_F)``, has ``|grad_F - nu| sqrt(|F|)`` at most
    ``GAP_TOL`` times the best bound: no weight moves by more than 1, so
    this caps the face's own Frank-Wolfe gap at the relative tolerance.  A
    solved face releases every KKT violator into F: a weight at 0 with
    ``grad_i < nu`` or at 1 with ``grad_i > nu`` (the active-set finish of
    Bertsekas 1982, "Projected Newton methods for optimization problems with
    simple constraints", SIAM J. Control Optim. 20(2)).  A released weight
    whose Newton direction points out of the box stays pinned.  A step that
    is not a descent or fails its one trial, a singular solve, a solved face
    with nothing to release that the gap does not certify, or a face that
    shrinks below two weights hands back to SPG2 from the current iterate.
    Each trial's ``A^{-1}`` gives its objective as the trace of its lower
    triangle (``objective.allocation_lower_inverse``), and, once accepted,
    the mirrored inverse gives its gradient and face Hessian.

    Every accepted iterate, the start included, gives a lower bound on the
    relaxed optimum (``_lower_bound``, one partition of the gradient), and
    the best bound is kept: early bounds are negative.  The solve is
    certified, and stops converged, when the best objective is within
    ``GAP_TOL`` of the best bound relative to that bound, a test that means
    the same at every pilot SNR (Joshi & Boyd 2009, "Sensor selection via
    convex optimization", IEEE TSP 57(2)).  Otherwise, after
    ``RELAX_MAX_ITERS`` accepted steps of either kind or when no trial is
    accepted, the best iterate is returned with ``converged=False`` and a
    warning.  The budget holds by construction: with the step at most 1e3
    times ``scale``, no entry of ``w - lam grad`` exceeds about 1e3, so the
    exact projection, and every trial along its direction, sums to K to
    rounding, as does a Newton step, whose direction sums to 0.  The
    allocation records the steps taken, the certified relative gap of the
    best iterate (inf when no bound was positive; near the optimum it rounds
    to within about 1e-15 of 0, either side), the objective evaluations
    made, the Newton steps among the steps and the hand-backs to SPG2.
    """
    P, K = problem.grid.size, problem.budget
    w = np.full(P, K / P)
    lower = allocation_lower_inverse(problem, w)
    evaluations = 1
    f = float(np.trace(lower).real)
    A_inv = hermitian_from_lower(lower)
    grad = gradient_from_inverse(problem, A_inv)
    best_w, best_f = w.copy(), f
    best_lb = _lower_bound(f, grad, w, K)
    recent = deque([f], maxlen=10)
    # The step range scales with the gradient, so a step means the same at
    # every pilot SNR; a zero gradient certifies the start before any step.
    lam = scale = 1.0 / max(float(np.abs(grad).max()), np.finfo(float).tiny)
    bounds, unchanged = _bound_pattern(w), 0
    face = None  # the free weights while Newton steps run
    face_steps = face_fallbacks = 0

    iterations = 0
    while iterations < RELAX_MAX_ITERS:
        # The objective is positive, so this never holds while best_lb <= 0.
        if best_f - best_lb <= GAP_TOL * best_lb:
            break
        if face is not None:
            reduced = grad[face]
            nu = reduced.mean()
            solved = 0  # the size of a solved face before its violators enter
            spread = float(np.linalg.norm(reduced - nu)) * np.sqrt(face.size)
            if best_lb > 0.0 and spread <= GAP_TOL * best_lb:
                violators = ((w == 0.0) & (grad < nu)) | ((w == 1.0) & (grad > nu))
                violators[face] = True  # a mask union: np.union1d imports numpy.ma
                solved, face = face.size, np.flatnonzero(violators)
            d, face = _face_direction(problem, w, grad, A_inv, face)
            if face.size == solved:
                d = None  # optimal on its face, nothing to release, and not certified
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
            if not d.any():
                break  # no feasible decrease left at machine precision
            f_ref, slope = max(recent), 1e-4 * float(grad @ d)
            s = 1.0
            for trial in range(60):
                if trial:
                    s *= 0.5
                    cand = w + s * d
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
        lam = 1e3 * scale  # the top of the range, where the curvature is not positive
        if curvature > 0:
            lam = min(max(float(dw @ dw) / curvature, 1e-12 * scale), lam)
        w, f, grad = cand, f_cand, grad_new
        recent.append(f)
        iterations += 1
        if f < best_f:
            best_w, best_f = w.copy(), f
        best_lb = max(best_lb, _lower_bound(f, grad, w, K))

    converged = best_f - best_lb <= GAP_TOL * best_lb
    gap = (best_f - best_lb) / best_lb if best_lb > 0.0 else np.inf
    if not converged:
        warnings.warn(
            f"relaxation stopped after {iterations} iterations at gap "
            f"{gap:.3g} > tol={GAP_TOL:g}; returning best iterate",
            stacklevel=2,
        )
    return FractionalAllocation(
        weights=best_w,
        budget=K,
        converged=converged,
        iterations=iterations,
        gap=gap,
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

    The step length is 1, cut at the first bound the step hits (the ratio
    test; that weight lands on its bound), and is tried once: the step is
    taken when the objective falls by ``1e-4 * t * grad_F.d`` (Armijo) and
    strictly.  A direction that is not a descent fails untried, and a step
    that fails its trial hands back to SPG2, which takes its own, shorter
    steps from there.  The strict test matters once ``t * grad_F.d`` is
    below the last bit of the objective: the Armijo bound then rounds to the
    objective itself, and a step that leaves it unchanged would be taken
    again at every step.
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
    cand = w.copy()
    moved = w_face + t * d
    cand[face] = moved.clip(0.0, 1.0, out=moved)
    if t == room[b]:
        cand[face[b]] = 1.0 if d[b] > 0.0 else 0.0
    lower = allocation_lower_inverse(problem, cand)
    f_cand = float(np.trace(lower).real)
    if f_cand < f and f_cand <= f + 1e-4 * t * slope:
        return cand, lower, f_cand, 1
    return None, None, None, 1


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

    Greedy keeps its picks, the row terms ``Y = U A^{-1}``, ``q`` and ``n``
    that give every row's gain, and the objective ``f`` that sets the band.
    Every r picks, the first included, all three are rebuilt from
    ``objective.pattern_inverse`` of the picks; between rebuilds
    ``objective.add_row`` carries the terms in O(P r) and ``f`` falls by
    the picked gain."""
    alpha = problem.pilot_snr
    selected = np.zeros(problem.grid.size, dtype=bool)
    for size in range(problem.budget):  # size picks made so far
        if size % problem.rank:
            Y, quad, norm2 = add_row(problem, Y, quad, j)
            f -= float(gains[j])
        else:
            A_inv = pattern_inverse(problem, np.flatnonzero(selected))
            f = float(np.trace(A_inv).real)
            Y, quad, norm2 = _row_terms(A_inv, problem.rows)
            if not size:
                initial = f  # the empty pattern's objective
        gains = _gains(quad, norm2, alpha)
        gains[selected] = -1.0
        j = int((gains >= gains.max() - TIE_BAND * f).argmax())
        selected[j] = True
    # Report the trace of the pattern's own A^{-1}, as every other method
    # does, not the carried f, which drifts in the last bits.
    selected = np.flatnonzero(selected)
    pattern = PilotPattern(tuple(selected.tolist()), problem.grid)
    return DesignReport(pattern, pattern_objective(problem, selected), initial, 0, problem)


def _best_swap(problem: DesignProblem, A_inv: np.ndarray, selected, objective):
    """``(pair, clear)``: the swap ``pair = (i out, j in)`` the screen accepts,
    or None, for the pattern ``selected`` (ascending) whose inverse is
    ``A_inv`` and whose objective is ``objective``, and whether that decision
    is clear.

    None when no swap improves by more than ``tol = SWAP_TOLERANCE *
    objective``.  Otherwise a swap ties with the best when its delta is
    within ``TIE_BAND`` times the objective of the best delta and still
    improves by more than ``tol``, and the first tied entry of the K x P
    screen in row-major order wins: the lowest selected i with a tied swap
    goes out, and the lowest tied cell j of its row comes in.

    A decision is clear when it would not change if every delta and the
    objective moved by up to ``slack = REFLECT_SLACK * objective``: a None
    whose best delta is at least ``-tol + slack``, or a swap whose
    best delta is below ``limit - slack``, where ``limit`` is the top of the
    band, and is the only delta at most ``limit + (2 + TIE_BAND) * slack``:
    the limit moves with the best delta, so the other deltas need twice the
    slack.  A tie in the band is never clear.
    """
    deltas = swap_deltas(problem, A_inv, selected)
    best = deltas.min()
    slack, tol = REFLECT_SLACK * objective, SWAP_TOLERANCE * objective
    if best >= -tol:
        return None, bool(best >= -tol + slack)
    limit = min(best + TIE_BAND * objective, -tol)
    a, j = divmod(int(np.argmax(deltas <= limit)), deltas.shape[1])
    reach = limit + (2.0 + TIE_BAND) * slack
    clear = best < limit - slack and np.count_nonzero(deltas <= reach) == 1
    return (int(selected[a]), j), bool(clear)


def local_swap(
    problem: DesignProblem,
    init: PilotPattern,
    max_passes: int = 100,
    visited: dict | None = None,
) -> DesignReport:
    """Fedorov exchange: apply the best improving (i out, j in) swap per pass,
    a tie going to the first tied entry of the screen in row-major order.

    Stops when the best improvement falls below ``SWAP_TOLERANCE`` times the
    objective, leaving a 1-swap locally optimal pattern, or after ``max_passes``
    passes; a run the cap stops with an improving swap left warns, naming K
    and the objective it stopped at, so that each distinct stop prints.

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
    if visited is None:
        visited = {}
    indices = init.indices
    initial, successor, _ = _swap_state(problem, indices, visited)
    value, accepted = initial, 0
    while successor is not None:
        if accepted == max_passes:
            warnings.warn(
                f"local_swap stopped at max_passes={max_passes} (K = {problem.budget}, "
                f"objective {value:.12g}) with an improving swap left; the pattern "
                "is not 1-swap locally optimal",
                stacklevel=2,
            )
            break
        indices = successor
        value, successor, _ = _swap_state(problem, indices, visited)
        accepted += 1
    return DesignReport(PilotPattern(indices, problem.grid), value, initial, accepted, problem)


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
    pair, clear = None, True
    if problem.budget < problem.grid.size:
        pair, clear = _best_swap(problem, A_inv, selected, objective)
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
    and the first in (spacing, offset) order whose objective is within
    ``TIE_BAND`` of the lowest wins: mirror-image lattices tie up to
    rounding, and the last bits must not pick between them.  If no
    lattice hits K, the largest count K' in [K-2, K) with candidates is used
    instead and alpha is recomputed for K'.  A lattice's count is a product
    of mask sums, so only the lattices of the count scored are built.
    """
    if shape not in (METHOD_RECT, METHOD_DIAMOND):
        raise LatticeError(f"shape must be 'rect' or 'diamond', got {shape!r}")
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
        # Cell n*M + m: symbol n, subcarrier m.
        lattices = [
            np.flatnonzero(np.outer(even[b], rows[a]) | np.outer(odd[b], shifted[a]))
            for a, b in zip(f[order], t[order])
        ]
        objectives = [pattern_objective(sub_problem, idx) for idx in lattices]
        k = _first_in_band(objectives)
        pattern = PilotPattern(lattices[k], grid)
        return DesignReport(pattern, objectives[k], objectives[k], 0, sub_problem)
    raise NoFeasibleLatticeError(
        f"no {shape} lattice on {grid.M}x{grid.N} has {problem.budget - 2}"
        f"..{problem.budget} pilots"
    )


def greedy_swap_design(problem: DesignProblem) -> DesignReport:
    """Greedy initialization refined by local swaps: the swap run's own
    report, whose initial objective is the greedy pattern's."""
    return local_swap(problem, greedy_design(problem).pattern)


def relax_round_swap_design(
    problem: DesignProblem, rounding_seeds, allocation: FractionalAllocation
) -> tuple[DesignReport, list[tuple[DesignReport, float]]]:
    """One swap-refined rounding of the relaxed ``allocation`` of ``problem``
    (``solve_relaxation``) per seed.

    Returns ``(best, rounds)``: ``rounds`` holds ``(report, seconds)`` per
    seed, in seed order, the ``local_swap`` report of the seed's rounding and
    the wall seconds of that rounding and its swap run, so callers can record
    the rounding distribution.  The best is the report of the earliest seed
    whose objective is within ``TIE_BAND`` of the lowest.  The roundings
    share one ``local_swap`` visited map, so a duplicate rounding, or a chain
    that merges into an earlier one, screens no state twice, and a state
    whose reflection was screened with a clear decision is not screened at
    all; each report is the one an unshared run gives.
    """
    rounds = []
    visited = {}
    for seed in rounding_seeds:
        t0 = time.perf_counter()
        pattern = dependent_rounding(allocation, seed, grid=problem.grid)
        # The swap run's initial objective is the rounded pattern's.
        report = local_swap(problem, pattern, visited=visited)
        rounds.append((report, time.perf_counter() - t0))
    best = rounds[_first_in_band([report.objective for report, _ in rounds])][0]
    return best, rounds


def exhaustive_search(problem: DesignProblem) -> DesignReport:
    """Global optimum by enumerating all K-subsets; desk-scale oracle only.
    The first subset in lexicographic order whose objective is within
    ``TIE_BAND`` of the lowest wins: mirror images tie up to rounding."""
    P, K = problem.grid.size, problem.budget
    n_subsets = comb(P, K)
    if n_subsets > EXHAUSTIVE_GUARD:
        raise ComplexityGuardError(
            f"C({P},{K}) = {n_subsets} subsets exceeds the {EXHAUSTIVE_GUARD} guard"
        )
    objectives = np.fromiter(
        (
            pattern_objective(problem, np.array(subset, dtype=np.intp))
            for subset in itertools.combinations(range(P), K)
        ),
        dtype=float,
        count=n_subsets,
    )
    k = _first_in_band(objectives)
    subset = next(itertools.islice(itertools.combinations(range(P), K), k, None))
    pattern = PilotPattern(subset, problem.grid)
    return DesignReport(pattern, float(objectives[k]), float(objectives[k]), 0, problem)
