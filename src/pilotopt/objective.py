"""A-optimal design objective for pilot selection.

Placing pilots with per-pilot SNR ``alpha`` on a set S updates the information
matrix ``A = diag(1/lambda) + alpha * sum_{i in S} u_i^H u_i`` where ``u_i`` is
the i-th row of the dominant eigenbasis.  The design objective is
``trace(A^{-1})``, the estimation MSE inside the retained subspace.  A
``DesignProblem`` holds this one basis.  The reported average MSE is scored
from the channel statistics instead: ``average_mse`` evaluates the same form
on every significant eigenpair of the channel covariance, which makes it the
exact LMMSE error of the pattern; the Monte Carlo builds its estimator from
the same inverse (``_error_covariance``).  Cutting the basis also perturbs
the pilot observations, so the reduced-rank objective plus the discarded
energy would not be.

An optimizer's state is a sorted index array and its ``A^{-1}``, a plain
r x r array (r << M*N).  Greedy selection screens every row at once with
``gains_for_candidates`` and adds the best one by a Sherman-Morrison update,
``rank_one_update``; the swap pass computes a state's ``A^{-1}`` from its
pattern and screens every swap at once with ``swap_deltas``, whose removal
coefficients come from ``removal_terms``.  All of them read the terms of
``_row_terms``.  No arithmetic path decides which of two exactly tied choices
wins: the optimizers take the lowest index within ``optimizers.TIE_BAND`` of
the best.

Every ``A^{-1}`` formed, not updated, comes from one Cholesky kernel,
``_hermitian_inverse``: LAPACK ``zpotrf`` factors the lower triangle of ``A``
(which is therefore not symmetrized first), ``zpotri`` inverts the factor into
the lower triangle, and that triangle is mirrored; an ``A`` that is not
positive definite in floating point raises ``NumericError``.  A caller that
reads only the trace sums the diagonal of the unmirrored triangle
(``_lower_inverse``), which gives the mirrored trace bit for bit.
``pattern_inverse`` and its trace-only form ``pattern_objective`` feed the
kernel a sorted ``np.intp`` index array, and ``allocation_lower_inverse``
(the relaxation's, which mirrors only accepted steps) a weight vector of
length P, from the constants ``DesignProblem`` derives once (``prior_inv``
and ``rows_conj``), validating nothing.  The public ``objective_value``,
``objective_gradient`` and ``average_mse`` check that a pattern or allocation
fits the grid (``_information_matrix``) and then run the same kernel.
``_face_hessian`` gives the relaxed objective's Hessian on a set of weights,
for the relaxation's Newton steps.

The Doppler and delay correlations are Hermitian Toeplitz, so reflecting the
grid in m, in n or in both maps the basis rows to ``rows Q`` or
``conj(rows) Q`` with Q unitary and commuting with ``diag(prior)``, which
leaves every objective unchanged up to the index permutation.
``DesignProblem.reflections`` holds the reflections under which a problem is
verified to be so, for the swap pass to reuse the screen of a mirrored state.
"""

import math
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .channel import ChannelStatistics, GridConfig
from .errors import BudgetError, DegenerateUpdateError, InvalidSpecError, NumericError

# A grid reflection counts as a symmetry of a problem when its permuted rows
# are ``rows Q`` or ``conj(rows) Q`` to this fraction of the largest row
# entry, Q is unitary to it and Q commutes with ``diag(1/prior)`` to it of
# the largest ``1/prior``.  Build-statistics problems at the default energy
# threshold pass at 1e-12 or better (12x14 to 48x28, spreading 1e-4 to
# 5e-2); at ``rank_energy_threshold`` 1 their eigenvectors near the floor
# miss by 4e-10 to 2e-4 and fail, as permuted or random rows do.
REFLECTION_RTOL = 1e-11


def compute_alpha(beta: float, N: int, K: int, noise_var: float) -> float:
    """Pilot SNR ``alpha = beta * N / (K * noise_var)``.

    ``beta`` is the fraction of block power given to pilots, so the per-pilot
    symbol power is ``beta * N / K`` and alpha is that power over the noise.
    Alpha must be a positive float whose square is finite (at most about
    1.3e154): the swap screen squares ``alpha / (1 - alpha q) >= alpha``.
    """
    if K < 1 or int(K) != K:
        raise BudgetError(f"pilot budget must be a positive integer, got {K}")
    if beta <= 0 or N < 1 or noise_var <= 0:
        raise InvalidSpecError("beta, N and noise_var must be positive")
    alpha = float(beta) * N / (K * noise_var)
    if not (alpha > 0.0 and alpha * alpha < math.inf):
        raise InvalidSpecError(
            f"pilot SNR beta*N/(K*noise_var) = {alpha:g} (beta = {beta:g}, N = {N}, "
            f"K = {K}, noise_var = {noise_var:g}) is not a positive float with a "
            "finite square"
        )
    return alpha


def noise_var_from_snr_db(snr_db: float) -> float:
    """Noise variance for a given symbol SNR in dB, at unit symbol power."""
    return 10.0 ** (-snr_db / 10.0)


def _first_frame_outside() -> int:
    """``stacklevel`` that makes a warning raised in this module name the
    first frame outside it.  The dataclass-generated ``__init__`` runs in
    this module's globals, so it is skipped like a function defined here."""
    level, frame = 1, sys._getframe(1)
    while frame is not None and frame.f_globals is globals():
        level, frame = level + 1, frame.f_back
    return level


@dataclass(frozen=True)
class DesignProblem:
    """Immutable inputs of one pilot design instance.

    The A-optimal sensor-selection problem and nothing more: ``rows`` is the
    P x r matrix whose i-th row is the grid cell i restricted to the dominant
    channel subspace, stored C-contiguous, and ``prior`` holds the r dominant
    eigenvalues.  ``pilot_snr`` is not given but derived,
    ``alpha = beta*N/(K*noise_var)`` from the power fraction, ``grid.N``, the
    budget and the noise variance.  So are the read-only constants of the
    ``A^{-1}`` kernels: ``prior_inv``, the complex ``diag(1/prior)``, and
    ``rows_conj``, the conjugate of ``rows``.  The reported average MSE is not
    scored here but on the channel statistics (``average_mse``).  The grid
    reflections the problem is invariant under, ``reflections``, are checked
    on first use, not here: most problems are never swapped.
    """

    grid: GridConfig
    rows: np.ndarray
    prior: np.ndarray
    pilot_snr: float = field(init=False)
    budget: int
    power_fraction: float
    noise_var: float
    prior_inv: np.ndarray = field(init=False, compare=False, repr=False)
    rows_conj: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # The kernels multiply by rows and read single rows: keep them dense.
        rows = np.ascontiguousarray(self.rows, dtype=np.complex128)
        prior = np.asarray(self.prior, dtype=float)
        if rows.ndim != 2 or rows.shape[0] != self.grid.size:
            raise InvalidSpecError(
                f"rows must be (P, r) with P = {self.grid.size}, got {rows.shape}"
            )
        if prior.shape != (rows.shape[1],):
            raise InvalidSpecError("prior length must match the subspace rank")
        if np.any(prior <= 0):
            raise InvalidSpecError("prior eigenvalues must be positive")
        if not 1 <= self.budget <= self.grid.size:
            raise BudgetError(f"budget {self.budget} outside [1, {self.grid.size}]")
        if self.power_fraction <= 0:
            raise InvalidSpecError("power_fraction must be positive")
        if self.power_fraction > 1 + 1e-12:
            warnings.warn(
                f"power_fraction {self.power_fraction:g} > 1: pilot power exceeds "
                "the block budget (happens when K > N with unit pilot power)",
                stacklevel=_first_frame_outside(),
            )
        alpha = compute_alpha(self.power_fraction, self.grid.N, self.budget, self.noise_var)
        object.__setattr__(self, "pilot_snr", alpha)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "prior", prior)
        prior_inv, rows_conj = _prior_inverse(prior), rows.conj()
        prior_inv.flags.writeable = rows_conj.flags.writeable = False
        object.__setattr__(self, "prior_inv", prior_inv)
        object.__setattr__(self, "rows_conj", rows_conj)

    @property
    def rank(self) -> int:
        return self.rows.shape[1]

    @cached_property
    def reflections(self) -> tuple:
        """The flat index maps of the grid reflections in m, in n and in
        both, in that order, under which this problem is verified invariant
        (``_is_symmetry``); a map that is the identity, or repeats an earlier
        one, on a grid with M = 1 or N = 1 is left out.  Checked on first
        use, once per problem.  Cell k of a reflected pattern is ``map[k]``
        of the original, and each map is its own inverse."""
        M, N = self.grid.M, self.grid.N
        n, m = np.divmod(np.arange(self.grid.size), M)
        maps = []
        for flip_m, flip_n in ((True, False), (False, True), (True, True)):
            if (flip_m and M == 1) or (flip_n and N == 1):
                continue
            perm = (N - 1 - n if flip_n else n) * M + (M - 1 - m if flip_m else m)
            if _is_symmetry(self.rows, self.rows_conj, self.prior, perm):
                perm.flags.writeable = False
                maps.append(perm)
        return tuple(maps)

    @property
    def pilot_power(self) -> float:
        """Per-pilot symbol power ``sigma_p^2 = beta * N / K``."""
        return self.power_fraction * self.grid.N / self.budget

    def with_budget(self, K: int) -> "DesignProblem":
        """Same statistics and power fraction, different pilot count."""
        return DesignProblem(
            grid=self.grid,
            rows=self.rows,
            prior=self.prior,
            budget=K,
            power_fraction=self.power_fraction,
            noise_var=self.noise_var,
        )


def make_design_problem(
    stats: ChannelStatistics,
    K: int,
    snr_db: float,
    beta: float | None = None,
) -> DesignProblem:
    """Assemble a design problem from channel statistics.

    SNR in dB is mapped to ``noise_var = 10^(-SNR/10)`` at unit symbol power.
    ``beta`` defaults to ``K/N`` so the per-pilot power is 1 (the block
    average).
    """
    noise_var = noise_var_from_snr_db(snr_db)
    if noise_var <= 0:
        raise InvalidSpecError("noise_var must be positive")
    if beta is None:
        beta = K / stats.grid.N
    return DesignProblem(
        grid=stats.grid,
        rows=stats.eigvecs,
        prior=stats.eigvals,
        budget=K,
        power_fraction=beta,
        noise_var=noise_var,
    )


@dataclass(frozen=True)
class PilotPattern:
    """A binary pilot placement: K distinct flat indices on the grid."""

    indices: tuple
    grid: GridConfig

    def __post_init__(self):
        idx = sorted(map(int, self.indices))
        if len(set(idx)) != len(idx):
            raise InvalidSpecError("pilot indices must be distinct")
        if idx and (idx[0] < 0 or idx[-1] >= self.grid.size):
            raise InvalidSpecError("pilot index outside the grid")
        object.__setattr__(self, "indices", tuple(idx))

    def __len__(self) -> int:
        return len(self.indices)


# Weights within this distance of 0 or 1 are pinned: dependent rounding
# moves mass only between the others.
ROUNDING_EPS = 1e-9


class RoundingPlan(NamedTuple):
    """The part of dependent rounding that depends on the weights alone.

    ``fractional`` holds the indices of the weights inside ``(eps, 1 - eps)``
    in ascending order and ``values`` those weights.  ``fixed_ones`` are the
    indices of the other weights above 0.5: they are ones whatever the draws.
    """

    fractional: tuple
    values: tuple
    fixed_ones: tuple


def rounding_plan(w: np.ndarray) -> RoundingPlan:
    """The ``RoundingPlan`` of a 1-D float weight array; nothing is checked."""
    fractional = np.flatnonzero((w > ROUNDING_EPS) & (w < 1.0 - ROUNDING_EPS))
    fixed = w > 0.5
    fixed[fractional] = False
    return RoundingPlan(
        fractional=tuple(fractional.tolist()),
        values=tuple(w[fractional].tolist()),
        fixed_ones=tuple(np.flatnonzero(fixed).tolist()),
    )


@dataclass(frozen=True, eq=False)
class FractionalAllocation:
    """Box-constrained pilot weights summing to the integer budget K.

    ``converged``, ``iterations``, ``residual``, ``evaluations``,
    ``face_steps`` and ``face_fallbacks`` record how a solver obtained the
    weights: whether it reached its tolerance, the steps it took, its final
    projected-gradient residual norm (NaN when the weights were not solved
    for), the objective evaluations it made, the Newton steps on a face among
    its steps and the times its face phase handed back to the gradient
    phase.  The weights are a read-only copy of
    the given array, and ``plan``, the ``RoundingPlan`` that
    ``dependent_rounding`` reads, is derived from them once.  Equality is
    identity: allocations are never compared by value.
    """

    weights: np.ndarray
    budget: int
    converged: bool = True
    iterations: int = 0
    residual: float = float("nan")
    evaluations: int = field(default=0, compare=False)
    face_steps: int = field(default=0, compare=False)
    face_fallbacks: int = field(default=0, compare=False)
    plan: RoundingPlan = field(init=False, repr=False)

    def __post_init__(self):
        if int(self.budget) != self.budget:
            raise InvalidSpecError(f"allocation budget must be an integer, got {self.budget!r}")
        # A private copy: the plan must not go stale under the caller's writes.
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1:
            raise InvalidSpecError(f"allocation weights must be a 1-D array, got shape {w.shape}")
        bad = int(np.count_nonzero(~np.isfinite(w)))
        if bad:
            raise InvalidSpecError(
                f"allocation weights must be finite, got {bad} non-finite of {w.size}"
            )
        if np.any(w < -1e-9) or np.any(w > 1 + 1e-9):
            raise InvalidSpecError("allocation weights must lie in [0, 1]")
        if abs(w.sum() - self.budget) > 1e-6:
            raise InvalidSpecError(
                f"allocation weights sum to {w.sum():.9f}, expected {self.budget}"
            )
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "plan", rounding_plan(w))


def _is_symmetry(rows, rows_conj, prior, perm) -> bool:
    """Whether ``rows[perm]`` is ``rows Q`` or ``conj(rows) Q`` for a unitary
    Q that commutes with ``diag(1/prior)``, each to ``REFLECTION_RTOL``: then
    every pattern S and its image ``perm[S]`` have information matrices
    ``A`` and ``Q^H A Q`` (or its conjugate), so equal objectives, and the
    swap screens of the two states agree up to the permutation.  Q is
    ``basis^H rows[perm]``, the least-squares solution when the basis has
    orthonormal columns, as eigenvectors do; another basis may fail the
    check, which only forgoes the reuse.
    """
    permuted = rows[perm]
    scale = np.abs(permuted).max()
    inv_prior = 1.0 / prior
    for basis, adjoint in ((rows, rows_conj.T), (rows_conj, rows.T)):
        Q = adjoint @ permuted
        if (
            np.abs(basis @ Q - permuted).max() <= REFLECTION_RTOL * scale
            and np.abs(Q.conj().T @ Q - np.eye(Q.shape[1])).max() <= REFLECTION_RTOL
            and np.abs(Q * inv_prior - inv_prior[:, None] * Q).max()
            <= REFLECTION_RTOL * inv_prior.max()
        ):
            return True
    return False


def _prior_inverse(prior: np.ndarray) -> np.ndarray:
    """The complex ``diag(1/prior)`` every information matrix starts from."""
    return np.diag(1.0 / prior).astype(np.complex128)


def _pattern_information(prior_inv, rows, rows_conj, alpha: float, idx) -> np.ndarray:
    """``diag(1/prior) + alpha * U_S^H U_S`` for the rows ``idx``."""
    return prior_inv + (alpha * rows_conj[idx].T) @ rows[idx]


def _allocation_information(prior_inv, rows, rows_conj, alpha: float, w) -> np.ndarray:
    """``diag(1/prior) + alpha * rows^H diag(w) rows``."""
    return prior_inv + (alpha * (rows_conj.T * w)) @ rows


def _lower_inverse(A: np.ndarray, name: str = "information matrix") -> np.ndarray:
    """The lower triangle of ``A^{-1}`` for a positive definite ``A``, through
    its Cholesky factor, with zeros above the diagonal; only the lower
    triangle of ``A`` is read.  Its trace is that of ``A^{-1}``.  A failure
    raises ``NumericError`` naming the matrix as ``name``."""
    factor, info = lapack.zpotrf(A, lower=True)
    if info == 0:
        inverse, info = lapack.zpotri(factor, lower=True, overwrite_c=True)
    if info != 0:
        raise NumericError(f"{name} is not positive definite (LAPACK info {info})")
    # zpotri fills the lower triangle; zpotrf zeroed the upper one.
    return inverse


def hermitian_from_lower(lower: np.ndarray) -> np.ndarray:
    """The Hermitian matrix with the lower triangle of ``lower``, a matrix
    whose entries above the diagonal are zero."""
    mirrored = lower + lower.conj().T
    mirrored.flat[:: len(lower) + 1] = lower.diagonal()
    return mirrored


def _hermitian_inverse(A: np.ndarray, name: str = "information matrix") -> np.ndarray:
    """Hermitian ``A^{-1}`` of a positive definite ``A``: ``_lower_inverse``
    mirrored."""
    return hermitian_from_lower(_lower_inverse(A, name))


def pattern_inverse(problem: DesignProblem, idx: np.ndarray) -> np.ndarray:
    """Hermitian ``A^{-1}`` of the pattern with sorted ``np.intp`` indices
    ``idx``; the indices are not checked."""
    return _hermitian_inverse(
        _pattern_information(
            problem.prior_inv, problem.rows, problem.rows_conj, problem.pilot_snr, idx
        )
    )


def pattern_objective(problem: DesignProblem, idx: np.ndarray) -> float:
    """``trace(A^{-1})`` of the pattern with sorted ``np.intp`` indices
    ``idx``, the trace of ``pattern_inverse`` without mirroring it; the
    indices are not checked."""
    A = _pattern_information(
        problem.prior_inv, problem.rows, problem.rows_conj, problem.pilot_snr, idx
    )
    return float(np.trace(_lower_inverse(A)).real)


def allocation_lower_inverse(problem: DesignProblem, w: np.ndarray) -> np.ndarray:
    """The lower triangle of ``A^{-1}`` (``_lower_inverse``) of the float
    weights ``w`` of length P; the weights are not checked."""
    return _lower_inverse(
        _allocation_information(
            problem.prior_inv, problem.rows, problem.rows_conj, problem.pilot_snr, w
        )
    )


def _information_matrix(
    grid: GridConfig, prior_inv, rows, rows_conj, alpha: float, pattern, owner: str
):
    """The information matrix of a pattern or allocation ``w`` on ``grid``,
    after checking that it fits the grid, which an error names as the grid
    of ``owner``."""
    if isinstance(pattern, PilotPattern):
        if pattern.grid != grid:
            raise InvalidSpecError(f"pattern grid does not match the {owner} grid")
        idx = np.array(pattern.indices, dtype=np.intp)
        return _pattern_information(prior_inv, rows, rows_conj, alpha, idx)
    w = pattern.weights if isinstance(pattern, FractionalAllocation) else pattern
    w = np.asarray(w, dtype=float)
    if w.shape != (grid.size,):
        raise InvalidSpecError(f"weights must have length {grid.size}")
    return _allocation_information(prior_inv, rows, rows_conj, alpha, w)


def _problem_information(problem: DesignProblem, pattern) -> np.ndarray:
    """``_information_matrix`` on the constants of ``problem``."""
    return _information_matrix(
        problem.grid,
        problem.prior_inv,
        problem.rows,
        problem.rows_conj,
        problem.pilot_snr,
        pattern,
        "problem",
    )


def objective_value(problem: DesignProblem, pattern) -> float:
    """The design objective ``trace(A^{-1})`` for a pattern or allocation."""
    return float(np.trace(_lower_inverse(_problem_information(problem, pattern))).real)


def average_mse(stats: ChannelStatistics, pattern, pilot_snr: float) -> float:
    """Exact per-cell LMMSE error ``trace(C_e) / (M*N)`` of a pattern.

    Evaluates ``trace((diag(1/lambda) + alpha * U_S^H U_S)^{-1}) / (M*N)`` on
    every significant eigenpair of ``stats`` at pilot SNR ``alpha``, which is
    that of the budget the pattern uses: a lattice scored at a reduced
    budget K' takes the ``pilot_snr`` of the problem for K'.  The covariance
    energy below the eigenvalue floor is left out.  An allocation's weights
    are read as per-cell fractions of the pilot power.

    Accuracy: the inversion is exact to rounding, but the basis carries the
    rounding of the double-precision eigenpairs and drops the pairs below the
    floor, so above about 20 dB not all of the 12 digits the CLI prints are
    significant.  Against a 45-digit evaluation of the pilot-restricted
    LMMSE error on 12x14, spreading 5e-3, K = 14 (greedy pattern), the
    relative error is 5.8e-10 at 20 dB, 1.9e-8 at 40 dB and 1.1e-6 at 100 dB.
    """
    return _error_covariance(stats, pattern, pilot_snr)[1]


def _error_covariance(
    stats: ChannelStatistics, pattern, pilot_snr: float
) -> tuple[np.ndarray, float]:
    """The lower triangle (``_lower_inverse``) of ``A^{-1}``, the LMMSE error
    covariance of the channel's coordinates on every significant eigenpair
    of ``stats``, and the average MSE ``trace(A^{-1}) / (M*N)`` that
    ``average_mse`` reports; the Monte Carlo builds its estimator from the
    same triangle."""
    U = stats.significant_eigvecs
    A = _information_matrix(
        stats.grid,
        _prior_inverse(stats.significant_eigvals),
        U,
        U.conj(),
        pilot_snr,
        pattern,
        "statistics",
    )
    lower = _lower_inverse(A)
    return lower, float(np.diagonal(lower).real.sum()) / stats.grid.size


def _row_terms(A_inv: np.ndarray, rows: np.ndarray):
    """Sherman-Morrison terms of every row ``u_k`` of ``rows`` against ``A_inv``:
    ``Y = rows A^{-1}``, whose k-th row is ``y_k = u_k A^{-1}``, the quadratic
    forms ``q_k = u_k A^{-1} u_k^H`` and the squared norms ``n_k = |y_k|^2``,
    returned as ``Y, quad, norm2``."""
    Y = rows @ A_inv
    Y_conj = Y.conj()
    norm2 = np.einsum("ij,ij->i", Y_conj, Y).real
    quad = np.einsum("ij,ij->i", rows, Y_conj).real
    return Y, quad, norm2


def gains_for_candidates(A_inv: np.ndarray, rows: np.ndarray, alpha: float) -> np.ndarray:
    """Vectorized marginal gains for every row in ``rows`` against ``A_inv``."""
    _, quad, norm2 = _row_terms(A_inv, rows)
    return alpha * norm2 / (1.0 + alpha * quad)


def rank_one_update(problem: DesignProblem, A_inv: np.ndarray, j: int) -> np.ndarray:
    """Hermitian ``A^{-1}`` after adding row j to the pattern whose inverse is
    ``A_inv``, by Sherman-Morrison: ``A_inv - alpha y_j^H y_j / (1 + alpha q_j)``
    with ``y_j = u_j A^{-1}`` and ``q_j = u_j A^{-1} u_j^H``."""
    alpha = problem.pilot_snr
    Y, quad, _ = _row_terms(A_inv, problem.rows[j : j + 1])
    denom = 1.0 + alpha * quad[0]
    A_inv = A_inv - (alpha / denom) * np.outer(Y[0].conj(), Y[0])
    # Symmetrize to suppress drift over long update chains.
    return 0.5 * (A_inv + A_inv.conj().T)


def removal_terms(problem: DesignProblem, quad: np.ndarray, selected) -> np.ndarray:
    """Removal coefficients ``t_i = alpha / (1 - alpha q_i)`` of the selected
    rows, from the quadratic forms ``quad`` of all P rows: removing row i adds
    ``t_i y_i^H y_i`` to ``A^{-1}``.

    A denominator at or below 1e-12 raises ``DegenerateUpdateError`` naming
    the row: ``A^{-1}`` cannot be downdated by it in floating point.
    """
    alpha = problem.pilot_snr
    denom = 1.0 - alpha * quad[selected]
    if denom.min() <= 1e-12:
        a = int(np.argmin(denom))
        raise DegenerateUpdateError(
            f"removal of {selected[a]} hit denominator {denom[a]:g}"
        )
    return alpha / denom


def swap_deltas(problem: DesignProblem, A_inv: np.ndarray, selected, candidates) -> np.ndarray:
    """Objective change of every swap at once: entry (a, b) is the change of
    swapping selected ``selected[a]`` for unselected ``candidates[b]`` in the
    pattern whose inverse is ``A_inv``, up to rounding.

    In the terms ``y``, ``q`` and ``n`` of ``_row_terms``, with ``t_i`` of
    ``removal_terms``, ``D_ij = y_i u_j^H`` and ``E_ij = y_i y_j^H``, swapping
    i for j changes the objective by the removal's increase less the gain of
    adding j after it:

        t_i n_i - alpha (n_j + 2 t_i Re(D_ij conj(E_ij)) + t_i^2 n_i |D_ij|^2)
                  / (1 + alpha q_j + alpha t_i |D_ij|^2)

    Two matrix products give all K x (P - K) of ``D`` and ``conj(E)``, the
    Fedorov exchange screen; the scalar factors are folded into vectors.
    """
    alpha = problem.pilot_snr
    Y, quad, norm2 = _row_terms(A_inv, problem.rows)
    t = removal_terms(problem, quad, selected)
    alpha_t, t_norm2 = (alpha * t)[:, None], (t * norm2[selected])[:, None]
    Y_S = Y[selected]
    D = Y_S @ problem.rows_conj[candidates].T
    DE = Y_S.conj() @ Y[candidates].T
    DE *= D
    numer = DE.real * (2.0 * alpha_t)
    numer += alpha * norm2[candidates]
    D2 = D.real**2
    D2 += D.imag**2
    denom = D2 * alpha_t
    denom += 1.0 + alpha * quad[candidates]
    D2 *= alpha_t * t_norm2
    numer += D2
    numer /= denom
    return np.subtract(t_norm2, numer, out=numer)


def gradient_from_inverse(problem: DesignProblem, A_inv: np.ndarray) -> np.ndarray:
    """Relaxed-objective gradient ``-alpha * u_i A^{-2} u_i^H`` per cell, from
    an ``A^{-1}`` already formed by ``_hermitian_inverse``."""
    # The squared norms of _row_terms, without its quadratic forms.
    Y = problem.rows @ A_inv
    return -problem.pilot_snr * np.einsum("ij,ij->i", Y, Y.conj()).real


def objective_gradient(problem: DesignProblem, allocation) -> np.ndarray:
    """Gradient of the relaxed objective: ``-alpha * u_i A^{-2} u_i^H`` per cell."""
    return gradient_from_inverse(
        problem, _hermitian_inverse(_problem_information(problem, allocation))
    )


def _face_hessian(problem: DesignProblem, A_inv: np.ndarray, face: np.ndarray) -> np.ndarray:
    """Hessian of the relaxed objective on the weights ``face``, from an
    ``A^{-1}`` already formed: ``2 alpha^2 Re(G o conj(B))`` with
    ``Y = U_F A^{-1}``, ``G = Y U_F^H = U_F A^{-1} U_F^H`` and
    ``B = Y Y^H = U_F A^{-2} U_F^H``, whose diagonal ``B_ii`` the gradient
    reads as ``-alpha B_ii``."""
    Y = problem.rows[face] @ A_inv
    G = Y @ problem.rows_conj[face].T
    B = Y @ Y.conj().T
    H = G.real * B.real
    H += G.imag * B.imag
    H *= 2.0 * problem.pilot_snr**2
    return H
