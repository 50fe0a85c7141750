"""A-optimal design objective for pilot selection.

Placing pilots with per-pilot SNR ``alpha`` on a set S updates the information
matrix ``A = diag(1/lambda) + alpha * sum_{i in S} u_i^H u_i`` where ``u_i`` is
the i-th row of the dominant eigenbasis.  The design objective is
``trace(A^{-1})``, the estimation MSE inside the retained subspace.  A
``DesignProblem`` holds this one basis.  The reported average MSE is scored
from the channel statistics instead: ``average_mse`` evaluates the same form
on every significant eigenpair of the channel covariance, which makes it the
exact LMMSE error of the pattern.  Cutting the basis also perturbs the pilot
observations, so the reduced-rank objective plus the discarded energy would
not be.

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
positive definite in floating point raises ``NumericError``.
``pattern_inverse`` feeds it a sorted ``np.intp`` index array and
``allocation_inverse`` a weight vector of length P, from the constants
``DesignProblem`` derives once (``prior_inv`` and ``rows_conj``), validating
nothing; the public functions validate their input and then run the same algebra.
"""

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .channel import ChannelStatistics, GridConfig
from .errors import BudgetError, DegenerateUpdateError, InvalidSpecError, NumericError


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
    scored here but on the channel statistics (``average_mse``).
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

    def mask(self) -> np.ndarray:
        c = np.zeros(self.grid.size)
        c[list(self.indices)] = 1.0
        return c

    def cells(self) -> list:
        """Pilot positions as (m, n) pairs."""
        return [self.grid.cell(k) for k in self.indices]


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

    ``converged``, ``iterations``, ``residual`` and ``evaluations`` record how
    a solver obtained the weights: whether it reached its tolerance, the
    gradient steps it took, its final projected-gradient residual norm (NaN
    when the weights were not solved for) and the objective evaluations it
    made.  The weights are a read-only copy of
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


def _prior_inverse(prior: np.ndarray) -> np.ndarray:
    """The complex ``diag(1/prior)`` every information matrix starts from."""
    return np.diag(1.0 / prior).astype(np.complex128)


def _pattern_information(prior_inv, rows, rows_conj, alpha: float, idx) -> np.ndarray:
    """``diag(1/prior) + alpha * U_S^H U_S`` for the rows ``idx``."""
    return prior_inv + (alpha * rows_conj[idx].T) @ rows[idx]


def _allocation_information(prior_inv, rows, rows_conj, alpha: float, w) -> np.ndarray:
    """``diag(1/prior) + alpha * rows^H diag(w) rows``."""
    return prior_inv + (alpha * (rows_conj.T * w)) @ rows


def _hermitian_inverse(A: np.ndarray) -> np.ndarray:
    """Hermitian ``A^{-1}`` of a positive definite ``A`` through its Cholesky
    factor; only the lower triangle of ``A`` is read."""
    factor, info = lapack.zpotrf(A, lower=True)
    if info == 0:
        inverse, info = lapack.zpotri(factor, lower=True, overwrite_c=True)
    if info != 0:
        raise NumericError(f"information matrix is not positive definite (LAPACK info {info})")
    # zpotri fills the lower triangle; zpotrf zeroed the upper one.
    mirrored = inverse + inverse.conj().T
    mirrored.flat[:: len(inverse) + 1] = inverse.diagonal()
    return mirrored


def pattern_inverse(problem: DesignProblem, idx: np.ndarray) -> np.ndarray:
    """Hermitian ``A^{-1}`` of the pattern with sorted ``np.intp`` indices
    ``idx``; the indices are not checked."""
    return _hermitian_inverse(
        _pattern_information(
            problem.prior_inv, problem.rows, problem.rows_conj, problem.pilot_snr, idx
        )
    )


def allocation_inverse(problem: DesignProblem, w: np.ndarray) -> np.ndarray:
    """Hermitian ``A^{-1}`` of the float weights ``w`` of length P; the
    weights are not checked."""
    return _hermitian_inverse(
        _allocation_information(
            problem.prior_inv, problem.rows, problem.rows_conj, problem.pilot_snr, w
        )
    )


def _information_matrix(grid: GridConfig, prior_inv, rows, rows_conj, alpha: float, pattern):
    """The information matrix of a pattern or allocation ``w`` on ``grid``,
    after checking that it fits the grid."""
    if isinstance(pattern, PilotPattern):
        if pattern.grid != grid:
            raise InvalidSpecError("pattern grid does not match the problem grid")
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
    )


def build_A(problem: DesignProblem, pattern) -> np.ndarray:
    """Hermitian information matrix
    ``A = diag(1/prior) + alpha * rows^H diag(w) rows`` on the design basis."""
    A = _problem_information(problem, pattern)
    return 0.5 * (A + A.conj().T)


def information_inverse(problem: DesignProblem, pattern) -> np.ndarray:
    """Hermitian ``A^{-1}`` on the design basis for a pattern or allocation."""
    return _hermitian_inverse(_problem_information(problem, pattern))


def objective_value(problem: DesignProblem, pattern) -> float:
    """The design objective ``trace(A^{-1})`` for a pattern or allocation."""
    return float(np.trace(information_inverse(problem, pattern)).real)


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
    U = stats.significant_eigvecs
    A = _information_matrix(
        stats.grid, _prior_inverse(stats.significant_eigvals), U, U.conj(), pilot_snr, pattern
    )
    return float(np.diagonal(_hermitian_inverse(A)).real.sum()) / stats.grid.size


def _row_norms(A_inv: np.ndarray, rows: np.ndarray):
    """``Z``, whose k-th row is ``z_k = A^{-1} u_k^H`` for row ``u_k`` of
    ``rows``, and the squared norms ``|z_k|^2``."""
    Z = (rows @ A_inv).conj()
    return Z, np.einsum("ij,ij->i", Z, Z.conj()).real


def _row_terms(A_inv: np.ndarray, rows: np.ndarray):
    """Sherman-Morrison terms of every row ``u_k`` of ``rows`` against ``A_inv``:
    ``_row_norms`` plus the quadratic forms ``u_k A^{-1} u_k^H``, returned as
    ``Z, quad, norm2``.
    """
    Z, norm2 = _row_norms(A_inv, rows)
    quad = np.einsum("ij,ij->i", rows, Z).real
    return Z, quad, norm2


def gains_for_candidates(A_inv: np.ndarray, rows: np.ndarray, alpha: float) -> np.ndarray:
    """Vectorized marginal gains for every row in ``rows`` against ``A_inv``."""
    _, quad, norm2 = _row_terms(A_inv, rows)
    return alpha * norm2 / (1.0 + alpha * quad)


def rank_one_update(problem: DesignProblem, A_inv: np.ndarray, j: int) -> np.ndarray:
    """Hermitian ``A^{-1}`` after adding row j to the pattern whose inverse is
    ``A_inv``, by Sherman-Morrison: ``A_inv - alpha z_j z_j^H / (1 + alpha q_j)``
    with ``z_j = A^{-1} u_j^H`` and ``q_j = u_j A^{-1} u_j^H``."""
    alpha = problem.pilot_snr
    Z, quad, _ = _row_terms(A_inv, problem.rows[j : j + 1])
    denom = 1.0 + alpha * quad[0]
    A_inv = A_inv - (alpha / denom) * np.outer(Z[0], Z[0].conj())
    # Symmetrize to suppress drift over long update chains.
    return 0.5 * (A_inv + A_inv.conj().T)


def removal_terms(problem: DesignProblem, quad: np.ndarray, selected) -> np.ndarray:
    """Removal coefficients ``t_i = alpha / (1 - alpha q_i)`` of the selected
    rows, from the quadratic forms ``quad`` of all P rows: removing row i adds
    ``t_i z_i z_i^H`` to ``A^{-1}``.

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

    With ``z_k = A^{-1} u_k^H``, removing i adds ``t_i z_i z_i^H`` to
    ``A^{-1}`` (``removal_terms``), which shifts each candidate's quadratic
    form by ``t_i |D_ij|^2`` and its squared norm by
    ``2 t_i Re(D_ij conj(E_ij)) + t_i^2 |D_ij|^2 n_i``, where
    ``D_ij = u_i A^{-1} u_j^H`` and ``E_ij = z_i^H z_j``.  Two matrix
    products thus give all K x (P - K) deltas (the Fedorov exchange screen),
    and the terms are then formed in place.
    """
    alpha = problem.pilot_snr
    Z, quad, norm2 = _row_terms(A_inv, problem.rows)
    t = removal_terms(problem, quad, selected)[:, None]
    # The rows of Z_S are z_i^H = u_i A^{-1}.
    Z_S, norm2_S = Z[selected].conj(), norm2[selected][:, None]
    D = Z_S @ problem.rows_conj[candidates].T
    E = Z_S @ Z[candidates].T
    # The terms in place, each in the operation order of its formula.
    E.imag *= -1.0
    E *= D
    norm2_after = E.real * (2.0 * t)
    norm2_after += norm2[candidates]
    D2 = D.real**2
    D2 += D.imag**2
    quad_after = t * D2
    quad_after += quad[candidates]
    D2 *= t**2
    D2 *= norm2_S
    norm2_after += D2
    quad_after *= alpha
    quad_after += 1.0
    norm2_after *= alpha
    norm2_after /= quad_after
    return np.subtract(t * norm2_S, norm2_after, out=norm2_after)


def gradient_from_inverse(problem: DesignProblem, A_inv: np.ndarray) -> np.ndarray:
    """Relaxed-objective gradient ``-alpha * u_i A^{-2} u_i^H`` per cell, from
    an ``A^{-1}`` already formed by ``information_inverse``."""
    _, norm2 = _row_norms(A_inv, problem.rows)
    return -problem.pilot_snr * norm2


def objective_gradient(problem: DesignProblem, allocation) -> np.ndarray:
    """Gradient of the relaxed objective: ``-alpha * u_i A^{-2} u_i^H`` per cell."""
    return gradient_from_inverse(problem, information_inverse(problem, allocation))
