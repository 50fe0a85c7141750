"""A-optimal design objective for pilot selection.

Placing pilots with per-pilot SNR ``alpha`` on a set S updates the information
matrix ``A = diag(1/lambda) + alpha * sum_{i in S} u_i^H u_i`` where ``u_i`` is
the i-th row of a basis of the channel subspace.  A ``DesignProblem`` holds
one basis, and ``trace(A^{-1})`` on it is its objective.  The design problem's
basis is the dominant one, so its objective is the estimation MSE inside the
retained subspace.  The reported average MSE is the same problem moved to
every significant eigenpair of the channel covariance
(``_scoring_problem``), which makes it the exact LMMSE error of the pattern:
``average_mse`` reads ``_error_covariance`` of that problem, and so does the
Monte Carlo, which builds its estimator from the same inverse.  Cutting the
basis also perturbs the pilot observations, so the reduced-rank objective
plus the discarded energy would not be.

An optimizer's state is a sorted index array and its ``A^{-1}``, a plain
r x r array (r << M*N).  Greedy selection screens every row at once from the
row terms ``Y = U A^{-1}``, ``q`` and ``n`` of ``_row_terms`` and adds the
best row with ``add_row``: ``A^{-1}`` by the Sherman-Morrison update
``rank_one_update``, and the row terms carried in O(P r) and rebuilt from
``A^{-1}`` every r picks.  The swap pass computes a state's ``A^{-1}`` from
its pattern and screens every swap at once with ``swap_deltas``, whose
removal coefficients come from ``removal_terms``.  All of them read the terms
of ``_row_terms``, as does ``gains_for_candidates``, the gains of every row
against a given ``A^{-1}``.  No arithmetic path decides which of two exactly
tied choices wins: the optimizers take the lowest index within
``optimizers.TIE_BAND`` of the best.

Every ``A^{-1}`` formed, not updated, comes from one Cholesky kernel,
``_hermitian_inverse``: LAPACK ``zpotrf`` (scipy's compiled wrapper, which
``_load_flapack`` loads without the ``scipy.linalg`` package) factors the
lower triangle of ``A`` (which is therefore not symmetrized first), ``zpotri``
inverts the factor into the lower triangle, and that triangle is mirrored; an
``A`` that is not positive definite in floating point raises
``NumericError``.  A caller that reads only the trace sums the diagonal of
the unmirrored triangle (``_lower_inverse``), which gives the mirrored trace
bit for bit.  ``pattern_inverse`` and its trace-only form
``pattern_objective`` feed the kernel a sorted ``np.intp`` index array, and
``allocation_lower_inverse`` (the relaxation's, which mirrors only accepted
steps) a weight vector of length P, from the constants ``DesignProblem``
derives once (``prior_inv`` and ``rows_conj``), validating nothing.  The
public ``objective_value``, ``objective_gradient`` and ``average_mse`` check
that a pattern or allocation fits the grid (``_problem_information``) and
then run the same kernel.  ``_face_hessian`` gives the relaxed objective's
Hessian on a set of weights, for the relaxation's Newton steps.

The Doppler and delay correlations are Hermitian Toeplitz, so reflecting the
grid in m, in n or in both maps the basis rows to ``rows Q`` or
``conj(rows) Q`` with Q unitary and commuting with ``diag(prior)``, which
leaves every objective unchanged up to the index permutation.
``DesignProblem.reflections`` holds the reflections under which a problem is
verified to be so, for the swap pass to reuse the screen of a mirrored state.
"""

import importlib.machinery
import importlib.util
import math
import operator
import sys
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channel import ChannelStatistics, GridConfig
from .errors import BudgetError, DegenerateUpdateError, InvalidSpecError, NumericError


def _load_flapack():
    """scipy's compiled LAPACK wrappers, the extension module
    ``scipy.linalg._flapack``, loaded without running the ``scipy`` and
    ``scipy.linalg`` package imports.  Those load about 330 modules that
    pilotopt does not use.

    The module is registered in ``sys.modules`` under its own name, so a
    later ``import scipy.linalg`` in the process reuses it, and one already
    imported is returned as it is.  A missing extension raises
    ``ImportError`` naming the directory searched.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")  # locates, runs nothing
    if scipy_spec is None:
        raise ImportError("pilotopt needs scipy's LAPACK, but scipy is not installed")
    directory = Path(scipy_spec.submodule_search_locations[0]) / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / f"_flapack{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"no scipy LAPACK extension _flapack in {directory}")
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


_flapack = _load_flapack()

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


def pilot_power_fraction(beta: float | None, K: int, N: int) -> float:
    """The fraction of block power given to pilots: ``beta``, or by default
    ``K/N``, which gives each pilot unit power (the block average)."""
    return K / N if beta is None else beta


def noise_var_from_snr_db(snr_db: float) -> float:
    """Noise variance for a given symbol SNR in dB, at unit symbol power."""
    return 10.0 ** (-snr_db / 10.0)


@dataclass(frozen=True)
class DesignProblem:
    """Immutable inputs of one pilot design instance.

    The A-optimal sensor-selection problem and nothing more: ``rows`` is the
    P x r matrix whose i-th row is the grid cell i restricted to a channel
    subspace, stored C-contiguous, and ``prior`` holds the r eigenvalues of
    that subspace.  ``make_design_problem`` takes the dominant subspace, the
    design basis; ``_scoring_problem`` moves a problem to every significant
    eigenpair, where its objective is the reported average MSE.  Another
    basis or budget is ``dataclasses.replace`` of a problem.

    ``pilot_snr`` is not given but derived,
    ``alpha = beta*N/(K*noise_var)`` from the power fraction, ``grid.N``, the
    budget and the noise variance (``compute_alpha``, which also refuses a
    power fraction that is not positive and finite).  So are the read-only
    constants of the ``A^{-1}`` kernels: ``prior_inv``, the complex
    ``diag(1/prior)``, and ``rows_conj``, the conjugate of ``rows``.  The
    grid reflections the problem is invariant under, ``reflections``, are
    checked on first use, not here: most problems are never swapped.
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
        alpha = compute_alpha(self.power_fraction, self.grid.N, self.budget, self.noise_var)
        object.__setattr__(self, "pilot_snr", alpha)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "prior", prior)
        prior_inv, rows_conj = np.diag(1.0 / prior).astype(np.complex128), rows.conj()
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


def make_design_problem(
    stats: ChannelStatistics,
    K: int,
    snr_db: float,
    beta: float | None = None,
) -> DesignProblem:
    """Assemble a design problem on the design basis of channel statistics.

    SNR in dB is mapped to ``noise_var = 10^(-SNR/10)`` at unit symbol power.
    ``beta`` defaults to ``K/N`` (``pilot_power_fraction``).  A power
    fraction above 1, where pilot power exceeds the block budget, warns
    once, naming the caller; the problems replaced from this one do not.
    """
    problem = DesignProblem(
        grid=stats.grid,
        rows=stats.eigvecs,
        prior=stats.eigvals,
        budget=K,
        power_fraction=pilot_power_fraction(beta, K, stats.grid.N),
        noise_var=noise_var_from_snr_db(snr_db),
    )
    if problem.power_fraction > 1 + 1e-12:
        warnings.warn(
            f"power_fraction {problem.power_fraction:g} > 1: pilot power exceeds "
            "the block budget (happens when K > N with unit pilot power)",
            stacklevel=2,
        )
    return problem


def _scoring_problem(
    stats: ChannelStatistics, problem: DesignProblem, noise_var: float | None = None
) -> DesignProblem:
    """``problem`` on every significant eigenpair of ``stats``, at its own
    noise variance or at ``noise_var``: the problem whose ``trace(A^{-1})``
    is the exact LMMSE error of a pattern (``_error_covariance``).  Its pilot
    SNR, ``prior_inv`` and ``rows_conj`` are derived as for any problem.
    ``stats.significant_eigvecs`` is C-contiguous, so its rows are not
    copied."""
    if problem.grid != stats.grid:
        raise InvalidSpecError("problem grid does not match the statistics grid")
    return replace(
        problem,
        rows=stats.significant_eigvecs,
        prior=stats.significant_eigvals,
        noise_var=problem.noise_var if noise_var is None else noise_var,
    )


@dataclass(frozen=True)
class PilotPattern:
    """A binary pilot placement: K distinct flat indices on the grid."""

    indices: tuple
    grid: GridConfig

    def __post_init__(self):
        try:
            idx = sorted(map(operator.index, self.indices))
        except TypeError:
            raise InvalidSpecError("pilot indices must be integers") from None
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
    evaluations: int = 0
    face_steps: int = 0
    face_fallbacks: int = 0
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


def _pattern_information(problem: DesignProblem, idx) -> np.ndarray:
    """``diag(1/prior) + alpha * U_S^H U_S`` for the rows ``idx``."""
    alpha_rows = problem.pilot_snr * problem.rows_conj[idx].T
    return problem.prior_inv + alpha_rows @ problem.rows[idx]


def _allocation_information(problem: DesignProblem, w) -> np.ndarray:
    """``diag(1/prior) + alpha * rows^H diag(w) rows``."""
    alpha_rows = problem.pilot_snr * (problem.rows_conj.T * w)
    return problem.prior_inv + alpha_rows @ problem.rows


def _lower_inverse(A: np.ndarray) -> np.ndarray:
    """The lower triangle of ``A^{-1}`` for a positive definite ``A``, through
    its Cholesky factor, with zeros above the diagonal; only the lower
    triangle of ``A`` is read.  Its trace is that of ``A^{-1}``.  A failure
    raises ``NumericError``."""
    factor, info = _flapack.zpotrf(A, lower=True)
    if info == 0:
        inverse, info = _flapack.zpotri(factor, lower=True, overwrite_c=True)
    if info != 0:
        raise NumericError(f"information matrix is not positive definite (LAPACK info {info})")
    # zpotri fills the lower triangle; zpotrf zeroed the upper one.
    return inverse


def hermitian_from_lower(lower: np.ndarray) -> np.ndarray:
    """The Hermitian matrix with the lower triangle of ``lower``, a matrix
    whose entries above the diagonal are zero."""
    mirrored = lower + lower.conj().T
    mirrored.flat[:: len(lower) + 1] = lower.diagonal()
    return mirrored


def _hermitian_inverse(A: np.ndarray) -> np.ndarray:
    """Hermitian ``A^{-1}`` of a positive definite ``A``: ``_lower_inverse``
    mirrored."""
    return hermitian_from_lower(_lower_inverse(A))


def pattern_inverse(problem: DesignProblem, idx: np.ndarray) -> np.ndarray:
    """Hermitian ``A^{-1}`` of the pattern with sorted ``np.intp`` indices
    ``idx``; the indices are not checked."""
    return _hermitian_inverse(_pattern_information(problem, idx))


def pattern_objective(problem: DesignProblem, idx: np.ndarray) -> float:
    """``trace(A^{-1})`` of the pattern with sorted ``np.intp`` indices
    ``idx``, the trace of ``pattern_inverse`` without mirroring it; the
    indices are not checked."""
    return float(np.trace(_lower_inverse(_pattern_information(problem, idx))).real)


def allocation_lower_inverse(problem: DesignProblem, w: np.ndarray) -> np.ndarray:
    """The lower triangle of ``A^{-1}`` (``_lower_inverse``) of the float
    weights ``w`` of length P; the weights are not checked."""
    return _lower_inverse(_allocation_information(problem, w))


def _problem_information(problem: DesignProblem, pattern) -> np.ndarray:
    """The information matrix of a pattern or allocation ``w`` on the
    constants of ``problem``, after checking that it fits the problem's
    grid."""
    if isinstance(pattern, PilotPattern):
        if pattern.grid != problem.grid:
            raise InvalidSpecError("pattern grid does not match the problem grid")
        return _pattern_information(problem, np.array(pattern.indices, dtype=np.intp))
    w = pattern.weights if isinstance(pattern, FractionalAllocation) else pattern
    w = np.asarray(w, dtype=float)
    if w.shape != (problem.grid.size,):
        raise InvalidSpecError(f"weights must have length {problem.grid.size}")
    return _allocation_information(problem, w)


def objective_value(problem: DesignProblem, pattern) -> float:
    """The design objective ``trace(A^{-1})`` for a pattern or allocation."""
    return float(np.trace(_lower_inverse(_problem_information(problem, pattern))).real)


def average_mse(stats: ChannelStatistics, problem: DesignProblem, pattern) -> float:
    """Exact per-cell LMMSE error ``trace(C_e) / (M*N)`` of a pattern.

    Evaluates ``trace((diag(1/lambda) + alpha * U_S^H U_S)^{-1}) / (M*N)`` on
    every significant eigenpair of ``stats`` (``_scoring_problem``) at the
    pilot SNR ``alpha`` of ``problem``, whose budget is the one the pattern
    uses: a lattice scored at a reduced budget K' is scored on the problem
    for K'.  The covariance energy below the eigenvalue floor is left out.
    An allocation's weights are read as per-cell fractions of the pilot
    power.

    Accuracy: the inversion is exact to rounding, but the basis carries the
    rounding of the double-precision eigenpairs and drops the pairs below the
    floor, so above about 20 dB not all of the 12 digits the CLI prints are
    significant.  Against a 45-digit evaluation of the pilot-restricted
    LMMSE error on 12x14, spreading 5e-3, K = 14 (greedy pattern), the
    relative error is 5.8e-10 at 20 dB, 1.9e-8 at 40 dB and 1.1e-6 at 100 dB.
    """
    return _error_covariance(_scoring_problem(stats, problem), pattern)[1]


def _error_covariance(problem: DesignProblem, pattern) -> tuple[np.ndarray, float]:
    """The lower triangle (``_lower_inverse``) of ``A^{-1}`` of a pattern or
    allocation on ``problem``, and ``trace(A^{-1}) / (M*N)``.  On a problem of
    ``_scoring_problem`` these are the LMMSE error covariance of the
    channel's coordinates and the average MSE that ``average_mse`` reports;
    the Monte Carlo builds its estimator from the same triangle."""
    lower = _lower_inverse(_problem_information(problem, pattern))
    return lower, float(np.diagonal(lower).real.sum()) / problem.grid.size


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


def _gains(quad: np.ndarray, norm2: np.ndarray, alpha: float) -> np.ndarray:
    """Marginal gains ``alpha n_k / (1 + alpha q_k)`` from the row terms."""
    return alpha * norm2 / (1.0 + alpha * quad)


def gains_for_candidates(A_inv: np.ndarray, rows: np.ndarray, alpha: float) -> np.ndarray:
    """Vectorized marginal gains for every row in ``rows`` against ``A_inv``."""
    _, quad, norm2 = _row_terms(A_inv, rows)
    return _gains(quad, norm2, alpha)


def rank_one_update(problem: DesignProblem, A_inv: np.ndarray, j: int) -> np.ndarray:
    """Hermitian ``A^{-1}`` after adding row j to the pattern whose inverse is
    ``A_inv``, by Sherman-Morrison: ``A_inv - alpha y_j^H y_j / (1 + alpha q_j)``
    with ``y_j = u_j A^{-1}`` and ``q_j = u_j A^{-1} u_j^H``."""
    alpha = problem.pilot_snr
    row = problem.rows[j : j + 1]
    # The operands and einsum of ``_row_terms``, without the squared norm.
    Y = row @ A_inv
    quad = np.einsum("ij,ij->i", row, Y.conj()).real
    denom = 1.0 + alpha * quad[0]
    A_inv = A_inv - (alpha / denom) * np.outer(Y[0].conj(), Y[0])
    # Symmetrize to suppress drift over long update chains.
    return 0.5 * (A_inv + A_inv.conj().T)


def add_row(
    problem: DesignProblem, A_inv: np.ndarray, Y: np.ndarray, quad: np.ndarray, j: int, size: int
):
    """Greedy's step: ``(A_inv, Y, quad, norm2)`` after adding row j as the
    ``size``-th row of the pattern whose inverse is ``A_inv`` and whose row
    terms of ``_row_terms`` are ``Y`` and ``quad``.

    ``A^{-1}`` is updated by ``rank_one_update``.  When ``size`` is a
    multiple of the rank r, the row terms are rebuilt from it by
    ``_row_terms`` (P r^2 products); otherwise they are carried in P r: with
    ``c = alpha / (1 + alpha q_j)`` and ``d = U y_j^H``, ``Y -= c d y_j`` and
    ``quad -= c |d|^2``, which overwrites ``Y`` and ``quad``, and ``norm2``
    is read from ``Y``.  So a carried chain is at most r - 1 updates long.
    """
    A_inv = rank_one_update(problem, A_inv, j)
    if size % problem.rank == 0:
        return (A_inv, *_row_terms(A_inv, problem.rows))
    alpha = problem.pilot_snr
    y = Y[j].copy()
    c = alpha / (1.0 + alpha * float(quad[j]))
    d = problem.rows @ y.conj()
    # The outer product as a matrix product, which numpy forms faster than
    # np.outer for complex operands.
    Y -= d[:, None] @ (c * y)[None, :]
    quad -= c * np.abs(d) ** 2
    Y_flat = Y.view(np.float64)
    return A_inv, Y, quad, np.einsum("ij,ij->i", Y_flat, Y_flat)


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
