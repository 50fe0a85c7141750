"""A-optimal design objective for pilot selection.

Placing pilots with per-pilot SNR ``alpha`` on a set S updates the information
matrix ``A = diag(1/lambda) + alpha * sum_{i in S} u_i^H u_i`` where ``u_i`` is
the i-th row of the dominant eigenbasis.  The design objective is
``trace(A^{-1})``, the estimation MSE inside the retained subspace.  The
reported average MSE evaluates the same form on every significant eigenpair
of the channel covariance, which makes it the exact LMMSE error of the
pattern: cutting the basis also perturbs the pilot observations, so the
reduced-rank objective plus the discarded energy would not be.

The inverse ``A^{-1}`` is maintained explicitly (it is r x r with r << M*N) and
updated by the Sherman-Morrison formula, which makes add/remove/swap deltas
O(r^2) instead of a refactorization.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .channel import ChannelStatistics, GridConfig
from .errors import (
    BudgetError,
    CandidateError,
    DegenerateUpdateError,
    InvalidSpecError,
    NumericError,
)


def compute_alpha(beta: float, N: int, K: int, noise_var: float) -> float:
    """Pilot SNR ``alpha = beta * N / (K * noise_var)``.

    ``beta`` is the fraction of block power given to pilots, so the per-pilot
    symbol power is ``beta * N / K`` and alpha is that power over the noise.
    """
    if K < 1 or int(K) != K:
        raise BudgetError(f"pilot budget must be a positive integer, got {K}")
    if beta <= 0 or N < 1 or noise_var <= 0:
        raise InvalidSpecError("beta, N and noise_var must be positive")
    return beta * N / (K * noise_var)


def noise_var_from_snr_db(snr_db: float) -> float:
    """Noise variance for a given symbol SNR in dB, at unit symbol power."""
    return 10.0 ** (-snr_db / 10.0)


def _basis(grid: GridConfig, rows, prior) -> tuple[np.ndarray, np.ndarray]:
    """Validated (P, r) eigenvector rows and their r positive eigenvalues."""
    rows = np.asarray(rows, dtype=np.complex128)
    prior = np.asarray(prior, dtype=float)
    if rows.ndim != 2 or rows.shape[0] != grid.size:
        raise InvalidSpecError(f"rows must be (P, r) with P = {grid.size}, got {rows.shape}")
    if prior.shape != (rows.shape[1],):
        raise InvalidSpecError("prior length must match the subspace rank")
    if np.any(prior <= 0):
        raise InvalidSpecError("prior eigenvalues must be positive")
    return rows, prior


@dataclass(frozen=True)
class DesignProblem:
    """Immutable inputs of one pilot design instance.

    ``rows`` is the P x r matrix whose i-th row is the grid cell i restricted
    to the dominant channel subspace; ``prior`` holds the r dominant
    eigenvalues.  The optimizers read only these.  ``full_rows`` and
    ``full_prior`` hold every significant eigenpair (P x R and R, R >= r), on
    which ``average_mse`` is evaluated.  Without ``full_rows`` both default
    to ``rows`` and ``prior``: the design basis is then the whole model.
    """

    grid: GridConfig
    rows: np.ndarray
    prior: np.ndarray
    pilot_snr: float
    budget: int
    power_fraction: float
    noise_var: float
    full_rows: np.ndarray | None = None
    full_prior: np.ndarray | None = None

    def __post_init__(self):
        rows, prior = _basis(self.grid, self.rows, self.prior)
        if self.full_rows is None:
            full_rows, full_prior = rows, prior
        else:
            full_rows, full_prior = _basis(self.grid, self.full_rows, self.full_prior)
        if not 1 <= self.budget <= self.grid.size:
            raise BudgetError(f"budget {self.budget} outside [1, {self.grid.size}]")
        if self.power_fraction <= 0:
            raise InvalidSpecError("power_fraction must be positive")
        if self.power_fraction > 1 + 1e-12:
            warnings.warn(
                f"power_fraction {self.power_fraction:g} > 1: pilot power exceeds "
                "the block budget (happens when K > N with unit pilot power)",
                # 1 is here, 2 the generated __init__, 3 its caller.
                stacklevel=3,
            )
        expected = compute_alpha(self.power_fraction, self.grid.N, self.budget, self.noise_var)
        if abs(self.pilot_snr - expected) > 1e-9 * max(expected, 1.0):
            raise InvalidSpecError(
                f"pilot_snr {self.pilot_snr:g} inconsistent with "
                f"beta*N/(K*noise_var) = {expected:g}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "full_rows", full_rows)
        object.__setattr__(self, "full_prior", full_prior)

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
            pilot_snr=compute_alpha(self.power_fraction, self.grid.N, K, self.noise_var),
            budget=K,
            power_fraction=self.power_fraction,
            noise_var=self.noise_var,
            full_rows=self.full_rows,
            full_prior=self.full_prior,
        )


def make_design_problem(
    stats: ChannelStatistics,
    K: int,
    snr_db: float | None = None,
    noise_var: float | None = None,
    beta: float | None = None,
) -> DesignProblem:
    """Assemble a design problem from channel statistics.

    Exactly one of ``snr_db`` / ``noise_var`` must be given; SNR in dB is
    mapped to ``noise_var = 10^(-SNR/10)`` at unit symbol power.  ``beta``
    defaults to ``K/N`` so the per-pilot power is 1 (the block average).
    """
    if (snr_db is None) == (noise_var is None):
        raise InvalidSpecError("specify exactly one of snr_db or noise_var")
    if noise_var is None:
        noise_var = noise_var_from_snr_db(snr_db)
    if noise_var <= 0:
        raise InvalidSpecError("noise_var must be positive")
    if beta is None:
        beta = K / stats.grid.N
    return DesignProblem(
        grid=stats.grid,
        rows=stats.eigvecs,
        prior=stats.eigvals,
        pilot_snr=compute_alpha(beta, stats.grid.N, K, noise_var),
        budget=K,
        power_fraction=beta,
        noise_var=noise_var,
        full_rows=stats.full_eigvecs,
        full_prior=stats.full_eigvals,
    )


@dataclass(frozen=True)
class PilotPattern:
    """A binary pilot placement: K distinct flat indices on the grid."""

    indices: tuple
    grid: GridConfig

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(set(idx)) != len(idx):
            raise InvalidSpecError("pilot indices must be distinct")
        if idx and not all(0 <= i < self.grid.size for i in idx):
            raise InvalidSpecError("pilot index outside the grid")
        object.__setattr__(self, "indices", tuple(sorted(idx)))

    def __len__(self) -> int:
        return len(self.indices)

    def mask(self) -> np.ndarray:
        c = np.zeros(self.grid.size)
        c[list(self.indices)] = 1.0
        return c

    def cells(self) -> list:
        """Pilot positions as (m, n) pairs."""
        return [self.grid.cell(k) for k in self.indices]


@dataclass(frozen=True)
class FractionalAllocation:
    """Box-constrained pilot weights summing to the budget K.

    ``converged``, ``iterations`` and ``residual`` record how a solver
    obtained the weights: whether it reached its tolerance, the gradient
    steps it took and its final projected-gradient residual norm (NaN when
    the weights were not solved for).
    """

    weights: np.ndarray
    budget: int
    converged: bool = field(default=True, compare=False)
    iterations: int = field(default=0, compare=False)
    residual: float = field(default=float("nan"), compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < -1e-9) or np.any(w > 1 + 1e-9):
            raise InvalidSpecError("allocation weights must lie in [0, 1]")
        if abs(w.sum() - self.budget) > 1e-6:
            raise InvalidSpecError(
                f"allocation weights sum to {w.sum():.9f}, expected {self.budget}"
            )
        object.__setattr__(self, "weights", w)


def _weight_vector(problem: DesignProblem, pattern) -> np.ndarray:
    if isinstance(pattern, PilotPattern):
        if pattern.grid != problem.grid:
            raise InvalidSpecError("pattern grid does not match the problem grid")
        return pattern.mask()
    if isinstance(pattern, FractionalAllocation):
        w = pattern.weights
    else:
        w = np.asarray(pattern, dtype=float)
    if w.shape != (problem.grid.size,):
        raise InvalidSpecError(f"weights must have length {problem.grid.size}")
    return w


def build_A(problem: DesignProblem, pattern, full: bool = False) -> np.ndarray:
    """Information matrix ``A = diag(1/prior) + alpha * rows^H diag(w) rows``.

    ``full`` builds it on ``full_rows``/``full_prior`` instead of the design
    basis.
    """
    U, prior = (problem.full_rows, problem.full_prior) if full else (problem.rows, problem.prior)
    A = np.diag(1.0 / prior).astype(np.complex128)
    if isinstance(pattern, PilotPattern):
        if pattern.grid != problem.grid:
            raise InvalidSpecError("pattern grid does not match the problem grid")
        U_sel = U[list(pattern.indices)]
        A += problem.pilot_snr * U_sel.conj().T @ U_sel
    else:
        w = _weight_vector(problem, pattern)
        A += problem.pilot_snr * (U.conj().T * w) @ U
    return 0.5 * (A + A.conj().T)


def information_inverse(problem: DesignProblem, pattern) -> np.ndarray:
    """Hermitian ``A^{-1}`` on the design basis for a pattern or allocation."""
    A_inv = np.linalg.inv(build_A(problem, pattern))
    return 0.5 * (A_inv + A_inv.conj().T)


def objective_value(problem: DesignProblem, pattern) -> float:
    """The design objective ``trace(A^{-1})`` for a pattern or allocation."""
    return float(np.trace(information_inverse(problem, pattern)).real)


def average_mse(problem: DesignProblem, pattern) -> float:
    """Exact per-cell LMMSE error ``trace(C_e) / (M*N)`` of a pattern.

    Evaluates ``trace((diag(1/lambda) + alpha * U_S^H U_S)^{-1}) / (M*N)`` on
    the full significant spectrum at the problem's pilot SNR, so a lattice
    scored at a reduced budget K' needs the problem for K'.  The covariance
    energy below the eigenvalue floor is left out.  An allocation's weights
    are read as per-cell fractions of the pilot power.
    """
    # A is Hermitian positive definite; inverting through its Cholesky factor
    # takes half the time of a general inverse at the ranks of a sweep.
    factor, info = lapack.zpotrf(build_A(problem, pattern, full=True), lower=True)
    if info == 0:
        inverse, info = lapack.zpotri(factor, lower=True)
    if info != 0:
        raise NumericError(f"information matrix is not positive definite (LAPACK info {info})")
    return float(np.diagonal(inverse).real.sum()) / problem.grid.size


@dataclass
class ObjectiveState:
    """Mutable objective bookkeeping owned by a single optimizer run."""

    problem: DesignProblem
    A_inv: np.ndarray
    value: float
    selected: set

    @classmethod
    def empty(cls, problem: DesignProblem) -> "ObjectiveState":
        A_inv = np.diag(problem.prior).astype(np.complex128)
        return cls(problem, A_inv, float(problem.prior.sum()), set())

    @classmethod
    def from_pattern(cls, problem: DesignProblem, pattern: PilotPattern) -> "ObjectiveState":
        A_inv = information_inverse(problem, pattern)
        return cls(problem, A_inv, float(np.trace(A_inv).real), set(pattern.indices))

    def pattern(self) -> PilotPattern:
        return PilotPattern(tuple(sorted(self.selected)), self.problem.grid)


def _row_terms(A_inv: np.ndarray, rows: np.ndarray):
    """Sherman-Morrison terms of every row ``u_k`` of ``rows`` against ``A_inv``.

    Returns ``Z``, whose k-th row is ``z_k = A^{-1} u_k^H``, the quadratic
    forms ``u_k A^{-1} u_k^H`` and the squared norms ``|z_k|^2``.
    """
    Z = (rows @ A_inv).conj()
    quad = np.einsum("ij,ij->i", rows, Z).real
    norm2 = np.einsum("ij,ij->i", Z, Z.conj()).real
    return Z, quad, norm2


def _update_terms(state: ObjectiveState, j: int):
    """``_row_terms`` of index j in column form ``z = A^{-1} u_j^H``; the row
    form differs in the last bits, enough to flip exactly tied swaps."""
    w = state.problem.rows[j].conj()
    z = state.A_inv @ w
    quad = float(np.real(w.conj() @ z))
    return z, quad, float(np.real(np.vdot(z, z)))


def marginal_gain(state: ObjectiveState, j: int) -> float:
    """Objective decrease from adding candidate j:
    ``alpha * u_j A^{-2} u_j^H / (1 + alpha * u_j A^{-1} u_j^H)``."""
    if j in state.selected:
        raise CandidateError(f"index {j} is already selected")
    alpha = state.problem.pilot_snr
    _, quad, norm2 = _update_terms(state, j)
    return alpha * norm2 / (1.0 + alpha * quad)


def gains_for_candidates(A_inv: np.ndarray, rows: np.ndarray, alpha: float) -> np.ndarray:
    """Vectorized marginal gains for every row in ``rows`` against ``A_inv``."""
    _, quad, norm2 = _row_terms(A_inv, rows)
    return alpha * norm2 / (1.0 + alpha * quad)


def rank_one_update(state: ObjectiveState, j: int, sign: str) -> ObjectiveState:
    """Sherman-Morrison add ('add') or remove ('remove') of index j, in place."""
    alpha = state.problem.pilot_snr
    if sign == "add":
        if j in state.selected:
            raise CandidateError(f"cannot add {j}: already selected")
        z, quad, _ = _update_terms(state, j)
        denom = 1.0 + alpha * quad
        state.A_inv -= (alpha / denom) * np.outer(z, z.conj())
        # Symmetrize to suppress drift over long update chains.
        state.A_inv = 0.5 * (state.A_inv + state.A_inv.conj().T)
        state.selected.add(j)
    elif sign == "remove":
        if j not in state.selected:
            raise CandidateError(f"cannot remove {j}: not selected")
        _, state.A_inv = removal_terms(state, j)
        state.selected.discard(j)
    else:
        raise ValueError(f"sign must be 'add' or 'remove', got {sign!r}")
    state.value = float(np.trace(state.A_inv).real)
    return state


def removal_terms(state: ObjectiveState, i: int):
    """Objective increase and downdated inverse for removing selected index i."""
    alpha = state.problem.pilot_snr
    z, quad, norm2 = _update_terms(state, i)
    denom = 1.0 - alpha * quad
    if denom <= 1e-12:
        raise DegenerateUpdateError(f"removal of {i} hit denominator {denom:g}")
    increase = alpha * norm2 / denom
    A_inv_without = state.A_inv + (alpha / denom) * np.outer(z, z.conj())
    return increase, 0.5 * (A_inv_without + A_inv_without.conj().T)


def swap_delta(state: ObjectiveState, i: int, j: int) -> float:
    """Exact objective change of swapping selected i for unselected j.

    Negative means the swap improves.  Composed from two rank-one updates, no
    refactorization.
    """
    if i not in state.selected:
        raise CandidateError(f"swap source {i} is not selected")
    if j in state.selected:
        raise CandidateError(f"swap target {j} is already selected")
    problem = state.problem
    increase, A_inv_without = removal_terms(state, i)
    gain = gains_for_candidates(A_inv_without, problem.rows[j : j + 1], problem.pilot_snr)[0]
    return increase - float(gain)


def swap_deltas(state: ObjectiveState, selected, candidates) -> np.ndarray:
    """Objective change of every swap at once: entry (a, b) is
    ``swap_delta(state, selected[a], candidates[b])`` up to rounding.

    With ``z_k = A^{-1} u_k^H``, removing i adds ``t_i z_i z_i^H`` to
    ``A^{-1}`` (``t_i = alpha / (1 - alpha q_i)``), which shifts each
    candidate's quadratic form by ``t_i |D_ij|^2`` and its squared norm by
    ``2 t_i Re(D_ij conj(E_ij)) + t_i^2 |D_ij|^2 n_i``, where
    ``D_ij = u_i A^{-1} u_j^H`` and ``E_ij = z_i^H z_j``.  Two matrix
    products thus give all K x (P - K) deltas (the Fedorov exchange screen).
    """
    alpha = state.problem.pilot_snr
    U = state.problem.rows
    Z, quad, norm2 = _row_terms(state.A_inv, U)
    denom = 1.0 - alpha * quad[selected]
    if denom.min() <= 1e-12:
        a = int(np.argmin(denom))
        raise DegenerateUpdateError(
            f"removal of {selected[a]} hit denominator {denom[a]:g}"
        )
    t = (alpha / denom)[:, None]
    # The rows of Z_S are z_i^H = u_i A^{-1}.
    Z_S, norm2_S = Z[selected].conj(), norm2[selected][:, None]
    D = Z_S @ U[candidates].conj().T
    E = Z_S @ Z[candidates].T
    D2 = D.real**2 + D.imag**2
    quad_after = quad[candidates] + t * D2
    norm2_after = norm2[candidates] + 2.0 * t * (D * E.conj()).real + t**2 * D2 * norm2_S
    return t * norm2_S - alpha * norm2_after / (1.0 + alpha * quad_after)


def gradient_from_inverse(problem: DesignProblem, A_inv: np.ndarray) -> np.ndarray:
    """Relaxed-objective gradient ``-alpha * u_i A^{-2} u_i^H`` per cell, from
    an ``A^{-1}`` already formed by ``information_inverse``."""
    _, _, norm2 = _row_terms(A_inv, problem.rows)
    return -problem.pilot_snr * norm2


def objective_gradient(problem: DesignProblem, allocation) -> np.ndarray:
    """Gradient of the relaxed objective: ``-alpha * u_i A^{-2} u_i^H`` per cell."""
    return gradient_from_inverse(problem, information_inverse(problem, allocation))
