"""Monte Carlo validation of the analytic estimation error.

Draws channel realizations from the channel statistics, forms received pilot
observations ``y_S = sigma_p * g_S + noise``, runs the LMMSE estimator and
compares the empirical MSE against the analytic ``trace(C_e)/(M*N)``.

One LMMSE algebra serves the estimator, the analytic value and the reported
MSE: the design problem moved to the significant eigenpairs
(``objective._scoring_problem``), at the simulated noise.  The channel is
``g = L z`` with ``L = U sqrt(lambda)`` on the r significant eigenpairs of
``C_g`` that ``channel.build_statistics`` holds (they miss the covariance
trace by a relative 1.6e-12 at 12x14 and 8.6e-13 at 48x28, spreading 5e-3)
and z r i.i.d. standard complex normals.  With U_S the pilot rows of U and
that problem's pilot SNR alpha (``objective.compute_alpha`` of the power
fraction and the simulated noise), the information matrix is
``A = diag(1/lambda) + alpha U_S^H U_S``; the pilot amplitude is
``sigma_p = sqrt(alpha * noise_var)``, the LMMSE estimate of the coordinates
``sqrt(lambda) z`` is ``(sigma_p / noise_var) A^{-1} U_S^H y_S``, its error
covariance is ``A^{-1}`` and the average MSE ``trace(A^{-1})/(M*N)``, which
is ``average_mse`` bit for bit when the noise is the problem's.  One r x r
Cholesky inverse (``objective._error_covariance``) gives both,
O(r^2 K + r^3).  No K x K pilot system is solved, and no error is formed as
the difference of two numbers of size M*N, which cancels at high SNR.

Each realization draws ``r + K`` complex normals: r for z (34 at 12x14, 82
at 48x28) and K for the noise on the pilot cells.  The LMMSE estimate
depends on the pilot observations only (data symbols are zero-mean and sit
on other cells), so no other cell's noise is drawn.  No eigendecomposition
runs here.

``run_simulation`` never forms a grid-sized array: the columns of L are
orthogonal, so the estimate and its error are computed exactly on z (see
``_latent_system``), O(r K) per realization.  ``sample_channels`` (the
dense ``z L^T``) and ``lmmse_weights`` (the P x K grid weights ``W = L Q``,
``g_hat = W y_S``) are the grid form the tests hold it to.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelStatistics, is_finite_number, is_integer
from .errors import InvalidSpecError
from .objective import (
    DesignProblem, PilotPattern, _error_covariance, _scoring_problem, hermitian_from_lower
)

# Realizations are simulated in fixed-size batches to bound memory; the batch
# size is an implementation constant so seeded runs stay bit-identical.
_BATCH = 4096


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run parameters: ``realizations`` is an integer >= 1,
    ``rng_seed`` a non-negative integer seed of ``np.random.default_rng`` and
    ``noise_var`` a finite positive noise variance."""

    realizations: int
    rng_seed: int
    noise_var: float

    def __post_init__(self):
        if not (is_integer(self.realizations) and self.realizations >= 1):
            raise InvalidSpecError(
                f"realizations must be an integer >= 1, got {self.realizations!r}"
            )
        if not (is_integer(self.rng_seed) and self.rng_seed >= 0):
            raise InvalidSpecError(
                f"rng_seed must be a non-negative integer, got {self.rng_seed!r}"
            )
        if not (is_finite_number(self.noise_var) and self.noise_var > 0):
            raise InvalidSpecError(f"noise_var must be finite and > 0, got {self.noise_var!r}")


@dataclass(frozen=True)
class SimResult:
    """Empirical vs analytic MSE of one simulation run."""

    empirical_mse: float
    analytic_mse: float
    standard_error: float


def sample_channels(stats: ChannelStatistics, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` correlated channel realizations, shape (count, M*N).

    Each realization is ``g = L z`` with ``L = U sqrt(lambda)`` on the r
    significant eigenpairs of the statistics and z r i.i.d. standard complex
    Gaussians, so the covariance is ``L L^H``: ``C_t (x) C_f`` less the
    eigenpairs ``build_statistics`` drops (a relative trace of 1.6e-12 at
    12x14 and 8.6e-13 at 48x28, spreading 5e-3).  One realization costs r
    complex normals (34 at 12x14 and 82 at 48x28) instead of ``M*N``.

    The generator's ``(count, r, 2)`` normal draw is read as complex z in
    place, as ``run_simulation`` reads it; the plain dense ``z L^T``,
    O(count P r), is the grid-form reference of the tests.
    """
    L = stats.significant_eigvecs * np.sqrt(stats.significant_eigvals)
    z = _complex_normals(rng, (count, L.shape[1]))
    z /= np.sqrt(2.0)
    return z @ L.T


def _complex_normals(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """``a + 1j*b`` from ``rng.standard_normal((*shape, 2))``, as a writable
    complex view of that draw: real parts ``[..., 0]``, imaginary ``[..., 1]``."""
    return rng.standard_normal((*shape, 2)).view(np.complex128)[..., 0]


def lmmse_weights(
    stats: ChannelStatistics,
    problem: DesignProblem,
    pattern: PilotPattern,
    noise_var: float,
) -> np.ndarray:
    """LMMSE combining matrix W (P x K): ``g_hat = W y_S``.

    The grid form of the latent estimator, ``W = L Q``, which is
    ``(sigma_p / noise_var) U A^{-1} U_S^H`` on the scoring problem of
    ``problem`` at noise variance ``noise_var``: one P x r by r x K product
    after the r x r system.  ``run_simulation`` does not use it; it is the
    grid-form reference for the latent estimate.
    """
    scoring = _scoring_problem(stats, problem, noise_var)
    Q = _latent_system(scoring, pattern)[1]
    return (scoring.rows * np.sqrt(scoring.prior)) @ Q


def analytic_mse(
    stats: ChannelStatistics,
    problem: DesignProblem,
    pattern: PilotPattern,
    noise_var: float,
) -> float:
    """Average MSE ``trace(A^{-1})/(M*N)`` of the LMMSE estimator of
    ``pattern`` under the pilot power of ``problem`` at noise variance
    ``noise_var``, from the same r x r inverse
    (``objective._error_covariance``) that ``run_simulation`` reads: at the
    problem's own noise, ``average_mse``.
    """
    return _error_covariance(_scoring_problem(stats, problem, noise_var), pattern)[1]


def _latent_system(
    problem: DesignProblem, pattern: PilotPattern
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The LMMSE estimator in the latent coordinates of ``sample_channels``,
    and its analytic MSE, on a problem of ``objective._scoring_problem``: at
    its pilot SNR ``alpha`` and noise variance, with pilot amplitude
    ``sigma_p = sqrt(alpha * noise_var)``.

    The channel is ``g = L z`` with ``L = U sqrt(lambda)`` (P x r) on the
    problem's rows and prior, the significant eigenpairs of the statistics.
    Returns the scaled pilot rows ``sigma_p B`` with ``B = L[S, :]``
    (K x r), the latent gain
    ``Q = (sigma_p / noise_var) Lambda^{-1/2} A^{-1} U_S^H`` (r x K), the
    variance of each float component of z (``d = lambda``, the squared
    column norms of L, each repeated for the real and the imaginary part) and
    ``trace(A^{-1}) / (M*N)``, with ``A^{-1}`` and the trace both from
    ``objective._error_covariance``, which checks the pattern's grid.

    Then ``y_S = sigma_p z B^T + noise`` and ``|g - g_hat|^2 = sum_j d_j
    |e_j|^2`` with ``e = z - Q y_S``, because the columns of L are
    orthogonal; the grid estimate is ``W y_S`` with ``W = L Q``.  Gathers K
    rows of the stored eigenvectors, O(r^2 K + r^3) in all; no
    eigendecomposition and no P x K matrix.
    """
    lower, analytic = _error_covariance(problem, pattern)
    noise_var = problem.noise_var
    sigma_p = float(np.sqrt(problem.pilot_snr * noise_var))
    root = np.sqrt(problem.prior)
    B = problem.rows.take(np.array(pattern.indices, dtype=np.intp), axis=0)
    Q = hermitian_from_lower(lower) @ B.conj().T
    Q /= root[:, None]
    Q *= sigma_p / noise_var
    B *= root
    B *= sigma_p
    return B, Q, np.repeat(problem.prior, 2), analytic


def _batch_errors(
    rng: np.random.Generator,
    count: int,
    B: np.ndarray,
    Q: np.ndarray,
    variances: np.ndarray,
    noise_scale: float,
) -> np.ndarray:
    """``|g - g_hat|^2`` of ``count`` realizations from the system of
    ``_latent_system``.  Draws what ``sample_channels`` draws, then the
    ``(count, K)`` pilot noise; O(count r K) multiply-adds."""
    z = _complex_normals(rng, (count, Q.shape[0]))
    z /= np.sqrt(2.0)
    y = _complex_normals(rng, (count, B.shape[0]))
    y *= noise_scale
    y += z @ B.T
    z -= y @ Q.T
    err = z.view(np.float64)
    err **= 2
    return err @ variances


def run_simulation(
    stats: ChannelStatistics,
    problem: DesignProblem,
    pattern: PilotPattern,
    cfg: SimConfig,
) -> SimResult:
    """Estimate the empirical MSE of the LMMSE estimator over seeded draws.

    The pilot power follows the problem's power fraction beta
    (``sigma_p^2 = beta*N/K``); the noise level comes from ``cfg``.  The
    estimator is built on ``problem`` moved to the significant eigenpairs at
    that noise (``objective._scoring_problem``), whose pilot SNR is the
    problem's ``pilot_snr`` when ``cfg`` has the problem's noise.  Returns
    the empirical average MSE, its standard error and the analytic value,
    ``average_mse`` at that pilot SNR, from the r x r inverse the estimator
    is built on.  The estimate and its error are computed on the latent
    channel draw (``_latent_system``), O(r K) per realization.
    """
    B, Q, variances, analytic = _latent_system(
        _scoring_problem(stats, problem, cfg.noise_var), pattern
    )
    noise_scale = np.sqrt(cfg.noise_var / 2.0)
    rng = np.random.default_rng(cfg.rng_seed)

    per_real = np.empty(cfg.realizations)
    done = 0
    while done < cfg.realizations:
        count = min(_BATCH, cfg.realizations - done)
        per_real[done : done + count] = _batch_errors(rng, count, B, Q, variances, noise_scale)
        done += count
    per_real /= stats.grid.size

    empirical = float(per_real.mean())
    se = float(per_real.std(ddof=1) / np.sqrt(cfg.realizations)) if cfg.realizations > 1 else 0.0
    return SimResult(empirical_mse=empirical, analytic_mse=analytic, standard_error=se)
