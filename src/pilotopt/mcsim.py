"""Monte Carlo validation of the analytic estimation error.

Draws channel realizations from the grid covariance, forms received pilot
observations ``y_S = sigma_p * g_S + noise``, runs the LMMSE estimator and
compares the empirical MSE against ``trace(C_e)/(M*N)`` from the closed-form
error covariance.

The channel model is the spectrum ``channel.build_statistics`` already
holds: ``g = L z`` with ``L = V sqrt(lambda)`` on the r significant
eigenpairs of ``C_g`` (the ones the reported average MSE is scored on; they
miss the covariance trace by a relative 1.6e-12 at 12x14 and 8.6e-13 at
48x28, spreading 5e-3) and z r i.i.d. standard complex normals.  Each
realization draws ``r + K`` complex normals: r for z (34 at 12x14, 82 at
48x28) and K for the noise on the pilot cells.  The LMMSE estimate depends
on the pilot observations only (data symbols are zero-mean and sit on other
cells), so the estimator is evaluated on the K x K pilot-restricted system
and no other cell's noise is drawn.  No eigendecomposition runs here.

The pilot system is built once per simulation from the Kronecker factors
``C_t`` and ``C_f``, exact and untrimmed: ``C_SS`` and the Gram of the pilot
columns are entrywise products of factor blocks, and one K x K Cholesky
inverse gives the analytic MSE and the estimator gain,
O(N^3 + M^3 + K^3) in all.

``run_simulation`` never forms a grid-sized array: the columns of L are
orthogonal, so the estimate and its error are computed exactly on z (see
``_latent_system``), O(r K) per realization.  ``sample_channels`` (the
dense ``z L^T``) and ``lmmse_weights`` (the P x K grid weights ``W``,
``g_hat = W y_S``) are the reference the tests hold it to.
"""

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .channel import ChannelStatistics, covariance_columns
from .errors import InvalidSpecError
from .objective import DesignProblem, PilotPattern, _hermitian_inverse

# Realizations are simulated in fixed-size batches to bound memory; the batch
# size is an implementation constant so seeded runs stay bit-identical.
_BATCH = 4096


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run parameters: ``realizations`` is an integer >= 1,
    ``rng_seed`` a non-negative integer seed of ``np.random.default_rng`` and
    ``noise_var`` a finite positive noise variance."""

    realizations: int
    rng_seed: int
    noise_var: float

    def __post_init__(self):
        if not (_is_integer(self.realizations) and self.realizations >= 1):
            raise InvalidSpecError(
                f"realizations must be an integer >= 1, got {self.realizations!r}"
            )
        if not (_is_integer(self.rng_seed) and self.rng_seed >= 0):
            raise InvalidSpecError(
                f"rng_seed must be a non-negative integer, got {self.rng_seed!r}"
            )
        noise_var = self.noise_var
        if not (
            isinstance(noise_var, Real)
            and not isinstance(noise_var, bool)
            and math.isfinite(noise_var)
            and noise_var > 0
        ):
            raise InvalidSpecError(f"noise_var must be finite and > 0, got {noise_var!r}")


@dataclass(frozen=True)
class SimResult:
    """Empirical vs analytic MSE of one simulation run."""

    empirical_mse: float
    analytic_mse: float
    standard_error: float


def sample_channels(stats: ChannelStatistics, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` correlated channel realizations, shape (count, M*N).

    Each realization is ``g = L z`` with ``L = V sqrt(lambda)`` on the r
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


def _pilot_indices(stats: ChannelStatistics, pattern: PilotPattern) -> np.ndarray:
    """The pattern's indices as a ``np.intp`` array, once it is checked to lie
    on the grid of ``stats``."""
    if pattern.grid != stats.grid:
        raise InvalidSpecError("pattern grid does not match the statistics grid")
    return np.array(pattern.indices, dtype=np.intp)


def _pilot_blocks(stats: ChannelStatistics, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``C_SS = C_g[S, S]`` and the Gram ``C_g[:, S]^H C_g[:, S]`` of the
    pilot indices ``idx``, from the Kronecker factors.

    With n and m the pilots' symbol and subcarrier indices,
    ``C_SS = C_t[n, n] * C_f[m, m]`` entrywise; since
    ``C_g^H C_g = C_t^H C_t (x) C_f^H C_f``, the Gram is
    ``(C_t^H C_t)[n, n] * (C_f^H C_f)[m, m]``.  Costs O(N^3 + M^3 + K^2);
    the P x K columns are never formed.
    """
    m, n = idx % stats.grid.M, idx // stats.grid.M
    mm, nn = np.ix_(m, m), np.ix_(n, n)
    C_t, C_f = stats.time_corr, stats.freq_corr
    C_ss = C_t[nn] * C_f[mm]
    gram = (C_t.conj().T @ C_t)[nn] * (C_f.conj().T @ C_f)[mm]
    return C_ss, gram


def _pilot_system(
    stats: ChannelStatistics, idx: np.ndarray, sigma_p: float, noise_var: float
) -> tuple[np.ndarray, float]:
    """The K x K pilot system of the pilot indices ``idx``: the gain
    ``sigma_p (sigma_p^2 C_SS + noise I)^{-1}`` and the average MSE.

    The LMMSE weights are ``W = C_g[:, S] @ gain`` and the error is
    ``(trace(C_g) - sigma_p trace(gain Gram)) / P``.  One K x K Cholesky
    inverse (``objective._hermitian_inverse``) on the factor-built blocks,
    O(N^3 + M^3 + K^3) in all; LAPACK rejects a 0 x 0 matrix, so an empty
    pattern gets its empty gain directly.
    """
    C_ss, gram = _pilot_blocks(stats, idx)
    if idx.size:
        obs = sigma_p**2 * C_ss + noise_var * np.eye(idx.size)
        gain = sigma_p * _hermitian_inverse(obs, "pilot observation covariance")
    else:
        gain = np.zeros((0, 0), dtype=np.complex128)
    # trace(gain @ gram) as an entrywise sum, O(K^2).
    reduction = sigma_p * float(np.sum(gain * gram.T).real)
    return gain, (stats.total_power - reduction) / stats.grid.size


def lmmse_weights(
    stats: ChannelStatistics,
    pattern: PilotPattern,
    sigma_p: float,
    noise_var: float,
) -> np.ndarray:
    """LMMSE combining matrix W (P x K): ``g_hat = W y_S``.

    ``W = sigma_p C_g[:, S] (sigma_p^2 C_g[S, S] + noise I)^{-1}``: the K x K
    pilot system costs O(N^3 + M^3 + K^3), then W is one P x K by K x K
    product, P*K^2 multiply-adds.  ``run_simulation`` does not use it; it is
    the grid-form reference for the latent estimate.
    """
    idx = _pilot_indices(stats, pattern)
    gain, _ = _pilot_system(stats, idx, sigma_p, noise_var)
    return covariance_columns(stats, idx) @ gain


def analytic_mse(
    stats: ChannelStatistics,
    pattern: PilotPattern,
    sigma_p: float,
    noise_var: float,
) -> float:
    """Average MSE ``trace(C_e)/(M*N)`` from the exact error covariance,
    evaluated on the pilot-restricted system without rank truncation.

    ``trace(C_e) = trace(C_g) - sigma_p^2 trace(obs^{-1} Gram)`` with
    ``obs = sigma_p^2 C_SS + noise I`` and the Gram ``C_g[:, S]^H C_g[:, S]``
    both built from the Kronecker factors: O(N^3 + M^3 + K^3), and the
    P x K columns are never formed.

    Accuracy: the subtraction takes a number of size P*MSE from two of size
    P, so digits cancel as the SNR grows, and above about 20 dB not all of
    the 12 digits the CLI prints are significant.  Against a 45-digit
    evaluation of the same formula on 12x14, spreading 5e-3, K = 17 (greedy
    pattern), the relative error is 5.5e-12 at 20 dB, 1.6e-8 at 40 dB and
    1.5e-3 at 80 dB.
    """
    idx = _pilot_indices(stats, pattern)
    return _pilot_system(stats, idx, sigma_p, noise_var)[1]


def _latent_system(
    stats: ChannelStatistics, idx: np.ndarray, gain: np.ndarray, sigma_p: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The LMMSE estimator in the latent coordinates of ``sample_channels``.

    The channel is ``g = L z`` with ``L = V sqrt(lambda)`` (P x r) on the
    significant eigenpairs of the statistics.  Returns the scaled pilot rows
    ``sigma_p B`` with ``B = L[S, :]`` (K x r), the latent gain
    ``Q = B^H gain`` (r x K) and the variance of each float component of z
    (``d = lambda``, the squared column norms of L, each repeated for the
    real and the imaginary part).

    Then ``y_S = sigma_p z B^T + noise`` and ``|g - g_hat|^2 = sum_j d_j
    |e_j|^2`` with ``e = z - Q y_S``, because the columns of L are
    orthogonal.  In exact arithmetic ``L Q y_S`` is the grid estimate
    ``W y_S`` projected onto the range of L, where the drawn channel lies,
    and the grid error exceeds this one only by the estimate's part along
    the dropped eigenvectors, of second order.  In doubles Q is built on
    ``L L^H``, which misses ``C_g`` by 1.2e-12 (12x14) and 8.4e-13 (48x28)
    Frobenius-relative (spreading 5e-3, dropped and rounded eigenpairs):
    against the grid form, over 30 seeds, the empirical MSE moves by up to
    8.9e-15 (12x14, K = 17 x 1000) and 7.0e-14 (48x28, K = 134 x 250)
    relative and a single realization by up to 9.6e-13 and 2.1e-12.
    Gathers K rows of the stored eigenvectors, O(r K^2) in all; no
    eigendecomposition and no P x K matrix.
    """
    B = stats.significant_eigvecs.take(idx, axis=0)
    B *= np.sqrt(stats.significant_eigvals)
    Q = B.conj().T @ gain
    B *= sigma_p
    return B, Q, np.repeat(stats.significant_eigvals, 2)


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

    The pilot amplitude follows the problem's power budget
    (``sigma_p^2 = beta*N/K``); the noise level comes from ``cfg``.  Returns
    the empirical average MSE, its standard error and the analytic value for
    the same parameters, both from one K x K pilot system.  The estimate and
    its error are computed on the latent channel draw (``_latent_system``),
    O(r K) per realization.
    """
    if problem.grid != stats.grid:
        raise InvalidSpecError("problem grid does not match the statistics grid")
    sigma_p = float(np.sqrt(problem.pilot_power))
    noise_scale = np.sqrt(cfg.noise_var / 2.0)
    rng = np.random.default_rng(cfg.rng_seed)
    idx = _pilot_indices(stats, pattern)
    gain, analytic = _pilot_system(stats, idx, sigma_p, cfg.noise_var)
    B, Q, variances = _latent_system(stats, idx, gain, sigma_p)

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
