"""Monte Carlo validation of the analytic estimation error.

Draws channel realizations from the grid covariance, forms received pilot
observations ``y_S = sigma_p * g_S + noise``, runs the LMMSE estimator and
compares the empirical MSE against ``trace(C_e)/(M*N)`` from the closed-form
error covariance.

Each realization draws ``r_f*r_t + K`` complex normals: ``r_f*r_t`` latent
normals z for the channel ``g = (T (x) F) z``, with ``F`` and ``T`` the square
roots of ``C_f`` and ``C_t`` trimmed to the factor eigenvalues above
``EIGENVALUE_FLOOR`` of the largest (see ``sample_channels``; the trimmed
eigenvalues hold a relative 1.0e-13 of the covariance trace at 12x14 and
5.5e-13 at 48x28, spreading 5e-3), and ``K`` for the noise on the pilot
cells.  The LMMSE estimate depends on the pilot observations only (data
symbols are zero-mean and sit on other cells), so the estimator is evaluated
on the K x K pilot-restricted system and no other cell's noise is drawn.

The pilot system is built once per simulation from the Kronecker factors
``C_t`` and ``C_f``: ``C_SS`` and the Gram of the pilot columns are entrywise
products of factor blocks, and one K x K Cholesky inverse gives the analytic
MSE and the estimator gain, O(N^3 + M^3 + K^3) in all.

``run_simulation`` never forms a grid-sized array: the columns of
``T (x) F`` are orthogonal, so the estimate and its error are computed
exactly on the latent z (see ``_latent_system``), O(r_f r_t K) per
realization.  ``sample_channels`` and ``lmmse_weights`` (the P x K grid
weights ``W``, ``g_hat = W y_S``) are the dense reference the tests hold it
to.
"""

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .channel import EIGENVALUE_FLOOR, ChannelStatistics, _factor_eigh, covariance_columns
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


def _factor_root(matrix: np.ndarray, label: str) -> np.ndarray:
    """Square root ``V[:, keep] * sqrt(lam[keep])`` of a PSD correlation
    factor, trimmed to its rank: ``keep`` holds the eigenvalues above
    ``EIGENVALUE_FLOOR`` of the largest.  A factor that is not PSD raises
    ``NumericError`` from ``channel._factor_eigh``."""
    vals, vecs = _factor_eigh(matrix, label)
    keep = vals > EIGENVALUE_FLOOR * vals[-1]
    return vecs[:, keep] * np.sqrt(vals[keep])


def sample_channels(stats: ChannelStatistics, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` correlated channel realizations, shape (count, M*N).

    Each realization is ``vec(F Z T^T)`` with ``F`` (M x r_f) and ``T``
    (N x r_t) the rank-trimmed square roots of ``C_f`` and ``C_t`` and Z an
    r_f x r_t matrix of i.i.d. standard complex Gaussians, so the covariance
    is ``(T T^T) (x) (F F^H)``: ``C_t (x) C_f`` under the column-major
    vectorization, less the factor eigenvalues below ``EIGENVALUE_FLOOR`` of
    the largest (a relative trace of 1.0e-13 at 12x14 and 5.5e-13 at 48x28,
    spreading 5e-3).  One realization costs ``r_f*r_t`` complex normals
    (49 at 12x14 and 99 at 48x28, spreading 5e-3) instead of ``M*N``.

    The generator's ``(count, r_t, r_f, 2)`` normal draw is read as complex
    ``Z^T`` in place (a view, no copy) and scaled by ``1/sqrt(2)`` in place.
    ``T`` is real, so it is applied to the real view of Z in one batched real
    product; ``F`` then acts on the subcarrier axis in one complex product,
    whose ``(count, N, M)`` result is already symbol-major.  The colouring
    costs O(count*N*r_f*(r_t + M)) multiply-adds.
    """
    F = _factor_root(stats.freq_corr, "frequency")
    T = _factor_root(stats.time_corr, "time")
    Z = _complex_normals(rng, (count, T.shape[1], F.shape[1]))
    Z /= np.sqrt(2.0)
    # (count, N, r_f): T on the real and imaginary parts at once.
    TZ = (T @ Z.view(np.float64)).view(np.complex128)
    # Row c*N + n of the product is symbol n of draw c: k = n*M + m.
    return (TZ.reshape(-1, F.shape[1]) @ F.T).reshape(count, stats.grid.size)


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

    The channel is ``g = L z`` with ``L = T (x) F`` (P x r, ``r = r_t*r_f``)
    and z the latent draw flattened as ``a*r_f + b``.  Returns the scaled
    pilot rows ``sigma_p B`` with ``B = L[S, :]`` (K x r,
    ``B[k, a*r_f + b] = T[n_k, a] F[m_k, b]``), the latent gain
    ``Q = B^H gain`` (r x K) and the variance of each float component of z
    (``d = lam_t (x) lam_f``, the squared column norms of L, each repeated
    for the real and the imaginary part).

    Then ``y_S = sigma_p z B^T + noise`` and ``|g - g_hat|^2 = sum_j d_j
    |e_j|^2`` with ``e = z - Q y_S``, because the columns of L are
    orthogonal.  In exact arithmetic ``L Q y_S`` is the grid estimate
    ``W y_S`` projected onto the range of L, where the drawn channel lies,
    and the grid error exceeds this one only by the estimate's part along
    the trimmed eigenvectors, of second order.  In doubles Q is built on
    ``L L^H``, which misses ``C_g`` by 1.3e-13 (12x14) and 6.4e-13 (48x28)
    Frobenius-relative (spreading 5e-3, trimmed and rounded eigenpairs):
    against the grid form, the empirical MSE moves by about 2e-14 relative
    and a single realization by up to 1.7e-12.  Costs
    O(N^3 + M^3 + r K^2) and forms no P x K matrix.
    """
    F = _factor_root(stats.freq_corr, "frequency")
    T = _factor_root(stats.time_corr, "time")
    m, n = idx % stats.grid.M, idx // stats.grid.M
    # An explicit shape: reshape(-1) cannot size an empty pattern's rows.
    B = (T[n][:, :, None] * F[m][:, None, :]).reshape(idx.size, T.shape[1] * F.shape[1])
    Q = B.conj().T @ gain
    B *= sigma_p
    variances = np.kron(np.sum(T**2, axis=0), np.sum(np.abs(F) ** 2, axis=0))
    return B, Q, np.repeat(variances, 2)


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
    O(r_f r_t K) per realization.
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
