"""Monte Carlo validation of the analytic estimation error.

Draws channel realizations from the grid covariance, forms received pilot
observations ``y_S = sigma_p * g_S + noise``, runs the LMMSE estimator and
compares the empirical MSE against ``trace(C_e)/(M*N)`` from the closed-form
error covariance.

Each realization draws ``r_f*r_t + K`` complex normals: ``r_f*r_t`` for the
channel, coloured by the square roots of ``C_f`` and ``C_t`` trimmed to the
factor eigenvalues above ``EIGENVALUE_FLOOR`` of the largest (see
``sample_channels``; the trimmed eigenvalues hold a relative 1.0e-13 of the
covariance trace at 12x14 and 5.5e-13 at 48x28, spreading 5e-3), and ``K``
for the noise on the pilot cells.  The LMMSE estimate depends on the pilot
observations only (data symbols are zero-mean and sit on other cells), so
the estimator is evaluated on the K x K pilot-restricted system, the
received block is formed on the pilot cells only and no other cell's noise
is drawn.  The estimate and its error stay on the grid: ``g_hat = W y_S``
and ``|g - g_hat|^2`` over all P cells.

The pilot system is built once per simulation from the Kronecker factors
``C_t`` and ``C_f``: ``C_SS`` and the Gram of the pilot columns are entrywise
products of factor blocks, and one K x K inverse gives both the analytic MSE
and the weights, O(N^3 + M^3 + K^3) in all.  The weights are then one
P x K by K x K product, P*K^2 multiply-adds.
"""

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np
from scipy.linalg.blas import zgemm

from .channel import EIGENVALUE_FLOOR, ChannelStatistics, _factor_eigh, covariance_columns
from .errors import InvalidSpecError
from .objective import DesignProblem, PilotPattern

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
    ``(trace(C_g) - sigma_p trace(gain Gram)) / P``.  One K x K inverse on
    the factor-built blocks, O(N^3 + M^3 + K^3) in all.
    """
    C_ss, gram = _pilot_blocks(stats, idx)
    gain = sigma_p * np.linalg.inv(sigma_p**2 * C_ss + noise_var * np.eye(idx.size))
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
    product, P*K^2 multiply-adds.
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
    pattern), the relative error is 2.1e-11 at 20 dB, 3.9e-8 at 40 dB and
    1.5e-3 at 80 dB.
    """
    idx = _pilot_indices(stats, pattern)
    return _pilot_system(stats, idx, sigma_p, noise_var)[1]


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
    the same parameters, both from one K x K pilot system.
    """
    if problem.grid != stats.grid:
        raise InvalidSpecError("problem grid does not match the statistics grid")
    sigma_p = float(np.sqrt(problem.pilot_power))
    noise_scale = np.sqrt(cfg.noise_var / 2.0)
    rng = np.random.default_rng(cfg.rng_seed)
    idx = _pilot_indices(stats, pattern)
    gain, analytic = _pilot_system(stats, idx, sigma_p, cfg.noise_var)
    W = covariance_columns(stats, idx) @ gain

    per_real = np.empty(cfg.realizations)
    done = 0
    while done < cfg.realizations:
        count = min(_BATCH, cfg.realizations - done)
        G = sample_channels(stats, count, rng)
        noise = _complex_normals(rng, (count, idx.size))
        noise *= noise_scale
        y = G.take(idx, axis=1)
        y *= sigma_p
        y += noise
        # G - y W^T, into G's buffer: zgemm on the transposed (Fortran-order)
        # views computes G^T - W y^T in place.
        err = zgemm(-1.0, W.T, y.T, beta=1.0, c=G.T, trans_a=1, overwrite_c=1).T
        # |g - g_hat|^2 summed over the cells: the squares of the real view.
        err = err.view(np.float64)
        err **= 2
        np.sum(err, axis=1, out=per_real[done : done + count])
        done += count
    per_real /= stats.grid.size

    empirical = float(per_real.mean())
    se = float(per_real.std(ddof=1) / np.sqrt(cfg.realizations)) if cfg.realizations > 1 else 0.0
    return SimResult(empirical_mse=empirical, analytic_mse=analytic, standard_error=se)
