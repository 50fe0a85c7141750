"""Monte Carlo validation of the analytic estimation error.

Draws channel realizations from the grid covariance, forms received pilot
observations ``y_S = sigma_p * g_S + noise``, runs the LMMSE estimator and
compares the empirical MSE against ``trace(C_e)/(M*N)`` from the closed-form
error covariance.

The LMMSE estimate depends on the pilot observations only (data symbols are
zero-mean and sit on other cells), so the estimator is evaluated on the
K x K pilot-restricted system and data cells are not simulated.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelStatistics, covariance_columns
from .errors import InvalidSpecError, NumericError
from .objective import DesignProblem, PilotPattern

# Realizations are simulated in fixed-size batches to bound memory; the batch
# size is an implementation constant so seeded runs stay bit-identical.
_BATCH = 4096


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run parameters."""

    realizations: int
    rng_seed: int = 0
    noise_var: float = 0.1

    def __post_init__(self):
        if self.realizations < 1:
            raise InvalidSpecError("realizations must be >= 1")
        if self.noise_var <= 0:
            raise InvalidSpecError("noise_var must be > 0")


@dataclass(frozen=True)
class SimResult:
    """Empirical vs analytic MSE of one simulation run."""

    empirical_mse: float
    analytic_mse: float
    standard_error: float


def _factor_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Cholesky square root, falling back to an eigen square root when the
    factor is numerically singular."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(matrix)
        if vals[0] < -1e-10 * max(vals[-1], 1.0):
            raise NumericError(f"correlation factor is not PSD (min eig {vals[0]:g})")
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def sample_channels(stats: ChannelStatistics, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` correlated channel realizations, shape (count, M*N).

    Each realization is ``vec(L_f Z L_t^T)`` with Z i.i.d. standard complex
    Gaussian, so the covariance is ``C_t (x) C_f`` under the column-major
    vectorization.  The colouring is two batched matrix products, which cost
    O(count*M*N*(M+N)) multiply-adds.
    """
    M, N = stats.grid.M, stats.grid.N
    L_f = _factor_sqrt(stats.freq_corr)
    L_t = _factor_sqrt(stats.time_corr.astype(np.complex128))
    parts = rng.standard_normal((count, M, N, 2))
    Z = (parts[..., 0] + 1j * parts[..., 1]) / np.sqrt(2.0)
    del parts
    G = L_f @ Z @ L_t.T
    # Flatten (m, n) to k = n*M + m: symbol-major order.
    return G.transpose(0, 2, 1).reshape(count, M * N)


def lmmse_weights(
    stats: ChannelStatistics,
    pattern: PilotPattern,
    sigma_p: float,
    noise_var: float,
) -> np.ndarray:
    """LMMSE combining matrix W (P x K): ``g_hat = W y_S``.

    ``W = sigma_p C_g[:, S] (sigma_p^2 C_g[S, S] + noise I)^{-1}``.
    """
    idx = np.asarray(pattern.indices, dtype=int)
    if idx.size == 0:
        return np.zeros((stats.grid.size, 0), dtype=np.complex128)
    C_cols = covariance_columns(stats, idx)
    obs = (sigma_p * C_cols[idx, :]) * sigma_p + noise_var * np.eye(idx.size)
    return np.linalg.solve(obs.conj().T, (sigma_p * C_cols).conj().T).conj().T


def analytic_mse(
    stats: ChannelStatistics,
    pattern: PilotPattern,
    sigma_p: float,
    noise_var: float,
) -> float:
    """Average MSE ``trace(C_e)/(M*N)`` from the exact error covariance,
    evaluated on the pilot-restricted system without rank truncation."""
    P = stats.grid.size
    if len(pattern) == 0:
        return stats.total_power / P
    idx = np.asarray(pattern.indices, dtype=int)
    C_cols = covariance_columns(stats, idx)
    C_ss = C_cols[idx, :]
    obs = sigma_p**2 * C_ss + noise_var * np.eye(idx.size)
    gram = C_cols.conj().T @ C_cols
    reduction = sigma_p**2 * float(np.trace(np.linalg.solve(obs, gram)).real)
    return (stats.total_power - reduction) / P


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
    the same parameters.
    """
    P = stats.grid.size
    sigma_p = float(np.sqrt(problem.pilot_power))
    rng = np.random.default_rng(cfg.rng_seed)
    W = lmmse_weights(stats, pattern, sigma_p, cfg.noise_var)
    idx = list(pattern.indices)

    per_real = np.empty(cfg.realizations)
    done = 0
    while done < cfg.realizations:
        count = min(_BATCH, cfg.realizations - done)
        G = sample_channels(stats, count, rng)
        X = np.zeros((count, P), dtype=np.complex128)
        X[:, idx] = sigma_p
        parts = rng.standard_normal((count, P, 2))
        # Y = X * G + noise, formed in X's buffer to hold one block less.
        Y = X
        Y *= G
        Y += np.sqrt(cfg.noise_var / 2.0) * (parts[..., 0] + 1j * parts[..., 1])
        del parts
        G_hat = Y[:, idx] @ W.T
        err2 = np.abs(G - G_hat) ** 2
        per_real[done : done + count] = err2.mean(axis=1)
        done += count

    empirical = float(per_real.mean())
    se = float(per_real.std(ddof=1) / np.sqrt(cfg.realizations)) if cfg.realizations > 1 else 0.0
    return SimResult(
        empirical_mse=empirical,
        analytic_mse=analytic_mse(stats, pattern, sigma_p, cfg.noise_var),
        standard_error=se,
    )
