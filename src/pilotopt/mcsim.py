"""Monte Carlo validation of the analytic estimation error.

Draws channel realizations from the grid covariance, synthesizes received
blocks under the pilot/data superposition model, runs the LMMSE estimator and
compares the empirical MSE against ``trace(C_e)/(M*N)`` from the closed-form
error covariance.

Because pilot and data cells are disjoint and data symbols are zero-mean, the
LMMSE estimate depends on the pilot observations only; the estimator is
therefore evaluated on the K x K pilot-restricted system.  A dense full-grid
reference implementation is kept for cross-checking.
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
    data_power: float = 0.0
    noise_var: float = 0.1
    include_data_interference: bool = False

    def __post_init__(self):
        if self.realizations < 1:
            raise InvalidSpecError("realizations must be >= 1")
        if self.data_power < 0 or self.noise_var <= 0:
            raise InvalidSpecError("data_power must be >= 0 and noise_var > 0")


@dataclass(frozen=True)
class SimResult:
    """Empirical vs analytic MSE of one simulation run."""

    empirical_mse: float
    analytic_mse: float
    per_cell_mse: np.ndarray
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


def sample_channel(stats: ChannelStatistics, rng: np.random.Generator) -> np.ndarray:
    """One channel realization g ~ CN(0, C_g), shape (M*N,)."""
    return sample_channels(stats, 1, rng)[0]


def synthesize_rx(
    g: np.ndarray,
    pattern: PilotPattern,
    sigma_p: float,
    data_power: float,
    noise_var: float,
    rng: np.random.Generator,
    pilot_symbols: np.ndarray | None = None,
) -> np.ndarray:
    """Received block ``y = diag(x) g + n`` for one channel realization.

    Pilot cells carry constant-modulus symbols of amplitude ``sigma_p``
    (unit phase unless ``pilot_symbols`` overrides); data cells carry i.i.d.
    complex Gaussian symbols of variance ``data_power``.
    """
    P = g.shape[-1]
    idx = list(pattern.indices)
    x = np.zeros(P, dtype=np.complex128)
    if pilot_symbols is None:
        x[idx] = sigma_p
    else:
        x[idx] = np.asarray(pilot_symbols, dtype=np.complex128)
    if data_power > 0:
        data_mask = np.ones(P, dtype=bool)
        data_mask[idx] = False
        n_data = int(data_mask.sum())
        parts = rng.standard_normal((n_data, 2))
        x[data_mask] = np.sqrt(data_power / 2.0) * (parts[:, 0] + 1j * parts[:, 1])
    noise = rng.standard_normal((P, 2))
    n = np.sqrt(noise_var / 2.0) * (noise[:, 0] + 1j * noise[:, 1])
    return x * g + n


def lmmse_weights(
    stats: ChannelStatistics,
    pattern: PilotPattern,
    sigma_p: float,
    noise_var: float,
    pilot_symbols: np.ndarray | None = None,
) -> np.ndarray:
    """LMMSE combining matrix W (P x K): ``g_hat = W y_S``.

    ``W = C_g[:, S] diag(x_S)^H (diag(x_S) C_g[S, S] diag(x_S)^H + noise I)^{-1}``.
    """
    idx = np.asarray(pattern.indices, dtype=int)
    if idx.size == 0:
        return np.zeros((stats.grid.size, 0), dtype=np.complex128)
    x_s = (
        np.full(idx.size, sigma_p, dtype=np.complex128)
        if pilot_symbols is None
        else np.asarray(pilot_symbols, dtype=np.complex128)
    )
    C_cols = covariance_columns(stats, idx)
    C_ss = C_cols[idx, :]
    obs = (x_s[:, None] * C_ss) * x_s.conj()[None, :] + noise_var * np.eye(idx.size)
    return np.linalg.solve(obs.conj().T, (C_cols * x_s.conj()[None, :]).conj().T).conj().T


def lmmse_estimate(
    y: np.ndarray,
    pattern: PilotPattern,
    stats: ChannelStatistics,
    sigma_p: float,
    data_power: float = 0.0,
    noise_var: float = 0.1,
    include_data_interference: bool = False,
    pilot_symbols: np.ndarray | None = None,
) -> np.ndarray:
    """LMMSE channel estimate from one received block.

    Data cells are uncorrelated with the channel (zero-mean symbols on
    disjoint cells), so the estimate uses the pilot observations only and the
    data-interference term of the observation covariance cancels identically;
    ``include_data_interference`` and ``data_power`` are accepted to mirror
    the full model.
    """
    del data_power, include_data_interference
    if len(pattern) == 0:
        return np.zeros(stats.grid.size, dtype=np.complex128)
    W = lmmse_weights(stats, pattern, sigma_p, noise_var, pilot_symbols)
    return W @ y[list(pattern.indices)]


def lmmse_estimate_full(
    y: np.ndarray,
    pattern: PilotPattern,
    stats: ChannelStatistics,
    sigma_p: float,
    data_power: float = 0.0,
    noise_var: float = 0.1,
    include_data_interference: bool = False,
    pilot_symbols: np.ndarray | None = None,
) -> np.ndarray:
    """Reference dense-grid LMMSE estimate; cross-check for the fast path."""
    from .channel import full_covariance

    P = stats.grid.size
    C_g = full_covariance(stats)
    x_p = np.zeros(P, dtype=np.complex128)
    idx = list(pattern.indices)
    x_p[idx] = sigma_p if pilot_symbols is None else np.asarray(pilot_symbols)
    B_p = np.diag(x_p)
    C_gy = C_g @ B_p.conj().T
    C_y = B_p @ C_g @ B_p.conj().T + noise_var * np.eye(P)
    if include_data_interference:
        c_d = np.ones(P)
        c_d[idx] = 0.0
        C_y += np.diag(data_power * c_d * np.diag(C_g).real)
    return C_gy @ np.linalg.solve(C_y, y)


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
    the empirical average MSE, its standard error, the per-cell MSE map and
    the analytic value for the same parameters.
    """
    M, N = stats.grid.M, stats.grid.N
    P = M * N
    sigma_p = float(np.sqrt(problem.pilot_power))
    rng = np.random.default_rng(cfg.rng_seed)
    W = lmmse_weights(stats, pattern, sigma_p, cfg.noise_var)
    idx = list(pattern.indices)

    sq_cell_sum = np.zeros(P)
    per_real = np.empty(cfg.realizations)
    done = 0
    while done < cfg.realizations:
        count = min(_BATCH, cfg.realizations - done)
        G = sample_channels(stats, count, rng)
        X = np.zeros((count, P), dtype=np.complex128)
        X[:, idx] = sigma_p
        if cfg.data_power > 0:
            data_mask = np.ones(P, dtype=bool)
            data_mask[idx] = False
            parts = rng.standard_normal((count, int(data_mask.sum()), 2))
            X[:, data_mask] = np.sqrt(cfg.data_power / 2.0) * (
                parts[..., 0] + 1j * parts[..., 1]
            )
        parts = rng.standard_normal((count, P, 2))
        # Y = X * G + noise, formed in X's buffer to hold one block less.
        Y = X
        Y *= G
        Y += np.sqrt(cfg.noise_var / 2.0) * (parts[..., 0] + 1j * parts[..., 1])
        del parts
        G_hat = Y[:, idx] @ W.T
        err2 = np.abs(G - G_hat) ** 2
        sq_cell_sum += err2.sum(axis=0)
        per_real[done : done + count] = err2.mean(axis=1)
        done += count

    empirical = float(per_real.mean())
    se = float(per_real.std(ddof=1) / np.sqrt(cfg.realizations)) if cfg.realizations > 1 else 0.0
    per_cell = (sq_cell_sum / cfg.realizations).reshape(N, M).T
    return SimResult(
        empirical_mse=empirical,
        analytic_mse=analytic_mse(stats, pattern, sigma_p, cfg.noise_var),
        per_cell_mse=per_cell,
        standard_error=se,
    )
