"""Second-order statistics of a doubly dispersive WSSUS channel on a finite
time-frequency grid.

The channel is separable: the grid covariance factors as a Kronecker product
``C_g = C_t (x) C_f`` of a symbol-axis correlation ``C_t`` and a subcarrier-axis
correlation ``C_f``, both Toeplitz with unit diagonal.  Eigendecomposing the
two small factors gives the eigenpairs of the full ``MN x MN`` covariance at
``O(M^3 + N^3)`` cost.  Every significant pair is stored once.  The reported
average MSE of a pattern is scored on all of them, which makes it the exact
LMMSE error; their dominant prefix is the reduced-rank basis of the design
problem.
"""

import numbers
import warnings
from dataclasses import dataclass
from enum import Enum
from math import inf, isfinite, sqrt

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import j0

from .errors import InvalidSpecError, NumericError

# Eigenpairs of C_g below this fraction of the largest eigenvalue are dropped;
# the rest are the one spectral model of the channel: the reported MSE, the
# design basis and the Monte Carlo draw all read them.  At spreading 5e-3 the
# dropped pairs hold a relative 1.6e-12 of the trace at 12x14 (34 of 168
# kept) and 8.6e-13 at 48x28 (82 of 1344 kept).
EIGENVALUE_FLOOR = 1e-12


def is_finite_number(value) -> bool:
    """True for a real number that is not a boolean and is finite as a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


class DelayProfile(str, Enum):
    UNIFORM = "uniform"
    TRUNCATED_EXPONENTIAL = "truncated_exponential"


class DopplerSpectrum(str, Enum):
    UNIFORM = "uniform"
    JAKES = "jakes"


@dataclass(frozen=True)
class GridConfig:
    """An M-subcarrier by N-symbol time-frequency grid.

    Cells are vectorized column-major by symbol: cell ``(m, n)`` (0-based)
    maps to flat index ``k = n*M + m``.
    """

    M: int
    N: int

    def __post_init__(self):
        if int(self.M) != self.M or int(self.N) != self.N:
            raise InvalidSpecError("grid dimensions must be integers")
        if self.M < 1 or self.N < 1:
            raise InvalidSpecError(f"grid dimensions must be >= 1, got {self.M}x{self.N}")
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "N", int(self.N))

    @property
    def size(self) -> int:
        return self.M * self.N

    def cell(self, k: int) -> tuple[int, int]:
        if not (0 <= k < self.size):
            raise InvalidSpecError(f"flat index {k} outside grid of size {self.size}")
        return k % self.M, k // self.M


@dataclass(frozen=True)
class ScatteringSpec:
    """Parametric scattering function of an underspread WSSUS channel.

    ``spreading_factor`` is the delay-Doppler area ``tau_D * nu_D``.  The
    normalized spreads ``d_f = F*tau_D`` and ``d_t = T*nu_D`` satisfy
    ``d_f * d_t = time_bandwidth * spreading_factor``; by default the product
    is split symmetrically.  The delay profile is either uniform on the
    symmetric support or a truncated exponential on ``[0, tau_D]`` with RMS
    delay ``rms_fraction * tau_D``; the Doppler spectrum is uniform or Jakes.
    """

    spreading_factor: float
    delay_profile: DelayProfile = DelayProfile.TRUNCATED_EXPONENTIAL
    doppler_spectrum: DopplerSpectrum = DopplerSpectrum.JAKES
    rms_fraction: float = 0.25
    rank_energy_threshold: float = 0.9999
    time_bandwidth: float = 1.0
    normalized_delay_spread: float | None = None
    normalized_doppler_spread: float | None = None

    def __post_init__(self):
        required = ("spreading_factor", "rms_fraction", "rank_energy_threshold", "time_bandwidth")
        optional = ("normalized_delay_spread", "normalized_doppler_spread")
        for name in required + optional:
            value = getattr(self, name)
            if not (is_finite_number(value) or (value is None and name in optional)):
                raise InvalidSpecError(f"{name} must be a finite number, got {value!r}")
        if self.spreading_factor <= 0:
            raise InvalidSpecError("spreading_factor must be positive")
        if self.time_bandwidth <= 0:
            raise InvalidSpecError("time_bandwidth must be positive")
        if self.rms_fraction <= 0:
            raise InvalidSpecError("rms_fraction must be positive")
        if not 0 < self.rank_energy_threshold <= 1:
            raise InvalidSpecError("rank_energy_threshold must be in (0, 1]")

        product = float(self.time_bandwidth) * float(self.spreading_factor)
        d_f, d_t = (
            None if d is None else float(d)
            for d in (self.normalized_delay_spread, self.normalized_doppler_spread)
        )
        if (d_f is not None and d_f <= 0) or (d_t is not None and d_t <= 0):
            raise InvalidSpecError("normalized spreads must be positive")
        if d_f is None and d_t is None:
            d_f = d_t = sqrt(product)
        elif d_f is None:
            d_f = product / d_t
        elif d_t is None:
            d_t = product / d_f
        elif abs(d_f * d_t - product) > 1e-9 * max(product, 1.0):
            raise InvalidSpecError(
                f"d_f*d_t = {d_f * d_t:g} inconsistent with "
                f"time_bandwidth*spreading_factor = {product:g}"
            )
        if not (0 < d_f < inf and 0 < d_t < inf):
            raise InvalidSpecError("normalized spreads must be positive and finite")
        object.__setattr__(self, "normalized_delay_spread", d_f)
        object.__setattr__(self, "normalized_doppler_spread", d_t)
        object.__setattr__(self, "delay_profile", DelayProfile(self.delay_profile))
        object.__setattr__(self, "doppler_spectrum", DopplerSpectrum(self.doppler_spectrum))

        if self.spreading_factor >= 0.1:
            warnings.warn(
                f"spreading factor {self.spreading_factor:g} >= 0.1 violates the "
                "underspread assumption; results may be meaningless",
                # 1 is here, 2 the generated __init__, 3 its caller.
                stacklevel=3,
            )


def delay_correlation(spec: ScatteringSpec, delta_m) -> np.ndarray:
    """Correlation across subcarriers at lag ``delta_m``.

    Fourier transform of the normalized delay profile:
    ``r_f(dm) = integral p_tau(tau) * exp(-j*2*pi*dm*F*tau) dtau``.

    Uniform profile on the symmetric support gives ``sinc(dm * d_f)``.  The
    truncated exponential on ``[0, tau_D]`` with rate ``1/(rho*tau_D)`` has the
    closed form ``(1 - exp(-(1/rho + j*2*pi*dm*d_f))) / (1/rho + j*2*pi*dm*d_f)``
    divided by the profile mass ``rho * (1 - exp(-1/rho))``.
    """
    dm = np.asarray(delta_m, dtype=float)
    d_f = spec.normalized_delay_spread
    if spec.delay_profile is DelayProfile.UNIFORM:
        out = np.sinc(dm * d_f).astype(np.complex128)
    else:
        rho = spec.rms_fraction
        denom_rate = 1.0 / rho + 2j * np.pi * dm * d_f
        numer = (1.0 - np.exp(-denom_rate)) / denom_rate
        mass = rho * (1.0 - np.exp(-1.0 / rho))
        out = numer / mass
    out = np.where(dm == 0, 1.0 + 0.0j, out)
    return out


def doppler_correlation(spec: ScatteringSpec, delta_n) -> np.ndarray:
    """Correlation across OFDM symbols at lag ``delta_n``.

    ``r_t(dn) = integral p_nu(nu) * exp(+j*2*pi*dn*T*nu) dnu`` over the
    symmetric Doppler support.  Uniform spectrum gives ``sinc(dn * d_t)``;
    the Jakes spectrum gives ``J0(pi * d_t * dn)``.  Both are real and even.
    """
    dn = np.asarray(delta_n, dtype=float)
    d_t = spec.normalized_doppler_spread
    if spec.doppler_spectrum is DopplerSpectrum.UNIFORM:
        out = np.sinc(dn * d_t)
    else:
        out = j0(np.pi * d_t * dn)
    out = np.where(dn == 0, 1.0, out)
    return np.asarray(out, dtype=float)


def build_freq_correlation(spec: ScatteringSpec, M: int) -> np.ndarray:
    """Hermitian Toeplitz subcarrier correlation matrix ``C_f`` (M x M)."""
    if M < 1 or int(M) != M:
        raise InvalidSpecError(f"M must be a positive integer, got {M}")
    first_col = delay_correlation(spec, np.arange(M))
    return toeplitz(first_col, first_col.conj())


def build_time_correlation(spec: ScatteringSpec, N: int) -> np.ndarray:
    """Symmetric Toeplitz symbol correlation matrix ``C_t`` (N x N), real."""
    if N < 1 or int(N) != N:
        raise InvalidSpecError(f"N must be a positive integer, got {N}")
    first_col = doppler_correlation(spec, np.arange(N))
    return toeplitz(first_col)


@dataclass(frozen=True)
class ChannelStatistics:
    """Kronecker factors and eigenpairs of the grid covariance.

    ``significant_eigvals`` are the eigenvalues of ``C_g = C_t (x) C_f`` above
    ``EIGENVALUE_FLOOR`` of the largest, in descending order, and the columns
    of ``significant_eigvecs`` the matching orthonormal eigenvectors.  The
    reported average MSE is evaluated on all of them, so it is the exact
    LMMSE error of the pattern, and the Monte Carlo draws the channel on
    them.  Their leading ``effective_rank`` pairs, cut by the energy
    threshold, are ``eigvals``/``eigvecs``: the reduced-rank basis that the
    design objective and the optimizers see.  The factor and eigenpair
    arrays are read-only, since these readers share them.
    """

    grid: GridConfig
    freq_corr: np.ndarray
    time_corr: np.ndarray
    significant_eigvals: np.ndarray
    significant_eigvecs: np.ndarray
    effective_rank: int

    @property
    def eigvals(self) -> np.ndarray:
        """The ``r`` eigenvalues of the reduced-rank design basis."""
        return self.significant_eigvals[: self.effective_rank]

    @property
    def eigvecs(self) -> np.ndarray:
        """The ``r`` eigenvectors of the design basis, as columns (a view)."""
        return self.significant_eigvecs[:, : self.effective_rank]

    @property
    def total_power(self) -> float:
        """``trace(C_g) = trace(C_t) * trace(C_f) = M*N``."""
        return _trace_product(self.freq_corr, self.time_corr)


def _trace_product(C_f: np.ndarray, C_t: np.ndarray) -> float:
    return float(np.trace(C_f).real * np.trace(C_t).real)


def _factor_eigh(matrix: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        vals, vecs = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition of {label} correlation failed: {exc}") from exc
    # Correlation matrices are PSD; clip the tolerated numerical negativity.
    floor = -1e-10 * vals[-1]
    if vals[0] < floor:
        raise NumericError(
            f"{label} correlation has eigenvalue {vals[0]:g} below the PSD tolerance"
        )
    return np.clip(vals, 0.0, None), vecs


def build_statistics(grid: GridConfig, spec: ScatteringSpec) -> ChannelStatistics:
    """Build factor correlations and the eigenbases of ``C_g``.

    The eigenvalues of ``C_t (x) C_f`` are all products of factor eigenvalues
    and the eigenvectors are Kronecker products of factor eigenvectors.
    Eigenvalues below ``EIGENVALUE_FLOOR`` of the largest are always
    dropped; the rest form the significant spectrum.  Its leading ``r``
    pairs, for the smallest ``r`` whose retained energy reaches the requested
    threshold, form the reduced-rank design basis.
    """
    C_f = build_freq_correlation(spec, grid.M)
    C_t = build_time_correlation(spec, grid.N)
    f_vals, f_vecs = _factor_eigh(C_f, "frequency")
    t_vals, t_vecs = _factor_eigh(C_t, "time")

    products = np.outer(t_vals, f_vals).ravel()  # index a*M + b -> t[a]*f[b]
    order = np.argsort(-products, kind="stable")
    sorted_vals = products[order]

    total = _trace_product(C_f, C_t)
    cumulative = np.cumsum(sorted_vals)
    # The float cumsum can land a hair under the analytic trace at eta = 1.
    target = min(spec.rank_energy_threshold * total, float(cumulative[-1]))
    rank = int(np.searchsorted(cumulative, target) + 1)
    rank = min(rank, len(sorted_vals))
    significant = int(np.sum(sorted_vals >= EIGENVALUE_FLOOR * sorted_vals[0]))
    rank = max(1, min(rank, significant))

    a, b = np.divmod(order[:significant], grid.M)
    # Column c is kron(t_vecs[:, a[c]], f_vecs[:, b[c]]), cell n*M + m.
    eigvecs = (t_vecs[:, a][:, None, :] * f_vecs[:, b][None, :, :]).reshape(grid.size, -1)
    eigvals = sorted_vals[:significant]
    for array in (C_f, C_t, eigvals, eigvecs):
        array.flags.writeable = False
    return ChannelStatistics(
        grid=grid,
        freq_corr=C_f,
        time_corr=C_t,
        significant_eigvals=eigvals,
        significant_eigvecs=eigvecs,
        effective_rank=rank,
    )


def covariance_columns(stats: ChannelStatistics, indices) -> np.ndarray:
    """Columns ``C_g[:, indices]`` assembled from the Kronecker factors."""
    idx = np.asarray(indices, dtype=int)
    m_idx, n_idx = idx % stats.grid.M, idx // stats.grid.M
    cols = stats.time_corr[:, n_idx][:, None, :] * stats.freq_corr[:, m_idx][None, :, :]
    return cols.reshape(stats.grid.size, len(idx))
