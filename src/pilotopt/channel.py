"""Second-order statistics of a doubly dispersive WSSUS channel on a finite
time-frequency grid.

The channel is separable: the grid covariance factors as a Kronecker product
``C_g = C_t (x) C_f`` of a symbol-axis correlation ``C_t`` and a subcarrier-axis
correlation ``C_f``, both Toeplitz with unit diagonal.  Eigendecomposing the
two small factors gives the eigenpairs of the full ``MN x MN`` covariance at
``O(M^3 + N^3)`` cost.  Every significant pair is stored once.  The reported
average MSE of a pattern is scored on all of them, which makes it the exact
LMMSE error; their dominant prefix is the reduced-rank basis of the design
problem.  The factor eigenvectors have exact parity, so a grid reflection
maps each stored column to plus or minus itself or its conjugate, bit for bit.
"""

import numbers
import warnings
from dataclasses import dataclass
from enum import Enum
from math import cos, inf, isfinite, nan, sin, sqrt

import numpy as np

from .errors import InvalidSpecError, NumericError

# Eigenpairs of C_g below this fraction of the largest eigenvalue are dropped;
# the rest are the one spectral model of the channel: the reported MSE, the
# design basis and the Monte Carlo draw all read them.  At spreading 5e-3 the
# dropped pairs hold a relative 1.6e-12 of the trace at 12x14 (34 of 168
# kept) and 8.6e-13 at 48x28 (82 of 1344 kept).
EIGENVALUE_FLOOR = 1e-12


# Cephes j0 (S. L. Moshier, "Methods and Programs for Mathematical
# Functions", 1989), the algorithm of scipy.special.j0: a rational function
# in x^2 times (x^2 - DR1)(x^2 - DR2), the squares of the first two zeros, on
# [0, 5], and Hankel's asymptotic form with rational P0 and Q0 in 25/x^2
# beyond.  Coefficients are listed from the highest power down.
_J0_PP = (
    7.96936729297347051624e-4, 8.28352392107440799803e-2, 1.23953371646414299388e0,
    5.44725003058768775090e0, 8.74716500199817011941e0, 5.30324038235394892183e0,
    9.99999999999999997821e-1,
)
_J0_PQ = (
    9.24408810558863637013e-4, 8.56288474354474431428e-2, 1.25352743901058953537e0,
    5.47097740330417105182e0, 8.76190883237069594232e0, 5.30605288235394617618e0,
    1.00000000000000000218e0,
)
_J0_QP = (
    -1.13663838898469149931e-2, -1.28252718670509318512e0, -1.95539544257735972385e1,
    -9.32060152123768231369e1, -1.77681167980488050595e2, -1.47077505154951170175e2,
    -5.14105326766599330220e1, -6.05014350600728481186e0,
)
# QQ and RQ have a leading coefficient of 1, which is not stored.
_J0_QQ = (
    6.43178256118178023184e1, 8.56430025976980587198e2, 3.88240183605401609683e3,
    7.24046774195652478189e3, 5.93072701187316984827e3, 2.06209331660327847417e3,
    2.42005740240291393179e2,
)
_J0_RP = (
    -4.79443220978201773821e9, 1.95617491946556577543e12, -2.49248344360967716204e14,
    9.70862251047306323952e15,
)
_J0_RQ = (
    4.99563147152651017219e2, 1.73785401676374683123e5, 4.84409658339962045305e7,
    1.11855537045356834862e10, 2.11277520115489217587e12, 3.10518229857422583814e14,
    3.18121955943204943306e16, 1.71086294081043136091e18,
)
_J0_DR1 = 5.78318596294678452118e0
_J0_DR2 = 3.04712623436620863991e1
_SQRT_2_OVER_PI = 7.9788456080286535587989e-1
_PI_OVER_4 = 7.85398163397448309616e-1


def _polevl(x: float, coefficients, monic: bool = False) -> float:
    """Horner's rule, in Cephes' order of operations; ``monic`` prepends
    the unstored leading 1 (Cephes ``p1evl``)."""
    value = 1.0 if monic else 0.0
    for c in coefficients:
        value = value * x + c
    return value


def _j0(x: float) -> float:
    """Bessel function of the first kind of order 0, Cephes ``j0`` operation
    for operation, with libm's cos, sin and sqrt, so that it equals
    ``scipy.special.j0`` bit for bit."""
    x = abs(x)
    if x <= 5.0:
        z = x * x
        if x < 1.0e-5:
            return 1.0 - z / 4.0
        p = (z - _J0_DR1) * (z - _J0_DR2)
        return p * _polevl(z, _J0_RP) / _polevl(z, _J0_RQ, monic=True)
    if x == inf:
        return nan  # C's cos(inf) is NaN; math.cos raises
    w = 5.0 / x
    q = 25.0 / (x * x)
    p = _polevl(q, _J0_PP) / _polevl(q, _J0_PQ)
    q = _polevl(q, _J0_QP) / _polevl(q, _J0_QQ, monic=True)
    xn = x - _PI_OVER_4
    p = p * cos(xn) - w * q * sin(xn)
    return p * _SQRT_2_OVER_PI / sqrt(x)


def is_integer(value) -> bool:
    """True for a Python or numpy integer that is not a boolean."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        if not (is_integer(self.M) and is_integer(self.N)):
            raise InvalidSpecError(f"grid dimensions must be integers, got {self.M!r}x{self.N!r}")
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
    divided by the profile mass ``rho * (1 - exp(-1/rho))``, each ``1 - exp``
    taken as ``-expm1`` so that a large ``rho`` keeps every digit.
    """
    dm = np.asarray(delta_m, dtype=float)
    d_f = spec.normalized_delay_spread
    if spec.delay_profile is DelayProfile.UNIFORM:
        out = np.sinc(dm * d_f).astype(np.complex128)
    else:
        rho = spec.rms_fraction
        denom_rate = 1.0 / rho + 2j * np.pi * dm * d_f
        numer = -np.expm1(-denom_rate) / denom_rate
        mass = -rho * np.expm1(-1.0 / rho)
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
        # One lag at a time: numpy's vectorized cos and sin need not equal libm's.
        x = np.pi * d_t * dn
        out = np.array([_j0(v) for v in x.ravel().tolist()]).reshape(x.shape)
    out = np.where(dn == 0, 1.0, out)
    return np.asarray(out, dtype=float)


def _hermitian_toeplitz(first_col: np.ndarray) -> np.ndarray:
    """The Toeplitz matrix with first column ``c`` and first row ``conj(c)``:
    entry (i, j) is ``c[i - j]`` on and below the diagonal and
    ``conj(c[j - i])`` above it."""
    n = len(first_col)
    by_lag = np.concatenate((first_col[:0:-1].conj(), first_col))  # lags 1-n .. n-1
    return by_lag[np.arange(n)[:, None] - np.arange(n) + (n - 1)]


def build_freq_correlation(spec: ScatteringSpec, M: int) -> np.ndarray:
    """Hermitian Toeplitz subcarrier correlation matrix ``C_f`` (M x M)."""
    if M < 1 or int(M) != M:
        raise InvalidSpecError(f"M must be a positive integer, got {M}")
    return _hermitian_toeplitz(delay_correlation(spec, np.arange(M)))


def build_time_correlation(spec: ScatteringSpec, N: int) -> np.ndarray:
    """Symmetric Toeplitz symbol correlation matrix ``C_t`` (N x N), real."""
    if N < 1 or int(N) != N:
        raise InvalidSpecError(f"N must be a positive integer, got {N}")
    return _hermitian_toeplitz(doppler_correlation(spec, np.arange(N)))


@dataclass(frozen=True)
class ChannelStatistics:
    """Kronecker factors and eigenpairs of the grid covariance.

    ``significant_eigvals`` are the eigenvalues of ``C_g = C_t (x) C_f`` above
    ``EIGENVALUE_FLOOR`` of the largest, in descending order, and the columns
    of ``significant_eigvecs`` the matching orthonormal eigenvectors, stored
    C-contiguous.  The reported average MSE is evaluated on all of them, so
    it is the exact LMMSE error of the pattern, and the Monte Carlo draws the
    channel on them.  Their leading ``effective_rank`` pairs, cut by the energy
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


def _factor_eigh(matrix: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of a Toeplitz factor whose eigenvectors have exact
    parity under the reversal J.  The orthonormal basis B holds the even
    columns ``e_k + e_{n-1-k}`` (k <= n/2), then the odd ``e_k - e_{n-1-k}``
    (k < n/2), normalized.  A real symmetric Toeplitz C is centrosymmetric,
    so ``B^T C B`` splits into an even and an odd block (Cantoni & Butler
    1976); a Hermitian one is centrohermitian, so ``B^H C B`` is real once
    the odd columns are times i (Lee 1980).  Each entry of ``B x``, x a
    block's eigenvector, is one product: ``J t = +-t``, ``J f = conj(f)``."""
    n, half = len(matrix), len(matrix) // 2
    eye = np.eye(n)
    basis = np.hstack(((eye + eye[::-1])[:, : n - half], (eye - eye[::-1])[:, :half]))
    basis *= np.sqrt(1.0 / (basis * basis).sum(axis=0))  # sqrt(0.5), correctly rounded
    blocks = [slice(0, n - half), slice(n - half, n)]
    if np.iscomplexobj(matrix):
        basis, blocks = basis * np.where(np.arange(n) < n - half, 1.0, 1j), [slice(0, n)]
    reduced = (basis.conj().T @ matrix @ basis).real
    try:
        pairs = [np.linalg.eigh(reduced[b, b]) for b in blocks]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition of {label} correlation failed: {exc}") from exc
    vals = np.concatenate([v for v, _ in pairs])
    order = np.argsort(vals, kind="stable")
    vecs = np.hstack([basis[:, b] @ x for b, (_, x) in zip(blocks, pairs)])[:, order]
    vals = vals[order]
    # Correlation matrices are PSD; clip the tolerated numerical negativity.
    if vals[0] < -1e-10 * vals[-1]:
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

    total = float(np.trace(C_f).real * np.trace(C_t).real)  # trace(C_g)
    cumulative = np.cumsum(sorted_vals)
    # The float cumsum can land a hair under the analytic trace at eta = 1.
    target = min(spec.rank_energy_threshold * total, float(cumulative[-1]))
    rank = int(np.searchsorted(cumulative, target) + 1)
    rank = min(rank, len(sorted_vals))
    significant = int(np.sum(sorted_vals >= EIGENVALUE_FLOOR * sorted_vals[0]))
    rank = max(1, min(rank, significant))

    a, b = np.divmod(order[:significant], grid.M)
    # Column c is kron(t_vecs[:, a[c]], f_vecs[:, b[c]]), cell n*M + m.  The
    # factor columns are gathered C-ordered, so the product is C-contiguous
    # and a problem built on it copies nothing.
    t_cols, f_cols = np.ascontiguousarray(t_vecs[:, a]), np.ascontiguousarray(f_vecs[:, b])
    eigvecs = (t_cols[:, None, :] * f_cols[None, :, :]).reshape(grid.size, -1)
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

