from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.special
from scipy.integrate import quad

from pilotopt import (
    DelayProfile,
    DopplerSpectrum,
    GridConfig,
    ScatteringSpec,
    build_freq_correlation,
    build_statistics,
    build_time_correlation,
    make_design_problem,
)
from pilotopt.channel import (
    _factor_eigh,
    _hermitian_toeplitz,
    _j0,
    delay_correlation,
    doppler_correlation,
)
from pilotopt.cli import load_config
from pilotopt.errors import InvalidSpecError

from conftest import full_covariance

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Quadrature oracle values, frozen from scipy.integrate.quad at epsabs=1e-12.
TRUNCEXP_DF02_RHO025_LAG1 = 0.9269774207646987 - 0.2734743413609650j
JAKES_DT01_LAG5 = 0.4720012157682351


def uniform_spec(d, **kw):
    return ScatteringSpec(
        spreading_factor=d * d,
        normalized_delay_spread=d,
        normalized_doppler_spread=d,
        delay_profile="uniform",
        doppler_spectrum="uniform",
        **kw,
    )


class TestCorrelationFunctions:
    def test_zero_lag_is_one_for_every_profile(self):
        for profile in DelayProfile:
            spec = ScatteringSpec(spreading_factor=0.01, delay_profile=profile)
            assert complex(delay_correlation(spec, 0)) == 1.0 + 0.0j
        for spectrum in DopplerSpectrum:
            spec = ScatteringSpec(spreading_factor=0.01, doppler_spectrum=spectrum)
            assert float(doppler_correlation(spec, 0)) == 1.0

    def test_uniform_delay_sinc_zero(self):
        # |r_f(dm)| = |sin(pi dm d_f)/(pi dm d_f)| vanishes at integer argument.
        spec = ScatteringSpec(
            spreading_factor=0.25,
            normalized_delay_spread=0.5,
            normalized_doppler_spread=0.5,
            delay_profile="uniform",
        )
        assert abs(delay_correlation(spec, 2)) < 1e-15

    def test_truncated_exponential_against_quadrature(self):
        d_f, rho = 0.2, 0.25
        mass = quad(lambda x: np.exp(-x / rho), 0, 1, epsabs=1e-12)[0]
        re = quad(
            lambda x: np.exp(-x / rho) * np.cos(2 * np.pi * d_f * x), 0, 1, epsabs=1e-12
        )[0]
        im = quad(
            lambda x: -np.exp(-x / rho) * np.sin(2 * np.pi * d_f * x), 0, 1, epsabs=1e-12
        )[0]
        oracle = (re + 1j * im) / mass
        assert abs(oracle - TRUNCEXP_DF02_RHO025_LAG1) < 1e-10

        spec = ScatteringSpec(
            spreading_factor=0.04,
            normalized_delay_spread=d_f,
            normalized_doppler_spread=0.2,
            rms_fraction=rho,
        )
        assert abs(complex(delay_correlation(spec, 1)) - oracle) < 1e-10

    @pytest.mark.parametrize("rho", [0.25, 1e8, 1e12, 1e16])
    def test_truncated_exponential_against_a_40_digit_reference(self, rho):
        # The closed form evaluated in mpmath at the spec's own doubles.  By
        # subtraction, 1 - exp(-x) lost 1.1e-9, 2.2e-5 and 9.9% at the three
        # large rms fractions; -expm1 keeps it to the last bits.
        spec = ScatteringSpec(spreading_factor=5e-3, rms_fraction=rho)
        lags = np.arange(48)
        got = delay_correlation(spec, lags)
        with mpmath.workdps(40):
            r, d_f = mpmath.mpf(rho), mpmath.mpf(spec.normalized_delay_spread)
            mass = r * (1 - mpmath.exp(-1 / r))
            for dm in lags[1:].tolist():
                z = 1 / r + 2j * mpmath.pi * dm * d_f
                want = (1 - mpmath.exp(-z)) / z / mass
                # Relative to the largest entry, r_f(0) = 1.
                assert float(abs(mpmath.mpc(complex(got[dm])) - want)) <= 1e-15, dm

    def test_jakes_real_and_even(self):
        spec = ScatteringSpec(spreading_factor=0.01)
        lags = np.arange(-6, 7)
        r = doppler_correlation(spec, lags)
        assert np.isrealobj(r)
        assert np.allclose(r, r[::-1])

    def test_jakes_against_two_independent_oracles(self):
        # Quadrature of the Jakes spectrum integral and a power series for the
        # order-zero Bessel function must both agree with the implementation.
        d_t, lag = 0.1, 5
        z = np.pi * d_t * lag
        quad_val = 2 * quad(
            lambda u: np.cos(z * u) / (np.pi * np.sqrt(1 - u * u)), 0, 1, epsabs=1e-12
        )[0]
        term, series = 1.0, 1.0
        for k in range(1, 40):
            term *= -((z / 2) ** 2) / k**2
            series += term
        assert abs(quad_val - JAKES_DT01_LAG5) < 1e-10
        assert abs(series - JAKES_DT01_LAG5) < 1e-10

        spec = ScatteringSpec(
            spreading_factor=0.01, normalized_doppler_spread=d_t, normalized_delay_spread=0.1
        )
        assert abs(float(doppler_correlation(spec, lag)) - JAKES_DT01_LAG5) < 1e-10


def j0_arguments():
    """A dense grid of J0 arguments: 0, both sides of the 1e-5 and 5 branch
    boundaries, the small-argument series, [0, 100] in steps of 1e-3, and
    negative, infinite and NaN arguments."""
    tiny = np.nextafter(1e-5, 0.0)
    edges = [0.0, tiny, 1e-5, np.nextafter(1e-5, 1.0), np.nextafter(5.0, 0.0), 5.0,
             np.nextafter(5.0, 6.0), -5.0, -1e-5, np.inf, -np.inf, np.nan]
    return np.concatenate((
        edges,
        np.geomspace(1e-300, tiny, 1001),
        np.linspace(1e-5, 5.0, 50_001),
        np.linspace(0.0, 100.0, 100_001),
        -np.linspace(0.0, 20.0, 2_001),
    ))


class TestCephesJ0:
    def test_matches_scipy_bit_for_bit(self):
        x = j0_arguments()
        got = np.array([_j0(v) for v in x.tolist()])
        want = scipy.special.j0(x)
        assert np.array_equal(got, want, equal_nan=True)
        # The sign of a NaN is the processor's; the sign of a zero is not.
        numbers = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))

    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_doppler_lags_of_shipped_configs(self, config):
        cfg = load_config(str(config))
        for dd in cfg.spreading_factors:
            spec = ScatteringSpec(spreading_factor=dd, **cfg.scattering)
            assert spec.doppler_spectrum is DopplerSpectrum.JAKES
            x = np.pi * spec.normalized_doppler_spread * np.arange(cfg.grid.N)
            want = scipy.linalg.toeplitz(scipy.special.j0(x))
            assert np.array_equal(build_time_correlation(spec, cfg.grid.N), want)


class TestHermitianToeplitz:
    @pytest.mark.parametrize("n", [1, 2, 7, 28])
    def test_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        real = rng.normal(size=n)
        complex_ = real + 1j * rng.normal(size=n)
        for c in (real, complex_):
            got = _hermitian_toeplitz(c)
            assert got.dtype == c.dtype
            assert np.array_equal(got, scipy.linalg.toeplitz(c, c.conj()))
            assert np.array_equal(got, scipy.linalg.toeplitz(c))

    def test_frequency_correlation_matches_scipy(self):
        for profile in DelayProfile:
            spec = ScatteringSpec(spreading_factor=0.01, delay_profile=profile)
            c = delay_correlation(spec, np.arange(12))
            want = scipy.linalg.toeplitz(c, c.conj())
            assert np.array_equal(build_freq_correlation(spec, 12), want)


class TestCorrelationMatrices:
    def test_unit_diagonal_exact(self):
        spec = ScatteringSpec(spreading_factor=0.003)
        C_f = build_freq_correlation(spec, 8)
        C_t = build_time_correlation(spec, 9)
        assert np.all(np.diag(C_f) == 1.0)
        assert np.all(np.diag(C_t) == 1.0)

    def test_toeplitz_and_hermitian(self):
        spec = ScatteringSpec(spreading_factor=0.01)
        C_f = build_freq_correlation(spec, 6)
        for diag in range(-5, 6):
            vals = np.diagonal(C_f, diag)
            assert np.allclose(vals, vals[0])
        assert np.allclose(C_f, C_f.conj().T)

    def test_factor_psd(self):
        for dd in (1e-4, 1e-3, 1e-2):
            spec = ScatteringSpec(spreading_factor=dd)
            for C in (build_freq_correlation(spec, 12), build_time_correlation(spec, 14)):
                vals = np.linalg.eigvalsh(C)
                assert vals[0] >= -1e-10 * vals[-1]

    def test_invalid_inputs_rejected(self):
        spec = ScatteringSpec(spreading_factor=0.01)
        with pytest.raises(InvalidSpecError):
            build_freq_correlation(spec, 0)
        with pytest.raises(InvalidSpecError):
            build_time_correlation(spec, -3)
        with pytest.raises(InvalidSpecError):
            ScatteringSpec(spreading_factor=-0.1)
        with pytest.raises(InvalidSpecError):
            ScatteringSpec(spreading_factor=0.01, rank_energy_threshold=0.0)
        with pytest.raises(InvalidSpecError):
            ScatteringSpec(
                spreading_factor=0.01,
                normalized_delay_spread=0.5,
                normalized_doppler_spread=0.5,  # product != spreading factor
            )

    def test_underspread_warning(self):
        with pytest.warns(UserWarning, match="underspread") as caught:
            ScatteringSpec(spreading_factor=0.1)
        assert caught[0].filename == __file__


class TestGridConfig:
    def test_flat_indexing_roundtrip(self):
        grid = GridConfig(3, 5)
        k = 0
        for n in range(5):
            for m in range(3):
                assert grid.cell(k) == (m, n)
                k += 1

    def test_invalid_dimensions(self):
        with pytest.raises(InvalidSpecError):
            GridConfig(0, 4)
        with pytest.raises(InvalidSpecError):
            GridConfig(4, -1)

    @pytest.mark.parametrize("M", [True, 4.0, np.float64(4.0), "4"])
    def test_non_integer_dimensions(self, M):
        with pytest.raises(InvalidSpecError, match="grid dimensions must be integers"):
            GridConfig(M, 4)
        with pytest.raises(InvalidSpecError, match="grid dimensions must be integers"):
            GridConfig(4, M)

    def test_numpy_integer_dimensions(self):
        grid = GridConfig(np.int64(3), np.uint8(5))
        assert (grid.M, grid.N) == (3, 5) and type(grid.M) is int


PARITY_SIZES = (1, 2, 3, 7, 12, 14, 28, 48)


class TestFactorParity:
    """The factor eigenvectors have exact parity under the reversal J of
    their axis, ``J t = +-t`` and ``J f = conj(f)`` bit for bit, and are the
    factor eigenpairs to rounding."""

    @pytest.mark.parametrize("profile", list(DelayProfile))
    @pytest.mark.parametrize("spectrum", list(DopplerSpectrum))
    @pytest.mark.parametrize("n", PARITY_SIZES)
    def test_factor_eigenpairs(self, n, spectrum, profile):
        spec = ScatteringSpec(
            spreading_factor=1e-2, delay_profile=profile, doppler_spectrum=spectrum
        )
        for C, label in (
            (build_time_correlation(spec, n), "time"),
            (build_freq_correlation(spec, n), "frequency"),
        ):
            vals, vecs = _factor_eigh(C, label)
            assert vecs.dtype == C.dtype
            for v in vecs.T:
                if label == "time":
                    assert np.array_equal(v[::-1], v) or np.array_equal(v[::-1], -v)
                else:
                    assert np.array_equal(v[::-1], v.conj())
            want = np.linalg.eigvalsh(C)
            assert np.abs(vals - want).max() <= 1e-12 * want[-1]
            assert np.abs(vecs.conj().T @ vecs - np.eye(n)).max() <= 1e-14
            assert np.abs(C @ vecs - vecs * vals).max() <= 1e-12 * want[-1]

    @pytest.mark.parametrize("M", PARITY_SIZES)
    @pytest.mark.parametrize("N", (1, 7, 14))
    def test_every_kronecker_column(self, M, N):
        # Column kron(t, f) on cell n*M + m: reversing n multiplies it by the
        # parity of t, and reversing m conjugates it.
        spec = ScatteringSpec(spreading_factor=1e-2, rank_energy_threshold=1.0)
        stats = build_statistics(GridConfig(M, N), spec)
        cells = stats.significant_eigvecs.T.reshape(-1, N, M)
        for col in cells:
            assert np.array_equal(col[:, ::-1], col.conj())
            assert np.array_equal(col[::-1], col) or np.array_equal(col[::-1], -col)


class TestBuildStatistics:
    def test_fully_correlated_limit(self):
        spec = ScatteringSpec(
            spreading_factor=1e-16,
            normalized_delay_spread=1e-8,
            normalized_doppler_spread=1e-8,
        )
        stats = build_statistics(GridConfig(3, 4), spec)
        assert stats.effective_rank == 1
        assert stats.eigvals[0] == pytest.approx(12.0, rel=1e-9)

    def test_2x2_eigenvalues_match_direct_oracle(self):
        with pytest.warns(UserWarning):  # 0.5 * 0.5 spread product >= 0.1
            spec = uniform_spec(0.5)
        stats = build_statistics(GridConfig(2, 2), spec)
        # Direct 4x4 eigendecomposition oracle on the explicit product matrix.
        direct = np.sort(np.linalg.eigvalsh(full_covariance(stats)))[::-1]
        # Closed form: products (1 +/- |r_f(1)|)(1 +/- |r_t(1)|), r = 2/pi.
        r1 = 2 / np.pi
        closed = np.sort([(1 + a * r1) * (1 + b * r1) for a in (1, -1) for b in (1, -1)])[::-1]
        assert np.allclose(direct, closed, atol=1e-12)
        assert np.allclose(stats.eigvals, direct[: stats.effective_rank], atol=1e-12)

    def test_trace_equals_grid_size(self):
        for dd in (1e-4, 1e-2):
            stats = build_statistics(GridConfig(5, 7), ScatteringSpec(spreading_factor=dd))
            factor_traces = np.trace(stats.freq_corr).real * np.trace(stats.time_corr).real
            assert factor_traces == pytest.approx(35.0, abs=1e-12)
            assert np.trace(full_covariance(stats)).real == pytest.approx(35.0, abs=1e-9)

    @pytest.mark.parametrize(
        "name", ["freq_corr", "time_corr", "significant_eigvals", "significant_eigvecs", "eigvals", "eigvecs"]
    )
    def test_arrays_are_read_only(self, name):
        # The design basis, the scorer and the Monte Carlo share these
        # arrays.  Statistics of its own, so a write that lands harms no
        # shared fixture.
        stats = build_statistics(GridConfig(12, 14), ScatteringSpec(spreading_factor=1e-3))
        with pytest.raises(ValueError, match="read-only"):
            getattr(stats, name)[0] = 0.0

    def test_eigvecs_orthonormal(self, stats_rb):
        r = stats_rb.effective_rank
        gram = stats_rb.eigvecs.conj().T @ stats_rb.eigvecs
        assert np.abs(gram - np.eye(r)).max() < 1e-10

    def test_energy_threshold_met(self, stats_rb):
        total_power = np.trace(full_covariance(stats_rb)).real
        assert stats_rb.eigvals.sum() >= 0.9999 * total_power - 1e-9
        assert np.all(np.diff(stats_rb.eigvals) <= 1e-12)
        assert np.all(stats_rb.eigvals > 0)

    @pytest.mark.parametrize("M,N", [(2, 2), (3, 5), (8, 8)])
    def test_kronecker_identity_small_grids(self, M, N):
        spec = ScatteringSpec(spreading_factor=0.02, rank_energy_threshold=1.0)
        stats = build_statistics(GridConfig(M, N), spec)
        C = full_covariance(stats)
        direct = np.sort(np.linalg.eigvalsh(C))[::-1]
        factored = np.sort(
            np.outer(
                np.linalg.eigvalsh(stats.time_corr), np.linalg.eigvalsh(stats.freq_corr)
            ).ravel()
        )[::-1]
        assert np.abs(direct - factored).max() <= 1e-9 * direct[0]

    @pytest.mark.parametrize("M,N", [(12, 14), (48, 28)])
    def test_one_stored_basis(self, M, N):
        # Each significant eigenpair is stored once, as the Kronecker product
        # of the factor eigenvectors of the structured construction
        # (``_factor_eigh``); the design basis is its leading prefix.
        grid = GridConfig(M, N)
        stats = build_statistics(grid, ScatteringSpec(spreading_factor=5e-3))
        r, R = stats.effective_rank, stats.significant_eigvals.size
        assert 1 <= r < R == stats.significant_eigvecs.shape[1]
        assert np.array_equal(stats.eigvecs, stats.significant_eigvecs[:, :r])
        assert np.array_equal(stats.eigvals, stats.significant_eigvals[:r])
        t_vals, t_vecs = _factor_eigh(stats.time_corr, "time")
        f_vals, f_vecs = _factor_eigh(stats.freq_corr, "frequency")
        products = np.outer(t_vals, f_vals).ravel()
        order = np.argsort(-products, kind="stable")[:R]
        assert np.array_equal(stats.significant_eigvals, products[order])
        for col, flat in enumerate(order):
            a, b = divmod(int(flat), M)
            kron = np.kron(t_vecs[:, a], f_vecs[:, b])
            assert np.array_equal(stats.significant_eigvecs[:, col], kron), col
        # Stored C-contiguous, so the scoring problem reads it in place.
        assert stats.significant_eigvecs.flags.c_contiguous
        assert not stats.significant_eigvecs.flags.writeable
        problem = make_design_problem(stats, K=N, snr_db=20.0)
        assert problem.rows.flags.c_contiguous
        assert np.array_equal(problem.rows, stats.eigvecs)

    def test_rank_nondecreasing_in_spreading(self):
        grid = GridConfig(12, 14)
        ranks = [
            build_statistics(grid, ScatteringSpec(spreading_factor=dd)).effective_rank
            for dd in (1e-4, 1e-3, 1e-2)
        ]
        assert ranks == sorted(ranks)

    def test_delay_support_shift_invariance(self):
        # Centering the one-sided exponential support multiplies r_f by a unit
        # phase, a diagonal similarity: eigenvalues must not move.
        spec = ScatteringSpec(spreading_factor=0.01)
        M = 8
        C = build_freq_correlation(spec, M)
        d_f = spec.normalized_delay_spread
        lags = np.arange(M)
        phase = np.exp(1j * np.pi * lags * d_f)  # shift by tau_D/2
        first = delay_correlation(spec, lags) * phase
        C_shifted = scipy.linalg.toeplitz(first, first.conj())
        assert np.allclose(
            np.linalg.eigvalsh(C), np.linalg.eigvalsh(C_shifted), atol=1e-10
        )
