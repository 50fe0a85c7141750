import numpy as np
import pytest
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
from pilotopt.channel import delay_correlation, doppler_correlation
from pilotopt.errors import InvalidSpecError

from conftest import full_covariance

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
            assert stats.total_power == pytest.approx(35.0, abs=1e-12)
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
        assert stats_rb.eigvals.sum() >= 0.9999 * stats_rb.total_power - 1e-9
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
        # of the factor eigenvectors; the design basis is its leading prefix.
        grid = GridConfig(M, N)
        stats = build_statistics(grid, ScatteringSpec(spreading_factor=5e-3))
        r, R = stats.effective_rank, stats.significant_eigvals.size
        assert 1 <= r < R == stats.significant_eigvecs.shape[1]
        assert np.array_equal(stats.eigvecs, stats.significant_eigvecs[:, :r])
        assert np.array_equal(stats.eigvals, stats.significant_eigvals[:r])
        t_vals, t_vecs = np.linalg.eigh(stats.time_corr)
        f_vals, f_vecs = np.linalg.eigh(stats.freq_corr)
        products = np.outer(np.clip(t_vals, 0, None), np.clip(f_vals, 0, None)).ravel()
        order = np.argsort(-products, kind="stable")[:R]
        assert np.array_equal(stats.significant_eigvals, products[order])
        for col, flat in enumerate(order):
            a, b = divmod(int(flat), M)
            kron = np.kron(t_vecs[:, a], f_vecs[:, b])
            assert np.array_equal(stats.significant_eigvecs[:, col], kron), col
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
        from scipy.linalg import toeplitz

        first = delay_correlation(spec, lags) * phase
        C_shifted = toeplitz(first, first.conj())
        assert np.allclose(
            np.linalg.eigvalsh(C), np.linalg.eigvalsh(C_shifted), atol=1e-10
        )
