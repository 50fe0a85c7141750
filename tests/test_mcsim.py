import numpy as np
import pytest

from pilotopt import (
    GridConfig,
    PilotPattern,
    ScatteringSpec,
    SimConfig,
    average_mse,
    build_statistics,
    greedy_design,
    local_swap,
    run_simulation,
    sample_channel,
)
from pilotopt.channel import full_covariance
from pilotopt.errors import InvalidSpecError
from pilotopt.mcsim import (
    _factor_sqrt,
    analytic_mse,
    lmmse_estimate,
    lmmse_estimate_full,
    lmmse_weights,
    sample_channels,
    synthesize_rx,
)


class TestSampleChannel:
    def test_rank_one_limit_gives_constant_field(self):
        spec = ScatteringSpec(
            spreading_factor=1e-16,
            normalized_delay_spread=1e-8,
            normalized_doppler_spread=1e-8,
        )
        stats = build_statistics(GridConfig(4, 5), spec)
        g = sample_channel(stats, np.random.default_rng(0))
        assert np.abs(g - g[0]).max() < 1e-5

    def test_unit_cell_power(self, stats_4x4):
        draws = sample_channels(stats_4x4, 10_000, np.random.default_rng(1))
        power = np.mean(np.abs(draws) ** 2, axis=0)
        # var(|g|^2) = 1 for CN(0,1), so the standard error is 1/sqrt(n).
        assert np.abs(power - 1.0).max() < 3.0 / np.sqrt(10_000)

    @pytest.mark.parametrize("stats", ["stats_4x4", "stats_rb"])
    def test_matches_einsum_colouring(self, stats, request):
        # Reference: the same draws coloured by one einsum over both factors.
        stats = request.getfixturevalue(stats)
        M, N = stats.grid.M, stats.grid.N
        draws = sample_channels(stats, 50, np.random.default_rng(3))
        parts = np.random.default_rng(3).standard_normal((50, M, N, 2))
        Z = (parts[..., 0] + 1j * parts[..., 1]) / np.sqrt(2.0)
        L_f = _factor_sqrt(stats.freq_corr)
        L_t = _factor_sqrt(stats.time_corr.astype(np.complex128))
        G = np.einsum("ma,zab,nb->zmn", L_f, Z, L_t)
        ref = G.transpose(0, 2, 1).reshape(50, M * N)
        assert np.abs(draws - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_sample_covariance_matches(self, stats_4x4):
        draws = sample_channels(stats_4x4, 10_000, np.random.default_rng(2))
        C_hat = draws.T @ draws.conj() / draws.shape[0]
        C = full_covariance(stats_4x4)
        rel = np.linalg.norm(C_hat - C) / np.linalg.norm(C)
        assert rel < 0.05


class TestSynthesizeRx:
    def test_noiseless_dataless_block(self, stats_4x4, rng):
        g = sample_channel(stats_4x4, rng)
        pattern = PilotPattern((0, 5, 10), stats_4x4.grid)
        y = synthesize_rx(g, pattern, sigma_p=2.0, data_power=0.0, noise_var=0.0, rng=rng)
        assert np.allclose(y[[0, 5, 10]], 2.0 * g[[0, 5, 10]])
        mask = np.ones(16, dtype=bool)
        mask[[0, 5, 10]] = False
        assert np.all(y[mask] == 0)

    def test_pilot_cell_rx_power(self, stats_4x4):
        rng = np.random.default_rng(3)
        pattern = PilotPattern((1, 6, 11), stats_4x4.grid)
        sigma_p, noise_var = 1.5, 0.2
        n = 4000
        acc = np.zeros(3)
        for _ in range(n):
            g = sample_channel(stats_4x4, rng)
            y = synthesize_rx(g, pattern, sigma_p, 0.0, noise_var, rng)
            acc += np.abs(y[[1, 6, 11]]) ** 2
        expected = sigma_p**2 + noise_var
        # |y|^2 is exponential with mean sigma_p^2 + noise_var: sd = mean.
        assert np.abs(acc / n - expected).max() < 3 * expected / np.sqrt(n)

    def test_block_power_accounting(self, stats_4x4):
        rng = np.random.default_rng(4)
        pattern = PilotPattern(tuple(range(5)), stats_4x4.grid)
        sigma_p, sigma_d2 = 1.2, 0.8
        n = 6000
        total = 0.0
        for _ in range(n):
            g = np.ones(16, dtype=complex)
            x = synthesize_rx(np.ones(16, dtype=complex), pattern, sigma_p, sigma_d2, 1e-30, rng)
            total += np.mean(np.abs(x) ** 2)
        expected = (5 * sigma_p**2 + 11 * sigma_d2) / 16
        assert total / n == pytest.approx(expected, rel=0.05)


class TestLmmseEstimate:
    def test_no_pilots_returns_prior_mean(self, stats_4x4, rng):
        y = rng.normal(size=16) + 1j * rng.normal(size=16)
        g_hat = lmmse_estimate(y, PilotPattern((), stats_4x4.grid), stats_4x4, 1.0)
        assert np.all(g_hat == 0)

    def test_noiseless_full_observation_recovers_channel(self, stats_4x4, rng):
        g = sample_channel(stats_4x4, rng)
        pattern = PilotPattern(tuple(range(16)), stats_4x4.grid)
        y = synthesize_rx(g, pattern, 1.0, 0.0, 0.0, rng)
        g_hat = lmmse_estimate(y, pattern, stats_4x4, 1.0, noise_var=1e-14)
        assert np.abs(g_hat - g).max() < 1e-5

    def test_restricted_matches_full_model(self, stats_4x4, rng):
        g = sample_channel(stats_4x4, rng)
        pattern = PilotPattern((2, 7, 9, 14), stats_4x4.grid)
        y = synthesize_rx(g, pattern, 1.3, 0.5, 0.25, rng)
        fast = lmmse_estimate(y, pattern, stats_4x4, 1.3, 0.5, 0.25)
        for include in (False, True):
            full = lmmse_estimate_full(
                y, pattern, stats_4x4, 1.3, 0.5, 0.25, include_data_interference=include
            )
            assert np.abs(fast - full).max() < 1e-9

    def test_random_pilot_phases_equivalent(self, stats_4x4, rng):
        # Constant-modulus phases cancel inside the diagonal pilot model.
        g = sample_channel(stats_4x4, rng)
        pattern = PilotPattern((1, 4, 12), stats_4x4.grid)
        phases = np.exp(2j * np.pi * rng.uniform(size=3))
        symbols = 1.7 * phases
        y = synthesize_rx(g, pattern, 1.7, 0.0, 0.3, rng, pilot_symbols=symbols)
        est = lmmse_estimate(y, pattern, stats_4x4, 1.7, 0.0, 0.3, pilot_symbols=symbols)
        ref = lmmse_estimate_full(
            y, pattern, stats_4x4, 1.7, 0.0, 0.3, pilot_symbols=symbols
        )
        assert np.abs(est - ref).max() < 1e-9
        W_phase = lmmse_weights(stats_4x4, pattern, 1.7, 0.3, pilot_symbols=symbols)
        W_plain = lmmse_weights(stats_4x4, pattern, 1.7, 0.3)
        # Same error covariance either way: weights absorb the pilot phases.
        assert np.abs(W_phase * phases[None, :] - W_plain).max() < 1e-10


class TestRunSimulation:
    def test_empirical_matches_analytic(self, stats_rb, problem_rb):
        pattern = local_swap(problem_rb, greedy_design(problem_rb).pattern).pattern
        cfg = SimConfig(realizations=4000, rng_seed=11, noise_var=problem_rb.noise_var)
        res = run_simulation(stats_rb, problem_rb, pattern, cfg)
        assert abs(res.empirical_mse - res.analytic_mse) <= 4 * res.standard_error
        assert res.per_cell_mse.shape == (12, 14)
        assert res.per_cell_mse.mean() == pytest.approx(res.empirical_mse, rel=1e-12)

    def test_overwhelming_noise_gives_prior_mse(self, stats_4x4, problem_4x4):
        cfg = SimConfig(realizations=2000, rng_seed=5, noise_var=1e12)
        pattern = PilotPattern((0, 5, 10), stats_4x4.grid)
        res = run_simulation(stats_4x4, problem_4x4, pattern, cfg)
        assert res.empirical_mse == pytest.approx(1.0, abs=0.1)
        assert res.analytic_mse == pytest.approx(1.0, abs=1e-6)

    def test_data_interference_cannot_help(self, stats_4x4, problem_4x4):
        pattern = PilotPattern((0, 5, 10), stats_4x4.grid)
        base = SimConfig(realizations=3000, rng_seed=6, noise_var=problem_4x4.noise_var)
        with_data = SimConfig(
            realizations=3000,
            rng_seed=6,
            data_power=1.0,
            noise_var=problem_4x4.noise_var,
            include_data_interference=True,
        )
        res = run_simulation(stats_4x4, problem_4x4, pattern, with_data)
        ref = run_simulation(stats_4x4, problem_4x4, pattern, base)
        assert res.empirical_mse >= ref.analytic_mse - 4 * res.standard_error

    def test_seeded_determinism(self, stats_4x4, problem_4x4):
        cfg = SimConfig(realizations=500, rng_seed=7, noise_var=problem_4x4.noise_var)
        pattern = PilotPattern((0, 3, 9), stats_4x4.grid)
        a = run_simulation(stats_4x4, problem_4x4, pattern, cfg)
        b = run_simulation(stats_4x4, problem_4x4, pattern, cfg)
        assert a.empirical_mse == b.empirical_mse
        assert np.array_equal(a.per_cell_mse, b.per_cell_mse)

    def test_estimator_optimality_spot_check(self, stats_4x4, problem_4x4):
        pattern = PilotPattern((0, 5, 10), stats_4x4.grid)
        sigma_p = np.sqrt(problem_4x4.pilot_power)
        noise_var = problem_4x4.noise_var
        W = lmmse_weights(stats_4x4, pattern, sigma_p, noise_var)
        rng = np.random.default_rng(8)
        G = sample_channels(stats_4x4, 3000, rng)
        idx = list(pattern.indices)
        noise = rng.standard_normal((3000, 16, 2))
        Y = np.zeros((3000, 16), dtype=complex)
        Y += sigma_p * G
        Y = Y + np.sqrt(noise_var / 2) * (noise[..., 0] + 1j * noise[..., 1])
        y_s = Y[:, idx]
        base = np.mean(np.abs(G - y_s @ W.T) ** 2)
        for trial in range(5):
            perturbation = 1 + 0.01 * np.sign(
                np.random.default_rng(100 + trial).standard_normal(W.shape)
            )
            worse = np.mean(np.abs(G - y_s @ (W * perturbation).T) ** 2)
            assert worse > base

    def test_invalid_config(self):
        with pytest.raises(InvalidSpecError):
            SimConfig(realizations=0)
        with pytest.raises(InvalidSpecError):
            SimConfig(realizations=10, noise_var=0.0)


class TestRankTruncationConsistency:
    def test_truncated_plus_floor_tracks_full_model(self, stats_rb, problem_rb):
        # The pattern is designed on the reduced-rank basis, but its reported
        # MSE must be the exact LMMSE error.  The discarded tail perturbs the
        # pilot observations at first order in alpha, so the reduced-rank
        # objective plus the discarded energy misses it by ~1e-3 relative;
        # the report is computed on the full significant spectrum instead and
        # has to agree with the dense pilot-restricted error covariance.
        pattern = greedy_design(problem_rb).pattern
        reported = average_mse(problem_rb, pattern)
        full = analytic_mse(
            stats_rb, pattern, np.sqrt(problem_rb.pilot_power), problem_rb.noise_var
        )
        assert reported == pytest.approx(full, rel=1e-6)
