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
    make_design_problem,
    run_simulation,
)
from pilotopt.errors import InvalidSpecError
from pilotopt.mcsim import (
    _BATCH,
    SimResult,
    _factor_sqrt,
    analytic_mse,
    lmmse_weights,
    sample_channels,
)

from conftest import (
    dense_lmmse,
    full_covariance,
    reference_run_simulation,
    reference_sample_channels,
)


def received_block(g, pattern, sigma_p, data_power, noise_var, rng):
    """``y = x * g + n``: pilots of amplitude ``sigma_p`` on the pattern and
    complex Gaussian data symbols of variance ``data_power`` elsewhere."""
    P = g.size
    parts = rng.standard_normal((P, 2, 2))
    x = np.sqrt(data_power / 2.0) * (parts[:, 0, 0] + 1j * parts[:, 0, 1])
    x[list(pattern.indices)] = sigma_p
    noise = np.sqrt(noise_var / 2.0) * (parts[:, 1, 0] + 1j * parts[:, 1, 1])
    return x * g + noise


def full_block_simulation(stats, problem, pattern, cfg):
    """``run_simulation`` with the whole received block ``Y = X * G + noise``
    formed on every cell before the estimator reads the pilot columns."""
    P = stats.grid.size
    sigma_p = float(np.sqrt(problem.pilot_power))
    rng = np.random.default_rng(cfg.rng_seed)
    W = lmmse_weights(stats, pattern, sigma_p, cfg.noise_var)
    idx = list(pattern.indices)
    per_real = []
    done = 0
    while done < cfg.realizations:
        count = min(_BATCH, cfg.realizations - done)
        G = sample_channels(stats, count, rng)
        X = np.zeros((count, P), dtype=np.complex128)
        X[:, idx] = sigma_p
        parts = rng.standard_normal((count, P, 2))
        Y = X * G + np.sqrt(cfg.noise_var / 2.0) * (parts[..., 0] + 1j * parts[..., 1])
        per_real.append((np.abs(G - Y[:, idx] @ W.T) ** 2).mean(axis=1))
        done += count
    per_real = np.concatenate(per_real)
    return SimResult(
        empirical_mse=float(per_real.mean()),
        analytic_mse=analytic_mse(stats, pattern, sigma_p, cfg.noise_var),
        standard_error=float(per_real.std(ddof=1) / np.sqrt(cfg.realizations)),
    )


class TestSampleChannel:
    def test_rank_one_limit_gives_constant_field(self):
        spec = ScatteringSpec(
            spreading_factor=1e-16,
            normalized_delay_spread=1e-8,
            normalized_doppler_spread=1e-8,
        )
        stats = build_statistics(GridConfig(4, 5), spec)
        g = sample_channels(stats, 1, np.random.default_rng(0))[0]
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


class TestLmmseEstimate:
    def test_no_pilots_returns_prior_mean(self, stats_4x4, rng):
        y = rng.normal(size=16) + 1j * rng.normal(size=16)
        W = lmmse_weights(stats_4x4, PilotPattern((), stats_4x4.grid), 1.0, 0.1)
        assert np.all(W @ y[[]] == 0)

    def test_noiseless_full_observation_recovers_channel(self, stats_4x4, rng):
        g = sample_channels(stats_4x4, 1, rng)[0]
        pattern = PilotPattern(tuple(range(16)), stats_4x4.grid)
        g_hat = lmmse_weights(stats_4x4, pattern, 1.0, 1e-14) @ g
        assert np.abs(g_hat - g).max() < 1e-5

    def test_restricted_matches_full_model(self, stats_4x4, rng):
        # The dense reference sees the whole block, data cells included; with
        # or without their interference term it must reduce to the K x K
        # pilot-restricted estimator.
        g = sample_channels(stats_4x4, 1, rng)[0]
        pattern = PilotPattern((2, 7, 9, 14), stats_4x4.grid)
        y = received_block(g, pattern, 1.3, 0.5, 0.25, rng)
        fast = lmmse_weights(stats_4x4, pattern, 1.3, 0.25) @ y[list(pattern.indices)]
        for data_power in (0.0, 0.5):
            W, _ = dense_lmmse(stats_4x4, pattern, 1.3, 0.25, data_power)
            assert np.abs(fast - W @ y).max() < 1e-9


class TestAnalyticMse:
    @pytest.mark.parametrize("indices", [(), (5,), (0, 5, 10), (1, 2, 7, 11, 12), tuple(range(16))])
    def test_matches_dense_error_trace_on_4x4(self, stats_4x4, indices):
        pattern = PilotPattern(indices, stats_4x4.grid)
        _, C_e = dense_lmmse(stats_4x4, pattern, 1.7, 0.3)
        expected = np.trace(C_e).real / 16
        assert analytic_mse(stats_4x4, pattern, 1.7, 0.3) == pytest.approx(expected, rel=1e-10)


class TestRunSimulation:
    def test_empirical_matches_analytic(self, stats_rb, problem_rb):
        pattern = local_swap(problem_rb, greedy_design(problem_rb).pattern).pattern
        cfg = SimConfig(realizations=4000, rng_seed=11, noise_var=problem_rb.noise_var)
        res = run_simulation(stats_rb, problem_rb, pattern, cfg)
        assert abs(res.empirical_mse - res.analytic_mse) <= 4 * res.standard_error

    def test_overwhelming_noise_gives_prior_mse(self, stats_4x4, problem_4x4):
        cfg = SimConfig(realizations=2000, rng_seed=5, noise_var=1e12)
        pattern = PilotPattern((0, 5, 10), stats_4x4.grid)
        res = run_simulation(stats_4x4, problem_4x4, pattern, cfg)
        assert res.empirical_mse == pytest.approx(1.0, abs=0.1)
        assert res.analytic_mse == pytest.approx(1.0, abs=1e-6)

    def test_seeded_determinism(self, stats_4x4, problem_4x4):
        cfg = SimConfig(realizations=500, rng_seed=7, noise_var=problem_4x4.noise_var)
        pattern = PilotPattern((0, 3, 9), stats_4x4.grid)
        a = run_simulation(stats_4x4, problem_4x4, pattern, cfg)
        b = run_simulation(stats_4x4, problem_4x4, pattern, cfg)
        assert a == b

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

    @pytest.mark.filterwarnings("ignore:power_fraction")
    @pytest.mark.parametrize(
        "M, N, K, spreading, seed, realizations",
        [
            (4, 4, 3, 1e-3, 1, 5000),  # two batches
            (12, 14, 14, 1e-3, 7, 400),
            (12, 14, 17, 5e-3, 11, 400),
            (48, 28, 134, 5e-3, 7, 50),
        ],
    )
    def test_pilot_block_matches_full_block(self, M, N, K, spreading, seed, realizations):
        stats = build_statistics(GridConfig(M, N), ScatteringSpec(spreading_factor=spreading))
        problem = make_design_problem(stats, K=K, snr_db=20.0)
        indices = np.random.default_rng(seed).choice(stats.grid.size, size=K, replace=False)
        pattern = PilotPattern(tuple(indices), stats.grid)
        cfg = SimConfig(realizations=realizations, rng_seed=seed, noise_var=problem.noise_var)
        assert run_simulation(stats, problem, pattern, cfg) == full_block_simulation(
            stats, problem, pattern, cfg
        )

    def test_invalid_config(self):
        with pytest.raises(InvalidSpecError):
            SimConfig(realizations=0, rng_seed=0, noise_var=0.1)
        with pytest.raises(InvalidSpecError):
            SimConfig(realizations=10, rng_seed=0, noise_var=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("realizations", 2.5),
            ("realizations", True),
            ("realizations", -1),
            ("realizations", "10"),
            ("rng_seed", -3),
            ("rng_seed", 1.0),
            ("rng_seed", False),
            ("rng_seed", None),
            ("noise_var", float("nan")),
            ("noise_var", float("inf")),
            ("noise_var", -0.1),
            ("noise_var", True),
            ("noise_var", "0.1"),
        ],
    )
    def test_invalid_field_named(self, field, value):
        values = {"realizations": 10, "rng_seed": 0, "noise_var": 0.1, field: value}
        with pytest.raises(InvalidSpecError, match=f"^{field} must be"):
            SimConfig(**values)

    def test_numpy_scalars_accepted(self):
        cfg = SimConfig(realizations=np.int64(3), rng_seed=np.uint64(2**63), noise_var=np.float32(0.5))
        assert cfg.realizations == 3
        SimConfig(realizations=1, rng_seed=0, noise_var=2)


class TestDrawAssembly:
    """The complex views of the normal draws and the ``take`` gathers give
    the bits of the list-indexed ``a + 1j*b`` reference."""

    @pytest.mark.parametrize("stats", ["stats_4x4", "stats_rb", "stats_big"])
    def test_sample_channels_matches_reference(self, stats, request):
        stats = request.getfixturevalue(stats)
        rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        for count in (1, 250):
            assert np.array_equal(
                sample_channels(stats, count, rng), reference_sample_channels(stats, count, ref_rng)
            )
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.filterwarnings("ignore:power_fraction")
    @pytest.mark.parametrize(
        "M, N, K, realizations",
        [
            (12, 14, 17, 1000),  # the benchmark's Monte Carlo shapes
            (48, 28, 134, 250),
            (4, 4, 3, _BATCH + 904),  # two batches
            (4, 4, 0, 20),  # no pilots: empty gathers
        ],
    )
    def test_run_simulation_matches_reference(self, M, N, K, realizations):
        stats = build_statistics(GridConfig(M, N), ScatteringSpec(spreading_factor=5e-3))
        problem = make_design_problem(stats, K=max(K, 1), snr_db=20.0)
        pattern = greedy_design(problem).pattern if K else PilotPattern((), stats.grid)
        for seed in (1, 2**40 + 3):
            cfg = SimConfig(realizations=realizations, rng_seed=seed, noise_var=problem.noise_var)
            assert run_simulation(stats, problem, pattern, cfg) == reference_run_simulation(
                stats, problem, pattern, cfg
            )


class TestRankTruncationConsistency:
    def test_truncated_plus_floor_tracks_full_model(self, stats_rb, problem_rb):
        # The pattern is designed on the reduced-rank basis, but its reported
        # MSE must be the exact LMMSE error.  The discarded tail perturbs the
        # pilot observations at first order in alpha, so the reduced-rank
        # objective plus the discarded energy misses it by ~1e-3 relative;
        # the report is computed on the full significant spectrum instead and
        # has to agree with the dense pilot-restricted error covariance.
        pattern = greedy_design(problem_rb).pattern
        reported = average_mse(stats_rb, pattern, problem_rb.pilot_snr)
        full = analytic_mse(
            stats_rb, pattern, np.sqrt(problem_rb.pilot_power), problem_rb.noise_var
        )
        assert reported == pytest.approx(full, rel=1e-6)
