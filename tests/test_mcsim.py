import warnings

import mpmath
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
from pilotopt import channel, mcsim
from pilotopt.channel import covariance_columns
from pilotopt.errors import InvalidSpecError, NumericError
from pilotopt.mcsim import (
    _BATCH,
    SimResult,
    _batch_errors,
    _latent_system,
    _pilot_blocks,
    _pilot_system,
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
    formed on every cell before the estimator reads the pilot columns.  The
    pilot cells' noise comes from the simulation's generator, drawn where
    ``run_simulation`` draws it; every other cell's noise comes from a
    generator of its own, so an estimator that read those cells would not
    match."""
    P = stats.grid.size
    sigma_p = float(np.sqrt(problem.pilot_power))
    rng = np.random.default_rng(cfg.rng_seed)
    data_cell_rng = np.random.default_rng([cfg.rng_seed, 1])
    W = lmmse_weights(stats, pattern, sigma_p, cfg.noise_var)
    idx = list(pattern.indices)
    per_real = []
    done = 0
    while done < cfg.realizations:
        count = min(_BATCH, cfg.realizations - done)
        G = sample_channels(stats, count, rng)
        X = np.zeros((count, P), dtype=np.complex128)
        X[:, idx] = sigma_p
        parts = data_cell_rng.standard_normal((count, P, 2))
        parts[:, idx] = rng.standard_normal((count, len(idx), 2))
        Y = X * G + np.sqrt(cfg.noise_var / 2.0) * (parts[..., 0] + 1j * parts[..., 1])
        per_real.append((np.abs(G - Y[:, idx] @ W.T) ** 2).mean(axis=1))
        done += count
    per_real = np.concatenate(per_real)
    return SimResult(
        empirical_mse=float(per_real.mean()),
        analytic_mse=analytic_mse(stats, pattern, sigma_p, cfg.noise_var),
        standard_error=float(per_real.std(ddof=1) / np.sqrt(cfg.realizations)),
    )


def assert_same_result(got, ref):
    """The same analytic MSE, and the empirical MSE and its standard error
    to 1e-12 relative."""
    assert got.analytic_mse == ref.analytic_mse
    assert got.empirical_mse == pytest.approx(ref.empirical_mse, rel=1e-12)
    assert got.standard_error == pytest.approx(ref.standard_error, rel=1e-12)


class UnitDraws:
    """A stand-in generator whose ``(count, ..., 2)`` normal draw puts draw c
    on the c-th real unit vector; it records the shapes it is asked for."""

    def __init__(self):
        self.shapes = []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        parts = np.zeros(shape)
        parts.reshape(shape[0], -1, 2)[..., 0] = np.eye(shape[0])
        return parts


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
        # Reference: the same draws coloured by one einsum over the
        # eigenvectors and the square roots of the eigenvalues.
        stats = request.getfixturevalue(stats)
        V, lam = stats.significant_eigvecs, stats.significant_eigvals
        draws = sample_channels(stats, 50, np.random.default_rng(3))
        parts = np.random.default_rng(3).standard_normal((50, lam.size, 2))
        z = (parts[..., 0] + 1j * parts[..., 1]) / np.sqrt(2.0)
        ref = np.einsum("pj,j,cj->cp", V, np.sqrt(lam), z)
        assert np.abs(draws - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("M, N, r", [(12, 14, 34), (48, 28, 82)])
    def test_colouring_covariance_matches_kronecker(self, M, N, r):
        # Deterministic: draw c is the c-th real unit vector, so the draws
        # are the columns of the colouring root L = V sqrt(lambda) over
        # sqrt(2), r of them.  L L^H misses C_t (x) C_f by the eigenpairs
        # below the floor: a relative trace of 1.6e-12 at 12x14 and 8.6e-13
        # at 48x28.
        stats = build_statistics(GridConfig(M, N), ScatteringSpec(spreading_factor=5e-3))
        draws = UnitDraws()
        root = np.sqrt(2.0) * sample_channels(stats, r, draws).T
        assert draws.shapes == [(r, r, 2)]
        C_sampled, C = root @ root.conj().T, full_covariance(stats)
        dropped = 1.0 - np.trace(C_sampled).real / np.trace(C).real
        assert abs(dropped) <= 1e-10
        assert np.linalg.norm(C_sampled - C) <= 1e-10 * np.linalg.norm(C)

    @pytest.mark.parametrize("field, label", [("freq_corr", "frequency"), ("time_corr", "time")])
    def test_non_psd_factor_raises(self, grid_4x4, spec_4x4, field, label, monkeypatch):
        # The draw decomposes nothing: the statistics it reads are the only
        # decomposition, and build_statistics refuses a factor C - 2I.
        builder = {"freq_corr": "build_freq_correlation", "time_corr": "build_time_correlation"}[field]
        build = getattr(channel, builder)
        monkeypatch.setattr(channel, builder, lambda spec, n: build(spec, n) - 2.0 * np.eye(n))
        with pytest.raises(NumericError, match=f"^{label} correlation has eigenvalue"):
            build_statistics(grid_4x4, spec_4x4)

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


def mp_analytic_mse(stats, pattern, sigma_p, noise_var):
    """``analytic_mse`` at 40 significant digits on the same double factors:
    ``(trace(C_g) - sigma_p^2 trace(obs^{-1} Gram)) / P`` with every entry of
    ``obs`` and of the Gram summed in mpmath."""
    with mpmath.workdps(40):
        C_t = [[mpmath.mpf(float(x)) for x in row] for row in stats.time_corr]
        C_f = [[mpmath.mpc(complex(x)) for x in row] for row in stats.freq_corr]

        def gram_entry(C, a, b):
            return mpmath.fsum(mpmath.conj(C[k][a]) * C[k][b] for k in range(len(C)))

        M, K = stats.grid.M, len(pattern)
        m = [i % M for i in pattern.indices]
        n = [i // M for i in pattern.indices]
        s2, nv = mpmath.mpf(sigma_p) ** 2, mpmath.mpf(noise_var)
        obs, gram = mpmath.matrix(K, K), mpmath.matrix(K, K)
        for a in range(K):
            for b in range(K):
                obs[a, b] = s2 * C_t[n[a]][n[b]] * C_f[m[a]][m[b]] + (nv if a == b else 0)
                gram[a, b] = gram_entry(C_t, n[a], n[b]) * gram_entry(C_f, m[a], m[b])
        obs_inv = mpmath.inverse(obs)
        reduction = s2 * mpmath.fsum(obs_inv[a, b] * gram[b, a] for a in range(K) for b in range(K))
        total = mpmath.fsum(C_t[i][i] for i in range(len(C_t))) * mpmath.fsum(
            C_f[i][i] for i in range(len(C_f))
        )
        return mpmath.re((total - reduction) / stats.grid.size)


class TestPilotSystem:
    """The K x K pilot system built from the Kronecker factors."""

    @pytest.mark.parametrize("stats, K", [("stats_4x4", 3), ("stats_rb", 17), ("stats_big", 134)])
    def test_factor_blocks_match_dense_columns(self, stats, K, request):
        stats = request.getfixturevalue(stats)
        idx = np.sort(np.random.default_rng(K).choice(stats.grid.size, size=K, replace=False))
        C_ss, gram = _pilot_blocks(stats, idx)
        C_cols = covariance_columns(stats, idx)
        dense_ss, dense_gram = C_cols[idx, :], C_cols.conj().T @ C_cols
        assert np.linalg.norm(C_ss - dense_ss) <= 1e-13 * np.linalg.norm(dense_ss)
        assert np.linalg.norm(gram - dense_gram) <= 1e-13 * np.linalg.norm(dense_gram)

    @pytest.mark.parametrize(
        "M, N, spreading, snr_db, K",
        [
            (12, 14, 5e-3, 20.0, 17),
            (12, 14, 1e-2, 40.0, 17),
            (24, 14, 5e-3, 20.0, 34),
            (24, 14, 1e-3, 30.0, 34),
        ],
    )
    def test_analytic_mse_matches_40_digit_reference(self, M, N, spreading, snr_db, K):
        stats = build_statistics(GridConfig(M, N), ScatteringSpec(spreading_factor=spreading))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # K > N exceeds the block power budget
            problem = make_design_problem(stats, K=K, snr_db=snr_db)
        pattern = greedy_design(problem).pattern
        sigma_p = float(np.sqrt(problem.pilot_power))
        reference = mp_analytic_mse(stats, pattern, sigma_p, problem.noise_var)
        got = analytic_mse(stats, pattern, sigma_p, problem.noise_var)
        assert abs(got - reference) <= 1e-8 * reference

    def test_weights_solve_the_pilot_system(self, stats_rb, problem_rb):
        # W is the LMMSE solution: W obs = sigma_p C_g[:, S].
        pattern = greedy_design(problem_rb).pattern
        idx = np.array(pattern.indices)
        sigma_p, noise_var = float(np.sqrt(problem_rb.pilot_power)), problem_rb.noise_var
        W = lmmse_weights(stats_rb, pattern, sigma_p, noise_var)
        C_cols = covariance_columns(stats_rb, idx)
        obs = sigma_p**2 * C_cols[idx, :] + noise_var * np.eye(idx.size)
        assert np.abs(W @ obs - sigma_p * C_cols).max() <= 1e-12 * sigma_p


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
        assert_same_result(
            run_simulation(stats, problem, pattern, cfg), full_block_simulation(stats, problem, pattern, cfg)
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

    def test_grid_mismatch_rejected(self, stats_rb, problem_rb, problem_4x4):
        """A pattern or problem from another grid is refused, not scored: the
        flat indices of a 4x4 pattern are cells of 12x14 too."""
        foreign = PilotPattern((0, 5, 10, 15), GridConfig(4, 4))
        cfg = SimConfig(realizations=10, rng_seed=0, noise_var=0.1)
        wrong_pattern = "^pattern grid does not match the statistics grid$"
        with pytest.raises(InvalidSpecError, match=wrong_pattern):
            analytic_mse(stats_rb, foreign, 1.0, 0.1)
        with pytest.raises(InvalidSpecError, match=wrong_pattern):
            lmmse_weights(stats_rb, foreign, 1.0, 0.1)
        with pytest.raises(InvalidSpecError, match=wrong_pattern):
            run_simulation(stats_rb, problem_rb, foreign, cfg)
        own = PilotPattern((0, 5, 10, 15), stats_rb.grid)
        with pytest.raises(InvalidSpecError, match="^problem grid does not match the statistics grid$"):
            run_simulation(stats_rb, problem_4x4, own, cfg)


class TestDrawAssembly:
    """The complex views of the normal draws and the ``take`` gathers match
    the list-indexed ``a + 1j*b`` reference coloured by the dense root
    ``L = V sqrt(lambda)``, to 1e-12, and leave the generator where it
    leaves it."""

    @pytest.mark.parametrize("stats", ["stats_4x4", "stats_rb", "stats_big"])
    def test_sample_channels_matches_reference(self, stats, request):
        stats = request.getfixturevalue(stats)
        rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        for count in (1, 250):
            got, ref = sample_channels(stats, count, rng), reference_sample_channels(stats, count, ref_rng)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
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
            assert_same_result(
                run_simulation(stats, problem, pattern, cfg),
                reference_run_simulation(stats, problem, pattern, cfg),
            )

    @pytest.mark.parametrize("K, realizations", [(14, _BATCH + 100), (0, 20)])
    def test_draws_factor_ranks_then_pilot_noise(self, stats_rb, K, realizations, monkeypatch):
        # Per batch, exactly count*r channel normals, r the number of
        # significant eigenpairs, and count*K pilot noise normals, all
        # complex, so two real normals each.
        problem = make_design_problem(stats_rb, K=max(K, 1), snr_db=10.0)
        pattern = greedy_design(problem).pattern if K else PilotPattern((), stats_rb.grid)
        made, default_rng = [], np.random.default_rng

        def recording_rng(seed):
            made.append(default_rng(seed))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        run_simulation(stats_rb, problem, pattern, SimConfig(realizations, 5, problem.noise_var))
        ref = default_rng(5)
        for start in range(0, realizations, _BATCH):
            count = min(_BATCH, realizations - start)
            ref.standard_normal(2 * count * stats_rb.significant_eigvals.size)
            ref.standard_normal(2 * count * K)
        assert len(made) == 1
        assert made[0].bit_generator.state == ref.bit_generator.state


class TestLatentEstimate:
    """``run_simulation`` estimates and scores the error on the latent draw;
    the grid-form estimate ``W y_S`` and its error over all P cells are the
    reference."""

    @pytest.mark.filterwarnings("ignore:power_fraction")
    @pytest.mark.parametrize("M, N, K, count", [(12, 14, 17, 1000), (48, 28, 134, 250)])
    def test_batch_errors_match_grid_errors(self, M, N, K, count):
        stats = build_statistics(GridConfig(M, N), ScatteringSpec(spreading_factor=5e-3))
        problem = make_design_problem(stats, K=K, snr_db=20.0)
        pattern = greedy_design(problem).pattern
        idx = np.array(pattern.indices, dtype=np.intp)
        sigma_p, noise_var = float(np.sqrt(problem.pilot_power)), problem.noise_var
        noise_scale = np.sqrt(noise_var / 2.0)
        gain, _ = _pilot_system(stats, idx, sigma_p, noise_var)
        rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
        got = _batch_errors(rng, count, *_latent_system(stats, idx, gain, sigma_p), noise_scale)
        g = sample_channels(stats, count, ref_rng)
        parts = ref_rng.standard_normal((count, K, 2))
        y = sigma_p * g[:, idx] + noise_scale * (parts[..., 0] + 1j * parts[..., 1])
        W = lmmse_weights(stats, pattern, sigma_p, noise_var)
        ref = np.sum(np.abs(g - y @ W.T) ** 2, axis=1)
        # Relative over the batch (3.7e-13 at 48x28): single realizations
        # differ by up to 2.1e-12, because the latent estimator is built on
        # the covariance of the drawn channel, which misses C_g by 8.4e-13
        # relative (the dropped and the rounded eigenpairs).
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_no_grid_form_is_used(self, stats_rb, problem_rb, monkeypatch):
        pattern = greedy_design(problem_rb).pattern
        cfg = SimConfig(realizations=300, rng_seed=4, noise_var=problem_rb.noise_var)
        expected = run_simulation(stats_rb, problem_rb, pattern, cfg)

        def grid_form(*args, **kwargs):
            raise AssertionError("run_simulation formed a grid-sized array")

        monkeypatch.setattr(channel, "covariance_columns", grid_form)
        for name in ("covariance_columns", "sample_channels", "lmmse_weights"):
            monkeypatch.setattr(mcsim, name, grid_form)
        assert run_simulation(stats_rb, problem_rb, pattern, cfg) == expected

    def test_no_eigendecomposition_is_run(self, stats_rb, problem_rb, monkeypatch):
        # The draw runs on the eigenpairs the statistics hold.
        pattern = greedy_design(problem_rb).pattern
        cfg = SimConfig(realizations=300, rng_seed=4, noise_var=problem_rb.noise_var)
        expected = run_simulation(stats_rb, problem_rb, pattern, cfg)

        def decomposition(*args, **kwargs):
            raise AssertionError("run_simulation ran an eigendecomposition")

        monkeypatch.setattr(np.linalg, "eigh", decomposition)
        monkeypatch.setattr(channel, "_factor_eigh", decomposition)
        assert run_simulation(stats_rb, problem_rb, pattern, cfg) == expected


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
