import warnings

import numpy as np
import pytest
from scipy.linalg import lapack

from pilotopt import (
    FractionalAllocation,
    GridConfig,
    PilotPattern,
    ScatteringSpec,
    build_statistics,
    make_design_problem,
)
from pilotopt.mcsim import _BATCH, SimResult, _factor_sqrt, analytic_mse, lmmse_weights
from pilotopt.objective import gradient_from_inverse

# The design points of the benchmark's rb-sweep workload: 12x14 at 20 dB, the
# density sweep at spreading 5e-3 and the spreading sweep at three more.
RB_DENSITIES = (0.05, 0.08, 0.1, 0.15, 0.2, 0.3)
RB_SWEEP_POINTS = tuple((0.005, d) for d in RB_DENSITIES) + tuple(
    (s, d) for d in RB_DENSITIES for s in (0.0001, 0.001, 0.01)
)


def full_covariance(stats):
    """Dense grid covariance ``C_g = C_t (x) C_f``, for small-grid references."""
    return np.kron(stats.time_corr, stats.freq_corr)


def dense_lmmse(stats, pattern, sigma_p, noise_var, data_power=0.0):
    """Full-grid LMMSE reference, independent of the pilot-restricted code.

    The received block is ``y = x * g + n`` with pilots of amplitude
    ``sigma_p`` on ``pattern`` and, when ``data_power > 0``, zero-mean data
    symbols of that power on every other cell, whose interference enters the
    observation covariance.  Returns the P x P estimator ``W`` (``g_hat = W y``)
    and the error covariance ``C_g - W C_gy^H``.
    """
    P = stats.grid.size
    C_g = full_covariance(stats)
    x_p = np.zeros(P, dtype=np.complex128)
    idx = list(pattern.indices)
    x_p[idx] = sigma_p
    B_p = np.diag(x_p)
    C_gy = C_g @ B_p.conj().T
    C_y = B_p @ C_g @ B_p.conj().T + noise_var * np.eye(P)
    data = np.ones(P)
    data[idx] = 0.0
    C_y += np.diag(data_power * data * np.diag(C_g).real)
    W = np.linalg.solve(C_y.conj().T, C_gy.conj().T).conj().T
    return W, C_g - W @ C_gy.conj().T


def reference_information_inverse(problem, pattern):
    """``A^{-1}`` with the operation order of the information matrix as
    first written, ``diag(1/prior)`` plus ``alpha * U^H diag(w) U``, inverted
    by LAPACK's Cholesky routines: ``zpotrf`` factors the lower triangle,
    ``zpotri`` fills the lower triangle of the inverse, and that triangle is
    mirrored."""
    A = np.diag(1.0 / problem.prior).astype(np.complex128)
    if isinstance(pattern, PilotPattern):
        U_sel = problem.rows[list(pattern.indices)]
        A += problem.pilot_snr * U_sel.conj().T @ U_sel
    else:
        w = pattern.weights if isinstance(pattern, FractionalAllocation) else pattern
        A += problem.pilot_snr * (problem.rows.conj().T * w) @ problem.rows
    factor, info = lapack.zpotrf(A, lower=True)
    assert info == 0, info
    inverse, info = lapack.zpotri(factor, lower=True)
    assert info == 0, info
    return np.tril(inverse) + np.tril(inverse, -1).conj().T


def reference_projection(v, K):
    """The capped-simplex breakpoint projection as first written, with its
    own temporaries; ``project_capped_simplex`` must match it bit for bit."""
    v = np.asarray(v, dtype=float)
    P = v.size
    if K == P:
        return np.ones(P)
    if K == 0:
        return np.zeros(P)
    u = np.sort(v)
    csum = np.concatenate(([0.0], np.cumsum(u)))
    theta = np.sort(np.concatenate((u - 1.0, u)))
    lo = np.searchsorted(u, theta, side="right")
    hi = np.searchsorted(u - 1.0, theta, side="right")
    n_free = hi - lo
    total = (P - hi) + (csum[hi] - csum[lo]) - theta * n_free
    j = int(np.argmax(total <= K)) - 1
    shift = (u[lo[j] : hi[j]].sum() + (P - hi[j]) - K) / n_free[j]
    return np.clip(v - shift, 0.0, 1.0)


def reference_solve_relaxation(problem, tol=1e-6, max_iters=5000):
    """The SPG2 loop that forms the unit-step residual at every iterate, on
    the reference inverse and projection: one projection per iteration,
    halving backtracking along it, acceptance against the largest of the
    last 10 objectives."""
    P, K = problem.grid.size, problem.budget
    w = np.full(P, K / P)
    A_inv = reference_information_inverse(problem, w)
    f = float(np.trace(A_inv).real)
    grad = gradient_from_inverse(problem, A_inv)
    best_w, best_f = w.copy(), f
    history = [f]
    lam = 1.0 / max(float(np.abs(grad).max()), 1e-12)
    converged = False

    iterations = 0
    while True:
        residual = float(np.linalg.norm(w - reference_projection(w - grad, K)))
        if residual <= tol:
            converged = True
            break
        if iterations == max_iters:
            break
        proj = reference_projection(w - lam * grad, K)
        d = proj - w
        if not d.any():
            break
        f_ref = max(history[-10:])
        w_new = f_new = None
        s = 1.0
        for _ in range(60):
            cand = proj if s == 1.0 else w + s * d
            A_inv = reference_information_inverse(problem, cand)
            f_cand = float(np.trace(A_inv).real)
            if f_cand <= f_ref + s * (1e-4 * float(grad @ d)):
                w_new, f_new = cand, f_cand
                break
            s *= 0.5
        if w_new is None:
            break
        grad_new = gradient_from_inverse(problem, A_inv)
        dw, dg = w_new - w, grad_new - grad
        if float(dw @ dg) > 0:
            lam = min(max(float(dw @ dw) / float(dw @ dg), 1e-12), 1e12)
        else:
            lam = 1e12
        w, f, grad = w_new, f_new, grad_new
        history.append(f)
        iterations += 1
        if f < best_f:
            best_w, best_f = w.copy(), f

    if not converged:
        warnings.warn(
            f"relaxation stopped after {iterations} iterations at residual "
            f"{residual:.3g} > tol={tol:g}; returning best iterate",
            stacklevel=2,
        )
    return FractionalAllocation(
        weights=best_w, budget=K, converged=converged, iterations=iterations, residual=residual
    )


def reference_sample_channels(stats, count, rng):
    """The channel draw with Z assembled as first written, ``a + 1j*b`` from
    the real and imaginary planes of the normal draw, then divided by
    ``sqrt(2)``; ``sample_channels`` must match it bit for bit."""
    M, N = stats.grid.M, stats.grid.N
    L_f = _factor_sqrt(stats.freq_corr)
    L_t = _factor_sqrt(stats.time_corr.astype(np.complex128))
    parts = rng.standard_normal((count, M, N, 2))
    Z = (parts[..., 0] + 1j * parts[..., 1]) / np.sqrt(2.0)
    G = L_f @ Z @ L_t.T
    return G.transpose(0, 2, 1).reshape(count, M * N)


def reference_run_simulation(stats, problem, pattern, cfg):
    """``run_simulation`` as first written: the reference channel draw, the
    pilot noise and channel gathered with list indexing and the noise
    assembled as ``scale * (a + 1j*b)``."""
    P = stats.grid.size
    sigma_p = float(np.sqrt(problem.pilot_power))
    rng = np.random.default_rng(cfg.rng_seed)
    W = lmmse_weights(stats, pattern, sigma_p, cfg.noise_var)
    idx = list(pattern.indices)
    per_real = np.empty(cfg.realizations)
    done = 0
    while done < cfg.realizations:
        count = min(_BATCH, cfg.realizations - done)
        G = reference_sample_channels(stats, count, rng)
        parts = rng.standard_normal((count, P, 2))[:, idx]
        noise = np.sqrt(cfg.noise_var / 2.0) * (parts[..., 0] + 1j * parts[..., 1])
        G_hat = (sigma_p * G[:, idx] + noise) @ W.T
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


@pytest.fixture(scope="session")
def grid_4x4():
    return GridConfig(4, 4)


@pytest.fixture(scope="session")
def spec_4x4():
    # Uniform profiles keep the tiny-grid oracle arithmetic transparent.
    return ScatteringSpec(
        spreading_factor=0.09,
        normalized_delay_spread=0.3,
        normalized_doppler_spread=0.3,
        delay_profile="uniform",
        doppler_spectrum="uniform",
    )


@pytest.fixture(scope="session")
def stats_4x4(grid_4x4, spec_4x4):
    return build_statistics(grid_4x4, spec_4x4)


@pytest.fixture(scope="session")
def problem_4x4(stats_4x4):
    return make_design_problem(stats_4x4, K=3, snr_db=10.0)


@pytest.fixture(scope="session")
def grid_rb():
    """A 5G-style resource block grid."""
    return GridConfig(12, 14)


@pytest.fixture(scope="session")
def stats_rb(grid_rb):
    return build_statistics(grid_rb, ScatteringSpec(spreading_factor=0.001))


@pytest.fixture(scope="session")
def problem_rb(stats_rb):
    return make_design_problem(stats_rb, K=14, snr_db=10.0)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def stats_big():
    """The 48x28 grid, where the scaling problems show."""
    return build_statistics(GridConfig(48, 28), ScatteringSpec(spreading_factor=0.005))


@pytest.fixture(scope="session")
def problem_big(stats_big):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # K > N exceeds the block power budget
        return make_design_problem(stats_big, K=134, snr_db=20.0)


@pytest.fixture(scope="session")
def rb_sweep_problems(grid_rb):
    """``{(spreading, density): problem}`` of ``RB_SWEEP_POINTS``."""
    stats = {
        s: build_statistics(grid_rb, ScatteringSpec(spreading_factor=s))
        for s in sorted({s for s, _ in RB_SWEEP_POINTS})
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # K > N exceeds the block power budget
        return {
            (s, d): make_design_problem(stats[s], K=round(d * grid_rb.size), snr_db=20.0)
            for s, d in RB_SWEEP_POINTS
        }
