# One BLAS and OpenMP thread for the whole suite, whatever the environment
# sets.  A threaded BLAS sums in another order, and the 48x28 relaxation
# test holds its 1e-10 bound against the reference loop only with one
# thread (unpinned on 2 vCPUs it ends 1.0e-8 relative above it, in 25 s
# instead of 3).  OpenBLAS reads these variables once, when numpy is first
# imported, so they are set before any import below; no pytest plugin
# imports numpy before this file loads.
import dataclasses
import functools
import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import warnings

import numpy as np
import pytest
from scipy.linalg import lapack

from pilotopt import (
    DesignProblem,
    FractionalAllocation,
    GridConfig,
    PilotPattern,
    ScatteringSpec,
    build_statistics,
    compute_alpha,
    make_design_problem,
)
from pilotopt.mcsim import _BATCH, SimResult, lmmse_weights
from pilotopt.errors import DegenerateUpdateError, InfeasibleAllocationError
from pilotopt.objective import (
    ROUNDING_EPS,
    _hermitian_inverse,
    _row_terms,
    gains_for_candidates,
    gradient_from_inverse,
    pattern_inverse,
)
from pilotopt.optimizers import TIE_BAND

# The design points of the benchmark's rb-sweep workload: 12x14 at 20 dB, the
# density sweep at spreading 5e-3 and the spreading sweep at three more.
RB_DENSITIES = (0.05, 0.08, 0.1, 0.15, 0.2, 0.3)
RB_SWEEP_POINTS = tuple((0.005, d) for d in RB_DENSITIES) + tuple(
    (s, d) for d in RB_DENSITIES for s in (0.0001, 0.001, 0.01)
)


def reflection(grid, axis):
    """Flat index map of the grid reflected in m, in n, or in both."""
    m = np.arange(grid.size) % grid.M
    n = np.arange(grid.size) // grid.M
    if axis in ("m", "both"):
        m = grid.M - 1 - m
    if axis in ("n", "both"):
        n = grid.N - 1 - n
    return (n * grid.M + m).astype(np.intp)


def permuted_problem(problem, seed=6):
    """``problem`` with its rows permuted at random, as in
    ``test_permutation_equivariance``: the same objectives up to the
    permutation, but no grid reflection leaves it invariant."""
    perm = np.random.default_rng(seed).permutation(problem.grid.size)
    return dataclasses.replace(problem, rows=problem.rows[perm])


def random_rows_problem(grid=GridConfig(12, 14), r=10, K=8, seed=3):
    """A problem whose basis rows are complex Gaussian, with no symmetry."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(grid.size, r)) + 1j * rng.normal(size=(grid.size, r))
    return DesignProblem(
        grid=grid,
        rows=rows / np.sqrt(2 * grid.size),
        prior=np.linspace(2.0, 0.1, r),
        budget=K,
        power_fraction=K / grid.N,
        noise_var=0.01,
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


def covariance_columns(stats, indices):
    """Columns ``C_g[:, indices]`` assembled from the Kronecker factors."""
    idx = np.asarray(indices, dtype=int)
    m_idx, n_idx = idx % stats.grid.M, idx // stats.grid.M
    cols = stats.time_corr[:, n_idx][:, None, :] * stats.freq_corr[:, m_idx][None, :, :]
    return cols.reshape(stats.grid.size, len(idx))


def reference_pilot_blocks(stats, idx):
    """``C_SS = C_g[S, S]`` and the Gram ``C_g[:, S]^H C_g[:, S]`` of the
    pilot indices ``idx``, from the Kronecker factors.

    With n and m the pilots' symbol and subcarrier indices,
    ``C_SS = C_t[n, n] * C_f[m, m]`` entrywise; since
    ``C_g^H C_g = C_t^H C_t (x) C_f^H C_f``, the Gram is
    ``(C_t^H C_t)[n, n] * (C_f^H C_f)[m, m]``.  Costs O(N^3 + M^3 + K^2);
    the P x K columns are never formed.
    """
    m, n = idx % stats.grid.M, idx // stats.grid.M
    mm, nn = np.ix_(m, m), np.ix_(n, n)
    C_t, C_f = stats.time_corr, stats.freq_corr
    C_ss = C_t[nn] * C_f[mm]
    gram = (C_t.conj().T @ C_t)[nn] * (C_f.conj().T @ C_f)[mm]
    return C_ss, gram


def reference_pilot_system(stats, idx, sigma_p, noise_var):
    """The K x K pilot-domain LMMSE system of the pilot indices ``idx``, the
    dense reference of the information form: the gain
    ``sigma_p (sigma_p^2 C_SS + noise I)^{-1}`` and the average MSE.

    The LMMSE weights are ``W = C_g[:, S] @ gain`` and the error is
    ``(trace(C_g) - sigma_p trace(gain Gram)) / P``.  One K x K Cholesky
    inverse on the factor-built blocks, O(N^3 + M^3 + K^3) in all; LAPACK
    rejects a 0 x 0 matrix, so an empty pattern gets its empty gain
    directly.  The subtraction takes a number of size P*MSE from two of size
    P, so digits cancel as the SNR grows: against a 45-digit evaluation on
    12x14, spreading 5e-3, K = 17 (greedy pattern), the relative error is
    5.5e-12 at 20 dB, 1.6e-8 at 40 dB and 1.5e-3 at 80 dB, and on 48x28,
    K = 134 the value turns negative by 80 dB.
    """
    C_ss, gram = reference_pilot_blocks(stats, idx)
    if idx.size:
        obs = sigma_p**2 * C_ss + noise_var * np.eye(idx.size)
        gain = sigma_p * _hermitian_inverse(obs)
    else:
        gain = np.zeros((0, 0), dtype=np.complex128)
    # trace(gain @ gram) as an entrywise sum, O(K^2).
    reduction = sigma_p * float(np.sum(gain * gram.T).real)
    total_power = np.trace(stats.freq_corr).real * np.trace(stats.time_corr).real
    return gain, (total_power - reduction) / stats.grid.size


def reference_lmmse_weights(stats, pattern, sigma_p, noise_var):
    """``W = sigma_p C_g[:, S] (sigma_p^2 C_g[S, S] + noise I)^{-1}`` (P x K)
    from the K x K pilot system."""
    idx = np.array(pattern.indices, dtype=np.intp)
    gain, _ = reference_pilot_system(stats, idx, sigma_p, noise_var)
    return covariance_columns(stats, idx) @ gain


def reference_analytic_mse(stats, pattern, sigma_p, noise_var):
    """``trace(C_e)/(M*N)`` from the K x K pilot system, without rank
    truncation."""
    idx = np.array(pattern.indices, dtype=np.intp)
    return reference_pilot_system(stats, idx, sigma_p, noise_var)[1]


def reference_average_mse(stats, pattern, pilot_snr):
    """The average MSE from the statistics alone, with no ``DesignProblem``:
    ``trace(A^{-1}) / (M*N)`` of the information matrix
    ``diag(1/lambda) + alpha U_S^H U_S`` (for an allocation,
    ``alpha U^H diag(w) U``) on every significant eigenpair of ``stats`` at
    pilot SNR ``pilot_snr``, inverted by LAPACK's Cholesky routines, with
    the diagonal of the inverse's lower triangle summed as it is.
    ``average_mse`` must match it bit for bit."""
    U = stats.significant_eigvecs
    A = np.diag(1.0 / stats.significant_eigvals).astype(np.complex128)
    if isinstance(pattern, PilotPattern):
        idx = np.array(pattern.indices, dtype=np.intp)
        A = A + (pilot_snr * U.conj()[idx].T) @ U[idx]
    else:
        w = pattern.weights if isinstance(pattern, FractionalAllocation) else pattern
        A = A + (pilot_snr * (U.conj().T * np.asarray(w, dtype=float))) @ U
    factor, info = lapack.zpotrf(A, lower=True)
    assert info == 0, info
    inverse, info = lapack.zpotri(factor, lower=True)
    assert info == 0, info
    return float(np.diagonal(inverse).real.sum()) / stats.grid.size


def amplitude_problem(stats, sigma_p, noise_var):
    """A one-pilot-budget design problem on ``stats`` whose pilots have
    amplitude ``sigma_p`` at noise variance ``noise_var``: power fraction
    ``sigma_p^2 / N``, so pilot SNR ``sigma_p^2 / noise_var`` up to rounding.
    The estimator and the analytic MSE take their pilot power from a
    problem; this is how a test asks for a given amplitude, for a pattern
    of any size."""
    return DesignProblem(
        grid=stats.grid,
        rows=stats.eigvecs,
        prior=stats.eigvals,
        budget=1,
        power_fraction=sigma_p**2 / stats.grid.N,
        noise_var=noise_var,
    )


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


def reference_lattice(grid, f_sp, t_sp, f_off=0, t_off=0, staggered=False):
    """Sorted flat indices of a lattice, built column by column as first
    written: the subcarriers ``f_off, f_off + f_sp, ...`` in the symbols
    ``t_off, t_off + t_sp, ...``; a diamond (``staggered``) shifts the
    subcarriers of every second of those symbols by ``f_sp // 2`` and drops
    the shifted pilots that fall off the grid edge."""
    rows = np.arange(f_off, grid.M, f_sp)
    cols = np.arange(t_off, grid.N, t_sp)
    indices = []
    for pos, n in enumerate(cols):
        m_vals = rows
        if staggered and pos % 2 == 1:
            m_vals = rows + f_sp // 2
            m_vals = m_vals[m_vals < grid.M]
        indices.extend(int(n) * grid.M + int(m) for m in m_vals)
    return tuple(sorted(indices))


@functools.lru_cache(maxsize=None)
def reference_lattices(grid, staggered):
    """``(params, indices)`` of every lattice of one shape on ``grid``, with
    ``params = (f_sp, t_sp, f_off, t_off)``, in that lexicographic order: the
    order in which ``best_lattice`` scores them; a tuple, since it is cached."""
    return tuple(
        ((f_sp, t_sp, f_off, t_off), reference_lattice(grid, f_sp, t_sp, f_off, t_off, staggered))
        for f_sp in range(1, grid.M + 1)
        for t_sp in range(1, grid.N + 1)
        for f_off in range(f_sp)
        for t_off in range(t_sp)
    )


def reference_marginal_gain(problem, A_inv, j):
    """Objective decrease from adding row j to the pattern whose inverse is
    ``A_inv``, from that row's own Sherman-Morrison terms: the per-pair
    reference of the gains greedy screens."""
    return float(gains_for_candidates(A_inv, problem.rows[j : j + 1], problem.pilot_snr)[0])


def reference_greedy(problem):
    """Greedy selection by reinversion, the reference of the row terms
    ``greedy_design`` carries: each pick takes the gains of
    ``gains_for_candidates`` on ``pattern_inverse`` of the picks so far and
    the lowest unpicked index within ``TIE_BAND`` times that inverse's trace
    of the largest gain.  Returns the picks in the order they were made."""
    picks = []
    for _ in range(problem.budget):
        A_inv = pattern_inverse(problem, np.array(sorted(picks), dtype=np.intp))
        gains = gains_for_candidates(A_inv, problem.rows, problem.pilot_snr)
        gains[picks] = -1.0
        band = TIE_BAND * float(np.trace(A_inv).real)
        picks.append(int(np.flatnonzero(gains >= gains.max() - band)[0]))
    return picks


def reference_dependent_rounding(allocation, rng_seed, grid):
    """Dependent rounding that writes every step's pair back to a copy of
    the fractional weights and reads the pilots off that copy after the
    scan: the reference of ``optimizers.dependent_rounding``, which decides
    each cell when it is pinned.  The same pairing, draws and arithmetic, so
    both return the same pattern or raise the same error."""
    w, plan = allocation.weights, allocation.plan
    if grid.size != w.size:
        raise InfeasibleAllocationError("allocation length does not match the grid")

    rng = np.random.default_rng(rng_seed)
    eps = ROUNDING_EPS
    values = list(plan.values)
    draws = iter(rng.random(max(len(values) - 1, 0)).tolist())
    i = ci = None  # position in ``values`` and value of the fractional survivor
    for j, cj in enumerate(values):
        if i is None:
            i, ci = j, cj
            continue
        up, down = 1.0 - ci, 1.0 - cj
        d_plus = up if up < cj else cj
        d_minus = ci if ci < down else down
        if next(draws) <= d_minus / (d_plus + d_minus):
            ci, cj = ci + d_plus, cj - d_plus
        else:
            ci, cj = ci - d_minus, cj + d_minus
        values[i], values[j] = ci, cj
        if not eps < ci < 1.0 - eps:
            i, ci = (j, cj) if eps < cj < 1.0 - eps else (None, None)

    # Entries outside (eps, 1 - eps) are already pinned; clipping them to
    # [0, 1] would not move them across 0.5.
    indices = plan.fixed_ones + tuple(k for k, x in zip(plan.fractional, values) if x > 0.5)
    if len(indices) != allocation.budget:
        raise InfeasibleAllocationError(
            f"rounding produced {len(indices)} pilots, expected {allocation.budget}"
        )
    return PilotPattern(indices, grid)


def reference_removal(problem, A_inv, i):
    """Objective increase and Hermitian downdated ``A^{-1}`` of removing the
    selected row i, from that row's own Sherman-Morrison terms."""
    alpha = problem.pilot_snr
    Y, quad, norm2 = _row_terms(A_inv, problem.rows[i : i + 1])
    denom = float(1.0 - alpha * quad[0])
    if denom <= 1e-12:
        raise DegenerateUpdateError(f"removal of {i} hit denominator {denom:g}")
    increase = float(alpha * norm2[0] / denom)
    A_inv_without = A_inv + (alpha / denom) * np.outer(Y[0].conj(), Y[0])
    return increase, 0.5 * (A_inv_without + A_inv_without.conj().T)


def reference_swap_delta(problem, A_inv, i, j):
    """Objective change of swapping selected i for unselected j, negative when
    it improves, from two single-row updates: remove i, then add j.  The
    per-pair reference of the swap screen."""
    increase, A_inv_without = reference_removal(problem, A_inv, i)
    return increase - reference_marginal_gain(problem, A_inv_without, j)


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
    """The channel draw coloured densely: z assembled as ``a + 1j*b`` from the
    planes of a ``(count, r, 2)`` normal draw and divided by ``sqrt(2)``, then
    multiplied by the P x r root ``L = V sqrt(lambda)`` on the significant
    eigenpairs of the statistics; ``sample_channels`` must match it to
    1e-12."""
    L = stats.significant_eigvecs * np.sqrt(stats.significant_eigvals)
    parts = rng.standard_normal((count, L.shape[1], 2))
    z = (parts[..., 0] + 1j * parts[..., 1]) / np.sqrt(2.0)
    return z @ L.T


def pilot_amplitude(problem):
    """The pilot amplitude ``sigma_p = sqrt(beta N / K)`` of ``problem``, from
    its pilot SNR and noise."""
    return float(np.sqrt(problem.pilot_snr * problem.noise_var))


def simulation_pilot_snr(problem, cfg):
    """The pilot SNR of a simulation of ``problem`` under ``cfg``: the
    problem's power fraction over the simulated noise, by ``compute_alpha``
    as for every other pilot SNR."""
    return compute_alpha(problem.power_fraction, problem.grid.N, problem.budget, cfg.noise_var)


def reference_run_simulation(stats, problem, pattern, cfg):
    """``run_simulation`` written plainly: the reference channel draw, the
    pilot noise assembled as ``scale * (a + 1j*b)`` from a ``(count, K, 2)``
    draw, the pilot channel gathered with list indexing and the grid weights
    of ``lmmse_weights``; the analytic value is ``reference_average_mse``
    at the simulation's pilot SNR."""
    sigma_p = pilot_amplitude(problem)
    rng = np.random.default_rng(cfg.rng_seed)
    W = lmmse_weights(stats, problem, pattern, cfg.noise_var)
    idx = list(pattern.indices)
    per_real = np.empty(cfg.realizations)
    done = 0
    while done < cfg.realizations:
        count = min(_BATCH, cfg.realizations - done)
        G = reference_sample_channels(stats, count, rng)
        parts = rng.standard_normal((count, len(idx), 2))
        noise = np.sqrt(cfg.noise_var / 2.0) * (parts[..., 0] + 1j * parts[..., 1])
        G_hat = (sigma_p * G[:, idx] + noise) @ W.T
        err2 = np.abs(G - G_hat) ** 2
        per_real[done : done + count] = err2.mean(axis=1)
        done += count
    empirical = float(per_real.mean())
    se = float(per_real.std(ddof=1) / np.sqrt(cfg.realizations)) if cfg.realizations > 1 else 0.0
    return SimResult(
        empirical_mse=empirical,
        analytic_mse=reference_average_mse(stats, pattern, simulation_pilot_snr(problem, cfg)),
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
