import numpy as np
import pytest

from pilotopt import (
    GridConfig,
    ScatteringSpec,
    build_statistics,
    make_design_problem,
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
