"""A-optimal pilot pattern design for LMMSE channel estimation on finite
OFDM time-frequency grids over doubly dispersive channels."""

from .channel import (
    DelayProfile,
    DopplerSpectrum,
    GridConfig,
    ScatteringSpec,
    build_freq_correlation,
    build_statistics,
    build_time_correlation,
)
from .mcsim import SimConfig, run_simulation
from .objective import (
    DesignProblem,
    FractionalAllocation,
    PilotPattern,
    average_mse,
    build_A,
    compute_alpha,
    make_design_problem,
    objective_gradient,
    objective_value,
)
from .optimizers import (
    LatticeParams,
    best_lattice,
    dependent_rounding,
    exhaustive_search,
    greedy_design,
    lattice_pattern,
    local_swap,
    project_capped_simplex,
    solve_relaxation,
)

__version__ = "0.1.0"

__all__ = [
    "DelayProfile",
    "DesignProblem",
    "DopplerSpectrum",
    "FractionalAllocation",
    "GridConfig",
    "LatticeParams",
    "PilotPattern",
    "ScatteringSpec",
    "SimConfig",
    "average_mse",
    "best_lattice",
    "build_A",
    "build_freq_correlation",
    "build_statistics",
    "build_time_correlation",
    "compute_alpha",
    "dependent_rounding",
    "exhaustive_search",
    "greedy_design",
    "lattice_pattern",
    "local_swap",
    "make_design_problem",
    "objective_gradient",
    "objective_value",
    "project_capped_simplex",
    "run_simulation",
    "solve_relaxation",
]
