"""Exception types shared across the package."""


class PilotOptError(Exception):
    """Base class for all package-specific errors."""


class InvalidSpecError(PilotOptError, ValueError):
    """A grid or scattering specification is malformed."""


class BudgetError(PilotOptError, ValueError):
    """The pilot budget K is outside [1, M*N] or otherwise unusable."""


class InfeasibleAllocationError(PilotOptError, ValueError):
    """A fractional allocation cannot be rounded onto the given grid."""


class DegenerateUpdateError(PilotOptError, ArithmeticError):
    """A rank-one downdate hit a numerically vanishing denominator."""


class LatticeError(PilotOptError, ValueError):
    """Lattice parameters are invalid for the grid or produce no pilots."""


class NoFeasibleLatticeError(LatticeError):
    """No lattice pattern exists with a pilot count in [K-2, K]."""


class ComplexityGuardError(PilotOptError, RuntimeError):
    """A desk-scale guard refused an operation that would be too large."""


class NumericError(PilotOptError, RuntimeError):
    """A numerical routine (eigendecomposition, solve) failed."""


class ConfigError(PilotOptError, ValueError):
    """An experiment configuration file is invalid."""
