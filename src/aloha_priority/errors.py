"""Exception types shared across the package."""


class AlohaError(Exception):
    """Base class for all package-specific errors."""


class DegenerateParameterError(AlohaError):
    """A closed form is undefined at this parameter point (division by zero)."""


class UnstableParameterError(AlohaError):
    """A stationary quantity was requested outside the stability region."""


class NoConvergenceError(AlohaError):
    """Fixed-point iteration hit the iteration cap before reaching tolerance."""


class ComplexSpectrumError(AlohaError):
    """A 2x2 matrix has complex eigenvalues, which no nonnegative matrix has."""


class SingularBlockError(AlohaError):
    """A matrix block that must be inverted is singular."""


class SingularSystemError(AlohaError):
    """The stationary linear system could not be solved to tolerance."""
