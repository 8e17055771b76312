"""Exception hierarchy shared by every module.

Each error carries its stable CLI exit code as the class attribute
exit_code, which subclasses inherit; cli.main exits with it, and the cli
module docstring lists the codes.
"""

from __future__ import annotations


class WorkbenchError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class SchemaError(WorkbenchError):
    """Input document does not conform to the expected structure."""

    exit_code = 2


class InvariantViolation(WorkbenchError):
    """A validated domain object breaks one of its stated invariants."""


class NotLoxodromic(WorkbenchError):
    """Matrix has no eigenvalue off the unit circle (elliptic/parabolic/trivial)."""

    exit_code = 3

    def __init__(self, message: str, word: str | None = None):
        super().__init__(message)
        self.word = word


class UnknownSymbol(WorkbenchError):
    """Word contains a symbol that names no generator or inverse."""


class CaseAError(WorkbenchError):
    """Operation requires a Weyl-asymmetric weight but the weight is symmetric."""


class ConvergenceRegionError(WorkbenchError):
    """Evaluation point lies at or below the estimated convergence abscissa."""

    exit_code = 4

    def __init__(self, s: complex, abscissa: float):
        super().__init__(
            f"Re(s)={s.real:g} is not above the convergence abscissa {abscissa:g}"
        )
        self.s = s
        self.abscissa = abscissa


class MissingVolume(WorkbenchError):
    """Spectrum carries no volume but the identity term needs one."""


class QuadratureFailure(WorkbenchError):
    """Adaptive quadrature could not meet its tolerance within its panel budget."""


class DegenerateShifts(WorkbenchError):
    """Resolvent shift grid has coinciding points or coinciding squares."""


class AtSingularity(WorkbenchError):
    """Evaluation point coincides with a catalogued singularity."""

    exit_code = 7

    def __init__(self, message: str, location: complex | None = None):
        super().__init__(message)
        self.location = location


class ParityViolation(WorkbenchError):
    """Eigenvalue data cannot come from a graded operator pair: odd order sum."""

    exit_code = 6

    def __init__(self, message: str, eigenvalue: complex | None = None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class NoConvergence(WorkbenchError):
    """Iterative refinement (contour nodes, path length) failed to settle."""


class PathThroughSingularity(WorkbenchError):
    """Integration path cannot avoid a catalogued singularity."""

    exit_code = 7
