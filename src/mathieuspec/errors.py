"""Exception types shared across the toolkit."""


class MathieuSpecError(Exception):
    """Base class for all toolkit errors."""


class DegenerateProductError(MathieuSpecError):
    """Raised when a quantity requiring ab != 0 is requested for ab == 0."""


class PoleProximityError(MathieuSpecError):
    """A series/product was evaluated too close to one of its poles."""


class MultipleEigenvalueError(MathieuSpecError):
    """The targeted eigenvalue is multiple (or numerically unresolvable)."""


class SimplenessError(MathieuSpecError):
    """An operation requiring a simple eigenvalue hit |F'(lambda)| ~ 0."""


class TrackingAmbiguityError(MathieuSpecError):
    """Band tracking could not disambiguate two candidate matchings."""


class ConvergenceError(MathieuSpecError):
    """An iterative numerical procedure exhausted its budget."""


class ContourError(MathieuSpecError):
    """A root-counting contour kept passing through (near-)roots."""


class StepSizeUnderflowError(MathieuSpecError):
    """The ODE oracle could not certify a monodromy: its step cap was not
    enough, or the solution overflowed or lost its Wronskian to rounding."""


class QuadratureError(MathieuSpecError):
    """Adaptive quadrature failed to converge; carries the refinement trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class FormMismatchError(MathieuSpecError):
    """Expansion plan form disagrees with the operator classification."""


class ValidationError(MathieuSpecError):
    """Bad user input (CLI flags, config files, literals)."""
