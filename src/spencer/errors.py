"""Error types shared by all modules.

Every failure that a caller can provoke through bad input has its own class,
so the command line layer can map them onto stable exit codes.
"""


class SpencerError(Exception):
    """Base class for all package errors."""


class AmbientMismatch(SpencerError):
    """Two objects that must live in the same ambient space do not."""


class NotASubspace(SpencerError):
    """A containment that an operation requires does not hold."""


class ShapeMismatch(SpencerError):
    """A linear map was applied to data of the wrong shape."""


class DegreeUnderflow(SpencerError):
    """A graded operation was asked for a negative degree."""


class MissingGrade(SpencerError):
    """A symbolic system lacks a grade that cannot be derived on demand."""


class ZeroVector(SpencerError):
    """A nonzero vector was required."""


class EquationNotInvariant(SpencerError):
    """A supplied equation symbol is not preserved by the group symbol."""


class NotASubcomplex(SpencerError):
    """A family of subspaces is not closed under the differential."""


class ConsistencyCheckFailed(SpencerError):
    """Two independent computations of the same result disagree."""


class ParamOutOfRange(SpencerError):
    """A catalogue parameter is outside its documented range."""


class CapExceeded(SpencerError):
    """A materialisation would exceed the configured size cap."""


class UnsupportedDegree(CapExceeded):
    """A space above the materialisation cap was asked for; only the
    closed-form dimension formulas answer there."""


class CancellationFailure(SpencerError):
    """Top order jet variables failed to cancel in a prolonged field."""


class SingularJacobian(SpencerError):
    """The total derivative Jacobian of a frame is singular at the point."""
