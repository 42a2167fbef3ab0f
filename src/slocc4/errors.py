"""Exception types raised by the classifier."""


class Slocc4Error(Exception):
    """Base class for all library errors."""


class DimensionMismatch(Slocc4Error):
    """Qubit counts of the arguments do not fit together."""


class SingularOperator(Slocc4Error):
    """A local operator is not invertible (|det| below the absolute floor)."""


class ZeroState(Slocc4Error):
    """The zero vector was passed where a nonzero state is required."""


class StateFormatError(Slocc4Error):
    """A state file, JSON object or amplitude vector does not match the
    documented format, a non-finite amplitude included."""


class AmbiguousClassification(Slocc4Error):
    """A tolerance straddles a class boundary.

    Either exactly two W-condition clauses evaluated true, a pattern that is
    algebraically impossible, or a value of a zero test lies between its
    zero and its nonzero threshold (``kernels.vanishes``; the message names
    the decision), so whether it vanishes is undecided.  Callers may retry
    in exact mode.
    """


class IdenticallyZero(Slocc4Error):
    """Root finding was requested for an identically vanishing form."""


class DegeneratePencil(Slocc4Error):
    """The two spanning vectors do not span a 2-dimensional subspace."""


class GenericTypeUnstable(Slocc4Error):
    """The generic type of a pencil is undecided: the largest coefficient
    of its quartic, or of a clause pair of a quartic that vanishes, lies
    between its zero and nonzero thresholds, so whether the generic element
    is GHZ, or whether that clause holds there, is undecided."""


class InternalContradiction(Slocc4Error):
    """A structurally impossible profile was produced (numerical artifact)."""


class ConstraintViolation(Slocc4Error):
    """A canonical-family parameter violates the family's constraints."""
