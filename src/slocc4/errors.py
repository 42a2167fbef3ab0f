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
    """A state file or JSON object does not match the documented format."""


class AmbiguousClassification(Slocc4Error):
    """A tolerance straddles a class boundary.

    Either exactly two W-condition clauses evaluated true, a pattern that is
    algebraically impossible, or a covariant of a pencil quartic lies
    between its zero and its nonzero threshold, so the multiplicities of
    its roots are undecided.  Callers may retry the clause case in exact
    mode.
    """


class IdenticallyZero(Slocc4Error):
    """Root finding was requested for an identically vanishing form."""


class DegeneratePencil(Slocc4Error):
    """The two spanning vectors do not span a 2-dimensional subspace."""


class GenericTypeUnstable(Slocc4Error):
    """The generic type of a pencil whose quartic vanishes within eps is
    undecided: the largest coefficient of a clause pair lies between its
    zero and nonzero thresholds, so whether that clause holds at a generic
    element is undecided."""


class InternalContradiction(Slocc4Error):
    """A structurally impossible profile was produced (numerical artifact)."""


class ConstraintViolation(Slocc4Error):
    """A canonical-family parameter violates the family's constraints."""
