"""SLOCC entanglement superclass classification for 2-4 qubit pure states."""

from .errors import (
    AmbiguousClassification,
    ConstraintViolation,
    DegeneratePencil,
    DimensionMismatch,
    GenericTypeUnstable,
    IdenticallyZero,
    InternalContradiction,
    SingularOperator,
    Slocc4Error,
    StateFormatError,
    ZeroState,
)
from .pencil import (
    ProjectivePoint,
    QuadraticForm,
    QuarticForm,
    SpanProfile,
    analyze_span,
    clause_quadratics,
    quartic,
    quartic_roots,
)
from .qstate import (
    DEFAULT_EPS,
    Decomposition,
    LocalOperator,
    PureState,
    SloccOp,
    apply_slocc,
    bipartition_ranks,
    decompose,
    load_state,
    permute_qubits,
    save_state,
    span_dimension,
    state_from_json,
    state_to_json,
)
from .quad import QuadClass, QuadTag, classify4, classify4_all
from .tri import ClauseReport, TriClass, classify3, ghz_invariant, w_clauses

__version__ = "0.1.0"


def __getattr__(name):
    # slocc4.canonical is loaded on first use: classifying needs none of it
    if name in ("FamilySpec", "make_canonical", "random_slocc"):
        from . import canonical

        return getattr(canonical, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AmbiguousClassification",
    "ClauseReport",
    "ConstraintViolation",
    "Decomposition",
    "DegeneratePencil",
    "DEFAULT_EPS",
    "DimensionMismatch",
    "FamilySpec",
    "GenericTypeUnstable",
    "IdenticallyZero",
    "InternalContradiction",
    "LocalOperator",
    "ProjectivePoint",
    "PureState",
    "QuadClass",
    "QuadTag",
    "QuadraticForm",
    "QuarticForm",
    "SingularOperator",
    "Slocc4Error",
    "SloccOp",
    "SpanProfile",
    "StateFormatError",
    "TriClass",
    "ZeroState",
    "analyze_span",
    "apply_slocc",
    "bipartition_ranks",
    "classify3",
    "classify4",
    "classify4_all",
    "clause_quadratics",
    "decompose",
    "ghz_invariant",
    "load_state",
    "make_canonical",
    "permute_qubits",
    "quartic",
    "quartic_roots",
    "random_slocc",
    "save_state",
    "span_dimension",
    "state_from_json",
    "state_to_json",
    "w_clauses",
]
