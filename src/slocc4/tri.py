"""Equational classification of 3-qubit pure states.

A state with amplitudes ``a0..a7`` is in the GHZ class iff the degree-4
criterion polynomial

    (a0 a7 - a2 a5 + a1 a6 - a3 a4)^2 - 4 (a2 a4 - a0 a6)(a3 a5 - a1 a7)

is nonzero.  Otherwise the three W-condition clauses

    clause 1:  a0 a3 != a1 a2  or  a5 a6 != a4 a7
    clause 2:  a1 a4 != a0 a5  or  a3 a6 != a2 a7
    clause 3:  a3 a5 != a1 a7  or  a2 a4 != a0 a6

decide the rest: all three true means W, none true means fully separable,
and exactly one true means biseparable, with clause ``k`` corresponding to
qubit ``k`` sitting in a product with an entangled pair (a mapping frozen
by regression tests against the canonical product-times-Bell states).

Thresholds scale with the state's largest amplitude magnitude: degree-4
quantities are compared against ``eps * scale^4`` and the degree-2 clause
quantities against ``eps * scale^2``, so verdicts are invariant under
global rescaling.  In exact mode amplitudes are lifted to Gaussian
rationals and every zero test is exact.
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import exact as _exact
from . import kernels
from .errors import AmbiguousClassification, DimensionMismatch
from .qstate import DEFAULT_EPS, PureState


class TriClass(enum.Enum):
    """SLOCC class of a 3-qubit pure state."""

    ZERO = "Zero"
    SEP000 = "Sep000"
    BISEP1 = "Bisep(1)"
    BISEP2 = "Bisep(2)"
    BISEP3 = "Bisep(3)"
    W = "W"
    GHZ = "GHZ"

    @classmethod
    def bisep(cls, k: int) -> "TriClass":
        return (cls.BISEP1, cls.BISEP2, cls.BISEP3)[k - 1]

    @property
    def cut(self):
        """The separated qubit for biseparable classes, else None."""
        return _BISEP_CUT.get(self)

    def __str__(self):
        return self.value


_BISEP_CUT = {TriClass.BISEP1: 1, TriClass.BISEP2: 2, TriClass.BISEP3: 3}

_CODE_TO_CLASS = {
    kernels.CODE_ZERO: TriClass.ZERO,
    kernels.CODE_SEP: TriClass.SEP000,
    kernels.CODE_B1: TriClass.BISEP1,
    kernels.CODE_B2: TriClass.BISEP2,
    kernels.CODE_B3: TriClass.BISEP3,
    kernels.CODE_W: TriClass.W,
    kernels.CODE_GHZ: TriClass.GHZ,
}


@dataclass(frozen=True)
class ClauseReport:
    """Values underlying a W-condition evaluation."""

    ghz_value: complex
    clause_truth: tuple
    quantities: tuple


def _as_amp8(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.complex128).reshape(-1)
    if arr.shape != (8,):
        raise DimensionMismatch("expected 8 amplitudes of a 3-qubit state")
    return arr


def ghz_invariant(a) -> complex:
    """GHZ criterion polynomial of 8 amplitudes (zero vector gives 0)."""
    arr = _as_amp8(a)
    return complex(kernels.ghz_invariant_batch(arr.reshape(1, 8))[0])


def w_clauses(a, eps: float = DEFAULT_EPS) -> ClauseReport:
    """Evaluate the six clause quantities and the three clause truths."""
    arr = _as_amp8(a)
    q = kernels.clause_quantities_batch(arr.reshape(1, 8))[0]
    scale = float(np.abs(arr).max())
    thresh = eps * scale * scale
    truth = tuple(
        bool(abs(q[2 * k]) > thresh or abs(q[2 * k + 1]) > thresh) for k in range(3)
    )
    return ClauseReport(
        ghz_value=ghz_invariant(arr),
        clause_truth=truth,
        quantities=tuple(complex(v) for v in q),
    )


def _class_from_code(code: int, where="state") -> TriClass:
    if code == kernels.CODE_AMBIGUOUS:
        raise AmbiguousClassification(
            f"exactly two W-condition clauses are true for {where}; "
            "the tolerance straddles a class boundary (consider exact mode)"
        )
    return _CODE_TO_CLASS[code]


def classify3_batch(amps: np.ndarray, eps: float = DEFAULT_EPS) -> list:
    """Classify a (N, 8) batch of amplitude rows."""
    codes = kernels.tri_codes_batch(np.ascontiguousarray(amps, dtype=np.complex128), eps)
    return [_class_from_code(c, f"row {i}") for i, c in enumerate(codes.tolist())]


def _exact_code(lifted) -> int:
    if all(z.is_zero for z in lifted):
        return kernels.CODE_ZERO
    if not _exact.ghz_invariant_exact(lifted).is_zero:
        return kernels.CODE_GHZ
    q = _exact.clause_quantities_exact(lifted)
    c1 = bool(q[0]) or bool(q[1])
    c2 = bool(q[2]) or bool(q[3])
    c3 = bool(q[4]) or bool(q[5])
    ntrue = c1 + c2 + c3
    if ntrue == 3:
        return kernels.CODE_W
    if ntrue == 0:
        return kernels.CODE_SEP
    if ntrue == 2:  # pragma: no cover - algebraically impossible
        return kernels.CODE_AMBIGUOUS
    return kernels.CODE_B1 if c1 else (kernels.CODE_B2 if c2 else kernels.CODE_B3)


def classify3_exact_amps(lifted) -> TriClass:
    """Classify a sequence of 8 Gaussian-rational amplitudes exactly."""
    return _class_from_code(_exact_code(lifted), "exact state")


def classify3(state, eps: float = DEFAULT_EPS, exact: bool = False) -> TriClass:
    """Classify a 3-qubit state into its SLOCC class.

    Raises :class:`AmbiguousClassification` when exactly two clauses are
    true, which is algebraically impossible and signals a numerical
    borderline rather than being silently rounded to a class.
    """
    if isinstance(state, PureState):
        if state.n != 3:
            raise DimensionMismatch(f"classify3 needs a 3-qubit state, got n={state.n}")
        amps = state.amps
    else:
        amps = _as_amp8(state)
    if exact:
        return classify3_exact_amps(_exact.lift(amps))
    return classify3_batch(amps.reshape(1, 8), eps)[0]
