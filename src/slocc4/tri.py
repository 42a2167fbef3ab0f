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

In float mode the GHZ value and each clause's larger quantity are zero
tests of ``kernels.vanishes`` against ``eps * scale^4`` and ``eps *
scale^2``, with ``scale`` the state's largest amplitude magnitude, so
verdicts are invariant under global rescaling: a value at most its bound
is zero, one at least 32 times it nonzero, and one in between raises
:class:`AmbiguousClassification` naming the decision ("GHZ value" or "W
clause"), except a clause beside two that read nonzero: exactly two true
clauses being impossible, it reads nonzero.  In exact mode amplitudes are
lifted to Gaussian rationals and every zero test is exact.
"""

from typing import NamedTuple

from . import kernels
from .kernels import TriClass
from .qstate import DEFAULT_EPS, as_state, check_eps


class ClauseReport(NamedTuple):
    """Values underlying a W-condition evaluation."""

    ghz_value: complex
    clause_truth: tuple
    quantities: tuple


def ghz_invariant(a) -> complex:
    """GHZ criterion polynomial of a 3-qubit state (zero vector gives 0)."""
    return complex(kernels.ghz_invariant_batch([as_state(a, 3).values])[0])


def w_clauses(a, eps: float = DEFAULT_EPS, exact: bool = False) -> ClauseReport:
    """Evaluate the six clause quantities and the three clause truths.

    A state whose largest magnitude lies outside [``kernels.SCALE_LO``,
    ``kernels.SCALE_HI``] is first rescaled by an exact power of two, and
    the report holds the values of the rescaled state.  A clause is true
    when one of its quantities is nonzero: by ``kernels.clause_truths``,
    the rule of ``classify3``, or in exact mode not exactly zero on the
    exact lift."""
    check_eps(eps)
    arr, scale = kernels.windowed(as_state(a, 3).values)
    if exact:
        from . import exact as _exact

        lifted = _exact.lift(arr)
        ghz, q = kernels.ghz(*lifted), kernels.clauses(*lifted)
        truth = [q[2 * k] or q[2 * k + 1] for k in range(3)]
    else:
        ghz, q = kernels.ghz_invariant_batch([arr])[0], kernels.clause_quantities_batch([arr])[0]
        truth = kernels.clause_truths(q, eps * scale * scale)
    return ClauseReport(complex(ghz), tuple(map(bool, truth)), tuple(map(complex, q)))


def classify3_batch(amps, eps: float = DEFAULT_EPS) -> list:
    """Classify each amplitude row of a (N, 8) array or a list of N rows of
    8 numbers.  The rows are not checked: the caller passes rows of 8
    finite amplitudes, as ``pencil`` does."""
    return kernels.tri_codes_batch(amps, eps)


def classify3_exact_amps(lifted) -> TriClass:
    """Classify a sequence of 8 Gaussian-rational amplitudes exactly."""
    if all(z.is_zero for z in lifted):
        return TriClass.ZERO
    if kernels.ghz(*lifted):
        return TriClass.GHZ
    q = kernels.clauses(*lifted)
    return kernels.clause_class(bool(q[0] or q[1]), bool(q[2] or q[3]), bool(q[4] or q[5]), "exact state")


def classify3(state, eps: float = DEFAULT_EPS, exact: bool = False) -> TriClass:
    """Classify a 3-qubit state into its SLOCC class.

    Raises :class:`AmbiguousClassification` when exactly two clauses are
    true, which is algebraically impossible, or when a value lies between
    its zero and nonzero thresholds: both signal a numerical borderline
    rather than being silently rounded to a class.
    """
    check_eps(eps)
    amps = as_state(state, 3).values
    if exact:
        from . import exact as _exact

        return classify3_exact_amps(_exact.lift(amps))
    return classify3_batch([amps], eps)[0]
