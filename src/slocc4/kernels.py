"""Hot numeric kernels for batched 3-qubit classification.

The classifier works on one to five rows at a time, where numpy's
per-call dispatch (and its import) would cost more than the arithmetic, so
every kernel runs one row at a time in Python complex arithmetic.  The
``*_batch`` kernels loop over the rows of any sequence of rows (lists,
tuples or a 2-D array) and return lists, and ``pencil_elements`` forms the
rows of a pencil at given points, the only place they are formed.

The formulas themselves (``ghz``, ``clauses``, ``resultant``, ``hessian``,
``quartic_invariants``, and the pencil forms) use only ring operations and
integer constants, so the same functions also evaluate the Gaussian dyadic
numbers of :mod:`slocc4.exact`, which is how exact mode decides its
identities.  Every pencil form is built by one kernel, ``pencil_minor``: a
2x2 minor of ``x u + y v`` is the binary quadratic with the minors of u and
v at x^2 and y^2 and their polarization at x y.  ``pencil_clause_forms``
is the six clause minors, and ``pencil_quartic`` is S^2 - 4 P Q with P and
Q the minors of clause pair 3.  Both modes name a 3-qubit class by a
:class:`TriClass` member, read off the clause truths by ``clause_class``.

Float decisions "is this value zero" follow one rule, ``vanishes``: a value
at or below its bound is zero, one at or above ``BAND`` times the bound is
nonzero, and one in between raises (by default
:class:`AmbiguousClassification`, naming the decision and the ratio), so a
value near its bound fails loudly instead of flipping with rounding or with
the basis it is written in.  The bound is either ``eps`` times the power of
the amplitude scale that matches the value's degree, or a derived rounding
bound (``pencil``).  ``tri_code`` applies the band inline to the GHZ value
and the three clause pairs of a row, so a decided row makes no call.  The
README lists the few comparisons that stay sharp, each with its reason, and
the float decisions that exact mode keeps: it decides the 3-qubit classes
and the identities of a pencil on exact values, but writes the pencil in a
float basis.
"""

import enum
import math

from .errors import AmbiguousClassification


class TriClass(enum.Enum):
    """SLOCC class of a 3-qubit pure state."""

    ZERO = "Zero"
    SEP000 = "Sep000"
    BISEP1 = "Bisep(1)"
    BISEP2 = "Bisep(2)"
    BISEP3 = "Bisep(3)"
    W = "W"
    GHZ = "GHZ"

    @property
    def cut(self):
        """The separated qubit for biseparable classes, else None."""
        return _BISEP_CUT.get(self._value_)

    def __str__(self):
        return self.value


#: Keyed by value: an enum member hashes in Python, its value string in C.
_BISEP_CUT = {TriClass.BISEP1.value: 1, TriClass.BISEP2.value: 2, TriClass.BISEP3.value: 3}

# the members as module constants: a ``TriClass.X`` lookup on the hot path
# costs about ten times a global one
_ZERO, _GHZ = TriClass.ZERO, TriClass.GHZ

#: Class of a row that is not GHZ, indexed by c1 + 2 c2 + 4 c3 from its three
#: clause truths; None marks exactly two true clauses.
_BY_CLAUSES = (TriClass.SEP000, TriClass.BISEP1, TriClass.BISEP2, None,
               TriClass.BISEP3, None, None, TriClass.W)

#: Largest amplitude magnitudes in [SCALE_LO, SCALE_HI] keep every
#: degree-4 quantity of the classifier, and its rounding error, inside the
#: normal float range, so there a rescaling by 2**k changes no decision.
#: Entry points move states outside the window into it by an exact power
#: of two (``windowed``).
SCALE_LO = 2.0**-200
SCALE_HI = 2.0**200


#: Ratio of the nonzero threshold of ``vanishes`` to its zero threshold.
BAND = 32.0


def vanishes(value, bound, what, error=AmbiguousClassification) -> bool:
    """Zero test of a magnitude against its bound; ``what`` names the
    decision in the ``error`` raised for a value between ``bound`` and
    ``BAND * bound``."""
    if value <= bound or value >= BAND * bound:
        return value <= bound
    raise error(f"{what} at {value / bound:.3g} times its noise bound, "
                f"between the zero (1) and nonzero ({BAND:g}) thresholds")


def windowed(a) -> tuple:
    """``(a, top)``: the complex numbers ``a`` and their largest magnitude
    (0.0 for zeros), ``a`` first multiplied by the power of two that brings
    top into [0.5, 1) when it lies outside [SCALE_LO, SCALE_HI].  A magnitude
    beyond the float range takes that power from its larger part."""
    try:
        top = max(map(abs, a))
    except OverflowError:
        top = max(max(abs(z.real), abs(z.imag)) for z in a)
    if top and not SCALE_LO <= top <= SCALE_HI:
        e = -math.frexp(top)[1]
        a = tuple(complex(math.ldexp(z.real, e), math.ldexp(z.imag, e)) for z in a)
        top = max(map(abs, a))
    return a, top


def ghz(a0, a1, a2, a3, a4, a5, a6, a7):
    """GHZ criterion polynomial of one row, or column-wise of eight columns."""
    s = a0 * a7 - a2 * a5 + a1 * a6 - a3 * a4
    return s * s - 4 * (a2 * a4 - a0 * a6) * (a3 * a5 - a1 * a7)


def clauses(a0, a1, a2, a3, a4, a5, a6, a7):
    """The six clause quantities of one row (or column-wise), two per clause."""
    return (
        a0 * a3 - a1 * a2,
        a5 * a6 - a4 * a7,
        a1 * a4 - a0 * a5,
        a3 * a6 - a2 * a7,
        a3 * a5 - a1 * a7,
        a2 * a4 - a0 * a6,
    )


def resultant(f, g):
    """Resultant of two binary quadratics (alpha, beta, gamma); zero iff
    they share a projective root."""
    a1, b1, c1 = f
    a2, b2, c2 = g
    d = a1 * c2 - a2 * c1
    return d * d - (a1 * b2 - a2 * b1) * (b1 * c2 - b2 * c1)


def hessian(c0, c1, c2, c3, c4):
    """Coefficients (x^4 first) of 48 times the Hessian covariant of the
    binary quartic c0 x^4 + c1 x^3 y + c2 x^2 y^2 + c3 x y^3 + c4 y^4; it
    vanishes identically exactly when the quartic is a fourth power."""
    return (8 * c0 * c2 - 3 * c1 * c1, 24 * c0 * c3 - 4 * c1 * c2,
            48 * c0 * c4 + 6 * c1 * c3 - 4 * c2 * c2, 24 * c1 * c4 - 4 * c2 * c3,
            8 * c2 * c4 - 3 * c3 * c3)


def quartic_invariants(c0, c1, c2, c3, c4):
    """Invariants (I, J) of the same binary quartic, 12 and 432 times the
    classical ones: both vanish exactly when it has a root of multiplicity
    three or more, and 4 I^3 - J^2 is 27 times its discriminant."""
    i = 12 * c0 * c4 - 3 * c1 * c3 + c2 * c2
    j = 72 * c0 * c2 * c4 + 9 * c1 * c2 * c3 - 27 * (c0 * c3 * c3 + c1 * c1 * c4) - 2 * c2 * c2 * c2
    return i, j


def clause_class(c1, c2, c3, where="state"):
    """Class of a row that is not GHZ, from its three clause truths: all
    three true is W, none is Sep000, only clause k is Bisep(k).  Exactly two
    true clauses are algebraically impossible and raise
    :class:`AmbiguousClassification`, naming ``where``."""
    cls = _BY_CLAUSES[c1 + 2 * c2 + 4 * c3]
    if cls is None:
        raise AmbiguousClassification(
            f"exactly two W-condition clauses are true for {where}; "
            "the tolerance straddles a class boundary (consider exact mode)")
    return cls


def _rows(a):
    """Rows of numbers, those of an array as lists of Python numbers."""
    return a.tolist() if hasattr(a, "tolist") else a


def ghz_invariant_batch(a) -> list:
    """GHZ criterion polynomial of each row of 8 numbers."""
    return [ghz(*row) for row in _rows(a)]


def clause_quantities_batch(a) -> list:
    """The six clause quantities of each row of 8 numbers."""
    return [clauses(*row) for row in _rows(a)]


def clause_truths(q, bound) -> tuple:
    """The three clause truths of the six clause quantities ``q`` of a row:
    clause k holds when the larger magnitude of q[2k] and q[2k+1] is not
    zero against ``bound`` by the rule of ``vanishes``, whose band is tested
    inline, so a row with no maximum inside it makes no call.

    Exactly two true clauses are algebraically impossible in a row whose
    GHZ value vanishes (``tri_code``), so a maximum in the band beside two
    that read nonzero is nonzero; any other maximum in the band raises."""
    q0, q1, q2, q3, q4, q5 = map(abs, q)
    m0, m1, m2 = q0 if q0 > q1 else q1, q2 if q2 > q3 else q3, q4 if q4 > q5 else q5
    top = BAND * bound
    if m0 >= top and m1 >= top and m2 >= top:  # the common row, a W point
        return True, True, True
    if bound < m0 < top or bound < m1 < top or bound < m2 < top:
        undecided = [m for m in (m0, m1, m2) if bound < m < top]
        if len(undecided) > 1 or (m0 >= top) + (m1 >= top) + (m2 >= top) < 2:
            vanishes(undecided[0], bound, "W clause")
    return m0 > bound, m1 > bound, m2 > bound


def tri_code(row, eps) -> TriClass:
    """Class of one row of 8 numbers: GHZ unless its GHZ value vanishes
    against eps s^4, else ``clause_class`` of the clause truths against
    eps s^2 (s the largest magnitude of the row)."""
    row, scale = windowed(row)
    if scale == 0.0:
        return _ZERO
    value, bound4 = abs(ghz(*row)), eps * scale**4
    # the band of ``vanishes``, tested inline: only a value inside it calls
    # ``vanishes``, which raises
    if value > bound4 and (value >= BAND * bound4 or not vanishes(value, bound4, "GHZ value")):
        return _GHZ
    return clause_class(*clause_truths(clauses(*row), eps * scale * scale))


def tri_codes_batch(a, eps) -> list:
    """``tri_code`` of each row of 8 numbers."""
    return [tri_code(row, eps) for row in _rows(a)]


def pencil_elements(phi0, phi1, xy) -> list:
    """Rows ``x phi0 + y phi1`` for each pair (x, y) of ``xy``."""
    pairs = list(zip(phi0, phi1))
    return [[x * a + y * b for a, b in pairs] for x, y in xy]


#: The six clause quantities of ``clauses`` as minors a_i a_j - a_k a_l,
#: (i, j, k, l) in their order.
_CLAUSE_MINORS = ((0, 3, 1, 2), (5, 6, 4, 7), (1, 4, 0, 5), (3, 6, 2, 7), (3, 5, 1, 7), (2, 4, 0, 6))


def pencil_minor(u, v, i, j, k, l) -> tuple:
    """The minor a_i a_j - a_k a_l of ``x u + y v`` as a binary quadratic
    (x^2, x y, y^2): the minors of u and of v and their polarization."""
    return (u[i] * u[j] - u[k] * u[l],
            u[i] * v[j] + v[i] * u[j] - (u[k] * v[l] + v[k] * u[l]),
            v[i] * v[j] - v[k] * v[l])


def pencil_quartic(phi0, phi1) -> tuple:
    """Coefficients (x^4, x^3 y, x^2 y^2, x y^3, y^4) of the GHZ criterion
    S^2 - 4 P Q of ``x phi0 + y phi1`` (see ``ghz``): P and Q are the minors
    of clause pair 3 (``pencil_minor``) and S, the sum of two minors, is
    expanded the same way.  The x^4 and y^4 coefficients are ``ghz`` of phi0
    and of phi1, to the last bit."""
    u0, u1, u2, u3, u4, u5, u6, u7 = phi0
    v0, v1, v2, v3, v4, v5, v6, v7 = phi1
    s0 = u0 * u7 - u2 * u5 + u1 * u6 - u3 * u4
    s1 = u0 * v7 + v0 * u7 - (u2 * v5 + v2 * u5) + (u1 * v6 + v1 * u6) - (u3 * v4 + v3 * u4)
    s2 = v0 * v7 - v2 * v5 + v1 * v6 - v3 * v4
    q0, q1, q2 = pencil_minor(phi0, phi1, *_CLAUSE_MINORS[4])
    p0, p1, p2 = pencil_minor(phi0, phi1, *_CLAUSE_MINORS[5])
    return (s0 * s0 - 4 * p0 * q0,
            2 * s0 * s1 - 4 * (p0 * q1 + p1 * q0),
            s1 * s1 + 2 * s0 * s2 - 4 * (p0 * q2 + p1 * q1 + p2 * q0),
            2 * s1 * s2 - 4 * (p1 * q2 + p2 * q1),
            s2 * s2 - 4 * p2 * q2)


def pencil_clause_forms(phi0, phi1) -> tuple:
    """The six clause quantities of ``x phi0 + y phi1`` as binary quadratics
    (alpha, beta, gamma) (``pencil_minor``)."""
    return tuple(pencil_minor(phi0, phi1, *m) for m in _CLAUSE_MINORS)
