"""Analysis of 2-dimensional spans of 3-qubit vectors.

A pencil ``{x phi0 + y phi1}`` is profiled by the homogeneous quartic that
the GHZ criterion induces in ``(x, y)``: either the quartic is nonzero and
its at most four projective roots are the only non-GHZ elements, or it
vanishes identically and the exceptional elements sit at common roots of
the clause quadratics.  Both come from one kernel, ``kernels.pencil_minor``,
which writes a 2x2 minor of the pencil element as a binary quadratic: the
clause forms are the six clause minors, and the quartic is the GHZ
criterion S^2 - 4 P Q over the minors P and Q of clause pair 3.  It uses
only ring operations, so exact mode runs it unchanged.  A simple root of a
nonzero quartic is a W point, certified from the slope that the root
finder leaves (``_certified``); pencil rows are formed only by
``kernels.pencil_elements``, at the candidate points that no certificate
decides.
"""

import cmath
import math
from typing import NamedTuple

from . import kernels
from .errors import (
    AmbiguousClassification,
    DegeneratePencil,
    GenericTypeUnstable,
    IdenticallyZero,
    ZeroState,
)
from .qstate import DEFAULT_EPS, PureState, _herm2_eigs, check_eps, complex_values
from .tri import TriClass, classify3_batch, classify3_exact_amps


class ProjectivePoint:
    """A point (x : y) on the complex projective line.

    Stored as a unit-norm representative with a canonical phase (the
    larger-magnitude component is made real and nonnegative), so equal
    projective points produce essentially identical representatives.
    """

    __slots__ = ("x", "y", "multiplicity")

    def __init__(self, x, y, multiplicity: int = 1):
        nrm = math.hypot(abs(x), abs(y))
        if nrm == 0.0:
            raise ValueError("(0 : 0) is not a projective point")
        x = complex(x) / nrm
        y = complex(y) / nrm
        ax, ay = abs(x), abs(y)
        phase = x / ax if ax >= ay else y / ay
        self.x = x / phase
        self.y = y / phase
        self.multiplicity = int(multiplicity)

    def chordal(self, other: "ProjectivePoint") -> float:
        """Chordal distance |x1 y2 - x2 y1| between unit representatives."""
        return abs(self.x * other.y - self.y * other.x)

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.multiplicity == other.multiplicity and self.chordal(other) <= 1e-12

    def __repr__(self):
        return f"ProjectivePoint({self.x:.6g}, {self.y:.6g}, multiplicity={self.multiplicity})"


class QuarticForm(NamedTuple):
    """Homogeneous quartic c0 x^4 + c1 x^3 y + c2 x^2 y^2 + c3 x y^3 + c4 y^4.

    ``scales`` = (a, b, c) marks the quartic of the pencil of e0 and e1 with
    x e0 + y e1 = (a x + b y) phi0 + (c y) phi1: its root (x : y) is the
    point (a x + b y : c y) of the pencil of phi0 and phi1, where
    ``quartic_roots`` reports it.
    """

    c: tuple
    amp_scale: float
    scales: tuple = (1.0, 0.0, 1.0)

    def evaluate(self, x, y) -> complex:
        return sum(ck * x ** (4 - k) * y**k for k, ck in enumerate(self.c))

    def identically_zero(self, eps: float = DEFAULT_EPS) -> bool:
        """Whether the largest coefficient vanishes against eps s^4 (s =
        ``amp_scale``) by ``kernels.vanishes``; one in the band leaves the
        generic type undecided and raises :class:`GenericTypeUnstable`."""
        return kernels.vanishes(max(map(abs, self.c)), eps * self.amp_scale**4, "pencil quartic",
                                GenericTypeUnstable)


class QuadraticForm(NamedTuple):
    """Homogeneous quadratic c0 x^2 + c1 xy + c2 y^2.

    ``exact`` holds its exact coefficients in the basis of the lifted
    pencil vectors, where they decide every identity (each one is invariant
    under a change of basis).  ``scales`` marks the basis of ``c`` as in
    :class:`QuarticForm` and sets the gain of its rounding bound, but
    ``common_roots`` reports roots in that basis.
    """

    c: tuple
    amp_scale: float
    exact: tuple = None
    scales: tuple = (1.0, 0.0, 1.0)

    def identically_zero(self, eps: float = DEFAULT_EPS) -> bool:
        """Exactly in exact mode, else whether the largest coefficient
        vanishes against eps s^2 / ``kernels.BAND`` (s = ``amp_scale``) by
        ``kernels.vanishes``.  The band lies below eps s^2: in the
        orthonormal basis the smallest clause form of W0kPsi_W at lambda =
        128 reads 3.7 eps s^2 and is not zero, and a form read as nonzero
        only meets relative tests after this one (``common_roots``)."""
        if self.exact is not None:
            return all(z.is_zero for z in self.exact)
        return kernels.vanishes(max(map(abs, self.c)), eps * self.amp_scale**2 / kernels.BAND, "clause form")


class SpanProfile(NamedTuple):
    """Result of profiling a pencil of 3-qubit vectors: the class of its
    generic element and its exceptional points with their classes.  The
    other properties are read off these two."""

    generic_type: TriClass
    exceptional: tuple  # of (ProjectivePoint, TriClass) pairs

    @property
    def ghz_generic(self) -> bool:
        return self.generic_type is TriClass.GHZ

    @property
    def quartic_identically_zero(self) -> bool:
        """The pencil quartic vanishes identically exactly when the generic
        element is not GHZ."""
        return self.generic_type is not TriClass.GHZ

    @property
    def contains_000(self) -> bool:
        return TriClass.SEP000 in [cls for _, cls in self.exceptional]

    @property
    def bisep_cuts(self) -> tuple:
        """The cut of each biseparable exceptional point, sorted."""
        return tuple(sorted(cls.cut for _, cls in self.exceptional if cls.cut is not None))

    @property
    def w_points(self) -> bool:
        return TriClass.W in [cls for _, cls in self.exceptional]

    def to_json(self) -> dict:
        return {
            "quartic_identically_zero": self.quartic_identically_zero,
            "generic_type": str(self.generic_type),
            "exceptional": [
                {
                    "x": [pt.x.real, pt.x.imag],
                    "y": [pt.y.real, pt.y.imag],
                    "multiplicity": pt.multiplicity,
                    "class": str(cls),
                }
                for pt, cls in self.exceptional
            ],
            "contains_000": self.contains_000,
            "bisep_cuts": list(self.bisep_cuts),
            "w_points": self.w_points,
            "ghz_generic": self.ghz_generic,
        }


def _amps_of(state) -> tuple:
    if isinstance(state, PureState):
        if state.n != 3:
            raise DegeneratePencil(f"pencil vectors must be 3-qubit, got n={state.n}")
        return state.values
    values = complex_values(state)
    if len(values) != 8:
        raise DegeneratePencil("pencil vectors must have 8 amplitudes")
    return values


def _check_inputs(phi0, phi1):
    """The two pencil vectors as tuples, with their largest magnitudes.

    When the larger magnitude lies outside [``kernels.SCALE_LO``,
    ``kernels.SCALE_HI``], both vectors are rescaled by the same exact
    power of two, which leaves every point of the pencil in place."""
    both, top = kernels.windowed(_amps_of(phi0) + _amps_of(phi1))
    p0, p1 = both[:8], both[8:]
    s0 = max(map(abs, p0))
    s1 = top if s0 < top else max(map(abs, p1))
    if s0 == 0.0:
        raise ZeroState("phi0 is the zero vector")
    if s1 == 0.0:
        raise ZeroState("phi1 is the zero vector")
    return p0, p1, s0, s1


def quartic(phi0, phi1) -> QuarticForm:
    """Quartic form equal to the GHZ criterion of ``x phi0 + y phi1``.

    Coefficients are expanded from the bilinear products of the two vectors
    (``kernels.pencil_quartic``); the x^4 and y^4 coefficients are the GHZ
    values of ``phi0`` and ``phi1``, to the last bit.  For vectors outside
    the scale window it is the quartic of the rescaled pencil (see
    ``_check_inputs``).
    """
    p0, p1, s0, s1 = _check_inputs(phi0, phi1)
    return QuarticForm(kernels.pencil_quartic(p0, p1), max(s0, s1))


def clause_quadratics(phi0, phi1) -> tuple:
    """The six clause quantities as quadratic forms on the pencil, grouped
    into the three clause pairs; vectors as in ``quartic``."""
    p0, p1, s0, s1 = _check_inputs(phi0, phi1)
    return _clause_forms(p0, p1, max(s0, s1))


def _clause_forms(p0, p1, amp_scale, scales=(1.0, 0.0, 1.0)) -> tuple:
    """The clause forms of checked vectors, grouped into pairs: those of
    ``_check_inputs``, or the orthonormal basis e0, e1 of ``analyze_span``
    with amp_scale 1 (no magnitude of a unit vector exceeds 1) and its
    ``scales`` = (a, b, c)."""
    forms = tuple(QuadraticForm(c, amp_scale, scales=scales) for c in kernels.pencil_clause_forms(p0, p1))
    return (forms[0:2], forms[2:4], forms[4:6])


def _larger_q(a, b, c) -> complex:
    """q = -(b +- sqrt(b^2 - 4 a c)) / 2, of the two the larger in magnitude:
    the roots of a x^2 + b x y + c y^2 are (q : a) and (c : q), free of
    cancellation."""
    s = cmath.sqrt(b * b - 4.0 * a * c)
    if abs(b - s) > abs(b + s):
        s = -s
    return -0.5 * (b + s)


def _quadratic_formula(a, b, c) -> tuple:
    """Both roots of a x^2 + b x + c (a != 0), cancellation-safe."""
    if c == 0:
        return (0.0 + 0.0j, -b / a)
    q = _larger_q(a, b, c)
    return (q / a, c / q)


#: Cube roots of unity other than 1.
_OMEGA = complex(-0.5, 0.75**0.5)
_OMEGA2 = _OMEGA.conjugate()


def _cubic_roots(p, q) -> list:
    """The three roots of t^3 + p t + q (Cardano, with the cube root taken
    of the larger of -q/2 +- sqrt(q^2/4 + p^3/27))."""
    h = cmath.sqrt(0.25 * q * q + p * p * p / 27)
    u3 = -0.5 * q
    u3 = u3 - h if abs(u3 - h) >= abs(u3 + h) else u3 + h
    if u3 == 0:
        return [0j, 0j, 0j]
    u = u3 ** (1 / 3)
    v = -p / (3 * u)
    return [u + v, u * _OMEGA + v * _OMEGA2, u * _OMEGA2 + v * _OMEGA]


def _polynomial_roots(p) -> list:
    """Roots of the quartic p[0] x^4 + .. + p[4] (p[0] != 0) in closed form,
    as pairs (root, newton) with ``newton`` as in ``_polished``.

    It is depressed to y^4 + P y^2 + Q y + R and split by Ferrari into the
    two quadratics y^2 -+ s y + P/2 + m +- Q/(2 s), s^2 = 2 m, with m the
    root of largest magnitude of the resolvent cubic m^3 + P m^2 + (P^2/4 -
    R) m - Q^2/8 (2 m is the square of a sum of two roots y, so m = 0 only
    when all four roots coincide, and then Q = 0), which Cardano solves.
    Depressing loses the small roots of a polynomial whose roots span many
    decades, so the estimates are then refined on p itself by
    ``_polished``."""
    lead = p[0]
    a, b, c, d = p[1] / lead, p[2] / lead, p[3] / lead, p[4] / lead
    shift = 0.25 * a
    aa = a * a
    pp = b - 0.375 * aa
    qq = c - 0.5 * a * b + 0.125 * aa * a
    rr = d - 0.25 * a * c + aa * b / 16 - 3 * aa * aa / 256
    third = pp / 3
    zs = _cubic_roots(-(pp * pp / 12 + rr), pp * rr / 3 - pp * pp * pp / 108 - qq * qq / 8)
    m = max((z - third for z in zs), key=abs)
    s = cmath.sqrt(2 * m)
    half, t = 0.5 * pp + m, qq / (2 * s) if s else 0j
    xs = [y - shift for y in _quadratic_formula(1, -s, half + t) + _quadratic_formula(1, s, half - t)]
    return _polished(p, xs)


def _polished(p, xs) -> list:
    """The estimates ``xs`` of all roots of p after Aberth-Ehrlich steps on
    p, until every step moves its root by at most 2^-40 of its magnitude
    (or for 32 rounds), as pairs (root, newton).

    A step is Newton's, f / f', divided by 1 - (f / f') sum_j 1 / (x - x_j)
    unless it is already that small; the sum keeps two estimates from
    converging to the same root.  On estimates within a few units in the
    last place, one Newton step each ends it.  ``newton`` is (f, f') at the
    point of a root's last step when that step was Newton's, else None."""
    lead, rest = p[0], p[1:]
    newton = [None] * len(xs)
    for _ in range(32):
        done = True
        for i, x in enumerate(xs):
            f, df = lead, 0j
            for a in rest:
                df = df * x + f
                f = f * x + a
            w = f / df if df else f
            newton[i] = (f, df)
            if abs(w) > 2.0**-40 * abs(x):
                w /= 1 - w * sum(1 / (x - y) for y in xs if y != x)
                done = False
                newton[i] = None
            xs[i] = x - w
        if done:
            break
    return list(zip(xs, newton))


def cluster_points(points, radius: float) -> list:
    """Greedy clustering of projective points; multiplicities are summed
    and each cluster is replaced by a phase-aligned weighted mean."""
    clusters = []
    for p in points:
        for members in clusters:
            if members[0].chordal(p) <= radius:
                members.append(p)
                break
        else:
            clusters.append([p])
    merged = []
    for members in clusters:
        if len(members) == 1:
            merged.append(members[0])
            continue
        ref = members[0]
        accx = 0.0 + 0.0j
        accy = 0.0 + 0.0j
        total = 0
        for p in members:
            inner = p.x * ref.x.conjugate() + p.y * ref.y.conjugate()
            phase = inner / abs(inner) if abs(inner) > 0 else 1.0
            accx += p.multiplicity * p.x / phase
            accy += p.multiplicity * p.y / phase
            total += p.multiplicity
        merged.append(ProjectivePoint(accx, accy, total))
    return merged


# Root multiplicities of a quartic f = c0 x^4 + c1 x^3 y + .. + c4 y^4 come
# from its covariants (Olver, Classical Invariant Theory, 1999; Salmon,
# Modern Higher Algebra): with h = kernels.hessian(c), (I, J) =
# kernels.quartic_invariants(c) and D = 4 I^3 - J^2,
#   D != 0                      four simple roots,
#   h = 0                       one 4-fold root,
#   I = J = 0                   3+1,
#   f and h proportional        2+2 (f is a square exactly when the Jacobian
#                               of f and h, the sextic covariant, vanishes),
#   otherwise (D = 0)           2+1+1.
# Every coefficient carries an absolute error of at most _NOISE s^4 (s =
# ``amp_scale``, the largest amplitude magnitude of the pencil vectors).
# ``quartic_roots`` first scales the coefficients by the power of two that
# brings max |c_i| into [0.5, 1), which is exact and turns that bound into
# nu; then a quantity X moves by at most nu sum_i |dX/dc_i| to first order:
#   I by e_I and J by e_J, their gradients evaluated at c plus their
#   second-order parts, below 16 nu^2 and 411 nu^2;
#   D by nu sum_i |12 I^2 dI/dc_i - 2 J dJ/dc_i| plus the higher terms of
#   its expansion in the changes of I and J, and by the rounding of I, J
#   and D themselves, below 2^-40 (|I|^2 + |J|);
#   each coefficient of h by 116 nu (the largest gradient sum, that of
#   48 c0 c4 + 6 c1 c3 - 4 c2^2), and each 2x2 minor f_i h_j - f_j h_i by
#   2 nu (116 + max |h_j|).
# The gradient of D vanishes at the 2+2, 3+1 and 4-fold patterns and that
# of J at the 4-fold one, so bounds evaluated at c stay consistent near
# them where constant ones (32 nu for I, 411 nu for J) would not.
# These tests are first-order necessary conditions: next to a deeper
# pattern, a quartic whose roots sit 1e-4 apart can pass them for the wrong
# pattern.  So the placed roots of a multiple pattern must reproduce f: with
# p the coefficients of their product, the residual r = c - (p^H c / p^H p) p
# of the best multiple of p must stay within _FIT nu in every coefficient.
# Were the placed roots those of the exact quartic c* (c = c* + e, |e_i| <=
# nu), r would be e less its projection on p, so |r_i| <= |e_i| + |p^H e| /
# |p| <= (1 + sqrt(5)) nu, and the rounding of p and r adds a few u.  The
# closed forms are exact on each pattern, so placing the roots from c moves
# them by the noise times their conditioning, to first order; _FIT = 8
# allows that movement as much as the noise itself, rounded up, and a
# placement moved further raises.  Measured with an error of nu in every
# coefficient of random patterns (roots of size 1 to 3), that happens on
# 78% of 2+1+1 and 62% of 3+1 quartics, with nu/100 on 1.4% and 0.1%, with
# nu/1000 on none (and on 0.1% of 2+2 and no 4-fold quartics at every
# level); multiple-root pencils of SLOCC images of the families, whose
# coefficients are off by about 1e-15, read at most 0.024 nu.  Of the wrong
# patterns, two double roots each split by 1e-4 read 7 nu or more in 9 of
# 10 cases (median 33 nu), and a triple split by 1e-4 along a line 25 nu or
# more.  Four roots within about 1e-3 of each other stay partly out of
# reach: their quartic can lie within nu of 2+2 and 3+1 quartics.
# Each of these quantities is decided by kernels.vanishes against its bound;
# a discriminant that clears ``_disc_screen``, an upper bound of its bound
# that needs no gradient, is nonzero without forming the gradients.
# nu: ``analyze_span`` passes the quartic of two unit vectors u = e0 and v =
# e1, which kernels.pencil_quartic expands as S^2 - 4 P Q with S = s0 x^2 +
# s1 x y + s2 y^2 and likewise P and Q.  Each of s0, p0, q0 (s2, p2, q2) is
# a signed sum of products u_i u_j (v_i v_j) over disjoint index pairs, so
# by Cauchy-Schwarz its terms sum to at most 1/2 in magnitude; s1, p1 and q1
# sum u_i v_j + v_i u_j over such pairs, at most |u| |v| = 1.  A complex
# product rounds within sqrt(5) u of its value (u = 2^-53) and a sum within
# u, so s0 and s2 are off by at most 2.7 u, s1 by 9.3 u, p0, q0, p2 and q2
# by 1.7 u, p1 and q1 by 5.3 u, and carried through the products and sums
# of the coefficients that makes at most 13, 69, 117, 69 and 13 u (4 u at
# most measured on 3000 pairs of unit vectors).  The rounding of e0 and e1
# themselves, a few u in each component, moves the coefficients by a
# similar amount.  All of it lies far below _NOISE = 2^-37 (6.6e4 u), which
# is kept: the ratios measured below were taken against it.
# Measured on 12000 pencils of SLOCC images of the ten families (rounded
# inputs included), every test of a true multiple root read at most 2e-2
# of its bound and every other test at least 3e5 times it; on 6000 Gaussian
# pencils the discriminant read at least 1e7 times its bound, and the share
# of pencils below a ratio grows in proportion to it.
# The pencil basis is orthonormal: ``analyze_span`` writes the forms in e0 =
# n0 / |n0| and e1 = w / |w|, w = n1 - <e0, n1> e0, with n0 = phi0 / s0 and
# n1 = phi1 / s1.  No magnitude of a unit vector exceeds 1, so the bound
# above holds for the rounding of the forms themselves.  Rounding of phi0
# and phi1 moves n1, and so w, by about u |n1|, and e1 by about u |n1| / |w|:
# the gain of ``_gain``, at least 1, about lambda^2 for images of W0kPsi_W
# and at most about 100 on the 12000 pencils above.  nu is multiplied by it
# (so is the clause bound below).  The basis is orthonormal because a basis
# whose Gram matrix has condition k (n0, n1 have k of order the gain
# squared) shrinks the true value of a degree-d invariant by up to k^d
# against max |c_i|^d while nu stays, so a pencil of two nearly parallel
# vectors with simple roots would reach the band and raise.
# Clause forms: kernels.pencil_minor gives each coefficient as a 2x2 minor
# of u or of v, components of magnitude <= A, or as its polarization, a
# signed sum of four such products, so it is off by at most 17 u A^2 (3.5 u
# A^2 at most measured on 3000 pairs of orthonormal vectors).  Every
# coefficient may carry e = _CLAUSE_NOISE A^2 (512 u A^2) times the gain, an
# upper bound that is kept because the ratios below were taken against it.
# Then b^2 - 4 a c moves by at most e (10 m + 5 e), m the largest coefficient
# magnitude, and its own rounding adds at most 2^-47 m^2.  Measured on the
# 12000 pencils above and on 800 condition-1e3 images of W0kPsi_W at lambda
# = 16 to 128, a true double root read at most 1e-2 of that bound and two
# simple roots at least 3e10 times it.
_NOISE = 2.0**-37
_CLAUSE_NOISE = 2.0**-44
_FIT = 8.0


def _gain(scales) -> float:
    """The factor hypot(1, |b / a|) by which rounding of phi0 and phi1 reaches
    the basis of a form with ``scales`` = (a, b, c): |n1| / |w| in
    ``analyze_span``."""
    return math.hypot(1.0, abs(scales[1] / scales[0]))


def _pencil_point(scales, x, y, multiplicity=1) -> ProjectivePoint:
    """The point (a x + b y : c y) of the pencil of phi0 and phi1 at the
    point (x : y) of a form with ``scales`` = (a, b, c) (see
    :class:`QuarticForm`)."""
    return ProjectivePoint(scales[0] * x + scales[1] * y, scales[2] * y, multiplicity)


def _times(p, l0, l1) -> list:
    """Coefficients (highest power of x first) of the binary form p times the
    linear form l0 x + l1 y."""
    return [l0 * a + l1 * b for a, b in zip(p + [0j], [0j] + p)]


def _fitted(c, roots, nu) -> list:
    """The placed roots (x, y, multiplicity) of a multiple pattern, once they
    reproduce the quartic (see the comment above ``_NOISE``)."""
    p = [1.0 + 0j]
    for x, y, m in roots:
        for _ in range(m):
            p = _times(p, y, -x)
    lam = sum(a.conjugate() * b for a, b in zip(p, c)) / sum(abs(a) ** 2 for a in p)
    if kernels.vanishes(max(abs(b - lam * a) for a, b in zip(p, c)), _FIT * nu, "quartic root fit"):
        return roots
    raise AmbiguousClassification("the placed multiple roots do not reproduce the quartic")


def _fourfold_root(c, multiplicity) -> tuple:
    """The root of a quartic (a x + b y)^4: -b/a, in the chart with the larger
    leading coefficient."""
    if abs(c[0]) >= abs(c[4]):
        return (-c[1], 4 * c[0], multiplicity)
    return (4 * c[4], -c[3], multiplicity)


def _simple_beside_triple(c, triple) -> tuple:
    """The simple root of f = (a x + b y)^3 (g x + d y), given the triple root,
    divided out at the larger of a and b."""
    a, b = triple[1], -triple[0]
    if abs(a) >= abs(b):
        g = c[0] / a**3
        return ((3 * a * a * b * g - c[1]) / a**3, g, 1)
    d = c[4] / b**3
    return (-d, (c[3] - 3 * a * b * b * d) / b**3, 1)


#: Real unit anchors of the charts of ``_chart``, at angles 0, pi/2, pi/4,
#: -pi/4 and pi/8: no two lie closer than pi/8 on the real projective line,
#: so any four points leave one anchor at chordal distance sin(pi/16) =
#: 0.195 or more from all of them (the fifth is needed: x y (x^2 - y^2)
#: vanishes at the other four).
_ANCHORS = ((1.0, 0.0), (0.0, 1.0), (0.5**0.5, 0.5**0.5), (0.5**0.5, -(0.5**0.5)),
            (math.cos(math.pi / 8), math.sin(math.pi / 8)))


def _chart(c) -> tuple:
    """(a, b, g): the anchor (a, b) with the largest |f| of the quartic c and
    the coefficients g of g(t, 1) = f(a t - b, b t + a), whose root t is the
    root (a t - b : b t + a) of f.  The chart puts the anchor at infinity, so
    g's leading coefficient is f(a, b), away from zero.  g is formed by
    Horner's rule on the linear forms a t - b and b t + a, with ring
    operations only."""
    f = QuarticForm(c, 1.0).evaluate
    a, b = max(_ANCHORS, key=lambda ab: abs(f(*ab)))
    g, power = [c[0]], [1.0]
    for ck in c[1:]:  # g X + ck Y^k, X = a t - b and Y = b t + a
        power = _times(power, b, a)
        g = [s + ck * t for s, t in zip(_times(g, a, -b), power)]
    return a, b, g


def _double_roots(g, square: bool) -> list:
    """The roots (t, multiplicity) of the quartic g(t, 1) of ``_chart`` with
    a double root: two double roots when it is a square, else one double and
    two simple roots.

    For a square, g / g0 = (t^2 + p t + r)^2; otherwise the double root d is
    the root of the linear gcd of g(t, 1) and its derivative, and deflating
    (t - d)^2 leaves the quadratic of the simple roots."""
    g0, g1, g2, g3, g4 = g
    if square:
        p = g1 / (2 * g0)
        return [(t, 2) for t in _quadratic_formula(1, p, (g2 / g0 - p * p) / 2)]
    # remainder r = 16 g0 g - (4 g0 t + g1) g', then g' modulo r
    ra, rb, rc = 8 * g0 * g2 - 3 * g1 * g1, 12 * g0 * g3 - 2 * g1 * g2, 16 * g0 * g4 - g1 * g3
    e = 3 * g1 * ra - 4 * g0 * rb
    d = (e * rc - g3 * ra * ra) / (2 * g2 * ra * ra - 4 * g0 * ra * rc - e * rb)
    p = g1 / g0 + 2 * d
    return [(d, 2)] + [(t, 1) for t in _quadratic_formula(1, p, g2 / g0 + 2 * d * p - d * d)]


def _disc_bound(c, i, j, nu) -> tuple:
    """(bound, e_I, e_J): the noise bound of the discriminant 4 I^3 - J^2 of
    the scaled quartic ``c`` with invariants (I, J), and those of I and J
    (see the comment above ``_NOISE``)."""
    c0, c1, c2, c3, c4 = c
    ai, aj = abs(i), abs(j)
    grad_i = (12 * c4, -3 * c3, 2 * c2, -3 * c1, 12 * c0)
    grad_j = (72 * c2 * c4 - 27 * c3 * c3, 9 * c2 * c3 - 54 * c1 * c4,
              72 * c0 * c4 + 9 * c1 * c3 - 6 * c2 * c2, 9 * c1 * c2 - 54 * c0 * c3,
              72 * c0 * c2 - 27 * c1 * c1)
    wi, wj = 12 * i * i, 2 * j
    e_i = nu * (sum(map(abs, grad_i)) + 16 * nu)
    e_j = nu * (sum(map(abs, grad_j)) + 411 * nu)
    bound = (nu * sum([abs(wi * di - wj * dj) for di, dj in zip(grad_i, grad_j)])
             + nu * nu * (192 * ai * ai + 822 * aj) + 12 * ai * e_i * e_i + 4 * e_i**3
             + e_j * e_j + 2.0**-40 * (ai * ai + aj))
    return bound, e_i, e_j


def _disc_screen(ai, aj, nu) -> float:
    """Twice an upper bound of the bound of ``_disc_bound`` that needs no
    gradient, for a scaled quartic (every |c_k| < 1) with |I| = ``ai`` and
    |J| = ``aj``: there the gradient sums of I and J are at most 32 and 411,
    so e_I <= 32 g and e_J <= 411 g with g = nu (1 + nu).  The factor 2 keeps
    it above the precise bound through the rounding of both."""
    g = nu * (1 + nu)
    return 2 * (g * (384 * ai * ai + 822 * aj) + g * g * (12288 * ai + 131072 * g + 168921)
                + 2.0**-40 * (ai * ai + aj))


# A simple root of the quartic of an orthonormal basis is a W point, and
# the values that ``_polished`` keeps prove it for the row ``_classes`` would
# form there, so that row need not be formed.  Write Det for the GHZ
# criterion (``kernels.ghz``).  Along the qubit of clause pair k it reads Det
# = S^2 -+ 4 P Q (Cayley's hyperdeterminant; Gelfand, Kapranov and
# Zelevinsky, Discriminants, Resultants, and Multidimensional Determinants,
# ch. 14), P and Q the two quantities of the pair (``kernels.clauses``), on
# disjoint halves of the amplitudes, and S the sum of four products that
# pair every amplitude with another one.  So the gradients of S, P and Q are
# signed permutations of the amplitudes of a row R, or of their halves, and
# with m the larger of |P| and |Q|
#   |grad Det| <= 2 |S| |R| + 4 m |R|,  |S|^2 <= |Det| + 4 m^2,
# hence |grad Det(R)| <= _SLOPE m |R| + 2 |R| sqrt|Det(R)|, _SLOPE = 8.  At a
# root Det = 0: a W point has every m > 0, while at a biseparable or product
# row two or three pairs vanish and the gradient with them (the singular
# points of Det = 0, which is why they are multiple roots).  Read backwards:
# a row whose gradient clears |R| (_SLOPE mu + 2 sqrt|Det(R)|) has every
# clause maximum above mu.
# In the chart y = 1 of the scaled quartic p(t) = scale Det(t e0 + e1), with
# |r|^2 = 1 + |t|^2 the squared norm of t e0 + e1, |p'(t)| <= scale |grad
# Det| because e0 is a unit vector.  ``tri_code`` reads the row W when its
# GHZ value is at most eps s^4 and every clause maximum at least BAND eps s^2
# (s its largest magnitude, |r| / sqrt(8) <= s <= |r|).  With u = 2^-53, g =
# ``_gain`` and f, f' = p, p' at the point of the root's last Newton step
# (``_polished``, a step of |w| = |f / f'| <= 2^-40 |t|):
#   - the coefficients are off by at most 13, 69, 117, 69 and 13 u scale
#     (above ``_NOISE``), which moves p by 154 u scale |r|^4 and p' by
#     324 u scale |r|^3, and Horner's rule on coefficients below 1 rounds f
#     by 29 u |r|^4 and f' by 143 u |r|^3;
#   - the row x phi0 + y phi1 at the reported point is t e0 + e1, up to a
#     factor, plus an error of at most 64 u g |r| (the rounding of e0, e1,
#     the scales and the row, the first reaching e1 multiplied by g), and the
#     reported t is w from the point of f;
#   - on that segment |grad Det| <= 3 |R|^3 and the Hessian of Det is at most
#     9 |R|^2, and ``kernels.ghz`` rounds by 10 u |R|^4.
# Each of these, summed, is below noise = 2^-42 (scale + 1) g times |r|^4
# (the GHZ value) or |r|^3 (the gradient).  So scale |Det| at the row is at
# most det = 2 |f| + noise |r|^4, and scale |grad Det| at least |f'| - noise
# |r|^3 - 10 scale |r|^2 |w|.  A root is certified W when
#   - 65 det <= eps scale |r|^4: with the rounding of s and R, the GHZ value
#     reads zero (s^4 >= |r|^4 / 64); it also keeps g <= 2^42 eps / 65, so
#     that |R| / |r| and the rounding of the clause maxima and of this test
#     stay within the factor 1 + 2^-9 below;
#   - the gradient clears (1 + 2^-9) scale |r| (_SLOPE mu + 2 sqrt(det /
#     scale)) with mu = (BAND eps + 2^-51) |r|^2: every clause maximum reads
#     nonzero.
# The test is one-sided and covers the four roots together: when one fails
# it, or its last step was not Newton's, all four are classified on their
# rows, as are the roots that ``quartic_roots`` places in a rotated chart
# (``_chart``), which keep no slopes.  On Gaussian
# pencils the largest ratio of |grad Det| to 8 m |R| at a root measured
# 0.90, so the constant has little slack.
_SLOPE = 8.0


def _certified(roots, scale, gain, eps) -> bool:
    """Whether the slope of each root (x, y, newton) of the scaled quartic of
    an orthonormal basis certifies it as a W point (see the comment above
    ``_SLOPE``)."""
    noise = 2.0**-42 * (scale + 1) * gain
    room, clause = eps * scale / 65, (1 + 2.0**-9) * _SLOPE * (kernels.BAND * eps + 2.0**-51) * scale
    for x, _, newton in roots:
        if newton is None:  # its last step was not Newton's
            return False
        f, df = newton
        rr = 1.0 + x.real * x.real + x.imag * x.imag
        af, adf, r = abs(f), abs(df), math.sqrt(rr)
        det = 2 * af + noise * rr * rr
        if det > room * rr * rr or not adf or (adf - noise * rr * r - 10 * scale * rr * af / adf
                                               < r * (clause * rr + (2 + 2.0**-8) * math.sqrt(det * scale))):
            return False
    return True


class _Roots(list):
    """The points of ``quartic_roots``, which also keep in ``slopes`` what
    ``_certified`` reads of four simple roots (None for multiple roots)."""

    __slots__ = ("slopes",)

    def __init__(self, points, slopes=None):
        super().__init__(points)
        self.slopes = slopes


def quartic_roots(q: QuarticForm, eps: float = DEFAULT_EPS) -> list:
    """All projective roots of the quartic, multiplicities summing to 4.

    The multiplicity pattern is read from the Hessian, the invariants I and
    J and the discriminant (see the comment above ``_NOISE``); a covariant
    between its zero and nonzero thresholds raises
    :class:`AmbiguousClassification`.  Multiple roots are placed in closed
    form: a 4-fold root at -b/a, a triple root at the 4-fold root of the
    Hessian, the roots of a square f = q^2 at the roots of q, and the double
    root of 2+1+1 at the linear gcd of f and its derivative, and the simple
    roots beside a multiple one by deflation; placed roots whose product is
    not a multiple of f within noise raise as well.  Four simple roots come
    from Ferrari's closed form (``_polynomial_roots``) in the basis chart y
    = 1 when |c0| exceeds ``eps`` times the largest coefficient, else in the
    anchored chart of ``_chart``, where 2+2 and 2+1+1 are placed too.  Each
    root is reported in the coordinates of the pencil of phi0 and phi1 (see
    :class:`QuarticForm`).

    The list's ``slopes`` attribute holds, for four simple roots of the
    basis chart, what ``_certified`` reads (the roots of the scaled quartic
    with their Newton values, its scale and the gain), from which
    ``analyze_span`` certifies W points in its orthonormal basis; otherwise
    it is None.
    """
    if q.identically_zero(eps):
        raise IdenticallyZero("quartic vanishes identically")
    c = list(map(complex, q.c))
    scale = 2.0 ** -math.frexp(max(map(abs, c)))[1]
    c = [z * scale for z in c]
    gain = _gain(q.scales)
    nu = _NOISE * q.amp_scale**4 * scale * gain
    i, j = kernels.quartic_invariants(*c)
    ai, aj, disc = abs(i), abs(j), abs(4 * i**3 - j * j)
    # a clear discriminant needs no gradient
    clear = disc >= kernels.BAND * _disc_screen(ai, aj, nu)
    if not clear:
        disc_bound, e_i, e_j = _disc_bound(c, i, j, nu)
    if clear or not kernels.vanishes(disc, disc_bound, "quartic discriminant"):
        # a sharp test, not kernels.vanishes: either chart places the roots,
        # and only the certificate needs the basis chart
        if abs(c[0]) > eps * max(map(abs, c)):
            roots = [(x, 1.0, newton) for x, newton in _polynomial_roots(c)]
            return _Roots([_pencil_point(q.scales, x, y) for x, y, _ in roots], (roots, scale, gain))
        a, b, g = _chart(c)
        return _Roots([_pencil_point(q.scales, a * t - b, b * t + a) for t, _ in _polynomial_roots(g)])
    h = kernels.hessian(*c)
    h_max = max(map(abs, h))
    if kernels.vanishes(h_max, 116 * nu, "quartic Hessian"):
        roots = [_fourfold_root(c, 4)]
    elif kernels.vanishes(max(ai / e_i, aj / e_j), 1.0, "quartic invariants I, J"):
        triple = _fourfold_root(h, 3)
        roots = [triple, _simple_beside_triple(c, triple)]
    else:
        minors = max(abs(c[k] * h[n] - c[n] * h[k]) for k in range(5) for n in range(k + 1, 5))
        square = kernels.vanishes(minors, 2 * nu * (116 + h_max), "quartic square test")
        a, b, g = _chart(c)
        roots = [(a * t - b, b * t + a, m) for t, m in _double_roots(g, square)]
    return _Roots([_pencil_point(q.scales, x, y, m) for x, y, m in _fitted(c, roots, nu)])


def _quadratic_roots(f: QuadraticForm) -> list:
    """Roots of a quadratic form a x^2 + b xy + c y^2 that does not vanish
    identically.

    Its discriminant b^2 - 4 a c decides a double root: exactly in exact
    mode, else against its rounding bound (see the comment above
    ``_CLAUSE_NOISE``).  A double root is one point of multiplicity 2 at
    (-b : 2 a) or (2 c : -b), in the chart of the larger of |a| and |c|;
    two simple roots are (q : a) and (c : q) with q of ``_larger_q``.  q is
    0 only where the float form is a x^2 or c y^2 and the exact one has two
    roots, both within rounding of the float form's double root."""
    a, b, c = f.c
    if f.exact is None:
        m, e = max(map(abs, f.c)), _CLAUSE_NOISE * f.amp_scale**2 * _gain(f.scales)
        double = kernels.vanishes(abs(b * b - 4 * a * c), e * (10 * m + 5 * e) + 2.0**-47 * m * m,
                                  "clause form discriminant")
    else:
        ea, eb, ec = f.exact
        double = not (eb * eb - 4 * ea * ec)
    q = 0j if double else _larger_q(a, b, c)
    if not q:
        return [ProjectivePoint(-b, 2 * a, 2) if abs(a) >= abs(c) else ProjectivePoint(2 * c, -b, 2)]
    return [ProjectivePoint(q, a), ProjectivePoint(c, q)]


def common_roots(f: QuadraticForm, g: QuadraticForm, eps: float = DEFAULT_EPS) -> list:
    """Common projective roots of a clause pair.

    Existence is decided by the resultant: exactly in exact mode, else
    against eps (m_f m_g)^2, m_f and m_g the largest coefficient magnitudes
    of f and g.  A shared root is then the root of the linear form in one
    subresultant step: a2 f - a1 g = y (l0 x + l1 y), or c2 f - c1 g = x
    (l0 x + l1 y) in the chart with the larger y^2 coefficients.  When that
    linear form vanishes too (against sqrt(eps) m_f m_g), f and g are
    proportional and share both roots, taken from the larger form.  A form
    that vanishes identically contributes the other form's roots (if both
    vanish, every point is common and the caller must handle the clause as
    identically false).
    """
    nonzero = [form for form in (f, g) if not form.identically_zero(eps)]
    if not nonzero:
        raise IdenticallyZero("both quadratics vanish identically")
    if len(nonzero) == 1:
        return _quadratic_roots(nonzero[0])
    scale = max(map(abs, f.c)) * max(map(abs, g.c))
    # the float resultant test and the proportional-forms test below stay
    # sharp, outside kernels.vanishes: they only screen candidates, which the
    # caller classifies before they count.  On SLOCC images of W0kPsi_W at
    # lambda = 16 to 128 (tests/test_w_generic.py), forcing either one to
    # its other reading within a factor 32 of its bound never moved a
    # verdict to another class, while a band raised on up to 525 of 600
    # images (see the README)
    if f.exact is not None and g.exact is not None:
        if kernels.resultant(f.exact, g.exact):
            return []
    elif abs(kernels.resultant(f.c, g.c)) > eps * scale**2:
        return []
    a1, b1, c1 = f.c
    a2, b2, c2 = g.c
    if max(abs(a1), abs(a2)) >= max(abs(c1), abs(c2)):
        l0, l1 = a2 * b1 - a1 * b2, a2 * c1 - a1 * c2
    else:
        l0, l1 = c2 * a1 - c1 * a2, c2 * b1 - c1 * b2
    # two forms a relative distance r from proportional have a resultant of
    # order r^2 and a linear form of order r, hence the bound sqrt(eps).  It
    # is kept, not derived, for a measured reason: on families-all seeds
    # 11/22/33 (3000 images each) the linear forms of the pairs that reach
    # it read 5.9 to 6.9 decades below it and none lies above it.  Of two
    # proportional forms the larger one has the smaller relative error
    if max(abs(l0), abs(l1)) <= math.sqrt(eps) * scale:
        return _quadratic_roots(max(f, g, key=lambda form: max(map(abs, form.c))))
    return [ProjectivePoint(-l1, l0)]


class _ExactContext:
    """Exact-arithmetic companions of the float pencil data.  It imports
    :mod:`slocc4.exact` when created, so float mode never loads it."""

    def __init__(self, p0, p1):
        from . import exact

        self.exact = exact
        self.p0 = exact.lift(p0)
        self.p1 = exact.lift(p1)

    def snapped(self, pt: ProjectivePoint) -> tuple:
        """A float projective point (x : y) snapped to Gaussian rationals:
        (num : den) with (num, den) the snap of x / y, or (den : num) with
        that of y / x, in the chart of the larger coordinate."""
        if abs(pt.y) >= abs(pt.x):
            return self.exact.snap_complex(pt.x / pt.y)
        num, den = self.exact.snap_complex(pt.y / pt.x)
        return den, num


def _classes(b0, b1, points, mapped, generic, eps, ctx) -> list:
    """The class to record at each candidate point (x : y) of ``points``:
    classify3 of the row x b0 + y b1 (``kernels.pencil_elements``).

    In exact mode (``ctx`` given) the exact class at the snapped point
    (``mapped``, the same points in the coordinates of the lifted vectors,
    snapped by ``ctx.snapped``) is recorded when it differs from
    ``generic``, and a float value in the band at such a point does not
    count: when the rows raise together, only the rows whose exact class is
    generic are classified again.  Exact
    arithmetic may sharpen a verdict (certify the point as exceptional) but
    never erases numerically detected structure: an irrational point, or
    float noise that pushes the input off the exact variety, leaves the
    exact class generic and the float class stands.
    """
    rows = kernels.pencil_elements(b0, b1, [(pt.x, pt.y) for pt in points])
    if ctx is None:
        return classify3_batch(rows, eps)
    exact_rows = kernels.pencil_elements(ctx.p0, ctx.p1, map(ctx.snapped, mapped))
    exact = [classify3_exact_amps(row) for row in exact_rows]
    try:
        floats = classify3_batch(rows, eps)
    except AmbiguousClassification:
        floats = [None if cls != generic else classify3_batch([row], eps)[0] for row, cls in zip(rows, exact)]
    return [cls if cls != generic else f for cls, f in zip(exact, floats)]


def analyze_span(
    phi0,
    phi1,
    eps: float = DEFAULT_EPS,
    exact: bool = False,
) -> SpanProfile:
    """Profile the pencil spanned by two independent 3-qubit vectors.

    The quartic and the clause forms are written in an orthonormal basis e0,
    e1 of the pencil, and every point is reported in the coordinates of
    phi0 and phi1 (see :class:`QuarticForm`).  If the quartic is nonzero
    the generic element is GHZ and its roots are the exceptional points:
    when the slopes that ``quartic_roots`` leaves certify all four as W
    points (``_certified``, float mode only), they are recorded as W with no
    row formed, and otherwise each one is classified on its row
    (``_classes``).  If it vanishes identically, clause k holds at a
    generic element exactly when its clause pair does not vanish
    identically, and the exceptional candidates are the common roots of
    each such pair (a clause fails exactly where both of its quadratics
    vanish); candidates are kept when their class differs from the generic
    one.

    In exact mode all identity decisions (quartic and clause-form
    vanishing, resultants, double roots, the generic type) are exact, and
    candidate points are also classified exactly at snapped rational
    coordinates (see ``_classes``); the Gram test and the placement of the
    float quartic's roots stay float decisions in both modes.  Exactness
    certifies structure that is exactly representable; when the exact lift
    sits within float noise of the vanishing variety without being exactly
    on it (e.g. a family member with irrational parameters rounded to
    floats), the profile falls back to numeric semantics instead of
    classifying the noise.
    """
    check_eps(eps)
    p0, p1, s0, s1 = _check_inputs(phi0, phi1)
    # n0 and n1 have largest magnitude 1, so no sum below underflows; then
    # e0 = n0 / r and e1 = w / t with w = n1 - <e0, n1> e0 = n1 - h n0
    r0, r1 = 1.0 / s0, 1.0 / s1
    n0, n1 = [z * r0 for z in p0], [z * r1 for z in p1]
    r = math.hypot(*map(abs, n0))
    g00 = r * r
    h = sum([a.conjugate() * b for a, b in zip(n0, n1)]) / g00
    w = [b - h * a for a, b in zip(n0, n1)]
    t = math.hypot(*map(abs, w))
    # the Gram matrix of p0 and p1, from <n0, n1> = h r^2 and |n1|^2 =
    # |h|^2 r^2 + t^2
    lo, hi = _herm2_eigs(g00 * s0 * s0, (abs(h) ** 2 * g00 + t * t) * s1 * s1, h * g00 * s0 * s1)
    # the band of this zero test lies below eps: a pencil that passes is
    # written in an orthonormal basis whose gain enters every later noise
    # bound, and W0kPsi_W at lambda = 100, whose structure is 1/lambda^2 of
    # its amplitudes, reads lo / hi = 29 eps
    if t == 0.0 or kernels.vanishes(lo, eps * hi / kernels.BAND, "pencil Gram matrix"):
        raise DegeneratePencil("spanning vectors are linearly dependent")

    ctx = _ExactContext(p0, p1) if exact else None
    e0, e1 = [z / r for z in n0], [z / t for z in w]
    # x e0 + y e1 = (x / r - y h / t) n0 + (y / t) n1
    scales = (r0 / r, -h * r0 / t, r1 / t)
    if ctx is not None and not any(ctx.exact.quartic_exact(ctx.p0, ctx.p1)):
        return _profile_degenerate_quartic(e0, e1, scales, eps, ctx)
    try:
        roots = quartic_roots(QuarticForm(kernels.pencil_quartic(e0, e1), 1.0, scales), eps)
    except IdenticallyZero:
        # in exact mode the lift is off the variety at noise level only:
        # numeric semantics
        return _profile_degenerate_quartic(e0, e1, scales, eps, None)
    if ctx is None and roots.slopes is not None and _certified(*roots.slopes, eps):
        return SpanProfile(TriClass.GHZ, tuple((pt, TriClass.W) for pt in roots))
    classes = _classes(p0, p1, roots, roots, TriClass.GHZ, eps, ctx)
    return SpanProfile(TriClass.GHZ, tuple(zip(roots, classes)))


def _live(fa, fb, eps) -> bool:
    """Whether a clause pair does not vanish identically: exactly in exact
    mode, else by its largest coefficient magnitude against eps s^2 (s =
    ``amp_scale``), where a value in the band of ``kernels.vanishes``
    leaves the generic type undecided."""
    if fa.exact is not None:
        return not (fa.identically_zero(eps) and fb.identically_zero(eps))
    return not kernels.vanishes(max(map(abs, fa.c + fb.c)), eps * fa.amp_scale**2,
                                "clause pair", GenericTypeUnstable)


def _profile_degenerate_quartic(e0, e1, scales, eps, ctx):
    """Profile of a pencil whose quartic vanishes identically; exactly so
    when ``ctx`` is given."""
    # float coefficients in the orthonormal basis (root localization), exact
    # triples from the raw lift (identity decisions are invariant under the
    # change of basis, and the raw amplitudes carry the exact zero relations
    # that it would round away)
    exact_forms = ctx.exact.clause_quadratics_exact(ctx.p0, ctx.p1) if ctx else (None,) * 6
    pairs = [[f._replace(exact=exact_forms[2 * k + j]) for j, f in enumerate(pair)]
             for k, pair in enumerate(_clause_forms(e0, e1, 1.0, scales))]
    live = [_live(*pair, eps) for pair in pairs]
    # clause k holds at a generic element exactly when its pair does not
    # vanish identically, and fails only at the common roots of that pair
    generic = kernels.clause_class(*live, "the generic element")
    candidates = []
    for (fa, fb), keep in zip(pairs, live):
        if keep:
            candidates.extend(common_roots(fa, fb, eps))

    # a radius, not a zero test: it merges the common roots of different
    # clause pairs at one point, and stays outside kernels.vanishes
    centroids = cluster_points(candidates, math.sqrt(eps))
    mapped = [_pencil_point(scales, pt.x, pt.y) for pt in centroids]
    classes = _classes(e0, e1, centroids, mapped, generic, eps, ctx)
    return SpanProfile(generic, tuple((pt, cls) for pt, cls in zip(mapped, classes) if cls != generic))
