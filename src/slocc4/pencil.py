"""Analysis of 2-dimensional spans of 3-qubit vectors.

A pencil ``{x phi0 + y phi1}`` is profiled by the homogeneous quartic that
the GHZ criterion induces in ``(x, y)``: either the quartic is nonzero and
its at most four projective roots are the only non-GHZ elements, or it
vanishes identically and the exceptional elements sit at common roots of
the clause quadratics.  Coefficients are extracted by interpolation at
fixed integer nodes so a single code path reuses the classifier's
polynomial kernels and is self-validated by an evaluation identity.
"""

import cmath
import math
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import (
    AmbiguousClassification,
    DegeneratePencil,
    GenericTypeUnstable,
    IdenticallyZero,
    InternalContradiction,
    ZeroState,
)
from .qstate import DEFAULT_EPS, PureState, _herm2_eigs
from .tri import TriClass, _class_from_code, classify3_batch, classify3_exact_amps


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

    @property
    def at_infinity(self) -> bool:
        """True for (1 : 0), i.e. the pencil element phi0 itself."""
        return self.y == 0.0

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

    ``scales`` = (s0, s1) marks the quartic of the pencil of phi0 / s0 and
    phi1 / s1: its root (x : y) is the point (x / s0 : y / s1) of the pencil
    of phi0 and phi1, where ``quartic_roots`` reports it.
    """

    c: np.ndarray
    amp_scale: float
    scales: tuple = (1.0, 1.0)

    def evaluate(self, x, y) -> complex:
        x, y = complex(x), complex(y)
        xs = np.array([x**4, x**3 * y, x**2 * y**2, x * y**3, y**4])
        return complex(np.dot(self.c, xs))

    def identically_zero(self, eps: float = DEFAULT_EPS) -> bool:
        return max(np.abs(self.c).tolist()) <= eps * self.amp_scale**4


class QuadraticForm(NamedTuple):
    """Homogeneous quadratic c0 x^2 + c1 xy + c2 y^2."""

    c: np.ndarray
    amp_scale: float
    exact: tuple = None

    def evaluate(self, x, y) -> complex:
        x, y = complex(x), complex(y)
        return complex(self.c[0] * x * x + self.c[1] * x * y + self.c[2] * y * y)

    def identically_zero(self, eps: float = DEFAULT_EPS) -> bool:
        if self.exact is not None:
            return all(z.is_zero for z in self.exact)
        return max(np.abs(self.c).tolist()) <= eps * self.amp_scale**2


class SpanProfile(NamedTuple):
    """Result of profiling a pencil of 3-qubit vectors."""

    quartic_identically_zero: bool
    generic_type: TriClass
    exceptional: tuple  # of (ProjectivePoint, TriClass) pairs
    contains_000: bool
    bisep_cuts: tuple
    w_points: bool
    ghz_generic: bool

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


def _amps_of(state) -> np.ndarray:
    if isinstance(state, PureState):
        if state.n != 3:
            raise DegeneratePencil(f"pencil vectors must be 3-qubit, got n={state.n}")
        return state.amps
    arr = np.asarray(state, dtype=np.complex128).reshape(-1)
    if arr.shape != (8,):
        raise DegeneratePencil("pencil vectors must have 8 amplitudes")
    return arr


def _check_inputs(phi0, phi1):
    """The two pencil vectors as arrays, with their largest magnitudes.

    When the larger magnitude lies outside [``kernels.SCALE_LO``,
    ``kernels.SCALE_HI``], both vectors are rescaled by the same exact
    power of two, which leaves every point of the pencil in place."""
    p0 = _amps_of(phi0)
    p1 = _amps_of(phi1)
    s0 = max(np.abs(p0).tolist())
    s1 = max(np.abs(p1).tolist())
    if s0 == 0.0:
        raise ZeroState("phi0 is the zero vector")
    if s1 == 0.0:
        raise ZeroState("phi1 is the zero vector")
    top = max(s0, s1)
    if not kernels.SCALE_LO <= top <= kernels.SCALE_HI:
        p0 = kernels.pow2_scaled(p0, top)
        p1 = kernels.pow2_scaled(p1, top)
        s0 = max(np.abs(p0).tolist())
        s1 = max(np.abs(p1).tolist())
    return p0, p1, s0, s1


#: Interpolation nodes (x, y) of the quartic and of the clause quadratics.
_QUARTIC_NODES = np.array(kernels.NODES, dtype=np.complex128)
_QUADRATIC_NODES = _QUARTIC_NODES[:3]


def quartic(phi0, phi1) -> QuarticForm:
    """Quartic form equal to the GHZ criterion of ``x phi0 + y phi1``.

    Coefficients are obtained from evaluations at five fixed nodes; the
    endpoint coefficients come from (1,0) and (0,1) alone, so the y^4
    coefficient is exactly the invariant of ``phi1``.  For vectors outside
    the scale window it is the quartic of the rescaled pencil (see
    ``_check_inputs``).
    """
    p0, p1, s0, s1 = _check_inputs(phi0, phi1)
    rows = kernels.pencil_elements(p0, p1, _QUARTIC_NODES).tolist()
    c = kernels.quartic_coefficients(*[kernels.ghz(*row) for row in rows])
    return QuarticForm(c=np.array(c), amp_scale=max(s0, s1))


def clause_quadratics(phi0, phi1) -> tuple:
    """The six clause quantities as quadratic forms on the pencil, grouped
    into the three clause pairs."""
    p0, p1, s0, s1 = _check_inputs(phi0, phi1)
    q = kernels.clause_quantities_batch(kernels.pencil_elements(p0, p1, _QUADRATIC_NODES))
    alpha, beta, gamma = kernels.quadratic_coefficients(*q)
    forms = tuple(QuadraticForm(c=np.array(abc), amp_scale=max(s0, s1))
                  for abc in zip(alpha, beta, gamma))
    return (forms[0:2], forms[2:4], forms[4:6])


def _quadratic_formula(a, b, c) -> tuple:
    """Both roots of a x^2 + b x + c (a != 0), cancellation-safe."""
    if c == 0:
        return (0.0 + 0.0j, -b / a)
    s = cmath.sqrt(b * b - 4.0 * a * c)
    if abs(b - s) > abs(b + s):
        s = -s
    q = -0.5 * (b + s)
    return (q / a, c / q)


def _raw_projective_roots(coeffs: list, eps: float) -> list:
    """Unclustered projective roots (x, y) of a homogeneous binary form of
    degree at most four (a list of coefficients, highest power of x first).
    Leading coefficients within ``eps`` of the largest give roots at
    infinity (1, 0); in a cubic or quartic rest, each exact trailing zero
    gives the root (0, 1), and ``_polynomial_roots`` gives the others."""
    mags = list(map(abs, coeffs))
    cmax = max(mags)
    if cmax == 0.0:
        raise IdenticallyZero("form has no roots: all coefficients vanish")
    k = 0
    while k < len(mags) - 1 and mags[k] <= eps * cmax:
        k += 1
    tail = coeffs[k:]
    zeros = 0
    while len(tail) > 3 and tail[-1] == 0:
        tail.pop()
        zeros += 1
    return [(1.0, 0.0)] * k + [(r, 1.0) for r in _polynomial_roots(tail)] + [(0j, 1.0)] * zeros


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
    """Roots of p[0] x^n + .. + p[n] (n <= 4, p[0] != 0) in closed form.

    A cubic is depressed and solved by Cardano; a quartic is depressed to
    y^4 + P y^2 + Q y + R and split by Ferrari into the two quadratics
    y^2 -+ s y + P/2 + m +- Q/(2 s), s^2 = 2 m, with m the root of largest
    magnitude of the resolvent cubic m^3 + P m^2 + (P^2/4 - R) m - Q^2/8
    (2 m is the square of a sum of two roots y, so m = 0 only when all four
    roots coincide, and then Q = 0).  Depressing loses the small roots of a
    polynomial whose roots span many decades, so the estimates are then
    refined on p itself by ``_polished``."""
    n = len(p) - 1
    if n == 0:
        return []
    if n == 1:
        return [-p[1] / p[0]]
    if n == 2:
        return list(_quadratic_formula(*p))
    lead = p[0]
    if n == 3:
        a, b, c = p[1] / lead, p[2] / lead, p[3] / lead
        shift = a / 3
        xs = [t - shift for t in _cubic_roots(b - a * shift, (2 * shift * shift - b) * a / 3 + c)]
    else:
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
    (or for 32 rounds).

    A step is Newton's, f / f', divided by 1 - (f / f') sum_j 1 / (x - x_j)
    unless it is already that small; the sum keeps two estimates from
    converging to the same root.  On estimates within a few units in the
    last place, one Newton step each ends it."""
    lead, rest = p[0], p[1:]
    for _ in range(32):
        done = True
        for i, x in enumerate(xs):
            f, df = lead, 0j
            for a in rest:
                df = df * x + f
                f = f * x + a
            w = f / df if df else f
            if abs(w) > 2.0**-40 * abs(x):
                w /= 1 - w * sum(1 / (x - y) for y in xs if y != x)
                done = False
            xs[i] = x - w
        if done:
            break
    return xs


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
# A quantity within its bound is zero, one above _BAND times it is nonzero,
# and one in between raises AmbiguousClassification.
# nu: ``analyze_span`` passes the quartic of two vectors with largest
# magnitude 1.  kernels.ghz on a row of magnitudes <= A is off by at most
# 424 u A^4 (u = 2^-53), forming the rows at the nodes adds 128 u A^4, and
# with A = 1, 1, 2, 2, 3 at the five nodes the interpolation makes that at
# most about 3.5e4 u in every coefficient, below _NOISE = 2^-37 (6.6e4 u).
# Measured on 6000 pencils of SLOCC images of the ten families (rounded
# inputs included), every test of a true multiple root read at most 1e-2
# of its bound and every other test at least 1e6 times it; on 6000 Gaussian
# pencils the discriminant read at least 2e7 times its bound, and the share
# of pencils below a ratio grows in proportion to it.
# The pencil basis is normalized, not orthonormal: a basis whose Gram
# matrix has condition k shrinks the true value of a degree-d invariant by
# up to k^d against max |c_i|^d but leaves nu as it is, so the nonzero
# margins above shrink with k (up to 8e2 in the measured pencils), and a
# badly conditioned pencil with simple roots reaches the band, where it
# raises, before the zero side.
_NOISE = 2.0**-37
_BAND = 32.0
_FIT = 8.0


def _vanishes(value, bound, what) -> bool:
    """Zero test of a covariant value against its noise bound."""
    if value <= bound or value >= _BAND * bound:
        return value <= bound
    raise AmbiguousClassification(f"quartic {what} at {value / bound:.3g} times its noise "
                                  f"bound, between the zero (1) and nonzero ({_BAND:g}) thresholds")


def _fitted(c, roots, nu) -> list:
    """The placed roots (x, y, multiplicity) of a multiple pattern, once they
    reproduce the quartic (see the comment above ``_NOISE``)."""
    p = [1.0 + 0j]
    for x, y, m in roots:
        for _ in range(m):  # times (y X - x Y)
            p = [a * y - b * x for a, b in zip(p + [0j], [0j] + p)]
    lam = sum(a.conjugate() * b for a, b in zip(p, c)) / sum(abs(a) ** 2 for a in p)
    if _vanishes(max(abs(b - lam * a) for a, b in zip(p, c)), _FIT * nu, "fit of the placed roots"):
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


#: Real unit anchors of the charts of ``_double_roots``.  Any three points
#: leave one anchor at chordal distance 0.35 or more from all of them.
_ANCHORS = ((1.0, 0.0), (0.0, 1.0), (0.5**0.5, 0.5**0.5), (0.5**0.5, -(0.5**0.5)))


def _double_roots(c, square: bool) -> list:
    """The roots of a quartic with a double root: two double roots when it
    is a square, else one double and two simple roots.

    The chart puts at infinity the anchor with the largest |f|: with
    g(t, 1) = f(a t - b, b t + a), g's leading coefficient is f(a, b).  For
    a square, g / g0 = (t^2 + p t + r)^2; otherwise the double root d is the
    root of the linear gcd of g(t, 1) and its derivative, and deflating
    (t - d)^2 leaves the quadratic of the simple roots."""
    def f(x, y):
        return sum(ck * x ** (4 - k) * y**k for k, ck in enumerate(c))

    a, b = max(_ANCHORS, key=lambda ab: abs(f(*ab)))
    g0, g1, g2, g3, g4 = kernels.quartic_coefficients(*(f(a * u - b * v, b * u + a * v)
                                                        for u, v in kernels.NODES))
    if square:
        p = g1 / (2 * g0)
        roots = [(t, 2) for t in _quadratic_formula(1, p, (g2 / g0 - p * p) / 2)]
    else:
        # remainder r = 16 g0 g - (4 g0 t + g1) g', then g' modulo r
        ra, rb, rc = 8 * g0 * g2 - 3 * g1 * g1, 12 * g0 * g3 - 2 * g1 * g2, 16 * g0 * g4 - g1 * g3
        e = 3 * g1 * ra - 4 * g0 * rb
        d = (e * rc - g3 * ra * ra) / (2 * g2 * ra * ra - 4 * g0 * ra * rc - e * rb)
        p = g1 / g0 + 2 * d
        simple = _quadratic_formula(1, p, g2 / g0 + 2 * d * p - d * d)
        roots = [(d, 2)] + [(t, 1) for t in simple]
    return [(a * t - b, b * t + a, m) for t, m in roots]


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
    from ``_raw_projective_roots`` in closed form, with roots at infinity
    (1 : 0) where leading coefficients vanish within ``eps``.  Each root is
    reported in the coordinates of the undivided pencil (see
    :class:`QuarticForm`).
    """
    if q.identically_zero(eps):
        raise IdenticallyZero("quartic vanishes identically")
    c = q.c.tolist()
    scale = 2.0 ** -math.frexp(max(map(abs, c)))[1]
    c0, c1, c2, c3, c4 = c = [z * scale for z in c]
    nu = _NOISE * q.amp_scale**4 * scale
    i, j = kernels.quartic_invariants(*c)
    grad_i = (12 * c4, -3 * c3, 2 * c2, -3 * c1, 12 * c0)
    grad_j = (72 * c2 * c4 - 27 * c3 * c3, 9 * c2 * c3 - 54 * c1 * c4,
              72 * c0 * c4 + 9 * c1 * c3 - 6 * c2 * c2, 9 * c1 * c2 - 54 * c0 * c3,
              72 * c0 * c2 - 27 * c1 * c1)
    ai, aj, wi, wj = abs(i), abs(j), 12 * i * i, 2 * j
    e_i = nu * (sum(map(abs, grad_i)) + 16 * nu)
    e_j = nu * (sum(map(abs, grad_j)) + 411 * nu)
    disc_bound = (nu * sum([abs(wi * di - wj * dj) for di, dj in zip(grad_i, grad_j)])
                  + nu * nu * (192 * ai * ai + 822 * aj) + 12 * ai * e_i * e_i + 4 * e_i**3
                  + e_j * e_j + 2.0**-40 * (ai * ai + aj))
    s0, s1 = q.scales
    if not _vanishes(abs(4 * i**3 - j * j), disc_bound, "discriminant"):
        roots = _raw_projective_roots(c, eps)
        if roots[1][1] == 0:
            raise AmbiguousClassification("simple quartic roots, two leading coefficients within eps")
        return [ProjectivePoint(x / s0, y / s1) for x, y in roots]
    h = kernels.hessian(*c)
    h_max = max(map(abs, h))
    if _vanishes(h_max, 116 * nu, "Hessian"):
        roots = [_fourfold_root(c, 4)]
    elif _vanishes(max(ai / e_i, aj / e_j), 1.0, "invariants I, J"):
        triple = _fourfold_root(h, 3)
        roots = [triple, _simple_beside_triple(c, triple)]
    else:
        minors = max(abs(c[k] * h[n] - c[n] * h[k]) for k in range(5) for n in range(k + 1, 5))
        roots = _double_roots(c, _vanishes(minors, 2 * nu * (116 + h_max), "square test"))
    return [ProjectivePoint(x / s0, y / s1, m) for x, y, m in _fitted(c, roots, nu)]


def _quadratic_roots(f: QuadraticForm, eps: float) -> list:
    """Roots of a quadratic form, clustered with radius ``sqrt(eps)``."""
    if f.identically_zero(eps):
        return []
    roots = _raw_projective_roots(f.c.tolist(), eps)
    return cluster_points([ProjectivePoint(x, y) for x, y in roots], math.sqrt(eps))


def common_roots(f: QuadraticForm, g: QuadraticForm, eps: float = DEFAULT_EPS) -> list:
    """Common projective roots of a clause pair.

    Existence is decided by the resultant.  A shared root is then the root of
    the linear form in one subresultant step: a2 f - a1 g = y (l0 x + l1 y),
    or c2 f - c1 g = x (l0 x + l1 y) in the chart with the larger y^2
    coefficients.  When that linear form vanishes too, f and g are
    proportional and share both roots, taken from the larger form.  A form
    that vanishes identically contributes the other form's roots (if both
    vanish, every point is common and the caller must handle the clause as
    identically false).
    """
    fz = f.identically_zero(eps)
    gz = g.identically_zero(eps)
    if fz and gz:
        raise IdenticallyZero("both quadratics vanish identically")
    if fz:
        return _quadratic_roots(g, eps)
    if gz:
        return _quadratic_roots(f, eps)
    scale = float(np.abs(f.c).max()) * float(np.abs(g.c).max())
    if f.exact is not None and g.exact is not None:
        if kernels.resultant(f.exact, g.exact):
            return []
    elif abs(complex(kernels.resultant(f.c, g.c))) > eps * scale**2:
        return []
    a1, b1, c1 = f.c.tolist()
    a2, b2, c2 = g.c.tolist()
    if max(abs(a1), abs(a2)) >= max(abs(c1), abs(c2)):
        l0, l1 = a2 * b1 - a1 * b2, a2 * c1 - a1 * c2
    else:
        l0, l1 = c2 * a1 - c1 * a2, c2 * b1 - c1 * b2
    # two forms a relative distance r from proportional have a resultant of
    # order r^2 and a linear form of order r; of two proportional forms the
    # larger one has the smaller relative error
    if max(abs(l0), abs(l1)) <= math.sqrt(eps) * scale:
        return _quadratic_roots(max(f, g, key=lambda form: float(np.abs(form.c).max())), eps)
    return [ProjectivePoint(-l1, l0)]


class _ExactContext:
    """Exact-arithmetic companions of the float pencil data.  It imports
    :mod:`slocc4.exact` when created, so float mode never loads it."""

    def __init__(self, p0, p1):
        from . import exact

        self.exact = exact
        self.p0 = exact.lift(p0)
        self.p1 = exact.lift(p1)

    def classify_point(self, pt: ProjectivePoint):
        """Snap a float projective point to Gaussian rationals and classify
        the pencil element there exactly."""
        _exact = self.exact
        if abs(pt.y) >= abs(pt.x):
            x = _exact.snap_complex(pt.x / pt.y)
            y = _exact.GR_ONE
        else:
            x = _exact.GR_ONE
            y = _exact.snap_complex(pt.y / pt.x)
        return classify3_exact_amps(tuple(x * p + y * q for p, q in zip(self.p0, self.p1)))


def _classify_points(p0, p1, points, eps):
    """classify3 for a list of projective points on the (float) pencil, each
    row x p0 + y p1 formed in Python."""
    if not points:
        return []
    pairs = list(zip(p0.tolist(), p1.tolist()))
    return classify3_batch([[pt.x * a + pt.y * b for a, b in pairs] for pt in points], eps)


def _rescale_point(pt: ProjectivePoint, s0: float, s1: float) -> ProjectivePoint:
    """Map a point from the internally normalized basis back to the
    caller's basis (phi0/s0, phi1/s1 -> phi0, phi1)."""
    return ProjectivePoint(pt.x / s0, pt.y / s1, pt.multiplicity)


def analyze_span(
    phi0,
    phi1,
    eps: float = DEFAULT_EPS,
    exact: bool = False,
) -> SpanProfile:
    """Profile the pencil spanned by two independent 3-qubit vectors.

    If the quartic is nonzero the generic element is GHZ and the quartic
    roots, classified individually, are the exceptional points.  If it
    vanishes identically the generic type is established by two fixed
    pseudorandom probes (in exact mode, by which clause pairs vanish
    identically) and the exceptional candidates are the endpoints and
    the common roots of each clause pair (a clause fails exactly where
    both of its quadratics vanish); candidates are kept when their class
    differs from the generic one.

    In exact mode all identity decisions (quartic and clause-form
    vanishing, resultants, the generic type) are exact, and candidate
    points are re-classified exactly at snapped rational coordinates when
    the snap is consistent.  Exactness certifies structure that is exactly
    representable; when the exact lift sits within float noise of the
    vanishing variety without being exactly on it (e.g. a family member
    with irrational parameters rounded to floats), the profile falls back
    to numeric semantics instead of classifying the noise.
    """
    p0, p1, s0, s1 = _check_inputs(phi0, phi1)
    lo, hi = _herm2_eigs(p0, p1)
    if lo <= eps * hi:
        raise DegeneratePencil("spanning vectors are linearly dependent")

    ctx = _ExactContext(p0, p1) if exact else None
    n0 = p0 / s0
    n1 = p1 / s1
    qform = quartic(n0, n1)
    if ctx is not None and not any(ctx.exact.quartic_exact(ctx.p0, ctx.p1)):
        return _profile_degenerate_quartic(n0, n1, s0, s1, eps, ctx)
    if qform.identically_zero(eps):
        # in exact mode the lift is off the variety at noise level only:
        # numeric semantics
        return _profile_degenerate_quartic(n0, n1, s0, s1, eps, None)
    return _profile_ghz_generic(p0, p1, QuarticForm(qform.c, qform.amp_scale, (s0, s1)), eps, ctx)


def _classify_candidate(pt, cls_float, generic, ctx):
    """Combine float and exact classification of a candidate point.

    Exact arithmetic may sharpen a verdict (certify the point as
    exceptional) but never erases numerically detected structure: when the
    exact class at the snapped point is just the generic one — as happens
    when the input carries float noise that pushes it off the exact
    variety — the float verdict stands.  Returns the class to record, or
    None when the point is not exceptional.
    """
    if ctx is not None:
        cls_exact = ctx.classify_point(pt)
        if cls_exact != generic:
            return cls_exact
    if cls_float != generic:
        return cls_float
    return None


def _profile_ghz_generic(p0, p1, qform, eps, ctx):
    """Profile of a pencil with a nonzero quartic; the roots of ``qform``
    come back in the coordinates of the pencil of p0 and p1."""
    roots = quartic_roots(qform, eps)
    exceptional = list(zip(roots, _classify_points(p0, p1, roots, eps)))
    if ctx is not None:
        # trust the snapped exact class only when the snap landed on the
        # non-GHZ set; irrational roots keep their float classification
        for k, (pt, cls) in enumerate(exceptional):
            cls_exact = ctx.classify_point(pt)
            if cls_exact != TriClass.GHZ:
                exceptional[k] = (pt, cls_exact)
    return _build_profile(False, TriClass.GHZ, exceptional)


#: The two generic probe points (x, y), unit rows.  They are the rows of
#: ``default_rng(20260809)``'s ``standard_normal((2, 2)) + 1j *
#: standard_normal((2, 2))``, each divided by its norm, written out so that
#: importing the package does not load ``numpy.random``.
_FLOAT_PROBES = np.array([
    [-0.24549527120333023 - 0.596496358462719j, 0.3420245328601962 - 0.6833325581876539j],
    [0.23192163483687414 + 0.11203648647438531j, -0.7863805108923078 - 0.5614854166243496j],
])


def _probe_generic_type(p0, p1, eps):
    try:
        types = classify3_batch(kernels.pencil_elements(p0, p1, _FLOAT_PROBES), eps)
    except AmbiguousClassification as exc:
        raise GenericTypeUnstable(f"generic probe is ambiguous: {exc}") from exc
    if types[0] != types[1]:
        raise GenericTypeUnstable(
            f"generic probes disagree: {types[0]} vs {types[1]}"
        )
    if types[0] == TriClass.GHZ:
        raise InternalContradiction(
            "quartic vanishes identically but a generic element is GHZ"
        )
    return types[0]


def _profile_degenerate_quartic(p0, p1, s0, s1, eps, ctx):
    """Profile of a pencil whose quartic vanishes identically; exactly so
    when ``ctx`` is given."""
    if ctx is None:
        generic = _probe_generic_type(p0, p1, eps)

    # float coefficients from the normalized pencil (root localization),
    # exact triples from the raw lift (identity decisions are invariant
    # under the per-vector rescaling, and the raw amplitudes carry the
    # exact zero relations that normalization would round away)
    pairs = clause_quadratics(p0, p1)
    if ctx is not None:
        exact_forms = ctx.exact.clause_quadratics_exact(ctx.p0, ctx.p1)
        pairs = tuple(
            tuple(f._replace(exact=exact_forms[2 * k + j]) for j, f in enumerate(pair))
            for k, pair in enumerate(pairs)
        )
    live = [not (fa.identically_zero(eps) and fb.identically_zero(eps)) for fa, fb in pairs]
    if ctx is not None:
        # clause k holds at a generic element exactly when its pair does
        # not vanish identically
        generic = _class_from_code(kernels.clause_code(*live), "the generic element")
    candidates = [ProjectivePoint(1, 0), ProjectivePoint(0, 1)]
    for (fa, fb), keep in zip(pairs, live):
        if keep:
            candidates.extend(common_roots(fa, fb, eps))

    centroids = [
        pt if pt.multiplicity == 1 else ProjectivePoint(pt.x, pt.y, 1)
        for pt in cluster_points(candidates, math.sqrt(eps))
    ]
    classes = _classify_points(p0, p1, centroids, eps)
    exceptional = []
    for pt, cls in zip(centroids, classes):
        mapped = _rescale_point(pt, s0, s1)
        recorded = _classify_candidate(mapped, cls, generic, ctx)
        if recorded is not None:
            exceptional.append((mapped, recorded))
    return _build_profile(True, generic, exceptional)


def _build_profile(identically_zero, generic, exceptional) -> SpanProfile:
    classes = [cls for _, cls in exceptional]
    return SpanProfile(
        quartic_identically_zero=identically_zero,
        generic_type=generic,
        exceptional=tuple(exceptional),
        contains_000=TriClass.SEP000 in classes,
        bisep_cuts=tuple(sorted(cls.cut for cls in classes if cls.cut is not None)),
        w_points=TriClass.W in classes,
        ghz_generic=generic == TriClass.GHZ,
    )
