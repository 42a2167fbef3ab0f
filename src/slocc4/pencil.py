"""Analysis of 2-dimensional spans of 3-qubit vectors.

A pencil ``{x phi0 + y phi1}`` is profiled by the homogeneous quartic that
the GHZ criterion induces in ``(x, y)``: either the quartic is nonzero and
its at most four projective roots are the only non-GHZ elements, or it
vanishes identically and the exceptional elements sit at common roots of
the clause quadratics.  Coefficients are extracted by interpolation at
fixed integer nodes so a single code path reuses the classifier's
polynomial kernels and is self-validated by an evaluation identity.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import exact as _exact
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

_PROBE_SEED = 20260809


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
        anchor = x if abs(x) >= abs(y) else y
        phase = anchor / abs(anchor)
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


@dataclass(frozen=True)
class QuarticForm:
    """Homogeneous quartic c0 x^4 + c1 x^3 y + c2 x^2 y^2 + c3 x y^3 + c4 y^4."""

    c: np.ndarray
    amp_scale: float

    def evaluate(self, x, y) -> complex:
        x, y = complex(x), complex(y)
        xs = np.array([x**4, x**3 * y, x**2 * y**2, x * y**3, y**4])
        return complex(np.dot(self.c, xs))

    def identically_zero(self, eps: float = DEFAULT_EPS) -> bool:
        return float(np.abs(self.c).max()) <= eps * self.amp_scale**4


@dataclass(frozen=True)
class QuadraticForm:
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
        return float(np.abs(self.c).max()) <= eps * self.amp_scale**2


@dataclass(frozen=True)
class SpanProfile:
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
    s0 = float(np.abs(p0).max())
    s1 = float(np.abs(p1).max())
    if s0 == 0.0:
        raise ZeroState("phi0 is the zero vector")
    if s1 == 0.0:
        raise ZeroState("phi1 is the zero vector")
    top = max(s0, s1)
    if not kernels.SCALE_LO <= top <= kernels.SCALE_HI:
        p0 = kernels.pow2_scaled(p0, top)
        p1 = kernels.pow2_scaled(p1, top)
        s0 = float(np.abs(p0).max())
        s1 = float(np.abs(p1).max())
    return p0, p1, s0, s1


#: Interpolation nodes (x, y) of the quartic and of the clause quadratics.
_QUARTIC_NODES = np.array(kernels.NODES, dtype=np.complex128)
_QUADRATIC_NODES = _QUARTIC_NODES[:3]


def _ghz_at_nodes(p0, p1):
    elems = kernels.pencil_elements(p0, p1, _QUARTIC_NODES)
    return kernels.ghz_invariant_batch(elems)


def quartic(phi0, phi1) -> QuarticForm:
    """Quartic form equal to the GHZ criterion of ``x phi0 + y phi1``.

    Coefficients are obtained from evaluations at five fixed nodes; the
    endpoint coefficients come from (1,0) and (0,1) alone, so the y^4
    coefficient is exactly the invariant of ``phi1``.  For vectors outside
    the scale window it is the quartic of the rescaled pencil (see
    ``_check_inputs``).
    """
    p0, p1, s0, s1 = _check_inputs(phi0, phi1)
    c = kernels.quartic_coefficients(*_ghz_at_nodes(p0, p1))
    return QuarticForm(c=np.array(c), amp_scale=max(s0, s1))


def clause_quadratics(phi0, phi1) -> tuple:
    """The six clause quantities as quadratic forms on the pencil, grouped
    into the three clause pairs."""
    p0, p1, s0, s1 = _check_inputs(phi0, phi1)
    q = kernels.clause_quantities_batch(kernels.pencil_elements(p0, p1, _QUADRATIC_NODES))
    alpha, beta, gamma = kernels.quadratic_coefficients(*q)
    scale = max(s0, s1)
    forms = tuple(
        QuadraticForm(c=np.array([alpha[i], beta[i], gamma[i]]), amp_scale=scale)
        for i in range(6)
    )
    return (forms[0:2], forms[2:4], forms[4:6])


def _quadratic_formula(a, b, c) -> tuple:
    """Both roots of a x^2 + b x + c (a != 0), cancellation-safe."""
    if c == 0:
        return (0.0 + 0.0j, -b / a)
    s = np.sqrt(complex(b * b - 4.0 * a * c))
    if abs(b - s) > abs(b + s):
        s = -s
    q = -0.5 * (b + s)
    return (q / a, c / q)


def _raw_projective_roots(coeffs, eps: float) -> list:
    """Unclustered projective roots of a homogeneous binary form
    (coefficients with the highest power of x first); roots at infinity
    arise from vanishing leading coefficients."""
    c = np.asarray(coeffs, dtype=np.complex128)
    mags = np.abs(c).tolist()
    cmax = max(mags)
    if cmax == 0.0:
        raise IdenticallyZero("form has no roots: all coefficients vanish")
    k = 0
    while k < len(mags) - 1 and mags[k] <= eps * cmax:
        k += 1
    points = [ProjectivePoint(1, 0, 1) for _ in range(k)]
    tail = c[k:]
    if len(tail) == 2:
        points.append(ProjectivePoint(-tail[1] / tail[0], 1, 1))
    elif len(tail) == 3:
        points.extend(
            ProjectivePoint(r, 1, 1) for r in _quadratic_formula(*tail)
        )
    elif len(tail) > 3:
        points.extend(ProjectivePoint(r, 1, 1) for r in _companion_roots(tail))
    return points


def _companion_roots(p) -> list:
    """Roots of a polynomial (highest power first) exactly as ``np.roots``
    finds them: eigenvalues of the companion matrix of the coefficients
    stripped of leading and trailing zeros, then one zero per trailing
    zero."""
    nonzero = [i for i, z in enumerate(p.tolist()) if z]
    trailing = len(p) - 1 - nonzero[-1]
    p = p[nonzero[0] : nonzero[-1] + 1]
    roots = []
    if len(p) > 1:
        companion = np.eye(len(p) - 1, k=-1, dtype=p.dtype)
        companion[0, :] = -p[1:] / p[0]
        roots = np.linalg.eigvals(companion).tolist()
    return roots + [0j] * trailing


def _projective_roots(coeffs, eps: float) -> list:
    """Roots of a binary form, clustered with radius ``sqrt(eps)``."""
    return cluster_points(_raw_projective_roots(coeffs, eps), math.sqrt(eps))


def cluster_points(points, radius: float) -> list:
    """Greedy clustering of projective points; multiplicities are summed
    and each cluster is replaced by a phase-aligned weighted mean."""
    if len(points) <= 1:
        return list(points)
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


def _merge_root_groups(points, eps: float) -> list:
    """Multiplicity-aware clustering of the (at most four) quartic roots.

    A root of multiplicity m scatters by O(noise^(1/m)) under coefficient
    perturbation, so a group of total multiplicity M is merged when its
    chordal diameter fits within eps^(1/M); for simple pairs this reduces
    to the sqrt(eps) radius.  Largest consistent groups are merged first.
    No group can merge once every pairwise distance exceeds the radius of
    the largest total multiplicity.
    """
    pts = list(points)
    while len(pts) > 1:
        dist = {
            pair: pts[pair[0]].chordal(pts[pair[1]])
            for pair in combinations(range(len(pts)), 2)
        }
        if min(dist.values()) > eps ** (1.0 / sum(p.multiplicity for p in pts)):
            break
        best = None
        for size in range(len(pts), 1, -1):
            for subset in combinations(range(len(pts)), size):
                total = sum(pts[i].multiplicity for i in subset)
                diam = max(dist[pair] for pair in combinations(subset, 2))
                if diam <= eps ** (1.0 / total) and (best is None or diam < best[0]):
                    best = (diam, subset)
            if best is not None:
                break
        if best is None:
            break
        group = [pts[i] for i in best[1]]
        rest = [p for i, p in enumerate(pts) if i not in best[1]]
        pts = rest + cluster_points(group, 2.0)
    return pts


def _polish_multiple_root(coeffs, pt: ProjectivePoint, eps: float) -> ProjectivePoint:
    """Refine a multiple root as a simple root of the (m-1)-th derivative.

    Multiple roots of the perturbed quartic scatter widely, but the
    corresponding root of the derivative polynomial is simple and moves
    only by the coefficient perturbation itself.
    """
    m = pt.multiplicity
    if m < 2:
        return pt
    c = np.asarray(coeffs, dtype=np.complex128)
    x_chart = abs(pt.x) >= abs(pt.y)
    if x_chart:
        asc = c  # F(1, u) = sum_j c[j] u^j with u = y/x
        u0 = pt.y / pt.x
    else:
        asc = c[::-1]  # F(v, 1) = sum_j c[4-j] v^j with v = x/y
        u0 = pt.x / pt.y
    poly = np.polynomial.Polynomial(asc)
    for _ in range(m - 1):
        poly = poly.deriv()
    dpoly = poly.deriv()
    u = complex(u0)
    for _ in range(8):
        denom = complex(dpoly(u))
        if denom == 0:
            break
        step = complex(poly(u)) / denom
        u -= step
        if abs(step) <= 1e-15 * max(1.0, abs(u)):
            break
    if not (np.isfinite(u.real) and np.isfinite(u.imag)):
        return pt
    refined = ProjectivePoint(1, u, m) if x_chart else ProjectivePoint(u, 1, m)
    # keep the polish only if it stayed within the scatter neighborhood
    if refined.chordal(pt) <= 2.0 * eps ** (1.0 / m):
        return refined
    return pt


def quartic_roots(q: QuarticForm, eps: float = DEFAULT_EPS) -> list:
    """All projective roots of the quartic, multiplicities summing to 4.

    Roots at infinity (1 : 0) arise from vanishing leading coefficients;
    finite roots come from companion-matrix eigenvalues of the
    dehomogenized polynomial.  Roots are merged with a multiplicity-aware
    radius (sqrt(eps) for simple pairs, eps^(1/M) for an M-fold group) and
    multiple roots are re-polished on the derivative polynomial.
    """
    if q.identically_zero(eps):
        raise IdenticallyZero("quartic vanishes identically")
    raw = _raw_projective_roots(q.c, eps)
    merged = _merge_root_groups(raw, eps)
    return [_polish_multiple_root(q.c, pt, eps) for pt in merged]


def _quadratic_roots(f: QuadraticForm, eps: float) -> list:
    if f.identically_zero(eps):
        return []
    return _projective_roots(f.c, eps)


def common_roots(f: QuadraticForm, g: QuadraticForm, eps: float = DEFAULT_EPS) -> list:
    """Common projective roots of a clause pair.

    Existence is decided by the resultant; localization matches the root
    lists pairwise.  A form that vanishes identically contributes the other
    form's roots (if both vanish, every point is common and the caller must
    handle the clause as identically false).
    """
    fz = f.identically_zero(eps)
    gz = g.identically_zero(eps)
    if fz and gz:
        raise IdenticallyZero("both quadratics vanish identically")
    if fz:
        return _quadratic_roots(g, eps)
    if gz:
        return _quadratic_roots(f, eps)
    if f.exact is not None and g.exact is not None:
        if kernels.resultant(f.exact, g.exact):
            return []
    else:
        scale = float(np.abs(f.c).max()) * float(np.abs(g.c).max())
        if abs(complex(kernels.resultant(f.c, g.c))) > eps * scale**2:
            return []
    radius = math.sqrt(eps)
    rf = _quadratic_roots(f, eps)
    rg = _quadratic_roots(g, eps)
    matched = [pf for pf in rf if any(pf.chordal(pg) <= radius for pg in rg)]
    return cluster_points(matched, radius)


def _span_dim2_or_raise(p0, p1, eps):
    lo, hi = _herm2_eigs(p0, p1)
    if lo <= eps * hi:
        raise DegeneratePencil("spanning vectors are linearly dependent")


class _ExactContext:
    """Exact-arithmetic companions of the float pencil data."""

    def __init__(self, p0, p1):
        self.p0 = _exact.lift(p0)
        self.p1 = _exact.lift(p1)

    def classify_point(self, pt: ProjectivePoint):
        """Snap a float projective point to Gaussian rationals and classify
        the pencil element there exactly."""
        if abs(pt.y) >= abs(pt.x):
            x = _exact.snap_complex(pt.x / pt.y)
            y = _exact.GR_ONE
        else:
            x = _exact.GR_ONE
            y = _exact.snap_complex(pt.y / pt.x)
        return classify3_exact_amps(tuple(x * p + y * q for p, q in zip(self.p0, self.p1)))


def _classify_points(p0, p1, points, eps):
    """classify3 for a list of projective points on the (float) pencil."""
    if not points:
        return []
    xy = np.array([[pt.x, pt.y] for pt in points], dtype=np.complex128)
    return classify3_batch(kernels.pencil_elements(p0, p1, xy), eps)


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
    identically) and the exceptional candidates are the endpoints,
    the roots of every clause quadratic, and the matched common roots of
    each clause pair; candidates are kept when their class differs from
    the generic one.

    In exact mode all identity decisions (quartic and clause-form
    vanishing, resultants, the generic type) are exact, and candidate
    points are re-classified exactly at snapped rational coordinates when
    the snap is consistent.  Exactness certifies structure that is exactly
    representable; when the exact lift sits within float noise of the
    vanishing variety without being exactly on it (e.g. a family member
    with irrational parameters rounded to floats), the profile falls back
    to numeric semantics instead of classifying the noise.
    """
    p0_raw, p1_raw, s0, s1 = _check_inputs(phi0, phi1)
    _span_dim2_or_raise(p0_raw, p1_raw, eps)

    p0 = p0_raw / s0
    p1 = p1_raw / s1

    ctx = _ExactContext(p0_raw, p1_raw) if exact else None
    qform = quartic(p0, p1)
    if ctx is not None and not any(_exact.quartic_exact(ctx.p0, ctx.p1)):
        return _profile_degenerate_quartic(p0, p1, s0, s1, eps, ctx)
    if qform.identically_zero(eps):
        # in exact mode the lift is off the variety at noise level only:
        # numeric semantics
        return _profile_degenerate_quartic(p0, p1, s0, s1, eps, None)
    return _profile_ghz_generic(p0, p1, s0, s1, qform, eps, ctx)


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


def _profile_ghz_generic(p0, p1, s0, s1, qform, eps, ctx):
    roots = quartic_roots(qform, eps)
    classes = _classify_points(p0, p1, roots, eps)
    exceptional = []
    for pt, cls in zip(roots, classes):
        mapped = _rescale_point(pt, s0, s1)
        if ctx is not None:
            # trust the snapped exact class only when the snap landed on the
            # non-GHZ set; irrational roots keep their float classification
            cls_exact = ctx.classify_point(mapped)
            if cls_exact != TriClass.GHZ:
                cls = cls_exact
        exceptional.append((mapped, cls))
    return _build_profile(False, TriClass.GHZ, exceptional)


def _float_probes() -> np.ndarray:
    rng = np.random.default_rng(_PROBE_SEED)
    xy = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return xy / np.linalg.norm(xy, axis=1, keepdims=True)


_FLOAT_PROBES = _float_probes()


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
        exact_forms = _exact.clause_quadratics_exact(ctx.p0, ctx.p1)
        pairs = tuple(
            tuple(
                QuadraticForm(c=f.c, amp_scale=f.amp_scale, exact=exact_forms[2 * k + j])
                for j, f in enumerate(pair)
            )
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
            candidates.extend(_quadratic_roots(fa, eps))
            candidates.extend(_quadratic_roots(fb, eps))

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
    contains_000 = any(cls == TriClass.SEP000 for _, cls in exceptional)
    cuts = sorted(cls.cut for _, cls in exceptional if cls.cut is not None)
    w_points = any(cls == TriClass.W for _, cls in exceptional)
    return SpanProfile(
        quartic_identically_zero=identically_zero,
        generic_type=generic,
        exceptional=tuple(exceptional),
        contains_000=contains_000,
        bisep_cuts=tuple(cuts),
        w_points=w_points,
        ghz_generic=generic == TriClass.GHZ,
    )
