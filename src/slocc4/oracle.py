"""Independent brute-force verifiers, used only by tests.

The 3-qubit classifier here is rank-based: single-qubit reduced density
matrices decide separability, and the GHZ/W split uses a re-derived
expanded form of the degree-4 invariant.  None of the polynomial helpers
from the production classifier are imported; the point of this module is
an independent code path (only the verdict and profile types are shared).
"""

import math

import numpy as np
from scipy.optimize import minimize

from .errors import Slocc4Error, ZeroState
from .pencil import ProjectivePoint, SpanProfile
from .qstate import DEFAULT_EPS, PureState
from .tri import TriClass

_OCODE_ZERO = 0
_OCODE_SEP = 1
_OCODE_B = (2, 3, 4)
_OCODE_W = 5
_OCODE_GHZ = 6

_OCODE_TO_CLASS = {
    0: TriClass.ZERO,
    1: TriClass.SEP000,
    2: TriClass.BISEP1,
    3: TriClass.BISEP2,
    4: TriClass.BISEP3,
    5: TriClass.W,
    6: TriClass.GHZ,
}

# row index groups of the 2x4 amplitude matrix with qubit j leading
_ROWS = (
    ((0, 1, 2, 3), (4, 5, 6, 7)),
    ((0, 1, 4, 5), (2, 3, 6, 7)),
    ((0, 2, 4, 6), (1, 3, 5, 7)),
)


def _hyperdet_batch(a):
    """Expanded 12-term arrangement of the degree-4 invariant, per row."""
    a0, a1, a2, a3, a4, a5, a6, a7 = (a[:, j] for j in range(8))
    return (
        a0**2 * a7**2
        + a1**2 * a6**2
        + a2**2 * a5**2
        + a3**2 * a4**2
        - 2.0
        * (
            a0 * a1 * a6 * a7
            + a0 * a2 * a5 * a7
            + a0 * a3 * a4 * a7
            + a1 * a2 * a5 * a6
            + a1 * a3 * a4 * a6
            + a2 * a3 * a4 * a5
        )
        + 4.0 * (a0 * a3 * a5 * a6 + a1 * a2 * a4 * a7)
    )


def _rank_ratios_batch(a):
    """Per row and qubit, sigma_min/sigma_max of the 2x4 reduced amplitude
    matrix.

    The Gram determinant is accumulated as the sum of squared 2x2 minors
    (Cauchy-Binet), which is cancellation-free, so the ratio resolves all
    the way down to ~1e-16 instead of hitting the sqrt(machine eps) floor
    of a subtractive eigenvalue formula.
    """
    out = np.empty((a.shape[0], 3), dtype=np.float64)
    for j, (r0, r1) in enumerate(_ROWS):
        u = a[:, r0]
        v = a[:, r1]
        g00 = np.einsum("ij,ij->i", u, u.conj()).real
        g11 = np.einsum("ij,ij->i", v, v.conj()).real
        g01 = np.einsum("ij,ij->i", u, v.conj())
        minors = u[:, :, None] * v[:, None, :] - u[:, None, :] * v[:, :, None]
        det = 0.5 * np.einsum("ikl,ikl->i", minors, minors.conj()).real
        tr = g00 + g11
        disc = np.sqrt(np.clip((g00 - g11) ** 2 + 4.0 * np.abs(g01) ** 2, 0.0, None))
        lmax = 0.5 * (tr + disc)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(lmax > 0.0, np.sqrt(np.clip(det, 0.0, None)) / lmax, 0.0)
        out[:, j] = ratio
    return out


def rank_codes_batch(a: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Rank-based verdict codes for a (N, 8) batch (same code numbering as
    the production classifier, without an ambiguous outcome)."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    scale = np.abs(a).max(axis=1)
    ratios = _rank_ratios_batch(a)
    product = ratios <= eps
    nprod = product.sum(axis=1)
    codes = np.full(a.shape[0], _OCODE_W, dtype=np.int8)
    genuine = nprod == 0
    det = np.abs(_hyperdet_batch(a))
    codes[genuine & (det > eps * scale**4)] = _OCODE_GHZ
    for j in range(3):
        codes[(nprod == 1) & product[:, j]] = _OCODE_B[j]
    # two or three product qubits both mean a fully separable state
    codes[nprod >= 2] = _OCODE_SEP
    codes[scale == 0.0] = _OCODE_ZERO
    return codes


def classify3_by_ranks(state, eps: float = DEFAULT_EPS) -> TriClass:
    """Rank-based classification of a 3-qubit state.

    Single-qubit reduced ranks decide Sep000 (all rank 1) and Bisep(k)
    (rank 1 exactly at qubit k); genuinely entangled states are split into
    GHZ and W by the magnitude of the re-derived degree-4 invariant.
    """
    amps = state.amps if isinstance(state, PureState) else np.asarray(state, dtype=np.complex128)
    amps = amps.reshape(1, 8)
    if not amps.any():
        raise ZeroState("cannot classify the zero state")
    return _OCODE_TO_CLASS[int(rank_codes_batch(amps, eps)[0])]


# ---------------------------------------------------------------------------
# dense projective sampling

def _fibonacci_grid(n: int) -> np.ndarray:
    """Quasi-uniform deterministic grid of n points on the projective line
    (golden-angle spiral on the Bloch sphere)."""
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    azimuth = i * (np.pi * (3.0 - np.sqrt(5.0)))
    half = 0.5 * np.arccos(np.clip(z, -1.0, 1.0))
    xy = np.empty((n, 2), dtype=np.complex128)
    xy[:, 0] = np.cos(half)
    xy[:, 1] = np.sin(half) * np.exp(1j * azimuth)
    return xy


def _elements(p0, p1, xy):
    return xy[:, 0, None] * p0[None, :] + xy[:, 1, None] * p1[None, :]


def _det_detector(elems) -> np.ndarray:
    scale = np.abs(elems).max(axis=1)
    scale = np.where(scale > 0.0, scale, 1.0)
    return np.abs(_hyperdet_batch(np.ascontiguousarray(elems))) / scale**4


def _rank_detector(elems) -> np.ndarray:
    return _rank_ratios_batch(np.ascontiguousarray(elems)).min(axis=1)


def _refine_point(p0, p1, x0, y0, detector, h, maxiter=800):
    """Locally minimize a detector around (x0 : y0) in an affine chart.

    ``h`` sets the initial simplex size; it should be comparable to the
    distance of the seed from the minimum (the sampling grid spacing).
    """
    px, py = -np.conj(y0), np.conj(x0)

    def objective(u):
        # both detectors are scale-invariant; renormalizing keeps the
        # arithmetic bounded when the simplex wanders far out in the chart
        nrm = math.hypot(abs(u[0]), abs(u[1]), 1.0)
        x = (x0 + (u[0] + 1j * u[1]) * px) / nrm
        y = (y0 + (u[0] + 1j * u[1]) * py) / nrm
        elem = (x * p0 + y * p1).reshape(1, 8)
        return float(detector(elem)[0])

    res = minimize(
        objective,
        [0.0, 0.0],
        method="Nelder-Mead",
        options={
            "xatol": 1e-13,
            "fatol": 0.0,
            "maxiter": maxiter,
            "maxfev": maxiter,
            "initial_simplex": [[0.0, 0.0], [h, 0.0], [0.0, h]],
        },
    )
    t = res.x[0] + 1j * res.x[1]
    return ProjectivePoint(x0 + t * px, y0 + t * py)


def profile_by_sampling(
    phi0,
    phi1,
    samples: int = 2000,
    eps: float = DEFAULT_EPS,
) -> SpanProfile:
    """Approximate span profile from dense projective sampling.

    Classifies quasi-uniform sample points with the rank-based verdicts,
    takes the majority as the generic type, then locates exceptional
    points by locally refining the minima of a detector function (the
    normalized invariant for GHZ-generic pencils, the smallest reduced
    rank ratio for W-generic ones) and re-classifying at the refined
    points.
    """
    p0 = (phi0.amps if isinstance(phi0, PureState) else np.asarray(phi0, dtype=np.complex128)).reshape(-1)
    p1 = (phi1.amps if isinstance(phi1, PureState) else np.asarray(phi1, dtype=np.complex128)).reshape(-1)
    if not p0.any() or not p1.any():
        raise ZeroState("pencil vectors must be nonzero")
    s0 = float(np.abs(p0).max())
    s1 = float(np.abs(p1).max())
    p0 = p0 / s0
    p1 = p1 / s1

    xy = _fibonacci_grid(samples)
    codes = rank_codes_batch(_elements(p0, p1, xy), eps)
    counts = np.bincount(codes.astype(np.int64), minlength=7)
    generic = _OCODE_TO_CLASS[int(np.argmax(counts))]
    if generic not in (TriClass.GHZ, TriClass.W):
        raise Slocc4Error(
            f"sampling oracle expects a GHZ- or W-generic pencil, got {generic}"
        )

    detector = _det_detector if generic == TriClass.GHZ else _rank_detector
    values = detector(_elements(p0, p1, xy))
    # Scan points in ascending detector order, keeping one seed per spatial
    # neighborhood; a zero with a wide basin must not crowd out the local
    # minima of other zeros, so separation is enforced rather than rank.
    spacing = 3.0 * math.sqrt(math.pi / samples)
    separation = max(0.15, spacing)
    seeds = [ProjectivePoint(1, 0), ProjectivePoint(0, 1)]
    for idx in np.argsort(values):
        pt = ProjectivePoint(xy[idx, 0], xy[idx, 1])
        if all(pt.chordal(s) > separation for s in seeds):
            seeds.append(pt)
        if len(seeds) >= 14:
            break

    candidates = []
    for seed in seeds:
        refined = _refine_point(p0, p1, seed.x, seed.y, detector, h=spacing)
        elem = (refined.x * p0 + refined.y * p1).reshape(1, 8)
        cls = _OCODE_TO_CLASS[int(rank_codes_batch(elem, eps)[0])]
        if cls == generic:
            continue
        value = float(detector(elem)[0])
        candidates.append((ProjectivePoint(refined.x / s0, refined.y / s1), cls, value))

    # Different seeds may converge to the same zero with varying accuracy;
    # the classification window around a zero can be as wide as sqrt(eps),
    # so clusters are merged at a coarser radius and the best-refined
    # representative kept.
    radius = max(100.0 * math.sqrt(eps), 1e-6)
    exceptional = []
    for pt, cls, value in sorted(candidates, key=lambda c: c[2]):
        if all(pt.chordal(p) > radius for p, _ in exceptional):
            exceptional.append((pt, cls))

    contains_000 = any(cls == TriClass.SEP000 for _, cls in exceptional)
    cuts = sorted(cls.cut for _, cls in exceptional if cls.cut is not None)
    return SpanProfile(
        quartic_identically_zero=generic != TriClass.GHZ,
        generic_type=generic,
        exceptional=tuple(exceptional),
        contains_000=contains_000,
        bisep_cuts=tuple(cuts),
        w_points=any(cls == TriClass.W for _, cls in exceptional),
        ghz_generic=generic == TriClass.GHZ,
    )
