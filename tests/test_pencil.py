import zlib
from itertools import combinations, product

import numpy as np
import pytest

from slocc4 import (
    AmbiguousClassification,
    DegeneratePencil,
    GenericTypeUnstable,
    IdenticallyZero,
    ProjectivePoint,
    TriClass,
    ZeroState,
    analyze_span,
    classify3,
    classify4,
    classify4_all,
    clause_quadratics,
    quartic,
    quartic_roots,
)
from slocc4.canonical import FamilySpec, canonical_pencil, okpsi_w_phi0, ww_phi0
from slocc4 import kernels, pencil
from slocc4.errors import Slocc4Error
from slocc4.exact import lift
from slocc4.pencil import QuadraticForm, QuarticForm, cluster_points, common_roots
from slocc4.qstate import DEFAULT_EPS, PureState

from conftest import GHZ3, W3, iva1_phi0


def sphere_points(n, seed):
    rng = np.random.default_rng(seed)
    xy = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    return xy / np.linalg.norm(xy, axis=1, keepdims=True)


class TestProjectivePoint:
    def test_scaling_invariance(self):
        p = ProjectivePoint(1 + 2j, 3 - 1j)
        q = ProjectivePoint((1 + 2j) * (0.3 - 7j), (3 - 1j) * (0.3 - 7j))
        assert p == q
        assert p.chordal(q) <= 1e-12

    def test_distinct_points(self):
        assert ProjectivePoint(1, 0) != ProjectivePoint(0, 1)
        assert ProjectivePoint(1, 0).chordal(ProjectivePoint(0, 1)) == 1.0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjectivePoint(0, 0)


class TestQuartic:
    def test_ghz_pencil(self):
        q = quartic(PureState(np.eye(8)[0]), PureState(np.eye(8)[7]))
        np.testing.assert_allclose(q.c, [0, 0, 1, 0, 0], atol=1e-14)

    def test_lambda_zero_pencil_vanishes(self):
        q = quartic(okpsi_w_phi0(0), W3)
        assert q.identically_zero()

    def test_y4_coefficient_with_ghz(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            phi0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            q = quartic(phi0, GHZ3)
            assert abs(q.c[4] - 1) <= 1e-12

    def test_displayed_coefficients_w_ghz(self):
        # x(W) + y(GHZ): the form is 4 x^3 y + y^4
        q = quartic(W3, GHZ3)
        np.testing.assert_allclose(q.c, [0, 4, 0, 0, 1], atol=1e-13)

    def test_displayed_coefficients_general(self):
        # coefficients for phi0 = (1,0,0,1,1,0,0,2), phi1 = GHZ, worked out
        # term by term from the expanded coefficient polynomials
        phi0 = np.array([1, 0, 0, 1, 1, 0, 0, 2], dtype=complex)
        q = quartic(phi0, GHZ3)
        np.testing.assert_allclose(q.c, [1, 6, 11, 6, 1], atol=1e-12)

    def test_evaluation_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            phi0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            phi1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            q = quartic(phi0, phi1)
            amp = max(np.abs(phi0).max(), np.abs(phi1).max())
            for x, y in rng.standard_normal((20, 2)):
                elem = x * phi0 + y * phi1
                scale = amp * max(abs(x), abs(y), 1e-300)
                err = abs(q.evaluate(x, y) - classify3_invariant(elem))
                assert err <= 1e-10 * scale**4

    def test_zero_state_rejected(self):
        with pytest.raises(ZeroState):
            quartic(np.zeros(8), GHZ3)


def classify3_invariant(a):
    from slocc4 import ghz_invariant

    return ghz_invariant(a)


def _roots(p):
    """The roots of ``pencil._polynomial_roots``' (root, newton) pairs."""
    return [x for x, _ in pencil._polynomial_roots(p)]


class TestQuarticRoots:
    def test_monomial_x2y2(self):
        q = QuarticForm(c=np.array([0, 0, 1, 0, 0], dtype=complex), amp_scale=1.0)
        roots = quartic_roots(q)
        assert sorted(r.multiplicity for r in roots) == [2, 2]
        assert any(r == ProjectivePoint(1, 0, 2) for r in roots)
        assert any(r == ProjectivePoint(0, 1, 2) for r in roots)

    def test_y4(self):
        q = QuarticForm(c=np.array([0, 0, 0, 0, 1], dtype=complex), amp_scale=1.0)
        roots = quartic_roots(q)
        assert len(roots) == 1
        assert roots[0] == ProjectivePoint(1, 0, 4)

    def test_fourth_roots_of_unity(self):
        q = QuarticForm(c=np.array([1, 0, 0, 0, -1], dtype=complex), amp_scale=1.0)
        roots = quartic_roots(q)
        assert len(roots) == 4
        for w in (1, -1, 1j, -1j):
            assert any(r.chordal(ProjectivePoint(1, w)) <= 1e-8 for r in roots)

    def test_multiplicity_totals_four(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            q = QuarticForm(c=c, amp_scale=1.0)
            roots = quartic_roots(q)
            assert sum(r.multiplicity for r in roots) == 4

    def test_identically_zero_raises(self):
        q = QuarticForm(c=np.zeros(5, dtype=complex), amp_scale=1.0)
        with pytest.raises(IdenticallyZero):
            quartic_roots(q)

    def test_roots_at_four_anchors(self):
        # x y (x^2 - y^2) vanishes at four of the five anchors of
        # pencil._chart, whose leading coefficient the fifth keeps nonzero
        q = QuarticForm(c=np.array([0, 1, 0, -1, 0], dtype=complex), amp_scale=1.0)
        roots = quartic_roots(q)
        assert [r.multiplicity for r in roots] == [1, 1, 1, 1]
        for x, y in ((1, 0), (0, 1), (1, 1), (1, -1)):
            assert any(r.chordal(ProjectivePoint(x, y)) <= 1e-15 for r in roots)


def form_with_roots(roots):
    """Coefficients (highest power of x first) of prod (b x - a y) over the
    projective roots (a : b)."""
    c = np.ones(1, dtype=complex)
    for a, b in roots:
        c = np.convolve(c, [b, -a])
    return c


def spread(center, diameter, count):
    """``count`` affine roots (t : 1) around ``center`` whose chordal
    diameter is ``diameter`` (to first order in the offsets)."""
    offsets = 1e-6 * np.exp(2j * np.pi * np.arange(count) / count)
    pts = [ProjectivePoint(center + d, 1) for d in offsets]
    scale = diameter / max(a.chordal(b) for a, b in combinations(pts, 2))
    return [(center + d * scale, 1) for d in offsets]


def noisy(c, size, seed):
    """``c`` plus an error of absolute size ``size`` in every coefficient."""
    phases = np.random.default_rng(seed).uniform(0, 2 * np.pi, len(c))
    return c + size * np.exp(1j * phases)


def relative_noise(c, seed):
    """``c`` with a relative error of 1e-15 in every coefficient."""
    return c * (1 + noisy(np.zeros(len(c)), 1e-15, seed))


EPS = 1e-9
#: exact multiple-root patterns: name -> (roots, sorted multiplicities)
PATTERNS = {
    "2+2": ([(0.4 + 0.1j, 1)] * 2 + [(-1.5 + 0.7j, 1)] * 2, [2, 2]),
    "3+1": ([(0.2 - 0.6j, 1)] * 3 + [(1.7, 1)], [1, 3]),
    "4": ([(-0.3 + 0.2j, 1)] * 4, [4]),
    "2+1+1": ([(0.6j, 1)] * 2 + [(-0.8, 1), (1.3 + 0.4j, 1)], [1, 1, 2]),
}
#: name -> (coefficients, sorted multiplicities, roots, localization tolerance)
ROOT_CASES = {
    name: (form_with_roots(roots), mults, roots, 1e-8)
    for name, roots, mults in (
        ("one_at_infinity", [(1, 0), (0.3, 1), (-1 + 1j, 1), (2j, 1)], [1, 1, 1, 1]),
        ("two_at_infinity", [(1, 0), (1, 0), (0.5 - 0.5j, 1), (-2, 1)], [1, 1, 2]),
        ("one_at_zero", [(0, 1), (0.3, 1), (-1 + 1j, 1), (2j, 1)], [1, 1, 1, 1]),
        ("two_at_zero", [(0, 1), (0, 1), (0.5 - 0.5j, 1), (-2, 1)], [1, 1, 2]),
    )
}
for name, (roots, mults) in PATTERNS.items():
    c = form_with_roots(roots)
    ROOT_CASES[f"{name}_noise"] = (relative_noise(c, 1), mults, roots, 1e-9)
    # an error of the full noise bound in every coefficient, the largest
    # the zero thresholds accept
    ROOT_CASES[f"{name}_inside"] = (noisy(c, pencil._NOISE, 2), mults, roots, 1e-8)
# distinct roots closer than the old merge windows eps^(1/M), yet resolved:
# a close pair, two close pairs, a spread triple and a spread quadruple
for name, roots in {
    "2+1+1": spread(0.6j, 1e-4, 2) + [(-0.8, 1), (1.3 + 0.4j, 1)],
    "2+2": spread(0.4 + 0.1j, 1e-2, 2) + spread(-1.5 + 0.7j, 1e-2, 2),
    "3+1": spread(0.2 - 0.6j, 1e-2, 3) + [(1.7, 1)],
    "4": spread(-0.3 + 0.2j, 3e-2, 4),
}.items():
    c = relative_noise(form_with_roots(roots), 3)
    ROOT_CASES[f"{name}_outside"] = (c, [1, 1, 1, 1], roots, 1e-9)


class TestQuarticRootsReference:
    """Roots and multiplicities against the roots the quartic was built from."""

    @pytest.mark.parametrize("case", sorted(ROOT_CASES))
    def test_matches_reference(self, case):
        c, multiplicities, roots, tol = ROOT_CASES[case]
        got = quartic_roots(QuarticForm(c=c, amp_scale=1.0), EPS)
        assert sorted(p.multiplicity for p in got) == multiplicities
        for a, b in roots:
            target = ProjectivePoint(a, b)
            nearest = min(got, key=target.chordal)
            assert nearest.chordal(target) <= tol
            assert nearest.multiplicity == roots.count((a, b))

    #: Roots near a deeper pattern whose covariant tests can pass for a wrong
    #: pattern; the placed roots then fail to reproduce f.
    NEAR_DEGENERATE = {
        "two pairs split by 1e-4": spread(0.4 + 0.1j, 1e-4, 2) + spread(-1.5 + 0.7j, 1e-4, 2),
        "triple split by 1e-4 along a line": [(0.2 - 0.6j + k * 1e-4, 1) for k in range(3)] + [(1.7, 1)],
        "four about 1e-3 apart": [(-0.3 + 0.2j + 1e-3 * z, 1) for z in (0, 1, 0.7j, -0.4 + 0.3j)],
    }

    @pytest.mark.parametrize("seed", range(1, 7))
    @pytest.mark.parametrize("name", sorted(NEAR_DEGENERATE))
    def test_near_degenerate_is_simple_or_raises(self, name, seed):
        c = relative_noise(form_with_roots(self.NEAR_DEGENERATE[name]), seed)
        try:
            got = quartic_roots(QuarticForm(c=c, amp_scale=1.0), EPS)
        except AmbiguousClassification:
            return
        assert [p.multiplicity for p in got] == [1, 1, 1, 1]

    def test_between_thresholds_raises(self):
        # a double root split by 1.3e-5: its discriminant is about 6 times
        # its noise bound, between the zero threshold (1) and the nonzero
        # one (32); splits of 5e-6 and 3e-5 reach the two ends
        c = form_with_roots(spread(0.6j, 1.3e-5, 2) + [(-0.8, 1), (1.3 + 0.4j, 1)])
        with pytest.raises(AmbiguousClassification):
            quartic_roots(QuarticForm(c=c, amp_scale=1.0), EPS)

    def test_two_leading_coefficients_within_eps_are_simple_roots(self):
        # under eps = 0.1 both leading coefficients lie within eps of the
        # largest, and the chart of pencil._chart places the four simple
        # roots, with no slopes to certify.  The coefficients are 256 times
        # those of unit vectors' scale, so the quartic itself lies far above
        # its zero band (2560 times eps)
        c = np.array([256 * z for z in (0.05, 0.05, 1, 0.3, 0.7)], dtype=complex)
        got = quartic_roots(QuarticForm(tuple(c), 1.0), eps=0.1)
        assert [p.multiplicity for p in got] == [1, 1, 1, 1] and got.slopes is None
        assert_within_condition([p.x / p.y for p in got], np.roots(c), c)

    def test_thresholds_follow_amplitude_scale(self):
        # the same quartic from vectors 2^10 larger has 2^40 larger
        # coefficients and the same roots
        c = form_with_roots(PATTERNS["3+1"][0])
        c = noisy(c, pencil._NOISE, 4)
        small = quartic_roots(QuarticForm(c=c, amp_scale=1.0))
        large = quartic_roots(QuarticForm(c=c * 2.0**40, amp_scale=2.0**10))
        assert [(p.x, p.y, p.multiplicity) for p in small] == [
            (p.x, p.y, p.multiplicity) for p in large
        ]


def gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def root_condition(c, x):
    """Relative condition number of the simple root x of the polynomial c
    (highest power first): a relative error u in every coefficient moves x
    by at most u times this, relative to |x|, to first order."""
    n = len(c) - 1
    df = sum((n - k) * ck * x ** (n - k - 1) for k, ck in enumerate(c[:-1]))
    return sum(abs(ck) * abs(x) ** (n - k) for k, ck in enumerate(c)) / (abs(x) * abs(df))


def matched_errors(got, want):
    """(relative error, root) for each root in ``want``, each matched to its
    nearest root in ``got`` that no earlier one took."""
    got = list(got)
    assert len(got) == len(want)
    out = []
    for w in want:
        k = min(range(len(got)), key=lambda k: abs(got[k] - w))
        out.append((abs(got.pop(k) - w) / abs(w), w))
    return out


#: A backward-stable solver moves each root by a small multiple of u times
#: its condition number; np.roots and the closed form both do (measured up
#: to 41 u on the cases below).
U = 2.0**-53


def assert_within_condition(got, want, c, factor=128):
    for err, w in matched_errors(got, want):
        assert err <= factor * U * root_condition(c, w)


class TestClosedFormRoots:
    """The closed-form solver behind the simple quartic roots, against
    np.roots and against the roots a polynomial was built from."""

    def test_gaussian_quartics_match_np_roots(self):
        rng = np.random.default_rng(11)
        for c in gaussian(rng, 10_000, 5):
            got = _roots(c.tolist())
            assert max(err for err, _ in matched_errors(got, np.roots(c))) <= 1e-12

    # two leading coefficients 1e-12 of the largest put two roots 1e-6 from
    # each other, within noise of a double root, so k = 2 is resolved at a
    # larger eps
    @pytest.mark.parametrize("k, damping, eps", [(1, 1e-12, EPS), (2, 1e-4, 1e-3)], ids=("k1", "k2"))
    def test_leading_coefficients_within_eps_take_the_anchored_chart(self, k, damping, eps):
        # k leading coefficients within eps of the largest: quartic_roots
        # places the four simple roots in the chart of pencil._chart, with no
        # slopes.  np.roots loses accuracy on a tiny leading coefficient, so
        # the reference is the reversed polynomial's roots s = y / x.  Roots
        # with |s| >= 1 are checked within condition, and those near (1 : 0),
        # whose tiny s a rotated chart places to an absolute error, within
        # 1e-13 chordal
        rng = np.random.default_rng(13 + k)
        for c in gaussian(rng, 200, 5):
            c[:k] *= damping
            got = quartic_roots(QuarticForm(c, 1.0), eps)
            assert [p.multiplicity for p in got] == [1, 1, 1, 1] and got.slopes is None
            ref = np.roots(c[::-1])
            for s in ref[abs(ref) < 1]:
                assert min(p.chordal(ProjectivePoint(1, s)) for p in got) <= 1e-13
            finite = [p.x / p.y for p in got if abs(p.x) <= abs(p.y)]
            assert_within_condition(finite, 1 / ref[abs(ref) >= 1], c)
        # just above eps times the largest coefficient, the basis chart keeps it
        c = np.array([3 * EPS, 1, 0.5j, -1, 2])
        assert quartic_roots(QuarticForm(c, 1.0), EPS).slopes is not None

    @pytest.mark.parametrize("zeros", [1, 2])
    def test_exact_trailing_zeros_are_roots_at_zero(self, zeros):
        # a simple or double root at (0 : 1), beside the roots of the rest.
        # The simple roots beside a double root come from deflation in the
        # chart of pencil._chart, to a normwise accuracy: up to 141 u times
        # their condition (239 u in the chart of four anchors)
        rng = np.random.default_rng(15 + zeros)
        for c in gaussian(rng, 200, 5):
            c[5 - zeros:] = 0
            got = list(quartic_roots(QuarticForm(c, 1.0), EPS))
            zero = min(got, key=ProjectivePoint(0, 1).chordal)
            assert zero.multiplicity == zeros and zero.chordal(ProjectivePoint(0, 1)) <= 1e-14
            got.remove(zero)
            rest = c[: 5 - zeros]
            assert_within_condition([p.x / p.y for p in got], np.roots(rest), rest,
                                    factor=128 if zeros == 1 else 1024)

    def test_roots_spanning_eight_decades(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            roots = 10 ** rng.uniform(-4, 4, 4) * np.exp(2j * np.pi * rng.random(4))
            c = np.poly(roots)
            assert_within_condition(_roots(c.tolist()), roots, c)

    @pytest.mark.parametrize("gap", [1e-3, 1e-2])
    def test_close_simple_roots(self, gap):
        rng = np.random.default_rng(18)
        for z, w, v in gaussian(rng, 1000, 3):
            c = np.poly([z, z + gap * np.exp(2j * np.pi * rng.random()), w, v])
            assert_within_condition(_roots(c.tolist()), np.roots(c), c)

    def test_biquadratics(self):
        # Q = 0 after depressing: the resolvent has the root 0, never the
        # largest one
        rng = np.random.default_rng(19)
        for r, t in gaussian(rng, 1000, 2):
            c = np.poly([r, -r, t, -t])
            assert_within_condition(_roots(c.tolist()), np.roots(c), c)

    def test_real_coefficients(self):
        rng = np.random.default_rng(20)
        for c in rng.standard_normal((2000, 5)):
            got = _roots([complex(z) for z in c])
            assert_within_condition(got, np.roots(c), c)


def _scaled(c):
    """``c`` times the power of two that brings max |c_k| into [0.5, 1), as
    ``quartic_roots`` scales a quartic."""
    c = [complex(z) for z in c]
    scale = 2.0 ** -np.frexp(max(map(abs, c)))[1]
    return [z * scale for z in c]


def _screen_cases():
    rng = np.random.default_rng(22)
    for c in gaussian(rng, 300, 5):
        yield _scaled(c)
    # every |c_k| = 1: all phases from the fourth roots of unity, and random ones
    for signs in product((1, 1j, -1, -1j), repeat=5):
        yield list(signs)
    for phases in rng.uniform(0, 2 * np.pi, (300, 5)):
        yield list(np.exp(1j * phases))
    for roots, _ in PATTERNS.values():
        yield _scaled(form_with_roots(roots))
        yield _scaled(noisy(form_with_roots(roots), pencil._NOISE, 5))


@pytest.mark.parametrize("nu", [pencil._NOISE, pencil._NOISE * 2.0**30, 2.0**-10, 1.0])
def test_discriminant_screen_bounds_the_precise_bound(nu):
    # the screen decides a clear discriminant only where the precise bound
    # would: it is at least that bound (with its factor 2 for rounding), and
    # half of it still is, up to rounding, which checks its derivation
    for c in _screen_cases():
        i, j = kernels.quartic_invariants(*c)
        screen = pencil._disc_screen(abs(i), abs(j), nu)
        bound = pencil._disc_bound(c, i, j, nu)[0]
        assert screen >= bound and screen / 2 >= bound * (1 - 2.0**-40)


def test_float_path_needs_no_eigenvalue_solver(monkeypatch, canonical_states):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    rng = np.random.default_rng(21)
    for amps in gaussian(rng, 200, 16):
        assert classify4(PureState(amps)).tag.value == "WGHZ_W"
    for tag, state in canonical_states.items():
        assert classify4_all(state)[0][0].tag.value == tag


class TestClauseQuadratics:
    def test_lambda_zero_pencil(self):
        pairs = clause_quadratics(okpsi_w_phi0(0), W3)
        # clause 2 pair is (y^2, 0)
        np.testing.assert_allclose(pairs[1][0].c, [0, 0, 1], atol=1e-14)
        assert pairs[1][1].identically_zero()

    def test_ww_generator_pencil(self):
        pairs = clause_quadratics(ww_phi0(0, 1, 1, +1), W3)
        np.testing.assert_allclose(pairs[0][0].c, [0, 0, -1], atol=1e-14)
        np.testing.assert_allclose(pairs[0][1].c, [4, 0, 0], atol=1e-14)
        np.testing.assert_allclose(pairs[1][0].c, [0, 0, 1], atol=1e-14)
        np.testing.assert_allclose(pairs[1][1].c, [4, 0, 0], atol=1e-14)
        np.testing.assert_allclose(pairs[2][0].c, [1, 0, 0], atol=1e-14)
        np.testing.assert_allclose(pairs[2][1].c, [0, 0, 1], atol=1e-14)

    def test_ghz_pencil_all_vanish(self):
        pairs = clause_quadratics(np.eye(8)[0], np.eye(8)[7])
        for fa, fb in pairs:
            assert fa.identically_zero() and fb.identically_zero()

    def test_evaluation_matches_quantities(self):
        from slocc4 import w_clauses

        rng = np.random.default_rng(12)
        phi0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        phi1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        pairs = clause_quadratics(phi0, phi1)
        forms = [f for pair in pairs for f in pair]
        for x, y in rng.standard_normal((10, 2)):
            quantities = w_clauses(x * phi0 + y * phi1).quantities
            for form, q in zip(forms, quantities):
                c0, c1, c2 = form.c
                assert abs(c0 * x * x + c1 * x * y + c2 * y * y - q) <= 1e-10 * max(abs(q), 1.0)


class TestCommonRoots:
    def test_disjoint(self):
        pairs = clause_quadratics(ww_phi0(0, 1, 1, +1), W3)
        for fa, fb in pairs:
            assert common_roots(fa, fb) == []

    def test_shared_root_via_identically_zero_partner(self):
        pairs = clause_quadratics(okpsi_w_phi0(0), W3)
        pts = common_roots(pairs[1][0], pairs[1][1])
        assert len(pts) == 1
        assert pts[0].chordal(ProjectivePoint(1, 0)) <= 1e-12

    # f = (x - y)(x + 2y), g = (x - y)(3x + y) have larger x^2 coefficients;
    # f = (x - y)(x + 3y), g = (x - y)(x + 5y) larger y^2 coefficients
    @pytest.mark.parametrize("exact", (False, True), ids=("float", "exact"))
    @pytest.mark.parametrize("f, g", (((1, 1, -2), (3, -2, -1)), ((1, 2, -3), (1, 4, -5))),
                             ids=("x2-chart", "y2-chart"))
    def test_single_shared_root(self, f, g, exact):
        forms = [QuadraticForm(c, 1.0, lift(c) if exact else None)
                 for c in (tuple(map(complex, f)), tuple(map(complex, g)))]
        assert common_roots(*forms) == [ProjectivePoint(1, 1)]

    # (2x - y)^2 has the larger x^2 coefficient, (x - 2y)^2 the larger y^2
    # one; x^2 and y^2 put the double root at an endpoint.  Each form is
    # moved by 1e-8 in its smaller end coefficient, which splits the root by
    # about 1e-4.  Exact mode decides the double root on the exact form;
    # float coefficients written in a basis that rounding reaches multiplied
    # by 1e6 may carry errors of 6e-8, so there the split is not resolved
    # either, while with a gain of 1 it is
    @pytest.mark.parametrize("exact", (False, True), ids=("float", "exact"))
    @pytest.mark.parametrize("c, moved, root", (((4, -4, 1), 2, (1, 2)), ((1, -4, 4), 0, (2, 1)),
                                                ((1, 0, 0), 2, (0, 1)), ((0, 0, 1), 0, (1, 0))),
                             ids=("x2-chart", "y2-chart", "x2", "y2"))
    def test_double_root_is_one_point(self, c, moved, root, exact):
        c = tuple(map(complex, c))
        noisy_c = tuple(z + 1e-8 if k == moved else z for k, z in enumerate(c))
        f = (QuadraticForm(noisy_c, 1.0, lift(c)) if exact
             else QuadraticForm(noisy_c, 1.0, scales=(1.0, 1e6, 1.0)))
        (pt,) = pencil._quadratic_roots(f)
        assert pt.multiplicity == 2 and pt.chordal(ProjectivePoint(*root)) <= 1e-8
        if not exact:
            assert len(pencil._quadratic_roots(f._replace(scales=(1.0, 0.0, 1.0)))) == 2

    def test_exact_split_below_float_resolution(self):
        # the exact form x^2 + 1e-300 x y has two roots 1e-300 apart, which
        # its float coefficients (1, 0, 0) cannot place apart: one double point
        f = QuadraticForm((1 + 0j, 0j, 0j), 1.0, lift((1, 1e-300, 0)))
        zero = QuadraticForm((0j, 0j, 0j), 1.0, lift((0, 0, 0)))
        assert common_roots(f, zero) == [ProjectivePoint(0, 1, 2)]

    # a x^2 + 2 x y - y^2 has the roots (-1 - r : a) and (1 : 1 + r), r =
    # sqrt(1 + a): at a = 0 one of them is (1 : 0), and at 0 < a <= eps max
    # |c| it lies near there
    @pytest.mark.parametrize("a", [0.0, 1e-12])
    def test_root_at_or_near_infinity(self, a):
        f = QuadraticForm((complex(a), 2 + 0j, -1 + 0j), 1.0)
        pts = common_roots(f, QuadraticForm((0j, 0j, 0j), 1.0), EPS)
        r = np.sqrt(1 + a)
        assert [p.multiplicity for p in pts] == [1, 1]
        for want in (ProjectivePoint(-1 - r, a), ProjectivePoint(1, 1 + r)):
            assert min(p.chordal(want) for p in pts) <= 1e-15

    def test_both_zero_raises(self):
        pairs = clause_quadratics(np.eye(8)[0], np.eye(8)[7])
        with pytest.raises(IdenticallyZero):
            common_roots(pairs[0][0], pairs[0][1])


class TestAnalyzeSpan:
    def test_ghz_pencil(self):
        profile = analyze_span(np.eye(8)[0], np.eye(8)[7])
        assert profile.ghz_generic and not profile.quartic_identically_zero
        assert profile.generic_type == TriClass.GHZ
        assert profile.contains_000
        classes = sorted(str(c) for _, c in profile.exceptional)
        assert classes == ["Sep000", "Sep000"]

    def test_lambda_zero_pencil(self):
        profile = analyze_span(okpsi_w_phi0(0), W3)
        assert profile.quartic_identically_zero
        assert profile.generic_type == TriClass.W
        assert len(profile.exceptional) == 1
        pt, cls = profile.exceptional[0]
        assert cls == TriClass.BISEP1
        assert pt == ProjectivePoint(1, 0)
        assert profile.bisep_cuts == (1,)
        assert not profile.contains_000

    def test_ww_pencil_no_exceptional(self):
        profile = analyze_span(ww_phi0(0, 1, 1, +1), W3)
        assert profile.quartic_identically_zero
        assert profile.generic_type == TriClass.W
        assert profile.exceptional == ()

    def test_separable_point_construction(self):
        # phi0 = |0>(|00> + 2|01> + 3|10>), phi1 = W: the pencil picks up
        # separable elements at x = -1/2 and x = -1/3 (y = 1)
        profile = analyze_span(iva1_phi0(), W3)
        assert profile.quartic_identically_zero
        locations = {
            "x=-1/2": ProjectivePoint(-0.5, 1.0),
            "x=-1/3": ProjectivePoint(-1.0 / 3.0, 1.0),
        }
        for name, want in locations.items():
            hits = [
                (pt, cls)
                for pt, cls in profile.exceptional
                if pt.chordal(want) <= 1e-6
            ]
            assert hits, f"no exceptional point near {name}"
            _, cls = hits[0]
            assert cls in (
                TriClass.SEP000,
                TriClass.BISEP1,
                TriClass.BISEP2,
                TriClass.BISEP3,
            )

    def test_ghz_span_never_all_ghz(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            phi0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            profile = analyze_span(phi0, GHZ3)
            assert profile.ghz_generic
            non_ghz = [cls for _, cls in profile.exceptional if cls != TriClass.GHZ]
            assert non_ghz, "pencil with a GHZ basis vector must contain non-GHZ states"

    def test_quartic_within_eps_with_clause_pair_in_band_is_unstable(self):
        # |0>(|00> + |11>) and |1>(|00> + |11>), each moved by about 4e-3:
        # the quartic vanishes within eps = 3.9e-4, but a clause pair lies
        # between its zero and nonzero thresholds, so the generic type is
        # undecided
        phi0 = [
            1.000389183241498 + 0.002657345377566779j, 0.003126182168758051 + 0.004185366560473566j,
            -0.002765183727840217 + 0.0009674585279937396j, 1.0007431082606209 + 0.00038436296376647013j,
            0.0034674198489940905 - 0.002181955614310024j, 0.001767143566506238 + 0.0014720078456043769j,
            0.0026610847963248144 - 0.004600448880992956j, 0.00030260759248520807 - 0.0013707626870902336j,
        ]
        phi1 = [
            -0.0036005790443110826 + 0.005435875056120184j, -0.0007304803485180546 - 0.008779371864986113j,
            0.007651424305760347 - 0.004518789482295686j, 0.00038387737269616237 - 0.0012351215312137794j,
            1.0018116488038222 + 0.004569924084806999j, -0.0015082063357316794 + 0.0020572939058119905j,
            -0.0003245939894374634 + 0.00041820077552359134j, 1.0021234303843232 + 0.0021331693910632827j,
        ]
        eps = 0.00039111606777334553
        assert quartic(phi0, phi1).identically_zero(eps)
        with pytest.raises(GenericTypeUnstable, match="clause pair at .* times its noise bound"):
            analyze_span(phi0, phi1, eps)
        with pytest.raises(GenericTypeUnstable, match="clause pair at .* times its noise bound"):
            classify4(phi0 + phi1, 1, eps)

    def test_degenerate_pencil_rejected(self):
        with pytest.raises(DegeneratePencil):
            analyze_span(GHZ3, 2 * GHZ3)
        with pytest.raises(ZeroState):
            analyze_span(np.zeros(8), GHZ3)

    @pytest.mark.parametrize(
        "tag",
        [
            "W000_000",
            "W000_0Psi",
            "W000_GHZ",
            "W000_W",
            "W0kPsi_0kPsi",
            "W0iPsi_0jPsi",
            "W0Psi_GHZ",
            "W0kPsi_W",
            "WGHZ_W",
            "WW_W",
        ],
    )
    def test_dense_sampling_agreement(self, tag):
        # classify 2000 pencil elements directly; non-generic verdicts may
        # occur only within the classifier's own window of a listed
        # exceptional point, eps^(1/m) for a root of multiplicity m
        phi0, phi1 = canonical_pencil(FamilySpec(tag))
        profile = analyze_span(phi0, phi1)
        xy = sphere_points(2000, seed=zlib.crc32(tag.encode()))
        elems = xy[:, :1] * phi0[None, :] + xy[:, 1:] * phi1[None, :]
        for (x, y), elem in zip(xy, elems):
            cls = classify3(PureState(elem))
            if cls == profile.generic_type:
                continue
            pt = ProjectivePoint(x, y)
            assert profile.exceptional, (tag, cls, x, y)
            nearest = min((p for p, _ in profile.exceptional), key=pt.chordal)
            near = pt.chordal(nearest)
            bound = 2 * DEFAULT_EPS ** (1 / nearest.multiplicity)
            assert near <= bound, (tag, cls, x, y, near, nearest.multiplicity)

    def test_gl2_recombination_covariance(self):
        rng = np.random.default_rng(14)
        for tag in ("W000_0Psi", "W0kPsi_W", "WW_W", "WGHZ_W", "W000_000"):
            phi0, phi1 = canonical_pencil(FamilySpec(tag))
            base = analyze_span(phi0, phi1)
            base_sig = (base.generic_type, sorted(str(c) for _, c in base.exceptional))
            for _ in range(20):
                m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                while abs(np.linalg.det(m)) < 0.3:
                    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                new0 = m[0, 0] * phi0 + m[0, 1] * phi1
                new1 = m[1, 0] * phi0 + m[1, 1] * phi1
                prof = analyze_span(new0, new1, eps=1e-8)
                sig = (prof.generic_type, sorted(str(c) for _, c in prof.exceptional))
                assert sig == base_sig, (tag, sig, base_sig)


def test_cluster_points_merges_and_sums():
    pts = [
        ProjectivePoint(1, 0, 1),
        ProjectivePoint(1, 1e-9, 2),
        ProjectivePoint(0, 1, 1),
    ]
    merged = cluster_points(pts, 1e-4)
    assert len(merged) == 2
    infinity = [p for p in merged if p.chordal(ProjectivePoint(1, 0)) < 1e-6]
    assert infinity[0].multiplicity == 3


# The W certificate of simple quartic roots (the comment above pencil._SLOPE).

#: ghz = S_k^2 - 4 SIGN_k P_k Q_k with (P_k, Q_k) clause pair k of
#: kernels.clauses: the two slice determinants along qubit k are (P, -Q),
#: (-P, -Q) and (-Q, -P) for k = 1, 2, 3.
_PAIR_SIGN = {1: -1, 2: 1, 3: 1}


def _slices(a, k):
    """The two 2x2 slices of a row along qubit k, as (a00, a01, a10, a11)."""
    bit = 1 << (3 - k)
    return [a[i] for i in range(8) if not i & bit], [a[i] for i in range(8) if i & bit]


def _det2(m):
    return m[0] * m[3] - m[1] * m[2]


def _ghz_gradient(a):
    """The gradient of kernels.ghz at a row, by central differences."""
    h = 1e-5 * np.linalg.norm(a)
    grad = []
    for i in range(8):
        up, down = list(a), list(a)
        up[i] += h
        down[i] -= h
        grad.append((kernels.ghz(*up) - kernels.ghz(*down)) / (2 * h))
    return np.array(grad)


def _orthonormal_pencil(rng, near=None, delta=0.0):
    """Two orthonormal 3-qubit vectors; with ``near`` given, their pencil
    holds ``near`` plus delta N(0, 1) at (1 : 1)."""
    g = [rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(2)]
    if near is None:
        q, _ = np.linalg.qr(np.column_stack(g))
        return list(q[:, 0]), list(q[:, 1])
    q, _ = np.linalg.qr(np.column_stack([near + delta * g[0], g[1]]))
    return list((q[:, 0] + q[:, 1]) / 2**0.5), list((q[:, 0] - q[:, 1]) / 2**0.5)


def _certified_rows(monkeypatch, phi0, phi1, eps):
    """(root, class, row) for each root that ``quartic_roots`` reports inside
    ``analyze_span``, the class being W where ``_certified`` proves the four
    roots W and None otherwise, and the row the one ``_classes`` would form."""
    found, certified = [], []

    def roots(*args, **kwargs):
        points = original_roots(*args, **kwargs)
        found.extend(points)
        return points

    def certify(*args):
        certified.append(original_certified(*args))
        return certified[-1]

    original_roots, original_certified = pencil.quartic_roots, pencil._certified
    monkeypatch.setattr(pencil, "quartic_roots", roots)
    monkeypatch.setattr(pencil, "_certified", certify)
    try:
        analyze_span(phi0, phi1, eps)
    except Slocc4Error:  # after the roots, when they are classified
        pass
    monkeypatch.setattr(pencil, "quartic_roots", original_roots)
    monkeypatch.setattr(pencil, "_certified", original_certified)
    cls = TriClass.W if certified == [True] else None
    p0, p1 = pencil._check_inputs(phi0, phi1)[:2]
    rows = kernels.pencil_elements(p0, p1, [(pt.x, pt.y) for pt in found])
    return [(pt, cls, row) for pt, row in zip(found, rows)]


def test_ghz_is_the_hyperdeterminant_along_each_clause_pair():
    # Gaussian-integer rows, so that every value below is exact
    rng = np.random.default_rng(31)
    for a in rng.integers(-9, 10, (200, 8)) + 1j * rng.integers(-9, 10, (200, 8)):
        a = [complex(z) for z in a]
        q = kernels.clauses(*a)
        for k in (1, 2, 3):
            lo, hi = _slices(a, k)
            s = _det2([x + y for x, y in zip(lo, hi)]) - _det2(lo) - _det2(hi)
            p, r = q[2 * k - 2], q[2 * k - 1]
            assert _det2(lo) * _det2(hi) == _PAIR_SIGN[k] * p * r
            assert kernels.ghz(*a) == s * s - 4 * _PAIR_SIGN[k] * p * r


def test_gradient_bound_at_pencil_roots():
    # |grad ghz(r)| <= _SLOPE m_k |r| at a root r (Det = 0), for each clause
    # pair k; the rounding of a float root is covered by 2 |r| sqrt|Det(r)|,
    # which bounds the gap at any row
    rng = np.random.default_rng(32)
    largest = 0.0
    for _ in range(300):
        u, v = _orthonormal_pencil(rng)
        for t in np.roots(kernels.pencil_quartic(u, v)):
            r = t * np.array(u) + np.array(v)
            norm, q = np.linalg.norm(r), np.abs(kernels.clauses(*r))
            grad, det = np.linalg.norm(_ghz_gradient(r)), abs(kernels.ghz(*r))
            for k in (1, 2, 3):
                bound = pencil._SLOPE * max(q[2 * k - 2], q[2 * k - 1]) * norm + 2 * norm * det**0.5
                largest = max(largest, grad / bound)
    assert largest <= 1.0


@pytest.mark.parametrize("seed", range(3))
def test_root_beside_a_biseparable_point(monkeypatch, seed):
    # a Bisep(1) point plus 1e-4 noise splits its double root into two simple
    # roots near (1 : 1); eps puts the slope of the nearer one at a multiple
    # of the derived threshold 8 BAND eps |r|^3: below it the four roots are
    # classified, above it certified, and a certified root reads W under
    # tri_code
    phi0, phi1 = _orthonormal_pencil(np.random.default_rng(seed), np.eye(8)[0] + np.eye(8)[3], 1e-4)
    c = np.array(kernels.pencil_quartic(phi0, phi1))
    roots = np.roots(c)
    t = roots[np.argmin(abs(roots - 1))]
    slope, r = abs(np.polyval(np.polyder(c), t)), (1 + abs(t) ** 2) ** 0.5
    for multiple in (0.25, 0.75, 4, 128):
        eps = slope / (multiple * 8 * kernels.BAND * r**3)
        found = _certified_rows(monkeypatch, phi0, phi1, eps)
        nearest = min(found, key=lambda f: f[0].chordal(ProjectivePoint(1, 1)))
        assert (nearest[1] is TriClass.W) == (multiple > 1), (multiple, eps)
        for _, cls, row in found:
            if cls is TriClass.W:
                assert kernels.tri_code(row, eps) is TriClass.W


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6, 1e-3])
def test_certified_roots_of_gaussian_pencils_are_w(monkeypatch, eps):
    # orthonormal Gaussian pairs, whose roots are certified only where their
    # slope clears the derived threshold 8 BAND eps |r|^3, and Gaussian pairs
    # 1e-2 from parallel (pencil._gain about 100); below eps of about 1e-11,
    # or about 1e-8 at that gain, the rounding bound holds the certificate back
    rng = np.random.default_rng(33)
    certified = 0
    for i in range(200):
        if i % 2:
            g0, g1 = (rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(2))
            g0, g1 = list(g0), list(g0 + 1e-2 * g1)
        else:
            g0, g1 = _orthonormal_pencil(rng)
            slope = np.polyder(np.array(kernels.pencil_quartic(g0, g1)))
        for pt, cls, row in _certified_rows(monkeypatch, g0, g1, eps):
            if cls is TriClass.W:
                certified += 1
                assert kernels.tri_code(row, eps) is TriClass.W
                if not i % 2:
                    t = pt.x / pt.y
                    assert abs(np.polyval(slope, t)) >= 8 * kernels.BAND * eps * (1 + abs(t) ** 2) ** 1.5
    # every orthonormal root from 1e-9 on, and every root at 1e-6; at 1e-3
    # the slopes of most roots lie below the threshold
    if eps in (1e-9, 1e-6):
        assert certified >= 400
