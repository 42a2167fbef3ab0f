import zlib
from itertools import combinations

import numpy as np
import pytest

from slocc4 import (
    AmbiguousClassification,
    DegeneratePencil,
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
from slocc4 import pencil
from slocc4.pencil import QuarticForm, cluster_points, common_roots
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

    def test_at_infinity(self):
        assert ProjectivePoint(5j, 0).at_infinity
        assert not ProjectivePoint(1, 1e-3).at_infinity


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
            got = pencil._polynomial_roots(c.tolist())
            assert max(err for err, _ in matched_errors(got, np.roots(c))) <= 1e-12

    def test_gaussian_cubics_match_np_roots(self):
        rng = np.random.default_rng(12)
        for c in gaussian(rng, 2000, 4):
            got = pencil._polynomial_roots(c.tolist())
            assert max(err for err, _ in matched_errors(got, np.roots(c))) <= 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_leading_coefficients_within_eps_are_roots_at_infinity(self, k):
        rng = np.random.default_rng(13 + k)
        for c in gaussian(rng, 200, 5):
            c[:k] *= 1e-12
            pts = pencil._raw_projective_roots(c.tolist(), EPS)
            assert pts[:k] == [(1.0, 0.0)] * k
            assert [y for _, y in pts[k:]] == [1.0] * (4 - k)
            assert_within_condition([x for x, _ in pts[k:]], np.roots(c[k:]), c[k:])
        # just above eps times the largest coefficient, it is kept
        c = np.array([3 * EPS, 1, 0.5j, -1, 2])
        assert all(y == 1.0 for _, y in pencil._raw_projective_roots(c.tolist(), EPS))

    @pytest.mark.parametrize("zeros", [1, 2])
    def test_exact_trailing_zeros_are_roots_at_zero(self, zeros):
        rng = np.random.default_rng(15 + zeros)
        for c in gaussian(rng, 200, 5):
            c[5 - zeros:] = 0
            pts = pencil._raw_projective_roots(c.tolist(), EPS)
            assert pts[4 - zeros:] == [(0j, 1.0)] * zeros
            rest = c[: 5 - zeros]
            assert_within_condition([x for x, _ in pts[: 4 - zeros]], np.roots(rest), rest)

    def test_roots_spanning_eight_decades(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            roots = 10 ** rng.uniform(-4, 4, 4) * np.exp(2j * np.pi * rng.random(4))
            c = np.poly(roots)
            assert_within_condition(pencil._polynomial_roots(c.tolist()), roots, c)

    @pytest.mark.parametrize("gap", [1e-3, 1e-2])
    def test_close_simple_roots(self, gap):
        rng = np.random.default_rng(18)
        for z, w, v in gaussian(rng, 1000, 3):
            c = np.poly([z, z + gap * np.exp(2j * np.pi * rng.random()), w, v])
            assert_within_condition(pencil._polynomial_roots(c.tolist()), np.roots(c), c)

    def test_biquadratics(self):
        # Q = 0 after depressing: the resolvent has the root 0, never the
        # largest one
        rng = np.random.default_rng(19)
        for r, t in gaussian(rng, 1000, 2):
            c = np.poly([r, -r, t, -t])
            assert_within_condition(pencil._polynomial_roots(c.tolist()), np.roots(c), c)

    def test_real_coefficients(self):
        rng = np.random.default_rng(20)
        for c in rng.standard_normal((2000, 5)):
            got = pencil._polynomial_roots([complex(z) for z in c])
            assert_within_condition(got, np.roots(c), c)


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
                assert abs(form.evaluate(x, y) - q) <= 1e-10 * max(abs(q), 1.0)


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


def test_float_probes_are_the_seeded_unit_rows():
    # the probe literals are the normalized rows that default_rng(20260809)
    # gives, bit for bit
    want = sphere_points(2, 20260809)
    assert pencil._FLOAT_PROBES.dtype == want.dtype
    assert pencil._FLOAT_PROBES.tobytes() == want.tobytes()
