from itertools import combinations

import numpy as np
import pytest

from slocc4 import (
    DegeneratePencil,
    IdenticallyZero,
    ProjectivePoint,
    TriClass,
    ZeroState,
    analyze_span,
    classify3,
    clause_quadratics,
    quartic,
    quartic_roots,
)
from slocc4.canonical import FamilySpec, canonical_pencil, okpsi_w_phi0, ww_phi0
from slocc4.pencil import QuarticForm, _polish_multiple_root, cluster_points, common_roots
from slocc4.qstate import PureState

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


def reference_quartic_roots(c, eps=1e-9):
    """quartic_roots as first written: np.roots for the finite roots and an
    exhaustive subset search for the multiplicity-aware merge."""
    cmax = float(np.abs(c).max())
    k = 0
    while k < len(c) - 1 and abs(c[k]) <= eps * cmax:
        k += 1
    pts = [ProjectivePoint(1, 0, 1) for _ in range(k)]
    pts.extend(ProjectivePoint(r, 1, 1) for r in np.roots(c[k:]))
    merged = True
    while merged and len(pts) > 1:
        merged = False
        for size in range(len(pts), 1, -1):
            best = None
            for subset in combinations(range(len(pts)), size):
                group = [pts[i] for i in subset]
                total = sum(p.multiplicity for p in group)
                diam = max(a.chordal(b) for a, b in combinations(group, 2))
                if diam <= eps ** (1.0 / total) and (best is None or diam < best[0]):
                    best = (diam, subset)
            if best is not None:
                group = [pts[i] for i in best[1]]
                rest = [p for i, p in enumerate(pts) if i not in best[1]]
                pts = rest + cluster_points(group, 2.0)
                merged = True
                break
    return [_polish_multiple_root(c, pt, eps) for pt in pts]


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


EPS = 1e-9
#: name -> (roots, expected sorted multiplicities, localization tolerance)
ROOT_CASES = {
    "one_at_infinity": ([(1, 0), (0.3, 1), (-1 + 1j, 1), (2j, 1)], [1, 1, 1, 1], 1e-8),
    "two_at_infinity": ([(1, 0), (1, 0), (0.5 - 0.5j, 1), (-2, 1)], [1, 1, 2], 1e-8),
    "one_at_zero": ([(0, 1), (0.3, 1), (-1 + 1j, 1), (2j, 1)], [1, 1, 1, 1], 1e-8),
    "two_at_zero": ([(0, 1), (0, 1), (0.5 - 0.5j, 1), (-2, 1)], [1, 1, 2], 1e-8),
}
# groups of total multiplicity M spread to just inside and just outside the
# merge radius eps^(1/M)
for name, factor in (("inside", 0.8), ("outside", 1.25)):
    merged = name == "inside"
    d2, d3, d4 = (factor * EPS ** (1 / m) for m in (2, 3, 4))
    ROOT_CASES[f"2+2_{name}"] = (
        spread(0.4 + 0.1j, d2, 2) + spread(-1.5 + 0.7j, d2, 2),
        [2, 2] if merged else [1, 1, 1, 1],
        d2,
    )
    ROOT_CASES[f"3+1_{name}"] = (
        spread(0.2 - 0.6j, d3, 3) + [(1.7, 1)],
        [1, 3] if merged else [1, 1, 1, 1],
        d3,
    )
    ROOT_CASES[f"4_{name}"] = (
        spread(-0.3 + 0.2j, d4, 4),
        [4] if merged else [1, 1, 1, 1],
        d4,
    )


class TestQuarticRootsReference:
    @pytest.mark.parametrize("case", sorted(ROOT_CASES))
    def test_matches_reference(self, case):
        roots, multiplicities, tol = ROOT_CASES[case]
        c = form_with_roots(roots)
        got = quartic_roots(QuarticForm(c=c, amp_scale=1.0), EPS)
        want = reference_quartic_roots(c, EPS)
        assert [p.multiplicity for p in got] == [p.multiplicity for p in want]
        assert sorted(p.multiplicity for p in got) == multiplicities
        for p, q in zip(got, want):
            assert p.chordal(q) <= 1e-12
        for a, b in roots:
            target = ProjectivePoint(a, b)
            assert min(p.chordal(target) for p in got) <= tol


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
        # occur only next to a listed exceptional point
        phi0, phi1 = canonical_pencil(FamilySpec(tag))
        profile = analyze_span(phi0, phi1)
        xy = sphere_points(2000, seed=hash(tag) % 2**32)
        elems = xy[:, :1] * phi0[None, :] + xy[:, 1:] * phi1[None, :]
        for (x, y), elem in zip(xy, elems):
            cls = classify3(PureState(elem))
            if cls == profile.generic_type:
                continue
            pt = ProjectivePoint(x, y)
            near = min(pt.chordal(p) for p, _ in profile.exceptional) if profile.exceptional else np.inf
            assert near <= 1e-4, (tag, cls, x, y, near)

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
