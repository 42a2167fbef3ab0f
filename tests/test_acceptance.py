"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
report lines and timings.
"""

import time
from collections import Counter

import numpy as np
import pytest

from slocc4 import (
    InternalContradiction,
    PureState,
    TriClass,
    apply_slocc,
    classify3,
    classify4,
    ghz_invariant,
    quartic,
)
from slocc4.canonical import (
    FamilySpec,
    TRI_STATES,
    canonical_pencil,
    make_canonical,
    random_slocc,
)
from slocc4.cli import run_fuzz_empty
from slocc4.exact import GR_ONE, lift, quartic_exact
from slocc4.oracle import profile_by_sampling, rank_codes_batch
from slocc4.pencil import ProjectivePoint, analyze_span
from slocc4.quad import QuadTag
from slocc4.tri import classify3_batch

from conftest import FAMILY_TAGS, GHZ3, W3, iva1_phi0, tri_canonical

EPS = 1e-9
MAX_CONDITION = 1e3

WW_GRID = [
    (mu, a3, a5, sign)
    for a3 in (1, 2, 1j, 1 + 1j)
    for a5 in (1, 2, 1j, 1 + 1j)
    for sign in (+1, -1)
    for mu in (0, 1, 1j)
    if not (sign == -1 and a3 == a5)  # excluded by the branch constraint
]


def _report(number: int, name: str, started: float) -> None:
    print(f"\nACCEPTANCE {number} ({name}): PASS [{time.time() - started:.1f}s]")


def test_criterion_1_parameterized_families_nonempty():
    started = time.time()
    rng = np.random.default_rng(20260801)
    trials = 500

    for lam in (0, 1, -1, 1j, 2 + 3j):
        state = make_canonical(FamilySpec("W0kPsi_W", {"lambda": lam}))
        for _ in range(trials):
            img = apply_slocc(state, random_slocc(4, MAX_CONDITION, rng))
            verdict = classify4(img, eps=EPS)
            assert verdict.tag == QuadTag.W0KPSI_W, (lam, verdict)
            assert verdict.cuts == (1,)

    assert len(WW_GRID) == 84
    for mu, a3, a5, sign in WW_GRID:
        spec = FamilySpec("WW_W", {"mu": mu, "a3": a3, "a5": a5}, sign=sign)
        state = make_canonical(spec)
        for _ in range(trials):
            img = apply_slocc(state, random_slocc(4, MAX_CONDITION, rng))
            verdict = classify4(img, eps=EPS)
            assert verdict.tag == QuadTag.WW_W, (mu, a3, a5, sign, verdict)

    elapsed = time.time() - started
    assert elapsed < 60.0, f"runtime target exceeded: {elapsed:.1f}s"
    _report(1, "parameterized-family non-emptiness", started)


def test_criterion_2_ghz_ghz_empty():
    started = time.time()
    report = run_fuzz_empty(trials=10_000, seed=20260802, eps=EPS)
    assert report["all_ghz_profiles"] == 0

    rng = np.random.default_rng(20260803)
    ghz = PureState(GHZ3)
    exact_ghz = lift(GHZ3)
    for _ in range(1000):
        phi0 = apply_slocc(ghz, random_slocc(3, MAX_CONDITION, rng))
        form = quartic(phi0, ghz)
        assert abs(form.c[4] - 1.0) <= 1e-12
        exact_c = quartic_exact(lift(phi0.amps), exact_ghz)
        assert (exact_c[4] - GR_ONE).is_zero
    _report(2, "GHZ-GHZ span emptiness", started)


def test_criterion_3_classifier_matches_rank_oracle():
    started = time.time()
    rng = np.random.default_rng(20260804)
    names = ("Sep000", "Bisep1", "Bisep2", "Bisep3", "W", "GHZ")
    per_class = 10_000 // len(names) + 1
    images = np.stack(
        [
            apply_slocc(tri_canonical(name), random_slocc(3, MAX_CONDITION, rng)).amps
            for name in names
            for _ in range(per_class)
        ]
    )
    assert images.shape[0] >= 10_000
    equational = classify3_batch(images, eps=EPS)
    mapping = {0: TriClass.ZERO, 1: TriClass.SEP000, 2: TriClass.BISEP1,
               3: TriClass.BISEP2, 4: TriClass.BISEP3, 5: TriClass.W, 6: TriClass.GHZ}
    by_ranks = [mapping[int(c)] for c in rank_codes_batch(images, eps=EPS)]
    disagreements = sum(a != b for a, b in zip(equational, by_ranks))
    assert disagreements == 0
    _report(3, "equational classifier vs rank oracle", started)


def test_criterion_4_quartic_evaluation_identity():
    started = time.time()
    rng = np.random.default_rng(20260805)
    for _ in range(1000):
        phi0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        phi1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        form = quartic(phi0, phi1)
        amp = max(np.abs(phi0).max(), np.abs(phi1).max())
        xy = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
        for x, y in xy:
            direct = ghz_invariant(x * phi0 + y * phi1)
            scale = amp * max(abs(x), abs(y))
            assert abs(form.evaluate(x, y) - direct) <= 1e-10 * scale**4
    _report(4, "quartic evaluation identity", started)


def test_criterion_5_profile_matches_sampling_oracle():
    started = time.time()
    pencils = {tag: canonical_pencil(FamilySpec(tag)) for tag in FAMILY_TAGS}
    pencils["separable-point construction"] = (iva1_phi0(), W3.copy())

    for name, (phi0, phi1) in pencils.items():
        profile = analyze_span(phi0, phi1, eps=EPS)
        sampled = profile_by_sampling(phi0, phi1, samples=2000, eps=EPS)
        assert sampled.generic_type == profile.generic_type, name
        got = sorted(str(c) for _, c in sampled.exceptional)
        want = sorted(str(c) for _, c in profile.exceptional)
        assert got == want, (name, got, want)

    # the construction's separable elements sit at x = -1/(phi0 Psi01) and
    # x = -1/(phi0 Psi10), i.e. (-1/2 : 1) and (-1/3 : 1)
    profile = analyze_span(*pencils["separable-point construction"], eps=EPS)
    sampled = profile_by_sampling(*pencils["separable-point construction"])
    separable = (TriClass.SEP000, TriClass.BISEP1, TriClass.BISEP2, TriClass.BISEP3)
    for want in (ProjectivePoint(-1 / 2, 1), ProjectivePoint(-1 / 3, 1)):
        for prof in (profile, sampled):
            hits = [
                (pt, cls) for pt, cls in prof.exceptional if pt.chordal(want) <= 1e-6
            ]
            assert hits and hits[0][1] in separable
    _report(5, "span profile vs dense-sampling oracle", started)


def test_criterion_6_scale_invariance():
    started = time.time()
    for tag in FAMILY_TAGS:
        state = make_canonical(FamilySpec(tag))
        base = classify4(state, eps=EPS)
        for factor in (1e6, 1e-6):
            scaled = PureState(state.amps * factor)
            verdict = classify4(scaled, eps=EPS)
            assert verdict.tag == base.tag and verdict.cuts == base.cuts, (tag, factor)
    for name in TRI_STATES:
        state = tri_canonical(name)
        base = classify3(state, eps=EPS)
        for factor in (1e6, 1e-6):
            assert classify3(PureState(state.amps * factor), eps=EPS) == base
    iva1 = PureState(np.concatenate([iva1_phi0(), W3]))
    base = classify4(iva1, eps=EPS)
    for factor in (1e6, 1e-6):
        verdict = classify4(PureState(iva1.amps * factor), eps=EPS)
        assert verdict.tag == base.tag and verdict.cuts == base.cuts
    _report(6, "scale invariance", started)


def test_criterion_7_no_contradictions_on_random_states():
    started = time.time()
    rng = np.random.default_rng(20260806)
    tally = Counter()
    for _ in range(10_000):
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        try:
            verdict = classify4(PureState(amps), eps=EPS)
        except InternalContradiction as exc:  # pragma: no cover
            pytest.fail(f"all-GHZ assertion fired on a random state: {exc}")
        tally[verdict.tag.value] += 1
        # a Gaussian state is generic: a GHZ-generic pencil whose quartic has
        # four simple roots, each a W point
        points = [(pt.multiplicity, cls) for pt, cls in verdict.profile.exceptional]
        assert points == [(1, TriClass.W)] * 4, (verdict.label(), points)
    assert tally == {QuadTag.WGHZ_W.value: 10_000}
    print(f"\n  class tally over 10^4 random states: {dict(tally)}")
    _report(7, "no all-GHZ contradictions", started)
