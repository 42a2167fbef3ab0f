import zlib

import numpy as np
import pytest

from slocc4 import (
    AmbiguousClassification,
    DimensionMismatch,
    GenericTypeUnstable,
    InternalContradiction,
    PureState,
    QuadTag,
    Slocc4Error,
    TriClass,
    ZeroState,
    apply_slocc,
    classify4,
    classify4_all,
    permute_qubits,
)
from slocc4.canonical import FAMILY_CUTS, FamilySpec, make_canonical, random_slocc
from slocc4.pencil import ProjectivePoint, SpanProfile
from slocc4.quad import _decide

from conftest import FAMILY_TAGS


def _profile(generic, points):
    return SpanProfile(generic, tuple((ProjectivePoint(1, i + 1), cls) for i, cls in enumerate(points)))


class TestDecisionTable:
    def test_two_separable(self):
        p = _profile(TriClass.GHZ, [TriClass.SEP000, TriClass.SEP000])
        assert _decide(p, 1).tag == QuadTag.W000_000

    def test_separable_plus_bisep_beats_generic(self):
        for generic in (TriClass.GHZ, TriClass.W):
            p = _profile(generic, [TriClass.SEP000, TriClass.BISEP2])
            assert _decide(p, 1).tag == QuadTag.W000_0PSI

    def test_separable_with_ghz_generic(self):
        p = _profile(TriClass.GHZ, [TriClass.SEP000, TriClass.W])
        assert _decide(p, 1).tag == QuadTag.W000_GHZ

    def test_separable_with_w_generic(self):
        p = _profile(TriClass.W, [TriClass.SEP000])
        assert _decide(p, 1).tag == QuadTag.W000_W

    def test_bisep_same_cut(self):
        p = _profile(TriClass.GHZ, [TriClass.BISEP2, TriClass.BISEP2])
        v = _decide(p, 1)
        assert v.tag == QuadTag.W0KPSI_0KPSI and v.cuts == (2,)

    def test_bisep_distinct_cuts(self):
        p = _profile(TriClass.GHZ, [TriClass.BISEP3, TriClass.BISEP1])
        v = _decide(p, 1)
        assert v.tag == QuadTag.W0IPSI_0JPSI and v.cuts == (1, 3)

    def test_shared_cut_takes_priority_over_distinct(self):
        p = _profile(TriClass.GHZ, [TriClass.BISEP1, TriClass.BISEP1, TriClass.BISEP2])
        v = _decide(p, 1)
        assert v.tag == QuadTag.W0KPSI_0KPSI and v.cuts == (1,)

    def test_single_bisep_ghz_generic(self):
        p = _profile(TriClass.GHZ, [TriClass.BISEP2, TriClass.W])
        v = _decide(p, 1)
        assert v.tag == QuadTag.W0PSI_GHZ and v.cuts == (2,)

    def test_single_bisep_w_generic(self):
        p = _profile(TriClass.W, [TriClass.BISEP1])
        v = _decide(p, 1)
        assert v.tag == QuadTag.W0KPSI_W and v.cuts == (1,)

    def test_no_separable_ghz_generic(self):
        p = _profile(TriClass.GHZ, [TriClass.W, TriClass.W])
        assert _decide(p, 1).tag == QuadTag.WGHZ_W

    def test_no_separable_w_generic(self):
        p = _profile(TriClass.W, [])
        assert _decide(p, 1).tag == QuadTag.WW_W

    def test_all_ghz_profile_is_contradiction(self):
        p = _profile(TriClass.GHZ, [TriClass.GHZ, TriClass.GHZ])
        with pytest.raises(InternalContradiction):
            _decide(p, 1)

    def test_biseparable_generic_is_contradiction(self):
        p = _profile(TriClass.BISEP1, [])
        with pytest.raises(InternalContradiction):
            _decide(p, 1)


class TestClassify4:
    def test_canonical_lambda_zero(self):
        v = classify4(make_canonical(FamilySpec("W0kPsi_W", {"lambda": 0})))
        assert v.tag == QuadTag.W0KPSI_W
        assert v.cuts == (1,)
        assert v.distinguished == 1

    def test_canonical_ww(self):
        v = classify4(make_canonical(FamilySpec("WW_W")))
        assert v.tag == QuadTag.WW_W
        assert v.profile.exceptional == ()

    def test_ghz4(self):
        v = classify4(make_canonical(FamilySpec("W000_000")))
        assert v.tag == QuadTag.W000_000

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_all_families(self, tag, canonical_states):
        v = classify4(canonical_states[tag])
        assert v.tag.value == tag

    def test_errors(self):
        with pytest.raises(DimensionMismatch):
            classify4(PureState(np.eye(8)[0]))
        with pytest.raises(ZeroState):
            classify4(PureState(np.zeros(16)))
        with pytest.raises(DimensionMismatch):
            classify4(PureState(np.eye(16)[0]), distinguished=5)

    def test_degenerate_single_qubit(self):
        v = classify4(PureState(np.eye(16)[0]))
        assert v.is_degenerate
        assert "qubit 1 separable" in v.detail
        assert "Sep000" in v.detail

    def test_degenerate_carries_remainder_class(self):
        # |0> x GHZ on qubits 2,3,4
        amps = np.zeros(16, dtype=complex)
        amps[0b0000] = 1
        amps[0b0111] = 1
        v = classify4(PureState(amps))
        assert v.is_degenerate
        assert "qubit 1 separable" in v.detail and "GHZ" in v.detail

    def test_degenerate_pair_product(self):
        bell = np.array([1, 0, 0, 1], dtype=complex)
        v = classify4(PureState(np.kron(bell, bell)))
        assert v.is_degenerate
        assert "pair (1, 2)" in v.detail

    def test_order_coherence(self):
        # any profile containing a separable point yields a W000_* tag
        rng = np.random.default_rng(40)
        for tag in FAMILY_TAGS:
            state = make_canonical(FamilySpec(tag))
            for _ in range(20):
                img = apply_slocc(state, random_slocc(4, 1e3, rng))
                v = classify4(img)
                if v.profile is not None and v.profile.contains_000:
                    assert v.tag.value.startswith("W000_")

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_slocc_invariance(self, tag, canonical_states):
        rng = np.random.default_rng(zlib.crc32(tag.encode()))
        state = canonical_states[tag]
        want = classify4(state)
        for _ in range(500):
            img = apply_slocc(state, random_slocc(4, 1e3, rng))
            got = classify4(img)
            assert got.tag == want.tag and got.cuts == want.cuts

    def test_permutation_covariance_last_three_qubits(self):
        # permuting qubits 2-4 permutes the residual cut index the same way
        state = make_canonical(FamilySpec("W0Psi_GHZ"))
        base = classify4(state)
        assert base.cuts == (1,)
        for perm, cut in (((1, 3, 2, 4), 2), ((1, 4, 3, 2), 3), ((1, 2, 3, 4), 1)):
            permuted = permute_qubits(state, perm)
            v = classify4(permuted)
            assert v.tag == base.tag
            assert v.cuts == (cut,)


class TestClassify4All:
    def test_ghz4_symmetric(self):
        verdicts, label = classify4_all(make_canonical(FamilySpec("W000_000")))
        assert [v.tag for v in verdicts] == [QuadTag.W000_000] * 4
        assert label == ";".join(["W000_000"] * 4)

    def test_lambda_zero_reports_all_qubits(self):
        verdicts, label = classify4_all(make_canonical(FamilySpec("W0kPsi_W")))
        assert verdicts[0].tag == QuadTag.W0KPSI_W
        assert verdicts[0].cuts == (1,)
        assert len(verdicts) == 4
        assert label.count(";") == 3

    def test_degenerate_all_choices(self):
        verdicts, label = classify4_all(PureState(np.eye(16)[3]))
        assert all(v.is_degenerate for v in verdicts)
        assert label == ";".join(["Degenerate"] * 4)

    def test_canonical_label_renames_cuts(self):
        state = make_canonical(FamilySpec("W0iPsi_0jPsi"))
        _, label = classify4_all(state)
        assert "W0iPsi_0jPsi(1,2)" in label


#: SLOCC images of canonical families that were once misclassified: a
#: multiple quartic root read as four simple W roots (the first two), and
#: one common clause root read as two points (the third).  Amplitudes are
#: perfbench's families-all inputs, as (seed, input index).
REGRESSIONS = {
    (305, 501): (3, "W000_GHZ", [
        complex(0.45823066301585225, -0.7433976113414045),
        complex(0.14147252620628425, 0.8401009471740987),
        complex(0.4924321853488412, -0.4358083319784233),
        complex(0.4589256307412722, 0.37613237655244525),
        complex(1.053817369960127, -0.3548712917013115),
        complex(-0.5453412841656899, 0.9377330623367083),
        complex(0.4008650689036136, 0.5506867203544935),
        complex(0.0891812984658958, 0.039250148380680014),
        complex(-0.7663385065337799, 1.1280973331749895),
        complex(-0.1625821344068111, -1.320459272182422),
        complex(-1.5609110131796768, 1.1427849220090205),
        complex(-0.454169734216366, -1.4738966622285437),
        complex(-1.6744911865577274, 0.47876762482465524),
        complex(0.9212356339026018, -1.4275733916383062),
        complex(-0.05351239744785465, -0.6982835273543926),
        complex(-0.650630732094792, 0.1363700634779039),
    ]),
    (2008, 1736): (1, "W0Psi_GHZ(1)", [
        complex(0.18654786830092218, 0.8747034340488394),
        complex(-0.2485893094161879, 1.2549709009455277),
        complex(-0.03522955550363222, 0.20894609221725585),
        complex(-0.40263689939317016, -0.17543234360565574),
        complex(1.1091998061817108, 0.08586261717575533),
        complex(1.4088512544640246, 0.7380078031116841),
        complex(0.23696808831363164, 0.11610930117598377),
        complex(-0.3522052353806969, 0.41936545923621144),
        complex(-2.0094860753946238, 0.5820741999788164),
        complex(-1.4972528358039023, -1.9778144831489863),
        complex(0.3687819034614921, -0.9283722842850743),
        complex(0.7913327907300713, -0.4280599622222748),
        complex(0.35991685164085746, 2.9957483747906672),
        complex(-2.9657324769974225, 2.3586923694945976),
        complex(-0.7614538782632067, -0.8299343467725323),
        complex(0.22217625051654064, -0.821989055280665),
    ]),
    (2009, 2497): (4, "W0kPsi_W(3)", [
        complex(8.441128623773494, -16.326904828999712),
        complex(-25.392627572724095, 11.452475237028562),
        complex(15.274505080847996, 4.335857127043141),
        complex(-14.327134338167374, -18.702862160373954),
        complex(-28.25871335011458, 8.058007673720297),
        complex(41.15407761521039, 17.02052085886318),
        complex(-11.685234713328194, -22.53578694647487),
        complex(-6.081625286254853, 37.17239033285853),
        complex(2.4887959079602497, 5.204456318172786),
        complex(4.536813462398283, -6.624089553315709),
        complex(-3.3924122156145953, 2.617127864146512),
        complex(5.823785492987442, 2.3478427163552755),
        complex(4.012140501554099, -7.656948080366161),
        complex(-12.598092278126813, 0.21659725417629644),
        complex(6.083169610815338, 1.8188999072198881),
        complex(-2.1831473725138943, -9.621905845408373),
    ]),
}


@pytest.mark.parametrize("case", sorted(REGRESSIONS), ids="seed{0[0]}-input{0[1]}".format)
def test_families_all_regressions(case):
    qubit, label, amps = REGRESSIONS[case]
    assert classify4(PureState(amps), qubit).label() == label


@pytest.mark.parametrize("distinguished", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1e-2, 1e-4, 1e-6, 1e-8])
def test_near_separable_states_fail_as_borderline(d, distinguished):
    # the distinguished qubit in a product up to d: between about 1e-4 and
    # 1e-8 the rank screen keeps the state (sigma2/sigma1 > eps) while its
    # pencil is 1-dimensional within eps ((sigma2/sigma1)^2 <= eps), and near
    # 1e-4 the pencil is too badly conditioned to place every quartic root
    # off the GHZ set; both are borderline inputs, never internal
    # contradictions
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, psi, b = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in (2, 8, 16))
        product = np.moveaxis(np.multiply.outer(a, psi.reshape(2, 2, 2)), 0, distinguished - 1)
        state = PureState(product.reshape(16) + d * b)
        try:
            classify4(state, distinguished)
        except (AmbiguousClassification, GenericTypeUnstable):
            pass


def test_float_mode_refuses_eps_below_the_rank_floor():
    # below 1e-12 the rounding of the rank screen's minors hides a rank of
    # 1, and float classify4 would misclassify such images silently
    rng = np.random.default_rng(11)
    for tag in FAMILY_TAGS:
        base = make_canonical(FamilySpec(tag))
        for _ in range(20):
            img = apply_slocc(base, random_slocc(4, 1e3, rng))
            verdict = classify4(img, eps=1e-12)
            assert (verdict.tag.value, verdict.cuts) == (tag, FAMILY_CUTS.get(tag, ()))
            with pytest.raises(Slocc4Error, match="1e-12"):
                classify4(img, eps=1e-13)
    with pytest.raises(Slocc4Error, match="1e-12"):
        classify4_all(img, eps=1e-13)


def test_no_verdict_with_a_simple_root_that_is_not_w():
    # condition-1e3 images of W0Psi_GHZ plus 1e-4 N(0, 1) noise, at eps 1e-3:
    # the double Bisep(1) root of the pencil quartic splits into simple roots
    # that still classify Bisep(1) at that eps.  A simple root of a
    # GHZ-generic pencil is W, so those states raise (149 of 300 returned
    # W0Psi_GHZ(1) before); no verdict keeps such a root
    base = make_canonical(FamilySpec("W0Psi_GHZ"))
    rng = np.random.default_rng(7)
    raised = 0
    for _ in range(300):
        img = apply_slocc(base, random_slocc(4, 1e3, rng)).amps
        img = img + 1e-4 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        try:
            verdict = classify4(PureState(img), 1, eps=1e-3)
        except AmbiguousClassification as exc:
            raised += "multiplicity 1 classifies as Bisep(1)" in str(exc)
            continue
        except GenericTypeUnstable:
            continue
        assert all(cls is TriClass.W for pt, cls in verdict.profile.exceptional if pt.multiplicity == 1)
    assert raised >= 100
