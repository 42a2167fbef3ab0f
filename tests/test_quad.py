import zlib

import numpy as np
import pytest

from slocc4 import (
    DimensionMismatch,
    InternalContradiction,
    PureState,
    QuadTag,
    TriClass,
    ZeroState,
    apply_slocc,
    classify4,
    classify4_all,
    permute_qubits,
)
from slocc4.canonical import FamilySpec, make_canonical, random_slocc
from slocc4.pencil import ProjectivePoint, SpanProfile
from slocc4.quad import _decide

from conftest import FAMILY_TAGS


def _profile(generic, points, identically_zero=None):
    if identically_zero is None:
        identically_zero = generic == TriClass.W
    exceptional = tuple(
        (ProjectivePoint(1, i + 1), cls) for i, cls in enumerate(points)
    )
    return SpanProfile(
        quartic_identically_zero=identically_zero,
        generic_type=generic,
        exceptional=exceptional,
        contains_000=TriClass.SEP000 in points,
        bisep_cuts=tuple(sorted(c.cut for c in points if c.cut)),
        w_points=TriClass.W in points,
        ghz_generic=generic == TriClass.GHZ,
    )


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
        p = _profile(TriClass.BISEP1, [], identically_zero=True)
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
