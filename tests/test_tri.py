import zlib

import numpy as np
import pytest

from slocc4 import (
    AmbiguousClassification,
    DimensionMismatch,
    PureState,
    TriClass,
    apply_slocc,
    classify3,
    ghz_invariant,
    w_clauses,
)
from slocc4.canonical import random_slocc
from slocc4.tri import classify3_batch

from conftest import GHZ3, W3, random_image, tri_canonical

WW_GENERATOR = np.array([0, 0, 0, 1, 0, 1, 4, 0], dtype=np.complex128)


def test_ghz_invariant_values():
    assert ghz_invariant(GHZ3) == 1
    assert ghz_invariant(W3) == 0
    assert ghz_invariant(WW_GENERATOR) == 0
    assert ghz_invariant(np.zeros(8)) == 0


def test_ghz_invariant_shape_check():
    with pytest.raises(DimensionMismatch):
        ghz_invariant([1, 0, 0, 0])


def test_w_clauses_w_state():
    report = w_clauses(W3)
    assert report.clause_truth == (True, True, True)
    assert report.ghz_value == 0
    # a0a3 - a1a2 = -1, a1a4 - a0a5 = 1, a2a4 - a0a6 = 1
    assert report.quantities[0] == -1
    assert report.quantities[2] == 1
    assert report.quantities[5] == 1


def test_w_clauses_product_state():
    report = w_clauses(np.eye(8)[0])
    assert report.clause_truth == (False, False, False)


def test_w_clauses_single_clause():
    # |001> + |100>: only a1a4 - a0a5 = 1 is nonzero
    report = w_clauses(np.array([0, 1, 0, 0, 1, 0, 0, 0], dtype=complex))
    assert report.clause_truth == (False, True, False)
    assert report.quantities[2] == 1


@pytest.mark.parametrize(
    "amps, expected",
    [
        ((1, 0, 0, 0, 0, 0, 0, 1), TriClass.GHZ),
        ((0, 1, 1, 0, 1, 0, 0, 0), TriClass.W),
        ((1, 0, 0, 0, 0, 0, 0, 0), TriClass.SEP000),
        ((0, 1, 0, 0, 1, 0, 0, 0), TriClass.BISEP2),
        ((0, 0, 0, 0, 0, 1, 1, 0), TriClass.BISEP1),
        ((0, 0, 1, 0, 1, 0, 0, 0), TriClass.BISEP3),
        ((0, 0, 0, 1, 0, 1, 4, 0), TriClass.W),
    ],
)
def test_classify3_fixed_states(amps, expected):
    assert classify3(PureState(np.array(amps, dtype=complex))) == expected


def test_classify3_zero_state():
    assert classify3(PureState(np.zeros(8))) == TriClass.ZERO


def test_classify3_requires_three_qubits():
    with pytest.raises(DimensionMismatch):
        classify3(PureState([1, 0, 0, 0]))


def test_clause_to_cut_mapping_regression():
    # frozen mapping: clause k true exactly for the state with qubit k in a
    # product next to an entangled pair
    for k in (1, 2, 3):
        state = tri_canonical(f"Bisep{k}")
        report = w_clauses(state.amps)
        assert report.clause_truth == tuple(i == k - 1 for i in range(3))
        assert classify3(state) == TriClass(f"Bisep({k})")
        assert classify3(state).cut == k


def test_ghz_invariant_slocc_covariance():
    rng = np.random.default_rng(3)
    for _ in range(200):
        psi = PureState(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        op = random_slocc(3, 1e3, rng)
        dets = np.prod([o.det for o in op.ops])
        lhs = ghz_invariant(apply_slocc(psi, op).amps)
        rhs = dets**2 * ghz_invariant(psi.amps)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1e-30)


@pytest.mark.parametrize(
    "name, expected",
    [
        ("GHZ", TriClass.GHZ),
        ("W", TriClass.W),
        ("Sep000", TriClass.SEP000),
        ("Bisep1", TriClass.BISEP1),
        ("Bisep2", TriClass.BISEP2),
        ("Bisep3", TriClass.BISEP3),
    ],
)
def test_classify3_slocc_invariance(name, expected):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    base = tri_canonical(name)
    images = np.stack(
        [random_image(base, rng).amps for _ in range(10_000)]
    )
    got = classify3_batch(images)
    assert all(cls == expected for cls in got)


def test_exactly_one_clause_iff_biseparable():
    rng = np.random.default_rng(77)
    for k in (1, 2, 3):
        base = tri_canonical(f"Bisep{k}")
        for _ in range(200):
            img = random_image(base, rng)
            report = w_clauses(img.amps)
            assert report.clause_truth == tuple(i == k - 1 for i in range(3))


def test_ambiguous_two_clauses_raises():
    # engineered borderline: clauses 1 and 2 solidly true, clause 3
    # quantities below threshold, GHZ value below threshold
    amps = np.array([1, 1, 1, 0, 1e-12, 1e-5, 0, 0], dtype=complex)
    with pytest.raises(AmbiguousClassification):
        classify3(PureState(amps))


def test_scale_invariance_of_verdicts():
    for amps in (GHZ3, W3, WW_GENERATOR, np.eye(8)[0]):
        base = classify3(PureState(amps))
        for factor in (1e-6, 1e6):
            assert classify3(PureState(np.asarray(amps) * factor)) == base
