import re

import numpy as np
import pytest

from slocc4 import ConstraintViolation, TriClass, apply_slocc, classify3, classify4
from slocc4.canonical import (
    FAMILY_PENCILS,
    FamilySpec,
    TRI_STATES,
    canonical_pencil,
    make_canonical,
    okpsi_w_phi0,
    random_slocc,
    ww_phi0,
)

from conftest import W3

LAMBDA_GRID = (0, 1, -1, 1j, 2 + 3j)
A_GRID = (1, 2, 1j, 1 + 1j)
MU_GRID = (0, 1, 1j)


def ww_grid():
    for a3 in A_GRID:
        for a5 in A_GRID:
            for sign in (+1, -1):
                for mu in MU_GRID:
                    yield mu, a3, a5, sign


def test_lambda_zero_amplitudes():
    state = make_canonical(FamilySpec("W0kPsi_W", {"lambda": 0}))
    assert sorted(np.nonzero(state.amps)[0]) == [5, 6, 9, 10, 12]
    np.testing.assert_array_equal(state.amps[[5, 6, 9, 10, 12]], np.ones(5))


def test_ww_plus_branch_amplitudes():
    phi0 = ww_phi0(0, 1, 1, +1)
    np.testing.assert_array_equal(phi0, [0, 0, 0, 1, 0, 1, 4, 0])
    state = make_canonical(FamilySpec("WW_W"))
    np.testing.assert_array_equal(state.amps[:8], phi0)
    np.testing.assert_array_equal(state.amps[8:], W3)


def test_ghz4_amplitudes():
    state = make_canonical(FamilySpec("W000_000"))
    expected = np.zeros(16)
    expected[0] = expected[15] = 1
    np.testing.assert_array_equal(state.amps, expected)


@pytest.mark.parametrize("lam", LAMBDA_GRID)
def test_lambda_family_classifies(lam):
    state = make_canonical(FamilySpec("W0kPsi_W", {"lambda": lam}))
    v = classify4(state)
    assert v.tag.value == "W0kPsi_W"
    assert v.cuts == (1,)


def test_ww_family_classifies_over_grid():
    checked = 0
    for mu, a3, a5, sign in ww_grid():
        spec = FamilySpec("WW_W", {"mu": mu, "a3": a3, "a5": a5}, sign=sign)
        try:
            state = make_canonical(spec)
        except ConstraintViolation:
            assert sign == -1 and a3 == a5  # the excluded branch
            continue
        v = classify4(state)
        assert v.tag.value == "WW_W", (mu, a3, a5, sign, v)
        checked += 1
    assert checked == 84


def test_ww_constraint_boundary():
    with pytest.raises(ConstraintViolation, match="2"):
        make_canonical(FamilySpec("WW_W", {"a3": 1, "a5": 1}, sign=-1))
    with pytest.raises(ConstraintViolation, match="a3"):
        make_canonical(FamilySpec("WW_W", {"a3": 0, "a5": 1}))
    with pytest.raises(ConstraintViolation, match="a5"):
        make_canonical(FamilySpec("WW_W", {"a3": 1, "a5": 0}))
    with pytest.raises(ConstraintViolation, match="sign"):
        ww_phi0(0, 1, 1, 2)


def test_tri_states_classify():
    for name, want in [
        ("GHZ", TriClass.GHZ),
        ("W", TriClass.W),
        ("Sep000", TriClass.SEP000),
        ("Bisep1", TriClass.BISEP1),
        ("Bisep2", TriClass.BISEP2),
        ("Bisep3", TriClass.BISEP3),
    ]:
        assert classify3(make_canonical(FamilySpec(name))) == want
    assert set(TRI_STATES) == {"GHZ", "W", "Sep000", "Bisep1", "Bisep2", "Bisep3"}


def test_okpsi_phi0_satisfies_family_conditions():
    for lam in LAMBDA_GRID:
        phi0 = okpsi_w_phi0(lam)
        # product of a single-qubit state with an entangled pair
        assert classify3(np.asarray(phi0)) == TriClass.BISEP1


class TestRandomSlocc:
    def test_unitary_at_condition_one(self):
        op = random_slocc(3, 1.0, seed=5)
        for o in op.ops:
            np.testing.assert_allclose(o.m @ o.m.conj().T, np.eye(2), atol=1e-12)

    def test_deterministic_under_seed(self):
        a = random_slocc(4, 1e3, seed=42)
        b = random_slocc(4, 1e3, seed=42)
        for x, y in zip(a.ops, b.ops):
            np.testing.assert_array_equal(x.m, y.m)

    def test_condition_bound(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4):
            for _ in range(50):
                op = random_slocc(n, 1e3, rng)
                conds = []
                for o in op.ops:
                    sv = np.linalg.svd(o.m, compute_uv=False)
                    assert sv[0] <= np.sqrt(1e3) + 1e-9
                    assert sv[1] >= 1 / np.sqrt(1e3) - 1e-12
                    conds.append(sv[0] / sv[1])
                # the tensor-product operator stays bounded too
                assert np.prod(conds) <= 1e3 * (1 + 1e-9)

    def test_unit_determinant_magnitude(self):
        op = random_slocc(4, 1e3, seed=9)
        for o in op.ops:
            assert abs(abs(o.det) - 1.0) <= 1e-12


@pytest.mark.parametrize("lam", LAMBDA_GRID)
def test_lambda_family_orbit_closure(lam):
    rng = np.random.default_rng(int(abs(lam) * 100) + 3)
    state = make_canonical(FamilySpec("W0kPsi_W", {"lambda": lam}))
    for _ in range(50):
        img = apply_slocc(state, random_slocc(4, 1e3, rng))
        v = classify4(img)
        assert v.tag.value == "W0kPsi_W" and v.cuts == (1,)


def test_ww_family_orbit_closure():
    rng = np.random.default_rng(17)
    for spec in (
        FamilySpec("WW_W"),
        FamilySpec("WW_W", {"mu": 1j, "a3": 2, "a5": 1 + 1j}, sign=-1),
    ):
        state = make_canonical(spec)
        for _ in range(50):
            img = apply_slocc(state, random_slocc(4, 1e3, rng))
            assert classify4(img).tag.value == "WW_W"


@pytest.mark.parametrize("family", ["WW_W", "W0kPsi_W", "WGHZ_W", "GHZ"])
def test_unknown_parameter_name_raises(family):
    spec = FamilySpec(family, {"lamdba": 2})
    message = re.escape(f"family {family} does not take parameters ['lamdba']")
    with pytest.raises(ConstraintViolation, match=message):
        make_canonical(spec)
    if family in FAMILY_PENCILS:
        with pytest.raises(ConstraintViolation, match=message):
            canonical_pencil(spec)


@pytest.mark.parametrize("family", ["W000_000", "W0kPsi_W", "WGHZ_W", "GHZ", "Sep000"])
def test_minus_sign_without_sign_branch_raises(family):
    spec = FamilySpec(family, sign=-1)
    message = re.escape(f"family {family} has no sign branch")
    with pytest.raises(ConstraintViolation, match=message):
        make_canonical(spec)
    if family in FAMILY_PENCILS:
        with pytest.raises(ConstraintViolation, match=message):
            canonical_pencil(spec)
