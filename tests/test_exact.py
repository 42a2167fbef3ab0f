from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slocc4 import (
    PureState,
    Slocc4Error,
    TriClass,
    classify3,
    classify4,
    clause_quadratics,
    quartic,
)
from slocc4.canonical import FAMILY_CUTS, FamilySpec, make_canonical, okpsi_w_phi0
from slocc4.exact import (
    GR_ONE,
    GaussianRational,
    clause_quadratics_exact,
    exact_rank,
    lift,
    quartic_exact,
    snap_complex,
)
from slocc4.kernels import clauses, ghz, resultant
from slocc4.qstate import _cut_minors

from conftest import FAMILY_TAGS, GHZ3, W3


gr = GaussianRational


def value(g):
    """The value of a Gaussian dyadic number as a pair of Fractions: the
    reference that the integer arithmetic is checked against."""
    scale = Fraction(2) ** g.e
    return (g.re * scale, g.im * scale)


def test_gaussian_rational_arithmetic():
    a = gr(1, 2)
    b = gr(3, -1)
    assert a + b == gr(4, 1)
    assert a - b == gr(-2, 3)
    assert a * b == gr(5, 5)  # (1+2i)(3-i) = 3 - i + 6i + 2 = 5 + 5i
    assert 2 * a == gr(2, 4)
    assert gr(1, 2, 1) == gr(4, 8, -1)  # by value, whatever the exponent
    assert not gr(0)
    assert GR_ONE


dyadics = st.builds(gr, st.integers(-2**70, 2**70), st.integers(-2**70, 2**70), st.integers(-1150, 80))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(a=dyadics, b=dyadics, k=st.integers(0, 8))
def test_gaussian_dyadic_matches_fraction_reference(a, b, k):
    (ar, ai), (br, bi) = value(a), value(b)
    assert value(a + b) == (ar + br, ai + bi)
    assert value(a - b) == (ar - br, ai - bi)
    assert value(a * b) == (ar * br - ai * bi, ar * bi + ai * br)
    assert value(3 * a) == (3 * ar, 3 * ai)
    assert (a == b) == ((ar, ai) == (br, bi))
    assert a == gr(a.re << k, a.im << k, a.e - k)
    assert bool(a) == ((ar, ai) != (0, 0))
    # each part rounded correctly, subnormal results included
    assert complex(a) == complex(float(ar), float(ai))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(z=st.complex_numbers(allow_nan=False, allow_infinity=False))
def test_lift_round_trip(z):
    # every finite float is a dyadic rational
    g = GaussianRational.from_complex(z)
    assert value(g) == (Fraction(z.real), Fraction(z.imag))
    assert complex(g) == z


def test_lift_is_exact_for_floats():
    g = GaussianRational.from_complex(0.1 + 0.3j)
    assert value(g)[0] == Fraction(0.1)  # exact binary value, not 1/10
    assert value(g)[0] != Fraction(1, 10)


def test_exact_invariant_on_ghz():
    val = ghz(*lift(GHZ3))
    assert val == GR_ONE
    assert ghz(*lift(W3)).is_zero


def test_exact_clause_quantities():
    q = clauses(*lift(W3))
    assert q[0] == gr(-1)
    assert q[2] == gr(1)
    assert q[5] == gr(1)
    assert q[1].is_zero and q[3].is_zero and q[4].is_zero


def test_classify3_exact_matches_float():
    for amps in (GHZ3, W3, np.eye(8)[0], okpsi_w_phi0(2 + 3j)):
        state = PureState(amps)
        assert classify3(state, exact=True) == classify3(state)


def test_classify3_exact_borderline_resolves_ambiguity():
    # exactly two clauses fire under the float tolerance (an impossible
    # pattern, reported as ambiguous); exact arithmetic sees the invariant
    # as the genuinely nonzero value (1e-5)^2 and resolves the state to GHZ
    amps = np.array([1, 1, 1, 0, 1e-12, 1e-5, 0, 0], dtype=complex)
    with pytest.raises(Exception):
        classify3(PureState(amps))
    assert classify3(PureState(amps), exact=True) == TriClass.GHZ


def test_quartic_exact_y4_coefficient():
    rng = np.random.default_rng(9)
    phi0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    coeffs = quartic_exact(lift(phi0), lift(GHZ3))
    assert coeffs[4] == GR_ONE  # exactly, independent of phi0


def test_quartic_exact_identically_zero_for_lambda_family():
    for lam in (0, 1, -1, 1j, 2 + 3j):
        coeffs = quartic_exact(lift(okpsi_w_phi0(lam)), lift(W3))
        assert all(c.is_zero for c in coeffs)


def test_exact_forms_equal_float_forms_on_small_integers():
    # float arithmetic is exact on small Gaussian integers, so the exact
    # compositions must reproduce the float coefficients bit for bit
    rng = np.random.default_rng(5)
    for _ in range(20):
        phi0, phi1 = rng.integers(-5, 6, (2, 8)) + 1j * rng.integers(-5, 6, (2, 8))
        exact_q = quartic_exact(lift(phi0), lift(phi1))
        assert list(map(complex, exact_q)) == list(quartic(phi0, phi1).c)
        exact_forms = clause_quadratics_exact(lift(phi0), lift(phi1))
        forms = [f for pair in clause_quadratics(phi0, phi1) for f in pair]
        for exact_f, f in zip(exact_forms, forms):
            assert list(map(complex, exact_f)) == list(f.c)


def test_resultant_exact():
    # x^2 and y^2 share no root; x^2 and x^2 share both
    f = (gr(1), gr(0), gr(0))
    g = (gr(0), gr(0), gr(1))
    assert resultant(f, g) == gr(1)
    assert resultant(f, f).is_zero


def _rank(rows):
    """exact_rank of a matrix given as a list of rows."""
    width = len(rows[0])
    index = tuple(tuple(range(r * width, (r + 1) * width)) for r in range(len(rows)))
    return exact_rank([x for row in rows for x in row], _cut_minors(index))


def test_exact_rank():
    assert _rank([[gr(1), gr(2)], [gr(2), gr(4)]]) == 1
    assert _rank([[gr(1), gr(0)], [gr(0, 1), gr(1)]]) == 2
    assert _rank([[gr(0), gr(0)]]) == 0
    # rank 3, capped at 2: the last row is the sum of the first two
    top = [[gr(1, 2), gr(3), gr(0), gr(-1, 1, -4)],
           [gr(2), gr(0, 1), gr(5, 0, 3), gr(1)],
           [gr(0), gr(7), gr(1, 1), gr(3, -2)]]
    assert _rank(top + [[a + b for a, b in zip(top[0], top[1])]]) == 2
    # a 2x8 outer product of Gaussian dyadics has rank 1
    u = [gr(3, 1, -2), gr(-1, 5)]
    v = [gr(k, 2 - k, k - 4) for k in range(8)]
    assert _rank([[a * b for b in v] for a in u]) == 1


def test_snap_complex():
    # 1/3 - i/4 as (4 - 3i : 12)
    num, den = snap_complex(complex(1 / 3, -0.25))
    assert (num.re, num.im, num.e) == (4, -3, 0)
    assert (den.re, den.im, den.e) == (12, 0, 0)


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_classify4_exact_matches_numeric(tag):
    state = make_canonical(FamilySpec(tag))
    numeric = classify4(state)
    exact = classify4(state, exact=True)
    assert exact.tag == numeric.tag
    assert exact.cuts == numeric.cuts


def test_classify4_exact_on_irrational_family_member():
    # sqrt(a3 a5) is irrational here, so the float amplitudes are only
    # approximately on the family; exact mode must fall back to numeric
    # semantics rather than classifying the rounding noise
    spec = FamilySpec("WW_W", {"mu": 1j, "a3": 2, "a5": 1 + 1j}, sign=-1)
    state = make_canonical(spec)
    numeric = classify4(state)
    exact = classify4(state, exact=True)
    assert numeric.tag.value == "WW_W"
    assert exact.tag == numeric.tag

    spec = FamilySpec("W0kPsi_W", {"lambda": 0.1 + 0.7j})
    state = make_canonical(spec)
    assert classify4(state, exact=True).tag == classify4(state).tag


def test_degenerate_screen_exact_on_rounded_product():
    # a SLOCC image of a product state is product only up to rounding, so
    # its exact lift has full cut rank at noise level; the numeric screen
    # must still reject it in exact mode
    from slocc4 import apply_slocc
    from slocc4.canonical import random_slocc

    base = PureState(np.kron([1.0, 0.0], np.array(GHZ3)))
    img = apply_slocc(base, random_slocc(4, 1e3, seed=8))
    numeric = classify4(img)
    exact = classify4(img, exact=True)
    assert numeric.is_degenerate and exact.is_degenerate
    assert "qubit 1 separable" in exact.detail


def _dyadic(rng, size):
    """Integers in [0, 2^20) times 2^-20: exact floats whose products of
    two are exact too, but whose 2x2 minors round."""
    return rng.integers(0, 2**20, size) * 2.0**-20


def test_exact_screen_certifies_pair_products():
    # at eps = 1e-17 the float screen cannot see a rank of 1 through the
    # rounding of the minors, and float classify4 refuses that eps; the
    # exact minors all vanish
    rng = np.random.default_rng(3)
    floats = []
    for _ in range(50):
        state = np.kron(_dyadic(rng, 4), _dyadic(rng, 4))
        verdict = classify4(state, eps=1e-17, exact=True)
        assert (verdict.tag.value, verdict.detail) == ("Degenerate", "pair (1, 2) separable from (3, 4)")
        try:
            floats.append(classify4(state, eps=1e-17).is_degenerate)
        except Slocc4Error:
            floats.append(False)
    assert floats.count(False) == 50


def test_exact_screen_certifies_single_qubit_products():
    # qubit 3 of a complex 2 x 8 product in Gaussian dyadics
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = _dyadic(rng, 2) + 1j * _dyadic(rng, 2)
        b = _dyadic(rng, 8) + 1j * _dyadic(rng, 8)
        state = np.moveaxis(np.multiply.outer(a, b.reshape(2, 2, 2)), 0, 2).reshape(16)
        verdict = classify4(state, eps=1e-17, exact=True)
        assert (verdict.tag.value, verdict.detail) == ("Degenerate", "qubit 3 separable; remainder GHZ")


# Gaussian-integer SLOCC images on which fixed rational probe points of the
# generic type used to land on rational exceptional points, so exact mode
# raised GenericTypeUnstable while float mode was right.
PROBE_COINCIDENCES = [
    ("W000_0Psi", (), [
        -10 - 18j, 6 + 10j, -42 - 6j, 22 - 2j, -16 + 28j, 4 - 8j, -6 + 42j, 2 - 18j,
        12 - 12j, 4 + 4j, 6 + 8j, -4 - 10j, 24 - 12j, -4, 38 - 16j, -20 + 6j,
    ]),
    ("W0kPsi_W", (1,), [
        -28j, 28 - 10j, 19 + 25j, 3 + 5j, 22 - 10j, 23 + 15j, -2 + 29j, -1 + 6j,
        -40 + 8j, -12 - 20j, 12, 0, -18 - 34j, 7 - 13j, -10 + 1j, -2 - 3j,
    ]),
    ("W000_W", (), [
        -29 - 5j, -36 + 27j, -5 - 1j, -18 + 1j, 3 - 23j, -27 - 26j, -1 - 7j, -5 - 20j,
        9 - 1j, 23 - 36j, 21 + 7j, 45 + 10j, 9 + 5j, 46 + 13j, -7 + 25j, -8 + 51j,
    ]),
]


@pytest.mark.parametrize("tag, cuts, amps", PROBE_COINCIDENCES, ids=[c[0] for c in PROBE_COINCIDENCES])
def test_exact_generic_type_needs_no_probe_points(tag, cuts, amps):
    state = PureState(np.array(amps, dtype=complex))
    exact = classify4(state, exact=True)
    numeric = classify4(state)
    assert (exact.tag.value, exact.cuts) == (tag, cuts)
    assert (numeric.tag, numeric.cuts) == (exact.tag, exact.cuts)


def _gaussian_integer_op(rng):
    while True:
        m = rng.integers(-2, 3, size=(2, 2)) + 1j * rng.integers(-2, 3, size=(2, 2))
        if m[0, 0] * m[1, 1] != m[0, 1] * m[1, 0]:
            return m


@settings(max_examples=100, derandomize=True, deadline=None)
@given(tag=st.sampled_from(FAMILY_TAGS), seed=st.integers(0, 2**32 - 1))
def test_exact_agrees_with_float_on_dyadic_images(tag, seed):
    # Gaussian-integer local operators keep every amplitude exactly
    # representable, so exact mode decides the same identities that float
    # mode approximates
    rng = np.random.default_rng(seed)
    mats = [_gaussian_integer_op(rng) for _ in range(4)]
    base = make_canonical(FamilySpec(tag)).amps.reshape(2, 2, 2, 2)
    state = PureState(np.einsum("ai,bj,ck,dl,ijkl->abcd", *mats, base).reshape(16))
    exact = classify4(state, exact=True)
    numeric = classify4(state)
    assert (exact.tag, exact.cuts) == (numeric.tag, numeric.cuts)
    assert (exact.tag.value, exact.cuts) == (tag, FAMILY_CUTS.get(tag, ()))
