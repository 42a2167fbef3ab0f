"""Verdicts do not depend on the overall scale of the state.

Every zero and rank decision is homogeneous in the amplitudes, and a
state whose largest magnitude leaves [2^-200, 2^200] is moved back into
that window by an exact power of two, so rescaling by 2^k changes no
verdict as long as the amplitudes stay normal floats.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slocc4 import (
    PureState,
    analyze_span,
    apply_slocc,
    bipartition_ranks,
    classify3,
    classify4_all,
    clause_quadratics,
    decompose,
    permute_qubits,
    quartic,
    span_dimension,
    w_clauses,
)
from slocc4.canonical import TRI_STATES, FamilySpec, make_canonical, random_slocc
from slocc4.errors import Slocc4Error

from conftest import FAMILY_TAGS, GHZ3, W3, random_image, tri_canonical


def _scaled(amps, k):
    return np.ldexp(np.ascontiguousarray(amps).view(np.float64), k).view(np.complex128)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Slocc4Error as exc:
        return type(exc).__name__


def _mantissas(values):
    """Values up to one common power of two: their float mantissas."""
    parts = np.asarray(values, dtype=np.complex128).view(np.float64)
    return np.frexp(parts)[0].tolist()


def _forms_key(phi0, phi1):
    """Vanishing and coefficients (up to a power of two) of the quartic and
    the clause quadratics of a pencil."""
    forms = [quartic(phi0, phi1)]
    forms += [f for pair in clause_quadratics(phi0, phi1) for f in pair]
    return [(f.identically_zero(), _mantissas(f.c)) for f in forms]


def _profile_key(profile):
    if isinstance(profile, str):
        return profile
    return (
        profile.generic_type,
        tuple((pt.x, pt.y, pt.multiplicity, cls) for pt, cls in profile.exceptional),
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    tag=st.sampled_from(FAMILY_TAGS),
    tri=st.sampled_from(sorted(TRI_STATES)),
    seed=st.integers(0, 2**32 - 1),
    perm=st.permutations((1, 2, 3, 4)),
    k=st.integers(-900, 900),
)
def test_pow2_rescaling_changes_no_verdict(tag, tri, seed, perm, k):
    # images have magnitudes within a few decades of 1, so with |k| <= 900
    # every amplitude (rounding residues included) stays a normal float
    rng = np.random.default_rng(seed)
    state = permute_qubits(random_image(make_canonical(FamilySpec(tag)), rng), perm)
    scaled = PureState(_scaled(state.amps, k))
    assert bipartition_ranks(scaled) == bipartition_ranks(state)
    label = _outcome(lambda s: classify4_all(s)[1], state)
    assert _outcome(lambda s: classify4_all(s)[1], scaled) == label

    d = decompose(state, 1)
    assert _outcome(span_dimension, decompose(scaled, 1)) == _outcome(span_dimension, d)
    profile = _outcome(analyze_span, d.phi0.amps, d.phi1.amps)
    scaled_profile = _outcome(analyze_span, _scaled(d.phi0.amps, k), _scaled(d.phi1.amps, k))
    assert _profile_key(scaled_profile) == _profile_key(profile)
    forms = _outcome(_forms_key, d.phi0.amps, d.phi1.amps)
    assert _outcome(_forms_key, _scaled(d.phi0.amps, k), _scaled(d.phi1.amps, k)) == forms

    three = random_image(tri_canonical(tri), rng)
    assert classify3(PureState(_scaled(three.amps, k))) == classify3(three)
    report = w_clauses(_scaled(three.amps, k))
    assert report.clause_truth == w_clauses(three.amps).clause_truth
    assert _mantissas(report.quantities) == _mantissas(w_clauses(three.amps).quantities)


@pytest.mark.parametrize("factor", [1e80, 1e-120, 1e300, 1e-300])
@pytest.mark.parametrize("tag", ["WGHZ_W", "WW_W", "W000_000", "W0kPsi_W"])
def test_extreme_scales_keep_the_label(tag, factor):
    rng = np.random.default_rng(8080)
    state = random_image(make_canonical(FamilySpec(tag)), rng)
    _, want = classify4_all(state)
    assert classify4_all(PureState(state.amps * factor))[1] == want


@pytest.mark.parametrize("factor", [1e80, 1e-120, 1e300, 1e-300])
@pytest.mark.parametrize("name", sorted(TRI_STATES))
def test_extreme_scales_keep_the_three_qubit_class(name, factor):
    state = tri_canonical(name)
    assert classify3(PureState(state.amps * factor)) == classify3(state)


@pytest.mark.parametrize("factor", [1e80, 1e-170])
def test_pencil_helpers_at_extreme_scales(factor):
    q = quartic(GHZ3 * factor, W3 * factor)
    assert not q.identically_zero()
    ref = quartic(GHZ3, W3).c
    np.testing.assert_allclose(q.c / np.abs(q.c).max(), ref / np.abs(ref).max(), atol=1e-15)
    pairs = clause_quadratics(GHZ3 * factor, W3 * factor)
    assert [f.identically_zero() for pair in pairs for f in pair] == [
        f.identically_zero() for pair in clause_quadratics(GHZ3, W3) for f in pair
    ]
    assert w_clauses(W3 * factor).clause_truth == (True, True, True)
    assert classify3(PureState(W3 * factor)).value == "W"
    ghz4 = np.zeros(16, dtype=np.complex128)
    ghz4[[0, 15]] = factor
    assert span_dimension(decompose(PureState(ghz4), 1)) == 2
