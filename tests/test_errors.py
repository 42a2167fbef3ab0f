"""Every failure of a public entry point surfaces as a Slocc4Error.

Inputs are finite but mix magnitudes from subnormal to the edge of the
float range inside one state, including amplitudes whose magnitude
overflows although both parts are finite (|1.5e308 + 1.5e308 i|).
"""

import contextlib
import io
import json
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slocc4 import (
    AmbiguousClassification,
    DimensionMismatch,
    ProjectivePoint,
    PureState,
    Slocc4Error,
    SpanProfile,
    StateFormatError,
    TriClass,
    analyze_span,
    bipartition_ranks,
    classify3,
    classify4,
    classify4_all,
    clause_quadratics,
    decompose,
    ghz_invariant,
    quartic,
    quartic_roots,
    span_dimension,
    w_clauses,
)
from slocc4 import cli, quad
from slocc4.canonical import FamilySpec, canonical_pencil, random_slocc
from slocc4.cli import main
from slocc4.qstate import cut_matrix

from conftest import GHZ3, W3

_PARTS = st.one_of(
    st.floats(-1.7e308, 1.7e308),
    st.sampled_from((0.0, 1.0, -1.0, 1.5e308, -1.5e308, 1e-320)),
)
_STATES = st.lists(st.builds(complex, _PARTS, _PARTS), min_size=16, max_size=16)
_OVERFLOWING = [complex(1.5e308, 1.5e308)] + [1.0 + 0j] * 15


def _calls(amps):
    p0, p1 = amps[:8], amps[8:]
    yield lambda: classify3(p0)
    yield lambda: classify3(p0, exact=True)
    yield lambda: w_clauses(p0)
    yield lambda: w_clauses(p0, exact=True)
    yield lambda: ghz_invariant(p0)
    yield lambda: classify4(amps)
    yield lambda: classify4(amps, 2, exact=True)
    yield lambda: classify4_all(amps)
    yield lambda: dict(bipartition_ranks(PureState(amps)))
    yield lambda: span_dimension(decompose(PureState(amps), 1))
    yield lambda: analyze_span(p0, p1)
    yield lambda: analyze_span(p0, p1, exact=True)
    yield lambda: quartic(p0, p1).identically_zero()
    yield lambda: quartic_roots(quartic(p0, p1))
    yield lambda: [f.identically_zero() for pair in clause_quadratics(p0, p1) for f in pair]


@settings(max_examples=60, derandomize=True, deadline=None)
@example(amps=_OVERFLOWING)
@given(amps=_STATES)
def test_entry_points_return_or_raise_slocc4_error(amps, tmp_path_factory):
    for call in _calls(amps):
        try:
            call()
        except Slocc4Error:
            pass
    directory = tmp_path_factory.mktemp("states")
    for n in (3, 4):
        path = directory / f"state{n}.json"
        path.write_text(json.dumps({"n": n, "amps": [[z.real, z.imag] for z in amps[: 2**n]]}))
        for argv in (["classify", str(path)], ["explain", str(path), "--exact"],
                     ["classify", str(path), "--distinguished", "all", "--exact"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), argv
            assert err.getvalue().count("\n") == (code == 1), (argv, err.getvalue())
            assert "Traceback" not in err.getvalue()
            assert out.getvalue() == "" if code == 1 else json.loads(out.getvalue())


_WGHZ_W = PureState(list(GHZ3) + list(W3))
_EPS_CALLS = {
    "classify3": lambda eps: classify3(GHZ3, eps),
    "classify3 exact": lambda eps: classify3(GHZ3, eps, exact=True),
    "w_clauses": lambda eps: w_clauses(GHZ3, eps),
    "w_clauses exact": lambda eps: w_clauses(GHZ3, eps, exact=True),
    "classify4": lambda eps: classify4(_WGHZ_W, 1, eps),
    "classify4 exact": lambda eps: classify4(_WGHZ_W, 1, eps, exact=True),
    "classify4_all": lambda eps: classify4_all(_WGHZ_W, eps),
    "analyze_span": lambda eps: analyze_span(GHZ3, W3, eps),
    "analyze_span exact": lambda eps: analyze_span(GHZ3, W3, eps, exact=True),
    "bipartition_ranks": lambda eps: bipartition_ranks(_WGHZ_W, eps),
}


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, 1.0, 1.5, -1e-9])
@pytest.mark.parametrize("call", sorted(_EPS_CALLS))
def test_eps_outside_unit_interval_raises(call, eps):
    with pytest.raises(Slocc4Error, match=r"eps must be a finite number in \(0, 1\)"):
        _EPS_CALLS[call](eps)


def _classify4_with_a_ghz_root():
    # a pencil quartic root that classifies as GHZ: its element is within
    # rounding of a GHZ-class one, which a well-conditioned pencil never gives
    profile = SpanProfile(TriClass.GHZ, ((ProjectivePoint(1, 0), TriClass.GHZ),))
    with mock.patch.object(quad, "analyze_span", lambda *args, **kwargs: profile):
        classify4(_WGHZ_W)


def _classify_a_one_qubit_state():
    args = cli._build_parser().parse_args(["classify", "-"])
    with mock.patch("sys.stdin", io.StringIO(json.dumps({"n": 1, "amps": [[1, 0], [0, 0]]}))):
        cli._cmd_classify(args)


#: (entry point and input, exception class, message) of raises no other
#: test reaches.
_RAISES = {
    "classify4 GHZ root": (_classify4_with_a_ghz_root, AmbiguousClassification,
                           "a root of the pencil quartic of multiplicity 1 classifies as GHZ: the "
                           "pencil is too badly conditioned to place it"),
    "canonical_pencil unknown family": (lambda: canonical_pencil(FamilySpec("W000")), Slocc4Error,
                                        "unknown 4-qubit family 'W000'"),
    "random_slocc max_condition < 1": (lambda: random_slocc(4, 0.5), Slocc4Error,
                                       "max_condition must be finite and >= 1"),
    "random_slocc max_condition nan": (lambda: random_slocc(2, math.nan), Slocc4Error,
                                       "max_condition must be finite and >= 1"),
    "random_slocc max_condition inf": (lambda: random_slocc(2, math.inf), Slocc4Error,
                                       "max_condition must be finite and >= 1"),
    "random_slocc 0 qubits": (lambda: random_slocc(0), DimensionMismatch,
                              "random_slocc needs 1 to 4 qubits, got n=0"),
    "decompose qubit 5": (lambda: decompose(_WGHZ_W, 5), DimensionMismatch,
                          "distinguished qubit 5 out of range 1..4"),
    "decompose qubit 1.5": (lambda: decompose(_WGHZ_W, 1.5), DimensionMismatch,
                            "distinguished qubit 1.5 out of range 1..4"),
    "classify4 qubit 1.5": (lambda: classify4(_WGHZ_W, 1.5), DimensionMismatch,
                            "distinguished qubit 1.5 out of 1..4"),
    "cut_matrix 3 qubits": (lambda: cut_matrix(PureState(GHZ3), (1, 2)), DimensionMismatch,
                            "bipartition cuts are defined for 4-qubit states"),
    "analyze_span 2-qubit vector": (lambda: analyze_span(PureState([1, 0, 0, 1]), W3), DimensionMismatch,
                                    "expected a 3-qubit state, got n=2"),
    "analyze_span 7 amplitudes": (lambda: analyze_span(GHZ3, list(W3)[:7]), DimensionMismatch,
                                  "amplitude vector of length 7 is not a 1..4 qubit state"),
    "cli classify 1 qubit": (_classify_a_one_qubit_state, Slocc4Error,
                             "classification needs 2, 3 or 4 qubits"),
}


@pytest.mark.parametrize("entry", sorted(_RAISES))
def test_raise_table(entry):
    call, error, message = _RAISES[entry]
    with pytest.raises(Slocc4Error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


#: Each entry point that takes raw amplitudes, in float and exact mode where
#: it has both, called on a 3- or 4-qubit amplitude list.
_RAW_CALLS = {
    "classify3": (3, lambda a: classify3(a)),
    "classify3 exact": (3, lambda a: classify3(a, exact=True)),
    "w_clauses": (3, lambda a: w_clauses(a)),
    "w_clauses exact": (3, lambda a: w_clauses(a, exact=True)),
    "ghz_invariant": (3, lambda a: ghz_invariant(a)),
    "analyze_span phi0": (3, lambda a: analyze_span(a, W3)),
    "analyze_span phi1": (3, lambda a: analyze_span(GHZ3, a)),
    "analyze_span exact": (3, lambda a: analyze_span(a, W3, exact=True)),
    "quartic": (3, lambda a: quartic(GHZ3, a)),
    "clause_quadratics": (3, lambda a: clause_quadratics(a, W3)),
    "classify4": (4, lambda a: classify4(a)),
    "classify4 exact": (4, lambda a: classify4(a, exact=True)),
    "classify4_all": (4, lambda a: classify4_all(a)),
    "classify4_all exact": (4, lambda a: classify4_all(a, exact=True)),
    "bipartition_ranks": (4, lambda a: bipartition_ranks(a)),
}


@pytest.mark.parametrize("position, value", [(0, math.nan), (-1, math.nan), (3, math.inf),
                                             (5, complex(0, math.inf))],
                         ids=["nan first", "nan last", "inf", "inf j"])
@pytest.mark.parametrize("call", sorted(_RAW_CALLS))
def test_non_finite_raw_amplitudes_raise_state_format_error(call, position, value):
    n, entry = _RAW_CALLS[call]
    amps = list(W3 if n == 3 else _WGHZ_W.values)
    amps[position] = value
    with pytest.raises(Slocc4Error) as info:
        entry(amps)
    assert (type(info.value), str(info.value)) == (StateFormatError, "amplitudes must be finite")


def test_state_and_raw_amplitudes_agree():
    for amps in (W3, GHZ3, [0, 1, 1, 0, 1, 0, 0, 1e-3j]):
        assert w_clauses(PureState(amps)) == w_clauses(amps)
        assert w_clauses(PureState(amps), exact=True) == w_clauses(amps, exact=True)
        assert ghz_invariant(PureState(amps)) == ghz_invariant(amps)
    for amps in (_WGHZ_W.values, [2.0**-300] + [0] * 14 + [2.0**-300]):
        from_state, from_raw = bipartition_ranks(PureState(amps)), bipartition_ranks(list(amps))
        assert dict(from_state) == dict(from_raw)
        assert from_state.state.values == from_raw.state.values
