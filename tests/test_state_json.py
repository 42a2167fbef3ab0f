"""The state JSON format: exact round trips, and every malformed document
is a StateFormatError that the CLI reports in one line with exit code 1."""

import contextlib
import io
import json
import sys
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from slocc4 import PureState, StateFormatError, load_state, state_from_json, state_to_json
from slocc4.cli import main

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def states(draw):
    n = draw(st.integers(1, 4))
    parts = draw(st.lists(finite, min_size=2**n + 1, max_size=2**n + 1))
    return PureState(np.array(parts[:-1]) + 1j * np.array(parts[1:]))


def _bits(amps):
    return np.ascontiguousarray(amps).view(np.uint64).tolist()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(states())
def test_round_trip_is_bit_exact(state):
    doc = state_to_json(state)
    assert _bits(state_from_json(doc).amps) == _bits(state.amps)
    assert _bits(load_state(io.StringIO(json.dumps(doc))).amps) == _bits(state.amps)


def _document(n, amps, **fields):
    return json.dumps({"n": n, "amps": amps, **fields})


pair = st.tuples(finite, finite).map(list)
not_a_number = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3), st.lists(st.integers(), min_size=3, max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
bad_n = st.one_of(
    st.integers().filter(lambda n: not 1 <= n <= 4), st.booleans(), st.none(),
    st.floats(), st.text(max_size=3),
)


@st.composite
def malformed(draw):
    """A state document that must be refused, as JSON text."""
    n = draw(st.integers(1, 4))
    amps = draw(st.lists(pair, min_size=2**n, max_size=2**n))
    i = draw(st.integers(0, 2**n - 1))
    kind = draw(st.sampled_from(["n", "length", "entry", "part", "token", "huge", "shape"]))
    if kind == "n":
        return json.dumps({"n": draw(bad_n), "amps": amps})
    if kind == "length":
        size = draw(st.integers(0, 20).filter(lambda k: k != 2**n))
        return _document(n, draw(st.lists(pair, min_size=size, max_size=size)))
    if kind == "entry":
        wrong_length = st.lists(finite, max_size=3).filter(lambda e: len(e) != 2)
        amps[i] = draw(st.one_of(not_a_number, wrong_length))
        return _document(n, amps)
    if kind == "part":
        amps[i][draw(st.integers(0, 1))] = draw(not_a_number)
        return _document(n, amps)
    if kind == "token":
        amps[i][draw(st.integers(0, 1))] = "@"
        token = draw(st.sampled_from(["NaN", "Infinity", "-Infinity"]))
        return _document(n, amps).replace('"@"', token)
    if kind == "huge":
        amps[i][draw(st.integers(0, 1))] = draw(st.sampled_from([1, -1])) * draw(
            st.integers(2**1024, 10**400)
        )
        return _document(n, amps)
    top = st.one_of(st.lists(st.integers(), max_size=2), st.none(), st.text(max_size=3))
    return json.dumps(draw(top))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(malformed())
def test_malformed_documents_are_state_format_errors(text):
    try:
        load_state(io.StringIO(text))
    except StateFormatError:
        pass
    else:
        raise AssertionError(f"accepted {text!r}")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["classify", "-"])
    assert code == 1
    assert out.getvalue() == ""
    assert err.getvalue().startswith("slocc4: ") and err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()
