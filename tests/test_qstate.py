import io
import json

import numpy as np
import pytest

from slocc4 import (
    DimensionMismatch,
    LocalOperator,
    PureState,
    SingularOperator,
    SloccOp,
    StateFormatError,
    ZeroState,
    apply_slocc,
    bipartition_ranks,
    decompose,
    load_state,
    permute_qubits,
    recompose,
    save_state,
    span_dimension,
    state_from_json,
    state_to_json,
)
from slocc4.canonical import FamilySpec, make_canonical, random_slocc

from conftest import GHZ3, W3


def test_purestate_validation():
    with pytest.raises(DimensionMismatch):
        PureState([1, 0, 0])
    with pytest.raises(DimensionMismatch):
        PureState(np.ones(32))
    with pytest.raises(StateFormatError):
        PureState([np.nan, 0])
    s = PureState([1, 2j])
    assert s.n == 1
    with pytest.raises(ValueError):
        s.amps[0] = 5  # immutable


def test_apply_slocc_identity():
    s = PureState([1, 0, 0, 0, 0, 0, 0, 0])
    out = apply_slocc(s, SloccOp.identity(3))
    np.testing.assert_array_equal(out.amps, s.amps)


def test_apply_slocc_bit_flip():
    out = apply_slocc(PureState([1, 0]), SloccOp(([[0, 1], [1, 0]],)))
    np.testing.assert_array_equal(out.amps, [0, 1])


def test_apply_slocc_diagonal_on_third_qubit():
    # (I x I x diag(1,2)) (|000> + |111>) = |000> + 2|111>
    op = SloccOp((np.eye(2), np.eye(2), np.diag([1.0, 2.0])))
    out = apply_slocc(PureState(GHZ3), op)
    np.testing.assert_allclose(out.amps, [1, 0, 0, 0, 0, 0, 0, 2])


def test_apply_slocc_errors():
    with pytest.raises(DimensionMismatch):
        apply_slocc(PureState([1, 0]), SloccOp.identity(2))
    with pytest.raises(SingularOperator):
        LocalOperator([[1, 1], [1, 1]])
    with pytest.raises(SingularOperator):
        LocalOperator([[1e-200, 0], [0, 1e-200]])


def test_apply_slocc_inverse_roundtrip():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        for _ in range(25):
            psi = PureState(rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n))
            op = random_slocc(n, 1e3, rng)
            back = apply_slocc(apply_slocc(psi, op), op.inverse())
            err = np.linalg.norm(back.amps - psi.amps) / np.linalg.norm(psi.amps)
            assert err <= 1e-10


def test_decompose_ghz4():
    ghz4 = make_canonical(FamilySpec("W000_000"))
    d = decompose(ghz4, 1)
    np.testing.assert_array_equal(d.phi0.amps, [1, 0, 0, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(d.phi1.amps, [0, 0, 0, 0, 0, 0, 0, 1])
    # qubit 3: residual order is qubits 1, 2, 4
    d3 = decompose(ghz4, 3)
    np.testing.assert_array_equal(d3.phi0.amps, [1, 0, 0, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(d3.phi1.amps, [0, 0, 0, 0, 0, 0, 0, 1])


def test_decompose_canonical_lambda0():
    state = make_canonical(FamilySpec("W0kPsi_W", {"lambda": 0}))
    d = decompose(state, 1)
    np.testing.assert_array_equal(d.phi0.amps, [0, 0, 0, 0, 0, 1, 1, 0])
    np.testing.assert_array_equal(d.phi1.amps, W3)


def test_decompose_errors():
    with pytest.raises(DimensionMismatch):
        decompose(PureState([1, 0]), 3)
    with pytest.raises(DimensionMismatch):
        decompose(PureState([1, 0]), 0)


def test_recompose_is_bitwise_roundtrip():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        psi = PureState(rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n))
        for k in range(1, n + 1):
            back = recompose(decompose(psi, k))
            assert np.array_equal(back.amps, psi.amps)  # exact, no arithmetic


def test_span_dimension():
    d = decompose(make_canonical(FamilySpec("W000_000")), 1)
    assert span_dimension(d) == 2

    collinear = PureState(np.concatenate([GHZ3, 2 * GHZ3]))
    assert span_dimension(decompose(collinear, 1)) == 1

    # singular value ratio ~1e-15 is below eps=1e-9
    near = PureState(np.concatenate([W3, W3 + 1e-15 * np.eye(8)[0]]))
    assert span_dimension(decompose(near, 1), eps=1e-9) == 1

    with pytest.raises(ZeroState):
        span_dimension(decompose(PureState(np.zeros(4)), 1))


def test_span_dimension_invariant_under_residual_slocc():
    rng = np.random.default_rng(23)
    state = make_canonical(FamilySpec("W0kPsi_W", {"lambda": 1j}))
    for _ in range(50):
        sub = random_slocc(3, 1e3, rng)
        op = SloccOp((np.eye(2),) + sub.ops)
        before = span_dimension(decompose(state, 1))
        after = span_dimension(decompose(apply_slocc(state, op), 1), eps=1e-8)
        assert before == after == 2


def _brute_rank(amps16, rows_bits, eps=1e-9):
    """Independent rank computation: explicit bit bookkeeping plus SVD."""
    m = np.zeros((2 ** len(rows_bits), 2 ** (4 - len(rows_bits))), dtype=complex)
    cols_bits = [q for q in range(4) if q not in rows_bits]
    for idx in range(16):
        bits = [(idx >> (3 - q)) & 1 for q in range(4)]
        r = sum(bits[q] << (len(rows_bits) - 1 - i) for i, q in enumerate(rows_bits))
        c = sum(bits[q] << (len(cols_bits) - 1 - i) for i, q in enumerate(cols_bits))
        m[r, c] = amps16[idx]
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv > eps * sv[0]))


@pytest.mark.parametrize(
    "amps, expected",
    [
        (np.eye(16)[0], {cut: 1 for cut in ((1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4))}),
        (
            np.eye(16)[0] + np.eye(16)[15],
            {cut: 2 for cut in ((1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4))},
        ),
    ],
)
def test_bipartition_ranks_basic(amps, expected):
    state = PureState(amps)
    ranks = bipartition_ranks(state)
    assert ranks == expected
    for cut, r in ranks.items():
        assert r == _brute_rank(state.amps, [q - 1 for q in cut])


def test_bipartition_ranks_bell_pair_product():
    bell = np.array([1, 0, 0, 1], dtype=complex)
    state = PureState(np.kron(bell, bell))
    ranks = bipartition_ranks(state)
    assert ranks[(1, 2)] == 1
    assert ranks[(1,)] == ranks[(2,)] == ranks[(3,)] == ranks[(4,)] == 2
    assert ranks[(1, 3)] == _brute_rank(state.amps, [0, 2])
    assert ranks[(1, 4)] == _brute_rank(state.amps, [0, 3])


def test_bipartition_ranks_slocc_invariant():
    rng = np.random.default_rng(31)
    base = PureState(np.kron([1, 0, 0, 1], [1, 0, 0, 1]).astype(complex))
    want = bipartition_ranks(base)
    for _ in range(50):
        img = apply_slocc(base, random_slocc(4, 1e3, rng))
        assert bipartition_ranks(img, eps=1e-8) == want
    with pytest.raises(ZeroState):
        bipartition_ranks(PureState(np.zeros(16)))
    with pytest.raises(DimensionMismatch):
        bipartition_ranks(PureState(np.ones(8)))


def test_permute_qubits():
    state = PureState([0, 1, 0, 0, 0, 0, 0, 0])  # |001>
    out = permute_qubits(state, (3, 1, 2))  # new qubit 1 = old qubit 3
    np.testing.assert_array_equal(out.amps, np.eye(8)[4])  # |100>
    with pytest.raises(DimensionMismatch):
        permute_qubits(state, (1, 1, 2))


def test_state_json_roundtrip():
    rng = np.random.default_rng(7)
    state = PureState(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    buf = io.StringIO()
    save_state(state, buf)
    back = load_state(io.StringIO(buf.getvalue()))
    assert back.n == 3
    # exact decimal round trip through repr-style JSON floats
    np.testing.assert_array_equal(back.amps, state.amps)


def test_state_json_no_normalization():
    obj = {"n": 1, "amps": [[3.0, 0.0], [0.0, 4.0]]}
    state = state_from_json(obj)
    assert state.norm() == 5.0
    assert state_to_json(state) == obj


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"n": 3},
        {"n": 0, "amps": []},
        {"n": 2, "amps": [[1, 0]] * 3},
        {"n": 1, "amps": [[1, 0], ["x", 0]]},
        {"n": 1, "amps": [[1, 0], [0, True]]},
        {"n": 1, "amps": [[1], [0, 0]]},
    ],
)
def test_state_json_rejects_malformed(obj):
    with pytest.raises(StateFormatError):
        state_from_json(obj)


def test_load_state_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(StateFormatError):
        load_state(p)
    p2 = tmp_path / "good.json"
    p2.write_text(json.dumps({"n": 1, "amps": [[1, 0], [0, 0]]}))
    assert load_state(str(p2)).n == 1
