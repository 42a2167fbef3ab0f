"""Each kernel in ``slocc4.kernels`` must agree with the vectorized numpy
reference of its formula kept here, on random rows and on one row of
every verdict code."""

import numpy as np

from slocc4 import kernels
from slocc4.oracle import _hyperdet_batch, rank_codes_batch

EPS = 1e-9


def ref_ghz_invariant(a):
    s = a[:, 0] * a[:, 7] - a[:, 2] * a[:, 5] + a[:, 1] * a[:, 6] - a[:, 3] * a[:, 4]
    return s * s - 4.0 * (a[:, 2] * a[:, 4] - a[:, 0] * a[:, 6]) * (
        a[:, 3] * a[:, 5] - a[:, 1] * a[:, 7]
    )


def ref_clause_quantities(a):
    q = np.empty((a.shape[0], 6), dtype=np.complex128)
    q[:, 0] = a[:, 0] * a[:, 3] - a[:, 1] * a[:, 2]
    q[:, 1] = a[:, 5] * a[:, 6] - a[:, 4] * a[:, 7]
    q[:, 2] = a[:, 1] * a[:, 4] - a[:, 0] * a[:, 5]
    q[:, 3] = a[:, 3] * a[:, 6] - a[:, 2] * a[:, 7]
    q[:, 4] = a[:, 3] * a[:, 5] - a[:, 1] * a[:, 7]
    q[:, 5] = a[:, 2] * a[:, 4] - a[:, 0] * a[:, 6]
    return q


def ref_tri_codes(a, eps):
    scale = np.abs(a).max(axis=1)
    t = ref_ghz_invariant(a)
    q = np.abs(ref_clause_quantities(a))
    thresh2 = eps * scale * scale
    c1 = (q[:, 0] > thresh2) | (q[:, 1] > thresh2)
    c2 = (q[:, 2] > thresh2) | (q[:, 3] > thresh2)
    c3 = (q[:, 4] > thresh2) | (q[:, 5] > thresh2)
    ntrue = c1.astype(np.int8) + c2 + c3
    codes = np.full(a.shape[0], kernels.CODE_SEP, dtype=np.int8)
    codes[ntrue == 3] = kernels.CODE_W
    codes[ntrue == 2] = kernels.CODE_AMBIGUOUS
    one = ntrue == 1
    codes[one & c1] = kernels.CODE_B1
    codes[one & c2] = kernels.CODE_B2
    codes[one & c3] = kernels.CODE_B3
    codes[np.abs(t) > eps * scale**4] = kernels.CODE_GHZ
    codes[scale == 0.0] = kernels.CODE_ZERO
    return codes


def ref_pencil_elements(phi0, phi1, xy):
    return xy[:, 0, None] * phi0[None, :] + xy[:, 1, None] * phi1[None, :]


#: One row per verdict code, keyed by the code.
SPECIAL_ROWS = {
    kernels.CODE_ZERO: [0, 0, 0, 0, 0, 0, 0, 0],
    kernels.CODE_SEP: [1, 0, 0, 0, 0, 0, 0, 0],
    kernels.CODE_B1: [1, 0, 0, 1, 0, 0, 0, 0],  # |0> (|00> + |11>)
    kernels.CODE_B2: [1, 0, 0, 0, 0, 1, 0, 0],  # qubit 2 in a product
    kernels.CODE_B3: [1, 0, 0, 0, 0, 0, 1, 0],  # qubit 3 in a product
    kernels.CODE_W: [0, 1, 1, 0, 1, 0, 0, 0],
    kernels.CODE_GHZ: [1, 0, 0, 0, 0, 0, 0, 1],
    # a0 a3 = -(a1 a4 - a0 a5) = 1e-5 sit above eps, the only other nonzero
    # quantity a3 a5 = 1e-10 below it, and the GHZ invariant vanishes:
    # exactly clauses 1 and 2 are true
    kernels.CODE_AMBIGUOUS: [1, 0, 0, 1e-5, 0, 1e-5, 0, 0],
}


def batch(n, seed):
    """n random rows, the first len(SPECIAL_ROWS) replaced by the special
    rows (as many as fit)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
    special = np.array(list(SPECIAL_ROWS.values()), dtype=np.complex128)
    k = min(n, len(special))
    a[:k] = special[:k]
    return a


#: Batch sizes: a single row, a pencil-sized batch and a large one.
SIZES = (1, 4, 500)


def test_special_rows_have_their_codes():
    rows = np.array(list(SPECIAL_ROWS.values()), dtype=np.complex128)
    np.testing.assert_array_equal(kernels.tri_codes_batch(rows, EPS), list(SPECIAL_ROWS))
    np.testing.assert_array_equal(ref_tri_codes(rows, EPS), list(SPECIAL_ROWS))


def test_ghz_invariant_backends_agree():
    for n in SIZES:
        a = batch(n, seed=n)
        out = kernels.ghz_invariant_batch(a)
        assert out.shape == (n,) and out.dtype == np.complex128
        # bit for bit: these values are the quartic's coefficients, and the
        # order of its equal-multiplicity roots depends on their last bits
        np.testing.assert_array_equal(out, ref_ghz_invariant(a))


def test_clause_quantities_backends_agree():
    for n in SIZES:
        a = batch(n, seed=n + 1)
        out = kernels.clause_quantities_batch(a)
        assert out.shape == (n, 6) and out.dtype == np.complex128
        # bit for bit, like the GHZ invariant: clause quadratic coefficients
        np.testing.assert_array_equal(out, ref_clause_quantities(a))


def test_tri_codes_backends_agree():
    for n in SIZES:
        a = batch(n, seed=n + 2)
        out = kernels.tri_codes_batch(a, EPS)
        assert out.shape == (n,) and out.dtype == np.int8
        np.testing.assert_array_equal(out, ref_tri_codes(a, EPS))


def test_pencil_elements_backends_agree():
    for n in SIZES:
        rng = np.random.default_rng(n + 3)
        phi0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        phi1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        xy = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        out = kernels.pencil_elements(phi0, phi1, xy)
        assert out.shape == (n, 8) and out.dtype == np.complex128
        np.testing.assert_allclose(out, ref_pencil_elements(phi0, phi1, xy), rtol=1e-12)


def test_hyperdeterminant_equals_ghz_invariant():
    # two independent expansions of the same degree-4 invariant
    a = batch(500, seed=5)
    scale = np.abs(a).max(axis=1) ** 4
    diff = np.abs(kernels.ghz_invariant_batch(a) - _hyperdet_batch(a))
    assert np.all(diff <= 1e-12 * scale)


def test_rank_codes_zero_row():
    a = np.zeros((1, 8), dtype=complex)
    assert rank_codes_batch(a)[0] == 0
