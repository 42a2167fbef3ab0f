"""Each kernel in ``slocc4.kernels`` must agree with the vectorized numpy
reference of its formula kept here, on random rows and on one row of
every class.  The kernels return lists; the checks read them as
arrays."""

import numpy as np
import pytest

from slocc4 import AmbiguousClassification, TriClass, kernels
from slocc4.exact import lift
from slocc4.oracle import _hyperdet_batch, rank_codes_batch
from slocc4.tri import classify3_batch

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
    """The class of each row, None where exactly two clauses are true."""
    scale = np.abs(a).max(axis=1)
    t = ref_ghz_invariant(a)
    q = np.abs(ref_clause_quantities(a))
    thresh2 = eps * scale * scale
    c1 = (q[:, 0] > thresh2) | (q[:, 1] > thresh2)
    c2 = (q[:, 2] > thresh2) | (q[:, 3] > thresh2)
    c3 = (q[:, 4] > thresh2) | (q[:, 5] > thresh2)
    ntrue = c1.astype(np.int8) + c2 + c3
    classes = np.full(a.shape[0], TriClass.SEP000, dtype=object)
    classes[ntrue == 3] = TriClass.W
    classes[ntrue == 2] = None
    one = ntrue == 1
    classes[one & c1] = TriClass.BISEP1
    classes[one & c2] = TriClass.BISEP2
    classes[one & c3] = TriClass.BISEP3
    classes[np.abs(t) > eps * scale**4] = TriClass.GHZ
    classes[scale == 0.0] = TriClass.ZERO
    return classes.tolist()


def ref_pencil_elements(phi0, phi1, xy):
    return xy[:, 0, None] * phi0[None, :] + xy[:, 1, None] * phi1[None, :]


#: One row per class, keyed by the class.
SPECIAL_ROWS = {
    TriClass.ZERO: [0, 0, 0, 0, 0, 0, 0, 0],
    TriClass.SEP000: [1, 0, 0, 0, 0, 0, 0, 0],
    TriClass.BISEP1: [1, 0, 0, 1, 0, 0, 0, 0],  # |0> (|00> + |11>)
    TriClass.BISEP2: [1, 0, 0, 0, 0, 1, 0, 0],  # qubit 2 in a product
    TriClass.BISEP3: [1, 0, 0, 0, 0, 0, 1, 0],  # qubit 3 in a product
    TriClass.W: [0, 1, 1, 0, 1, 0, 0, 0],
    TriClass.GHZ: [1, 0, 0, 0, 0, 0, 0, 1],
}

#: a0 a3 = -(a1 a4 - a0 a5) = 1e-5 sit above eps, the only other nonzero
#: quantity a3 a5 = 1e-10 below it, and the GHZ invariant vanishes: exactly
#: clauses 1 and 2 are true.
AMBIGUOUS_ROW = [1, 0, 0, 1e-5, 0, 1e-5, 0, 0]


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


def test_each_special_row_classifies_to_its_class():
    rows = np.array(list(SPECIAL_ROWS.values()), dtype=np.complex128)
    assert classify3_batch(rows, EPS) == list(SPECIAL_ROWS)
    assert classify3_batch(rows.tolist(), EPS) == list(SPECIAL_ROWS)
    assert ref_tri_codes(np.array([AMBIGUOUS_ROW], dtype=np.complex128), EPS) == [None]
    with pytest.raises(AmbiguousClassification, match="exactly two W-condition clauses"):
        classify3_batch([SPECIAL_ROWS[TriClass.W], AMBIGUOUS_ROW], EPS)


def test_special_rows_have_their_codes():
    rows = np.array(list(SPECIAL_ROWS.values()), dtype=np.complex128)
    assert kernels.tri_codes_batch(rows, EPS) == list(SPECIAL_ROWS)
    assert ref_tri_codes(rows, EPS) == list(SPECIAL_ROWS)


def test_ghz_invariant_backends_agree():
    for n in SIZES:
        a = batch(n, seed=n)
        out = np.asarray(kernels.ghz_invariant_batch(a))
        assert out.shape == (n,) and out.dtype == np.complex128
        # bit for bit: these values are the quartic's coefficients, and the
        # order of its equal-multiplicity roots depends on their last bits.
        # The reference runs on an object array, i.e. in Python complex
        # arithmetic like the kernel: numpy's complex128 loops may fuse
        # multiply-adds and differ in the last bit
        np.testing.assert_array_equal(out, ref_ghz_invariant(a.astype(object)))
        np.testing.assert_allclose(out, ref_ghz_invariant(a), rtol=1e-13, atol=1e-13)


def test_clause_quantities_backends_agree():
    for n in SIZES:
        a = batch(n, seed=n + 1)
        out = np.asarray(kernels.clause_quantities_batch(a))
        assert out.shape == (n, 6) and out.dtype == np.complex128
        # bit for bit, like the GHZ invariant: clause quadratic coefficients
        np.testing.assert_array_equal(out, ref_clause_quantities(a.astype(object)))
        np.testing.assert_allclose(out, ref_clause_quantities(a), rtol=1e-13, atol=1e-13)


def test_tri_codes_backends_agree():
    for n in SIZES:
        a = batch(n, seed=n + 2)
        out = kernels.tri_codes_batch(a, EPS)
        assert len(out) == n and all(type(cls) is TriClass for cls in out)
        assert out == ref_tri_codes(a, EPS)


def test_pencil_elements_backends_agree():
    for n in SIZES:
        rng = np.random.default_rng(n + 3)
        phi0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        phi1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        xy = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        out = np.asarray(kernels.pencil_elements(phi0, phi1, xy))
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


def _quartic_at(c, x, y):
    """c0 x^4 + c1 x^3 y + c2 x^2 y^2 + c3 x y^3 + c4 y^4."""
    terms = [ck * (x ** (4 - k) * y**k) for k, ck in enumerate(c)]
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def _dyadic_vector(rng):
    return lift((rng.integers(-64, 65, 8) + 1j * rng.integers(-64, 65, 8)) / 2.0**rng.integers(0, 9))


def test_pencil_quartic_is_the_ghz_criterion_of_the_pencil():
    # exact: the quartic agrees with the GHZ criterion of the pencil element
    # at seven projective points, and five already fix a binary quartic
    rng = np.random.default_rng(17)
    nodes = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (3, -2))
    for _ in range(50):
        u, v = _dyadic_vector(rng), _dyadic_vector(rng)
        c = kernels.pencil_quartic(u, v)
        for x, y in nodes:
            assert _quartic_at(c, x, y) == kernels.ghz(*[x * a + y * b for a, b in zip(u, v)])
    # float: the end coefficients are the GHZ values of the two vectors, to
    # the last bit
    for _ in range(200):
        phi0, phi1 = (tuple(map(complex, rng.standard_normal(8) + 1j * rng.standard_normal(8)))
                      for _ in range(2))
        c = kernels.pencil_quartic(phi0, phi1)
        assert c[0] == kernels.ghz(*phi0) and c[4] == kernels.ghz(*phi1)


def test_pencil_clause_forms_are_the_clause_quantities_of_the_pencil():
    # exact: the clause quantities of the rows at the nodes (1, 0), (0, 1)
    # and (1, 1) fix each binary quadratic as (t10, t11 - t10 - t01, t01)
    rng = np.random.default_rng(19)
    for _ in range(50):
        u, v = _dyadic_vector(rng), _dyadic_vector(rng)
        t10, t01, t11 = (kernels.clauses(*[x * a + y * b for a, b in zip(u, v)])
                         for x, y in ((1, 0), (0, 1), (1, 1)))
        assert kernels.pencil_clause_forms(u, v) == tuple((a, c - a - b, b) for a, b, c in zip(t10, t01, t11))
    # float: the x^2 and y^2 coefficients are the clause quantities of the
    # two vectors, to the last bit, which pins the minors to ``clauses``
    for _ in range(200):
        u, v = (tuple(map(complex, rng.standard_normal(8) + 1j * rng.standard_normal(8))) for _ in range(2))
        forms = kernels.pencil_clause_forms(u, v)
        assert tuple(f[0] for f in forms) == kernels.clauses(*u)
        assert tuple(f[2] for f in forms) == kernels.clauses(*v)
