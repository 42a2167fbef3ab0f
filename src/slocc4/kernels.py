"""Hot numeric kernels for batched 3-qubit classification.

The classifier calls these with one to five rows at a time, where numpy's
per-call dispatch costs more than the arithmetic, so ``tri_codes_batch``
is a plain loop over the rows in Python complex arithmetic.  The kernels
whose values become polynomial coefficients (the quartic from
``ghz_invariant_batch``, the clause quadratics from
``clause_quantities_batch``) evaluate the same formulas column-wise in
numpy instead: numpy may fuse a multiply-add where Python rounds twice,
and the order of the quartic's equal-multiplicity roots depends on those
last bits.  Inputs and outputs are numpy arrays.

Verdict codes used by ``tri_codes_batch``:

====  ==========
code  meaning
====  ==========
0     zero vector
1     fully separable (Sep000)
2..4  biseparable, qubit ``code-1`` in a product
5     W class
6     GHZ class
7     ambiguous (exactly two clauses true; numerically borderline)
====  ==========
"""

import numpy as np

CODE_ZERO = 0
CODE_SEP = 1
CODE_B1 = 2
CODE_B2 = 3
CODE_B3 = 4
CODE_W = 5
CODE_GHZ = 6
CODE_AMBIGUOUS = 7


def _ghz(a0, a1, a2, a3, a4, a5, a6, a7):
    """GHZ criterion polynomial of one row, or column-wise of eight columns."""
    s = a0 * a7 - a2 * a5 + a1 * a6 - a3 * a4
    return s * s - 4.0 * (a2 * a4 - a0 * a6) * (a3 * a5 - a1 * a7)


def _clauses(a0, a1, a2, a3, a4, a5, a6, a7):
    """The six clause quantities of one row (or column-wise), two per clause."""
    return (
        a0 * a3 - a1 * a2,
        a5 * a6 - a4 * a7,
        a1 * a4 - a0 * a5,
        a3 * a6 - a2 * a7,
        a3 * a5 - a1 * a7,
        a2 * a4 - a0 * a6,
    )


def ghz_invariant_batch(a):
    """GHZ criterion polynomial of each row of a (N, 8) array."""
    return _ghz(*a.T)


def clause_quantities_batch(a):
    """The six clause quantities of each row of a (N, 8) array, as (N, 6)."""
    return np.stack(_clauses(*a.T), axis=1)


def _tri_code(row, eps):
    scale = max(map(abs, row))
    if scale == 0.0:
        return CODE_ZERO
    if abs(_ghz(*row)) > eps * scale**4:
        return CODE_GHZ
    thresh2 = eps * scale * scale
    q0, q1, q2, q3, q4, q5 = map(abs, _clauses(*row))
    c1 = q0 > thresh2 or q1 > thresh2
    c2 = q2 > thresh2 or q3 > thresh2
    c3 = q4 > thresh2 or q5 > thresh2
    ntrue = c1 + c2 + c3
    if ntrue == 3:
        return CODE_W
    if ntrue == 0:
        return CODE_SEP
    if ntrue == 2:
        return CODE_AMBIGUOUS
    return CODE_B1 if c1 else (CODE_B2 if c2 else CODE_B3)


def tri_codes_batch(a, eps):
    """Verdict code of each row of a (N, 8) array (see the table above)."""
    return np.array([_tri_code(row, eps) for row in a.tolist()], dtype=np.int8)


def pencil_elements(phi0, phi1, xy):
    """Rows ``x phi0 + y phi1`` for each (x, y) row of a (N, 2) array."""
    return xy[:, 0, None] * phi0[None, :] + xy[:, 1, None] * phi1[None, :]
