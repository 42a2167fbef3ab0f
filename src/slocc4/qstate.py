"""States, local operators and decompositions.

Amplitude indexing is big-endian: index ``i`` of the amplitude vector is
read as the binary string ``|q1 q2 ... qn>`` with qubit 1 the most
significant bit.  States are complex vectors that need not be normalized;
all rank and zero decisions use tolerances relative to the largest
magnitude in the object at hand.
"""

import json
from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    SingularOperator,
    StateFormatError,
    ZeroState,
)
from .kernels import SCALE_HI, SCALE_LO, pow2_scaled

DEFAULT_EPS = 1e-9

#: Absolute floor below which a local operator counts as singular.
DET_FLOOR = 1e-300


class PureState:
    """An unnormalized pure state of ``n`` qubits (1 <= n <= 4)."""

    __slots__ = ("n", "amps")

    def __init__(self, amps):
        arr = np.asarray(amps, dtype=np.complex128).reshape(-1).copy()
        size = arr.shape[0]
        n = size.bit_length() - 1
        if size != 2**n or not 1 <= n <= 4:
            raise DimensionMismatch(
                f"amplitude vector of length {size} is not a 1..4 qubit state"
            )
        if not np.isfinite(arr).all():
            raise StateFormatError("amplitudes must be finite")
        arr.setflags(write=False)
        self.n = n
        self.amps = arr

    @classmethod
    def _wrap(cls, amps, n: int) -> "PureState":
        """A state on an already validated read-only complex128 vector of
        2**n amplitudes, without copying or checking it again."""
        state = cls.__new__(cls)
        state.n = n
        state.amps = amps
        return state

    def max_abs(self) -> float:
        return max(np.abs(self.amps).tolist())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def reshaped(self):
        """Amplitudes viewed as a (2,)*n tensor, one axis per qubit."""
        return self.amps.reshape((2,) * self.n)

    def __repr__(self):
        return f"PureState(n={self.n}, amps={self.amps!r})"


class LocalOperator:
    """An invertible 2x2 complex matrix acting on a single qubit."""

    __slots__ = ("m",)

    def __init__(self, m):
        arr = np.asarray(m, dtype=np.complex128)
        if arr.shape != (2, 2):
            raise DimensionMismatch("local operator must be a 2x2 matrix")
        det = arr[0, 0] * arr[1, 1] - arr[0, 1] * arr[1, 0]
        if not np.isfinite(det) or abs(det) < DET_FLOOR:
            raise SingularOperator(f"operator determinant {det} below floor")
        arr = arr.copy()
        arr.setflags(write=False)
        self.m = arr

    def __repr__(self):
        return f"LocalOperator({self.m!r})"

    @property
    def det(self) -> complex:
        return complex(self.m[0, 0] * self.m[1, 1] - self.m[0, 1] * self.m[1, 0])

    def inverse(self) -> "LocalOperator":
        d = self.det
        inv = np.array(
            [[self.m[1, 1], -self.m[0, 1]], [-self.m[1, 0], self.m[0, 0]]]
        ) / d
        return LocalOperator(inv)


class SloccOp:
    """One invertible local operator per qubit (a SLOCC group element)."""

    __slots__ = ("ops",)

    def __init__(self, ops):
        ops = tuple(op if isinstance(op, LocalOperator) else LocalOperator(op) for op in ops)
        if not 1 <= len(ops) <= 4:
            raise DimensionMismatch("SloccOp must act on 1..4 qubits")
        self.ops = ops

    def __repr__(self):
        return f"SloccOp({self.ops!r})"

    @property
    def n(self) -> int:
        return len(self.ops)

    @classmethod
    def identity(cls, n: int) -> "SloccOp":
        return cls(tuple(LocalOperator(np.eye(2)) for _ in range(n)))

    def inverse(self) -> "SloccOp":
        return SloccOp(tuple(op.inverse() for op in self.ops))


class Decomposition(NamedTuple):
    """Split of a state as |0>|phi0> + |1>|phi1> on a distinguished qubit.

    ``phi0`` collects the amplitudes where the distinguished qubit is 0 and
    ``phi1`` those where it is 1; the remaining qubits keep their relative
    order.
    """

    phi0: PureState
    phi1: PureState
    distinguished: int


_EINSUM = {
    1: "ai,i->a",
    2: "ai,bj,ij->ab",
    3: "ai,bj,ck,ijk->abc",
    4: "ai,bj,ck,dl,ijkl->abcd",
}


def apply_slocc(state: PureState, op: SloccOp) -> PureState:
    """Apply the tensor product of the per-qubit operators to the state."""
    if op.n != state.n:
        raise DimensionMismatch(f"operator acts on {op.n} qubits, state has {state.n}")
    mats = [o.m for o in op.ops]
    out = np.einsum(_EINSUM[state.n], *mats, state.reshaped())
    return PureState(out.reshape(-1))


def decompose(state: PureState, distinguished: int) -> Decomposition:
    """Decompose on the given qubit (1-based index)."""
    if state.n < 2:
        raise DimensionMismatch("decomposition needs at least 2 qubits")
    if not 1 <= distinguished <= state.n:
        raise DimensionMismatch(
            f"distinguished qubit {distinguished} out of range 1..{state.n}"
        )
    rows = state.amps[_SPLIT_INDEX[state.n, distinguished]]
    rows.setflags(write=False)
    return Decomposition(
        phi0=PureState._wrap(rows[0], state.n - 1),
        phi1=PureState._wrap(rows[1], state.n - 1),
        distinguished=distinguished,
    )


def recompose(d: Decomposition) -> PureState:
    """Inverse of :func:`decompose`; a pure index permutation, no arithmetic."""
    n = d.phi0.n + 1
    arr = np.stack([d.phi0.reshaped(), d.phi1.reshaped()])
    return PureState(np.moveaxis(arr, 0, d.distinguished - 1).reshape(2**n))


def permute_qubits(state: PureState, perm) -> PureState:
    """Reorder qubits so that new qubit ``i`` is old qubit ``perm[i-1]`` (1-based)."""
    perm = tuple(perm)
    if sorted(perm) != list(range(1, state.n + 1)):
        raise DimensionMismatch(f"{perm} is not a permutation of 1..{state.n}")
    axes = tuple(p - 1 for p in perm)
    return PureState(state.reshaped().transpose(axes).reshape(-1))


def _herm2_eigs(u, v):
    """Eigenvalues (min, max) of the 2x2 Gram matrix of two row vectors,
    in closed form."""
    g00 = float(np.vdot(u, u).real)
    g11 = float(np.vdot(v, v).real)
    g01 = complex(np.vdot(v, u))
    tr = g00 + g11
    disc = ((g00 - g11) ** 2 + 4.0 * (g01.real**2 + g01.imag**2)) ** 0.5
    return max(0.5 * (tr - disc), 0.0), 0.5 * (tr + disc)


def span_dimension(d: Decomposition, eps: float = DEFAULT_EPS) -> int:
    """Dimension (1 or 2) of span{phi0, phi1}.

    Returns 2 iff the smallest singular value of the Gram matrix of the two
    residual states exceeds ``eps`` times the largest.
    """
    lo, hi = _herm2_eigs(d.phi0.amps, d.phi1.amps)
    if hi <= 0.0:
        raise ZeroState("both residual states vanish")
    return 2 if lo > eps * hi else 1


#: The seven nontrivial bipartitions of four qubits, named by the qubits on
#: the row side of the reshaped amplitude matrix.
BIPARTITIONS = ((1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4))


def _split_index(n: int, qubits) -> np.ndarray:
    """Amplitude indices of an n-qubit state as a matrix whose rows are
    indexed by the given (1-based) qubits, the other qubits in order along
    the columns."""
    first = [q - 1 for q in qubits]
    axes = first + [k for k in range(n) if k not in first]
    tensor = np.arange(2**n).reshape((2,) * n).transpose(axes)
    return tensor.reshape(2 ** len(first), -1)


_SPLIT_INDEX = {(n, k): _split_index(n, (k,)) for n in (2, 3, 4) for k in range(1, n + 1)}
_CUT_INDEX = {cut: _split_index(4, cut) for cut in BIPARTITIONS}
#: (3, 4, 4): the amplitude matrices of the three pair cuts.
_PAIR_CUTS = np.stack([_CUT_INDEX[cut] for cut in BIPARTITIONS[4:]])


def _minor_factors():
    """Amplitude indices of the factors of the two products M[r, c] M[s, d]
    and M[r, d] M[s, c] of every 2x2 minor (r < s, c < d) of every cut
    matrix M, as a (2, 440) array: the first 220 columns hold the first
    products and the last 220 the second, so that their difference lists
    the 4 x 28 minors of the single-qubit 2x8 cuts and then the 3 x 36
    minors of the pair 4x4 cuts.  Each pair cut starts with the Laplace
    terms of its determinant along columns (0, 1): six minors on those
    columns, signed, then the six on columns (2, 3) of the complementary
    row pairs, so that det M is the sum of their six products."""
    laplace = np.concatenate([np.arange(0, 36, 6), np.arange(35, 0, -6)])
    others = np.ones(36, dtype=bool)
    others[laplace] = False
    order = np.concatenate([laplace, np.flatnonzero(others)])
    negative = [1, 4]  # row pairs (0, 2) and (1, 3)
    first, second = [], []
    for cut in BIPARTITIONS:
        m = _CUT_INDEX[cut]
        r, s = np.triu_indices(m.shape[0], 1)
        c, d = np.triu_indices(m.shape[1], 1)
        r, s = r[:, None], s[:, None]
        one = np.stack([m[r, c], m[s, d]]).reshape(2, -1)
        two = np.stack([m[r, d], m[s, c]]).reshape(2, -1)
        if len(cut) == 2:
            one, two = one[:, order], two[:, order]
            one[:, negative], two[:, negative] = two[:, negative], one[:, negative]
        first.append(one)
        second.append(two)
    return np.concatenate(first + second, axis=1)


_MINOR_FACTORS = _minor_factors()
_MINOR_COUNT = _MINOR_FACTORS.shape[1] // 2
#: Floats (real and imaginary parts) of the single-cut minors, which come first.
_SINGLE_FLOATS = 4 * 28 * 2

# Pair-cut ranks without an SVD.  A pair cut M (4x4) has singular values
# s1 >= .. >= s4 and t = ||M||_F^2 = ||amps||^2, so s1^2 <= t <= 4 s1^2 and
#   s4/s1   >= |det M| / s1^4 >= |det M| / t^2,
#   s2^2/s1^2 <= e2 / s1^4  <= 16 e2 / t^2,  e2 = sum |2x2 minor|^2
# (Cauchy-Binet: e2 = sum_{i<j} si^2 sj^2 >= s1^2 s2^2).  np.linalg.svd
# returns singular values off by at most p u s1 (backward stability and
# Weyl; u = 2^-53, p a small polynomial in the size: at most 4 measured
# on random and ill-conditioned 4x4 matrices against 40-digit references),
# so its count of sv > eps sv[0] is 4 when s4/s1 > eps + 2 p u and 1 when
# s2/s1 < eps - 2 p u, for eps in (0, 1).
# Rounding (first order in u): each minor is off by at most
# (sqrt(5) + 1) u (|M_rc M_sd| + |M_rd M_sc|); summed over the six Laplace
# products that bounds the error of det by 14 u perm|M| <= 14 u t^2, and
# the error of 4 sqrt(e2) by 13 u t; t itself is off by at most 32 u
# relative.  So
#   rank 4 when |det| > T t^2, T = max(K eps, F): s4/s1 > T (1 - 64 u) - 14 u,
#   rank 1 when eps > F and 16 e2 < (eps/K)^2 t^2: s2/s1 < (eps/K)(1 + 70 u) + 13 u,
# and both imply LAPACK's count for every eps in (0, 1) as soon as
# F (1 - 1/K - 64 u) >= (14 + 2 p) u.  K = 1e3 and F = 1e-12 (~4500 u) hold
# it for p up to 2200; the factor K keeps the decided ranks far from eps.
# Cuts that neither test decides go to the SVD.
_RANK_K = 1e3
_RANK_FLOOR = 1e-12


def cut_matrix(state: PureState, cut) -> np.ndarray:
    """Amplitude matrix of a 4-qubit state reshaped along the given cut."""
    if state.n != 4:
        raise DimensionMismatch("bipartition cuts are defined for 4-qubit states")
    return state.amps[_CUT_INDEX[tuple(cut)]]


#: Squared norms in [_NORM2_LO, _NORM2_HI] put the largest magnitude
#: (between sqrt(t)/4 and sqrt(t) for 16 amplitudes) inside the window of
#: ``kernels.SCALE_LO``, ``kernels.SCALE_HI``.
_NORM2_LO = 16.0 * SCALE_LO**2
_NORM2_HI = SCALE_HI**2


def _windowed(state: PureState, what: str):
    """``(state, ||amps||^2)``, with the state rescaled by an exact power of
    two when its squared norm lies outside the window."""
    t = float(np.vdot(state.amps, state.amps).real)
    if _NORM2_LO <= t <= _NORM2_HI:
        return state, t
    top = state.max_abs()
    if top == 0.0:
        raise ZeroState(f"cannot {what} the zero state")
    state = PureState(pow2_scaled(state.amps, top))
    return state, float(np.vdot(state.amps, state.amps).real)


class CutRanks(Mapping):
    """Read-only mapping from each of the seven ``BIPARTITIONS`` to its rank,
    as :func:`bipartition_ranks` decides it.

    The pair cuts that the minor tests leave open go to ``np.linalg.svd``
    together when the first of them is read, so a caller that stops reading
    early (the rank screen, at a separable qubit) never pays for them.
    ``state`` is the state that was ranked, rescaled into the window."""

    __slots__ = ("state", "_eps", "_ranks")

    def __init__(self, state: PureState, eps: float, ranks: list):
        self.state = state
        self._eps = eps
        self._ranks = dict(zip(BIPARTITIONS, ranks))  # 0 for an open pair cut

    def __getitem__(self, cut):
        if not self._ranks[cut]:
            pairs = [k for k in range(3) if not self._ranks[BIPARTITIONS[4 + k]]]
            sv = np.linalg.svd(self.state.amps[_PAIR_CUTS[pairs]], compute_uv=False)
            counts = (sv > self._eps * sv[:, :1]).sum(axis=1).tolist()
            self._ranks.update((BIPARTITIONS[4 + k], n) for k, n in zip(pairs, counts))
        return self._ranks[cut]

    def __iter__(self):
        return iter(BIPARTITIONS)

    def __len__(self):
        return len(BIPARTITIONS)

    def __repr__(self):
        return f"CutRanks({dict(self)!r})"


def bipartition_ranks(state: PureState, eps: float = DEFAULT_EPS) -> CutRanks:
    """Numerical rank of the amplitude matrix along each of the 7 cuts.

    Single-qubit cuts compare the closed-form sigma_min/sigma_max with
    ``eps``; it comes from the Gram determinant, accumulated as a sum of
    squared 2x2 minors so that exact rank deficiency is resolved to ~1e-16
    rather than sqrt(machine eps), and from sigma_1^2 + sigma_2^2 = t.  Pair
    cuts are decided from the determinant and the squared minors (see the
    bound above) and fall back to the SVD, when read, only where neither is
    conclusive.
    """
    state, t = _windowed(state, "rank")
    if state.n != 4:
        raise DimensionMismatch("bipartition cuts are defined for 4-qubit states")
    factors = state.amps[_MINOR_FACTORS]
    products = factors[0] * factors[1]
    minors = products[:_MINOR_COUNT] - products[_MINOR_COUNT:]
    parts = minors.view(np.float64)
    squares = parts * parts
    ranks = []
    for det in squares[:_SINGLE_FLOATS].reshape(4, 56).sum(axis=1).tolist():
        lmax = 0.5 * (t + max(t * t - 4.0 * det, 0.0) ** 0.5)
        ranks.append(2 if det**0.5 / lmax > eps else 1)
    pair_minors = minors[_SINGLE_FLOATS // 2 :].reshape(3, 36)
    dets = list(map(abs, (pair_minors[:, :6] * pair_minors[:, 6:12]).sum(axis=1).tolist()))
    tol4 = max(_RANK_K * eps, _RANK_FLOOR) * t * t
    if min(dets) > tol4:
        return CutRanks(state, eps, ranks + [4, 4, 4])
    e2s = squares[_SINGLE_FLOATS:].reshape(3, 72).sum(axis=1).tolist()
    tol1 = (eps / _RANK_K) ** 2 * t * t if eps > _RANK_FLOOR else 0.0
    for det, e2 in zip(dets, e2s):
        ranks.append(4 if det > tol4 else 1 if 16.0 * e2 < tol1 else 0)
    return CutRanks(state, eps, ranks)


# ---------------------------------------------------------------------------
# state JSON format: {"n": int, "amps": [[re, im], ...]} with 2^n entries

def state_to_json(state: PureState) -> dict:
    return {
        "n": state.n,
        "amps": [[float(z.real), float(z.imag)] for z in state.amps],
    }


def state_from_json(obj) -> PureState:
    if not isinstance(obj, dict):
        raise StateFormatError("state JSON must be an object")
    try:
        n = obj["n"]
        amps = obj["amps"]
    except (KeyError, TypeError) as exc:
        raise StateFormatError("state JSON needs 'n' and 'amps' fields") from exc
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= 4:
        raise StateFormatError(f"'n' must be an integer in 1..4, got {n!r}")
    if not isinstance(amps, list) or len(amps) != 2**n:
        raise StateFormatError(f"'amps' must list 2^{n} = {2**n} entries")
    vec = np.empty(2**n, dtype=np.complex128)
    for i, entry in enumerate(amps):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
        ):
            raise StateFormatError(f"amplitude {i} must be a [re, im] number pair")
        try:
            vec[i] = complex(entry[0], entry[1])
        except OverflowError:
            raise StateFormatError(f"amplitude {i} is too large for a float") from None
    return PureState(vec)


def load_state(fp) -> PureState:
    """Read a state from a file object or path."""
    if hasattr(fp, "read"):
        text = fp.read()
    else:
        try:
            with open(fp, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise StateFormatError(f"cannot read {fp}: {exc.strerror or exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"invalid JSON: {exc}") from exc
    return state_from_json(obj)


def save_state(state: PureState, fp) -> None:
    if hasattr(fp, "write"):
        json.dump(state_to_json(state), fp)
    else:
        with open(fp, "w", encoding="utf-8") as fh:
            json.dump(state_to_json(state), fh)
