"""States, local operators and decompositions.

Amplitude indexing is big-endian: index ``i`` of the amplitude vector is
read as the binary string ``|q1 q2 ... qn>`` with qubit 1 the most
significant bit.  States are complex vectors that need not be normalized;
all rank and zero decisions use tolerances relative to the largest
magnitude in the object at hand.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    SingularOperator,
    StateFormatError,
    ZeroState,
)

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

    def max_abs(self) -> float:
        return float(np.abs(self.amps).max())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def is_zero(self) -> bool:
        return not self.amps.any()

    def reshaped(self):
        """Amplitudes viewed as a (2,)*n tensor, one axis per qubit."""
        return self.amps.reshape((2,) * self.n)

    def __repr__(self):
        return f"PureState(n={self.n}, amps={self.amps!r})"


@dataclass(frozen=True)
class LocalOperator:
    """An invertible 2x2 complex matrix acting on a single qubit."""

    m: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.m, dtype=np.complex128)
        if arr.shape != (2, 2):
            raise DimensionMismatch("local operator must be a 2x2 matrix")
        det = arr[0, 0] * arr[1, 1] - arr[0, 1] * arr[1, 0]
        if not np.isfinite(det) or abs(det) < DET_FLOOR:
            raise SingularOperator(f"operator determinant {det} below floor")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "m", arr)

    @property
    def det(self) -> complex:
        return complex(self.m[0, 0] * self.m[1, 1] - self.m[0, 1] * self.m[1, 0])

    def inverse(self) -> "LocalOperator":
        d = self.det
        inv = np.array(
            [[self.m[1, 1], -self.m[0, 1]], [-self.m[1, 0], self.m[0, 0]]]
        ) / d
        return LocalOperator(inv)


@dataclass(frozen=True)
class SloccOp:
    """One invertible local operator per qubit (a SLOCC group element)."""

    ops: tuple

    def __post_init__(self):
        ops = tuple(
            op if isinstance(op, LocalOperator) else LocalOperator(op)
            for op in self.ops
        )
        if not 1 <= len(ops) <= 4:
            raise DimensionMismatch("SloccOp must act on 1..4 qubits")
        object.__setattr__(self, "ops", ops)

    @property
    def n(self) -> int:
        return len(self.ops)

    @classmethod
    def identity(cls, n: int) -> "SloccOp":
        return cls(tuple(LocalOperator(np.eye(2)) for _ in range(n)))

    def inverse(self) -> "SloccOp":
        return SloccOp(tuple(op.inverse() for op in self.ops))


@dataclass(frozen=True)
class Decomposition:
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
    return Decomposition(
        phi0=PureState(rows[0]),
        phi1=PureState(rows[1]),
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


def _minor_terms():
    """Indices into the flattened 16x16 outer product of the amplitudes
    with themselves that pick the two products u_j v_k and u_k v_j of every
    2x2 minor (j < k) of the four single-qubit 2x8 cut matrices [u; v]:
    two (4, 28) arrays, one row per cut."""
    j, k = np.triu_indices(8, 1)
    u, v = np.stack([_CUT_INDEX[cut] for cut in BIPARTITIONS[:4]]).transpose(1, 0, 2)
    left = u[:, j] * 16 + v[:, k]
    right = u[:, k] * 16 + v[:, j]
    return np.ascontiguousarray(left), np.ascontiguousarray(right)


_MINOR_LEFT, _MINOR_RIGHT = _minor_terms()


def cut_matrix(state: PureState, cut) -> np.ndarray:
    """Amplitude matrix of a 4-qubit state reshaped along the given cut."""
    if state.n != 4:
        raise DimensionMismatch("bipartition cuts are defined for 4-qubit states")
    return state.amps[_CUT_INDEX[tuple(cut)]]


def _single_cut_ratios(amps: np.ndarray) -> list:
    """sigma_min/sigma_max of the four single-qubit 2x8 cut matrices,
    cancellation-free.

    The product sigma_1^2 sigma_2^2 is the Gram determinant, accumulated as
    a sum of squared 2x2 minors so that exact rank deficiency is resolved
    to ~1e-16 rather than sqrt(machine eps); the sum sigma_1^2 + sigma_2^2
    is the squared norm of the state, the same for every cut.
    """
    outer = np.multiply.outer(amps, amps).reshape(-1)
    minors = (outer[_MINOR_LEFT] - outer[_MINOR_RIGHT]).view(np.float64)
    tr = float(np.vdot(amps, amps).real)
    ratios = []
    for det in (minors * minors).sum(axis=1).tolist():
        lmax = 0.5 * (tr + max(tr * tr - 4.0 * det, 0.0) ** 0.5)
        ratios.append(det**0.5 / lmax if lmax > 0.0 else 0.0)
    return ratios


def bipartition_ranks(state: PureState, eps: float = DEFAULT_EPS) -> dict:
    """Numerical rank of the amplitude matrix along each of the 7 cuts."""
    if state.is_zero():
        raise ZeroState("cannot rank the zero state")
    if state.n != 4:
        raise DimensionMismatch("bipartition cuts are defined for 4-qubit states")
    single = [2 if ratio > eps else 1 for ratio in _single_cut_ratios(state.amps)]
    sv = np.linalg.svd(state.amps[_PAIR_CUTS], compute_uv=False)
    pair = (sv > eps * sv[:, :1]).sum(axis=1).tolist()
    return dict(zip(BIPARTITIONS, single + pair))


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
    if not isinstance(n, int) or not 1 <= n <= 4:
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
        vec[i] = complex(entry[0], entry[1])
    try:
        return PureState(vec)
    except StateFormatError:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        raise StateFormatError(str(exc)) from exc


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
