"""States, local operators and decompositions.

Amplitude indexing is big-endian: index ``i`` of the amplitude vector is
read as the binary string ``|q1 q2 ... qn>`` with qubit 1 the most
significant bit.  States are complex vectors that need not be normalized;
all rank and zero decisions use tolerances relative to the largest
magnitude in the object at hand.
"""

import cmath
import json
from itertools import combinations
from typing import NamedTuple

from .errors import (
    DimensionMismatch,
    SingularOperator,
    Slocc4Error,
    StateFormatError,
    ZeroState,
)
from .kernels import BAND, SCALE_HI, SCALE_LO, vanishes, windowed

DEFAULT_EPS = 1e-9


def check_eps(eps: float) -> float:
    """``eps`` itself; raises :class:`Slocc4Error` unless it is a finite
    number in (0, 1), the range of every relative tolerance."""
    if not 0.0 < eps < 1.0:  # also rejects nan and inf
        raise Slocc4Error(f"eps must be a finite number in (0, 1), got {eps!r}")
    return eps

#: Absolute floor below which a local operator counts as singular.
DET_FLOOR = 1e-300


def complex_values(amps) -> tuple:
    """The amplitudes as a flat tuple of Python complex numbers, from a
    sequence of numbers or from an array of any shape."""
    if hasattr(amps, "reshape"):
        amps = amps.reshape(-1).tolist()
    return tuple(map(complex, amps))


class PureState:
    """An unnormalized pure state of ``n`` qubits (1 <= n <= 4).

    ``values`` holds the amplitudes as a tuple of Python complex numbers,
    which is what the classifier reads.  ``amps`` is the same vector as a
    read-only complex128 array; it is built, and numpy imported, the first
    time it is read."""

    __slots__ = ("n", "values", "_array")

    def __init__(self, amps):
        values = complex_values(amps)
        size = len(values)
        n = size.bit_length() - 1
        if size != 2**n or not 1 <= n <= 4:
            raise DimensionMismatch(
                f"amplitude vector of length {size} is not a 1..4 qubit state"
            )
        if not all(map(cmath.isfinite, values)):
            raise StateFormatError("amplitudes must be finite")
        self.n = n
        self.values = values
        self._array = None

    @classmethod
    def _wrap(cls, values: tuple, n: int) -> "PureState":
        """A state on an already validated tuple of 2**n complex amplitudes,
        without copying or checking it again."""
        state = cls.__new__(cls)
        state.n = n
        state.values = values
        state._array = None
        return state

    @property
    def amps(self):
        if self._array is None:
            import numpy as np

            arr = np.array(self.values, dtype=np.complex128)
            arr.setflags(write=False)
            self._array = arr
        return self._array

    def max_abs(self) -> float:
        return max(map(abs, self.values))

    def __repr__(self):
        return f"PureState(n={self.n}, amps={list(self.values)!r})"


def as_state(amps, n: int) -> PureState:
    """``amps`` itself when it is a :class:`PureState`, else
    ``PureState(amps)``, which checks for 2**k finite amplitudes; raises
    :class:`DimensionMismatch` unless the state has ``n`` qubits.  Every
    classification entry point takes its input through this check."""
    state = amps if isinstance(amps, PureState) else PureState(amps)
    if state.n != n:
        raise DimensionMismatch(f"expected a {n}-qubit state, got n={state.n}")
    return state


class LocalOperator:
    """An invertible 2x2 complex matrix acting on a single qubit."""

    __slots__ = ("m",)

    def __init__(self, m):
        import numpy as np

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
        (a, b), (c, d) = self.m.tolist()
        det = self.det
        return LocalOperator([[d / det, -b / det], [-c / det, a / det]])


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
        return cls(tuple(LocalOperator(((1, 0), (0, 1))) for _ in range(n)))

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
    import numpy as np

    if op.n != state.n:
        raise DimensionMismatch(f"operator acts on {op.n} qubits, state has {state.n}")
    mats = [o.m for o in op.ops]
    out = np.einsum(_EINSUM[state.n], *mats, state.amps.reshape((2,) * state.n))
    return PureState(out)


def _split_index(n: int, qubits) -> tuple:
    """Amplitude indices of an n-qubit state as a matrix (a tuple of rows)
    whose rows are indexed by the given (1-based) qubits, the other qubits
    in order along the columns."""
    order = list(qubits) + [q for q in range(1, n + 1) if q not in qubits]
    flat = [sum(((i >> (n - 1 - pos)) & 1) << (n - q) for pos, q in enumerate(order))
            for i in range(2**n)]
    cols = 2 ** (n - len(qubits))
    return tuple(tuple(flat[r : r + cols]) for r in range(0, 2**n, cols))


_SPLIT_INDEX = {(n, k): _split_index(n, (k,)) for n in (2, 3, 4) for k in range(1, n + 1)}


def decompose(state: PureState, distinguished: int) -> Decomposition:
    """Decompose on the given qubit (1-based index)."""
    if state.n < 2:
        raise DimensionMismatch("decomposition needs at least 2 qubits")
    if distinguished not in range(1, state.n + 1):
        raise DimensionMismatch(
            f"distinguished qubit {distinguished} out of range 1..{state.n}"
        )
    at = state.values.__getitem__
    row0, row1 = _SPLIT_INDEX[state.n, distinguished]
    return Decomposition(
        phi0=PureState._wrap(tuple(map(at, row0)), state.n - 1),
        phi1=PureState._wrap(tuple(map(at, row1)), state.n - 1),
        distinguished=distinguished,
    )


def permute_qubits(state: PureState, perm) -> PureState:
    """Reorder qubits so that new qubit ``i`` is old qubit ``perm[i-1]`` (1-based)."""
    perm = tuple(perm)
    if sorted(perm) != list(range(1, state.n + 1)):
        raise DimensionMismatch(f"{perm} is not a permutation of 1..{state.n}")
    order = [i for (i,) in _split_index(state.n, perm)]  # one index per row
    return PureState._wrap(tuple(map(state.values.__getitem__, order)), state.n)


def _norm2(u) -> float:
    """Squared Euclidean norm of a sequence of complex numbers."""
    return sum([z.real * z.real + z.imag * z.imag for z in u])


def _herm2_eigs(g00, g11, g01):
    """Eigenvalues (min, max) of the 2x2 Gram matrix [[g00, g01], [g01*, g11]]
    of two complex sequences, in closed form."""
    tr = g00 + g11
    disc = ((g00 - g11) * (g00 - g11) + 4.0 * (g01.real * g01.real + g01.imag * g01.imag)) ** 0.5
    return max(0.5 * (tr - disc), 0.0), 0.5 * (tr + disc)


def span_dimension(d: Decomposition, eps: float = DEFAULT_EPS) -> int:
    """Dimension (1 or 2) of span{phi0, phi1}.

    Returns 1 when the smallest eigenvalue of the Gram matrix of the two
    residual states vanishes against ``eps / kernels.BAND`` times the
    largest by ``kernels.vanishes``, which raises between its thresholds,
    else 2: the band lies below ``eps``, as in ``pencil.analyze_span``.
    Both states are first moved into the scale window by one exact power of
    two (``kernels.windowed``), so that rescaling them changes no decision.
    """
    half = len(d.phi0.values)
    both = windowed(d.phi0.values + d.phi1.values)[0]
    u, v = both[:half], both[half:]
    lo, hi = _herm2_eigs(_norm2(u), _norm2(v), sum([a.conjugate() * b for a, b in zip(u, v)]))
    if hi <= 0.0:
        raise ZeroState("both residual states vanish")
    return 1 if vanishes(lo, eps * hi / BAND, "residual Gram matrix") else 2


#: The seven nontrivial bipartitions of four qubits, named by the qubits on
#: the row side of the reshaped amplitude matrix.
BIPARTITIONS = ((1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4))
_CUT_INDEX = {cut: _split_index(4, cut) for cut in BIPARTITIONS}


def _cut_minors(m) -> tuple:
    """Factor indices (i, j, k, l) of the 2x2 minors z[i] z[j] - z[k] z[l]
    of the index matrix ``m``, one per rows r < s and columns c < d."""
    return tuple((m[r][c], m[s][d], m[r][d], m[s][c])
                 for r, s in combinations(range(len(m)), 2)
                 for c, d in combinations(range(len(m[0])), 2))


#: The minors of each cut in ``BIPARTITIONS``: 28 for a single-qubit 2x8
#: cut, 36 for a pair 4x4 cut.
_MINOR_FACTORS = tuple(_cut_minors(_CUT_INDEX[cut]) for cut in BIPARTITIONS)

# Ranks without an SVD.  The screen asks of each cut only whether its rank
# is 1 (s2 <= eps s1) or 2 or more, and answers 1 or 2.  A cut matrix M has
# singular values s1 >= s2 >= .. and t = ||M||_F^2 = ||amps||^2, so
# s1^2 <= t, and by Cauchy-Binet e2 = sum |2x2 minor|^2 = sum_{i<j} si^2 sj^2:
# that is s1^2 s2^2 for a 2x8 cut and at most 6 s1^2 s2^2 for a 4x4 one.  A
# single-qubit cut has rank 2 when its closed form s2/s1 = sqrt(e2) / lmax,
# lmax the larger root of l^2 - t l + e2, exceeds eps.  For a pair cut
# (4 x 4, s1^2 <= t <= 4 s1^2) s2^2/s1^2 <= e2 / s1^4 <= 16 e2 / t^2.
# np.linalg.svd returns singular values off by at most p u s1 (backward
# stability and Weyl; u = 2^-53, p a small polynomial in the size: at most
# 4 measured on random and ill-conditioned 4x4 matrices against 40-digit
# references), so sv[1] > eps sv[0] holds when s2/s1 > eps + 2 p u and fails
# when s2/s1 < eps - 2 p u, for eps in (0, 1).
# Rounding (first order in u): each minor is off by at most
# (sqrt(5) + 1) u (|M_rc M_sd| + |M_rd M_sc|) <= 1.7 u t, which bounds the
# error of 4 sqrt(e2) by 13 u t; t itself is off by at most 32 u relative,
# |m|^2 = re^2 + im^2 by 2 u.  So, with T = max(K eps, F),
#   rank 2 when one minor has |m|^2 > c T^2 t^2 (c = 1 for a single-qubit
#          cut, 6 for a pair cut): s2/s1 > T (1 - 35 u) - 1.7 u,
#   rank 1 when eps > F and 16 e2 < (eps/K)^2 t^2: s2/s1 < (eps/K)(1 + 70 u) + 13 u,
# and each implies the SVD's answer, and the first the closed form's (whose
# own rounding is a few tens of u relative), for every eps in (0, 1) as
# soon as F (1 - 1/K - 35 u) >= (13 + 2 p) u.  K = 1e3 and F = 1e-12
# (~4500 u) hold it for p up to 2200; the factor K keeps the decided ranks
# far from eps.  The minors of a cut are summed only when none of them
# passes the first test; a pair cut that neither test decides goes to the
# SVD.  Below eps = F the minors' rounding can no longer be told from a
# rank of 2, so float ``classify4`` refuses such an eps.
# These comparisons stay sharp, outside kernels.vanishes: exact mode runs
# the screen at any eps and overrides a rank of 2 by an exact certificate,
# where a band would raise first on rounding alone (at eps = 1e-17 an exact
# single-qubit product reads s2/s1 up to 3.2 eps), and the screen's contract
# is the SVD count.
_RANK_K = 1e3
_RANK_FLOOR = 1e-12


def cut_matrix(state: PureState, cut) -> list:
    """Amplitude matrix of a 4-qubit state reshaped along the given cut, as
    a list of rows of complex numbers."""
    if state.n != 4:
        raise DimensionMismatch("bipartition cuts are defined for 4-qubit states")
    at = state.values.__getitem__
    return [list(map(at, row)) for row in _CUT_INDEX[tuple(cut)]]


#: Squared norms in [_NORM2_LO, _NORM2_HI] put the largest magnitude
#: (between sqrt(t)/4 and sqrt(t) for 16 amplitudes) inside the window of
#: ``kernels.SCALE_LO``, ``kernels.SCALE_HI``.
_NORM2_LO = 16.0 * SCALE_LO**2
_NORM2_HI = SCALE_HI**2


def _windowed(state: PureState, what: str):
    """``(state, ||amps||^2)``, with the state rescaled by an exact power of
    two when its largest magnitude lies outside the window, which only a
    squared norm outside [_NORM2_LO, _NORM2_HI] allows."""
    t = _norm2(state.values)
    if _NORM2_LO <= t <= _NORM2_HI:
        return state, t
    values, top = windowed(state.values)
    if top == 0.0:
        raise ZeroState(f"cannot {what} the zero state")
    return PureState._wrap(values, state.n), _norm2(values)


class CutRanks(dict):
    """Each of the seven ``BIPARTITIONS`` mapped to its rank capped at 2, as
    :func:`bipartition_ranks` decides it; ``state`` is the state that was
    ranked, rescaled into the window."""

    __slots__ = ("state",)


def bipartition_ranks(state: PureState, eps: float = DEFAULT_EPS) -> CutRanks:
    """Rank of the amplitude matrix along each of the 7 cuts, capped at 2:
    1 when sigma_2 <= eps sigma_1, else 2.

    A cut whose 2x2 minors include one large enough has rank 2 (see the
    bounds above).  Otherwise its squared minors are summed: a single-qubit
    cut compares the closed-form sigma_min/sigma_max with ``eps``, from the
    Gram determinant (that sum, so that exact rank deficiency is resolved to
    ~1e-16 rather than sqrt(machine eps)) and sigma_1^2 + sigma_2^2 = t, and
    a pair cut has rank 1 when the sum is small enough.  A pair cut that
    neither test decides goes to the SVD.
    """
    check_eps(eps)
    state, t = _windowed(as_state(state, 4), "rank")
    z = state.values
    big = (max(_RANK_K * eps, _RANK_FLOOR) * t) ** 2
    tol1 = (eps / _RANK_K) ** 2 * t * t if eps > _RANK_FLOOR else 0.0
    ranks = CutRanks()
    ranks.state = state
    for cut, minors in zip(BIPARTITIONS, _MINOR_FACTORS):
        single = len(cut) == 1
        bound = big if single else 6.0 * big
        e2 = 0.0
        for i, j, k, l in minors:
            m = z[i] * z[j] - z[k] * z[l]
            m2 = m.real * m.real + m.imag * m.imag
            if m2 > bound:
                ranks[cut] = 2
                break
            e2 += m2
        else:
            if single:
                lmax = 0.5 * (t + max(t * t - 4.0 * e2, 0.0) ** 0.5)
                ranks[cut] = 2 if e2**0.5 / lmax > eps else 1
            elif 16.0 * e2 < tol1:
                ranks[cut] = 1
            else:
                import numpy as np

                sv = np.linalg.svd(np.array(cut_matrix(state, cut)), compute_uv=False)
                ranks[cut] = 2 if sv[1] > eps * sv[0] else 1
    return ranks


# ---------------------------------------------------------------------------
# state JSON format: {"n": int, "amps": [[re, im], ...]} with 2^n entries

def state_to_json(state: PureState) -> dict:
    return {
        "n": state.n,
        "amps": [[z.real, z.imag] for z in state.values],
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
    vec = []
    for i, entry in enumerate(amps):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
        ):
            raise StateFormatError(f"amplitude {i} must be a [re, im] number pair")
        try:
            vec.append(complex(entry[0], entry[1]))
        except OverflowError:
            raise StateFormatError(f"amplitude {i} is too large for a float") from None
    return PureState(vec)


def load_state(fp) -> PureState:
    """Read a state from a file object or path.  A path that cannot be read,
    or holds no UTF-8 text, raises :class:`StateFormatError`."""
    if hasattr(fp, "read"):
        text = fp.read()
    else:
        try:
            with open(fp, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            # a UnicodeDecodeError has no strerror; its text names the byte
            raise StateFormatError(f"cannot read {fp}: {getattr(exc, 'strerror', None) or exc}") from exc
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
