"""Canonical representative states for every reachable class.

Two of the families are parameterized: a one-parameter family whose
pencil spans a biseparable vector and a W vector with no GHZ or
separable elements, and a three-parameter family whose pencil contains
only W vectors.  The remaining eight 4-qubit representatives are simple
fixed states; none of them is trusted by citation, each is validated by
the classifier itself in the test suite.
"""

import math
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import ConstraintViolation, DimensionMismatch, Slocc4Error
from .kernels import SCALE_HI, SCALE_LO
from .qstate import LocalOperator, PureState, SloccOp

GHZ3 = (1, 0, 0, 0, 0, 0, 0, 1)
W3 = (0, 1, 1, 0, 1, 0, 0, 0)

#: 3-qubit canonical representatives.
TRI_STATES = {
    "GHZ": GHZ3,
    "W": W3,
    "Sep000": (1, 0, 0, 0, 0, 0, 0, 0),
    "Bisep1": (0, 1, 1, 0, 0, 0, 0, 0),  # qubit 1 x (|01>+|10>)
    "Bisep2": (0, 1, 0, 0, 1, 0, 0, 0),  # qubit 2 x (|01>+|10>) on 1,3
    "Bisep3": (0, 0, 1, 0, 1, 0, 0, 0),  # qubit 3 x (|01>+|10>) on 1,2
}


def okpsi_w_phi0(lam: complex) -> np.ndarray:
    """phi0 of the one-parameter family: (lam|0>+|1>)(-lam|00>+|01>+|10>)."""
    lam = complex(lam)
    return np.kron(
        np.array([lam, 1], dtype=np.complex128),
        np.array([-lam, 1, 1, 0], dtype=np.complex128),
    )


def ww_phi0(mu: complex, a3: complex, a5: complex, sign: int) -> np.ndarray:
    """phi0 of the three-parameter family.

    The square root is the principal branch (nonnegative real part,
    positive imaginary part on the negative real axis); the +/- choice is
    the explicit ``sign`` argument.
    """
    mu, a3, a5 = complex(mu), complex(a3), complex(a5)
    if sign not in (1, -1):
        raise ConstraintViolation("sign must be +1 or -1")
    if a3 == 0:
        raise ConstraintViolation("a3 != 0 violated")
    if a5 == 0:
        raise ConstraintViolation("a5 != 0 violated")
    # outside the scale window, a3 and a5 are divided by the power of two
    # that brings their largest part into [0.5, 1), so that a3 a5 and the
    # products of a4 stay in range: root is sqrt(b3 b5) times that power,
    # which keeps its branch, and a4 is of degree 0 in (a3, a5, root)
    top = max(abs(a3.real), abs(a3.imag), abs(a5.real), abs(a5.imag))
    k = 0 if SCALE_LO <= top <= SCALE_HI else math.frexp(top)[1]
    b3, b5 = _ldexp(a3, -k), _ldexp(a5, -k)
    b_root = sign * np.sqrt(b3 * b5)
    root = _ldexp(b_root, k)
    a6 = a3 + a5 + 2 * root
    if a6 == 0:
        raise ConstraintViolation(
            "a3 + a5 +/- 2*sqrt(a3*a5) != 0 violated for the chosen branch"
        )
    a0 = -(mu * mu) / (4 * a3)
    a4 = mu * (b5 * (b3 + b_root)) / (b3 * (b5 + b_root))
    return np.array([a0, 0, -mu, a3, a4, a5, a6, 0], dtype=np.complex128)


def _ldexp(z, k) -> complex:
    """z times 2^k, exactly while the parts stay normal floats (a part that
    overflows reads inf)."""
    return complex(np.ldexp(z.real, k), np.ldexp(z.imag, k))


def _assemble(phi0, phi1) -> PureState:
    """|0> phi0 + |1> phi1 as a 4-qubit state."""
    return PureState(np.concatenate([np.asarray(phi0, dtype=np.complex128),
                                     np.asarray(phi1, dtype=np.complex128)]))


def _pencil_fixed(phi0, phi1):
    def build(params, sign):
        return np.array(phi0, dtype=np.complex128), np.array(phi1, dtype=np.complex128)

    return build


def _pencil_okpsi_w(params, sign):
    return okpsi_w_phi0(params["lambda"]), np.array(W3, dtype=np.complex128)


def _pencil_ww(params, sign):
    return (ww_phi0(params["mu"], params["a3"], params["a5"], sign),
            np.array(W3, dtype=np.complex128))


#: Pencil builders (phi0, phi1) for the ten 4-qubit superclasses.
FAMILY_PENCILS = {
    "W000_000": _pencil_fixed((1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 1)),
    "W000_0Psi": _pencil_fixed((1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1, 1, 0)),
    "W000_GHZ": _pencil_fixed((1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 1, 1, 0)),
    "W000_W": _pencil_fixed((1, 0, 0, 0, 0, 0, 0, 0), W3),
    "W0kPsi_0kPsi": _pencil_fixed((1, 0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1, 1, 0)),
    "W0iPsi_0jPsi": _pencil_fixed((1, 0, 0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 1, 0, 0, 0)),
    "W0Psi_GHZ": _pencil_fixed((0, 1, 1, 0, 0, 0, 0, 0), GHZ3),
    "W0kPsi_W": _pencil_okpsi_w,
    "WGHZ_W": _pencil_fixed(GHZ3, W3),
    "WW_W": _pencil_ww,
}

#: Parameters of the two parameterized families, with their defaults; the
#: other families, 3-qubit tags included, take none.
FAMILY_PARAMS = {"W0kPsi_W": {"lambda": 0}, "WW_W": {"mu": 0, "a3": 1, "a5": 1}}

#: Cut subscripts the fixed representatives are expected to carry.
FAMILY_CUTS = {
    "W0kPsi_0kPsi": (1,),
    "W0iPsi_0jPsi": (1, 3),
    "W0Psi_GHZ": (1,),
    "W0kPsi_W": (1,),
}


class FamilySpec(NamedTuple):
    """A canonical family member: tag plus named complex parameters."""

    family: str
    params: dict = MappingProxyType({})  # read-only: one default for every spec
    sign: int = 1


def _family_params(spec: FamilySpec) -> dict:
    """The spec's parameters over its family's defaults; raises
    :class:`ConstraintViolation` for a name the family does not take, and
    for a sign other than +1 on a family without a sign branch (all but
    ``WW_W``)."""
    if spec.sign != 1 and spec.family != "WW_W":
        raise ConstraintViolation(f"family {spec.family} has no sign branch; sign must be +1")
    defaults = FAMILY_PARAMS.get(spec.family, {})
    unknown = spec.params.keys() - defaults.keys()
    if unknown:
        raise ConstraintViolation(
            f"family {spec.family} does not take parameters {sorted(unknown)}")
    return {**defaults, **spec.params}


def canonical_pencil(spec: FamilySpec):
    """The (phi0, phi1) pencil of a 4-qubit canonical family member."""
    try:
        builder = FAMILY_PENCILS[spec.family]
    except KeyError:
        raise Slocc4Error(f"unknown 4-qubit family {spec.family!r}") from None
    params = _family_params(spec)
    # an amplitude that overflows reads inf or nan, which PureState reports
    with np.errstate(all="ignore"):
        return builder(params, spec.sign)


def make_canonical(spec: FamilySpec) -> PureState:
    """Exact amplitude vector of a canonical family member.

    4-qubit families assemble |0> phi0 + |1> phi1 from their pencil;
    3-qubit tags return the fixed representatives.  A parameter name the
    family does not take, or a sign -1 on a family other than ``WW_W``,
    raises :class:`ConstraintViolation`.
    """
    if spec.family in TRI_STATES:
        _family_params(spec)
        return PureState(np.array(TRI_STATES[spec.family], dtype=np.complex128))
    phi0, phi1 = canonical_pencil(spec)
    return _assemble(phi0, phi1)


def random_slocc(n: int, max_condition: float = 1e3, seed=None) -> SloccOp:
    """Random SLOCC element with bounded distortion.

    Each per-qubit operator is U diag(t, 1/t) V* with Haar-random unitaries
    U, V and t chosen log-uniformly so that the condition number of the
    full tensor-product operator (the product of the per-qubit condition
    numbers) stays below ``max_condition``.  Determinants have unit
    magnitude, which keeps verdict margins independent of an arbitrary
    scale; singular values always lie in
    [1/sqrt(max_condition), sqrt(max_condition)].  ``n`` must be 1 to 4 and
    ``max_condition`` finite and at least 1.
    """
    if n not in range(1, 5):
        raise DimensionMismatch(f"random_slocc needs 1 to 4 qubits, got n={n}")
    if not 1 <= max_condition < math.inf:
        raise Slocc4Error("max_condition must be finite and >= 1")
    rng = np.random.default_rng(seed)
    wmax = np.log10(max_condition) / (2 * n)
    t = 10.0 ** rng.uniform(0.0, wmax, size=n)
    u = _haar_unitaries(rng, n)
    v = _haar_unitaries(rng, n)
    sv = np.zeros((n, 2, 2))
    sv[:, 0, 0] = t
    sv[:, 1, 1] = 1.0 / t
    mats = u @ sv @ np.conj(np.swapaxes(v, 1, 2))
    return SloccOp(tuple(LocalOperator(m) for m in mats))


def _haar_unitaries(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]
