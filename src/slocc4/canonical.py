"""Canonical representative states for every reachable class.

Two of the families are parameterized: a one-parameter family whose
pencil spans a biseparable vector and a W vector with no GHZ or
separable elements, and a three-parameter family whose pencil contains
only W vectors.  The remaining eight 4-qubit representatives are simple
fixed states; none of them is trusted by citation, each is validated by
the classifier itself in the test suite.

The builders write each amplitude in closed form on Python ``complex``
numbers, the representation ``PureState.values`` holds, so building a
member loads no numpy; only ``random_slocc`` imports it.
"""

import cmath
import math
from types import MappingProxyType
from typing import NamedTuple

from .errors import ConstraintViolation, DimensionMismatch, Slocc4Error
from .qstate import LocalOperator, PureState, SloccOp, complex_values

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


def okpsi_w_phi0(lam: complex) -> tuple:
    """phi0 of the one-parameter family: (lam|0>+|1>)(-lam|00>+|01>+|10>)."""
    lam = complex(lam)
    return (lam * -lam, lam, lam, 0j, -lam, 1 + 0j, 1 + 0j, 0j)


def ww_phi0(mu: complex, a3: complex, a5: complex, sign: int) -> tuple:
    """phi0 of the three-parameter family.

    With r = sign sqrt(a3 a5) it is (a0, 0, -mu, a3, a4, a5, a6, 0) for
    a0 = -mu^2 / (4 a3), a4 = mu r / a3 and a6 = a3 + a5 + 2 r.  The ratio
    a4 = mu a5 (a3 + r) / (a3 (a5 + r)) is the same number wherever a6 != 0,
    since r^2 = a3 a5 gives a5 (a3 + r) = r (r + a5).  The square root is
    the principal branch (nonnegative real part, positive imaginary part on
    the negative real axis); the +/- choice is the explicit ``sign``
    argument.
    """
    mu, a3, a5 = complex(mu), complex(a3), complex(a5)
    if sign not in (1, -1):
        raise ConstraintViolation("sign must be +1 or -1")
    if a3 == 0:
        raise ConstraintViolation("a3 != 0 violated")
    if a5 == 0:
        raise ConstraintViolation("a5 != 0 violated")
    # mu = m 4^km, a3 = b3 4^k3 and a5 = b5 4^k5 with the larger parts of
    # m, b3 and b5 in [1/4, 1), so that each amplitude leaves the normal
    # float range only at its last power of two; sqrt(a3 a5) = sqrt(b3 b5)
    # 2^(k3 + k5) keeps the branch, since 4^(k3 + k5) > 0
    (m, km), (b3, k3), (b5, k5) = map(_frexp4, (mu, a3, a5))
    root = sign * cmath.sqrt(b3 * b5)
    a6 = a3 + a5 + 2 * _ldexp(root, k3 + k5)
    if a6 == 0:
        raise ConstraintViolation("a3 + a5 +/- 2*sqrt(a3*a5) != 0 violated for the chosen branch")
    return (_ldexp(-m * (m / b3) / 4, 4 * km - 2 * k3), 0j, -mu, a3,
            _ldexp(m * (root / b3), 2 * km + k5 - k3), a5, a6, 0j)


def _frexp4(z: complex) -> tuple:
    """(b, k) with z = b 4^k and the larger part of b in [1/4, 1), or (0, 0)."""
    k = (math.frexp(max(abs(z.real), abs(z.imag)))[1] + 1) // 2
    return _ldexp(z, -2 * k), k


def _ldexp(z: complex, k: int) -> complex:
    """z times 2^k, rounded once; a part beyond the float range reads inf."""
    try:
        return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))
    except OverflowError:
        return complex(math.inf, math.inf)


#: Pencils (phi0, phi1) of the ten 4-qubit superclasses: the fixed ones as
#: pairs, the two parameterized ones as builders of (params, sign).
FAMILY_PENCILS = {
    "W000_000": ((1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 1)),
    "W000_0Psi": ((1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1, 1, 0)),
    "W000_GHZ": ((1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 1, 1, 0)),
    "W000_W": ((1, 0, 0, 0, 0, 0, 0, 0), W3),
    "W0kPsi_0kPsi": ((1, 0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1, 1, 0)),
    "W0iPsi_0jPsi": ((1, 0, 0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 1, 0, 0, 0)),
    "W0Psi_GHZ": ((0, 1, 1, 0, 0, 0, 0, 0), GHZ3),
    "W0kPsi_W": lambda p, sign: (okpsi_w_phi0(p["lambda"]), W3),
    "WGHZ_W": (GHZ3, W3),
    "WW_W": lambda p, sign: (ww_phi0(p["mu"], p["a3"], p["a5"], sign), W3),
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


def canonical_pencil(spec: FamilySpec) -> tuple:
    """The (phi0, phi1) pencil of a 4-qubit canonical family member, as two
    tuples of complex amplitudes."""
    try:
        pencil = FAMILY_PENCILS[spec.family]
    except KeyError:
        raise Slocc4Error(f"unknown 4-qubit family {spec.family!r}") from None
    params = _family_params(spec)
    phi0, phi1 = pencil(params, spec.sign) if callable(pencil) else pencil
    return complex_values(phi0), complex_values(phi1)


def make_canonical(spec: FamilySpec) -> PureState:
    """Exact amplitude vector of a canonical family member.

    4-qubit families concatenate phi0 and phi1 of their pencil into
    |0> phi0 + |1> phi1; 3-qubit tags return the fixed representatives.  A
    parameter name the family does not take, or a sign -1 on a family other
    than ``WW_W``, raises :class:`ConstraintViolation`; an amplitude that
    overflows raises :class:`StateFormatError` from :class:`PureState`.
    """
    if spec.family in TRI_STATES:
        _family_params(spec)
        return PureState(TRI_STATES[spec.family])
    phi0, phi1 = canonical_pencil(spec)
    return PureState(phi0 + phi1)


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
    import numpy as np

    rng = np.random.default_rng(seed)
    wmax = np.log10(max_condition) / (2 * n)
    t = 10.0 ** rng.uniform(0.0, wmax, size=n)

    def haar_unitaries():
        z = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=1, axis2=2)
        return q * (d / np.abs(d))[:, None, :]

    u, v = haar_unitaries(), haar_unitaries()
    sv = np.zeros((n, 2, 2))
    sv[:, 0, 0] = t
    sv[:, 1, 1] = 1.0 / t
    mats = u @ sv @ np.conj(np.swapaxes(v, 1, 2))
    return SloccOp(tuple(LocalOperator(m) for m in mats))
