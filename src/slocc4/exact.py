"""Exact Gaussian-rational arithmetic.

Every finite float is a dyadic rational, so any float amplitude vector
lifts exactly to Gaussian rationals (pairs of :class:`fractions.Fraction`).
Exact mode performs all zero tests in this ring, where vanishing is decided
without tolerances, by evaluating the float path's formulas from
:mod:`slocc4.kernels` on these numbers.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import kernels

_ZERO = Fraction(0)


@dataclass(frozen=True)
class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @classmethod
    def from_complex(cls, z) -> "GaussianRational":
        z = complex(z)
        return cls(Fraction(z.real), Fraction(z.imag))

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|z|^2 as an exact Fraction."""
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # real scalars, such as the integer constants of the formulas
            return GaussianRational(self.re * other, self.im * other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re / other, self.im / other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        d = other.abs2()
        if not d:
            raise ZeroDivisionError("division by zero Gaussian rational")
        num = self * other.conjugate()
        return GaussianRational(num.re / d, num.im / d)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __bool__(self):
        return not self.is_zero

    def __complex__(self):
        return complex(float(self.re), float(self.im))


GR_ONE = GaussianRational(Fraction(1), _ZERO)


def lift(amps) -> tuple:
    """Exact dyadic-rational lift of a float amplitude vector."""
    return tuple(GaussianRational.from_complex(z) for z in amps)


def snap_complex(z, max_den: int = 10**12) -> GaussianRational:
    """Nearest simple Gaussian rational to a float complex number.

    Used to recover exact root coordinates from floating-point root finding;
    callers must verify the snapped value exactly before trusting it.
    """
    z = complex(z)
    return GaussianRational(
        Fraction(z.real).limit_denominator(max_den),
        Fraction(z.imag).limit_denominator(max_den),
    )


def _at_nodes(formula, phi0, phi1, nodes) -> list:
    """``formula`` of the pencil element ``x phi0 + y phi1`` at each node."""
    return [formula(*(x * p + y * q for p, q in zip(phi0, phi1))) for x, y in nodes]


def quartic_exact(phi0, phi1) -> tuple:
    """Exact coefficients (x^4, x^3 y, x^2 y^2, x y^3, y^4) of the GHZ
    criterion on the pencil of two lifted vectors."""
    return kernels.quartic_coefficients(*_at_nodes(kernels.ghz, phi0, phi1, kernels.NODES))


def clause_quadratics_exact(phi0, phi1) -> tuple:
    """Exact (alpha, beta, gamma) triples of the six clause quantities as
    quadratic forms alpha x^2 + beta xy + gamma y^2 on the pencil."""
    values = _at_nodes(kernels.clauses, phi0, phi1, kernels.NODES[:3])
    return tuple(kernels.quadratic_coefficients(*t) for t in zip(*values))


def exact_rank(rows) -> int:
    """Rank of a matrix of Gaussian rationals by exact Gaussian elimination."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, nrows):
            if not mat[r][col].is_zero:
                pivot = r
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = GR_ONE / mat[row][col]
        for r in range(row + 1, nrows):
            if mat[r][col].is_zero:
                continue
            factor = mat[r][col] * inv
            for c in range(col, ncols):
                mat[r][c] = mat[r][c] - factor * mat[row][c]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank
