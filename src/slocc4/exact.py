"""Exact Gaussian-dyadic arithmetic.

Every finite float is m 2^e with an integer m, so any float amplitude
vector lifts exactly to numbers (re + i im) 2^e with integers re, im and e.
Exact mode performs all zero tests in this ring, where vanishing is decided
without tolerances, by evaluating the float path's formulas from
:mod:`slocc4.kernels` on these numbers.  The formulas use only ring
operations and integer constants, so the ring needs no division: the
coefficients of the pencil quartic and of the clause forms are integer
polynomials in the amplitudes.
"""

from . import kernels


class GaussianRational:
    """The complex number (re + i im) 2^e, with Python ints re, im and e.

    Numbers compare by value: (2, 0, 0) equals (1, 0, 1)."""

    __slots__ = ("re", "im", "e")

    def __init__(self, re: int, im: int = 0, e: int = 0):
        self.re = re
        self.im = im
        self.e = e

    @classmethod
    def from_complex(cls, z) -> "GaussianRational":
        z = complex(z)
        (re, dre), (im, dim) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
        d = max(dre, dim)  # the denominators are powers of two
        return cls(re * (d // dre), im * (d // dim), 1 - d.bit_length())

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __add__(self, other):
        d = self.e - other.e
        if d >= 0:
            return GaussianRational((self.re << d) + other.re, (self.im << d) + other.im, other.e)
        return GaussianRational(self.re + (other.re << -d), self.im + (other.im << -d), self.e)

    def __sub__(self, other):
        d = self.e - other.e
        if d >= 0:
            return GaussianRational((self.re << d) - other.re, (self.im << d) - other.im, other.e)
        return GaussianRational(self.re - (other.re << -d), self.im - (other.im << -d), self.e)

    def __mul__(self, other):
        if isinstance(other, int):
            # the integer constants of the formulas
            return GaussianRational(self.re * other, self.im * other, self.e)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
            self.e + other.e,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return (self - other).is_zero

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self):
        """The nearest complex number, each part rounded correctly."""
        if self.e >= 0:
            return complex(float(self.re << self.e), float(self.im << self.e))
        den = 1 << -self.e
        return complex(self.re / den, self.im / den)

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im}, {self.e})"


GR_ONE = GaussianRational(1)


def lift(amps) -> tuple:
    """Exact dyadic lift of a float amplitude vector."""
    return tuple(map(GaussianRational.from_complex, amps))


def snap_complex(z) -> tuple:
    """Homogeneous coordinates (num : den) of the nearest Gaussian rational
    with denominators at most 10^12 to a float complex number: a Gaussian
    integer and a positive integer.  Used to recover exact root coordinates
    from floating-point root finding; callers must verify the snapped value
    exactly."""
    from fractions import Fraction

    z = complex(z)
    re = Fraction(z.real).limit_denominator(10**12)
    im = Fraction(z.imag).limit_denominator(10**12)
    return (GaussianRational(re.numerator * im.denominator, im.numerator * re.denominator),
            GaussianRational(re.denominator * im.denominator))


def quartic_exact(phi0, phi1) -> tuple:
    """Exact coefficients (x^4, x^3 y, x^2 y^2, x y^3, y^4) of the GHZ
    criterion on the pencil of two lifted vectors."""
    return kernels.pencil_quartic(phi0, phi1)


def clause_quadratics_exact(phi0, phi1) -> tuple:
    """Exact (alpha, beta, gamma) triples of the six clause quantities as
    quadratic forms alpha x^2 + beta xy + gamma y^2 on the pencil."""
    return kernels.pencil_clause_forms(phi0, phi1)


def exact_rank(values, minors) -> int:
    """Rank, capped at 2, of a matrix of Gaussian dyadic numbers given by its
    entries ``values`` and the factor indices (i, j, k, l) of its 2x2
    minors values[i] values[j] - values[k] values[l]: 2 at the first minor
    that does not vanish, else 1 when some entry is nonzero, else 0."""
    for i, j, k, l in minors:
        if values[i] * values[j] - values[k] * values[l]:
            return 2
    return 1 if any(values) else 0
