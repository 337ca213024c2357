"""Exact complex-rational scalars and tagged moment values.

All closed-form moment computations in this package run over Gaussian
rationals (pairs of :class:`fractions.Fraction` for the real and imaginary
parts).  :func:`parse_rational` reads every exact input, :func:`as_cq` every
location, value or factor, :func:`positive` every scale or radius and
:func:`order` every count, order, exponent, size or seed, with its least value
and its cap.  Mixing a :class:`ComplexRational` with a float or complex operand
degrades to ``complex``, as ``Fraction`` does with ``float``.  :func:`tagged` is
the one tag rule, of ``MomentValue.wrap`` and the shape models: a rational is
exact and anything else complex, so exactness is never silently claimed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import CapExceededError


def parse_rational(s) -> Fraction:
    """Parse "p/q" strings, rationals and integer-valued floats into Fractions;
    a non-integer float is refused, as it is not exact, and so is a boolean."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, bool):
        raise TypeError(f"a boolean {s!r} is not a number")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, float):
        if s.is_integer():
            return Fraction(int(s))
        raise TypeError(f"non-integer float {s!r} is not exact; pass a 'p/q' string")
    if isinstance(s, str):
        return Fraction(s.strip())
    if isinstance(s, Rational):
        return Fraction(s)
    raise TypeError(f"cannot parse rational from {s!r}")


def positive(x, what: str) -> Fraction | float:
    """A scale or radius in (0, inf): a float stays a float, anything else is
    read by :func:`parse_rational`."""
    x = x if isinstance(x, float) else parse_rational(x)
    if not 0 < x < math.inf:
        raise ValueError(f"{what} must be positive and finite")
    return x


def order(x, what: str = "order", least: int | None = None, most: int | None = None) -> int:
    """A count, order, exponent, size or seed, read exactly: 2, 2.0 and "2"
    read as 2; a boolean, a non-integer or a value below ``least`` raises, and
    a value above the cap ``most`` raises ``CapExceededError``."""
    if type(x) is not int:
        q = parse_rational(x)
        if q.denominator != 1:
            raise ValueError(f"{what} {x!r} is not an integer")
        x = int(q)
    if least is not None and x < least:
        raise ValueError(f"{what} must be >= {least}")
    if most is not None and x > most:
        raise CapExceededError(f"{what} {x} exceeds the cap of {most}")
    return x


@dataclass(frozen=True)
class ComplexRational:
    """A Gaussian rational re + im*i with exact Fraction components."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", parse_rational(self.re))
        object.__setattr__(self, "im", parse_rational(self.im))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ComplexRational):
            return other
        if isinstance(other, (int, Fraction, Rational)) and not isinstance(other, bool):
            return ComplexRational(other)
        return None  # float/complex handled by the caller

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return self.to_complex() + other
        return ComplexRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-other if isinstance(other, ComplexRational) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return self.to_complex() * other
        if not (self.im or o.im):  # two reals: one Fraction product
            return ComplexRational(self.re * o.re)
        return ComplexRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return self.to_complex() / other
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return other / self.to_complex()
        return o / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers are exact")
        out = ComplexRational(Fraction(1))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (float, complex)):  # exactly, as Fraction compares with float
            return self.re == other.real and self.im == other.imag
        o = self._coerce(other)
        return NotImplemented if o is None else self.re == o.re and self.im == o.im

    def __hash__(self):
        # Python's hash of a complex number, so that equal int, Fraction,
        # float and complex values hash alike
        h = hash(self.re) + sys.hash_info.imag * hash(self.im)
        top = 1 << (sys.hash_info.width - 1)
        h = (h & (top - 1)) - (h & top)
        return -2 if h == -1 else h

    # -- views --------------------------------------------------------------

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def abs_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_real(self) -> bool:
        return self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


def as_cq(x) -> ComplexRational:
    """A location, value or factor: a ``ComplexRational``, or else its real part."""
    return x if isinstance(x, ComplexRational) else ComplexRational(x)


def tagged(v) -> ComplexRational | complex:
    """A raw scalar as a moment: a rational exact (``ComplexRational``), any other number complex."""
    if isinstance(v, Rational):
        return ComplexRational(Fraction(v))
    return v if isinstance(v, ComplexRational) else complex(v)


CQ_ZERO = ComplexRational()
CQ_ONE = ComplexRational(Fraction(1))


def rational_sqrt(q: Fraction):
    """Exact square root of a nonnegative rational, or a float fallback.

    Returns a Fraction when q is a perfect rational square, else float(sqrt).
    """
    if q < 0:
        raise ValueError("negative operand")
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return math.sqrt(q)


@dataclass(frozen=True)
class MomentValue:
    """A computed moment: exact when ``value`` is a ComplexRational, float
    when it is a complex."""

    value: ComplexRational | complex

    def __post_init__(self):
        if not isinstance(self.value, (ComplexRational, complex)):
            raise TypeError(f"a moment holds a ComplexRational or a complex, not {self.value!r}")

    @classmethod
    def wrap(cls, v) -> "MomentValue":
        """Tag a raw scalar by :func:`tagged`: rationals become exact, other numbers float."""
        return cls(tagged(v))

    @property
    def exact(self) -> bool:
        return isinstance(self.value, ComplexRational)

    @property
    def backend(self) -> str:
        return "exact" if self.exact else "float"

    def as_complex(self) -> complex:
        return self.value.to_complex() if self.exact else self.value

    def as_fraction(self) -> Fraction:
        """The value as an exact real rational; raises if float or non-real."""
        if not self.exact:
            raise ValueError("not an exact value")
        if not self.value.is_real():
            raise ValueError("value has a nonzero imaginary part")
        return self.value.re


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)
