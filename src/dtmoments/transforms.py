"""Truncated formal power series over exact rationals, and the series
identities tying the finite-block moment formulas to their compositional
inverses and to the free-cumulant picture.

A :class:`Series` holds coefficients by power, Fraction-valued by default.
Binary operations truncate to the shorter operand, so every identity below is
an exact coefficientwise statement up to the working order.  One solve of
w = z*Phi(w) converts moments to free cumulants and back, and reverts series;
on rational coefficients it rescales z -> dz so that every coefficient is an
integer, and divides each result by d^n once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd
from numbers import Number

from .exact import ComplexRational, order as read_order, parse_rational
from .quasinil import stn_moment, tstt_moment, ttn_moment


@dataclass(frozen=True)
class Series:
    """coeffs[i] is the coefficient of z^i; len(coeffs) is the truncation order."""

    coeffs: tuple

    def __post_init__(self):
        # ints and "p/q" strings are read exactly; other numbers stay, non-numbers raise
        coeffs = tuple(c if isinstance(c, (Number, ComplexRational)) and not isinstance(c, int)
                       else parse_rational(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_one_indexed(cls, values) -> "Series":
        """Series 0 + v_1 z + v_2 z^2 + ... from a 1-indexed coefficient list."""
        return cls((Fraction(0),) + tuple(values))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def truncate(self, order: int) -> "Series":
        order = read_order(order, "order", 0)
        if order <= len(self.coeffs):
            return Series(self.coeffs[:order])
        return Series(self.coeffs + (Fraction(0),) * (order - len(self.coeffs)))

    def __add__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series(tuple(self[i] + other[i] for i in range(n)))

    def __sub__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series(tuple(self[i] - other[i] for i in range(n)))

    def __mul__(self, other):
        if isinstance(other, Series):
            n = min(self.order, other.order)
            return Series(
                tuple(
                    sum((self[i] * other[k - i] for i in range(k + 1)), Fraction(0))
                    for k in range(n)
                )
            )
        return Series(tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def shift(self, by: int) -> "Series":
        """Multiply by z^by (by >= 0) or divide by z^{-by} (requires zero lows)."""
        by = read_order(by, "shift")
        if by >= 0:
            return Series((Fraction(0),) * by + self.coeffs)
        if any(c != 0 for c in self.coeffs[:-by]):
            raise ValueError("cannot shift down past nonzero coefficients")
        return Series(self.coeffs[-by:])

    def reciprocal(self) -> "Series":
        """1/self to the same order; needs a nonzero constant term."""
        a0 = self[0]
        if a0 == 0:
            raise ValueError("reciprocal needs a nonzero constant term")
        out = [1 / a0]
        for n in range(1, self.order):
            out.append(-sum(self[i] * out[n - i] for i in range(1, n + 1)) / a0)
        return Series(tuple(out))

    def compose(self, inner: "Series") -> "Series":
        """self(inner(z)); inner must vanish at 0."""
        if inner[0] != 0:
            raise ValueError("composition needs inner(0) = 0")
        n = min(self.order, inner.order)
        result = Series((Fraction(0),) * n)
        power = Series((Fraction(1),) + (Fraction(0),) * (n - 1))
        for i in range(n):
            result = result + power * self[i]
            power = (power * inner).truncate(n)
        return result

    def revert(self) -> "Series":
        """Compositional inverse g with self(g(z)) = z; needs f0=0, f1 != 0.

        With f(w) = f1 w h(w), G(u) = g(f1 u) solves G = u Phi(G) for Phi = 1/h,
        so G/u is the moment series M whose free cumulants are the coefficients
        of 1/h - 1, and g_(k+1) = M_k / f1^(k+1).
        """
        f1 = self[1]
        if self[0] != 0 or f1 == 0:
            raise ValueError("reversion needs f(0) = 0 and f'(0) != 0")
        phi = self.shift(-1).reciprocal() * f1  # 1/h
        m = (1, *free_cumulants_to_moments(Series((0, *phi.coeffs[1:]))).coeffs[1:])
        return Series((0, *(mk / f1 ** (k + 1) for k, mk in enumerate(m))))


# -- moment / free-cumulant conversion ---------------------------------------


def _moment_cumulant_solve(known: Series, known_are_moments: bool) -> Series:
    """The one series inversion: solve w = z Phi(w), Phi(w) = 1 + sum_s kappa_s w^s,
    for w = zM, M = 1 + m_1 z + ..., given the cumulants or the moments.

    Coefficientwise, m_n = sum_{s=1..n} kappa_s [z^n](zM)^s: the R-transform
    equation M(z) = 1 + R(zM(z)).  Row n of the table [z^n](zM)^s = [z^(n-s)] M^s
    needs only m_1..m_(n-1), and its diagonal entry [z^n](zM)^n = 1 isolates
    the unknown at index n.  The relation is weighted-homogeneous (z -> dz scales
    coefficient n by d^n on both sides), so on rational coefficients d is grown by
    the part of each denominator q_n that d^n leaves uncovered, never by an lcm,
    the table runs on the integers known[n] d^n, and each result is divided by
    d^n once.  Any other coefficient keeps d = 1 and its values as they are.
    """
    exact = all(isinstance(c, Fraction) for c in known.coeffs)
    d = 1
    for n, c in enumerate(known.coeffs if exact else ()):
        d *= c.denominator // gcd(c.denominator, d**n)
    scaled = [c.numerator * d**n // c.denominator if exact else c for n, c in enumerate(known.coeffs)]
    m, kappa = [1], [0]
    mpow = [[1] + [0] * known.order]  # mpow[s][k] = [z^k] M^s
    for n in range(1, known.order):
        mpow.append([])
        for s in range(1, n + 1):
            k = n - s
            mpow[s].append(sum(m[j] * mpow[s - 1][k - j] for j in range(k + 1)))
        rest = sum(kappa[s] * mpow[s][n - s] for s in range(1, n))
        kappa.append(scaled[n] - rest if known_are_moments else scaled[n])
        m.append(rest + kappa[n])
    solved = (kappa if known_are_moments else [0, *m[1:]])[: known.order]
    return Series(tuple(Fraction(x, d**n) if exact else x for n, x in enumerate(solved)))


def moments_to_free_cumulants(m: Series) -> Series:
    """Free cumulants of a moment sequence (both series are 1-indexed:
    coefficient 0 must be 0, coefficient n holds the n-th moment/cumulant).

    One pass of :func:`_moment_cumulant_solve`, shared with the inverse.
    """
    if m[0] != 0:
        raise ValueError("moment series must start at index 1 (m0 = 1 implied)")
    return _moment_cumulant_solve(m, known_are_moments=True)


def free_cumulants_to_moments(kappa: Series) -> Series:
    """Inverse of :func:`moments_to_free_cumulants`, same indexing and solve."""
    if kappa[0] != 0:
        raise ValueError("cumulant series must start at index 1")
    return _moment_cumulant_solve(kappa, known_are_moments=False)


# -- closed forms -------------------------------------------------------------


def r_transform_closed_form(order: int) -> Series:
    """Taylor coefficients about 0 of -1/((1-z) log(1-z)) - 1/z.

    The singularity at 0 is removable; coefficient j is the (j+1)-st free
    cumulant of the squared-generator spectral law.
    """
    order = read_order(order, "order", 1)
    n = order + 1
    log_over_z = Series(tuple(Fraction(1, j + 1) for j in range(n)))  # -log(1-z)/z
    one_minus_z = Series((Fraction(1), Fraction(-1)) + (Fraction(0),) * (n - 2))
    a = one_minus_z * log_over_z  # -(1-z) log(1-z) / z
    r_shifted = a.reciprocal() - Series((Fraction(1),) + (Fraction(0),) * (n - 1))
    return r_shifted.shift(-1).truncate(order)


def _inverse_check(moments, closed, order: int) -> bool:
    """Does reverting t/D(t), D(t) = 1 - sum_p moments(p) t^(p+1), give
    sum_j closed(j) z^(j+1) up to ``order``?  The reverse is g = z D(g), so g/z
    is the moment series with free cumulants kappa_s = -moments(s-1)."""
    kappa = Series((Fraction(0), *(-moments(p) for p in range(order - 1))))
    want = Series.from_one_indexed(closed(j) for j in range(1, order))
    return closed(0) == 1 and free_cumulants_to_moments(kappa) == want


def kn_inverse_check(N: int, order: int) -> bool:
    """Does reverting t/(1 - sum alpha_N(p) t^{p+1}) give z (1 + z/N)^{-N}?"""
    N, order = read_order(N, "N", 1), read_order(order, "order", 1)
    return _inverse_check(lambda p: stn_moment(N, p),
                          lambda j: Fraction((-1) ** j * comb(N + j - 1, j), N**j), order)


def ln_inverse_check(N: int, order: int) -> bool:
    """Does reverting t/(1 - sum beta_N(p) t^{p+1}) give z (1 - z/N)^N?"""
    N, order = read_order(N, "N", 1), read_order(order, "order", 1)
    return _inverse_check(lambda p: ttn_moment(N, p),
                          lambda j: Fraction(comb(N, j) * (-1) ** j, N**j), order)


def l_limit_inverse_check(order: int) -> bool:
    """Does the limit transfer series (with moments p^p/(p+1)!) invert to z e^{-z}?"""
    order = read_order(order, "order", 1)
    return _inverse_check(tstt_moment, lambda j: Fraction((-1) ** j, factorial(j)), order)


def finite_n_r_relation_check(N: int, order: int) -> bool:
    """Coefficientwise check that the R-series of the full and strict block
    moment families differ by the free Poisson term 1/(N(1-z))."""
    N, order = read_order(N, "N", 1), read_order(order, "order", 1)
    r_mu = moments_to_free_cumulants(
        Series.from_one_indexed(tuple(stn_moment(N, p) for p in range(1, order + 1)))
    )
    r_nu = moments_to_free_cumulants(
        Series.from_one_indexed(tuple(ttn_moment(N, p) for p in range(1, order + 1)))
    )
    return all(r_nu[j] - r_mu[j] == Fraction(1, N) for j in range(1, order + 1))
