"""Truncated formal power series over exact rationals, and the series
identities tying the finite-block moment formulas to their compositional
inverses and to the free-cumulant picture.

A :class:`Series` holds coefficients by power, Fraction-valued by default.
Binary operations truncate to the shorter operand, so every identity below is
an exact coefficientwise statement up to the working order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .quasinil import stn_moment, tstt_moment, ttn_moment


@dataclass(frozen=True)
class Series:
    """coeffs[i] is the coefficient of z^i; len(coeffs) is the truncation order."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "coeffs",
            tuple(Fraction(c) if isinstance(c, int) else c for c in self.coeffs),
        )

    @classmethod
    def from_one_indexed(cls, values, order: int | None = None) -> "Series":
        """Series 0 + v_1 z + v_2 z^2 + ... from a 1-indexed coefficient list."""
        values = tuple(values)
        if order is not None:
            values = values[:order]
        return cls((Fraction(0),) + values)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, i: int):
        return self.coeffs[i] if i < len(self.coeffs) else Fraction(0)

    def truncate(self, order: int) -> "Series":
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
        """Compositional inverse g with self(g(z)) = z; needs f0=0, f1 != 0."""
        if self[0] != 0 or self[1] == 0:
            raise ValueError("reversion needs f(0) = 0 and f'(0) != 0")
        n = self.order
        g = [Fraction(0)] * n
        if n > 1:
            g[1] = 1 / self[1]
        for m in range(2, n):
            h = self.truncate(m + 1).compose(Series(tuple(g[: m + 1])))
            g[m] = -h[m] / self[1]
        return Series(tuple(g))


# -- moment / free-cumulant conversion ---------------------------------------


def moments_to_free_cumulants(m: Series) -> Series:
    """Free cumulants of a moment sequence (both series are 1-indexed:
    coefficient 0 must be 0, coefficient n holds the n-th moment/cumulant).

    Uses the coefficient recursion from M(z) = C(z*M(z)) with M the moment
    generating series with constant term 1 and C the cumulant series: the
    coefficient of z^n isolates kappa_n because z*M(z) has unit linear term.
    """
    if m[0] != 0:
        raise ValueError("moment series must start at index 1 (m0 = 1 implied)")
    order = m.order - 1
    big_m = Series((Fraction(1),) + m.coeffs[1:])  # 1 + m1 z + ...
    f = big_m.shift(1).truncate(order + 1)  # z*M(z)
    powers = [None, f]
    for s in range(2, order + 1):
        powers.append((powers[-1] * f).truncate(order + 1))
    kappa = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        acc = m[n]
        for s in range(1, n):
            acc -= kappa[s] * powers[s][n]
        kappa[n] = acc  # [z^n] f^n = 1
    return Series(tuple(kappa))


def free_cumulants_to_moments(kappa: Series) -> Series:
    """Inverse of :func:`moments_to_free_cumulants`, same indexing."""
    if kappa[0] != 0:
        raise ValueError("cumulant series must start at index 1")
    order = kappa.order - 1
    m = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        f = Series((Fraction(0), Fraction(1)) + tuple(m[1:n])).truncate(n + 1)
        power = f
        acc = Fraction(0)
        for s in range(1, n + 1):
            acc += kappa[s] * power[n]
            power = (power * f).truncate(n + 1)
        m[n] = acc
    return Series(tuple(m))


# -- closed forms -------------------------------------------------------------


def r_transform_closed_form(order: int) -> Series:
    """Taylor coefficients about 0 of -1/((1-z) log(1-z)) - 1/z.

    The singularity at 0 is removable; coefficient j is the (j+1)-st free
    cumulant of the squared-generator spectral law.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    n = order + 1
    log_over_z = Series(tuple(Fraction(1, j + 1) for j in range(n)))  # -log(1-z)/z
    one_minus_z = Series((Fraction(1), Fraction(-1)) + (Fraction(0),) * (n - 2))
    a = one_minus_z * log_over_z  # -(1-z) log(1-z) / z
    r_shifted = a.reciprocal() - Series((Fraction(1),) + (Fraction(0),) * (n - 1))
    return r_shifted.shift(-1).truncate(order)


def _moment_transfer(moments, order: int) -> Series:
    """The series t / (1 - sum_p moments(p) t^{p+1}) truncated past ``order``."""
    denom = Series(
        (Fraction(1),) + tuple(-moments(p) for p in range(order))
    ).truncate(order + 1)
    return Series((Fraction(0), Fraction(1))).truncate(order + 1) * denom.reciprocal()


def kn_inverse_check(N: int, order: int) -> bool:
    """Does reverting t/(1 - sum alpha_N(p) t^{p+1}) give z (1 + z/N)^{-N}?"""
    k = _moment_transfer(lambda p: stn_moment(N, p), order)
    closed = Series(
        (Fraction(0),)
        + tuple(
            Fraction((-1) ** j * comb(N + j - 1, j), N**j) for j in range(order)
        )
    )
    return k.revert() == closed.truncate(order + 1)


def ln_inverse_check(N: int, order: int) -> bool:
    """Does reverting t/(1 - sum beta_N(p) t^{p+1}) give z (1 - z/N)^N?"""
    series = _moment_transfer(lambda p: ttn_moment(N, p), order)
    closed = Series(
        (Fraction(0),)
        + tuple(Fraction(comb(N, j) * (-1) ** j, N**j) for j in range(order))
    )
    return series.revert() == closed.truncate(order + 1)


def l_limit_inverse_check(order: int) -> bool:
    """Does the limit transfer series (with moments p^p/(p+1)!) invert to z e^{-z}?"""
    gamma = lambda p: Fraction(1) if p == 0 else tstt_moment(p)
    series = _moment_transfer(gamma, order)
    closed = Series(
        (Fraction(0),)
        + tuple(Fraction((-1) ** j, factorial(j)) for j in range(order))
    )
    return series.revert() == closed.truncate(order + 1)


def finite_n_r_relation_check(N: int, order: int) -> bool:
    """Coefficientwise check that the R-series of the full and strict block
    moment families differ by the free Poisson term 1/(N(1-z))."""
    r_mu = moments_to_free_cumulants(
        Series.from_one_indexed(tuple(stn_moment(N, p) for p in range(1, order + 1)))
    )
    r_nu = moments_to_free_cumulants(
        Series.from_one_indexed(tuple(ttn_moment(N, p) for p in range(1, order + 1)))
    )
    return all(r_nu[j] - r_mu[j] == Fraction(1, N) for j in range(1, order + 1))
