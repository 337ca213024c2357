"""Numeric evaluation of the squared-generator spectral density on (0, e).

The law of T*T for the quasi-nilpotent generator is absolutely continuous on
[0, e] with density phi given parametrically: with
rho(v) = (sin v / v) exp(v cot v) on (0, pi), which decreases from e to 0,

    phi(rho(v)) = (1/pi) sin(v) exp(-v cot v).

All integrals are taken in the v-parameter, where the integrand

    -phi(rho(v)) rho'(v) = ((v - sin v)^2 + 2 v sin v (1 - cos v)) / (pi v^2)

is smooth on [0, pi]; the x-form has a 1/(x log^2 x) spike at 0 that the
substitution removes entirely.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .exact import order

SUPPORT_UPPER = math.e  # the spectral law of T*T lives on [0, e]
DEFAULT_MOMENT_CAP = 300
_V_EPS = 1e-8
_QUADRATURE_NODES = 64


@dataclass(frozen=True)
class DensityPoint:
    """A point on the density curve: x in (0, e), phi(x), and its parameter v."""

    x: float
    phi: float
    v: float


def _v_cot_v(v: float) -> float:
    if v < 1e-6:
        return 1.0 - v * v / 3.0  # series; avoids 0/0 at the origin
    return v * math.cos(v) / math.sin(v)


def rho(v: float) -> float:
    """(sin v / v) exp(v cot v); strictly decreasing, rho(0+) = e, rho(pi-) = 0."""
    if not 0.0 <= v <= math.pi:
        raise ValueError(f"rho requires 0 <= v <= pi, got {v}")
    if v == 0.0:
        return math.e
    return math.sin(v) / v * math.exp(_v_cot_v(v))


def _phi_of_v(v: float) -> float:
    # one exp of log sin v - v cot v: exp(-v cot v) alone overflows near pi
    # where phi is still a finite float
    try:
        return math.exp(math.log(math.sin(v) / math.pi) - _v_cot_v(v))
    except OverflowError:  # phi itself exceeds the float range
        return math.inf


def _log_rho(v: float) -> float:
    return math.log(math.sin(v) / v) + _v_cot_v(v)


def _solve_v(x: float) -> float:
    """Bisect log rho(v) = log x on [1e-8, pi] until the bracket reaches float resolution."""
    if x < sys.float_info.min:  # subnormal x has lost bits; phi overflows near 1e-314
        raise ValueError(f"{x} is below the smallest normal float; phi cannot be resolved there")
    target = math.log(x)
    lo, hi = _V_EPS, math.pi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if _log_rho(mid) > target:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def phi_at(x: float) -> float:
    """Density at x in (0, e), by bisecting the parametrization.

    rho is strictly decreasing, so bisection on log rho is unconditionally
    safe; it halves the bracket until it reaches floating-point resolution.
    Near 0, phi(x) ~ 1/(x log^2 x) with a relative correction of order
    log|log x| / |log x|.  An x below ``sys.float_info.min`` raises
    ``ValueError``.
    """
    if not 0.0 < x < SUPPORT_UPPER:
        raise ValueError(f"phi is defined on (0, e); got {x}")
    return _phi_of_v(_solve_v(x))


def _weight(v: float) -> float:
    # -phi(rho(v)) * rho'(v), simplified; smooth with limits 0 at 0, 1/pi at pi.
    # Its only caller's least node is v = 1.09e-3, far from the 0/0 at v = 0
    s = math.sin(v)
    return ((v - s) ** 2 + 2.0 * v * s * (1.0 - math.cos(v))) / (math.pi * v * v)


@functools.cache
def _quadrature() -> tuple[tuple[float, float], ...]:
    """(pi/2 * w * _weight(v), rho(v)) for each Gauss-Legendre node t of weight w, at v = pi/2 * (t + 1)."""
    from numpy.polynomial.legendre import leggauss  # numpy only once a moment is asked for

    nodes, weights = leggauss(_QUADRATURE_NODES)
    half = 0.5 * math.pi
    vs = [half * (t + 1.0) for t in nodes.tolist()]
    return tuple((half * w * _weight(v), rho(v)) for v, w in zip(vs, weights.tolist()))


def density_moment(p: int) -> float:
    """integral of x^p phi(x) dx over (0, e), by a fixed Gauss-Legendre rule in v.

    The 64-node rule is within a relative 3.4e-14 of the closed form
    p^p/(p+1)! for every p up to the cap of 300; its error passes 1e-13 at
    p = 332, as rho(v)^p crowds the integrand toward v = 0.  p is an integer.
    """
    p = order(p, "p", 0, DEFAULT_MOMENT_CAP)
    return math.fsum(hw * r ** p for hw, r in _quadrature())


def density_grid(num_points: int = 200) -> list[DensityPoint]:
    """Sample the density curve on a uniform v-grid, returned with x increasing.

    Points whose x underflows to 0 or whose density overflows (the curve
    diverges at the lower support edge) are dropped, so fewer than
    ``num_points`` entries may come back for very fine grids.
    """
    num_points = order(num_points, "num_points", 1)
    pts = []
    for i in range(1, num_points + 1):
        v = math.pi * i / (num_points + 1)
        x = rho(v)
        phi = _phi_of_v(v)
        if x > 0.0 and math.isfinite(phi):
            pts.append(DensityPoint(x, phi, v))
    pts.reverse()  # rho decreases in v, so reversing sorts by x
    return pts
