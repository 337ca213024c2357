import math
import os
import subprocess
import sys
from pathlib import Path

import numpy.polynomial.legendre as legendre
import pytest

import dtmoments
from dtmoments import spectral
from dtmoments.errors import CapExceededError
from dtmoments.quasinil import tstt_moment
from dtmoments.spectral import (
    DEFAULT_MOMENT_CAP,
    SUPPORT_UPPER,
    density_grid,
    density_moment,
    phi_at,
    rho,
)


class TestRho:
    def test_midpoint(self):
        assert abs(rho(math.pi / 2) - 2 / math.pi) < 1e-15

    def test_endpoint_limits(self):
        assert rho(0.0) == math.e
        assert rho(math.pi) == 0.0
        assert abs(rho(1e-8) - math.e) < 1e-12

    def test_strictly_decreasing_on_grid(self):
        vals = [rho(math.pi * i / 1001) for i in range(1, 1001)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            rho(-0.1)
        with pytest.raises(ValueError):
            rho(3.2)


class TestPhi:
    def test_value_where_exponentials_cancel(self):
        assert abs(phi_at(2 / math.pi) - 1 / math.pi) < 1e-12

    def test_domain(self):
        for bad in (0.0, -1.0, math.e, 3.0):
            with pytest.raises(ValueError):
                phi_at(bad)

    def test_nonnegative_on_grid(self):
        pts = density_grid(1000)
        assert all(p.phi >= 0 for p in pts)
        assert all(0 < p.x < SUPPORT_UPPER for p in pts)

    def test_near_edge_square_root_shape(self):
        x = math.e - 1e-3
        ratio = phi_at(x) / math.sqrt(math.e - x)
        target = math.sqrt(2) / (math.pi * math.e**1.5)
        assert abs(ratio / target - 1) < 0.02

    def test_small_x_spike_approaches_asymptote(self):
        # the 1/(x log^2 x) shape has a relative correction of order
        # log|log x| / |log x|, so the product creeps toward 1 extremely
        # slowly (still ~1.28 at x = 1e-6); probe the limit on the parametric
        # curve itself, where no inversion is needed
        products = []
        for u in (0.1, 0.02, 0.005):
            v = math.pi - u
            x = rho(v)
            phi = math.sin(v) * math.exp(-v * math.cos(v) / math.sin(v)) / math.pi
            products.append(phi * x * math.log(x) ** 2)
        assert all(p > 1 for p in products)
        assert all(a > b for a, b in zip(products, products[1:]))
        assert products[-1] < 1.02

    def test_small_x_product_frozen_value(self):
        # the true product at x = 1e-6, pinned so regressions surface
        got = phi_at(1e-6) * 1e-6 * math.log(1e-6) ** 2
        assert abs(got - 1.27990) < 1e-3


class TestSmallXInversion:
    """phi_at must invert the parametrization down to tiny x, not just near 1."""

    def test_roundtrip_on_uniform_v_grid(self):
        # the last grid points sit at x ~ 1e-174, where an absolute stopping
        # rule on rho cannot tell x from its neighbours
        worst = 0.0
        for i in range(1, 401):
            v = math.pi * i / 401
            want = math.sin(v) * math.exp(-v * math.cos(v) / math.sin(v)) / math.pi
            worst = max(worst, abs(phi_at(rho(v)) / want - 1))
        assert worst <= 1e-9

    def test_product_at_1e_13(self):
        # reference from a 50-digit mpmath inversion of the parametrization
        x = 1e-13
        assert abs(phi_at(x) * x * math.log(x) ** 2 - 1.20113) <= 1e-4


class TestNearEInversion:
    """Near e, phi_at must be as accurate as the rounding of log x allows."""

    # phi at x = e (1 - 10^-k), from a 90-digit mpmath bisection of log rho(v) = log x
    REFERENCE = {
        5: "0.0005236883773544663534371896",
        6: "0.0001656040190410352811147576",
        7: "0.00005236856410081259214671212",
        8: "0.00001656039327459578550808582",
        9: "0.000005236856056151444777532052",
    }

    @pytest.mark.parametrize("k", sorted(REFERENCE))
    def test_relative_error_within_twice_the_log_x_rounding(self, k):
        # phi's relative sensitivity to log x grows like 10^k / 2 here, so
        # rounding log x alone costs about 10^(k-16) / 2
        x = math.e * (1 - 10.0**-k)
        assert abs(phi_at(x) / float(self.REFERENCE[k]) - 1) <= 10.0 ** (k - 16)


class TestDensityMoments:
    def test_total_mass(self):
        assert abs(density_moment(0) - 1.0) <= 1e-10

    def test_first_and_fourth(self):
        assert abs(density_moment(1) - 0.5) <= 1e-8
        assert abs(density_moment(4) - 32.0 / 15.0) <= 1e-8

    def test_matches_closed_form_through_six(self):
        for p in range(1, 7):
            assert abs(density_moment(p) - float(tstt_moment(p))) <= 1e-8

    def test_fixed_rule_error_through_eight(self):
        for p in range(0, 9):
            want = p**p / math.factorial(p + 1)  # 0**0 == 1: the mass
            assert abs(density_moment(p) - want) <= 1e-13

    def test_relative_error_up_to_the_cap(self):
        for p in range(1, DEFAULT_MOMENT_CAP + 1):
            want = float(tstt_moment(p))
            assert abs(density_moment(p) / want - 1) <= 1e-13, p

    def test_cap(self):
        with pytest.raises(CapExceededError):
            density_moment(DEFAULT_MOMENT_CAP + 1)

    def test_the_rule_is_computed_once_and_every_moment_keeps_its_bits(self, monkeypatch):
        # leggauss(64) costs about 1.6 ms; two moments make one call, and each
        # moment equals the rule summed term by term, as it was before the table
        calls, leggauss = [], legendre.leggauss
        monkeypatch.setattr(legendre, "leggauss", lambda k: calls.append(k) or leggauss(k))
        spectral._quadrature.cache_clear()
        density_moment(3)
        density_moment(5)
        assert calls == [64]
        nodes, weights = leggauss(64)
        half = 0.5 * math.pi
        vs = [half * (t + 1.0) for t in nodes.tolist()]
        for p in range(DEFAULT_MOMENT_CAP + 1):
            terms = [half * w * spectral._weight(v) * rho(v) ** p for v, w in zip(vs, weights.tolist())]
            assert density_moment(p).hex() == math.fsum(terms).hex(), p

    def test_support_stays_below_e(self):
        pts = density_grid(500)
        assert max(p.x for p in pts) <= SUPPORT_UPPER


def test_package_import_loads_no_scipy():
    # scipy is a test-only dependency; the package itself must not load it
    code = "import sys, dtmoments; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(dtmoments.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=120)
    assert done.stdout.strip() == "[]"


def _log_phi_of_v(v):
    return math.log(math.sin(v) / math.pi) - v * math.cos(v) / math.sin(v)


class TestRangeEnds:
    def test_phi_at_finite_or_refused_near_zero(self):
        # 2.0358755e301 from a 50-digit mpmath inversion; sin v and
        # exp(-v cot v) taken apart would overflow here (the exponent is 700.34)
        assert abs(phi_at(1e-307) / 2.0358755e301 - 1) <= 1e-7
        assert math.isfinite(phi_at(sys.float_info.min))
        for x in (sys.float_info.min / 2, 1e-310, 5e-324):
            with pytest.raises(ValueError):
                phi_at(x)

    def test_grid_drops_only_underflowing_or_overflowing_tail(self):
        n = 40_000  # fine enough that its last points leave the float range
        pts = density_grid(n)
        grid = [math.pi * i / (n + 1) for i in range(1, n + 1)]
        kept = len(pts)
        assert 0 < kept < n
        assert sorted(p.v for p in pts) == grid[:kept]
        assert all(p.x > 0 and math.isfinite(p.phi) for p in pts)
        # phi above e^700 is finite and kept
        assert max(p.phi for p in pts) > 1e306
        log_max = math.log(sys.float_info.max)
        underflow = [v for v in grid[kept:] if rho(v) == 0.0]
        overflow = [v for v in grid[kept:] if rho(v) > 0.0 and _log_phi_of_v(v) > log_max]
        assert underflow and overflow
        assert len(underflow) + len(overflow) == n - kept


def test_the_float_below_e_resolves():
    # phi_at refuses e itself (TestPhi.test_domain); the float below it
    # bisects to the bottom of the bracket, where phi is just above 0
    x = math.nextafter(SUPPORT_UPPER, 0)
    assert 0 < phi_at(x) < 1e-7
