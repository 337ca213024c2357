import random
import re
from fractions import Fraction as F
from functools import partial
from math import comb, factorial, prod

import pytest
from conftest import moment_cumulant_solve_on_fractions, moments_from_cumulants_by_partitions
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtmoments import transforms
from dtmoments.exact import ComplexRational
from dtmoments.quasinil import tstt_moment, ttn_moment
from dtmoments.transforms import (
    Series,
    finite_n_r_relation_check,
    free_cumulants_to_moments,
    kn_inverse_check,
    l_limit_inverse_check,
    ln_inverse_check,
    moments_to_free_cumulants,
    r_transform_closed_form,
)

rationals = st.fractions(
    min_value=F(-4), max_value=F(4), max_denominator=12
)


# the integer solve's domain: numerators in +-10^6, zeros, and denominators
# that are random, smooth (products of small primes) or factorials
denominators = st.one_of(
    st.integers(1, 10**6),
    st.lists(st.sampled_from((2, 3, 5, 7)), max_size=8).map(prod),
    st.integers(0, 16).map(factorial),
)
solve_coefficients = st.one_of(st.just(F(0)), st.builds(F, st.integers(-(10**6), 10**6), denominators))
solve_inputs = st.lists(solve_coefficients, max_size=24).map(lambda c: Series((F(0), *c[1:])[: len(c)]))


def lagrange_revert(f: Series) -> Series:
    """Compositional inverse by Lagrange inversion, an oracle independent of
    the moment-cumulant solve: [z^m] g = [w^(m-1)] (w/f(w))^m / m."""
    phi = f.shift(-1).reciprocal()  # w / f(w)
    power = Series((F(1),) + (F(0),) * (phi.order - 1))
    g = [F(0)]
    for m in range(1, f.order):
        power = power * phi
        g.append(power[m - 1] / m)
    return Series(tuple(g))


class TestSeriesAlgebra:
    def test_mul_truncates(self):
        a = Series((F(1), F(2), F(3)))
        b = Series((F(1), F(-1), F(0)))
        assert (a * b).coeffs == (F(1), F(1), F(1))

    def test_a_boolean_coefficient_is_refused(self):
        # Series((True, 2)) read True as the coefficient 1
        with pytest.raises(TypeError, match="boolean"):
            Series((True, 2))
        assert Series((1, 2)).coeffs == (F(1), F(2))

    def test_a_string_coefficient_is_read_exactly(self):
        # "1/2" stayed a str: the series differed from its Fraction twin,
        # and the solve raised on str - Fraction
        assert Series(("1/2", F(1))) == Series((F(1, 2), F(1)))
        assert [type(c) for c in Series((" 1/2", "3")).coeffs] == [F, F]
        got = moments_to_free_cumulants(Series((0, "1/2", "1/3")))
        assert got == moments_to_free_cumulants(Series((0, F(1, 2), F(1, 3))))

    @pytest.mark.parametrize("c", [None, object(), [1], b"1"], ids=["none", "object", "list", "bytes"])
    def test_a_non_number_coefficient_is_refused(self, c):
        with pytest.raises(TypeError):
            Series((F(0), c))

    def test_inexact_coefficients_stay_as_they_are(self):
        coeffs = (0.5, 1j, ComplexRational(1, 2), F(1, 3))
        assert Series(coeffs).coeffs == coeffs
        assert [type(c) for c in Series(coeffs).coeffs] == [float, complex, ComplexRational, F]

    def test_a_negative_index_is_a_zero_coefficient(self):
        # [-1] read the last coefficient, 3, as the coefficient of z^-1
        s = Series((F(1), F(2), F(3)))
        assert s[-1] == 0 and s[-3] == 0 and s[3] == 0
        assert s[2] == 3

    @pytest.mark.parametrize("order, error, match", [
        (-1, ValueError, "order must be >= 0"),  # dropped the last coefficient
        (True, TypeError, "boolean"),  # truncated to order 1
        (1.5, TypeError, "not exact"),
    ], ids=repr)
    def test_truncate_reads_its_order(self, order, error, match):
        with pytest.raises(error, match=match):
            Series((F(1), F(2), F(3))).truncate(order)

    def test_truncate_to_an_order_spelled_as_an_integer(self):
        s = Series((F(1), F(2), F(3)))
        assert s.truncate(0).coeffs == ()
        assert s.truncate("2").coeffs == s.truncate(2.0).coeffs == (F(1), F(2))
        assert s.truncate(4).coeffs == (F(1), F(2), F(3), F(0))

    def test_shift_reads_its_argument(self):
        s = Series((F(0), F(2), F(3)))
        with pytest.raises(TypeError, match="boolean"):  # shifted by 1
            s.shift(True)
        assert s.shift(1).coeffs == (F(0), F(0), F(2), F(3))
        assert s.shift("-1").coeffs == (F(2), F(3))

    def test_reciprocal(self):
        geo = Series((F(1), F(-1), F(0), F(0)))
        assert geo.reciprocal().coeffs == (F(1), F(1), F(1), F(1))

    def test_compose(self):
        # (1/(1-z)) o (z + z^2) = 1 + z + 2 z^2 + ...
        outer = Series((F(1),) * 4)
        inner = Series((F(0), F(1), F(1), F(0)))
        assert outer.compose(inner)[2] == F(2)

    @given(
        st.lists(rationals, min_size=1, max_size=6),
        st.fractions(min_value=F(1, 3), max_value=F(3), max_denominator=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_reversion_roundtrip(self, tail, lead):
        f = Series((F(0), lead) + tuple(tail))
        assert f.revert().revert() == f

    @given(
        st.lists(rationals, min_size=1, max_size=6),
        st.fractions(min_value=F(1, 3), max_value=F(3), max_denominator=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_reversion_is_a_right_inverse(self, tail, lead):
        f = Series((F(0), lead) + tuple(tail))
        identity = Series((F(0), F(1))).truncate(f.order)
        assert f.compose(f.revert()) == identity

    @given(
        st.lists(rationals, max_size=12),
        st.fractions(min_value=F(-3), max_value=F(3), max_denominator=6).filter(
            lambda lead: lead not in (0, 1)),
    )
    @settings(max_examples=150, deadline=None)
    def test_reversion_matches_lagrange_inversion(self, tail, lead):
        f = Series((F(0), lead) + tuple(tail))
        got, want = f.revert(), lagrange_revert(f)
        assert got.coeffs == want.coeffs
        assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]

    def test_revert_requires_unit(self):
        with pytest.raises(ValueError):
            Series((F(1), F(1))).revert()
        with pytest.raises(ValueError):
            Series((F(0), F(0), F(1))).revert()


class TestMomentCumulant:
    def test_catalan_moments_have_unit_cumulants(self):
        catalan = [F(1)]
        for n in range(6):
            catalan.append(sum(catalan[i] * catalan[n - i] for i in range(n + 1)))
        kappa = moments_to_free_cumulants(Series.from_one_indexed(catalan[1:]))
        assert kappa.coeffs[1:] == (F(1),) * 6

    def test_squared_generator_cumulants(self):
        moments = [tstt_moment(p) for p in range(1, 5)]
        kappa = moments_to_free_cumulants(Series.from_one_indexed(moments))
        assert kappa[1] == F(1, 2)
        assert kappa[2] == F(5, 12)
        assert kappa[2] == moments[1] - moments[0] ** 2

    @pytest.mark.parametrize("order", range(6))
    def test_the_solve_keeps_the_order(self, order):
        # an empty series came back as (0,) in both directions
        s = Series((F(0), F(1, 2), F(2, 3), F(-3, 4), F(5))[:order])
        assert moments_to_free_cumulants(s).order == order
        assert free_cumulants_to_moments(s).order == order

    @given(solve_inputs)
    @example(Series((F(0), *(F((-1) ** n * (10**6 - 17 * n), 10**6 - n) for n in range(1, 24)))))
    @example(Series((F(0), *(F(n**3 - 7 * n, factorial(n % 17)) for n in range(1, 24)))))
    @settings(max_examples=150, deadline=None)
    def test_the_integer_solve_matches_the_fraction_solve(self, s):
        # the oracle returns one coefficient for an empty series; the solve returns none
        for known_are_moments, convert in ((True, moments_to_free_cumulants), (False, free_cumulants_to_moments)):
            got = convert(s)
            assert got == moment_cumulant_solve_on_fractions(s, known_are_moments).truncate(s.order)
            assert all(type(c) is F for c in got.coeffs)
        assert free_cumulants_to_moments(moments_to_free_cumulants(s)) == s
        assert moments_to_free_cumulants(free_cumulants_to_moments(s)) == s

    @pytest.mark.parametrize("s", [
        Series((0.0, 0.1, -1 / 3, 2.5, 1e-3, 7.0, -0.2)),
        Series((F(0), F(1, 2), 0.3, F(-2, 7), 1.25)),
        Series((ComplexRational(0), ComplexRational("1/2", -1), ComplexRational(2, "1/3"),
                F(-1, 5), ComplexRational(0, 3))),
        Series((F(0), 0.5j, F(1, 3), 2 - 1j)),
    ], ids=["float", "fraction-and-float", "complex-rational", "complex"])
    def test_inexact_series_keep_the_fraction_solves_values_and_types(self, s):
        for known_are_moments, convert in ((True, moments_to_free_cumulants), (False, free_cumulants_to_moments)):
            got, want = convert(s), moment_cumulant_solve_on_fractions(s, known_are_moments)
            assert got.coeffs == want.coeffs
            assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]

    def test_zero_sequence(self):
        zero = Series.from_one_indexed([F(0)] * 6)
        assert moments_to_free_cumulants(zero).coeffs == (F(0),) * 7

    def test_roundtrip_random(self):
        rng = random.Random(5)
        for _ in range(25):
            m = [F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(6)]
            s = Series.from_one_indexed(m)
            assert free_cumulants_to_moments(moments_to_free_cumulants(s)) == s

    def test_against_partition_sum_oracle(self):
        rng = random.Random(11)
        for _ in range(10):
            kappa = {n: F(rng.randint(-5, 5), rng.randint(1, 4)) for n in range(1, 7)}
            moments = [
                moments_from_cumulants_by_partitions(kappa, n) for n in range(1, 7)
            ]
            got = moments_to_free_cumulants(Series.from_one_indexed(moments))
            assert got.coeffs[1:] == tuple(kappa[n] for n in range(1, 7))

    def test_cumulants_to_moments_against_partition_sum_oracle(self):
        rng = random.Random(13)
        for _ in range(10):
            kappa = {n: F(rng.randint(-5, 5), rng.randint(1, 4)) for n in range(1, 7)}
            got = free_cumulants_to_moments(
                Series.from_one_indexed(kappa[n] for n in range(1, 7))
            )
            want = tuple(moments_from_cumulants_by_partitions(kappa, n) for n in range(1, 7))
            assert got.coeffs[1:] == want

    def test_narayana_free_poisson_family(self):
        # free Poisson(t) moments by the Narayana closed form; cumulants must
        # come out constant equal to t
        for t in (F(1, 2), F(1, 3), F(2)):
            moments = [
                sum(
                    F(comb(p, j) * comb(p, j - 1), p) * t**j
                    for j in range(1, p + 1)
                )
                for p in range(1, 7)
            ]
            kappa = moments_to_free_cumulants(Series.from_one_indexed(moments))
            assert kappa.coeffs[1:] == (t,) * 6


class TestClosedForms:
    def test_leading_coefficients(self):
        r = r_transform_closed_form(8)
        assert r[0] == F(1, 2)
        assert r[1] == F(5, 12)

    def test_matches_cumulants_of_closed_moments(self):
        r = r_transform_closed_form(8)
        kappa = moments_to_free_cumulants(
            Series.from_one_indexed([tstt_moment(p) for p in range(1, 9)])
        )
        assert all(r[j] == kappa[j + 1] for j in range(8))

    def test_one_block_analogue_is_geometric(self):
        kappa = moments_to_free_cumulants(
            Series.from_one_indexed([ttn_moment(1, p) for p in range(1, 9)])
        )
        assert kappa.coeffs[1:] == (F(1),) * 8


class TestInversionChecks:
    def test_kn(self):
        for n in (1, 2, 3):
            assert kn_inverse_check(n, 8)

    def test_ln(self):
        for n in (1, 2, 3):
            assert ln_inverse_check(n, 8)

    def test_l1_inverse_is_z_minus_z_squared(self):
        # the one-block transfer series t / (1 - sum_p beta_1(p) t^(p+1))
        # reverts to z(1 - z)
        denom = Series((F(1), *(-ttn_moment(1, p) for p in range(8))))
        got = denom.reciprocal().shift(1).truncate(9).revert()
        want = Series((F(0), F(1), F(-1)) + (F(0),) * 6)
        assert got == want

    def test_limit(self):
        assert l_limit_inverse_check(8)

    def test_r_relation(self):
        for n in (1, 2, 3, 5):
            assert finite_n_r_relation_check(n, 8)

    @pytest.mark.parametrize("big_n", [1, 2, 3, 5, 9])
    def test_finite_n_inversions_past_order_16(self, big_n):
        assert kn_inverse_check(big_n, 40)
        assert ln_inverse_check(big_n, 40)

    def test_limit_and_r_relation_past_order_16(self):
        assert l_limit_inverse_check(60)
        assert finite_n_r_relation_check(7, 40)

    @pytest.mark.parametrize("check", [
        *(partial(kn_inverse_check, n) for n in (1, 2, 5)),
        *(partial(ln_inverse_check, n) for n in (1, 2, 5)),
        l_limit_inverse_check,
    ], ids=["kn-1", "kn-2", "kn-5", "ln-1", "ln-2", "ln-5", "limit"])
    def test_a_perturbed_closed_form_is_rejected(self, monkeypatch, check):
        # each inverse check must compare every closed-form coefficient it
        # covers: bumping any one of them by 1 turns the answer to False
        solve = transforms._inverse_check
        for order in range(1, 12):
            assert check(order), order
            for j in range(order):
                def bumped(moments, closed, k, j=j):
                    return solve(moments, lambda i: closed(i) + (i == j), k)

                monkeypatch.setattr(transforms, "_inverse_check", bumped)
                assert not check(order), (order, j)
                monkeypatch.undo()

    @pytest.mark.parametrize("call, name", [
        (lambda: kn_inverse_check(2, 0), "order"),
        (lambda: kn_inverse_check(0, 3), "N"),
        (lambda: ln_inverse_check(2, -1), "order"),
        (lambda: ln_inverse_check(0, 3), "N"),
        (lambda: l_limit_inverse_check(0), "order"),
        (lambda: finite_n_r_relation_check(2, 0), "order"),
        (lambda: finite_n_r_relation_check(-1, 3), "N"),
    ], ids=["kn-order", "kn-N", "ln-order", "ln-N", "limit-order", "fnr-order", "fnr-N"])
    def test_order_and_n_below_one_are_refused(self, monkeypatch, call, name):
        # these returned a vacuous True or raised from deep in the series work
        def no_series_work(*args):
            raise AssertionError("series work ran before the input check")

        for fn in ("stn_moment", "ttn_moment", "tstt_moment"):
            monkeypatch.setattr(transforms, fn, no_series_work)
        with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
            call()


@pytest.mark.parametrize("call, text", [
    (lambda: Series((0, 1, 2)).shift(-2), "cannot shift down past nonzero coefficients"),
    (lambda: Series((0, 1, 2)).reciprocal(), "reciprocal needs a nonzero constant term"),
    (lambda: Series((1, 1)).compose(Series((F(1, 2), 1))), "composition needs inner(0) = 0"),
    (lambda: moments_to_free_cumulants(Series((1, 1, 2))), "moment series must start at index 1 (m0 = 1 implied)"),
    (lambda: free_cumulants_to_moments(Series((1, 1, 1))), "cumulant series must start at index 1"),
], ids=["shift", "reciprocal", "compose", "to-cumulants", "to-moments"])
def test_a_series_outside_an_operation_is_refused(call, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        call()
