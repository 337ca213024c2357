from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtmoments.exact import CQ_ONE, CQ_ZERO, MomentValue, parse_rational
from dtmoments.exact import ComplexRational as CQ

PART = st.fractions(min_value=-3, max_value=3, max_denominator=15)
GAUSSIAN = st.builds(CQ, PART, PART)


class TestParseRational:
    def test_integer_float_is_exact(self):
        got = parse_rational(3.0)
        assert got == 3 and isinstance(got, F)

    def test_non_integer_float_is_refused(self):
        with pytest.raises(TypeError, match="not exact"):
            parse_rational(0.1)

    def test_other_rationals_are_read(self):
        got = parse_rational(np.int64(-4))
        assert got == -4 and isinstance(got, F)

    def test_complex_parts_read_by_the_same_rule(self):
        assert CQ("1/3", 2.0) == CQ(F(1, 3), F(2))
        with pytest.raises(TypeError, match="not exact"):
            CQ(F(1), 0.5)

    @pytest.mark.parametrize("value", [True, False])
    def test_a_boolean_is_refused(self, value):
        # read as the int 1 or 0, so a JSON true radius read as the unit disk
        for parse in (parse_rational, CQ, lambda v: CQ(F(1), v)):
            with pytest.raises(TypeError, match="boolean"):
                parse(value)
        assert CQ(F(1)) != value and CQ(F(0)) != value


class TestMomentValue:
    def test_the_value_type_is_the_tag(self):
        for raw in (3, True, F(-2, 7), CQ(F(1, 2), F(1)), 0.25, 1 - 2j):
            mv = MomentValue.wrap(raw)
            exact = isinstance(mv.value, CQ)
            assert mv.exact == exact, raw
            assert mv.backend == ("exact" if exact else "float"), raw
            if not exact:
                assert isinstance(mv.value, complex), raw
            assert MomentValue(mv.value) == mv, raw
            if exact and mv.value.is_real():
                assert mv.as_fraction() == mv.value.re
            else:
                with pytest.raises(ValueError):
                    mv.as_fraction()

    @pytest.mark.parametrize("raw", [np.int64(3), np.int32(-2), np.uint8(7)], ids=repr)
    def test_numpy_integers_are_exact(self, raw):
        # parse_rational reads any numbers.Rational as exact, so wrap does too
        mv = MomentValue.wrap(raw)
        assert mv.exact and mv.value == CQ(F(int(raw)))

    def test_a_value_of_another_type_is_refused(self):
        for args in ((CQ_ONE, "float"), (1.5,), (F(1),)):
            with pytest.raises(TypeError):
                MomentValue(*args)


class TestComplexRationalOperators:
    @given(a=GAUSSIAN, b=GAUSSIAN, q=PART)
    @settings(max_examples=60, deadline=None)
    def test_subtraction(self, a, b, q):
        assert a - b == CQ(a.re - b.re, a.im - b.im)
        assert -a == CQ(-a.re, -a.im)
        assert a - q == CQ(a.re - q, a.im)
        assert q - a == CQ(q - a.re, -a.im)
        assert 2 - a == CQ(2 - a.re, -a.im)

    @given(a=GAUSSIAN, b=GAUSSIAN, q=PART)
    @settings(max_examples=60, deadline=None)
    def test_division(self, a, b, q):
        n = b.re * b.re + b.im * b.im
        if n == 0:
            with pytest.raises(ZeroDivisionError):
                a / b
            return
        quotient = a / b
        assert quotient == CQ((a.re * b.re + a.im * b.im) / n, (a.im * b.re - a.re * b.im) / n)
        assert quotient * b == a
        assert q / b == CQ(q * b.re / n, -q * b.im / n)
        assert 1 / b == CQ(b.re / n, -b.im / n)

    def test_division_by_zero(self):
        for zero in (CQ_ZERO, 0, F(0)):
            with pytest.raises(ZeroDivisionError):
                CQ(F(1, 2), F(1)) / zero
        with pytest.raises(ZeroDivisionError):
            F(1, 2) / CQ_ZERO

    @given(a=GAUSSIAN)
    @settings(max_examples=60, deadline=None)
    def test_equality_with_a_float(self, a):
        # exact, as Fraction compares with a float: 1/3 is not float(1/3)
        assert (a == float(a.re)) == (a.is_real() and a.re == float(a.re))
        assert a != float(a.re) + 1.0

    @given(a=GAUSSIAN)
    @settings(max_examples=200, deadline=None)
    def test_equality_and_hash_agree_with_every_numeric_type(self, a):
        # an equal pair must hash alike, or a set holds both
        x = complex(float(a.re), float(a.im))
        cases = [
            (x, F(x.real) == a.re and F(x.imag) == a.im),
            (x.real, a.is_real() and F(x.real) == a.re),
            (a.re, a.is_real()),
        ]
        if a.re.denominator == 1:
            cases.append((int(a.re), a.is_real()))
        for other, equal in cases:
            assert (a == other) is equal and (other == a) is equal, other
            if equal:
                assert hash(a) == hash(other) and len({a, other}) == 1, other

    @pytest.mark.parametrize(
        "value, other, equal",
        [
            (CQ(F(1, 3)), 1 / 3, False),
            (CQ(F(1, 2)), 0.5, True),
            (CQ(F(1, 2), F(-1, 4)), 0.5 - 0.25j, True),
            (CQ(F(1, 3), F(1)), 1 / 3 + 1j, False),
            (CQ(F(3)), 3, True),
            (CQ(F(3)), 3 + 0j, True),
            (CQ(F(-1)), -1.0, True),
        ],
        ids=repr,
    )
    def test_float_and_complex_compare_exactly(self, value, other, equal):
        assert (value == other) is equal
        assert (value != other) is not equal
        if equal:
            assert hash(value) == hash(other)

    @pytest.mark.parametrize(
        "value, text",
        [
            (CQ(F(1, 3)), "1/3"),
            (CQ(F(-2)), "-2"),
            (CQ(F(0), F(1)), "(0+1i)"),
            (CQ(F(-1, 2), F(-3, 4)), "(-1/2-3/4i)"),
            (CQ(F(5), F(2, 9)), "(5+2/9i)"),
        ],
    )
    def test_repr(self, value, text):
        assert repr(value) == text
