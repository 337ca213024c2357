from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtmoments.errors import CapExceededError
from dtmoments.exact import CQ_ONE, CQ_ZERO, MomentValue, order, parse_rational, rational_sqrt
from dtmoments.exact import ComplexRational as CQ
from dtmoments.linext import TreePoset
from dtmoments.measures import MomentTable, UniformAnnulus, UniformDisk, mixed_moment
from dtmoments.moments import DTWord, ZWord, dt_word_moment, z_word_moment
from dtmoments.ncpair import ONE, STAR, StarWord
from dtmoments.quasinil import (
    canonicalize,
    conjecture_value,
    m_recursive,
    stn_moment,
    tstt_moment,
    ttn_moment,
)
from dtmoments.rmt import (
    deterministic_diagonal_run,
    estimate_elliptic_moment,
    estimate_word_moment,
    pure_t_word_sweep,
)
from dtmoments.spectral import density_grid, density_moment
from dtmoments.transforms import (
    finite_n_r_relation_check,
    kn_inverse_check,
    l_limit_inverse_check,
    ln_inverse_check,
    r_transform_closed_form,
)

PART = st.fractions(min_value=-3, max_value=3, max_denominator=15)
GAUSSIAN = st.builds(CQ, PART, PART)
REAL = st.builds(CQ, PART)
# an integer in every exact spelling: int, integer float, "p/1", Fraction, NumPy int
SPELLINGS = (int, float, lambda k: f"{k}/1", F, np.int64)
EPS = StarWord((ONE, STAR))


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

    @given(a=st.one_of(GAUSSIAN, REAL), b=st.one_of(GAUSSIAN, REAL), q=PART)
    @example(a=CQ(F(2, 3)), b=CQ(F(-3, 4)), q=F(5))
    @example(a=CQ(F(1, 2)), b=CQ(1, F(2, 5)), q=F(0))
    @example(a=CQ(F(0)), b=CQ(0, F(-1, 3)), q=F(-1, 2))
    @example(a=CQ(1, 1), b=CQ(F(1, 3), -2), q=F(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_multiplication(self, a, b, q):
        # two real operands take one Fraction product; every value is the
        # four-product one, with Fraction parts
        product = CQ(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)
        for got in (a * b, b * a, a * q, q * a, a * 2, 2 * a):
            assert type(got) is CQ and type(got.re) is type(got.im) is F
        assert a * b == b * a == product
        assert a * q == q * a == CQ(a.re * q, a.im * q)
        assert a * 2 == 2 * a == CQ(2 * a.re, 2 * a.im)

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


# each reads one order x, and a table also its degree
ORDER_READERS = {
    "mixed_moment": lambda x, degree: mixed_moment(UniformAnnulus(2), x, x),
    "MomentTable": lambda x, degree: MomentTable(degree, (((x, x), F(1, 3)),)),
    "dt_word_moment": lambda x, degree: dt_word_moment(DTWord(EPS, ((x, 0), (0, x))), UniformDisk(1)),
    "m_recursive": lambda x, degree: m_recursive((x, x)),
}

TT = ["T", "T*"]
# each puts its argument, read as 2, in one integer parameter of the entry named
INTEGER_READERS = {
    "tstt_moment-p": lambda x: tstt_moment(x),
    "stn_moment-N": lambda x: stn_moment(x, 3),
    "stn_moment-p": lambda x: stn_moment(3, x),
    "ttn_moment-N": lambda x: ttn_moment(x, 3),
    "ttn_moment-p": lambda x: ttn_moment(3, x),
    "conjecture_value-k": lambda x: conjecture_value(x, 3),
    "conjecture_value-n": lambda x: conjecture_value(3, x),
    "kn_inverse_check-N": lambda x: kn_inverse_check(x, 4),
    "kn_inverse_check-order": lambda x: kn_inverse_check(3, x),
    "ln_inverse_check-N": lambda x: ln_inverse_check(x, 4),
    "ln_inverse_check-order": lambda x: ln_inverse_check(3, x),
    "l_limit_inverse_check-order": lambda x: l_limit_inverse_check(x),
    "finite_n_r_relation_check-N": lambda x: finite_n_r_relation_check(x, 4),
    "finite_n_r_relation_check-order": lambda x: finite_n_r_relation_check(3, x),
    "r_transform_closed_form-order": lambda x: r_transform_closed_form(x),
    "density_moment-p": lambda x: density_moment(x),
    "density_grid-num_points": lambda x: density_grid(x),
    "mixed_moment-r": lambda x: mixed_moment(UniformAnnulus(2), x, 1),
    "mixed_moment-s": lambda x: mixed_moment(UniformAnnulus(2), 1, x),
    "MomentTable-max_degree": lambda x: MomentTable(x, (((1, 1), F(1, 3)),)),
    "MomentTable-r": lambda x: MomentTable(3, (((x, 1), F(1, 3)),)),
    "MomentTable-s": lambda x: MomentTable(3, (((1, x), F(1, 3)),)),
    "DTWord-a": lambda x: DTWord(EPS, ((x, 0), (0, 1))),
    "DTWord-b": lambda x: DTWord(EPS, ((1, 0), (0, x))),
    "canonicalize": lambda x: canonicalize((x, 1, 0, x, 1, 0)),
    "m_recursive": lambda x: m_recursive((x, 1, 1, x)),
    "estimate_word_moment-n": lambda x: estimate_word_moment(TT, x, 3, 0),
    "estimate_word_moment-trials": lambda x: estimate_word_moment(TT, 4, x, 0),
    "estimate_word_moment-seed": lambda x: estimate_word_moment(TT, 4, 3, x),
    "estimate_elliptic_moment-seed": lambda x: estimate_elliptic_moment(0.5, EPS, 4, 3, x),
    "deterministic_diagonal_run-n": lambda x: deterministic_diagonal_run(
        lambda m: [0.5] * m, 1.0, EPS, x, 3, 0),
    "pure_t_word_sweep-max_len": lambda x: pure_t_word_sweep(x, 4, 3, 0),
    "TreePoset-n_vertices": lambda x: TreePoset(x, ((0, 1),)),
}


class TestReaders:
    """``order`` reads every order and exponent, and ``positive`` every scale
    and radius, alike in every reader."""

    @given(k=st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_every_spelling_of_an_order_gives_one_exact_value(self, k):
        want = {name: read(k, 2 * k) for name, read in ORDER_READERS.items()}
        assert want["mixed_moment"].exact and want["dt_word_moment"].exact
        for spell in SPELLINGS:
            got = {name: read(spell(k), spell(2 * k)) for name, read in ORDER_READERS.items()}
            assert got == want, spell
            assert got["mixed_moment"].exact and got["dt_word_moment"].exact

    @given(q=st.fractions(min_value=0, max_value=4, max_denominator=6).filter(
        lambda q: q.denominator != 1))
    @settings(max_examples=20, deadline=None)
    def test_every_order_reader_refuses_booleans_and_non_integers(self, q):
        for bad in (True, False, q, float(q), f"{q.numerator}/{q.denominator}"):
            for read in (*ORDER_READERS.values(), lambda x, _: MomentTable(x, ())):
                with pytest.raises((TypeError, ValueError), match="boolean|not exact|not an integer"):
                    read(bad, 4)

    @given(r=st.integers(1, 4))
    @settings(max_examples=8, deadline=None)
    def test_every_spelling_of_a_scale_reads_alike(self, r):
        want = estimate_word_moment(["Z*", "Z"], 8, 2, 0, mu=UniformDisk(1), c=float(r))
        for spell in SPELLINGS:
            x = spell(r)
            disk = UniformDisk(x)
            assert disk.radius == r and isinstance(disk.radius, float if spell is float else F)
            assert mixed_moment(disk, 1, 1).as_complex() == r * r / 2
            assert ZWord(EPS, x).c == r
            assert estimate_word_moment(["Z*", "Z"], 8, 2, 0, mu=UniformDisk(1), c=x) == want

    @pytest.mark.parametrize("bad, error", [
        (True, TypeError), (0, ValueError), (-1.0, ValueError), ("-1/2", ValueError),
        (F(0), ValueError), (np.int64(-2), ValueError), (float("nan"), ValueError),
        (float("inf"), ValueError), (0.5 + 0j, TypeError),
    ], ids=repr)
    def test_every_scale_reader_refuses_the_same_values(self, bad, error):
        for read in (UniformDisk, lambda c: ZWord(EPS, c),
                     lambda c: estimate_word_moment(["Z*", "Z"], 8, 2, 0, mu=UniformDisk(1), c=c)):
            with pytest.raises(error):
                read(bad)

    @pytest.mark.parametrize("name", INTEGER_READERS)
    def test_every_integer_parameter_reads_every_spelling_alike(self, name):
        # booleans read as 0 or 1, integer floats raised TypeError, and
        # canonicalize returned (2.0, ...) unread
        read = INTEGER_READERS[name]
        want = repr(read(2))
        for x in (2.0, "2", F(2), np.int64(2)):
            assert repr(read(x)) == want, x

    @pytest.mark.parametrize("name", INTEGER_READERS)
    def test_every_integer_parameter_refuses_booleans_and_non_integers(self, name):
        # kn_inverse_check(2, True) was a vacuous True, and estimate_word_moment
        # with n=True sampled a 1 x 1 matrix
        for bad in (True, 1.5, "3/2"):
            with pytest.raises((TypeError, ValueError), match="boolean|not exact|not an integer"):
                INTEGER_READERS[name](bad)

    @pytest.mark.parametrize("call, text", [
        (lambda: order(0, "k", 1), "k must be >= 1"),
        (lambda: order("-1", least=0), "order must be >= 0"),
        (lambda: order(F(3, 2), "k", 1), r"k Fraction\(3, 2\) is not an integer"),
        (lambda: conjecture_value(0, 2), "k must be >= 1"),
        (lambda: stn_moment(0, 2), "N must be >= 1"),
        (lambda: density_moment(-1), "p must be >= 0"),
        (lambda: density_grid(0.0), "num_points must be >= 1"),
        (lambda: mixed_moment(UniformDisk(1), -1, 0), "order must be >= 0"),
        (lambda: DTWord(EPS, ((-1, 0), (0, 0))), "diagonal exponent must be >= 0"),
        (lambda: TreePoset(0, ()), "n_vertices must be >= 1"),
    ], ids=["order-least", "order-default", "order-what", "conjecture", "block", "density",
            "grid", "mixed", "dtword", "poset"])
    def test_a_value_below_its_least_is_named(self, call, text):
        with pytest.raises(ValueError, match=f"^{text}$"):
            call()

    @pytest.mark.parametrize("call, text", [
        (lambda: order("25", "k", 0, 24), "k 25 exceeds the cap of 24"),
        (lambda: z_word_moment(ZWord(StarWord((ONE,) * 25)), UniformDisk(1)),
         "Z-word length 25 exceeds the cap of 24"),
        (lambda: density_moment(301), "p 301 exceeds the cap of 300"),
        (lambda: MomentTable(2, ()).moment(2, 1), "moment degree 3 exceeds the cap of 2"),
        (lambda: estimate_word_moment(TT, 2049, 2, 0), "matrix size 2049 exceeds the cap of 2048"),
    ], ids=["order", "z-word", "density", "table", "matrix"])
    def test_a_value_above_its_cap_is_named(self, call, text):
        with pytest.raises(CapExceededError, match=f"^{text}$"):
            call()

    def test_a_value_at_its_cap_is_read(self):
        assert order(24.0, "k", 0, 24) == 24
        assert MomentTable(2, ()).moment(1, 1) == CQ_ZERO


class TestFloatFallbacksAndRefusals:
    def test_a_float_operand_gives_a_complex(self):
        a = CQ(F(1, 2), F(-1, 4))
        for got, want in ((a + 0.5, 1 - 0.25j), (0.5 + a, 1 - 0.25j), (a / 2.0, 0.25 - 0.125j),
                          (1.0 / CQ(0, 2), -0.5j)):
            assert type(got) is complex and got == want

    @pytest.mark.parametrize("k", [-1, 1.5, F(1, 2), 2.0], ids=["negative", "float", "fraction", "float-integer"])
    def test_only_nonnegative_int_powers_are_exact(self, k):
        with pytest.raises(ValueError, match="only nonnegative integer powers are exact"):
            CQ(1, 1) ** k

    def test_rational_sqrt_refuses_a_negative(self):
        with pytest.raises(ValueError, match="negative operand"):
            rational_sqrt(F(-1, 4))
