import collections
import itertools
import random
import math
import re
from fractions import Fraction as F
from math import comb, factorial

import pytest
from conftest import pairing_sum, table_of
from hypothesis import given, settings
from hypothesis import strategies as st

from dtmoments.errors import CapExceededError, WordParseError
from dtmoments.exact import ComplexRational as CQ
from dtmoments.exact import MomentValue
from dtmoments.measures import (
    Atomic,
    MomentTable,
    ScaledMeasure,
    UniformAnnulus,
    UniformDisk,
    UniformEllipse,
    conjugate,
    mixed_moment,
    scale,
)
from dtmoments import moments
from dtmoments.moments import (
    _PARTS,
    DEFAULT_Z_LEN_CAP,
    DTWord,
    ZWord,
    _GaussInt,
    _integral,
    _moments_of,
    _mul,
    _narrow,
    _word_sum,
    adjoint_dt,
    dt_word_moment,
    elliptic_dt,
    parse_word,
    scaled_dt,
    t_word_moment,
    word_moment,
    z_word_moment,
)
from dtmoments.ncpair import ONE, STAR, StarWord
from dtmoments.transforms import Series, free_cumulants_to_moments, moments_to_free_cumulants

DELTA0 = Atomic.delta(0)


def sw(text):
    return StarWord.parse(text)


class TestTWordMoment:
    def test_second_moment(self):
        assert t_word_moment(sw("1*")).as_fraction() == F(1, 2)
        assert t_word_moment(sw("*1")).as_fraction() == F(1, 2)

    def test_nested_word(self):
        assert t_word_moment(sw("**11")).as_fraction() == F(1, 6)

    def test_alternating_word(self):
        assert t_word_moment(sw("*1*1")).as_fraction() == F(2, 3)

    def test_unbalanced_is_zero(self):
        for text in ("1", "11", "111*", "*******1"):
            assert t_word_moment(sw(text)).as_fraction() == 0

    def test_empty_word_is_one(self):
        assert t_word_moment(StarWord(())).as_fraction() == 1

    def test_squared_generator_tenth_power(self):
        # (T*T)^p = p^p/(p+1)!; at p = 10 the trees reach 11 vertices
        value = t_word_moment(StarWord((STAR, ONE) * 10)).as_fraction()
        assert value == F(10**10, factorial(11))

    def test_squared_generator_closed_form_up_to_p_20(self):
        for p in range(21):
            value = t_word_moment(StarWord((STAR, ONE) * p)).as_fraction()
            assert value == F(p**p, factorial(p + 1)), p

    def test_sniady_closed_form(self):
        # ((T*)^k T^k)^n = n^(nk)/(nk + 1)! (Sniady, JCTA 2003), past the
        # subset recursion's nk = 12 cap
        for n in range(1, 21):
            for k in range(1, 20 // n + 1):
                eps = StarWord(((STAR,) * k + (ONE,) * k) * n)
                assert t_word_moment(eps).as_fraction() == F(n ** (n * k), factorial(n * k + 1))

    def test_no_vertex_cap(self):
        # (T*)^24 T^24 folds to a 25-vertex path, one past linext's cap, which
        # the pairing-by-pairing sum raised on; the interval DP builds no tree
        value = t_word_moment(StarWord((STAR,) * 24 + (ONE,) * 24)).as_fraction()
        assert value == F(1, factorial(25))

    def test_every_balanced_word_up_to_14_letters_equals_the_pairing_sum(self):
        # the oracle runs once per rotation class, on its least rotation;
        # the DP roots every interval at slot 1, so each rotation is its own
        # decomposition
        oracle = {}
        for k in range(0, 15, 2):
            for symbols in itertools.product((ONE, STAR), repeat=k):
                if symbols.count(ONE) != symbols.count(STAR):
                    continue
                least = min((symbols[i:] + symbols[:i] for i in range(k)), default=())
                if least not in oracle:
                    oracle[least] = pairing_sum(DTWord(StarWord(least), ((0, 0),) * k), DELTA0)
                got = t_word_moment(StarWord(symbols))
                assert got.exact
                assert got.value == oracle[least], symbols


class TestDTWord:
    def test_from_letters_merges_blocks(self):
        w = DTWord.from_letters(["D", "D", "T", "D*", "T*", "D"])
        # trailing D wraps around to the leading block
        assert w.blocks == ((3, 0), (0, 1))
        assert w.eps.symbols == (ONE, STAR)

    def test_a_non_integer_block_is_refused(self):
        # ((0.5, 0), (0, 0.5)) gave an exact 0 from dt_word_moment
        for half, error in ((0.5, TypeError), (F(1, 2), ValueError), (True, TypeError)):
            with pytest.raises(error):
                DTWord(StarWord((ONE, STAR)), ((half, 0), (0, half)))

    def test_blocks_are_read_as_ints(self):
        w = DTWord(StarWord((ONE, STAR)), ((1.0, 0), (0, "1")))
        assert w == DTWord(StarWord((ONE, STAR)), ((1, 0), (0, 1)))
        assert all(type(x) is int for block in w.blocks for x in block)

    def test_pure_d_word(self):
        w = DTWord.from_letters(["D", "D*", "D"])
        assert w.blocks == ((2, 1),)
        assert len(w.eps) == 0

    def test_rejects_z_letters(self):
        with pytest.raises(WordParseError):
            DTWord.from_letters(["Z"])

    @pytest.mark.parametrize("blocks", [((0, 0),), ((0, 0),) * 3], ids=["too-few", "too-many"])
    def test_a_block_count_off_the_t_slots_is_refused(self, blocks):
        with pytest.raises(ValueError, match="^need exactly one diagonal block per T-slot$"):
            DTWord(StarWord((ONE, STAR)), blocks)

    def test_pure_d_moment_is_mixed_moment(self):
        mu = UniformDisk(1)
        w = DTWord.from_letters(["D", "D*"])
        assert dt_word_moment(w, mu).as_fraction() == F(1, 2)

    def test_identity_word(self):
        assert dt_word_moment(DTWord.from_letters([]), DELTA0).as_fraction() == 1

    def test_zero_measure_kills_decorated_words(self):
        w = DTWord.from_letters(["D", "T", "D*", "T*"])
        assert dt_word_moment(w, DELTA0).value == 0

    def test_point_mass_weighting(self):
        loc = CQ(F(1, 3), F(1, 7))
        w = DTWord.from_letters(["D", "T", "D*", "T*"])
        got = dt_word_moment(w, Atomic.delta(loc))
        assert got.value == CQ(loc.abs_squared() / 2)

    def test_pure_t_words_route_exactly(self):
        w = DTWord.from_letters(["T", "T*", "T*", "T"])
        assert dt_word_moment(w, DELTA0).value == t_word_moment(w.eps).value

    @pytest.mark.parametrize(
        "letters, value",
        [(["T", "T*"], 0.5), (["D", "T", "T"], 0), (["T", "D*", "T*", "T"], 0), (["D", "D"], 0)],
        ids=["pure-t", "unbalanced", "odd", "no-t-slots"],
    )
    def test_float_measure_tags_every_t_word_float(self, letters, value):
        got = dt_word_moment(DTWord.from_letters(letters), UniformDisk(1.0))
        assert got.backend == "float"
        assert got.value == value


MEASURE_KINDS = [
    DELTA0,
    Atomic(((CQ(F(1, 2), F(1, 5)), F(1, 3)), (CQ(F(-1), F(1)), F(2, 3)))),
    UniformDisk(F(3, 4)),
    UniformAnnulus(F(3, 2)),
    UniformEllipse(F(1), F(1, 2)),
    MomentTable(18, (((1, 0), CQ(F(1, 2), F(1, 4))), ((1, 1), CQ(F(2, 3))), ((2, 1), CQ(F(-1, 5), F(1, 7))))),
    ScaledMeasure(UniformEllipse(F(1), F(1, 2)), CQ(F(1, 2), F(1))),
    UniformDisk(1.0),
    UniformAnnulus(1.5),
    UniformEllipse(1.0, 0.5),
    ScaledMeasure(UniformDisk(0.75), CQ(F(0), F(1))),
]


def is_float_measure(mu) -> bool:
    return not isinstance(mu.moment(0, 0), CQ)


@st.composite
def dt_letters(draw, max_letters=18):
    """The letters of a D/T word with a balanced triangular part, its D
    letters placed freely."""
    m = draw(st.integers(0, max_letters // 2))
    letters = list(draw(st.permutations(["T"] * m + ["T*"] * m)))
    for d in draw(st.lists(st.sampled_from(["D", "D*"]), max_size=max_letters - 2 * m)):
        letters.insert(draw(st.integers(0, len(letters))), d)
    return letters


@given(letters=dt_letters(), mu=st.sampled_from(MEASURE_KINDS))
@settings(max_examples=150, deadline=None)
def test_dt_words_equal_the_pairing_sum(letters, mu):
    # through the canonical word's blocks and straight from the letters
    w = DTWord.from_letters(letters)
    expected = MomentValue.wrap(pairing_sum(w, mu))
    for got in (dt_word_moment(w, mu), word_moment(letters, mu)):
        if w.eps.symbols:
            assert got.exact == (not is_float_measure(mu))
        if got.exact:
            assert got.value == expected.value
        else:
            assert abs(got.as_complex() - expected.as_complex()) < 1e-12


class TestZWordMoment:
    def test_first_moment_is_the_mean(self):
        loc = CQ(F(2, 5), F(-1, 5))
        zw = ZWord(StarWord((ONE,)), F(3))
        assert z_word_moment(zw, Atomic.delta(loc)).value == loc

    def test_circular_second_moment(self):
        zw = ZWord.from_letters(["Z*", "Z"])
        assert z_word_moment(zw, UniformDisk(1)).as_fraction() == 1

    @pytest.mark.parametrize(
        "mu, rate, order",
        [(UniformDisk(1), 1, 12), (UniformAnnulus(F(7, 5)), F(7, 5), 10), (UniformAnnulus(3), 3, 10)],
        ids=["disk:1", "annulus:7/5", "annulus:3"],
    )
    def test_circular_moments_match_free_poisson_oracle(self, mu, rate, order):
        # independent route: with c = 1, Z* Z over the disk and over annulus:rate
        # has the free Poisson(rate) moments, i.e. all free cumulants equal
        # rate (the circular free Poisson operators); past 8 letters many
        # tree sizes share one root exponent pair
        cumulants = Series.from_one_indexed([F(rate)] * order)
        want = free_cumulants_to_moments(cumulants)
        for p in range(1, order + 1):
            zw = ZWord.from_letters(["Z*", "Z"] * p)
            assert z_word_moment(zw, mu).as_fraction() == want[p]

    def test_scale_enters_through_c_squared(self):
        zw = ZWord(StarWord((STAR, ONE)), F(1, 2))
        got = z_word_moment(zw, UniformDisk(1))
        assert got.as_fraction() == F(1, 2) + F(1, 8)

    def test_float_scale_downgrades_backend(self):
        # a unit float scale and a zero value keep the float tag too
        for zw, mu, value in [
            (ZWord(StarWord((STAR, ONE)), 0.5), UniformDisk(1), 0.625),
            (ZWord.from_letters(["Z", "Z*"], 1.0), DELTA0, 0.5),
            (ZWord.from_letters(["Z", "Z"], 1.0), DELTA0, 0),
        ]:
            got = z_word_moment(zw, mu)
            assert not got.exact, zw
            assert abs(got.as_complex() - value) < 1e-12

    @pytest.mark.parametrize(
        "exact_mu, float_mu",
        [
            (UniformDisk(1), UniformDisk(1.0)),
            (UniformAnnulus(F(3, 2)), UniformAnnulus(1.5)),
            (UniformEllipse(1, F(1, 2)), UniformEllipse(1.0, 0.5)),
        ],
    )
    def test_float_measure_after_exact_call_stays_float(self, exact_mu, float_mu):
        # an exact call first must not make the float call with equal
        # parameters come back exact
        zw = ZWord.from_letters(["Z*", "Z", "Z", "Z*"])
        exact = z_word_moment(zw, exact_mu)
        assert exact.exact
        got = z_word_moment(zw, float_mu)
        assert not got.exact
        assert abs(got.as_complex() - exact.as_complex()) < 1e-12

    @pytest.mark.parametrize(
        "letters, mu",
        [
            (["Z"] * 3 + ["Z*"] * 5, UniformAnnulus(1.5)),
            (["Z", "Z", "Z*"], UniformDisk(1.0)),
            (["Z", "Z"], UniformDisk(1.0)),
        ],
        ids=["z3zs5-annulus", "unbalanced-disk", "no-t-part-disk"],
    )
    def test_float_measure_keeps_the_float_tag_on_a_zero_value(self, letters, mu):
        got = z_word_moment(ZWord.from_letters(letters), mu)
        assert got.value == 0
        assert got.backend == "float"

    def test_a_string_scale_is_exact(self):
        zw = ZWord(StarWord((STAR, ONE)), "2/3")
        assert zw.c == F(2, 3) and isinstance(zw.c, F)
        assert z_word_moment(zw, UniformDisk(1)).as_fraction() == F(1, 2) + F(2, 9)

    def test_a_nan_scale_is_refused(self):
        # each was accepted, and z_word_moment gave nan+0j tagged float
        for c in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="the scale c must be positive"):
                ZWord(StarWord((STAR, ONE)), c)

    def test_a_boolean_scale_is_refused(self):
        # True read as the scale 1
        with pytest.raises(TypeError, match="boolean"):
            ZWord(StarWord((STAR, ONE)), True)

    def test_length_cap(self):
        k = DEFAULT_Z_LEN_CAP + 2
        zw = ZWord(StarWord((ONE,) * k))
        with pytest.raises(CapExceededError):
            z_word_moment(zw, DELTA0)
        assert z_word_moment(zw, DELTA0, max_len=k).value == 0

    @pytest.mark.parametrize("max_len, error, match", [
        (True, TypeError, "boolean"),  # capped the word at 1
        (1.5, TypeError, "not exact"),  # was taken as a cap
        (-1, ValueError, "max_len must be >= 0"),  # said "the cap of -1"
    ], ids=repr)
    def test_max_len_is_read_as_an_order(self, max_len, error, match):
        with pytest.raises(error, match=match):
            z_word_moment(ZWord(StarWord((STAR, ONE))), UniformDisk(1), max_len=max_len)

    @pytest.mark.parametrize("max_len", ["30", 2.0], ids=repr)
    def test_max_len_spelled_as_an_integer_is_its_integer(self, max_len):
        # "30" raised TypeError from the comparison
        got = z_word_moment(ZWord(StarWord((STAR, ONE))), UniformDisk(1), max_len=max_len)
        assert got.as_fraction() == 1

    def test_empty_word(self):
        assert z_word_moment(ZWord(StarWord(())), DELTA0).as_fraction() == 1


class TestWordMoment:
    @pytest.mark.parametrize("letters", [["T*", "T"], ["D", "T*", "T"]], ids=" ".join)
    def test_a_scale_needs_z_letters(self, letters):
        with pytest.raises(WordParseError, match="needs a word with Z letters"):
            word_moment(letters, UniformDisk(1), 2)

    def test_the_empty_word_is_one_at_any_scale(self):
        got = word_moment([], UniformDisk(1), F(2, 3))
        assert got.exact and got.value == 1

    def test_the_length_cap_bounds_z_words(self):
        with pytest.raises(CapExceededError, match="Z-word length 26"):
            word_moment(["Z*", "Z"] * 13, UniformDisk(1))

    def test_max_len_is_read_as_an_order(self):
        # read on every call, a word without Z letters too
        for letters in (["Z*", "Z"], ["T*", "T"]):
            with pytest.raises(TypeError, match="boolean"):
                word_moment(letters, max_len=True)

    def test_a_float_scale_tags_the_word_float(self):
        got = word_moment(["Z*", "Z"], DELTA0, 1.0)
        assert got.backend == "float" and got.value == 0.5

    def test_a_measure_on_a_t_word_is_not_read(self):
        assert word_moment(["T*", "T"], UniformDisk(3)).as_fraction() == F(1, 2)

    def test_no_measure_reads_as_the_estimator_reads_it(self):
        # word_moment(letters, None) raised AttributeError for every word, where
        # estimate_word_moment takes mu=None on a T-word
        assert word_moment(["T*", "T"], None).as_fraction() == F(1, 2)
        assert word_moment([], None).as_fraction() == 1
        for letters in (["D", "T*", "T"], ["Z*", "Z"]):
            with pytest.raises(WordParseError, match="words with D or Z letters need a measure"):
                word_moment(letters, None)


def test_integer_moments_stay_integers():
    # the rank vectors hold integers whatever type a weight has, but a real
    # moment left a ComplexRational takes the Gaussian-integer path and the
    # trace's ComplexRational arithmetic: without _narrow, a batch of Z-words
    # of 4-12 letters over disks and an annulus took about five times as long
    assert type(_moments_of(DELTA0)(0, 0)) is int
    disk = _moments_of(UniformDisk(1))
    assert type(disk(0, 0)) is int
    assert disk(1, 1) == F(1, 2) and type(disk(1, 1)) is F


def power_coefficients(v: list) -> list:
    """The coefficients c_k of sum_k c_k x^k, the polynomial the rank vector v
    of length m stands for: sum_i v[i] x^i (1-x)^(m-1-i) / (i! (m-1-i)!)."""
    m = len(v)
    c = [F(0)] * m
    for i, vi in enumerate(v):
        w = F(vi) / (factorial(i) * factorial(m - 1 - i))
        for t in range(m - i):
            c[i + t] += w * comb(m - 1 - i, t) * (-1) ** t
    return c


def at(c: list, x: F) -> F:
    return sum(ck * x**k for k, ck in enumerate(c))


def test_integral_and_mul_are_the_polynomial_integral_and_product():
    rng = random.Random(2404)
    for trial in range(200):
        f, g = ([rng.randint(-50, 50) if trial % 2 else F(rng.randint(-50, 50), rng.randint(1, 9))
                 for _ in range(rng.randint(1, 6))] for _ in range(2))
        antiderivative = [F(0)] + [ck / (k + 1) for k, ck in enumerate(power_coefficients(g))]
        below, above, product = _integral(g, True), _integral(g, False), _mul(f, g)
        assert len(below) == len(above) == len(g) + 1 and len(product) == len(f) + len(g) - 1
        for x in (F(0), F(1, 3), F(2, 7), F(5, 6), F(1)):
            assert at(power_coefficients(below), x) == at(antiderivative, x)
            assert at(power_coefficients(above), x) == at(antiderivative, 1) - at(antiderivative, x)
            assert at(power_coefficients(product), x) == (
                at(power_coefficients(f), x) * at(power_coefficients(g), x))
        if trial % 2:
            assert all(isinstance(y, int) for y in below + above + product)


def test_long_z_words_equal_their_closed_forms():
    # (Z*Z)^p at c = 1 up to the length cap: Catalan(p) on the unit disk, and
    # on annulus:a the free Poisson moment sum_k N(p, k) a^k, with the
    # Narayana numbers N(p, k) = C(p, k) C(p, k-1) / p
    for p in range(9, DEFAULT_Z_LEN_CAP // 2 + 1):
        letters = ["Z*", "Z"] * p
        assert word_moment(letters, UniformDisk(1)).value == comb(2 * p, p) // (p + 1)
        for a in (F(3, 2), F(2)):
            want = sum(comb(p, k) * comb(p, k - 1) // p * a**k for k in range(1, p + 1))
            assert word_moment(letters, UniformAnnulus(a)).value == want


def test_rank_vector_entries_are_integers_or_floats(monkeypatch):
    # the DP multiplies integer numerators over an exact real measure, integers
    # or Gaussian integers over non-real atoms, and floats over a float
    # measure, where only the 0 and 1 the DP starts from are ints; never a
    # Fraction or a ComplexRational, whose arithmetic made it 10x slower
    seen = []

    def recording_mul(f, h):
        seen.extend(f + h)
        return _mul(f, h)

    monkeypatch.setattr(moments, "_mul", recording_mul)
    words = [["Z*", "Z"] * 5, ["Z", "Z", "Z*", "Z*", "Z", "Z*", "Z"], "D T D* T* T D D T* D*".split()]
    for mu in (UniformDisk(1), UniformAnnulus(F(3, 2)), UniformEllipse(1, F(1, 2)), MEASURE_KINDS[1], UniformDisk(1.0)):
        seen.clear()
        for letters in words:
            word_moment(letters, mu, F(2, 3) if "Z" in letters else 1)
        types = collections.Counter(map(type, seen))
        if mu is MEASURE_KINDS[1]:
            assert set(types) == {int, _GaussInt}, types
        elif is_float_measure(mu):
            assert float in types and all(type(x) is float or x in (0, 1) and type(x) is int for x in seen), types
        else:
            assert set(types) == {int}, types


class CountingMeasure:
    """A measure that counts its moment reads by (r, s)."""

    def __init__(self, mu):
        self.mu, self.reads = mu, collections.Counter()

    def moment(self, r, s):
        self.reads[r, s] += 1
        return self.mu.moment(r, s)


def test_each_moment_is_read_on_demand_and_once_per_word():
    # (Z*Z)^8 on the disk reads its 9 moments M(r, r), not its 9 x 9 grid
    mu = CountingMeasure(UniformDisk(1))
    word_moment(["Z*", "Z"] * 8, mu)
    assert len(mu.reads) <= 9 and set(mu.reads.values()) == {1}
    rng = random.Random(38)
    for base in (MEASURE_KINDS[1], UniformEllipse(1, F(1, 2)), MEASURE_KINDS[6], UniformDisk(1.0)):
        for letters in (["Z*", "Z", "Z", "Z*", "Z*", "Z", "Z*", "Z"], "D T D* D T* T D* T*".split()):
            mu = CountingMeasure(base)
            word_moment(rng.sample(letters, len(letters)), mu, F(2, 3) if "Z" in letters else 1)
            assert set(mu.reads.values()) == {1}, (base, letters)


@pytest.mark.parametrize(
    "letters, mu, c, kind",
    [
        (["Z*", "Z"] * 3, UniformDisk(1), 1, F),
        (["T*", "T"], DELTA0, 1, F),
        (["T", "T"], DELTA0, 1, int),  # no pairing, so every term vanished
        (["Z", "Z"], UniformDisk(1), F(2, 3), F),  # every term vanished, exact scale
        (["Z"], MEASURE_KINDS[1], 1, CQ),
        (["Z*", "Z"] * 2, MEASURE_KINDS[1], F(2, 3), F),
        (["Z*", "Z"] * 3, UniformDisk(1.0), 1, complex),
        (["T", "T"], UniformDisk(1.0), 1, complex),  # every term vanished, float measure
        (["Z", "Z"], DELTA0, 0.7, float),  # every term vanished, float scale
        (["Z*", "Z"], UniformDisk(1), 0.7, float),
    ],
)
def test_word_sum_keeps_each_value_type(letters, mu, c, kind):
    # an exact real stays a rational, a non-real exact value a ComplexRational
    # and a float value a float, whatever the DP's vectors held
    raw = _word_sum([_PARTS[t] for t in letters], _moments_of(mu), _narrow(c * c))
    assert type(raw) is kind
    assert MomentValue.wrap(raw) == word_moment(letters, mu, c)


TILTED = scale(UniformEllipse(1.0, 0.5), CQ(F(3, 5), F(4, 5)))


@pytest.mark.parametrize(
    "word, mu, c, re_hex, im_hex",
    [
        ("Z Z* Z* Z Z Z*", UniformAnnulus(1.5), 1, "0x1.67fffffffffffp+2", "0x0.0p+0"),
        ("Z* Z Z* Z Z* Z", UniformDisk(1), 0.7, "0x1.98a917507e9d6p+0", "0x0.0p+0"),
        ("Z Z Z* Z Z* Z*", UniformEllipse(0.5, 1.0), 1, "0x1.cbc49ba5e3540p+2", "0x0.0p+0"),
        ("Z* Z Z Z* Z* Z Z* Z", UniformEllipse(0.5, 1.0), 0.7, "0x1.a014e0250810fp+3", "0x0.0p+0"),
        # two rotations of one word, a last bit apart: the pin sees the order of operations
        ("Z Z Z* Z", TILTED, F(2, 3), "-0x1.cd242e6bdc807p-2", "0x1.8b4395810624ep+0"),
        ("Z* Z Z Z", TILTED, F(2, 3), "-0x1.cd242e6bdc808p-2", "0x1.8b4395810624dp+0"),
        ("D D T* T T* T", TILTED, 1, "-0x1.1eb851eb851ecp-3", "0x1.eb851eb851eb8p-2"),
        ("T* T T* T T* T", UniformDisk(1.0), 1, "0x1.2000000000000p+0", "0x0.0p+0"),
    ],
)
def test_float_words_keep_their_bits(word, mu, c, re_hex, im_hex):
    # a float-tagged word's value, bit for bit: the DP's sums keep their order
    value = complex(word_moment(word.split(), mu, c).value)
    assert (value.real.hex(), value.imag.hex()) == (re_hex, im_hex)


def mask_sum(symbols, mu, c) -> MomentValue:
    """The Z-word's moment as the plain expansion into all 2^k D/T words, each
    summed pairing by pairing and weighted by c to its number of T letters."""
    total = 0
    for mask in range(1 << len(symbols)):
        letters = [
            ("T" if s == ONE else "T*") if mask >> j & 1 else ("D" if s == ONE else "D*")
            for j, s in enumerate(symbols)
        ]
        total = pairing_sum(DTWord.from_letters(letters), mu) * c ** mask.bit_count() + total
    return MomentValue.wrap(total)


@pytest.mark.parametrize(
    "mu",
    [
        UniformDisk(1),
        UniformAnnulus(F(3, 2)),
        UniformEllipse(1, F(1, 2)),
        DELTA0,
        MEASURE_KINDS[1],
        UniformDisk(1.0),
        UniformAnnulus(1.5),
        UniformEllipse(1.0, 0.5),
    ],
    ids=["disk:1", "annulus:3/2", "ellipse:1,1/2", "delta0", "two-atoms", "disk:1.0", "annulus:1.5", "ellipse:1.0,0.5"],
)
def test_z_words_equal_the_sum_over_all_masks(mu):
    # every Z-word of up to 8 letters against the plain expansion into all
    # 2^k D/T words, unbalanced triangular parts included, each summed
    # pairing by pairing; the expansion is taken once per rotation class,
    # on the first word met in it
    c = F(2, 3)
    expanded = {}
    for k in range(9):
        for symbols in itertools.product((ONE, STAR), repeat=k):
            cls = min((symbols[i:] + symbols[:i] for i in range(k)), default=())
            if cls not in expanded:
                expanded[cls] = mask_sum(symbols, mu, c)
            want = expanded[cls]
            letters = ["Z" if s == ONE else "Z*" for s in symbols]
            for got in (z_word_moment(ZWord(StarWord(symbols), c), mu), word_moment(letters, mu, c)):
                assert got.exact == (not is_float_measure(mu)), symbols
                if got.exact:
                    assert got.value == want.value, symbols
                else:
                    assert abs(got.as_complex() - want.as_complex()) <= 1e-12 * max(1, abs(want.as_complex())), symbols


@pytest.mark.parametrize(
    "mu, c",
    [
        (UniformDisk(1), F(1)),
        (Atomic(((CQ(1, 1), F(1, 3)), (CQ(F(-1, 2), 2), F(2, 3)))), F(2, 3)),
        (UniformEllipse(1, F(1, 2)), F(3, 2)),
        (DELTA0, F(1)),
        scaled_dt(UniformEllipse(1, F(1, 2)), F(3, 2), CQ(F(3, 5), F(4, 5))),
    ],
    ids=["disk:1", "two-atoms", "ellipse:1,1/2", "delta0", "rotated-ellipse"],
)
def test_real_part_is_the_free_sum_with_a_semicircle(mu, c):
    # Z + Z* = (D + D*) + c (T + T*): its k-th moment, the sum over all 2^k
    # words in Z and Z*, is the k-th moment of the law of lam + conj(lam)
    # (lam ~ mu) freely convolved with the semicircle of variance c^2, whose
    # free cumulants are those of lam + conj(lam) with c^2 added to the second;
    # the rotated case, a ScaledMeasure, is e^(i theta) Z + e^(-i theta) Z*
    top = 7
    real_part = Series.from_one_indexed(
        sum((comb(n, j) * mixed_moment(mu, j, n - j).value for j in range(n + 1)), CQ()).re
        for n in range(1, top + 1))
    kappa = moments_to_free_cumulants(real_part)
    want = free_cumulants_to_moments(Series((*kappa.coeffs[:2], kappa[2] + c * c, *kappa.coeffs[3:])))
    for k in range(1, top + 1):
        words = itertools.product(("Z", "Z*"), repeat=k)
        got = sum((word_moment(letters, mu, c).value for letters in words), CQ())
        assert got == want[k], k


@given(
    symbols=st.integers(9, 11).flatmap(lambda k: st.lists(st.sampled_from((ONE, STAR)), min_size=k, max_size=k)),
    mu=st.sampled_from([UniformDisk(1), UniformAnnulus(F(3, 2)), UniformEllipse(1, F(1, 2)), MEASURE_KINDS[1]]),
    shift=st.integers(1, 8),
)
@settings(max_examples=40, deadline=None)
def test_z_word_symmetries_past_8_letters(symbols, mu, shift):
    # rotation, the adjoint, and conjugating the measure while swapping Z
    # with Z*, on words too long for the exhaustive test above
    swap = {ONE: STAR, STAR: ONE}

    def z(word, measure=mu):
        return z_word_moment(ZWord(StarWord(tuple(word)), F(2, 3)), measure).value

    value = z(symbols)
    assert z(symbols[shift:] + symbols[:shift]) == value
    assert z([swap[s] for s in reversed(symbols)]) == value.conjugate()
    assert z([swap[s] for s in symbols], conjugate(mu)) == value


@given(
    symbols=st.integers(9, 12).flatmap(lambda k: st.lists(st.sampled_from((ONE, STAR)), min_size=k, max_size=k)),
    mu=st.sampled_from([MEASURE_KINDS[1], MEASURE_KINDS[4], MEASURE_KINDS[6]]),
)
@settings(max_examples=4, deadline=None)
def test_long_z_words_equal_the_sum_over_all_masks(symbols, mu):
    # words past the exhaustive test's 8 letters, on non-real atoms, an
    # ellipse and a scaled one, against the plain expansion into all 2^k D/T
    # words, each summed pairing by pairing; a 12-letter word takes 0.2-0.4 s,
    # so four examples keep the test under 3 s
    c = F(2, 3)
    got = word_moment(["Z" if s == ONE else "Z*" for s in symbols], mu, c)
    assert got.exact and got.value == mask_sum(symbols, mu, c).value


def adjoint(w: DTWord) -> DTWord:
    """The word of the adjoint operator: letters reversed, each starred."""
    star = {"D": "D*", "D*": "D", "T": "T*", "T*": "T"}
    letters = []
    for (a, b), s in zip(w.blocks, w.eps.symbols):
        letters += ["D"] * a + ["D*"] * b + ["T" if s == ONE else "T*"]
    return DTWord.from_letters([star[t] for t in reversed(letters)])


class TestInvariants:
    MEASURES = [
        DELTA0,
        Atomic.delta(CQ(F(1, 2), F(1, 3))),
        UniformDisk(F(3, 4)),
        UniformAnnulus(F(3, 2)),
        UniformEllipse(F(1), F(1, 2)),
    ]

    def all_words(self, max_len):
        for k in range(1, max_len + 1):
            for symbols in itertools.product((ONE, STAR), repeat=k):
                yield StarWord(symbols)

    def test_cyclic_invariance_of_dt_words(self):
        # rotating the (block, slot) segments cannot change a trace
        mu = Atomic.delta(CQ(F(1, 2), F(1, 3)))
        words = [
            (["D", "T", "D*", "T*", "T", "T*"], 3),
            (["D", "D", "T*", "T", "D*", "T", "D", "T*"], 4),
        ]
        for letters, slots in words:
            w = DTWord.from_letters(letters)
            base = dt_word_moment(w, mu).value
            for shift in range(1, slots):
                rotated = DTWord(
                    StarWord(w.eps.symbols[shift:] + w.eps.symbols[:shift]),
                    w.blocks[shift:] + w.blocks[:shift],
                )
                assert dt_word_moment(rotated, mu).value == base

    def test_rotation_and_adjoint_invariance_of_dt_and_t_words(self):
        # the DP roots every interval at its first position, so a rotated or
        # adjoint word reaches its trace through other decompositions
        measures = [
            Atomic.delta(CQ(F(1, 2), F(1, 3))),
            UniformDisk(F(3, 4)),
            UniformEllipse(F(1), F(1, 2)),
            ScaledMeasure(UniformEllipse(F(1), F(1, 2)), CQ(F(1, 2), F(1))),
        ]
        rng = random.Random(11)
        for k in range(2, 11, 2):
            for symbols in itertools.product((ONE, STAR), repeat=k):
                if symbols.count(ONE) != symbols.count(STAR):
                    continue
                eps = StarWord(symbols)
                value = t_word_moment(eps).value
                for shift in range(1, k):
                    assert t_word_moment(StarWord(symbols[shift:] + symbols[:shift])).value == value
                assert t_word_moment(adjoint(DTWord(eps, ((0, 0),) * k)).eps).value == value

                w = DTWord(eps, tuple((rng.randint(0, 1), rng.randint(0, 1)) for _ in range(k)))
                shift = rng.randrange(1, k)
                rotated = DTWord(StarWord(symbols[shift:] + symbols[:shift]), w.blocks[shift:] + w.blocks[:shift])
                for mu in measures:
                    value = dt_word_moment(w, mu).value
                    assert dt_word_moment(rotated, mu).value == value, (w, shift, mu)
                    assert dt_word_moment(adjoint(w), mu).value == value.conjugate(), (w, mu)

        # every rotation and the adjoint of a Z-word of up to 8 letters is
        # itself a word of the enumeration, so its value is looked up
        swap = {ONE: STAR, STAR: ONE}
        for mu in measures:
            values = {}
            for k in range(9):
                for symbols in itertools.product((ONE, STAR), repeat=k):
                    values[symbols] = z_word_moment(ZWord(StarWord(symbols), F(2, 3)), mu).value
            for symbols, value in values.items():
                for shift in range(1, len(symbols)):
                    assert values[symbols[shift:] + symbols[:shift]] == value, (symbols, shift, mu)
                assert values[tuple(swap[s] for s in reversed(symbols))] == value.conjugate(), (symbols, mu)

    def test_adjoint_symmetry(self):
        swap = {ONE: STAR, STAR: ONE}
        for mu in self.MEASURES:
            for eps in self.all_words(5):
                zw = ZWord(eps, F(1, 2))
                value = z_word_moment(zw, mu).value
                rev = StarWord(tuple(swap[s] for s in reversed(eps.symbols)))
                adj = z_word_moment(ZWord(rev, F(1, 2)), mu).value
                assert adj == value.conjugate()

    def test_unbalanced_point_mass_words_vanish(self):
        for eps in self.all_words(6):
            if eps.symbols.count(ONE) != eps.symbols.count(STAR):
                assert z_word_moment(ZWord(eps), DELTA0).value == 0

    def test_a_non_integer_float_factor_is_refused(self):
        with pytest.raises(TypeError, match="not exact"):
            scaled_dt(DELTA0, F(1), 0.1)

    def test_homogeneity_under_scaling(self):
        # arguments with rational modulus keep everything exact: |2i| = 2,
        # |3+4i| = 5, |(3+4i)/5| = 1
        lams = [CQ(F(0), F(2)), CQ(F(3), F(4)), CQ(F(3, 5), F(4, 5))]
        mus = [Atomic.delta(CQ(F(1, 2), F(1, 3))), UniformDisk(F(1, 2))]
        for lam in lams:
            for mu in mus:
                scaled_mu, scaled_c = scaled_dt(mu, F(1), lam)
                assert isinstance(scaled_c, F)
                for eps in self.all_words(4):
                    factor = CQ(F(1))
                    for s in eps.symbols:
                        factor = factor * (lam if s == ONE else lam.conjugate())
                    base = z_word_moment(ZWord(eps, F(1)), mu).value
                    got = z_word_moment(ZWord(eps, scaled_c), scaled_mu).value
                    assert got == factor * base

    def test_annulus_words_are_r_diagonal(self):
        for c in (F(1), F(3, 2), F(2)):
            mu = UniformAnnulus(c)
            for a in range(4):
                for b in range(4):
                    if a == b or a + b > 6:
                        continue
                    zw = ZWord(StarWord((ONE,) * a + (STAR,) * b))
                    assert z_word_moment(zw, mu).value == 0
            for n in range(1, 9):
                zw = ZWord(StarWord((ONE,) * n + (STAR,) * n))
                assert z_word_moment(zw, mu).as_fraction() == c**n

    def test_orthogonality_of_decorated_powers(self):
        mu = Atomic(((CQ(F(1, 2), F(1, 5)), F(1, 3)), (CQ(F(-1), F(1)), F(2, 3))))
        m11 = mu.moment(1, 1)
        from math import comb, factorial

        for p in range(5):
            for q in range(5):
                letters = (
                    ["D", "T"] * p + ["D", "D*"] + ["T*", "D*"] * q
                )
                w = DTWord.from_letters(letters)
                got = dt_word_moment(w, mu).value
                if p == q:
                    assert got == m11 ** (p + 1) * F(1, factorial(p + 1))
                else:
                    assert got == 0


class TestScaledAdjoint:
    def test_point_mass_scaling(self):
        mu, c = scaled_dt(DELTA0, F(1), CQ(F(0), F(2)))
        assert mu == DELTA0
        assert c == 2

    def test_disk_scaling_matches_circular_family(self):
        # scaling the unit-disk generator by a real r lands on the radius-r
        # disk with scale r
        mu, c = scaled_dt(UniformDisk(1), F(1), CQ(F(3, 2)))
        assert c == F(3, 2)
        for r in range(4):
            assert mu.moment(r, r) == UniformDisk(F(3, 2)).moment(r, r)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            scaled_dt(DELTA0, F(1), CQ(F(0)))

    def test_adjoint_conjugates_atoms(self):
        w = CQ(F(1, 2), F(1, 3))
        mu, c = adjoint_dt(Atomic.delta(w), F(2))
        assert mu == Atomic.delta(w.conjugate())
        assert c == 2

    LAWS = {
        "disk": UniformDisk(F(3, 4)),
        "annulus": UniformAnnulus(F(3, 2)),
        "ellipse": UniformEllipse(F(1), F(1, 2)),
        "atomic": Atomic(((CQ(F(1, 2), F(1, 3)), F(1, 3)), (CQ(F(-1), F(1, 4)), F(2, 3)))),
        "table": table_of(Atomic(((CQ(F(0), F(1)), F(1, 2)), (CQ(F(1, 3), F(-1)), F(1, 2)))), 4),
    }
    # rational moduli keep every value exact: 2, 1, 1 and 1/2
    LAMBDAS = [CQ(F(2)), CQ(F(0), F(1)), CQ(F(3, 5), F(4, 5)), CQ(F(-1, 2))]
    WORDS = [StarWord(s) for k in range(1, 5) for s in itertools.product((ONE, STAR), repeat=k)]

    @pytest.mark.parametrize("name", LAWS)
    def test_scaled_words_scale_by_lambda_per_letter(self, name):
        # lam * Z turns each Z into lam Z and each Z* into conj(lam) Z*
        mu, c = self.LAWS[name], F(2, 3)
        for lam in self.LAMBDAS:
            once = scaled_dt(mu, c, lam)
            twice = scaled_dt(*once, lam)
            for eps in self.WORDS:
                factor = CQ(F(1))
                for sym in eps.symbols:
                    factor = factor * (lam if sym == ONE else lam.conjugate())
                base = z_word_moment(ZWord(eps, c), mu).value
                assert z_word_moment(ZWord(eps, once[1]), once[0]).value == factor * base, (lam, eps)
                assert z_word_moment(ZWord(eps, twice[1]), twice[0]).value == factor * factor * base, (lam, eps)

    @pytest.mark.parametrize("name", LAWS)
    def test_adjoint_words_are_conjugate_reversed_words(self, name):
        # w(Z*) = tr of w with every letter starred, whose adjoint is reversed(w)
        mu, c = self.LAWS[name], F(2, 3)
        adj_mu, adj_c = adjoint_dt(mu, c)
        for eps in self.WORDS:
            rev = z_word_moment(ZWord(StarWord(eps.symbols[::-1]), c), mu).value
            assert z_word_moment(ZWord(eps, adj_c), adj_mu).value == rev.conjugate(), eps

    def test_irrational_modulus_degrades_to_float(self):
        _, c = scaled_dt(DELTA0, F(1), CQ(F(1), F(1)))
        assert isinstance(c, float)
        assert abs(c - 2**0.5) < 1e-15

    @pytest.mark.parametrize("c", [-1, 0, float("nan")], ids=repr)
    def test_scaled_dt_refuses_what_zword_refuses(self, c):
        # these gave c = -2, 0 and nan
        with pytest.raises(ValueError, match="the scale c must be positive"):
            scaled_dt(UniformDisk(1), c, 2)

    @pytest.mark.parametrize("c", [-1, 0, float("nan")], ids=repr)
    def test_adjoint_dt_refuses_what_zword_refuses(self, c):
        # these came back unread
        with pytest.raises(ValueError, match="the scale c must be positive"):
            adjoint_dt(UniformDisk(1), c)

    def test_a_rational_string_scale_reads_exactly(self):
        # scaled_dt raised TypeError, and adjoint_dt returned the string
        mu, c = scaled_dt(UniformDisk(1), "1/2", 2)
        assert mu == scaled_dt(UniformDisk(1), F(1, 2), 2)[0]
        assert c == 1 and type(c) is F
        mu, c = adjoint_dt(UniformDisk(1), "1/2")
        assert mu == UniformDisk(1)
        assert c == F(1, 2) and type(c) is F


class TestEllipticDT:
    def test_the_formula_at_a_third_turn(self):
        a, b = math.cos(math.pi / 3), math.sin(math.pi / 3)
        assert elliptic_dt(math.pi / 3) == (UniformEllipse(a, b), 2 * a * b / math.hypot(a, b))

    def test_the_quarter_turn_is_the_circular_operator(self):
        ellipse, c = elliptic_dt(math.pi / 4)
        assert c == 1.0
        for r in range(5):
            for s in range(5 - r):
                got = mixed_moment(ellipse, r, s).as_complex()
                assert abs(got - mixed_moment(UniformDisk(1), r, s).as_complex()) <= 1e-15, (r, s)

    def test_an_exact_angle_reads_as_its_float(self):
        assert elliptic_dt("1/2") == elliptic_dt(F(1, 2)) == elliptic_dt(0.5)

    @pytest.mark.parametrize("theta, error", [
        (True, TypeError), (0.0, ValueError), (math.pi / 2, ValueError), (math.nan, ValueError),
    ], ids=repr)
    def test_an_angle_outside_the_quarter_turn_is_refused(self, theta, error):
        with pytest.raises(error, match="boolean|theta must lie in"):
            elliptic_dt(theta)


def test_memo_is_safe_under_concurrent_use():
    # deterministic results independent of evaluation order and thread count
    import threading

    words = [ZWord(StarWord((STAR, ONE) * p)) for p in (1, 2, 3)] * 4
    results = {}

    def work(idx, zw):
        results[idx] = z_word_moment(zw, UniformDisk(1)).as_fraction()

    threads = [
        threading.Thread(target=work, args=(i, zw)) for i, zw in enumerate(words)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    catalan = {1: 1, 2: 2, 3: 5}
    for i, zw in enumerate(words):
        assert results[i] == catalan[len(zw.eps) // 2]


def test_parse_word():
    assert parse_word("T* T") == ("T*", "T")
    assert parse_word("Z Z* Z") == ("Z", "Z*", "Z")
    with pytest.raises(WordParseError):
        parse_word("T X")
    with pytest.raises(WordParseError):
        parse_word("Z T")


@pytest.mark.parametrize("make, letters, bad, text", [
    (DTWord.from_letters, ["D", "T", "D*", "D", "T*", "D*"], "Z", "letter 'Z' is not a D/T letter"),
    (DTWord.from_letters, ["D*", "D"], "x", "letter 'x' is not a D/T letter"),
    (ZWord.from_letters, ["Z*", "Z", "Z"], "T", "letter 'T' is not a Z letter"),
], ids=["dt", "pure-d", "z"])
def test_from_letters_reads_any_iterable_once(make, letters, bad, text):
    # each letter's parts come from _PARTS; a generator gives its list twin
    assert make(x for x in letters) == make(iter(letters)) == make(letters)
    for word in ([bad], letters + [bad], [*letters[:1], bad, *letters[1:]]):
        with pytest.raises(WordParseError, match=f"^{re.escape(text)}$"):
            make(x for x in word)


@given(letters=st.lists(st.sampled_from(("D", "D*", "T", "T*")), max_size=8),
       mu=st.sampled_from([MEASURE_KINDS[1], UniformAnnulus(F(3, 2))]))
@settings(max_examples=120, deadline=None)
def test_a_folded_dt_word_keeps_its_letters_trace(letters, mu):
    # from_letters folds trailing D letters into the first block: a rotation,
    # which the trace does not see
    assert dt_word_moment(DTWord.from_letters(letters), mu) == word_moment(letters, mu)
