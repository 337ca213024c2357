import itertools
import random
from fractions import Fraction as F
from math import factorial

import pytest
from conftest import pairing_sum
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
)
from dtmoments.moments import (
    DTWord,
    ZWord,
    adjoint_dt,
    dt_word_moment,
    parse_word,
    scaled_dt,
    t_word_moment,
    z_word_moment,
)
from dtmoments.ncpair import ONE, STAR, StarWord
from dtmoments.transforms import Series, free_cumulants_to_moments

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

    def test_pure_d_word(self):
        w = DTWord.from_letters(["D", "D*", "D"])
        assert w.blocks == ((2, 1),)
        assert len(w.eps) == 0

    def test_rejects_z_letters(self):
        with pytest.raises(WordParseError):
            DTWord.from_letters(["Z"])

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
        [(["T", "T*"], 0.5), (["D", "T", "T"], 0), (["T", "D*", "T*", "T"], 0)],
        ids=["pure-t", "unbalanced", "odd"],
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
def dt_words(draw, max_letters=18):
    """A D/T word with a balanced triangular part, its D letters placed freely."""
    m = draw(st.integers(0, max_letters // 2))
    letters = list(draw(st.permutations(["T"] * m + ["T*"] * m)))
    for d in draw(st.lists(st.sampled_from(["D", "D*"]), max_size=max_letters - 2 * m)):
        letters.insert(draw(st.integers(0, len(letters))), d)
    return DTWord.from_letters(letters)


@given(w=dt_words(), mu=st.sampled_from(MEASURE_KINDS))
@settings(max_examples=150, deadline=None)
def test_dt_words_equal_the_pairing_sum(w, mu):
    got = dt_word_moment(w, mu)
    expected = MomentValue.wrap(pairing_sum(w, mu))
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

    def test_circular_moments_match_free_poisson_oracle(self):
        # independent route: moments of the squared circular generator are the
        # free Poisson(1) moments, i.e. all free cumulants equal 1
        ones = Series.from_one_indexed([F(1)] * 5)
        catalan = free_cumulants_to_moments(ones)
        for p in range(1, 6):
            zw = ZWord.from_letters(["Z*", "Z"] * p)
            assert z_word_moment(zw, UniformDisk(1)).as_fraction() == catalan[p]

    def test_scale_enters_through_c_squared(self):
        zw = ZWord(StarWord((STAR, ONE)), F(1, 2))
        got = z_word_moment(zw, UniformDisk(1))
        assert got.as_fraction() == F(1, 2) + F(1, 8)

    def test_float_scale_downgrades_backend(self):
        zw = ZWord(StarWord((STAR, ONE)), 0.5)
        got = z_word_moment(zw, UniformDisk(1))
        assert not got.exact
        assert abs(got.as_complex() - 0.625) < 1e-12

    @pytest.mark.parametrize(
        "exact_mu, float_mu",
        [
            (UniformDisk(1), UniformDisk(1.0)),
            (UniformAnnulus(F(3, 2)), UniformAnnulus(1.5)),
            (UniformEllipse(1, F(1, 2)), UniformEllipse(1.0, 0.5)),
        ],
    )
    def test_float_measure_after_exact_call_stays_float(self, exact_mu, float_mu):
        # equal parameters of different types must not share a memo slot
        zw = ZWord.from_letters(["Z*", "Z", "Z", "Z*"])
        exact = z_word_moment(zw, exact_mu)
        assert exact.exact
        got = z_word_moment(zw, float_mu)
        assert not got.exact
        assert abs(got.as_complex() - exact.as_complex()) < 1e-12

    @pytest.mark.parametrize(
        "letters, mu",
        [(["Z"] * 3 + ["Z*"] * 5, UniformAnnulus(1.5)), (["Z", "Z", "Z*"], UniformDisk(1.0))],
        ids=["z3zs5-annulus", "unbalanced-disk"],
    )
    def test_float_measure_keeps_the_float_tag_on_a_zero_value(self, letters, mu):
        got = z_word_moment(ZWord.from_letters(letters), mu)
        assert got.value == 0
        assert got.backend == "float"

    def test_length_cap(self):
        zw = ZWord(StarWord((ONE,) * 18))
        with pytest.raises(CapExceededError):
            z_word_moment(zw, DELTA0)
        assert z_word_moment(zw, DELTA0, max_len=18).value == 0

    def test_empty_word(self):
        assert z_word_moment(ZWord(StarWord(())), DELTA0).as_fraction() == 1


@pytest.mark.parametrize(
    "mu",
    [UniformDisk(1), UniformAnnulus(F(3, 2)), UniformEllipse(1, F(1, 2)), DELTA0],
    ids=["disk:1", "annulus:3/2", "ellipse:1,1/2", "delta0"],
)
def test_z_words_equal_the_sum_over_all_masks(mu):
    # every Z-word of up to 8 letters against the plain expansion into all
    # 2^k D/T words, unbalanced triangular parts included; the expansion is
    # taken once per rotation class, on the first word met in it
    c = F(2, 3)
    expanded = {}
    for k in range(9):
        for symbols in itertools.product((ONE, STAR), repeat=k):
            cls = min((symbols[i:] + symbols[:i] for i in range(k)), default=())
            if cls not in expanded:
                total = 0
                for mask in range(1 << k):
                    letters = [
                        ("T" if s == ONE else "T*") if mask >> j & 1 else ("D" if s == ONE else "D*")
                        for j, s in enumerate(symbols)
                    ]
                    term = dt_word_moment(DTWord.from_letters(letters), mu).value
                    total = term * c ** mask.bit_count() + total
                expanded[cls] = total
            got = z_word_moment(ZWord(StarWord(symbols), c), mu)
            assert got.exact
            assert got.value == expanded[cls], symbols


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
        # the DP roots every interval at slot 1, so a rotated or adjoint word
        # reaches its trace through other decompositions; z_word_moment would
        # hide a rotation bug, since it evaluates the least rotation only
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
            for n in range(1, 4):
                zw = ZWord(StarWord((ONE,) * n + (STAR,) * n))
                assert z_word_moment(zw, mu).as_fraction() == c**n

    def test_orthogonality_of_decorated_powers(self):
        mu = Atomic(((CQ(F(1, 2), F(1, 5)), F(1, 3)), (CQ(F(-1), F(1)), F(2, 3))))
        m11 = mu.moment(1, 1)
        from math import factorial

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

    def test_irrational_modulus_degrades_to_float(self):
        _, c = scaled_dt(DELTA0, F(1), CQ(F(1), F(1)))
        assert isinstance(c, float)
        assert abs(c - 2**0.5) < 1e-15


def test_memo_is_safe_under_concurrent_use():
    # deterministic results independent of evaluation order and thread count
    import threading

    from dtmoments.moments import _Z_CACHE

    _Z_CACHE.clear()
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
