import itertools
import random
from fractions import Fraction as F

import pytest

from dtmoments.moments import t_word_moment
from dtmoments.ncpair import StarWord
from dtmoments.quasinil import (
    ZERO,
    canonicalize,
    conjecture_value,
    m_recursive,
    stn_moment,
    tstt_moment,
    ttn_moment,
)


def compositions(total, parts):
    for cuts in itertools.combinations(range(1, total), parts - 1):
        out, prev = [], 0
        for c in cuts + (total,):
            out.append(c - prev)
            prev = c
        yield tuple(out)


def weak_composition(total, parts, rng):
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def star_word_for(seq) -> StarWord:
    symbols = []
    for idx, count in enumerate(seq):
        symbols += (["*"] if idx % 2 == 0 else ["1"]) * count
    return StarWord(tuple(symbols))


class TestCanonicalize:
    def test_zero_merge(self):
        assert canonicalize((0, 2, 3, 1)) == (3, 3)

    def test_unbalanced_maps_to_zero(self):
        assert canonicalize((1, 2)) is ZERO
        assert canonicalize((2, 0)) is ZERO

    def test_rotation_reversal_orbit(self):
        assert canonicalize((2, 1, 1, 2)) == canonicalize((1, 2, 2, 1))

    def test_empty(self):
        assert canonicalize(()) == ()
        assert canonicalize((0, 0, 0, 0)) == ()

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            canonicalize((1, 1, 1))


class TestRecursion:
    def test_base_values(self):
        assert m_recursive(()) == 1
        assert m_recursive((1, 1)) == F(1, 2)
        assert m_recursive((1, 1, 1, 1)) == F(2, 3)
        assert m_recursive((2, 2, 2, 2)) == F(2, 15)

    def test_unbalanced_is_zero(self):
        assert m_recursive((3, 1)) == 0
        assert m_recursive((1, 2, 2, 2)) == 0

    def test_matches_pairing_engine_through_degree_ten(self):
        # every alternating sequence with total degree 2m <= 10, both routes
        for m in range(1, 6):
            for n in range(1, m + 1):
                for ks in compositions(m, n):
                    for ls in compositions(m, n):
                        seq = tuple(x for pair in zip(ks, ls) for x in pair)
                        assert m_recursive(seq) == t_word_moment(
                            star_word_for(seq)
                        ).as_fraction(), seq

    def test_invariant_under_canonical_orbit(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 3)
            seq = []
            for _ in range(n):
                seq += [rng.randint(1, 3), rng.randint(1, 3)]
            base = m_recursive(tuple(seq))
            rotated = tuple(seq[2:] + seq[:2])
            reversed_swapped = tuple(reversed(seq))
            shifted = tuple(seq[1:] + seq[:1])  # rotation with role swap
            with_zeros = (seq[0], 0, 0) + tuple(seq[1:])  # split via zero run
            for variant in (rotated, reversed_swapped, shifted, with_zeros):
                assert m_recursive(variant) == base

    def test_zero_runs_and_wrap_around_match_pairing_engine(self):
        # zero exponents split and merge runs, also across the two ends
        rng = random.Random(11)
        for _ in range(200):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            ks, ls = weak_composition(m, n, rng), weak_composition(m, n, rng)
            seq = [x for pair in zip(ks, ls) for x in pair]
            for _ in range(rng.randint(0, 2)):  # all-zero blocks, at the ends too
                at = 2 * rng.randint(0, len(seq) // 2)
                seq[at:at] = [0, 0]
            assert m_recursive(tuple(seq)) == t_word_moment(
                star_word_for(seq)
            ).as_fraction(), seq

    @pytest.mark.parametrize("seq", [(2, -1, 0, 1), (-1, 0), (-1, -1), (1, 0, 0, -1)])
    def test_negative_exponent_rejected(self, seq):
        # unbalanced inputs used to pass the balance test first and return 0
        with pytest.raises(ValueError, match="nonnegative"):
            canonicalize(seq)
        with pytest.raises(ValueError, match="nonnegative"):
            m_recursive(seq)


def test_recursion_past_the_stack_raises():
    # the CLI turns this into exit 3; the library must not return a value
    with pytest.raises(RecursionError):
        m_recursive((1000, 1000))


class TestClosedForms:
    def test_tstt_values(self):
        assert tstt_moment(1) == F(1, 2)
        assert tstt_moment(2) == F(2, 3)
        assert tstt_moment(3) == F(9, 8)

    def test_tstt_equals_recursion(self):
        for p in range(1, 6):
            assert tstt_moment(p) == m_recursive((1, 1) * p)

    def test_stn_vanishes_at_one_block(self):
        assert all(stn_moment(1, p) == 0 for p in range(1, 9))

    def test_ttn_one_block_is_catalan(self):
        catalan = [1]
        for n in range(8):
            catalan.append(sum(catalan[i] * catalan[n - i] for i in range(n + 1)))
        for p in range(1, 9):
            assert ttn_moment(1, p) == catalan[p]

    def test_ttn_limit_is_tstt(self):
        big = 10**6
        for p in range(1, 6):
            rel = abs(float(ttn_moment(big, p)) / float(tstt_moment(p)) - 1)
            assert rel < 1e-4

    def test_block_recursion_relation(self):
        for big_n in range(2, 11):
            for p in range(1, 9):
                lhs = stn_moment(big_n, p)
                rhs = F(big_n - 1, big_n) ** (p + 1) * ttn_moment(big_n - 1, p)
                assert lhs == rhs


class TestConjecture:
    def test_values(self):
        assert conjecture_value(1, 3) == F(9, 8)
        assert conjecture_value(1, 3) == tstt_moment(3)
        assert conjecture_value(3, 1) == F(1, 24)
        assert conjecture_value(2, 3) == F(729, 5040)

    def test_desk_slice(self):
        for n in (1, 2, 3):
            for k in (1, 2, 3, 4):
                assert m_recursive((k, k) * n) == conjecture_value(k, n)
        for k in (1, 2):
            assert m_recursive((k, k) * 4) == conjecture_value(k, 4)
