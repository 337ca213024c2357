import functools
import itertools
import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction as F
from math import factorial
from pathlib import Path

import pytest

import dtmoments
from dtmoments import quasinil
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

    def test_a_non_integer_exponent_is_named(self):
        # both said "exponents must be nonnegative"
        with pytest.raises(TypeError, match="1.5"):
            m_recursive((1.5, 1.5))
        with pytest.raises(ValueError, match="not an integer"):
            m_recursive((F(3, 2), F(3, 2)))

    def test_a_boolean_exponent_is_refused(self):
        # (True, True) gave 1/2
        with pytest.raises(TypeError, match="boolean"):
            m_recursive((True, True))

    def test_an_integer_float_exponent_is_exact(self):
        # (1.0, 1.0) raised TypeError inside the recursion
        got = m_recursive((1.0, 1.0))
        assert got == F(1, 2) and isinstance(got, F)

    @pytest.mark.parametrize("seq", [(2, -1, 0, 1), (-1, 0), (-1, -1), (1, 0, 0, -1)])
    def test_negative_exponent_rejected(self, seq):
        # unbalanced inputs used to pass the balance test first and return 0
        with pytest.raises(ValueError, match="exponent must be >= 0"):
            canonicalize(seq)
        with pytest.raises(ValueError, match="exponent must be >= 0"):
            m_recursive(seq)


def test_recursion_past_the_stack_raises():
    # the CLI turns this into exit 3; the library must not return a value
    with pytest.raises(RecursionError):
        m_recursive((1000, 1000))


def test_recursion_reaches_degree_800(monkeypatch):
    # one frame per unit of degree: a design with two frames per unit fails
    # here.  A private memo keeps (k, k) for k <= 800 from shortening the
    # (1000, 1000) recursion that must still raise.
    monkeypatch.setattr(quasinil, "_MEMO", dict(quasinil._MEMO))
    assert m_recursive((800, 800)) == conjecture_value(800, 1)


def balanced_sequences(max_degree, max_blocks):
    """Every balanced nonnegative sequence of at most max_blocks blocks and
    total degree 2m <= max_degree, zero runs included."""
    for m in range(max_degree // 2 + 1):
        for blocks in range(1, max_blocks + 1):
            parts = [
                [b - a for a, b in zip((0,) + cuts, cuts + (m,))]
                for cuts in itertools.combinations_with_replacement(range(m + 1), blocks - 1)
            ]
            for ks, ls in itertools.product(parts, repeat=2):
                yield tuple(x for pair in zip(ks, ls) for x in pair)


class TestScaledValues:
    def test_factorial_scaling_is_an_integer(self):
        # (m+1)! M(s) is an integer for every balanced s of degree 2m: the
        # recursion keeps its values in that scale
        count = 0
        for seq in balanced_sequences(10, 5):
            value = m_recursive(seq)
            assert type(value) is F, seq
            assert (value * factorial(sum(seq[0::2]) + 1)).denominator == 1, seq
            count += 1
        assert count > 10_000

    @pytest.mark.parametrize("seq", [(), (0, 0), (3, 1), (1, 2, 2, 2), (2, 0, 0, 1), (1, 1)])
    def test_result_is_a_fraction(self, seq):
        # MomentValue.wrap and format_rational take a Fraction, also for 1 and 0
        assert type(m_recursive(seq)) is F
        assert type(m_recursive(list(seq))) is F


@functools.cache
def subset_sum(seq):
    """The subset recursion as the module docstring states it, in Fractions:
    the reference for the integer recursion's grouping of subsets."""
    canon = canonicalize(seq)
    if canon is ZERO:
        return F(0)
    if not canon:
        return F(1)
    total = F(0)
    for r in range(1, len(canon) // 2 + 1):
        for chosen in itertools.combinations(range(0, len(canon), 2), r):
            first, last = chosen[0], chosen[-1]
            term = subset_sum(canon[:first] + (canon[first] - 1, canon[last + 1] - 1) + canon[last + 2 :])
            for a, b in itertools.pairwise(chosen):
                term *= subset_sum((canon[a + 1] - 1,) + canon[a + 2 : b] + (canon[b] - 1,))
            total += term
    return total / (sum(canon[0::2]) + 1)


def test_matches_the_plain_subset_sum_with_many_blocks():
    # up to eight blocks, where the grouping by first and last chosen block
    # departs most from the sum over all subsets
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(4, 8)
        m = rng.randint(n, 9)
        ks, ls = weak_composition(m, n, rng), weak_composition(m, n, rng)
        seq = tuple(x for pair in zip(ks, ls) for x in pair)
        assert m_recursive(seq) == subset_sum(seq), seq


def test_matches_pairing_engine_at_degree_eleven_and_twelve():
    # the benchmark's own degree; the exhaustive check stops at degree ten
    rng = random.Random(16)
    for _ in range(60):
        m, n = rng.randint(11, 12), rng.randint(1, 6)
        ks, ls = weak_composition(m, n, rng), weak_composition(m, n, rng)
        seq = [x for pair in zip(ks, ls) for x in pair]
        if rng.random() < 0.3:  # an all-zero block
            at = 2 * rng.randint(0, n)
            seq[at:at] = [0, 0]
        assert m_recursive(tuple(seq)) == t_word_moment(
            star_word_for(seq)
        ).as_fraction(), seq


def order_batch():
    rng = random.Random(5)
    batch = []
    for _ in range(48):
        m, n = rng.randint(1, 9), rng.randint(1, 5)
        ks, ls = weak_composition(m, n, rng), weak_composition(m, n, rng)
        batch.append(tuple(x for pair in zip(ks, ls) for x in pair))
    rng.shuffle(batch)
    return batch


def test_values_independent_of_threads_and_order(monkeypatch):
    # four threads share one cold memo; a fresh interpreter takes the batch
    # in reverse order; every value must be the same
    batch = order_batch()
    monkeypatch.setattr(quasinil, "_MEMO", {(): quasinil._MEMO[()]})
    results = [None] * 4

    def work(idx):
        results[idx] = [m_recursive(seq) for seq in batch]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == results[0] for r in results)

    code = (
        "import json, sys\n"
        "from dtmoments.quasinil import m_recursive\n"
        "batch = [tuple(s) for s in json.loads(sys.stdin.read())]\n"
        "print(json.dumps([str(m_recursive(s)) for s in reversed(batch)]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dtmoments.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], input=json.dumps(batch),
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    fresh = [F(v) for v in reversed(json.loads(done.stdout))]
    assert fresh == results[0]


class TestClosedForms:
    def test_tstt_values(self):
        assert tstt_moment(1) == F(1, 2)
        assert tstt_moment(2) == F(2, 3)
        assert tstt_moment(3) == F(9, 8)

    def test_tstt_at_zero_is_the_trace_of_one(self):
        # 0^0 / 1! = 1, as stn_moment and ttn_moment give at p = 0
        assert tstt_moment(0) == m_recursive(()) == stn_moment(2, 0) == 1
        with pytest.raises(ValueError, match="p must be >= 0"):
            tstt_moment(-1)

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

    def test_block_moments_equal_the_product_of_their_factors(self):
        # one Fraction of two integer products, against p factors p -+ i/N
        for big_n in range(1, 10):
            for p in range(21):
                for sign, moment in ((-1, stn_moment), (1, ttn_moment)):
                    factors = functools.reduce(lambda a, i: a * (p + F(sign * i, big_n)), range(1, p + 1), F(1))
                    assert moment(big_n, p) == factors / factorial(p + 1)

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
