import itertools
from fractions import Fraction as F

import pytest
from conftest import all_perfect_matchings, has_crossing

from dtmoments.moments import DTWord, ZWord, t_word_moment
from dtmoments.ncpair import (
    ONE,
    STAR,
    Pairing,
    StarWord,
    enumerate_compatible_ncp,
    is_compatible,
    is_noncrossing,
    quotient_graph,
)


def word(*symbols):
    return StarWord(tuple(symbols))


class TestEnumerate:
    def test_two_points(self):
        assert [p.pairs for p in enumerate_compatible_ncp(word(ONE, STAR))] == [((1, 2),)]

    def test_equal_symbols_incompatible(self):
        assert enumerate_compatible_ncp(word(ONE, ONE)) == []

    def test_four_points_against_brute_force(self):
        eps = word(ONE, STAR, ONE, STAR)
        got = [p.pairs for p in enumerate_compatible_ncp(eps)]
        # oracle: filter all 3 matchings of 4 points directly
        expected = sorted(
            pairs
            for pairs in all_perfect_matchings(4)
            if not has_crossing(pairs)
            and all(eps[i - 1] != eps[j - 1] for i, j in pairs)
        )
        assert got == expected == [((1, 2), (3, 4)), ((1, 4), (2, 3))]

    def test_odd_and_unbalanced_words_are_empty(self):
        assert enumerate_compatible_ncp(word(ONE)) == []
        assert enumerate_compatible_ncp(word(ONE, ONE, STAR, ONE)) == []

    def test_empty_word_has_the_empty_pairing(self):
        assert [p.pairs for p in enumerate_compatible_ncp(word())] == [()]

    def test_matches_filtered_brute_force_up_to_10(self):
        for k in (2, 4, 6, 8, 10):
            for symbols in itertools.product((ONE, STAR), repeat=k):
                eps = StarWord(symbols)
                got = {p.pairs for p in enumerate_compatible_ncp(eps)}
                expected = {
                    pairs
                    for pairs in all_perfect_matchings(k)
                    if not has_crossing(pairs)
                    and all(eps[i - 1] != eps[j - 1] for i, j in pairs)
                }
                assert got == expected

    def test_alternating_word_count_is_catalan(self):
        # Catalan numbers by their recurrence, not by any closed form
        catalan = [1]
        for n in range(8):
            catalan.append(sum(catalan[i] * catalan[n - i] for i in range(n + 1)))
        for p in range(1, 8):
            eps = StarWord((ONE, STAR) * p)
            assert len(enumerate_compatible_ncp(eps)) == catalan[p]

    def test_deterministic_lexicographic_order(self):
        # every balanced word of up to 12 letters, 1,275 words
        words = 0
        for k in range(0, 13, 2):
            for symbols in itertools.product((ONE, STAR), repeat=k):
                if symbols.count(ONE) == symbols.count(STAR):
                    words += 1
                    pairs = [p.pairs for p in enumerate_compatible_ncp(StarWord(symbols))]
                    assert pairs == sorted(pairs), symbols
        assert words == 1275


class TestIsNoncrossing:
    def test_adjacent_pairs(self):
        assert is_noncrossing(Pairing(((1, 2), (3, 4))))

    def test_minimal_crossing(self):
        assert not is_noncrossing(Pairing(((1, 3), (2, 4))))

    def test_ten_point_example(self):
        sigma = Pairing(((1, 6), (2, 3), (4, 5), (7, 10), (8, 9)))
        assert is_noncrossing(sigma)

    def test_agrees_with_four_index_definition_up_to_12(self):
        for k in (2, 4, 6, 8, 10, 12):
            for pairs in all_perfect_matchings(k):
                assert is_noncrossing(Pairing(pairs)) == (not has_crossing(pairs))


class TestQuotientGraph:
    def test_two_point_tree(self):
        q = quotient_graph(Pairing(((1, 2),)), word(ONE, STAR))
        assert len(q.vertices) == 2
        assert len(q.edges) == 1
        assert q.is_tree()

    def test_ten_point_example_shape(self):
        # the folded tree: a path of four vertices with two extra leaves
        # hanging off the path's far end
        eps = StarWord.parse("*1*1*11*1*")
        sigma = Pairing(((1, 6), (2, 3), (4, 5), (7, 10), (8, 9)))
        q = quotient_graph(sigma, eps)
        assert q.vertices == (1, 2, 3, 5, 8, 9)
        assert q.merge_classes() == {
            1: (1, 7),
            2: (2, 4, 6),
            3: (3,),
            5: (5,),
            8: (8, 10),
            9: (9,),
        }
        assert sorted(q.edges) == [(1, 2), (3, 2), (5, 2), (8, 1), (8, 9)]
        assert q.is_tree()
        degree = {v: 0 for v in q.vertices}
        for a, b in q.edges:
            degree[a] += 1
            degree[b] += 1
        assert sorted(degree.values()) == [1, 1, 1, 2, 2, 3]

    def test_crossing_pairing_gives_cycle(self):
        q = quotient_graph(Pairing(((1, 3), (2, 4))), word(ONE, STAR, ONE, STAR))
        assert len(q.vertices) == 2
        assert len(q.edges) == 2
        assert not q.is_tree()

    def test_equal_symbol_pair_merges_in_parallel(self):
        # parallel arrows identify source with source; the 2-gon folds onto a
        # single corner with a self-loop
        q = quotient_graph(Pairing(((1, 2),)), word(ONE, ONE))
        assert len(q.vertices) == 1
        assert len(q.edges) == 1
        assert not q.is_tree()

    def test_empty_word_single_vertex(self):
        q = quotient_graph(Pairing(()), word())
        assert q.vertices == (1,)
        assert q.edges == ()

    def test_tree_property_exhaustive_up_to_14(self):
        # non-crossing: connected, acyclic, k/2 + 1 vertices
        for k in range(2, 15, 2):
            for stars in itertools.combinations(range(k), k // 2):
                symbols = tuple(STAR if i in stars else ONE for i in range(k))
                eps = StarWord(symbols)
                for sigma in enumerate_compatible_ncp(eps):
                    q = quotient_graph(sigma, eps)
                    assert len(q.vertices) == k // 2 + 1
                    assert q.is_tree()

    def test_crossing_property_exhaustive_up_to_10(self):
        for k in (4, 6, 8, 10):
            for pairs in all_perfect_matchings(k):
                if not has_crossing(pairs):
                    continue
                # any compatible word: star exactly the first element of each pair
                symbols = [ONE] * k
                for i, _ in pairs:
                    symbols[i - 1] = STAR
                eps = StarWord(tuple(symbols))
                sigma = Pairing(pairs)
                assert is_compatible(sigma, eps)
                q = quotient_graph(sigma, eps)
                assert len(q.vertices) <= k // 2
                assert not q.is_tree()

    def test_crossing_property_sampled_at_12_and_14(self):
        import random

        rng = random.Random(20240811)
        for k in (12, 14):
            found = 0
            while found < 250:
                points = list(range(1, k + 1))
                rng.shuffle(points)
                pairs = tuple(
                    tuple(sorted((points[2 * i], points[2 * i + 1])))
                    for i in range(k // 2)
                )
                if not has_crossing(pairs):
                    continue
                found += 1
                symbols = [ONE] * k
                for i, _ in pairs:
                    symbols[i - 1] = STAR
                q = quotient_graph(Pairing(pairs), StarWord(tuple(symbols)))
                assert len(q.vertices) <= k // 2
                assert not q.is_tree()


def test_pairing_rejects_non_matchings():
    with pytest.raises(ValueError):
        Pairing(((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        Pairing(((1, 1),))


def test_a_star_word_refuses_a_symbol_and_iterates_its_symbols():
    with pytest.raises(ValueError, match="^bad star-word symbol 'T'$"):
        StarWord((ONE, "T"))
    assert list(StarWord((STAR, ONE, ONE))) == [STAR, ONE, ONE]


def test_a_star_word_stores_its_symbols_as_a_tuple():
    # a string or an iterator passes the symbol check one symbol at a time and
    # is kept as the tuple it spells, so every spelling is one word
    spellings = [StarWord("1*"), StarWord((ONE, STAR)), StarWord(iter("1*"))]
    assert [eps.symbols for eps in spellings] == [(ONE, STAR)] * 3
    assert {t_word_moment(eps).as_fraction() for eps in spellings} == {F(1, 2)}
    for make in (lambda eps: eps, lambda eps: DTWord(eps, ((1, 0), (0, 1))), lambda eps: ZWord(eps, F(1, 2))):
        first, *others = map(make, spellings)
        assert all(w == first and hash(w) == hash(first) for w in others)


def test_a_pairing_of_another_length_is_incompatible_and_not_folded():
    sigma, eps = Pairing(((1, 2),)), word(ONE, STAR, ONE, STAR)
    assert is_compatible(sigma, eps) is False
    with pytest.raises(ValueError, match="^pairing size does not match word length$"):
        quotient_graph(sigma, eps)
