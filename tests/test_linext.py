import math
import random
import re
from fractions import Fraction as F

import pytest
from conftest import count_linear_extensions_brute

from dtmoments.linext import TreePoset, count_linear_extensions, nto
from dtmoments.moments import _add
from dtmoments.ncpair import ONE, STAR, Pairing, StarWord


def test_single_edge_is_forced():
    assert count_linear_extensions(TreePoset(2, ((0, 1),))) == 1


def test_star_with_two_leaves():
    p = TreePoset(3, ((0, 1), (0, 2)))
    assert count_linear_extensions(p) == count_linear_extensions_brute(p) == 2


def test_ten_point_example_poset():
    # the folded tree of the ten-letter example: covers read off the arrows
    p = TreePoset(6, ((0, 1), (0, 2), (0, 3), (1, 4), (5, 4)))
    assert count_linear_extensions_brute(p) == 52
    assert count_linear_extensions(p) == 52


def random_oriented_tree(rng, n):
    covers = []
    for v in range(1, n):
        u = rng.randrange(v)
        covers.append((u, v) if rng.random() < 0.5 else (v, u))
    return TreePoset(n, tuple(covers))


def test_dp_matches_brute_force_on_random_trees():
    rng = random.Random(1729)
    for _ in range(220):
        n = rng.randint(1, 8)
        p = random_oriented_tree(rng, n)
        assert count_linear_extensions(p) == count_linear_extensions_brute(p)


def test_arrow_reversal_preserves_count():
    rng = random.Random(98)
    for _ in range(60):
        p = random_oriented_tree(rng, rng.randint(2, 9))
        reversed_p = TreePoset(p.n_vertices, tuple((b, a) for a, b in p.covers))
        assert count_linear_extensions(p) == count_linear_extensions(reversed_p)


def test_hamiltonian_chain_has_one_extension():
    for n in (2, 5, 9):
        chain = TreePoset(n, tuple((i, i + 1) for i in range(n - 1)))
        assert count_linear_extensions(chain) == 1


def test_counts_are_exact_big_integers():
    # an antichain above a single root: (n-1)! orderings of the leaves
    n = 22
    star = TreePoset(n, tuple((0, v) for v in range(1, n)))
    assert count_linear_extensions(star) == math.factorial(n - 1)


def test_hook_length_formula_on_rooted_trees():
    # a tree ordered away from its root counts n! / prod of subtree sizes,
    # whichever way all its arrows point
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(25, 60)
        parent = [None] + [rng.randrange(v) for v in range(1, n)]
        size = [1] * n
        for v in range(n - 1, 0, -1):
            size[parent[v]] += size[v]
        want = math.factorial(n) // math.prod(size)
        up = TreePoset(n, tuple((parent[v], v) for v in range(1, n)))
        down = TreePoset(n, tuple((v, parent[v]) for v in range(1, n)))
        assert count_linear_extensions(up) == want
        assert count_linear_extensions(down) == want


def test_stars_up_to_sixty_vertices():
    for n in range(2, 61):
        below = TreePoset(n, tuple((0, v) for v in range(1, n)))
        above = TreePoset(n, tuple((v, 0) for v in range(1, n)))
        assert count_linear_extensions(below) == math.factorial(n - 1)
        assert count_linear_extensions(above) == math.factorial(n - 1)


def test_arrow_reversal_preserves_count_on_large_trees():
    rng = random.Random(4096)
    for _ in range(30):
        n = rng.randint(20, 40)
        p = random_oriented_tree(rng, n)
        reversed_p = TreePoset(n, tuple((b, a) for a, b in p.covers))
        assert count_linear_extensions(p) == count_linear_extensions(reversed_p)


class TestNTO:
    def test_forced_pair(self):
        assert nto(Pairing(((1, 2),)), StarWord((ONE, STAR))) == 1

    def test_crossing_is_zero(self):
        assert nto(Pairing(((1, 3), (2, 4))), StarWord((ONE, STAR, ONE, STAR))) == 0

    def test_nested_pair_forced_order(self):
        sigma = Pairing(((1, 4), (2, 3)))
        eps = StarWord((STAR, STAR, ONE, ONE))
        assert nto(sigma, eps) == 1

    def test_ten_point_example(self):
        sigma = Pairing(((1, 6), (2, 3), (4, 5), (7, 10), (8, 9)))
        assert nto(sigma, StarWord.parse("*1*1*11*1*")) == 52

    def test_incompatible_rejected(self):
        with pytest.raises(ValueError):
            nto(Pairing(((1, 2),)), StarWord((ONE, ONE)))


def rank_polynomial(v: list, x: F):
    """The polynomial a rank vector of length m stands for, at x:
    sum_i v[i] * x^i (1-x)^(m-1-i) / (i! (m-1-i)!)."""
    m = len(v)
    return sum(vi * x**i * (1 - x) ** (m - 1 - i) / (math.factorial(i) * math.factorial(m - 1 - i))
               for i, vi in enumerate(v))


def test_add_sums_rank_vectors_of_any_lengths_as_polynomials():
    rng = random.Random(2207)
    for trial in range(200):
        f, g = ([rng.randint(-50, 50) if trial % 2 else F(rng.randint(-50, 50), rng.randint(1, 9))
                 for _ in range(rng.randint(1, 8))] for _ in range(2))
        got = _add(f, g)
        assert len(got) == max(len(f), len(g))
        for x in (F(1, 3), F(2, 7)):
            assert rank_polynomial(got, x) == rank_polynomial(f, x) + rank_polynomial(g, x)
        # the integral over [0, 1] is sum / len!
        assert F(sum(got), math.factorial(len(got))) == (
            F(sum(f), math.factorial(len(f))) + F(sum(g), math.factorial(len(g))))
        if trial % 2:
            assert all(isinstance(y, int) for y in got)
        assert _add(f, []) == f and _add([], g) == g


@pytest.mark.parametrize("n, covers, text", [
    (3, ((0, 1),), "cover support of a tree has exactly n-1 edges"),
    (3, ((0, 1), (1, 1)), "bad cover pair (1, 1)"),
    (3, ((0, 1), (1, 3)), "bad cover pair (1, 3)"),
    (3, ((0, -1), (1, 2)), "bad cover pair (0, -1)"),
    (4, ((0, 1), (1, 0), (2, 3)), "cover support is not connected"),
], ids=["edge-count", "loop", "out-of-range", "negative", "disconnected"])
def test_a_support_that_is_no_tree_is_refused(n, covers, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        TreePoset(n, covers)
