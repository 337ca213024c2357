"""Counting the total orders of an oriented tree that extend its arrows.

Each oriented quotient tree induces a partial order: an arrow into a vertex
places that vertex below the arrow's source.  The number of linear extensions
of this order is the combinatorial weight attached to a non-crossing pairing.
Because the order's Hasse diagram is a tree, Atkinson's count applies
(M. D. Atkinson, On computing the number of linear extensions of a tree,
Order 7 (1990) 23-25): root the tree, give every vertex the vector of
extension counts of its subtree by the vertex's rank, and glue each child on
through a prefix sum and a binomial convolution.  That is O(n^2) operations
on exact Python integers (counts exceed 64 bits well before the cap).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import CapExceededError
from .ncpair import (
    OrientedQuotientGraph,
    Pairing,
    StarWord,
    is_compatible,
    is_connected,
    is_noncrossing,
    quotient_graph,
)

DEFAULT_VERTEX_CAP = 24


@dataclass(frozen=True)
class TreePoset:
    """A partial order on 0..n-1 whose cover relation's support is a tree.

    ``covers`` holds pairs (a, b) meaning "a below b".
    """

    n_vertices: int
    covers: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "covers", tuple(sorted(set(self.covers))))
        n = self.n_vertices
        if n < 1:
            raise ValueError("poset needs at least one vertex")
        if len(self.covers) != n - 1:
            raise ValueError("cover support of a tree has exactly n-1 edges")
        for a, b in self.covers:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ValueError(f"bad cover pair ({a}, {b})")
        if not is_connected(range(n), self.covers):
            raise ValueError("cover support is not connected")
        # connected with n-1 edges => acyclic; transitive closure is antisymmetric

    @classmethod
    def from_quotient(cls, q: OrientedQuotientGraph) -> "TreePoset":
        """Relabel a quotient tree's vertices to 0..n-1 (sorted id order)."""
        index = {v: i for i, v in enumerate(q.vertices)}
        covers = tuple((index[dst], index[src]) for src, dst in q.edges)
        return cls(len(q.vertices), covers)


def count_linear_extensions(p: TreePoset, cap: int = DEFAULT_VERTEX_CAP) -> int:
    """Exact number of total orders of 0..n-1 extending the cover relation.

    Atkinson's count for tree-shaped orders, O(n^2) big-integer operations:
    with the tree rooted at vertex 0, each vertex carries the vector whose
    i-th entry counts the extensions of its subtree that put the vertex at
    rank i.  Children are glued on one at a time (:func:`_glue`); the answer
    is the sum of the root's vector.
    """
    n = p.n_vertices
    if n > cap:
        raise CapExceededError(f"poset has {n} vertices, exceeding the cap of {cap}")
    adj: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
    for a, b in p.covers:
        adj[b].append((a, True))  # a is a lower cover of b
        adj[a].append((b, False))

    order, parent = [0], [-1] * n
    for v in order:  # breadth-first from the root; parents precede children
        for w, _ in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)

    ranks: list[list[int]] = [[1]] * n
    for v in reversed(order):
        f = [1]
        for w, below in adj[v]:
            if w != parent[v]:
                f = _glue(f, ranks[w], below)
        ranks[v] = f
    return sum(ranks[0])


def _glue(f: list, g: list, below: bool) -> list:
    """Rank vector of a vertex after hanging one more subtree on it.

    ``f`` is the vertex's vector over its m glued elements, ``g`` the child's
    over its q elements.  With j child-side elements before the vertex, the
    child fits if it is among the first j (``below``) or not (above), so
    h[j] is a prefix or suffix sum of ``g``; the two sides then interleave
    freely before and after the vertex.  The result is bilinear in ``f`` and
    ``g``, so their entries may be weighted sums (exact or float) of counts.
    """
    m, q = len(f), len(g)
    h = [0] * (q + 1)
    if below:
        for j in range(q):
            h[j + 1] = h[j] + g[j]
    else:
        for j in range(q - 1, -1, -1):
            h[j] = h[j + 1] + g[j]
    out = [0] * (m + q)
    for i, fi in enumerate(f):
        if fi:
            for j, hj in enumerate(h):
                if hj:
                    out[i + j] += fi * hj * comb(i + j, i) * comb(m - 1 - i + q - j, q - j)
    return out


def nto(sigma: Pairing, eps: StarWord, cap: int = DEFAULT_VERTEX_CAP) -> int:
    """Ordering count of the folded tree.

    Crossing pairings count 0 outright; a non-crossing pairing must be
    compatible with the star-word for the folded order to exist.
    """
    if not is_noncrossing(sigma):
        return 0
    if not is_compatible(sigma, eps):
        raise ValueError("pairing is not compatible with the star-word")
    q = quotient_graph(sigma, eps)
    return count_linear_extensions(TreePoset.from_quotient(q), cap=cap)
