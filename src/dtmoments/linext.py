"""Counting the total orders of an oriented tree that extend its arrows.

Each oriented quotient tree induces a partial order: an arrow into a vertex
places that vertex below the arrow's source.  The number of linear extensions
of this order is the combinatorial weight attached to a non-crossing pairing.
Because the order's Hasse diagram is a tree, Atkinson's count applies
(M. D. Atkinson, On computing the number of linear extensions of a tree,
Order 7 (1990) 23-25): root the tree, give every vertex the vector of
extension counts of its subtree by the vertex's rank, and glue each child on
with the word engine's integral and product of rank vectors (``moments``).
That is O(n^2) operations on exact Python integers, so trees of any size
are counted exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import order
from .moments import _integral, _mul
from .ncpair import (
    OrientedQuotientGraph,
    Pairing,
    StarWord,
    is_compatible,
    is_connected,
    is_noncrossing,
    quotient_graph,
)


@dataclass(frozen=True)
class TreePoset:
    """A partial order on 0..n-1 whose cover relation's support is a tree.

    ``covers`` holds pairs (a, b) meaning "a below b".
    """

    n_vertices: int
    covers: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "covers", tuple(sorted(set(self.covers))))
        n = order(self.n_vertices, "n_vertices", 1)
        object.__setattr__(self, "n_vertices", n)
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


def count_linear_extensions(p: TreePoset) -> int:
    """Exact number of total orders of 0..n-1 extending the cover relation.

    Atkinson's count for tree-shaped orders, O(n^2) big-integer operations:
    with the tree rooted at vertex 0, each vertex carries the vector whose
    i-th entry counts the extensions of its subtree that put the vertex at
    rank i.  Each child's vector is integrated below or above the vertex and
    multiplied in; the answer is the sum of the root's vector.
    """
    n = p.n_vertices
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
                f = _mul(f, _integral(ranks[w], below))
        ranks[v] = f
    return sum(ranks[0])


def nto(sigma: Pairing, eps: StarWord) -> int:
    """Ordering count of the folded tree.

    Crossing pairings count 0 outright; a non-crossing pairing must be
    compatible with the star-word for the folded order to exist.
    """
    if not is_noncrossing(sigma):
        return 0
    if not is_compatible(sigma, eps):
        raise ValueError("pairing is not compatible with the star-word")
    q = quotient_graph(sigma, eps)
    return count_linear_extensions(TreePoset.from_quotient(q))
