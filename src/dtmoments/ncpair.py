"""Non-crossing pairings compatible with a star-word, and their quotient trees.

A star-word marks which letters of an operator word are adjoints.  The limit
moment formulas sum over perfect matchings of the letter positions that are
non-crossing and join a plain letter to an adjoint letter; each such matching
folds the k-gon of letter positions into an oriented tree whose vertex merge
classes drive the downstream weight and ordering counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

ONE = "1"
STAR = "*"
_SYMBOLS = (ONE, STAR)


@dataclass(frozen=True)
class StarWord:
    """A sequence over {STAR, ONE}; position j tells whether letter j is adjoint."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        for s in self.symbols:
            if s not in _SYMBOLS:
                raise ValueError(f"bad star-word symbol {s!r}")

    @classmethod
    def parse(cls, text: str) -> "StarWord":
        """Parse compact forms like "*1*1" or whitespace-separated symbols."""
        toks = text.split() if " " in text.strip() else list(text.strip())
        return cls(tuple(toks))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, j: int) -> str:
        return self.symbols[j]

    def is_balanced(self) -> bool:
        return self.symbols.count(ONE) == self.symbols.count(STAR)


@dataclass(frozen=True)
class Pairing:
    """A perfect matching of {1, ..., k}, stored as sorted (i, j) pairs, i < j."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm = tuple(sorted((min(p), max(p)) for p in self.pairs))
        object.__setattr__(self, "pairs", norm)
        seen = [i for p in norm for i in p]
        k = 2 * len(norm)
        if sorted(seen) != list(range(1, k + 1)):
            raise ValueError("pairs do not form a perfect matching of {1..k}")

    @property
    def k(self) -> int:
        return 2 * len(self.pairs)

    def partner(self) -> dict[int, int]:
        d: dict[int, int] = {}
        for i, j in self.pairs:
            d[i] = j
            d[j] = i
        return d


@dataclass(frozen=True)
class OrientedQuotientGraph:
    """The k-gon folded along a pairing, edges keeping their arrows.

    Vertex ids are the minimal original polygon index of each merge class.
    ``vertex_classes`` maps every original index j in {1..k} to its class id.
    For a non-crossing pairing this graph is a tree on k/2 + 1 vertices.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # (source, target): arrow points source -> target
    vertex_classes: dict[int, int] = field(compare=False)

    def merge_classes(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {v: [] for v in self.vertices}
        for j, v in self.vertex_classes.items():
            out[v].append(j)
        return {v: tuple(sorted(js)) for v, js in out.items()}

    def is_tree(self) -> bool:
        return len(self.edges) == len(self.vertices) - 1 and is_connected(
            self.vertices, self.edges
        )


def is_connected(vertices, edges) -> bool:
    """Whether the undirected graph on ``vertices`` (nonempty) with ``edges``
    is connected."""
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def is_compatible(sigma: Pairing, eps: StarWord) -> bool:
    """True when every pair of sigma joins a ONE letter to a STAR letter."""
    if sigma.k != len(eps):
        return False
    return all(eps[i - 1] != eps[j - 1] for i, j in sigma.pairs)


def enumerate_compatible_ncp(eps: StarWord) -> list[Pairing]:
    """All non-crossing pairings compatible with ``eps``, in lexicographic order.

    Generation pairs the leftmost point of each interval with an admissible
    partner and recurses on the two arcs, so only non-crossing matchings are
    ever produced; compatibility is filtered inline.  Partners in increasing
    order, inner arcs before outer ones, come out in lexicographic order with
    no sort.  The empty word yields the single empty pairing.
    """
    k = len(eps)
    if k % 2 == 1 or not eps.is_balanced():
        return []

    def arcs(lo: int, hi: int) -> Iterator[tuple[tuple[int, int], ...]]:
        # non-crossing matchings of positions lo..hi (inclusive, 1-based)
        if lo > hi:
            yield ()
            return
        for j in range(lo + 1, hi + 1, 2):
            if eps[lo - 1] == eps[j - 1]:
                continue
            for inner in arcs(lo + 1, j - 1):
                for outer in arcs(j + 1, hi):
                    yield ((lo, j),) + inner + outer

    return [Pairing(p) for p in arcs(1, k)]


def is_noncrossing(sigma: Pairing) -> bool:
    """Non-crossing test by one stack scan over 1..k: each pair must close the
    most recently opened one."""
    partner = sigma.partner()
    opened: list[int] = []
    for pos in range(1, sigma.k + 1):
        if partner[pos] > pos:
            opened.append(pos)
        elif opened.pop() != partner[pos]:
            return False
    return True


def quotient_graph(sigma: Pairing, eps: StarWord) -> OrientedQuotientGraph:
    """Fold the oriented k-gon along ``sigma`` (parts (A) and (B) of the folding).

    Edge j of the k-gon joins corners j and j+1 (mod k) and is oriented toward
    corner j when eps[j] is ONE, away from it when STAR.  Each pair {i, j}
    identifies its two edges with matching arrows: for a compatible pair
    (differing symbols) corner i merges with corner j+1 and corner i+1 with
    corner j; for equal symbols the arrows run parallel, so sources merge with
    sources and targets with targets.  The empty word gives the single vertex
    carrying the empty product.
    """
    k = len(eps)
    if sigma.k != k:
        raise ValueError("pairing size does not match word length")
    if k == 0:
        return OrientedQuotientGraph((1,), (), {})

    parent = list(range(k + 1))  # union-find over corners 1..k

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            # keep the smaller index as representative
            if ra > rb:
                ra, rb = rb, ra
            parent[rb] = ra

    def nxt(j: int) -> int:
        return j % k + 1

    for i, j in sigma.pairs:
        if eps[i - 1] != eps[j - 1]:
            union(i, nxt(j))
            union(nxt(i), j)
        else:
            union(i, j)
            union(nxt(i), nxt(j))

    vertex_classes = {j: find(j) for j in range(1, k + 1)}
    vertices = tuple(sorted(set(vertex_classes.values())))
    edges = []
    for i, j in sigma.pairs:
        if eps[i - 1] == ONE:  # arrow points from corner i+1 to corner i
            edges.append((vertex_classes[nxt(i)], vertex_classes[i]))
        else:
            edges.append((vertex_classes[i], vertex_classes[nxt(i)]))
    return OrientedQuotientGraph(vertices, tuple(edges), vertex_classes)
