"""Exact limit *-moments of words in the diagonal and triangular generators.

The trace of a word D(a_1,b_1) T^{e(1)} ... D(a_k,b_k) T^{e(k)} in the limit
is a sum over the non-crossing pairings compatible with the star-word: each
pairing folds the k-gon of corners into a tree and contributes the product,
over the tree's vertices (merge classes of corners), of the base measure's
mixed moments at the class exponent totals, times the tree's
linear-extension count, all divided by (k/2 + 1)!.

The pairings are never enumerated: :func:`_pairing_sum` sums over all of them
at once by an interval DP, in O(k^5) integer operations for a T-word of k
letters instead of Catalan(k/2) tree counts.  It builds no tree, so linext's
vertex cap does not apply.

Words in the combined generator Z = D + c*T expand into 2^k D/T words.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import CapExceededError, WordParseError
from .exact import CQ_ONE, ComplexRational, MomentValue, rational_sqrt
from .linext import _glue
from .measures import MeasureModel, conjugate, measure_fingerprint, scale
from .ncpair import ONE, STAR, StarWord

DEFAULT_Z_LEN_CAP = 16

T_LETTERS = ("T", "T*")
D_LETTERS = ("D", "D*")
Z_LETTERS = ("Z", "Z*")
ALL_LETTERS = T_LETTERS + D_LETTERS + Z_LETTERS


def parse_word(text: str) -> tuple[str, ...]:
    """Split a word like "Z* Z" or "D T D* T*" into letter tokens."""
    letters = tuple(text.split())
    for tok in letters:
        if tok not in ALL_LETTERS:
            raise WordParseError(f"unknown word letter {tok!r}")
    if any(tok in Z_LETTERS for tok in letters) and any(
        tok in T_LETTERS + D_LETTERS for tok in letters
    ):
        raise WordParseError("words may not mix Z letters with D/T letters")
    return letters


@dataclass(frozen=True)
class DTWord:
    """Canonical word in D, D*, T, T*: one D-block ahead of each T-slot.

    ``blocks[j] = (a, b)`` means the factor D^a (D*)^b sits immediately before
    the j-th T-slot; since the trace is cyclic, a trailing diagonal factor is
    folded into the first block.  A word without T-slots keeps its single
    merged block; the empty word is the identity.
    """

    eps: StarWord
    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        k = len(self.eps)
        expected = k if k else (1 if self.blocks else 0)
        if len(self.blocks) != expected:
            raise ValueError("need exactly one diagonal block per T-slot")
        if any(a < 0 or b < 0 for a, b in self.blocks):
            raise ValueError("diagonal exponents must be nonnegative")

    @classmethod
    def from_letters(cls, letters) -> "DTWord":
        eps: list[str] = []
        blocks: list[list[int]] = []
        current = [0, 0]
        for tok in letters:
            if tok == "D":
                current[0] += 1
            elif tok == "D*":
                current[1] += 1
            elif tok in T_LETTERS:
                eps.append(ONE if tok == "T" else STAR)
                blocks.append(current)
                current = [0, 0]
            else:
                raise WordParseError(f"letter {tok!r} is not a D/T letter")
        if eps:
            blocks[0] = [blocks[0][0] + current[0], blocks[0][1] + current[1]]
            return cls(StarWord(tuple(eps)), tuple((a, b) for a, b in blocks))
        if current != [0, 0]:
            return cls(StarWord(()), ((current[0], current[1]),))
        return cls(StarWord(()), ())


@dataclass(frozen=True)
class ZWord:
    """A word in Z = D + c*T and its adjoint, with the coupling scale c."""

    eps: StarWord
    c: Fraction | float = Fraction(1)

    def __post_init__(self):
        if isinstance(self.c, int):
            object.__setattr__(self, "c", Fraction(self.c))
        if self.c <= 0:
            raise ValueError("the scale c must be positive")

    @classmethod
    def from_letters(cls, letters, c=Fraction(1)) -> "ZWord":
        eps = []
        for tok in letters:
            if tok not in Z_LETTERS:
                raise WordParseError(f"letter {tok!r} is not a Z letter")
            eps.append(ONE if tok == "Z" else STAR)
        return cls(StarWord(tuple(eps)), c)


def _pairing_sum(symbols: tuple[str, ...], blocks, moment):
    """Sum over the compatible non-crossing pairings of a k-slot word of the
    product of class moments times the tree's linear-extension count.

    An interval DP over 1-based slot intervals [a, b], each paired off inside
    itself.  The interval folds to a tree rooted at the class holding corners
    a and b + 1; ``F[a, b]`` maps that root's exponents (r, s), summed over the
    corners a..b it holds, to the root's Atkinson rank vector, summed over all
    pairings of the interval with their closed classes' moments applied.
    Pairing a with j puts corner a and corner j + 1 in the root, and hangs the
    class of corners a + 1 and j on it across edge a.  That class is the root
    of [a + 1, j - 1]; it closes here, so its moment is taken and its vector
    glued on.  Gluing is bilinear, so sums of vectors glue as one.
    """
    k = len(symbols)
    if k % 2:
        return 0
    empty = {(0, 0): [1]}
    F: dict[tuple[int, int], dict] = {}
    for length in range(2, k + 1, 2):
        for a in range(1, k - length + 2):
            b = a + length - 1
            ra, sa = blocks[a - 1]
            below = symbols[a - 1] == STAR
            root: dict[tuple[int, int], list] = {}
            for j in range(a + 1, b + 1, 2):
                if symbols[j - 1] == symbols[a - 1]:
                    continue
                rj, sj = blocks[j - 1]
                child = None
                for (r, s), vec in F.get((a + 1, j - 1), empty).items():
                    m = moment(r + rj, s + sj)
                    if not m:
                        continue
                    if child is None:
                        child = [m * x for x in vec]
                    else:
                        child = [y + m * x for x, y in zip(vec, child)]
                if child is None:
                    continue
                for (r, s), vec in F.get((j + 1, b), empty).items():
                    glued = _glue(vec, child, below)
                    key = (r + ra, s + sa)
                    acc = root.get(key)
                    root[key] = glued if acc is None else [x + y for x, y in zip(glued, acc)]
            F[a, b] = root
    total = 0
    for (r, s), vec in F.get((1, k), empty).items():
        m = moment(r, s)
        if m:
            total = m * sum(vec) + total
    return total


def _t_word_value(symbols: tuple[str, ...]) -> Fraction:
    # a T-word is the D/T word with empty diagonal blocks and unit moments
    total = _pairing_sum(symbols, ((0, 0),) * len(symbols), lambda r, s: 1)
    return Fraction(total, factorial(len(symbols) // 2 + 1))


def t_word_moment(eps: StarWord) -> MomentValue:
    """Limit trace of T^{e(1)} ... T^{e(k)}; exact, and 0 with no pairings."""
    return MomentValue.wrap(_t_word_value(tuple(eps.symbols)))


def dt_word_moment(w: DTWord, mu: MeasureModel) -> MomentValue:
    """Limit trace of a canonical D/T word under the base measure ``mu``.

    Over a float-parameter measure every word with T-slots comes back tagged
    float, pure-T, unbalanced and odd words included, whatever its value.
    """
    return MomentValue.wrap(_dt_word_value(w, mu, {}))


def _dt_word_value(w: DTWord, mu: MeasureModel, table: dict):
    """The raw value of :func:`dt_word_moment`; ``table`` caches ``mu.moment``
    by (r, s) for as long as its owner keeps it, real exact moments as
    ``Fraction`` (cheaper to multiply than ``ComplexRational``)."""

    def moment(r: int, s: int):
        value = table.get((r, s))
        if value is None:
            value = mu.moment(r, s)
            if isinstance(value, ComplexRational) and value.is_real():
                value = value.re
            table[r, s] = value
        return value

    k = len(w.eps)
    if k == 0:
        return moment(*w.blocks[0]) if w.blocks else CQ_ONE
    total = _pairing_sum(w.eps.symbols, w.blocks, moment)
    # M(0, 0) = 1 in the measure's own arithmetic: a float measure keeps its
    # float tag even when every term vanished and no float moment was taken
    return total * moment(0, 0) * Fraction(1, factorial(k // 2 + 1))


_Z_CACHE: dict[tuple, MomentValue] = {}
_Z_CACHE_LOCK = threading.Lock()


def _least_rotation(symbols: tuple[str, ...]) -> tuple[str, ...]:
    if not symbols:
        return symbols
    return min(symbols[i:] + symbols[:i] for i in range(len(symbols)))


def z_word_moment(
    zw: ZWord, mu: MeasureModel, max_len: int = DEFAULT_Z_LEN_CAP
) -> MomentValue:
    """Limit trace of Z^{e(1)} ... Z^{e(k)} for Z = D + c*T over ``mu``.

    Each letter expands to its diagonal or scaled triangular part; of the 2^k
    resulting D/T words, those whose triangular part is balanced (the others
    have no compatible pairing) are evaluated, sharing one table of the
    measure's moments, and combined with the matching powers of c.  Words are
    rotated to their least cyclic representative first (the trace is
    cyclic), and results are memoized per (word, c, measure).
    """
    k = len(zw.eps)
    if k > max_len:
        raise CapExceededError(
            f"Z-word length {k} exceeds the cap of {max_len}; raise max_len to override"
        )
    symbols = _least_rotation(tuple(zw.eps.symbols))
    # Fraction(1, 2) and 0.5 hash alike; the type tag keeps exact and float
    # scales in separate cache slots
    key = (symbols, type(zw.c).__name__, zw.c, measure_fingerprint(mu))
    with _Z_CACHE_LOCK:
        hit = _Z_CACHE.get(key)
    if hit is not None:
        return hit

    c_sq = zw.c * zw.c
    ones = sum(1 << j for j in range(k) if symbols[j] == ONE)
    table: dict = {}  # mu's moments, shared by the 2^k D/T words
    total = 0
    for mask in range(1 << k):
        t_count = mask.bit_count()
        if 2 * (mask & ones).bit_count() != t_count:
            continue  # an unbalanced triangular part has no compatible pairing
        letters = []
        for j in range(k):
            if mask >> j & 1:
                letters.append("T" if symbols[j] == ONE else "T*")
            else:
                letters.append("D" if symbols[j] == ONE else "D*")
        term = _dt_word_value(DTWord.from_letters(letters), mu, table)
        total = term * c_sq ** (t_count // 2) + total
    result = MomentValue.wrap(total)
    with _Z_CACHE_LOCK:
        _Z_CACHE.setdefault(key, result)
    return result


def scaled_dt(
    mu: MeasureModel, c, lam: ComplexRational
) -> tuple[MeasureModel, Fraction | float]:
    """Parameters of lam*Z when Z has parameters (mu, c): push forward mu by
    lam and multiply the scale by |lam|."""
    if not isinstance(lam, ComplexRational):
        lam = ComplexRational(Fraction(lam))
    if lam.abs_squared() == 0:
        raise ValueError("scaling by zero is rejected")
    magnitude = rational_sqrt(lam.abs_squared())
    return scale(mu, lam), magnitude * c


def adjoint_dt(mu: MeasureModel, c) -> tuple[MeasureModel, Fraction | float]:
    """Parameters of Z*: the conjugated measure with the same scale."""
    return conjugate(mu), c
