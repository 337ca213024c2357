"""Exact limit *-moments of words in the diagonal and triangular generators.

The limit trace of a word in D, D*, T and T* is a sum over the non-crossing
pairings of its T letters that join each T to a T*: each pairing folds the
k-gon of corners between T letters into a tree and contributes the product,
over the tree's vertices (merge classes of corners), of the base measure's
mixed moments at the totals of the D and D* letters at the class's corners,
times the tree's linear-extension count, all divided by (k/2 + 1)!.

The pairings are never enumerated: :func:`_word_sum` sums over all of them
at once by an interval DP over letter positions, with one rank vector per
root exponent pair (r, s): a polynomial in the root's position x, which an
arc integrates once and a join multiplies, held as integers over one
denominator (Gaussian integers for non-real moments, floats over 1 for float
ones) that only the trace divides: O(k^5) integer operations for a T-word of
k letters, not Catalan(k/2) tree counts.  Each letter is one position: D a
diagonal part, T a triangular part, Z = D + c*T both, so one DP sums over the
2^k part choices of a Z-word.  :func:`word_moment` is the one entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, cos, factorial, gcd, hypot, lcm, pi, sin
from typing import NamedTuple

from .errors import WordParseError
from .exact import ComplexRational, MomentValue, as_cq, order, parse_rational, positive, rational_sqrt
from .measures import Atomic, MeasureModel, UniformEllipse, conjugate, scale
from .ncpair import ONE, STAR, StarWord

# a cold (Z*Z)^12 on the unit disk takes 0.03-0.05 s, and two more letters
# multiply that by about 1.4 ((Z*Z)^16 0.12-0.2 s)
DEFAULT_Z_LEN_CAP = 24

T_LETTERS = ("T", "T*")
D_LETTERS = ("D", "D*")
Z_LETTERS = ("Z", "Z*")
ALL_LETTERS = T_LETTERS + D_LETTERS + Z_LETTERS


def parse_word(text: str) -> tuple[str, ...]:
    """Split a word like "Z* Z" or "D T D* T*" into letter tokens."""
    return _check_letters(text.split())


def _check_letters(letters) -> tuple[str, ...]:
    """The letters as a tuple, if each is a word letter and Z letters are not
    mixed with D/T letters; else a WordParseError."""
    letters = tuple(letters)
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
        w = "diagonal exponent"
        object.__setattr__(self, "blocks", tuple((order(a, w, 0), order(b, w, 0)) for a, b in self.blocks))

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
        object.__setattr__(self, "c", positive(self.c, "the scale c"))

    @classmethod
    def from_letters(cls, letters, c=Fraction(1)) -> "ZWord":
        eps = []
        for tok in letters:
            if tok not in Z_LETTERS:
                raise WordParseError(f"letter {tok!r} is not a Z letter")
            eps.append(ONE if tok == "Z" else STAR)
        return cls(StarWord(tuple(eps)), c)


def _word_sum(parts, moment, c_sq=1):
    """Limit trace of a word given letter by letter, summed over every choice
    of part per letter and every compatible non-crossing pairing.

    ``parts[p]`` is position p's diagonal exponents (r, s), or None, and its
    triangular symbol, or None; each triangular part weighs c.  Positions
    a..e-1 fold to a tree rooted at the class of the corners before a and
    after e - 1; ``G[a][e]`` maps the root's exponents (r, s) to its rank
    vector (numerators, d), summed over part choices and pairings.  A diagonal
    part at a joins the root; an arc from a to j closes the class of a+1..j-1,
    and ``closed[a][j]``, its vector times its moment and c^2, cut by one gcd
    and integrated once, multiplies the root.  The trace divides once: it sums
    moment(r, s) * sum(vec) / (d * len(vec)!).
    """
    n = len(parts)
    weights: dict = {}
    G = [[{(0, 0): ([1], 1)}] * (n + 1) for _ in range(n + 1)]
    closed: list[dict] = [{} for _ in range(n)]
    for length in range(1, n + 1):
        for a in range(n - length + 1):
            e = a + length
            diag, sym = parts[a]
            if sym is not None and parts[e - 1][1] not in (None, sym):
                child, d = [], 1
                for (r, s), (vec, vd) in G[a + 1][e - 1].items():
                    w, wd = weights.get((r, s)) or weights.setdefault((r, s), _lift(moment(r, s) * c_sq))
                    child, d = _plus((child, d), vec, vd * wd, w) if w else (child, d)
                if child:
                    g = gcd(d, *(x.real for x in child), *(x.imag for x in child)) if d > 1 else 1
                    child = [x // g for x in child] if g > 1 else child
                    closed[a][e - 1] = _integral(child, sym == STAR), d // g
            root = {(r + diag[0], s + diag[1]): vec for (r, s), vec in G[a + 1][e].items()} if diag else {}
            for j, (cv, cd) in closed[a].items():
                for (r, s), (vec, d) in G[j + 1][e].items():
                    root[r, s] = _plus(root.get((r, s)) or ([], 1), _mul(vec, cv), d * cd)
            G[a][e] = root
    total = 0
    for (r, s), (vec, d) in G[0][n].items():
        if m := moment(r, s):
            x = ComplexRational(*x) if type(x := sum(vec)) is _GaussInt else x
            total = m * x * Fraction(1, d * factorial(len(vec))) + total
    # M(0, 0) and c^0 are 1 in the measure's and the scale's own arithmetic:
    # a float measure or scale keeps its float tag when every term vanished
    return total * moment(0, 0) * c_sq**0


class _GaussInt(NamedTuple):
    """A Gaussian integer real + imag*i: the numerator of a non-real exact weight."""

    real: int
    imag: int

    def __add__(self, o):
        return _GaussInt(self.real + o.real, self.imag + o.imag)

    def __mul__(self, o):
        if type(o) is _GaussInt:
            return _GaussInt(self.real * o.real - self.imag * o.imag, self.real * o.imag + self.imag * o.real)
        return _GaussInt(self.real * o, self.imag * o)

    def __floordiv__(self, k: int):
        return _GaussInt(self.real // k, self.imag // k)

    __radd__, __rmul__ = __add__, __mul__


def _lift(x) -> tuple:
    """A weight as (numerator, denominator), a float or a real complex as a float over 1."""
    if isinstance(x, ComplexRational):
        d = lcm(x.re.denominator, x.im.denominator)
        return _GaussInt(int(x.re * d), int(x.im * d)), d
    return (x.numerator, x.denominator) if isinstance(x, Fraction) else ((x if x.imag else x.real), 1)


def _plus(f: tuple, g: list, gd: int, w=1) -> tuple:
    """The pair f, numerators and denominator, plus w times g over gd: over the lcm of the two."""
    f, fd = f
    if fd == gd and w == 1:
        return _add(f, g), fd
    d = lcm(fd, gd)
    k = d // gd * w
    return _add(f if fd == d else [d // fd * x for x in f], g if k == 1 else [k * x for x in g]), d


def _integral(g: list, below: bool) -> list:
    """Rank vector g integrated from 0 to x (``below``) or from x to 1: its
    prefix or suffix sums, one entry longer (:func:`_add` has the format)."""
    q = len(g)
    h = [0] * (q + 1)
    if below:
        for j in range(q):
            h[j + 1] = h[j] + g[j]
    else:
        for j in range(q - 1, -1, -1):
            h[j] = h[j + 1] + g[j]
    return h


def _mul(f: list, h: list) -> list:
    """Product of two rank vectors as polynomials; entries may be counts,
    weighted sums' integer or Gaussian-integer numerators, or floats."""
    m, q = len(f), len(h) - 1
    out = [0] * (m + q)
    for i, fi in enumerate(f):
        if fi:
            for j, hj in enumerate(h):
                if hj:
                    out[i + j] += fi * hj * comb(i + j, i) * comb(m - 1 - i + q - j, q - j)
    return out


def _add(f: list, g: list) -> list:
    """Sum of two rank vectors as polynomials: v of length m is sum_i v[i]
    B(i, m-1-i), B(i, j) = x^i (1-x)^j / (i! j!), of integral sum(v) / m!;
    B(i, j) = (i+1) B(i+1, j) + (j+1) B(i, j+1) raises the shorter exactly."""
    if len(f) < len(g):
        f, g = g, f
    if not g:
        return f
    for m in range(len(g), len(f)):
        g = [k * x + (m - k) * y for k, x, y in zip(range(m + 1), [0, *g], [*g, 0])]
    return [x + y for x, y in zip(f, g)]


def _narrow(x):
    """An exact real as ``Fraction``, cheaper to multiply than ``ComplexRational``,
    and an exact integer as ``int``, cheaper still; any other value as it is."""
    if isinstance(x, ComplexRational) and x.is_real():
        x = x.re
    return x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x


def _moments_of(mu: MeasureModel):
    """``mu.moment``, narrowed and cached by (r, s) for one word."""
    return cache(lambda r, s: _narrow(mu.moment(r, s)))


# each letter's diagonal exponents (r, s), or None, and triangular symbol, or None
_PARTS = {"T": (None, ONE), "T*": (None, STAR), "D": ((1, 0), None), "D*": ((0, 1), None),
          "Z": ((1, 0), ONE), "Z*": ((0, 1), STAR)}


def _spell(eps: StarWord, letter: str) -> tuple[str, ...]:
    """The star-word as letters: ``letter`` at each plain symbol, its adjoint at each star."""
    return tuple(letter if sym == ONE else letter + "*" for sym in eps.symbols)


def _read_measure(letters: tuple[str, ...], mu: MeasureModel | None) -> MeasureModel:
    """``mu``, where None is the point mass at 0 on a word without D or Z letters."""
    if mu is None and any(t not in T_LETTERS for t in letters):
        raise WordParseError("words with D or Z letters need a measure")
    return Atomic.delta(0) if mu is None else mu


def word_moment(letters, mu: MeasureModel | None = Atomic.delta(0), c=1,
                max_len: int = DEFAULT_Z_LEN_CAP) -> MomentValue:
    """Limit trace of a word in T, T*, D, D* or in Z = D + c*T, Z*, over ``mu``.

    Each letter is one position of the interval DP, and a Z letter offers it
    both parts.  ``max_len`` caps words with Z letters, and a ``c`` other than
    1 needs Z letters; ``mu`` may be None on a word without D or Z letters.
    Over a float measure or with a float scale every word comes back tagged
    float, whatever its value."""
    letters = _check_letters(letters)
    mu = _read_measure(letters, mu)
    c = positive(c, "the scale c")
    max_len = order(max_len, "max_len", 0)
    if any(t in Z_LETTERS for t in letters):
        order(len(letters), "Z-word length", most=max_len)
    elif letters and c != 1:
        raise WordParseError("c scales T inside Z; it needs a word with Z letters")
    parts = [_PARTS[t] for t in letters]
    return MomentValue.wrap(_word_sum(parts, _moments_of(mu), _narrow(c * c)))


def t_word_moment(eps: StarWord) -> MomentValue:
    """Limit trace of T^{e(1)} ... T^{e(k)}; exact, and 0 with no pairings."""
    return word_moment(_spell(eps, "T"))


def dt_word_moment(w: DTWord, mu: MeasureModel) -> MomentValue:
    """Limit trace of a canonical D/T word under the base measure ``mu``: each
    block spelled as its D letters ahead of its T-slot."""
    ts = _spell(w.eps, "T")
    blocks = [("D",) * a + ("D*",) * b + ts[j : j + 1] for j, (a, b) in enumerate(w.blocks)]
    return word_moment(sum(blocks, ()), mu)


def z_word_moment(zw: ZWord, mu: MeasureModel, max_len: int = DEFAULT_Z_LEN_CAP) -> MomentValue:
    """Limit trace of Z^{e(1)} ... Z^{e(k)} for Z = D + c*T over ``mu``."""
    return word_moment(_spell(zw.eps, "Z"), mu, zw.c, max_len)


def scaled_dt(
    mu: MeasureModel, c, lam: ComplexRational
) -> tuple[MeasureModel, Fraction | float]:
    """Parameters of lam*Z when Z has parameters (mu, c): push forward mu by
    lam and multiply the scale, read as ``ZWord`` reads it, by |lam|."""
    c = positive(c, "the scale c")
    lam = as_cq(lam)
    pushed = scale(mu, lam)  # rejects lam = 0
    return pushed, rational_sqrt(lam.abs_squared()) * c


def adjoint_dt(mu: MeasureModel, c) -> tuple[MeasureModel, Fraction | float]:
    """Parameters of Z*: the conjugated measure with the same scale, read as
    ``ZWord`` reads it."""
    return conjugate(mu), positive(c, "the scale c")


def elliptic_dt(theta) -> tuple[UniformEllipse, float]:
    """Parameters of cos(theta) H1 + i sin(theta) H2: the ellipse of a = cos(theta),
    b = sin(theta), and c = 2ab / hypot(a, b); a non-float theta is read by ``parse_rational``."""
    theta = theta if isinstance(theta, float) else float(parse_rational(theta))
    if not 0.0 < theta < pi / 2:
        raise ValueError("theta must lie in (0, pi/2)")
    a, b = cos(theta), sin(theta)
    return UniformEllipse(a, b), 2 * a * b / hypot(a, b)
