"""The quasi-nilpotent specialization: alternating-exponent traces of T alone.

M(k_1, l_1, ..., k_n, l_n) denotes the trace of
(T*)^{k_1} T^{l_1} ... (T*)^{k_n} T^{l_n} for the scale-1, point-mass-at-zero
generator T.  These numbers obey a recursion over subsets of the block
positions which evaluates any such trace without enumerating pairings; the
pairing engine in :mod:`dtmoments.moments` serves as its independent oracle.

Symmetries used for canonical memo keys: the value is invariant under cyclic
rotation, under exchanging the roles of T and T* (T* has the same
*-distribution), and under reversal; zero exponents merge into their
neighbors.  Unequal total powers of T and T* force the value 0.  The memo
holds (m+1)! times each trace of degree m, an integer, so no Fraction arithmetic.
"""

from __future__ import annotations

import itertools
import threading
from fractions import Fraction
from math import comb, factorial, prod

from .exact import order

DEFAULT_NK_CAP = 12
ZERO = None  # the canonical form of a sequence whose trace is identically zero


def canonicalize(seq) -> tuple | None:
    """Canonical representative of an alternating exponent sequence.

    Exponents are read by ``order``, least 0, so a negative one raises
    ValueError, balanced or not; zeros merge away (cyclically); an unbalanced
    sequence maps to ZERO; otherwise the lexicographically least tuple over
    all rotations and the reversal is returned.  The empty tuple stands for
    the trace of 1.
    """
    return _canonical(tuple(order(x, "exponent", 0) for x in seq))


def _canonical(seq: tuple) -> tuple | None:
    """``canonicalize`` of a tuple of nonnegative ints, which it does not read again."""
    if len(seq) % 2 != 0:
        raise ValueError("alternating exponent sequences have even length")
    if sum(seq[0::2]) != sum(seq[1::2]):
        return ZERO
    # one pass: drop zeros, and add a count onto the previous run of the same letter
    runs: list[int] = []
    letter = None
    for idx, count in enumerate(seq):
        if count:
            if idx % 2 == letter:
                runs[-1] += count
            else:
                runs.append(count)
                letter = idx % 2
    # runs alternate letters, so an odd count means the first and last share one
    if len(runs) % 2:
        runs[0] += runs.pop()
    # rotating by one run swaps T and T*; reversing takes the adjoint
    n = len(runs)
    ring = tuple(runs) * 2
    return min((w[i : i + n] for w in (ring, ring[::-1]) for i in range(n)), default=())


_MEMO: dict[tuple, int] = {(): 1}  # canonical sequence -> (m+1)! times its trace
_MEMO_LOCK = threading.Lock()


def m_recursive(seq) -> Fraction:
    """Exact trace of the alternating word, by the subset recursion.

    For a canonical sequence with all entries >= 1 and balanced total degree
    m, the trace is 1/(m+1) times a sum over nonempty subsets of the block
    positions: the chosen positions lose one power on each side, the stretch
    between consecutive chosen positions splits off as an independent factor,
    and the remainder (wrapped around the first and last chosen positions)
    stays attached.  It runs on the integers W = (m+1)! times the trace; a
    dict local to the call looks up sub-sequences as formed, before
    canonicalizing, and ``_MEMO`` keeps W by canonical form across calls.
    The exponents are read once, by ``order`` with least 0, and canonicalized
    once, by ``_scaled``; degree m nests about m calls deep (``RecursionError``).
    """
    seq = tuple(order(x, "exponent", 0) for x in seq)
    scaled = _scaled(seq, {})
    return Fraction(scaled, factorial(sum(seq[0::2]) + 1)) if scaled else Fraction(0)


def _scaled(seq: tuple, formed: dict) -> int:
    """(m+1)! times the trace of seq, of degree m: an integer."""
    value = formed.get(seq)
    if value is not None:
        return value
    canon = _canonical(seq)
    if canon is ZERO:
        value = 0
    else:
        with _MEMO_LOCK:
            value = _MEMO.get(canon)
    if value is None:
        # a subset adds m!/prod((d_i + 1)!) prod(W_i) over its factors, sum(d_i + 1) = m;
        # chains[f] sums the inner factors' part over chains f < ... < last: cubic work
        value = 0
        ends = list(itertools.accumulate(canon[0::2]))  # T* exponents through each block
        for last in range(len(ends)):
            chains = [0] * last + [1]
            for first in range(last, -1, -1):
                a, z, base = 2 * first, 2 * last, ends[first]
                for c in range(first + 1, last + 1):
                    if chains[c]:
                        inner = _scaled((canon[a + 1] - 1, *canon[a + 2 : 2 * c], canon[2 * c] - 1), formed)
                        chains[first] += comb(ends[last] - base, ends[c] - base) * inner * chains[c]
                if chains[first]:
                    outer = _scaled((*canon[:a], canon[a] - 1, canon[z + 1] - 1, *canon[z + 2 :]), formed)
                    value += comb(ends[-1], ends[last] - base) * outer * chains[first]
        with _MEMO_LOCK:
            value = _MEMO.setdefault(canon, value)
    formed[seq] = value
    return value


def tstt_moment(p: int) -> Fraction:
    """Trace of (T*T)^p in closed form: p^p / (p+1)!; equals 1 at p = 0."""
    p = order(p, "p", 0)
    return Fraction(p**p, factorial(p + 1))


def _block_moment(N: int, p: int, sign: int) -> Fraction:
    # (p + sign/N)(p + 2 sign/N)...(p + p sign/N) / (p+1)!, over the common denominator N^p
    N, p = order(N, "N", 1), order(p, "p", 0)
    return Fraction(prod(p * N + sign * i for i in range(1, p + 1)), N**p * factorial(p + 1))


def stn_moment(N: int, p: int) -> Fraction:
    """Trace of the p-th power for the strictly-upper N-block compression:
    (p - 1/N)(p - 2/N)...(p - p/N) / (p+1)!; equals 1 at p = 0."""
    return _block_moment(N, p, -1)


def ttn_moment(N: int, p: int) -> Fraction:
    """Trace of the p-th power for the full upper-triangular N-block model:
    (p + 1/N)(p + 2/N)...(p + p/N) / (p+1)!; equals 1 at p = 0."""
    return _block_moment(N, p, 1)


def conjecture_value(k: int, n: int) -> Fraction:
    """The conjectured closed form n^{nk} / (nk+1)! for the trace of
    ((T*)^k T^k)^n."""
    k, n = order(k, "k", 1), order(n, "n", 1)
    return Fraction(n ** (n * k), factorial(n * k + 1))
