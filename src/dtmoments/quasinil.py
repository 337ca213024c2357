"""The quasi-nilpotent specialization: alternating-exponent traces of T alone.

M(k_1, l_1, ..., k_n, l_n) denotes the trace of
(T*)^{k_1} T^{l_1} ... (T*)^{k_n} T^{l_n} for the scale-1, point-mass-at-zero
generator T.  These numbers obey a recursion over subsets of the block
positions which evaluates any such trace without enumerating pairings; the
pairing engine in :mod:`dtmoments.moments` serves as its independent oracle.

Symmetries used for canonical memo keys: the value is invariant under cyclic
rotation, under exchanging the roles of T and T* (T* has the same
*-distribution), and under reversal; zero exponents merge into their
neighbors.  Unequal total powers of T and T* force the value 0.
"""

from __future__ import annotations

import itertools
import threading
from fractions import Fraction
from math import factorial

DEFAULT_NK_CAP = 12


class _Zero:
    """Distinguished token for sequences whose trace is identically zero."""

    __slots__ = ()

    def __repr__(self):
        return "ZERO"


ZERO = _Zero()


def _merge_runs(seq) -> tuple[tuple[str, int], ...]:
    """Cyclic run encoding over symbols '*' and '1' with zero runs dropped."""
    runs: list[list] = []
    for idx, count in enumerate(seq):
        if count < 0:
            raise ValueError("exponents must be nonnegative")
        if count == 0:
            continue
        symbol = "*" if idx % 2 == 0 else "1"
        if runs and runs[-1][0] == symbol:
            runs[-1][1] += count
        else:
            runs.append([symbol, count])
    # cyclic wrap-around merge
    while len(runs) > 1 and runs[0][0] == runs[-1][0]:
        runs[0][1] += runs[-1][1]
        runs.pop()
    return tuple((s, c) for s, c in runs)


def _rotate_swap(flat: tuple) -> tuple:
    # (k1,l1,...,kn,ln) -> (l1,k2,l2,...,kn,ln,k1): shift one slot, roles swap
    return flat[1:] + flat[:1]


def _reverse_swap(flat: tuple) -> tuple:
    # (k1,l1,...,kn,ln) -> (ln,kn,...,l1,k1): the adjoint word
    return tuple(reversed(flat))


def canonicalize(seq) -> tuple | _Zero:
    """Canonical representative of an alternating exponent sequence.

    Zero exponents are merged away (cyclically); an unbalanced sequence maps
    to ZERO; otherwise the lexicographically least tuple over all rotations
    and the reversal is returned.  The empty tuple stands for the trace of 1.
    """
    seq = tuple(seq)
    if len(seq) % 2 != 0:
        raise ValueError("alternating exponent sequences have even length")
    stars = sum(seq[0::2])
    ones = sum(seq[1::2])
    if stars != ones:
        return ZERO
    runs = _merge_runs(seq)
    if not runs:
        return ()
    # runs alternate cyclically and come in star/one pairs; start at a star run
    if runs[0][0] != "*":
        runs = runs[1:] + runs[:1]
    flat = tuple(c for _, c in runs)
    candidates = []
    for start in (flat, _reverse_swap(flat)):
        cur = start
        for _ in range(len(flat)):
            candidates.append(cur)
            cur = _rotate_swap(cur)
    return min(candidates)


_MEMO: dict[tuple, Fraction] = {(): Fraction(1)}
_MEMO_LOCK = threading.Lock()


def m_recursive(seq) -> Fraction:
    """Exact trace of the alternating word, by the subset recursion.

    For a canonical sequence with all entries >= 1 and balanced total degree
    m, the trace is 1/(m+1) times a sum over nonempty subsets of the block
    positions: the chosen positions lose one power on each side, the stretch
    between consecutive chosen positions splits off as an independent factor,
    and the remainder (wrapped around the first and last chosen positions)
    stays attached.  Sub-sequences are canonicalized and memoized.
    """
    canon = canonicalize(seq)
    if canon is ZERO:
        return Fraction(0)
    with _MEMO_LOCK:
        hit = _MEMO.get(canon)
    if hit is not None:
        return hit

    ks = canon[0::2]
    ls = canon[1::2]
    n = len(ks)
    m = sum(ks)
    total = Fraction(0)
    for r in range(1, n + 1):
        for chosen in itertools.combinations(range(n), r):
            j_first, j_last = chosen[0], chosen[-1]
            outer: list[int] = []
            for idx in range(j_first):
                outer += [ks[idx], ls[idx]]
            outer += [ks[j_first] - 1, ls[j_last] - 1]
            for idx in range(j_last + 1, n):
                outer += [ks[idx], ls[idx]]
            prod = m_recursive(tuple(outer))
            for a, b in itertools.pairwise(chosen):
                if prod == 0:
                    break
                inner: list[int] = [ls[a] - 1]
                for idx in range(a + 1, b):
                    inner += [ks[idx], ls[idx]]
                inner.append(ks[b] - 1)
                prod *= m_recursive(tuple(inner))
            total += prod
    value = total / (m + 1)
    with _MEMO_LOCK:
        _MEMO.setdefault(canon, value)
    return value


def tstt_moment(p: int) -> Fraction:
    """Trace of (T*T)^p in closed form: p^p / (p+1)!."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return Fraction(p**p, factorial(p + 1))


def stn_moment(N: int, p: int) -> Fraction:
    """Trace of the p-th power for the strictly-upper N-block compression:
    (p - 1/N)(p - 2/N)...(p - p/N) / (p+1)!; equals 1 at p = 0."""
    if N < 1 or p < 0:
        raise ValueError("need N >= 1 and p >= 0")
    num = Fraction(1)
    for i in range(1, p + 1):
        num *= p - Fraction(i, N)
    return num / factorial(p + 1)


def ttn_moment(N: int, p: int) -> Fraction:
    """Trace of the p-th power for the full upper-triangular N-block model:
    (p + 1/N)(p + 2/N)...(p + p/N) / (p+1)!; equals 1 at p = 0."""
    if N < 1 or p < 0:
        raise ValueError("need N >= 1 and p >= 0")
    num = Fraction(1)
    for i in range(1, p + 1):
        num *= p + Fraction(i, N)
    return num / factorial(p + 1)


def conjecture_value(k: int, n: int) -> Fraction:
    """The conjectured closed form n^{nk} / (nk+1)! for the trace of
    ((T*)^k T^k)^n."""
    if k < 1 or n < 1:
        raise ValueError("need k, n >= 1")
    return Fraction(n ** (n * k), factorial(n * k + 1))
