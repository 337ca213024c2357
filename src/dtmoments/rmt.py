"""Seeded random-matrix sampling and trace estimators.

Every run draws from one counter-based Philox stream keyed by its seed, a
whole number from 0 to 2^64 - 1, and its trials take their draws from it in
order: trial 0 draws what a stream keyed by (seed, 0) did in earlier
versions, and later trials differ from theirs.  Every draw is numpy's
ziggurat ``standard_normal``: a triangular draw takes the n(n-1)/2 real parts
and then the n(n-1)/2 imaginary parts of the entries above the diagonal, row
by row, each of variance 1/(2n); a self-adjoint draw adds n diagonal entries
of variance 1/n; a trial's draw from a measure comes first, 2n normals whose
pairs (x, y) give the uniform exp(-(x^2 + y^2)/2) and the direction of x + iy.
Earlier versions drew a full n x n matrix and zeroed its lower half, and a
measure from uniforms, so their estimates are not reproduced bit for bit.  A
block of trials makes one such call, then is scaled, placed and transformed
at once, with estimates bit-identical to one draw per trial.

All estimators share one trial runner, and all but the elliptic one share
one draw of T and D's diagonal.  The runner stacks max(1, 4096 // n^2) trials
into a block, as numpy's per-call cost, not arithmetic, prices a trial at
n = 8-32; from n = 64 a block is one trial.  Each trial draws one matrix per
unstarred letter and traces one word per class: the rotations of a word and
of its adjoint, as tr(w) is unchanged by rotation and tr(w*) = conj tr(w).
That trace is the trace of the product of the word's two halves, the second
held as the lesser of it and its adjoint, or in a run of one class the halves
with the fewest products.  Each prefix of a half is one product per block, its
shorter prefix's product times a letter, freed after its last use; from
n = 128 it skips the zero blocks of triangular factors (T, D, Z and their
adjoints).  Each estimate is a mean over trials of the normalized matrix
trace of a word, with the standard error taken per real/imaginary part (the
larger of the two is reported).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from numbers import Number
from typing import Callable, Sequence

import numpy as np

from .errors import WordParseError
from .exact import order, positive
from .measures import (
    Atomic,
    MeasureModel,
    MomentTable,
    ScaledMeasure,
    UniformAnnulus,
    UniformDisk,
    UniformEllipse,
)
from .moments import D_LETTERS, T_LETTERS, Z_LETTERS, _check_letters, _read_measure, _spell, elliptic_dt
from .ncpair import StarWord

DEFAULT_SIZE_CAP = 2048
DEFAULT_SWEEP_LEN_CAP = 12  # 8,190 words; each further letter doubles the plan's words
_PAIRS = (T_LETTERS, D_LETTERS, Z_LETTERS)  # as strings, each letter sorts before its adjoint
_ADJOINT = {a: b for x, y in _PAIRS for a, b in ((x, y), (y, x))}


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _fill_upper(normals: np.ndarray, upper: np.ndarray, out: np.ndarray) -> None:
    """Scale the (B, 2, n(n-1)/2) normals in place by sqrt(1/(2n)) and put each
    matrix's rows 0 and 1 as the real and imaginary parts above the diagonal of
    the (B, n, n) zero stack ``out``, row by row, where the mask ``upper`` is set."""
    normals *= math.sqrt(1.0 / len(upper) / 2.0)
    mask = upper[None].repeat(len(out), 0)  # out.real[:, upper] and a stride-0 mask are slower
    out.real[mask] = normals[:, 0].ravel()
    out.imag[mask] = normals[:, 1].ravel()


def _check_sampleable(mu: MeasureModel) -> None:
    """Refuse what no sampler can draw.  Every sampler asks first, so it is refused undrawn."""
    if isinstance(mu, ScaledMeasure):
        return _check_sampleable(mu.base)
    if isinstance(mu, MomentTable):
        raise ValueError("moment tables expose no sampler")
    if not isinstance(mu, (Atomic, UniformDisk, UniformAnnulus, UniformEllipse)):
        raise TypeError(f"cannot sample measure model {mu!r}")


def sample_measure(mu: MeasureModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. complex draws from a measure model, from one ``rng.standard_normal`` call."""
    _check_sampleable(mu)
    return _from_normals(mu, rng.standard_normal((2, n)))


def _from_normals(mu: MeasureModel, g: np.ndarray) -> np.ndarray:
    """Draws from ``mu`` made from standard normals (x, y) of shape (..., 2, n).

    A pair gives a uniform u = exp(-(x^2 + y^2)/2) and, independent of it, the
    uniform direction (x + iy)/|x + iy|, 1 where x = y = 0 (Box and Muller).
    Atomic inverts the CDF of its weights at u; disk and annulus take the exact
    radial inverse CDF at u and the direction; the ellipse maps a unit-disk
    draw z to alpha*z + beta*conj(z), as its model does."""
    if isinstance(mu, UniformEllipse):
        a2, b2 = float(mu.a) ** 2, float(mu.b) ** 2
        alpha = math.sqrt(a2 + b2)
        disk = _from_normals(UniformDisk(1), g)
        return alpha * disk + (a2 - b2) / alpha * disk.conj()
    if isinstance(mu, ScaledMeasure):
        return mu.lam.to_complex() * _from_normals(mu.base, g)
    z = g[..., 0, :] + 1j * g[..., 1, :]
    r = np.abs(z)
    u = np.exp(-0.5 * r * r)
    if isinstance(mu, Atomic):
        cum = np.cumsum([float(w) for _, w in mu.atoms])
        locs = np.array([loc.to_complex() for loc, _ in mu.atoms])
        return locs[np.minimum(np.searchsorted(cum, u, side="right"), len(locs) - 1)]
    if isinstance(mu, UniformDisk):
        radius = np.sqrt(float(mu.radius) ** 2 * u)
    else:  # UniformAnnulus, the last model _check_sampleable lets through
        radius = np.sqrt(float(mu.c) - 1.0 + u)
    return radius * np.divide(z, r, out=np.ones_like(z), where=r > 0)


# -- estimators ---------------------------------------------------------------


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean of a normalized word trace, with its standard error."""

    mean: complex
    stderr: float
    n: int
    trials: int
    seed: int

    def to_record(self, word: str, target: complex | None = None) -> dict:
        rec = {
            "word": word,
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "mean_re": self.mean.real,
            "mean_im": self.mean.imag,
            "stderr": self.stderr,
        }
        if target is not None:
            rec["target_re"] = complex(target).real
            rec["target_im"] = complex(target).imag
        return rec


def _summarize(values: np.ndarray, n: int, seed: int) -> Estimate:
    se = max(values.real.std(ddof=1), values.imag.std(ddof=1)) / math.sqrt(values.size)
    return Estimate(complex(values.mean()), float(se), n, values.size, seed)


def _check_size(n: int, trials: int, seed: int) -> tuple[int, int, int]:
    # two trials are the fewest with a standard error; a seed is a 64-bit Philox key
    return (order(n, "matrix size", 1, DEFAULT_SIZE_CAP), order(trials, "trials", 2),
            order(seed, "seed", 0, 2**64 - 1))


def _adjoint(word: tuple[str, ...]) -> tuple[str, ...]:
    """The adjoint word: reversed, each letter swapped for its adjoint."""
    return tuple(_ADJOINT[tok] for tok in reversed(word))


def _classes(words: Sequence[Sequence[str]]) -> tuple[list[tuple], list[tuple[int, bool]]]:
    """The distinct class representatives, and each word's (class index, adjoint flag).

    A word's representative is the least of the rotations of the word and of
    its adjoint (reversed, each letter swapped for its adjoint).  The flag is
    set when it is reached only through the adjoint, so the word's trace is
    the conjugate of the representative's.
    """
    index: dict[tuple[str, ...], int] = {}
    members = []
    for word in words:
        sides = ((tuple(word), False), (_adjoint(tuple(word)), True))
        rotations = ((w[i:] + w[:i], flag) for w, flag in sides for i in range(len(w) or 1))
        rep, flag = min(rotations)
        members.append((index.setdefault(rep, len(index)), flag))
    return list(index), members


def _prefixes(a: tuple[str, ...], b: tuple[str, ...]) -> dict[tuple[str, ...], None]:
    """The prefixes of two letters and more of the halves a and b, each once, in order."""
    return dict.fromkeys(h[:k] for h in (a, b) for k in range(2, len(h) + 1))


def _plan(word: tuple[str, ...], search: bool) -> tuple[tuple, tuple, bool]:
    """Halves (a, b, flip) with tr(word) = tr(a b), b held as the rest's adjoint where ``flip``.
    Canonically a = word[:ceil(L/2)] and b the lesser of the rest and its adjoint.
    ``search`` takes, for up to DEFAULT_SWEEP_LEN_CAP letters, the fewest products,
    L - 2 - max(0, lcp(a, b) - 1), over each rotation, split and form of b; a tie keeps the
    canonical halves.  Holding a as its adjoint, or splitting the adjoint word, forms no
    fewer: the held pair is a rotation's, or shares the suffix that a rotation puts first."""
    mid = (len(word) + 1) // 2
    plans = [(word, mid, _adjoint(word[mid:]) < word[mid:])]
    if search and len(word) <= DEFAULT_SWEEP_LEN_CAP:
        plans += [(word[r:] + word[:r], k, flip) for r in range(len(word)) for k in range(1, len(word))
                  for flip in (False, True)]
    halves = [(w[:k], _adjoint(w[k:]) if flip else w[k:], flip) for w, k, flip in plans]
    return min(halves, key=lambda h: len(_prefixes(*h[:2])))


_BLOCK_ENTRIES = 4096  # a block stacks max(1, 4096 // n^2) trials
_TRACE = partial(np.trace, axis1=1, axis2=2)  # tr(x), trial by trial
_TRACE_OF_PRODUCT = partial(np.einsum, "bij,bji->b")  # tr(x y), trial by trial


def _product(x: np.ndarray, y: np.ndarray, sx: int, sy: int) -> np.ndarray:
    """x @ y, ``sx`` and ``sy`` 1 for an upper triangular factor, -1 for a lower one, 0
    for a full one; y is a letter, and the runner's letters are all triangular or all full.
    From n = 128, p = min(8, n // 64) panels of y's columns [s, e) are each one matmul over
    the blocks that can be nonzero, into a zero result: upper times upper forms rows :e
    only, lower times lower rows s: only."""
    n = x.shape[-1]
    p = min(8, n // 64)
    if p <= 1 or not sy:
        return x @ y
    out = np.zeros(x.shape, dtype=complex)
    for s, e in itertools.pairwise([n * j // p for j in range(p + 1)]):
        k = slice(None, e) if sy > 0 else slice(s, None)  # where y's panel can be nonzero
        rows = k if sx == sy else slice(None)
        np.matmul(x[..., rows, k], y[..., k, s:e], out=out[..., rows, s:e])
    return out


def _run_trials(
    draw: Callable[[np.random.Generator, int], dict[str, np.ndarray]],
    words: Sequence[Sequence[str]],
    n: int,
    trials: int,
    seed: int,
    upper: frozenset[str] = frozenset(),
) -> list[Estimate]:
    """One estimate per word, from trials run in blocks of B = max(1, 4096 // n^2).

    ``draw(rng, size)`` returns a (size, n, n) stack of each unstarred letter,
    its trials drawn in order from ``rng``, the run's one ``_rng(seed)``, so
    each trial draws on from where the one before it stopped; the letters in
    ``upper`` are upper triangular, and a starred letter is copied as its
    conjugate transpose only if a product uses it.  One word per class is
    traced (the empty word's trace is 1), as the O(n^2) trace of the product
    of the halves ``_plan`` gives it: canonical ones, which classes share, or
    in a run of one class the fewest products; where b is held as an adjoint,
    the trace reads it through ``np.vdot``, trial by trial.  Each prefix p of
    a half, from two letters up, is held once per block as ``_product`` of
    held[p[:-1]] and held[p[-1:]], a letter, and is upper (lower) triangular
    where all its letters are.  The plan is made before the trials, and frees
    each product and letter after its last use.  Stacked products and traces
    equal each trial's bit for bit, and go straight into the class's row of
    trial values; the traced rows are divided by n once, at the end.  From
    n = 64 on, a product's arithmetic outweighs numpy's per-call cost, so a
    block is one trial and holds no more than one.
    """
    reps, members = _classes(words)
    traced = [i for i, rep in enumerate(reps) if rep]
    def side(key):  # 1 where every letter is upper triangular, -1 where every one is lower, else 0
        return 1 if upper.issuperset(key) else -1 if upper.issuperset(map(_ADJOINT.get, key)) else 0
    steps, last = [], {}  # last: each key planned so far, to the step that uses it last
    for i in sorted(traced, key=reps.__getitem__):
        a, b, flip = _plan(reps[i], len(traced) == 1)
        forms = [(p, side(p[:-1]), side(p[-1:])) for p in _prefixes(a, b) if p not in last]
        trace = (lambda x, y: [*map(np.vdot, x, y)]) if flip else _TRACE_OF_PRODUCT if b else _TRACE
        keys = (b, a) if flip else (a, b) if b else (a,)  # vdot(b, a) is tr(a b^H)
        steps.append((i, forms, trace, keys, []))
        last.update(dict.fromkeys(set(keys).union(*((p[:-1], p[-1:]) for p, *_ in forms)), steps[-1]))
    for key, step in last.items():
        step[-1].append(key)
    letters = [key[0] for key in last if len(key) == 1]
    size = max(1, _BLOCK_ENTRIES // (n * n))
    rng = _rng(seed)
    values = np.ones((len(reps), trials), dtype=complex)
    for start in range(0, trials, size):
        block = slice(start, min(start + size, trials))
        mats = draw(rng, block.stop - start)
        held = {(x,): mats[x] if x in mats else mats[_ADJOINT[x]].conj().swapaxes(1, 2)
                for x in letters}
        del mats  # drops the letters no word uses
        for i, forms, trace, keys, frees in steps:
            for key, *sides in forms:
                held[key] = _product(held[key[:-1]], held[key[-1:]], *sides)
            values[i, block] = trace(*[held[key] for key in keys])
            for key in frees:
                del held[key]
    values.real[traced] /= n  # part by part: Python's complex(v) / n, up to a zero part's sign
    values.imag[traced] /= n
    return [_summarize(values[i].conj() if flag else values[i], n, seed) for i, flag in members]


def _triangular(
    rng: np.random.Generator,
    size: int,
    upper: np.ndarray,
    mu: MeasureModel | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """A (size, n, n) stack of strictly upper triangular draws of variance 1/n,
    and the (size, n) diagonals drawn from ``mu``, if given, from one
    ``standard_normal`` call per block: each trial draws in order from ``rng``
    its diagonal's 2n normals, then the triangle's real parts, then its
    imaginary parts.  The block is then scaled, placed and transformed at once."""
    n = len(upper)
    m, d = n * (n - 1) // 2, 0 if mu is None else 2 * n
    if mu is not None:
        _check_sampleable(mu)
    normals, t = rng.standard_normal((size, d + 2 * m)), np.zeros((size, n, n), dtype=complex)
    _fill_upper(normals[:, d:].reshape(size, 2, m), upper, t)
    return t, None if mu is None else _from_normals(mu, normals[:, :d].reshape(size, 2, n))


def _with_diagonal(m: np.ndarray, d: np.ndarray) -> np.ndarray:
    m.reshape(len(m), -1)[:, :: m.shape[-1] + 1] = d  # one row of d per matrix, or one d
    return m


def _dt_estimates(words: Sequence[Sequence[str]], n: int, trials: int, seed: int,
                  diagonal: MeasureModel | np.ndarray | None = None, c: float = 1.0) -> list[Estimate]:
    """One estimate per word, from trials of T, and of Z = D + c*T or D where
    the words use them; D's diagonal is drawn per trial from the measure
    ``diagonal``, or is the array ``diagonal`` in every trial."""
    drawn = {x[0] for word in words for x in word}  # the unstarred letters
    mu = diagonal if drawn - {"T"} and not isinstance(diagonal, np.ndarray) else None
    upper = ~np.tri(n, dtype=bool)

    def draw(rng, size):
        t, d = _triangular(rng, size, upper, mu)
        d = diagonal if d is None else d
        mats = {"T": t}
        for x in drawn - {"T"}:  # Z = c*T + diag(d) and D = diag(d), d onto a zero diagonal
            mats[x] = _with_diagonal(c * t if x == "Z" else np.zeros_like(t), d)
        return mats

    return _run_trials(draw, words, n, trials, seed, frozenset(("T", "D", "Z")))  # each upper triangular


def estimate_word_moment(
    letters: Sequence[str],
    n: int,
    trials: int,
    seed: int,
    mu: MeasureModel | None = None,
    c: float = 1.0,
) -> Estimate:
    """Monte Carlo normalized trace of a word in {D, D*, T, T*} or {Z, Z*}.

    The diagonal is i.i.d. from ``mu`` (required for D or Z words; others take
    only the point mass at 0 and draw no diagonal) and the triangular factor
    is strictly upper triangular with i.i.d. complex N(0, 1/n) entries, drawn
    independently per trial; a Z letter stands for D + c*T, with c > 0.  A c
    other than 1 needs Z letters.
    """
    n, trials, seed = _check_size(n, trials, seed)
    letters = _check_letters(letters)
    mu = _read_measure(letters, mu)
    if all(t in T_LETTERS for t in letters) and mu != Atomic.delta(0):
        raise WordParseError("a measure is the law of D; it needs a word with D or Z letters")
    c = float(positive(c, "the scale c"))
    if c != 1 and not any(t in Z_LETTERS for t in letters):
        raise WordParseError("c scales T inside Z; it needs a word with Z letters")
    return _dt_estimates([letters], n, trials, seed, mu, c)[0]


def estimate_elliptic_moment(
    theta: float, eps: StarWord, n: int, trials: int, seed: int
) -> Estimate:
    """Monte Carlo trace of the star-word applied to cos(theta)H1 + i sin(theta)H2.

    H1 and H2 are independent self-adjoint Gaussian matrices with entry
    variance 1/n; theta is read by ``elliptic_dt``.  A block's one
    ``standard_normal`` call draws, trial by trial, H1's upper parts and
    diagonal, then H2's.
    """
    n, trials, seed = _check_size(n, trials, seed)
    ellipse = elliptic_dt(theta)[0]
    upper, m = ~np.tri(n, dtype=bool), n * (n - 1) // 2

    def draw(rng, size):
        h, normals = np.zeros((size, 2, n, n), dtype=complex), rng.standard_normal((size, 2, 2 * m + n))
        for hj, nj in zip(h.swapaxes(0, 1), normals.swapaxes(0, 1)):  # H1, then H2
            _fill_upper(nj[:, : 2 * m].reshape(size, 2, m), upper, hj)
            hj += hj.conj().swapaxes(1, 2)
            _with_diagonal(hj, math.sqrt(1.0 / n) * nj[:, 2 * m :])  # its reshape views the strided hj
        return {"Z": ellipse.a * h[:, 0] + 1j * ellipse.b * h[:, 1]}

    return _run_trials(draw, [_spell(eps, "Z")], n, trials, seed)[0]


def deterministic_diagonal_run(
    entries_generator: Callable[[int], Sequence[complex]],
    c: float,
    eps: StarWord,
    n: int,
    trials: int,
    seed: int,
) -> Estimate:
    """Z-word estimates with a fixed (non-random) diagonal: Z = D + c*T.

    Only the triangular factor is random; the diagonal comes from
    ``entries_generator(n)`` and is reused across trials.
    """
    n, trials, seed = _check_size(n, trials, seed)
    c = float(positive(c, "the scale c"))
    entries = list(entries_generator(n))
    if any(isinstance(x, bool) or not isinstance(x, Number) for x in entries):
        raise TypeError("diagonal entries must be numbers, not booleans, strings or other objects")
    entries = np.asarray(entries, dtype=complex)
    if entries.shape != (n,):
        raise ValueError(f"need {n} diagonal entries, got {entries.size}")
    if not np.isfinite(entries).all():
        raise ValueError("diagonal entries must be finite")
    return _dt_estimates([_spell(eps, "Z")], n, trials, seed, entries, c)[0]


def pure_t_word_sweep(
    max_len: int, n: int, trials: int, seed: int
) -> dict[tuple[str, ...], Estimate]:
    """Traces of every word in T, T* up to ``max_len`` letters, per trial.

    One triangular sample per trial serves all words.  The runner traces one
    word per rotation-and-adjoint class through the products of its two
    canonical halves and their prefixes, each formed once per trial and
    shared across classes: at ``max_len`` 6 the 126 words fall into 22
    classes, and a trial forms 5 matrix products where the prefixes of all
    the words would take 60; from n = 128 each skips its zero blocks.  The
    plan is made before the first trial, so ``max_len`` is capped at 12.
    """
    n, trials, seed = _check_size(n, trials, seed)
    max_len = order(max_len, "max_len", 1, DEFAULT_SWEEP_LEN_CAP)
    words = sorted(
        w for k in range(1, max_len + 1) for w in itertools.product(T_LETTERS, repeat=k)
    )
    return dict(zip(words, _dt_estimates(words, n, trials, seed)))
