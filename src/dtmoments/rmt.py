"""Seeded random-matrix sampling and trace estimators.

Every sampler draws from a counter-based Philox stream keyed by
(seed, trial_index), so trials are independent, order-insensitive, and
bit-reproducible.  Complex N(0, sigma^2) entries are built from two
independent real normals of variance sigma^2/2 each, generated by numpy's
ziggurat ``standard_normal`` on that stream.

All estimators share one trial runner.  Each trial draws one matrix per
unstarred letter and traces one word per class: the rotations of a word and
of its adjoint, as tr(w) is unchanged by rotation and tr(w*) = conj tr(w).
That trace is the trace of the product of the word's two halves, and a half
and its adjoint share one product per trial, built on its prefix's product
and freed after its last use.  Each estimate is a mean over trials of the
normalized matrix trace of a word, with the standard error taken per
real/imaginary part (the larger of the two is reported).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import CapExceededError, WordParseError
from .measures import (
    Atomic,
    MeasureModel,
    MomentTable,
    ScaledMeasure,
    UniformAnnulus,
    UniformDisk,
    UniformEllipse,
)
from .moments import D_LETTERS, T_LETTERS, Z_LETTERS
from .ncpair import ONE, StarWord

DEFAULT_SIZE_CAP = 2048
_MASK64 = (1 << 64) - 1
_PAIRS = (T_LETTERS, D_LETTERS, Z_LETTERS)  # as strings, each letter sorts before its adjoint
_ADJOINT = {a: b for x, y in _PAIRS for a, b in ((x, y), (y, x))}


def _rng(seed: int, trial_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed & _MASK64, trial_index & _MASK64], dtype=np.uint64))
    )


def _complex_normal(rng: np.random.Generator, shape, sigma_sq: float) -> np.ndarray:
    scale = math.sqrt(sigma_sq / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _sample_utgrm(rng: np.random.Generator, n: int, sigma_sq: float) -> np.ndarray:
    """Strictly upper triangular, i.i.d. complex N(0, sigma_sq) above the diagonal."""
    return np.triu(_complex_normal(rng, (n, n), sigma_sq), k=1)


def _sample_sgrm(rng: np.random.Generator, n: int, sigma_sq: float) -> np.ndarray:
    """Self-adjoint: complex N(0, sigma_sq) above the diagonal, real on it."""
    upper = _sample_utgrm(rng, n, sigma_sq)
    diag = math.sqrt(sigma_sq) * rng.standard_normal(n)
    return upper + upper.conj().T + np.diag(diag)


def sample_measure(mu: MeasureModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. complex draws from a measure model.

    Atomic uses inverse-CDF on the weights; disk and annulus use the exact
    radial inverse CDF with a uniform angle; the ellipse maps a unit-disk draw
    z to alpha*z + beta*conj(z), as its model does.  Moment tables are not
    sampleable.
    """
    if isinstance(mu, Atomic):
        cum = np.cumsum([float(w) for _, w in mu.atoms])
        locs = np.array([loc.to_complex() for loc, _ in mu.atoms])
        idx = np.searchsorted(cum, rng.random(n), side="right")
        return locs[np.minimum(idx, len(locs) - 1)]
    if isinstance(mu, UniformDisk):
        radius = np.sqrt(float(mu.radius) ** 2 * rng.random(n))
        angle = 2.0 * math.pi * rng.random(n)
        return radius * np.exp(1j * angle)
    if isinstance(mu, UniformAnnulus):
        radius = np.sqrt(float(mu.c) - 1.0 + rng.random(n))
        angle = 2.0 * math.pi * rng.random(n)
        return radius * np.exp(1j * angle)
    if isinstance(mu, UniformEllipse):
        a2, b2 = float(mu.a) ** 2, float(mu.b) ** 2
        alpha = math.sqrt(a2 + b2)
        disk = sample_measure(UniformDisk(1), n, rng)
        return alpha * disk + (a2 - b2) / alpha * disk.conj()
    if isinstance(mu, ScaledMeasure):
        return mu.lam.to_complex() * sample_measure(mu.base, n, rng)
    if isinstance(mu, MomentTable):
        raise ValueError("moment tables expose no sampler")
    raise TypeError(f"cannot sample measure model {mu!r}")


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


def _check_size(n: int, trials: int) -> None:
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    if n < 1:
        raise ValueError(f"matrix size {n} is below 1")
    if n > DEFAULT_SIZE_CAP:
        raise CapExceededError(f"matrix size {n} exceeds the cap of {DEFAULT_SIZE_CAP}")


def _canonical(half: tuple[str, ...]) -> tuple[tuple[str, ...], bool]:
    """The lesser of a word and its adjoint, and whether it is the adjoint."""
    adj = tuple(_ADJOINT[tok] for tok in reversed(half))
    return (adj, True) if adj < half else (half, False)


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
        sides = ((tuple(word), False), (tuple(_ADJOINT[tok] for tok in reversed(word)), True))
        rotations = ((w[i:] + w[:i], flag) for w, flag in sides for i in range(len(w) or 1))
        rep, flag = min(rotations)
        members.append((index.setdefault(rep, len(index)), flag))
    return list(index), members


def _plan_product(key: tuple[str, ...], forms: list, formed: set) -> None:
    """Append each unformed prefix of ``key``, then ``key``, as (key, left, flip, right)."""
    if len(key) > 1 and key not in formed:
        formed.add(key)
        left, flip = (key[:-1], False) if len(key) == 2 else _canonical(key[:-1])
        _plan_product(left, forms, formed)
        forms.append((key, left, flip, key[-1:]))


def _run_trials(
    draw: Callable[[np.random.Generator], dict[str, np.ndarray]],
    words: Sequence[Sequence[str]],
    n: int,
    trials: int,
    seed: int,
) -> list[Estimate]:
    """One estimate per word; trial t traces the words in ``draw(_rng(seed, t))``.

    ``draw`` returns the trial's matrix for each unstarred letter; a starred
    letter is copied as its ``.conj().T`` only if a product uses it.  One
    word per class is traced (the empty word's trace is 1), as the O(n^2)
    trace of the product of its halves w[:ceil(|w|/2)] and the rest.  A half h
    is held once per trial as the product of c = min(h, adj h), made as its
    prefix's product @ its last letter; where c is adj h, the trace reads it
    conjugate-transposed through ``np.vdot`` without a copy.  The plan is made
    before the trials, and frees each product and letter after its last use.
    """
    reps, members = _classes(words)
    steps, formed, last = [], set(), {}
    for i in sorted((i for i, rep in enumerate(reps) if rep), key=reps.__getitem__):
        rep = reps[i]
        # only the second half b can be flagged: adj(a) < a would make adj(a) + adj(b),
        # a rotation of adj(rep), less than rep; np.vdot(b, a) is tr(a b^H)
        mid = (len(rep) + 1) // 2
        a, (b, flip) = rep[:mid], _canonical(rep[mid:])
        forms: list = []
        for half in filter(None, (a, b)):
            _plan_product(half, forms, formed)
        trace = np.trace if not b else np.vdot if flip else partial(np.einsum, "ij,ji->")
        keys = (b, a) if flip else (a, b) if b else (a,)
        steps.append((i, forms, trace, keys, []))
        last.update(dict.fromkeys(set(keys).union(*((f[1], f[3]) for f in forms)), steps[-1]))
    for key, step in last.items():
        step[-1].append(key)
    letters = [key[0] for key in last if len(key) == 1]
    values = np.ones((len(reps), trials), dtype=complex)
    for t in range(trials):
        mats = draw(_rng(seed, t))
        held = {(x,): mats[x] if x in mats else mats[_ADJOINT[x]].conj().T for x in letters}
        del mats  # drops the letters no word uses
        for i, forms, trace, keys, frees in steps:
            for key, left, flip, right in forms:
                held[key] = (held[left].conj().T if flip else held[left]) @ held[right]
            values[i, t] = complex(trace(*[held[key] for key in keys])) / n
            for key in frees:
                del held[key]
    return [_summarize(values[i].conj() if flag else values[i], n, seed) for i, flag in members]


def estimate_word_moment(
    letters: Sequence[str],
    n: int,
    trials: int,
    seed: int,
    mu: MeasureModel | None = None,
    c: float = 1.0,
) -> Estimate:
    """Monte Carlo normalized trace of a word in {D, D*, T, T*} or {Z, Z*}.

    The diagonal is i.i.d. from ``mu`` (required for D or Z words) and the
    triangular factor is strictly upper triangular with i.i.d. complex
    N(0, 1/n) entries, drawn independently per trial; a Z letter stands for
    D + c*T.
    """
    _check_size(n, trials)
    uses_z = any(t in Z_LETTERS for t in letters)
    uses_d = uses_z or any(t in D_LETTERS for t in letters)
    if uses_d and mu is None:
        raise WordParseError("words with D or Z letters need a measure")

    def draw(rng):
        mats = {"D": np.diag(sample_measure(mu, n, rng))} if uses_d else {}
        mats["T"] = _sample_utgrm(rng, n, 1.0 / n)
        if uses_z:
            mats["Z"] = mats["D"] + c * mats["T"]
        return mats

    return _run_trials(draw, [tuple(letters)], n, trials, seed)[0]


def _z_letters(eps: StarWord) -> tuple[str, ...]:
    return tuple("Z" if sym == ONE else "Z*" for sym in eps.symbols)


def estimate_elliptic_moment(
    theta: float, eps: StarWord, n: int, trials: int, seed: int
) -> Estimate:
    """Monte Carlo trace of the star-word applied to cos(theta)H1 + i sin(theta)H2.

    H1 and H2 are independent self-adjoint Gaussian matrices with entry
    variance 1/n; theta must lie in (0, pi/2).
    """
    _check_size(n, trials)
    if not 0.0 < theta < math.pi / 2:
        raise ValueError("theta must lie in (0, pi/2)")

    def draw(rng):
        h1 = _sample_sgrm(rng, n, 1.0 / n)
        h2 = _sample_sgrm(rng, n, 1.0 / n)
        return {"Z": math.cos(theta) * h1 + 1j * math.sin(theta) * h2}

    return _run_trials(draw, [_z_letters(eps)], n, trials, seed)[0]


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
    _check_size(n, trials)
    entries = np.asarray(list(entries_generator(n)), dtype=complex)
    if entries.shape != (n,):
        raise ValueError(f"need {n} diagonal entries, got {entries.size}")
    d = np.diag(entries)

    def draw(rng):
        return {"Z": d + c * _sample_utgrm(rng, n, 1.0 / n)}

    return _run_trials(draw, [_z_letters(eps)], n, trials, seed)[0]


def pure_t_word_sweep(
    max_len: int, n: int, trials: int, seed: int
) -> dict[tuple[str, ...], Estimate]:
    """Traces of every word in T, T* up to ``max_len`` letters, per trial.

    One triangular sample per trial serves all words.  The runner traces one
    word per rotation-and-adjoint class through the products of its two
    halves, each formed once per trial as the lesser of it and its adjoint:
    at ``max_len`` 6 the 126 words fall into 22 classes, and a trial forms 5
    matrix products where the prefixes of all the words would take 60.
    """
    _check_size(n, trials)
    words = sorted(
        w for k in range(1, max_len + 1) for w in itertools.product(T_LETTERS, repeat=k)
    )

    def draw(rng):
        return {"T": _sample_utgrm(rng, n, 1.0 / n)}

    return dict(zip(words, _run_trials(draw, words, n, trials, seed)))
