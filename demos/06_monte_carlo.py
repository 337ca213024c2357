"""Seeded random-matrix estimates against their exact limits.

Every estimator is reproducible from its seed; deviations are reported in
standard errors, with a 10/n allowance for the finite-size bias.
"""

import math

import numpy as np

from dtmoments import (
    StarWord,
    UniformDisk,
    deterministic_diagonal_run,
    estimate_elliptic_moment,
    estimate_word_moment,
    t_word_moment,
)

SEED = 7
N = 128

print(f"n = {N}, seed = {SEED}")

est = estimate_word_moment(["T", "T*"], n=8, trials=5000, seed=SEED)
exact = 7 / 16
print(f"\ntr(T T*) at n=8: {est.mean.real:.5f} vs exact {exact} "
      f"({abs(est.mean - exact) / est.stderr:.2f} stderr)")

for text in ("T* T", "T* T* T T", "T* T T* T"):
    letters = tuple(text.split())
    eps = StarWord(tuple("1" if t == "T" else "*" for t in letters))
    limit = t_word_moment(eps).as_complex()
    est = estimate_word_moment(list(letters), n=N, trials=100, seed=SEED)
    print(f"word {text:12s}: mc {est.mean.real:+.5f}, limit {limit.real:+.5f}, "
          f"stderr {est.stderr:.1e}")

est = estimate_word_moment(["Z*", "Z"], n=N, trials=100, seed=SEED,
                           mu=UniformDisk(1), c=1.0)
print(f"\ncircular tau(Z*Z): mc {est.mean.real:.5f}, limit 1")

est = estimate_elliptic_moment(math.pi / 4, StarWord(("*", "1")), n=N,
                               trials=100, seed=SEED)
print(f"elliptic pi/4 tau(Y*Y): mc {est.mean.real:.5f}, limit 1")

eps = StarWord(("*", "1"))
est = deterministic_diagonal_run(
    lambda n: np.exp(2j * math.pi * np.arange(n) / n), 1.0, eps, N, 100, SEED
)
print(f"unit-circle diagonal tau(Z*Z): mc {est.mean.real:.5f}, limit 1.5")

rec = est.to_record("Z* Z", target=1.5)
print(f"\nJSON record: {rec}")
