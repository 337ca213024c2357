"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  The Monte Carlo criterion takes a few minutes at its pinned sizes.
"""

import itertools
import math
import time
from fractions import Fraction as F
from math import factorial

from conftest import biv_exp_minus_one
from dtmoments.exact import CQ_ZERO, ComplexRational as CQ
from dtmoments.linext import nto
from dtmoments.measures import Atomic, UniformAnnulus, UniformDisk
from dtmoments.moments import ZWord, t_word_moment, z_word_moment
from dtmoments.ncpair import ONE, STAR, Pairing, StarWord
from dtmoments.quasinil import (
    conjecture_value,
    m_recursive,
    stn_moment,
    tstt_moment,
    ttn_moment,
)
from dtmoments.rmt import (
    estimate_elliptic_moment,
    estimate_word_moment,
    pure_t_word_sweep,
)
from dtmoments.spectral import density_moment, phi_at
from dtmoments.transforms import (
    Series,
    finite_n_r_relation_check,
    kn_inverse_check,
    l_limit_inverse_check,
    ln_inverse_check,
    moments_to_free_cumulants,
    r_transform_closed_form,
)


def report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {number:2d} {status}: {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


def test_criterion_01_ordering_count_example():
    sigma = Pairing(((1, 6), (2, 3), (4, 5), (7, 10), (8, 9)))
    eps = StarWord.parse("*1*1*11*1*")
    nto(sigma, eps)  # warm caches before timing
    t0 = time.perf_counter()
    value = nto(sigma, eps)
    elapsed = time.perf_counter() - t0
    report(
        1,
        "ten-letter ordering count equals 52 in under a millisecond",
        value == 52 and elapsed < 1e-3,
        f"value={value}, {elapsed * 1e6:.0f}us",
    )


def test_criterion_02_squared_generator_moments():
    t0 = time.perf_counter()
    ok = all(
        t_word_moment(StarWord((STAR, ONE) * p)).as_fraction()
        == F(p**p, factorial(p + 1))
        for p in range(1, 9)
    )
    elapsed = time.perf_counter() - t0
    report(
        2,
        "pairing sum gives p^p/(p+1)! for p = 1..8",
        ok and elapsed < 10.0,
        f"{elapsed:.2f}s",
    )


def _compositions(total, parts):
    for cuts in itertools.combinations(range(1, total), parts - 1):
        out, prev = [], 0
        for c in cuts + (total,):
            out.append(c - prev)
            prev = c
        yield tuple(out)


def test_criterion_03_recursion_equals_pairing_engine():
    t0 = time.perf_counter()
    ok = True
    for m in range(1, 6):
        for n in range(1, m + 1):
            for ks in _compositions(m, n):
                for ls in _compositions(m, n):
                    seq = tuple(x for pair in zip(ks, ls) for x in pair)
                    symbols = []
                    for kk, ll in zip(ks, ls):
                        symbols += [STAR] * kk + [ONE] * ll
                    ok = ok and m_recursive(seq) == t_word_moment(
                        StarWord(tuple(symbols))
                    ).as_fraction()
    elapsed = time.perf_counter() - t0
    report(
        3,
        "subset recursion equals the pairing engine through degree 10",
        ok and elapsed < 60.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_04_conjecture_slice():
    ok = all(
        m_recursive((k, k) * n) == conjecture_value(k, n)
        for n in (1, 2, 3)
        for k in (1, 2, 3)
    )
    ok = ok and all(m_recursive((k, k) * 4) == conjecture_value(k, 4) for k in (1, 2))
    report(4, "closed form n^{nk}/(nk+1)! matches the recursion on the slice", ok)


def test_criterion_05_circular_identification():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    ok = all(
        z_word_moment(ZWord.from_letters(["Z*", "Z"] * p), UniformDisk(1)).as_fraction()
        == catalan[p]
        for p in range(1, 9)
    )
    report(5, "unit-disk generator has Catalan squared moments, p <= 8", ok)


def test_criterion_06_annulus_r_diagonality():
    ok = True
    for c in (F(1), F(3, 2), F(2)):
        mu = UniformAnnulus(c)
        for a in range(7):
            for b in range(7):
                if a + b > 6 or a == b or a + b == 0:
                    continue
                word = ZWord(StarWord((ONE,) * a + (STAR,) * b))
                ok = ok and z_word_moment(word, mu).value == 0
        for n in (1, 2, 3):
            word = ZWord(StarWord((ONE,) * n + (STAR,) * n))
            ok = ok and z_word_moment(word, mu).as_fraction() == c**n
    report(6, "annulus words vanish off-diagonal and give c^n on it", ok)


def test_criterion_07_finite_block_lemma():
    ok = all(
        stn_moment(N, p) == F(N - 1, N) ** (p + 1) * ttn_moment(N - 1, p)
        for N in range(2, 11)
        for p in range(1, 9)
    )
    ok = ok and all(finite_n_r_relation_check(N, 8) for N in (1, 2, 3, 5))
    report(7, "strict/full block moment relation and R-series shift", ok)


def test_criterion_08_inversion_identities():
    ok = all(kn_inverse_check(N, 8) and ln_inverse_check(N, 8) for N in (1, 2, 3))
    ok = ok and l_limit_inverse_check(8)
    report(8, "transfer-series reversions match their closed-form inverses", ok)


def test_criterion_09_r_transform():
    closed = r_transform_closed_form(9)
    kappa = moments_to_free_cumulants(
        Series.from_one_indexed([tstt_moment(p) for p in range(1, 10)])
    )
    ok = all(closed[j] == kappa[j + 1] for j in range(9))
    ok = ok and closed[0] == F(1, 2) and closed[1] == F(5, 12)
    report(9, "free cumulants of p^p/(p+1)! match the closed-form series", ok)


def test_criterion_10_density():
    mass_ok = abs(density_moment(0) - 1.0) <= 1e-10
    moments_ok = all(
        abs(density_moment(p) - float(tstt_moment(p))) <= 1e-8 for p in range(1, 7)
    )
    x_edge = math.e - 1e-3
    edge_ratio = phi_at(x_edge) / math.sqrt(math.e - x_edge)
    edge_ok = abs(edge_ratio / (math.sqrt(2) / (math.pi * math.e**1.5)) - 1) <= 0.02
    # phi(x) x log^2 x -> 1, but with L = -log x its correction is of order
    # log L / L: the two-term expansion 1 + (2 log L - 1)/(L - log L + 1) is
    # within (log L / L)^2 of it, and it falls below 1.1 only for x < ~1e-37
    small_xs = (1e-40, 1e-100, 1e-300)
    products = [phi_at(x) * x * math.log(x) ** 2 for x in small_xs]
    expansion_ok = True
    for x, product in zip(small_xs, products):
        big_l = -math.log(x)
        log_l = math.log(big_l)
        two_term = 1 + (2 * log_l - 1) / (big_l - log_l + 1)
        expansion_ok = expansion_ok and abs(product - two_term) <= (log_l / big_l) ** 2
    small_ok = (
        all(abs(product - 1.0) <= 0.10 for product in products)
        and all(a > b for a, b in zip(products, products[1:]))
        and expansion_ok
    )
    report(
        10,
        "density: mass, moments, edge shape, small-x shape",
        mass_ok and moments_ok and edge_ok and small_ok,
        f"mass={mass_ok}, moments={moments_ok}, edge={edge_ok}, "
        f"small-x={small_ok} (product at 1e-40, 1e-100, 1e-300 is "
        f"{', '.join(f'{p:.4f}' for p in products)}; the 1/(x log^2 x) asymptote "
        f"carries a correction of order log|log x| / |log x|, ~28% at 1e-6)",
    )


def test_criterion_11_resolvent_series_identity():
    degree = 8
    ok = True
    for w in (CQ(F(0)), CQ(F(1)), CQ(F(0), F(1, 2))):
        mu = Atomic.delta(w)
        # exponential side: sum_{k,l} u^{k+1} v^{l+1} M(k, l), truncated
        s = {}
        for i in range(1, degree + 2):
            for j in range(1, degree + 3 - i):
                val = w ** (i - 1) * w.conjugate() ** (j - 1)
                if val != CQ_ZERO:
                    s[(i, j)] = val
        rhs = biv_exp_minus_one(s, degree + 2)
        for n in range(degree + 1):
            for m in range(degree + 1 - n):
                word = ZWord(StarWord((ONE,) * n + (STAR,) * m))
                lhs = z_word_moment(word, mu).value
                ok = ok and lhs == rhs.get((n + 1, m + 1), CQ_ZERO)
    report(11, "resolvent double series equals exp of the moment series", ok)


def test_criterion_12_monte_carlo():
    est = estimate_word_moment(["T", "T*"], n=8, trials=10_000, seed=20240811)
    finite_ok = abs(est.mean - 7 / 16) <= 3 * est.stderr

    sweep = pure_t_word_sweep(6, n=512, trials=200, seed=20240811)
    worst = 0.0
    sweep_ok = True
    for letters, e in sweep.items():
        eps = StarWord(tuple(ONE if tok == "T" else STAR for tok in letters))
        limit = t_word_moment(eps).as_complex()
        budget = 3 * e.stderr + 10 / 512
        dev = abs(e.mean - limit)
        worst = max(worst, dev / budget)
        sweep_ok = sweep_ok and dev <= budget

    ell = estimate_elliptic_moment(
        math.pi / 4, StarWord((STAR, ONE)), n=256, trials=120, seed=20240811
    )
    elliptic_ok = abs(ell.mean - 1.0) <= 3 * ell.stderr

    report(
        12,
        "Monte Carlo: finite-size trace, 126-word sweep, elliptic check",
        finite_ok and sweep_ok and elliptic_ok,
        f"finite={finite_ok}, sweep={sweep_ok} (worst budget use {worst:.2f}), "
        f"elliptic={elliptic_ok}",
    )
