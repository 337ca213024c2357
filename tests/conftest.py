"""Shared brute-force oracles for the test suite.

Everything here is deliberately independent of the package's own algorithms:
matchings by direct recursion over all partners, crossings by the four-index
definition, linear extensions by filtering all permutations, non-crossing set
partitions by direct block insertion, measure moments by 2-D quadrature,
bivariate series arithmetic by dict-of-exponents convolution, and measure
JSON specs written field by field.  The one exception is the pairing sum,
the oracle of the interval DP in ``dtmoments.moments``: it enumerates the
compatible pairings one by one with the package's ``ncpair`` and counts each
folded tree with ``linext.nto``.  The moment-cumulant solve on ``Fraction``s,
as it ran before it moved to integers, is the oracle of the integer solve in
``dtmoments.transforms``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import factorial

import numpy as np

from dtmoments.exact import CQ_ONE, CQ_ZERO, ComplexRational, format_rational
from dtmoments.linext import nto
from dtmoments.measures import Atomic, MomentTable, UniformAnnulus, UniformDisk, UniformEllipse
from dtmoments.ncpair import enumerate_compatible_ncp, quotient_graph
from dtmoments.transforms import Series


def all_perfect_matchings(k: int):
    """Every perfect matching of {1..k} as a tuple of sorted pairs."""
    points = list(range(1, k + 1))

    def rec(remaining):
        if not remaining:
            yield ()
            return
        first = remaining[0]
        for idx in range(1, len(remaining)):
            partner = remaining[idx]
            rest = remaining[1:idx] + remaining[idx + 1 :]
            for tail in rec(rest):
                yield ((first, partner),) + tail

    yield from rec(points)


def has_crossing(pairs) -> bool:
    """The direct four-index definition of a crossing."""
    for (i1, j1), (i2, j2) in itertools.permutations(pairs, 2):
        if i1 < i2 < j1 < j2:
            return True
    return False


def count_linear_extensions_brute(p) -> int:
    """Linear extensions of a ``TreePoset`` by filtering all n! permutations."""
    count = 0
    for perm in itertools.permutations(range(p.n_vertices)):
        pos = {v: i for i, v in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in p.covers):
            count += 1
    return count


def noncrossing_partitions(n: int):
    """All non-crossing set partitions of {1..n} (blocks as sorted tuples).

    Built by inserting points left to right: each new point either starts a
    new block or joins an existing block, provided no crossing arises; the
    crossing test is the direct four-point one on block membership.
    """
    def crossing(blocks) -> bool:
        for b1, b2 in itertools.combinations(blocks, 2):
            for a, c in itertools.combinations(b1, 2):
                if any(a < x < c for x in b2) and any(x < a or x > c for x in b2):
                    return True
        return False

    partitions = []

    def rec(point, blocks):
        if point > n:
            if not crossing(blocks):
                partitions.append(tuple(tuple(b) for b in blocks))
            return
        rec(point + 1, blocks + [[point]])
        for i in range(len(blocks)):
            grown = [list(b) for b in blocks]
            grown[i].append(point)
            rec(point + 1, grown)

    rec(1, [])
    return partitions


def moments_from_cumulants_by_partitions(kappa, n: int) -> Fraction:
    """m_n as the sum over non-crossing partitions of products of cumulants."""
    total = Fraction(0)
    for part in noncrossing_partitions(n):
        prod = Fraction(1)
        for block in part:
            prod *= kappa[len(block)]
        total += prod
    return total


def moment_cumulant_solve_on_fractions(known: Series, known_are_moments: bool) -> Series:
    """``transforms._moment_cumulant_solve`` as it was before it ran on
    integers, kept verbatim: every table entry is a ``Fraction``.  It returns
    one coefficient for an empty series, as it did then."""
    m, kappa = [Fraction(1)], [Fraction(0)]
    mpow = [[Fraction(1)] + [Fraction(0)] * known.order]  # mpow[s][k] = [z^k] M^s
    for n in range(1, known.order):
        mpow.append([])
        for s in range(1, n + 1):
            k = n - s
            mpow[s].append(sum((m[j] * mpow[s - 1][k - j] for j in range(k + 1)), Fraction(0)))
        rest = sum((kappa[s] * mpow[s][n - s] for s in range(1, n)), Fraction(0))
        kappa.append(known[n] - rest if known_are_moments else known[n])
        m.append(rest + kappa[n])
    return Series(tuple(kappa) if known_are_moments else (Fraction(0), *m[1:]))


def quadrature_mixed_moment(lo, hi, r: int, s: int) -> complex:
    """Numeric M(r, s) = E[z^r conj(z)^s] over the uniform measure on the
    region lo(t) <= |z| <= hi(t), z = |z| e^(it), by 2-D quadrature in polar
    coordinates: Gauss-Legendre in |z|, exact for the integrand's polynomial
    in |z|, and the trapezoid rule in t, which converges geometrically for
    smooth periodic limits.

    ``lo`` and ``hi`` are smooth functions of the angle t, or constants.  The
    rule runs on 256 and on 512 angles, and an oracle whose two values differ
    by more than 1e-13 fails its test, as one that does not converge.
    """
    x, w = np.polynomial.legendre.leggauss(r + s + 2)

    def rule(k):
        t = 2 * math.pi * np.arange(k) / k
        a, b = (np.array([f(u) for u in t] if callable(f) else [f] * k)[:, None] for f in (lo, hi))
        rho = a + (b - a) * (x + 1) / 2
        area = (b - a) / 2 * w * rho  # rho d(rho), up to the angle step 2 pi / k
        z = rho * np.exp(1j * t)[:, None]
        return complex((z**r * z.conj() ** s * area).sum() / area.sum())

    coarse, fine = rule(256), rule(512)
    assert abs(coarse - fine) <= 1e-13 * max(1.0, abs(fine)), "the quadrature did not converge"
    return fine


def measure_spec(mu) -> dict:
    """The JSON object ``measures.measure_from_json`` reads back as the exact
    model ``mu`` (atomic, disk, annulus, ellipse or table)."""
    fmt = format_rational
    if isinstance(mu, Atomic):
        return {"type": "atomic", "atoms": [
            {"re": fmt(loc.re), "im": fmt(loc.im), "w": fmt(w)} for loc, w in mu.atoms]}
    if isinstance(mu, MomentTable):
        return {"type": "table", "max_degree": mu.max_degree, "entries": [
            {"r": r, "s": s, "re": fmt(v.re), "im": fmt(v.im)} for (r, s), v in mu.entries]}
    kind = {UniformDisk: "disk", UniformAnnulus: "annulus", UniformEllipse: "ellipse"}[type(mu)]
    return {"type": kind, **{name: fmt(value) for name, value in vars(mu).items()}}


def table_of(mu, degree: int):
    """``mu``'s moments M(r, s) with r >= s and r + s <= degree as a
    ``MomentTable``, which supplies r < s through its conjugate fallback."""
    orders = ((r, s) for r in range(degree + 1) for s in range(min(r, degree - r) + 1))
    return MomentTable(degree, tuple((rs, mu.moment(*rs)) for rs in orders))


# -- bivariate exact series (dict keyed by (i, j) exponents) ------------------


def biv_mul(a: dict, b: dict, max_total: int) -> dict:
    out: dict[tuple[int, int], ComplexRational] = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            i, j = i1 + i2, j1 + j2
            if i + j > max_total:
                continue
            out[(i, j)] = out.get((i, j), CQ_ZERO) + v1 * v2
    return out


def biv_exp_minus_one(s: dict, max_total: int) -> dict:
    """exp(S) - 1 truncated by total degree, for S with no constant term."""
    out: dict[tuple[int, int], ComplexRational] = {}
    power = {(0, 0): CQ_ONE}
    fact = 1
    for t in range(1, max_total + 1):
        power = biv_mul(power, s, max_total)
        if not power:
            break
        fact *= t
        inv = Fraction(1, fact)
        for key, val in power.items():
            out[key] = out.get(key, CQ_ZERO) + val * inv
    return out


# -- the word-moment pairing sum ----------------------------------------------


def pairing_sum(w, mu):
    """Limit trace of a canonical ``DTWord`` under ``mu``, pairing by pairing.

    Each compatible non-crossing pairing contributes its folded tree's
    linear-extension count times the product over merge classes of
    ``mu.moment`` at the class's summed diagonal exponents; the sum is
    divided by (k/2 + 1)!.  A word without T-slots is the moment of its block.
    """
    k = len(w.eps)
    if k == 0:
        return mu.moment(*w.blocks[0]) if w.blocks else CQ_ONE
    total = 0
    for sigma in enumerate_compatible_ncp(w.eps):
        weight = CQ_ONE
        for js in quotient_graph(sigma, w.eps).merge_classes().values():
            r = sum(w.blocks[j - 1][0] for j in js)
            s = sum(w.blocks[j - 1][1] for j in js)
            weight = weight * mu.moment(r, s)
        total = weight * nto(sigma, w.eps) + total
    return total * Fraction(1, factorial(k // 2 + 1))
