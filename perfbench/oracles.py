"""Independent checks of a batch's outputs, run outside the timed region.

Each checked output gets a verdict with ``ok``, a ``reason`` and a ``defect``.
The oracles are closed forms computed here, a second engine of the program on
the same question (the subset recursion for a pairing-sum value and the
reverse), symmetries that must hold exactly (the adjoint word, the dual
poset), a brute-force count, and for Monte Carlo the budget 3 stderr + 10/n
around an exact target.

``defect`` names a known, recorded defect that explains a failure:
  4a  the float twin of a Z-word comes back tagged exact (memo key collision);
  4b  phi_at(rho(v)) misses for x below 1e-6, where the bisection's absolute
      tolerance no longer resolves x.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, factorial

import dtmoments
from dtmoments import ComplexRational, Pairing, StarWord, ZWord

import workloads
from child import build_measure

ONE, STAR = workloads.ONE, workloads.STAR
PHI_REL_TOL = 1e-6
TWIN_REL_TOL = 1e-12
KNOWN_4B_BELOW_X = 1e-6


def decode(x):
    if isinstance(x, list):
        return complex(decode(x[0]), decode(x[1]))
    if "/" in x:
        return Fraction(x)
    if x.startswith(("0x", "-0x", "inf", "-inf", "nan")):
        return float.fromhex(x)
    return int(x)


def decode_exact(pair) -> ComplexRational:
    return ComplexRational(Fraction(pair[0]), Fraction(pair[1]))


def close(a, b, rel) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


# -- closed forms and independent references ---------------------------------


def tstt(p: int) -> Fraction:
    return Fraction(1) if p == 0 else Fraction(p**p, factorial(p + 1))


def catalan(p: int) -> int:
    return comb(2 * p, p) // (p + 1)


def rho_ref(v: float) -> float:
    return math.sin(v) / v * math.exp(v * math.cos(v) / math.sin(v))


def phi_ref(v: float) -> float:
    return math.sin(v) * math.exp(-v * math.cos(v) / math.sin(v)) / math.pi


def run_encoding(eps: str) -> tuple[int, ...]:
    """Alternating exponents (k1, l1, ...) of a T-word, starting at a star run."""
    runs = []
    for s in eps:
        if runs and runs[-1][0] == s:
            runs[-1][1] += 1
        else:
            runs.append([s, 1])
    seq = [] if not runs or runs[0][0] == STAR else [0]
    seq += [count for _, count in runs]
    return tuple(seq + [0] * (len(seq) % 2))


def t_word_of(seq) -> str:
    return "".join((STAR if i % 2 == 0 else ONE) * c for i, c in enumerate(seq))


def brute_force_extensions(n: int, covers) -> int:
    """Count linear extensions one by one (small posets only)."""
    below = [0] * n
    for a, b in covers:
        below[b] |= 1 << a

    def extend(placed: int) -> int:
        if placed == (1 << n) - 1:
            return 1
        return sum(extend(placed | 1 << v) for v in range(n)
                   if not placed >> v & 1 and below[v] & ~placed == 0)

    return extend(0)


def elliptic_target(eps: str, theta: float) -> float:
    """Sum over all non-crossing pairings: 1 per mixed pair, cos 2theta per like pair."""
    like = math.cos(2 * theta)

    def total(word: str) -> float:
        if not word:
            return 1.0
        out = 0.0
        for j in range(1, len(word), 2):
            w = 1.0 if word[0] != word[j] else like
            out += w * total(word[1:j]) * total(word[j + 1:])
        return out

    return total(eps)


def z_closed_form(item_id: str, a: dict):
    """Closed forms for the Z-word shapes that have one, else None."""
    name = item_id.split(":")[-2]
    if a["measure"] == "disk:1" and name.startswith("zszp"):
        return Fraction(catalan(int(name[4:])))  # circular element
    if a["measure"] == "annulus:3/2" and name.startswith("znzsn"):
        return Fraction(3, 2) ** int(name[5:])  # free Poisson family: c^n
    if a["measure"] == "annulus:3/2" and name == "z3zs5":
        return Fraction(0)  # R-diagonal: unequal Z and Z* counts vanish
    if a["measure"] == "delta0" and name.startswith("zszp"):
        return tstt(int(name[4:]))  # D = 0 leaves (T*T)^p
    return None


# -- per-op checks ------------------------------------------------------------


def _check_t_word(item, out, outputs):
    if out["backend"] != "exact":
        return False, "backend is not exact", None
    value = decode_exact(out["value"])
    eps = item["args"]["eps"]
    if "p" in item["args"] and value != tstt(item["args"]["p"]):
        return False, f"(T*T)^p is {value}, not p^p/(p+1)!", None
    if value != dtmoments.m_recursive(run_encoding(eps)):
        return False, f"{value} disagrees with the subset recursion", None
    return True, "", None


def _adjoint(eps: str) -> str:
    return workloads.swapped(eps[::-1])


def _check_z_word(item, out, outputs):
    a = item["args"]
    want_float = a["float_measure"] or a["float_c"]
    if item["id"].endswith(":float"):
        exact_out = outputs[item["id"][: -len("float")] + "exact"]
        if "error" in exact_out:
            return False, "its exact twin failed", None
        v = decode(out["value"]) if out["backend"] == "float" else decode_exact(out["value"]).to_complex()
        ref = decode_exact(exact_out["value"]).to_complex()
        if not close(v, ref, TWIN_REL_TOL):
            return False, f"float twin {v} differs from exact {ref}", None
        if out["backend"] != "float":
            return False, "float-parameter query tagged exact", "4a"
        return True, "", None
    if out["backend"] != "exact" or want_float:
        return False, f"backend {out['backend']} for exact parameters", None
    value = decode_exact(out["value"])
    mu = build_measure(a["measure"])
    adjoint = dtmoments.z_word_moment(ZWord(StarWord(tuple(_adjoint(a["eps"])))), dtmoments.conjugate(mu))
    if adjoint.value != value.conjugate():
        return False, f"adjoint word gives {adjoint.value}, not conj({value})", None
    closed = z_closed_form(item["id"], a)
    if closed is not None and value != closed:
        return False, f"{value} differs from the closed form {closed}", None
    return True, "", None


def _check_nto(item, out, outputs):
    a = item["args"]
    value = decode(out)
    pairs, eps = a["pairs"], a["eps"]
    if "star" in a:
        want = factorial(a["star"] - 1)  # every leaf sits on the same side
        return value == want, f"star count {value} != {want}", None
    dual = dtmoments.nto(Pairing(tuple(map(tuple, pairs))), StarWord(tuple(workloads.swapped(eps))))
    if value != dual:
        return False, f"count {value} differs from the dual poset's {dual}", None
    n, covers = workloads.folded_tree(pairs, eps)
    if n <= 9 and value != brute_force_extensions(n, covers):
        return False, f"count {value} differs from brute force", None
    return True, "", None


def _check_m_recursive(item, out, outputs):
    a = item["args"]
    value = decode(out)
    if "k" in a:
        k, n = a["k"], a["n"]
        want = Fraction(n ** (n * k), factorial(n * k + 1))
        return value == want, f"{value} != n^(nk)/(nk+1)! = {want}", None
    pairing = dtmoments.t_word_moment(StarWord(tuple(t_word_of(a["seq"])))).value
    return pairing == value, f"{value} disagrees with the pairing sum {pairing}", None


def _check_cumulants(item, out, outputs):
    order = item["args"]["order"]
    kappa, back, r = ([decode(c) for c in series] for series in out)
    if any(kappa[j + 1] != r[j] for j in range(order)):
        return False, "free cumulants differ from the R-transform closed form", None
    if any(back[p] != tstt(p) for p in range(1, order + 1)):
        return False, "cumulants do not map back to p^p/(p+1)!", None
    return True, "", None


def _check_density_moment(item, out, outputs):
    p = item["args"]["p"]
    value, want = decode(out), float(tstt(p))
    return close(value, want, 1e-10), f"{value!r} != p^p/(p+1)! = {want!r}", None


def _check_grid(item, out, outputs):
    points = [[decode(c) for c in pt] for pt in out]
    if not 0 < len(points) <= item["args"]["num"]:
        return False, f"{len(points)} points", None
    xs = [x for x, _, _ in points]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        return False, "x is not increasing", None
    for x, phi, v in points:
        if not (close(x, rho_ref(v), 1e-12) and close(phi, phi_ref(v), 1e-12)):
            return False, f"point at v={v!r} is off the curve", None
    return True, "", None


def _check_phi(item, out, outputs):
    v = item["args"]["v"]
    x, phi = decode(out[0]), decode(out[1])
    if not close(x, rho_ref(v), 1e-12):
        return False, f"rho({v!r}) = {x!r}, expected {rho_ref(v)!r}", None
    want = phi_ref(v)
    if abs(phi - want) <= PHI_REL_TOL * want:
        return True, "", None
    defect = "4b" if x < KNOWN_4B_BELOW_X else None
    return False, f"phi_at({x!r}) = {phi!r}, expected {want!r}", defect


def _mc_verdict(est, target):
    mean, stderr, n = decode(est["mean"]), decode(est["stderr"]), est["n"]
    budget = 3 * stderr + 10 / n
    miss = abs(mean - complex(target))
    return miss <= budget, f"|{mean} - {complex(target)}| = {miss:.3g} > budget {budget:.3g}", None


def _exact_t_word(word: str) -> Fraction:
    if word.count(ONE) != word.count(STAR):
        return Fraction(0)
    return dtmoments.m_recursive(run_encoding(word))


def _check_estimate(item, out, outputs):
    a = item["args"]
    if a["letters"] == ["T", "T*"]:
        target = Fraction(a["n"] - 1, 2 * a["n"])  # finite-n value of tau(T T*)
    else:
        eps = "".join(ONE if t == "Z" else STAR for t in a["letters"])
        target = dtmoments.z_word_moment(ZWord(StarWord(tuple(eps))), build_measure(a["measure"])).as_complex()
    return _mc_verdict(out, target)


def _check_elliptic(item, out, outputs):
    a = item["args"]
    return _mc_verdict(out, elliptic_target(a["eps"], a["theta"]))


def _check_det_diag(item, out, outputs):
    a = item["args"]
    roots = (ComplexRational(1), ComplexRational(0, 1), ComplexRational(-1), ComplexRational(0, -1))
    mu = dtmoments.Atomic(tuple((r, Fraction(1, 4)) for r in roots))
    target = dtmoments.z_word_moment(ZWord(StarWord(tuple(a["eps"]))), mu).as_complex()
    return _mc_verdict(out, target)


CHECKS = {
    "t_word": _check_t_word,
    "z_word": _check_z_word,
    "nto": _check_nto,
    "m_recursive": _check_m_recursive,
    "series_check": lambda item, out, outputs: (out is True, "identity check returned False", None),
    "cumulants": _check_cumulants,
    "density_moment": _check_density_moment,
    "density_grid": _check_grid,
    "phi_roundtrip": _check_phi,
    "elliptic": _check_elliptic,
    "estimate": _check_estimate,
    "det_diag": _check_det_diag,
}


def check_all(items, outputs) -> list[dict]:
    """One verdict per checked output; a sweep has one per word."""
    verdicts = []

    def add(item, vid, ok, reason="", defect=None):
        verdicts.append({"item": item["id"], "id": vid, "ok": ok,
                         "reason": "" if ok else reason, "defect": None if ok else defect})

    for item in items:
        out = outputs[item["id"]]
        if isinstance(out, dict) and "error" in out:
            add(item, item["id"], False, out["error"])
        elif item["op"] == "sweep":
            for word, est in out.items():
                eps = "".join(ONE if t == "T" else STAR for t in word.split())
                add(item, f"{item['id']}:{word}", *_mc_verdict(est, _exact_t_word(eps)))
        else:
            add(item, item["id"], *CHECKS[item["op"]](item, out, outputs))
    return verdicts
