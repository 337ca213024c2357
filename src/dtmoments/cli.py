"""Command-line front end: exact word moments, the conjecture table, the
spectral density grid, and seeded Monte Carlo records.

Exit codes: 0 success, 2 parse error, 3 cap exceeded, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction

from .errors import CapExceededError, WordParseError
from .exact import ComplexRational, MomentValue, format_rational, parse_rational
from .measures import (
    Atomic,
    MeasureModel,
    UniformAnnulus,
    UniformDisk,
    UniformEllipse,
    measure_from_json,
)
from .moments import (
    DEFAULT_Z_LEN_CAP,
    D_LETTERS,
    DTWord,
    T_LETTERS,
    Z_LETTERS,
    ZWord,
    dt_word_moment,
    parse_word,
    t_word_moment,
    z_word_moment,
)
from .ncpair import ONE, STAR, StarWord
from .quasinil import DEFAULT_NK_CAP, conjecture_value, m_recursive, tstt_moment
from .rmt import estimate_elliptic_moment, estimate_word_moment
from .spectral import density_grid, density_moment
from .transforms import (
    Series,
    finite_n_r_relation_check,
    kn_inverse_check,
    l_limit_inverse_check,
    ln_inverse_check,
    moments_to_free_cumulants,
    r_transform_closed_form,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_NUMERIC = 4


def parse_measure_arg(text: str) -> MeasureModel:
    """A measure given as JSON or as one of the CLI shorthands:
    delta0 | delta:<re>,<im> | disk:<R> | annulus:<c> | ellipse:<a>,<b>."""
    text = text.strip()
    if text.startswith("{"):
        return measure_from_json(text)
    if text == "delta0":
        return Atomic.delta(0)
    kind, _, rest = text.partition(":")
    builders = {
        "delta": lambda args: Atomic.delta(
            ComplexRational(args[0], args[1] if len(args) > 1 else Fraction(0))
        ),
        "disk": lambda args: UniformDisk(args[0]),
        "annulus": lambda args: UniformAnnulus(args[0]),
        "ellipse": lambda args: UniformEllipse(args[0], args[1]),
    }
    if kind not in builders:
        raise WordParseError(f"unknown measure {text!r}")
    try:
        params = [parse_rational(tok) for tok in rest.split(",") if tok != ""]
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise WordParseError(f"bad measure shorthand {text!r}: {e}") from None
    try:
        return builders[kind](params)
    except IndexError:
        raise WordParseError(f"measure {kind!r} is missing parameters") from None
    # domain violations (e.g. an annulus with c < 1) propagate as ValueError


def parse_exponents(text: str) -> tuple[int, ...]:
    try:
        seq = tuple(int(tok) for tok in text.split(","))
    except ValueError as e:
        raise WordParseError(f"bad exponent tuple {text!r}: {e}") from None
    if len(seq) % 2 != 0 or any(x < 0 for x in seq):
        raise WordParseError("exponent tuples need an even count of nonnegative ints")
    return seq


def _moment_payload(word: str, value: MomentValue) -> dict:
    if value.exact:
        v = value.value
        return {"word": word, "backend": "exact", "re": format_rational(v.re), "im": format_rational(v.im)}
    v = value.as_complex()
    return {"word": word, "backend": "float", "re": v.real, "im": v.imag}


def _emit(payload, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(payload) + "\n")
        return
    rows = payload if isinstance(payload, list) else [payload]
    writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)


def cmd_moment(args, out) -> int:
    if bool(args.word) == bool(args.exponents):
        raise WordParseError("moment needs exactly one of --word / --exponents")
    if args.exponents:
        seq = parse_exponents(args.exponents)
        value = MomentValue.wrap(m_recursive(seq))
        payload = _moment_payload(args.exponents, value)
    else:
        letters = parse_word(args.word)
        mu = parse_measure_arg(args.measure)
        value = _word_value(letters, mu, args.c, args.max_degree or DEFAULT_Z_LEN_CAP)
        payload = _moment_payload(args.word, value)
    _emit(payload, args.format, out)
    return EXIT_OK


def cmd_conjecture(args, out) -> int:
    rows = []
    for n in range(1, args.n_max + 1):
        for k in range(1, args.k_max + 1):
            if n * k > args.cap:
                rows.append(
                    {"n": n, "k": k, "recursion": "skipped", "closed_form": "skipped", "equal": "skipped"}
                )
                continue
            rec = m_recursive((k, k) * n)
            conj = conjecture_value(k, n)
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "recursion": format_rational(rec),
                    "closed_form": format_rational(conj),
                    "equal": rec == conj,
                }
            )
    _emit(rows, args.format, out)
    return EXIT_OK


def cmd_density(args, out) -> int:
    rows = [{"x": pt.x, "phi": pt.phi, "v": pt.v} for pt in density_grid(args.grid)]
    _emit(rows, args.format, out)
    check = []
    for p in range(0, args.p_max + 1):
        got = density_moment(p, max_p=max(args.p_max, 8))
        want = float(tstt_moment(p)) if p >= 1 else 1.0
        check.append({"p": p, "quadrature": got, "closed_form": want, "abs_err": abs(got - want)})
    _emit(check, args.format, out)
    return EXIT_OK


def cmd_series(args, out) -> int:
    order = args.order
    if order < 1:
        raise WordParseError("--order must be at least 1")
    rows = []
    for n in (1, 2, 3):
        rows.append({"check": "strict_block_inverse", "n": n, "order": order,
                     "ok": kn_inverse_check(n, order)})
        rows.append({"check": "full_block_inverse", "n": n, "order": order,
                     "ok": ln_inverse_check(n, order)})
    rows.append({"check": "limit_inverse", "n": "", "order": order,
                 "ok": l_limit_inverse_check(order)})
    for n in (1, 2, 3, 5):
        rows.append({"check": "r_series_shift", "n": n, "order": order,
                     "ok": finite_n_r_relation_check(n, order)})
    closed = r_transform_closed_form(order)
    kappa = moments_to_free_cumulants(
        Series.from_one_indexed([tstt_moment(p) for p in range(1, order + 1)])
    )
    for j in range(1, order + 1):
        rows.append({"check": f"free_cumulant_{j}", "n": "", "order": order,
                     "ok": format_rational(kappa[j])
                     + ("" if kappa[j] == closed[j - 1] else " != closed form")})
    _emit(rows, args.format, out)
    return EXIT_OK


def cmd_mc(args, out) -> int:
    letters = parse_word(args.word)
    mu = parse_measure_arg(args.measure)
    c = parse_rational(args.c)
    if args.theta is not None:
        if any(t in D_LETTERS for t in letters):
            raise WordParseError("--theta samples the elliptic operator; D letters are not allowed")
        eps = _star_word(letters)
        est = estimate_elliptic_moment(args.theta, eps, args.n, args.trials, args.seed)
        a, b = math.cos(args.theta), math.sin(args.theta)
        target = z_word_moment(
            ZWord(eps, 2 * a * b / math.hypot(a, b)), UniformEllipse(a, b)
        ).as_complex()
    else:
        est = estimate_word_moment(
            letters, args.n, args.trials, args.seed, mu=mu, c=float(c)
        )
        target = _word_value(letters, mu, c, DEFAULT_Z_LEN_CAP).as_complex()
    record = est.to_record(args.word, target)
    _emit(record, args.format, out)
    return EXIT_OK


def _star_word(letters) -> StarWord:
    return StarWord(tuple(ONE if t in ("T", "Z") else STAR for t in letters))


def _word_value(letters, mu: MeasureModel, c, max_len: int) -> MomentValue:
    """Exact moment of a T-only, Z or D/T word; ``c`` is parsed for Z words only."""
    if all(t in T_LETTERS for t in letters):
        return t_word_moment(_star_word(letters))
    if any(t in Z_LETTERS for t in letters):
        return z_word_moment(ZWord.from_letters(letters, parse_rational(c)), mu, max_len=max_len)
    return dt_word_moment(DTWord.from_letters(letters), mu)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtmoment",
        description="Exact diagonal-plus-triangular word moments, series identities, "
        "spectral density, and Monte Carlo cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = {"--format": dict(choices=("json", "csv"), default="json"),
              "--out": dict(default=None, help="write output to a file instead of stdout")}

    p_mom = sub.add_parser("moment", help="exact moment of a word or exponent tuple")
    p_mom.add_argument("--word", help='e.g. "T* T" or "Z* Z" or "D T D* T*"')
    p_mom.add_argument("--exponents", help='alternating tuple, e.g. "2,2,2,2"')
    p_mom.add_argument("--measure", default="delta0")
    p_mom.add_argument("--c", default="1")
    p_mom.add_argument("--max-degree", type=int, default=None, dest="max_degree")
    for flag, kw in common.items():
        p_mom.add_argument(flag, **kw)
    p_mom.set_defaults(func=cmd_moment)

    p_conj = sub.add_parser("conjecture", help="recursion vs closed form table")
    p_conj.add_argument("--n-max", type=int, default=3)
    p_conj.add_argument("--k-max", type=int, default=3)
    p_conj.add_argument("--cap", type=int, default=DEFAULT_NK_CAP)
    for flag, kw in common.items():
        p_conj.add_argument(flag, **{**kw, **({"default": "csv"} if flag == "--format" else {})})
    p_conj.set_defaults(func=cmd_conjecture)

    p_den = sub.add_parser("density", help="density grid and moment check table")
    p_den.add_argument("--grid", type=int, default=200)
    p_den.add_argument("--p-max", type=int, default=6)
    for flag, kw in common.items():
        p_den.add_argument(flag, **{**kw, **({"default": "csv"} if flag == "--format" else {})})
    p_den.set_defaults(func=cmd_density)

    p_ser = sub.add_parser("series", help="series-identity checks at a given order")
    p_ser.add_argument("--order", type=int, default=8)
    for flag, kw in common.items():
        p_ser.add_argument(flag, **{**kw, **({"default": "csv"} if flag == "--format" else {})})
    p_ser.set_defaults(func=cmd_series)

    p_mc = sub.add_parser("mc", help="seeded Monte Carlo estimate of a word moment")
    p_mc.add_argument("--word", required=True)
    p_mc.add_argument("--measure", default="delta0")
    p_mc.add_argument("--c", default="1")
    p_mc.add_argument("--n", type=int, default=256)
    p_mc.add_argument("--trials", type=int, default=100)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--theta", type=float, default=None,
                      help="sample the elliptic model at this angle instead of D + cT")
    for flag, kw in common.items():
        p_mc.add_argument(flag, **kw)
    p_mc.set_defaults(func=cmd_mc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    opened = None
    try:
        if getattr(args, "out", None):
            opened = open(args.out, "w", newline="")
            out = opened
        return args.func(args, out)
    except WordParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        if opened is not None:
            opened.close()


if __name__ == "__main__":
    sys.exit(main())
