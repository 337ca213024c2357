"""Command-line front end: exact word moments, the conjecture table, the
spectral density grid, and seeded Monte Carlo records.

Exit codes: 0 success, 2 parse error, 3 cap or recursion limit exceeded, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import fields
from fractions import Fraction

from .errors import CapExceededError, WordParseError
from .exact import MomentValue, format_rational, order, parse_rational
from .measures import _SHAPES, Atomic, MeasureModel, measure_from_json
from .moments import DEFAULT_Z_LEN_CAP, T_LETTERS, Z_LETTERS, ZWord, elliptic_dt, parse_word, word_moment
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

# the least value of each bounded integer flag, by dest; main checks these
# before any other input is read
_LEAST = dict(max_degree=1, n_max=1, k_max=1, p_max=0, grid=1, order=1, n=1, trials=2, seed=0)


def parse_measure_arg(text: str) -> MeasureModel:
    """A measure given as JSON or as one of the CLI shorthands, each read as
    its JSON spec: delta0 | delta:<re>[,<im>] | disk:<R> | annulus:<c> |
    ellipse:<a>,<b>.  An unknown kind, an empty field or a wrong parameter count
    raises WordParseError; any other fault raises what ``measure_from_json`` does."""
    text = text.strip()
    if text.startswith("{"):
        return measure_from_json(text)
    kind, _, rest = ("delta:0" if text == "delta0" else text).partition(":")
    if kind not in ("delta", *_SHAPES):
        raise WordParseError(f"unknown measure {text!r}")
    names = ("re", "im") if kind == "delta" else [field.name for field in fields(_SHAPES[kind])]
    values = rest.split(",") if rest else []
    if "" in values:
        raise WordParseError(f"empty field in measure {text!r}")
    if not (1 if kind == "delta" else len(names)) <= len(values) <= len(names):
        takes = "re and optionally im" if kind == "delta" else " and ".join(names)
        raise WordParseError(f"measure {kind!r} got {len(values)} parameters; it takes {takes}")
    spec = dict(zip(names, values))
    if kind == "delta":
        return measure_from_json({"type": "atomic", "atoms": [{**spec, "w": "1"}]})
    return measure_from_json({"type": kind, **spec})


def parse_exponents(text: str) -> tuple[int, ...]:
    """Comma-separated exponents, each read by ``order`` ("2.0" reads as 2); a
    negative or non-integer token or an odd count raises WordParseError."""
    try:
        seq = tuple(order(tok, "exponent", 0) for tok in text.split(","))
    except (ValueError, ZeroDivisionError) as e:
        raise WordParseError(f"bad exponent tuple {text!r}: {e}") from None
    if len(seq) % 2 != 0:
        raise WordParseError("exponent tuples need an even count")
    return seq


def _moment_payload(word: str, value: MomentValue) -> dict:
    v = value.value  # every number ``moment`` parses is exact, so every value is
    return {"word": word, "backend": "exact", "re": format_rational(v.re), "im": format_rational(v.im)}


def _emit(payload, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(payload) + "\n")
        return
    rows = payload if isinstance(payload, list) else [payload]
    writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)


def _word_inputs(args, letters) -> tuple[MeasureModel, Fraction]:
    """The measure and scale of --measure and --c, refusing a --c without Z
    letters and a --measure other than the point mass at 0, however spelled,
    without D or Z letters: neither would be read."""
    try:
        c = parse_rational("1" if args.c is None else args.c)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise WordParseError(f"bad --c {args.c!r}: {e}") from None
    mu = parse_measure_arg(args.measure or "delta0")  # a measure outside its domain exits 4
    if args.c is not None and not any(t in Z_LETTERS for t in letters):
        raise WordParseError("--c scales T inside Z; it needs a word with Z letters")
    if mu != Atomic.delta(0) and all(t in T_LETTERS for t in letters):
        raise WordParseError("--measure is the law of D; it needs a word with D or Z letters")
    return mu, c


def cmd_moment(args, out) -> None:
    if bool(args.word) == bool(args.exponents):
        raise WordParseError("moment needs exactly one of --word / --exponents")
    letters = parse_word(args.word) if args.word else ()
    mu, c = _word_inputs(args, letters)
    if args.max_degree is not None and not any(t in Z_LETTERS for t in letters):
        raise WordParseError("--max-degree caps Z-words only")
    if args.exponents:
        value = MomentValue.wrap(m_recursive(parse_exponents(args.exponents)))
        payload = _moment_payload(args.exponents, value)
    else:
        cap = DEFAULT_Z_LEN_CAP if args.max_degree is None else args.max_degree
        value = word_moment(letters, mu, c, cap)
        payload = _moment_payload(args.word, value)
    _emit(payload, args.format, out)


def cmd_conjecture(args, out) -> None:
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


def cmd_density(args, out) -> None:
    check = []
    for p in range(0, args.p_max + 1):
        got = density_moment(p)
        want = float(tstt_moment(p))
        check.append({"p": p, "quadrature": got, "closed_form": want, "abs_err": abs(got - want)})
    rows = [{"x": pt.x, "phi": pt.phi, "v": pt.v} for pt in density_grid(args.grid)]
    _emit(rows, args.format, out)
    _emit(check, args.format, out)


def cmd_series(args, out) -> None:
    order = args.order
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


def cmd_mc(args, out) -> None:
    letters = parse_word(args.word)
    if args.theta is not None:
        for flag, value in (("--measure", args.measure), ("--c", args.c)):
            if value is not None:
                raise WordParseError(f"--theta samples the elliptic operator; {flag} is not allowed")
        eps = ZWord.from_letters(letters).eps
        ellipse, c = elliptic_dt(args.theta)
        target = word_moment(letters, ellipse, c).as_complex()
        est = estimate_elliptic_moment(args.theta, eps, args.n, args.trials, args.seed)
    else:
        mu, c = _word_inputs(args, letters)
        target = word_moment(letters, mu, c).as_complex()
        est = estimate_word_moment(letters, args.n, args.trials, args.seed, mu=mu, c=c)
    record = est.to_record(args.word, target)
    _emit(record, args.format, out)


def add_output(parser: argparse.ArgumentParser, fmt: str) -> None:
    """--format, defaulting to ``fmt``, and --out."""
    parser.add_argument("--format", choices=("json", "csv"), default=fmt)
    parser.add_argument("--out", default=None, help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtmoment",
        description="Exact diagonal-plus-triangular word moments, series identities, "
        "spectral density, and Monte Carlo cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mom = sub.add_parser("moment", help="exact moment of a word or exponent tuple")
    p_mom.add_argument("--word", help='e.g. "T* T" or "Z* Z" or "D T D* T*"')
    p_mom.add_argument("--exponents", help='alternating tuple, e.g. "2,2,2,2"')
    p_mom.add_argument("--measure", default=None, help="default delta0; D and Z words only")
    p_mom.add_argument("--c", default=None, help="default 1; Z words only")
    p_mom.add_argument("--max-degree", type=int, default=None, dest="max_degree")
    add_output(p_mom, "json")
    p_mom.set_defaults(func=cmd_moment)

    p_conj = sub.add_parser("conjecture", help="recursion vs closed form table")
    p_conj.add_argument("--n-max", type=int, default=3)
    p_conj.add_argument("--k-max", type=int, default=3)
    p_conj.add_argument("--cap", type=int, default=DEFAULT_NK_CAP)
    add_output(p_conj, "csv")
    p_conj.set_defaults(func=cmd_conjecture)

    p_den = sub.add_parser("density", help="density grid and moment check table")
    p_den.add_argument("--grid", type=int, default=200)
    p_den.add_argument("--p-max", type=int, default=6)
    add_output(p_den, "csv")
    p_den.set_defaults(func=cmd_density)

    p_ser = sub.add_parser("series", help="series-identity checks at a given order")
    p_ser.add_argument("--order", type=int, default=8)
    add_output(p_ser, "csv")
    p_ser.set_defaults(func=cmd_series)

    p_mc = sub.add_parser("mc", help="seeded Monte Carlo estimate of a word moment")
    p_mc.add_argument("--word", required=True)
    p_mc.add_argument("--measure", default=None, help="default delta0; D and Z words, no --theta")
    p_mc.add_argument("--c", default=None, help="default 1; Z words only, no --theta")
    p_mc.add_argument("--n", type=int, default=256)
    p_mc.add_argument("--trials", type=int, default=100)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--theta", type=float, default=None,
                      help="sample the elliptic Z at this angle instead of D + cT; Z words only")
    add_output(p_mc, "json")
    p_mc.set_defaults(func=cmd_mc)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; its output reaches stdout or --out only if it succeeds."""
    args = build_parser().parse_args(argv)
    out = io.StringIO()
    try:
        for dest, value in vars(args).items():
            if dest in _LEAST and value is not None and value < _LEAST[dest]:
                raise WordParseError(f"--{dest.replace('_', '-')} must be at least {_LEAST[dest]}")
        args.func(args, out)
        if not args.out:
            sys.stdout.write(out.getvalue())
        else:
            with open(args.out, "w", newline="") as f:
                f.write(out.getvalue())
    except (ValueError, ArithmeticError, OSError, RecursionError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, (CapExceededError, RecursionError)):
            return EXIT_CAP
        return EXIT_PARSE if isinstance(e, (WordParseError, OSError)) else EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
