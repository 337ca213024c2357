"""Compare a parent and a change checkout in paired benchmark runs.

Usage::

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seeds 31-40

PARENT and CHANGE are checkout directories, and their ``BENCHMARK.json`` files
must be equal.  Pair i takes the i-th seed N of the range and runs the
benchmark's command (``perfbench/run.py --workload W --seed N --seconds S
--trace 0``, S the benchmark's ``run_seconds``) in both checkouts, the parent
first on even i and the change first on odd i, so a drift of the host falls
on both sides alike.  For each end-to-end metric it prints both sides' median
and quartiles (as ``bench_record.py`` summarizes them), how many pairs the
change won on the metric's better side (a tie counts for neither), the
metric's bound and a verdict (``gain``, ``unresolved``, ``worse`` or ``within
bound``; see :func:`judge`).  A run that exits nonzero, is not
``correct`` or has a ``failed`` item stops the comparison with exit status 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_record import run, summary

SIDES = ("parent", "change")


def seed_range(text: str) -> range:
    """``A-B`` as the seeds A to B, at least two of them."""
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last) + 1)
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError("need a range A-B of at least two seeds")
    return seeds


def judge(stats: dict, values: dict, sign: int, share_won: float, bound: float) -> str:
    """The first verdict that holds, for parent and change medians p and c,
    the parent's quartiles q1 and q3, bound b and better side ``sign`` (1
    lower, -1 higher): ``gain`` if the change won at least nine tenths of the
    pairs and beats p by more than q3 - q1; ``unresolved`` if q3 - q1 > b p,
    unless every change run is better than every parent run; ``worse`` if c
    is worse than p by more than b p; else ``within bound``."""
    p, c = stats["parent"]["median"], stats["change"]["median"]
    spread = stats["parent"]["q3"] - stats["parent"]["q1"]
    if share_won >= 0.9 and sign * (p - c) > spread:
        return "gain"
    if spread > bound * p and max(sign * x for x in values["change"]) >= min(sign * x for x in values["parent"]):
        return "unresolved"
    return "worse" if sign * (c - p) > bound * p else "within bound"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="bench_pairs.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True)
    args = ap.parse_args(argv[1:])
    texts = [(getattr(args, side) / "BENCHMARK.json").read_text() for side in SIDES]
    if texts[0] != texts[1]:
        sys.exit("bench_pairs: the checkouts' BENCHMARK.json files differ, so their runs would not compare")
    spec = json.loads(texts[0])
    metrics = {side: [] for side in SIDES}
    for i, seed in enumerate(args.seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result = run(spec, args.workload, seed, getattr(args, side))
            if not result["correct"] or result["failed"]:
                sys.exit(f"bench_pairs: {side} {args.workload} seed {seed}: correct {result['correct']}, "
                         f"failed {result['failed']}")
            metrics[side].append(result["metrics"])
    pairs = len(args.seeds)
    print(f"{args.workload}, {pairs} pairs, seeds {args.seeds[0]}-{args.seeds[-1]}, {spec['run_seconds']} s a run")
    for m in spec["end_to_end"]:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        values = {side: [r[name] for r in metrics[side]] for side in SIDES}
        won = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        stats = {side: summary(values[side]) for side in SIDES}
        sides = ", ".join(f"{side} {s['median']:.4g} ({s['q1']:.4g}-{s['q3']:.4g})" for side, s in stats.items())
        verdict = judge(stats, values, sign, won / pairs, m["bound"])
        print(f"{name}: {sides}; change better ({m['better']}) in {won} of {pairs}; bound {m['bound']}; {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
