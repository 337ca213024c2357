"""Steadiness check: run one workload over several seeds and report spreads.

    python3 perfbench/steady.py --workload NAME --seeds 1-10 [--seconds S]

For every end-to-end metric it prints the median over the seeds and the
spread, (Q3 - Q1) / median with the quartiles of ``statistics.quantiles(n=4)``,
next to a third of the metric's bound from BENCHMARK.json.  Held-out seeds
(say 101-110) give the second set of runs whose medians must agree with the
first within the bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seed_list(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        began = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        took = time.monotonic() - began
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed} ({took:.1f} s): correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{m['name']:12s} median {med:.5g}  spread {(q3 - q1) / med:.4f}  (a third of the bound: {m['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
