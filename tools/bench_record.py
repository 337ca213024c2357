"""Record the benchmark of the checked-out commit as ``BENCH_<pr>.json``.

Usage, from anywhere in a checkout whose changes are committed::

    python3 tools/bench_record.py 41

It refuses a checkout whose ``src/``, ``perfbench/`` or ``BENCHMARK.json``
differs from its commit, since ``git_sha`` must name the measured code.

For each workload in ``BENCHMARK.json`` and seeds 1 to 5, it runs the
benchmark's command (``perfbench/run.py --workload W --seed S --seconds
<run_seconds> --trace 0``) and reads ``.perfbench/W-seedS-trace0/result.json``.
Per workload, the file holds the median and the quartiles (inclusive method:
with five runs, the second and fourth values) of each end-to-end metric, and
each run's ``correct`` and ``failed``.  Once, it holds the commit, the line
count and digest of ``src/``, the Python, numpy and BLAS versions, and each
run's host calibration probes.  A run that fails stops the recording: no run
is dropped and none is retried, so a partial file is never written.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 6)
SHARED = ("git_sha", "src_lines", "src_sha256", "python", "numpy", "blas")


def run(spec: dict, workload: str, seed: int, root: Path | None = None) -> dict:
    """One benchmark run in the checkout ``root``, this one if None: its result line and its ``result.json``."""
    root = root or ROOT
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(spec["command"] + args, cwd=root, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{root}: {workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((root / ".perfbench" / f"{workload}-seed{seed}-trace0" / "result.json").read_text())
    return {"correct": line["correct"], "failed": line["failed"], **record}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not argv[1].isdigit():
        sys.exit("usage: bench_record.py <pr number>")
    if subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json"], cwd=ROOT,
                      capture_output=True, text=True, check=True).stdout:
        sys.exit("bench_record: src/, perfbench/ or BENCHMARK.json differs from the commit; "
                 "commit it, so git_sha names the measured code")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]
    workloads, calibration, shared = {}, [], set()
    for w in spec["workloads"]:
        runs = [run(spec, w["name"], seed) for seed in SEEDS]
        workloads[w["name"]] = {
            **{m: summary([r["metrics"][m] for r in runs]) for m in metrics},
            "runs": [{"seed": seed, "correct": r["correct"], "failed": r["failed"]} for seed, r in zip(SEEDS, runs)],
        }
        calibration += [{"workload": w["name"], "seed": seed, **r["meta"]["calibration"]} for seed, r in zip(SEEDS, runs)]
        shared |= {tuple(r["meta"][k] for k in SHARED) for r in runs}
    if len(shared) != 1:
        sys.exit(f"bench_record: the runs measured different code or libraries: {sorted(shared)}")
    bench = {
        "pr": int(argv[1]),
        **dict(zip(SHARED, shared.pop())),
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": workloads,
        "calibration": calibration,
    }
    out = ROOT / f"BENCH_{argv[1]}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
