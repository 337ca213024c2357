"""dtmoments benchmark: one workload, cold processes, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
Each repetition is a fresh interpreter, so the program's memos start cold and
its import is paid as on every ``dtmoment`` call.  Repetitions run until
``--seconds`` have passed (at least three).  A separate process then checks
the first repetition's outputs against independent oracles, and every other
repetition must reproduce them bit for bit.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md).  The last line of standard output is
one JSON object; the full record, with run metadata and every failing item,
is written to ``.perfbench/<workload>-seed<N>-trace<T>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_REPS = 2
MIN_TRACED_REPS = 2
SETUP_PROBES = 5
SETUP_GAUGE_PROBES = 32
IMPORTTIME_PROBES = 3
DEADLINE_S = 165.0  # every child is stopped before the run's 180 s limit
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1  # one busy thread per run: more would measure the scheduler


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Starts child interpreters and stops each one before the deadline."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.started = time.monotonic()

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, mode: str, out: str | None = None, extra_args=(), args=()):
        """Run one child; return (set-up seconds, its JSON report or stderr)."""
        if self.remaining() <= 0:
            raise BenchError("out of time before the run finished")
        cmd = [sys.executable, *extra_args, str(HERE / "child.py"), mode, str(self.workdir)]
        if out:
            cmd.append(str(self.workdir / out))
        cmd += args
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} child failed:\n{proc.stderr[-3000:]}")
        setup = float(proc.stdout.splitlines()[0]) - spawned
        report = json.loads((self.workdir / out).read_text()) if out else proc.stderr
        return setup, report


def import_times(stderr: str) -> dict[str, float]:
    """Self import time in seconds of scipy, numpy and dtmoments modules."""
    totals = {"setup.import_scipy_s": 0.0, "setup.import_numpy_s": 0.0,
              "setup.import_dtmoments_self_s": 0.0}
    prefix = {"scipy": "setup.import_scipy_s", "numpy": "setup.import_numpy_s",
              "dtmoments": "setup.import_dtmoments_self_s"}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)", line)
        if m:
            top = m.group(2).split(".")[0]
            if top in prefix:
                totals[prefix[top]] += int(m.group(1)) / 1e6
    return totals


def git_sha() -> str | None:
    """HEAD's commit from the checkout's .git files, if there are any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_stats() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def scaled_setup(runner: Runner) -> float:
    """Set-up time of one fresh interpreter at the reference host speed.

    Import is interpreted work, so the host's speed is gauged by bursts of the
    Python probe in this process just before the spawn and just after the
    child has exited.
    """
    before = hostspeed.burst("python", SETUP_GAUGE_PROBES)
    setup = runner.spawn("import")[0]
    after = hostspeed.burst("python", SETUP_GAUGE_PROBES)
    return setup * hostspeed.scale("python", before + after, 2 * SETUP_GAUGE_PROBES)


def median_of(reports, key):
    return statistics.median(r[key] for r in reports)


def measure(runner: Runner, workload: str, trace: bool, seconds: int):
    """Run the repetitions; return (metrics, plain reports, traced reports)."""
    metrics = {}
    if trace:
        samples = [import_times(runner.spawn("import", extra_args=("-X", "importtime"))[1])
                   for _ in range(IMPORTTIME_PROBES)]
        for key in samples[0]:
            metrics[key] = statistics.median(s[key] for s in samples)
    else:
        setups = [scaled_setup(runner) for _ in range(SETUP_PROBES)]
    timing = (workloads.GAUGES[workload],)
    plain, traced = [], []
    began = time.monotonic()
    while (len(plain) < (MIN_TRACED_REPS if trace else MIN_REPS)
           or (trace and len(traced) < MIN_TRACED_REPS)
           or time.monotonic() - began < seconds):
        plain.append(runner.spawn("batch", f"rep{len(plain)}.json", args=timing)[1])
        if trace:
            traced.append(runner.spawn("traced", f"traced{len(traced)}.json", args=("raw",))[1])
    if trace:
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(r["layers"][key] for r in traced)
        # spans would count the probes, so traced repetitions are timed raw
        metrics["trace.overhead_s"] = median_of(traced, "raw_wall_s") - median_of(plain, "raw_wall_s")
    else:
        metrics["setup_s"] = statistics.median(setups)
        for key in ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s"):
            metrics[key] = median_of(plain, key)
        # now and then one repetition peaks tens of MB lower than the rest
        metrics["peak_rss_mb"] = max(r["peak_rss_mb"] for r in plain)
    return metrics, plain, traced


def judge(verdicts, reports):
    """Failed verdicts; an output that differs between repetitions fails too."""
    reference = reports[0]["outputs"]
    unsteady = {item for r in reports[1:] for item, out in r["outputs"].items() if out != reference[item]}
    failures = []
    for v in verdicts:
        if v["item"] in unsteady:
            v = dict(v, ok=False, reason="output differs between runs with the same seed", defect=None)
        if not v["ok"]:
            failures.append(v)
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dtmoments" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'dtmoments'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    for old in workdir.iterdir():  # files of an earlier run with the same name
        old.unlink()
    items = workloads.generate(args.workload, args.seed)
    inputs_text = json.dumps(items, sort_keys=True)
    (workdir / "inputs.json").write_text(inputs_text)

    runner = Runner(workdir)
    try:
        metrics, plain, traced = measure(runner, args.workload, bool(args.trace), args.seconds)
        oracle = runner.spawn("oracle", "oracle.json")[1]
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    env = oracle["environment"]
    if not Path(env["package"]).is_relative_to(SRC):
        print(f"perfbench: imported {env['package']}, not the checkout's source", file=sys.stderr)
        return 1

    verdicts = oracle["verdicts"]
    failures = judge(verdicts, plain + traced)
    metrics["failed_frac"] = len(failures) / len(verdicts)
    correct = all(f["defect"] for f in failures)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), **source_stats(), "nproc": NPROC, "python": platform.python_version(),
        "numpy": env["numpy"], "blas": env["blas"], "blas_threads": BLAS_THREADS,
        "inputs_sha256": hashlib.sha256(inputs_text.encode()).hexdigest(),
        "calibration": env["calibration"], "repetitions": len(plain), "traced_repetitions": len(traced),
    }
    record = {
        "meta": meta,
        "metrics": metrics,
        "samples": {f"{kind}.{k}": [r[k] for r in reports] for kind, reports in (("plain", plain), ("traced", traced))
                    for k in ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s", "probe_s", "peak_rss_mb")
                    if reports},
        "attempted": len(verdicts),
        "failures": failures,
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1))

    for f in failures:
        tag = f"known defect {f['defect']}" if f["defect"] else "UNEXPECTED"
        print(f"FAIL [{tag}] {f['id']}: {f['reason']}")
    print(f"meta {json.dumps(meta)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(verdicts),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
