import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SPEC = {
    "command": ["python3", "perfbench/run.py"], "run_seconds": 3,
    "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.24},
                   {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
                   {"name": "score", "better": "higher", "bound": 0.1}],
}


@pytest.fixture
def checkouts(tmp_path):
    """Parent and change checkouts that hold only an equal ``BENCHMARK.json``."""
    dirs = {side: tmp_path / side for side in ("parent", "change")}
    for d in dirs.values():
        d.mkdir()
        (d / "BENCHMARK.json").write_text(json.dumps(SPEC))
    return dirs


@pytest.fixture
def bench_pairs(monkeypatch):
    """The script as a module, its ``subprocess.run`` faked by ``runs``: each
    call is logged as (checkout name, argv), and a run's result is
    ``outcome(side, seed)``, a dict of metrics, ``correct``, ``failed`` and
    ``returncode``."""
    monkeypatch.syspath_prepend(str(TOOLS))
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.calls = []
    module.outcome = lambda side, seed: {}

    def fake_run(cmd, cwd, **kwargs):
        args = dict(zip(cmd[2::2], cmd[3::2]))
        side, seed = Path(cwd).name, int(args["--seed"])
        module.calls.append((side, cmd))
        out = {"correct": True, "failed": 0, "returncode": 0, "wall_s": 1.0, "peak_rss_mb": 50.0, "score": 1.0,
               **module.outcome(side, seed)}
        workdir = Path(cwd) / ".perfbench" / f"{args['--workload']}-seed{seed}-trace0"
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "result.json").write_text(json.dumps({"metrics": {m: out[m] for m in ("wall_s", "peak_rss_mb",
                                                                                       "score")}}))
        line = json.dumps({"correct": out["correct"], "failed": out["failed"]})
        return SimpleNamespace(returncode=out["returncode"], stdout=f"meta {{}}\n{line}\n", stderr="boom")

    monkeypatch.setattr(subprocess, "run", fake_run)
    return module


def pairs(module, dirs):
    return module.main(["bench_pairs.py", str(dirs["parent"]), str(dirs["change"]), "--workload", "mc-large",
                        "--seeds", "31-34"])


def test_pairs_alternate_which_side_runs_first(bench_pairs, checkouts):
    assert pairs(bench_pairs, checkouts) == 0
    order = [(side, cmd[cmd.index("--seed") + 1]) for side, cmd in bench_pairs.calls]
    assert order == [("parent", "31"), ("change", "31"), ("change", "32"), ("parent", "32"),
                     ("parent", "33"), ("change", "33"), ("change", "34"), ("parent", "34")]
    assert all(cmd[:2] == SPEC["command"] and cmd[cmd.index("--seconds") + 1] == "3" for _, cmd in bench_pairs.calls)


def test_wins_follow_the_better_side_and_ties_count_for_neither(bench_pairs, checkouts, capsys):
    # the change is faster on seeds 31, 32 and 34, slower on 33; its score is
    # higher on 31 only; peak RSS ties on every pair
    wall = {31: 0.8, 32: 0.9, 33: 1.2, 34: 0.7}
    bench_pairs.outcome = lambda side, seed: (
        {"wall_s": wall[seed], "score": 2.0 if seed == 31 else 0.5} if side == "change" else {})
    pairs(bench_pairs, checkouts)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "mc-large, 4 pairs, seeds 31-34, 3 s a run"
    assert lines[1] == ("wall_s: parent 1 (1-1), change 0.85 (0.775-0.975); change better (lower) in 3 of 4; "
                        "bound 0.24; within bound")
    assert lines[2].endswith("change better (lower) in 0 of 4; bound 0.05; within bound")
    assert lines[3].endswith("change better (higher) in 1 of 4; bound 0.1; worse")


@pytest.mark.parametrize("parent, change, verdict, score_verdict", [
    ([1.0] * 4, [0.8] * 4, "gain", "gain"),  # every pair won, by more than the parent's spread
    ([1.0] * 4, [0.8, 0.8, 0.8, 1.0], "within bound", "within bound"),  # 3 of 4 pairs is under nine tenths
    ([1.0, 2.0, 1.0, 2.0], [1.5] * 4, "unresolved", "unresolved"),  # a parent spread of 1 is past the bound
    ([1.0, 2.0, 1.0, 2.0], [0.6] * 4, "within bound", "within bound"),  # every change run better, by < 1
    ([1.0] * 4, [1.3] * 4, "worse", "worse"),  # 0.3 worse is past 0.24 x 1 and 0.1 x 1
    ([1.0] * 4, [1.2] * 4, "within bound", "worse"),  # 0.2 worse is within 0.24 x 1, past 0.1 x 1
], ids=["gain", "too-few-wins", "unresolved", "every-run-better", "worse", "within-bound"])
def test_each_metric_gets_the_first_verdict_that_holds(bench_pairs, checkouts, capsys, parent, change, verdict,
                                                        score_verdict):
    # the higher-is-better score takes the wall times mirrored about 2
    runs = {"parent": parent, "change": change}
    bench_pairs.outcome = lambda side, seed: {"wall_s": runs[side][seed - 31], "score": 2 - runs[side][seed - 31]}
    pairs(bench_pairs, checkouts)
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith(f"bound 0.24; {verdict}")
    assert lines[2].endswith("bound 0.05; within bound")  # peak RSS ties on every pair
    assert lines[3].endswith(f"bound 0.1; {score_verdict}")


def test_checkouts_with_different_benchmarks_are_refused(bench_pairs, checkouts):
    (checkouts["change"] / "BENCHMARK.json").write_text(json.dumps({**SPEC, "run_seconds": 4}))
    with pytest.raises(SystemExit, match="BENCHMARK.json files differ"):
        pairs(bench_pairs, checkouts)
    assert bench_pairs.calls == []


@pytest.mark.parametrize("bad, match", [
    ({"returncode": 1}, "seed 33 exited 1:\nboom"),
    ({"correct": False}, "change mc-large seed 33: correct False, failed 0"),
    ({"failed": 2}, "change mc-large seed 33: correct True, failed 2"),
], ids=["exit", "incorrect", "failed"])
def test_a_failed_run_stops_the_comparison(bench_pairs, checkouts, capsys, bad, match):
    bench_pairs.outcome = lambda side, seed: bad if (side, seed) == ("change", 33) else {}
    with pytest.raises(SystemExit, match=match) as stop:
        pairs(bench_pairs, checkouts)
    assert isinstance(stop.value.code, str)  # Python exits 1 with the message
    assert len(bench_pairs.calls) == 6  # pair 33 runs the parent first, and nothing runs after the failure
    assert capsys.readouterr().out == ""


def test_fewer_than_two_seeds_are_refused(bench_pairs, checkouts):
    with pytest.raises(SystemExit):
        bench_pairs.main(["bench_pairs.py", str(checkouts["parent"]), str(checkouts["change"]),
                          "--workload", "mc-large", "--seeds", "31-31"])
    assert bench_pairs.calls == []
