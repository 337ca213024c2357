import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


@pytest.fixture
def bench_record(tmp_path, monkeypatch):
    """The script as a module, rooted at an empty checkout whose ``src/`` is committed."""
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"], "run_seconds": 3,
        "workloads": [{"name": "one"}, {"name": "two"}],
        "end_to_end": [{"name": "wall_s"}, {"name": "peak_rss_mb"}],
    }))
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: SimpleNamespace(stdout=""))
    return module


def fake_run(sha="abc"):
    def run(spec, workload, seed):
        meta = {"git_sha": sha if seed == 5 else "abc", "src_lines": 10, "src_sha256": "d", "python": "3",
                "numpy": "2", "blas": "b", "calibration": {"probe_s": seed / 10}}
        return {"correct": seed != 2, "failed": int(seed == 2), "meta": meta,
                "metrics": {"wall_s": seed * (2 if workload == "two" else 1), "peak_rss_mb": 50.0}}
    return run


def test_the_quartiles_of_five_runs_are_their_second_and_fourth(bench_record):
    assert bench_record.summary([5, 1, 4, 2, 3]) == {"median": 3, "q1": 2, "q3": 4}


def test_every_run_is_summarized_and_kept(bench_record, monkeypatch, tmp_path):
    monkeypatch.setattr(bench_record, "run", fake_run())
    assert bench_record.main(["bench_record.py", "41"]) == 0
    bench = json.loads((tmp_path / "BENCH_41.json").read_text())
    assert (bench["pr"], bench["git_sha"], bench["src_lines"], bench["run_seconds"]) == (41, "abc", 10, 3)
    assert bench["workloads"]["two"]["wall_s"] == {"median": 6, "q1": 4, "q3": 8}
    assert bench["workloads"]["one"]["peak_rss_mb"]["median"] == 50.0
    assert [r["failed"] for r in bench["workloads"]["one"]["runs"]] == [0, 1, 0, 0, 0]
    assert len(bench["calibration"]) == 10


def test_runs_of_different_code_are_refused(bench_record, monkeypatch, tmp_path):
    monkeypatch.setattr(bench_record, "run", fake_run(sha="def"))
    with pytest.raises(SystemExit, match="different code"):
        bench_record.main(["bench_record.py", "41"])
    assert not (tmp_path / "BENCH_41.json").exists()


def test_uncommitted_source_is_refused(bench_record, monkeypatch):
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: SimpleNamespace(stdout=" M src/x.py\n"))
    with pytest.raises(SystemExit, match="differs from the commit"):
        bench_record.main(["bench_record.py", "41"])


@pytest.mark.parametrize("path", ["perfbench/run.py", "BENCHMARK.json"])
def test_uncommitted_benchmark_is_refused(bench_record, monkeypatch, path):
    def status(args, **kwargs):  # git reports the change only when asked about its path
        return SimpleNamespace(stdout=f" M {path}\n" if path.split("/")[0] in args else "")
    monkeypatch.setattr(subprocess, "run", status)
    with pytest.raises(SystemExit, match="differs from the commit"):
        bench_record.main(["bench_record.py", "41"])
