"""Smoke test of the demos: every name a demo imports from dtmoments exists,
and every demo runs to completion.  Also checks that every name the
benchmark in ``perfbench/`` looks up in the package still exists."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dtmoments

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def dtmoments_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dtmoments":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_imported_names_exist(path):
    names = list(dtmoments_imports(path))
    assert names, f"{path.name} imports nothing from dtmoments"
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{path.name}: {module}.{name}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path):
    # run in a scratch directory: the density demo writes its CSV to the cwd
    env = {**os.environ, "PYTHONPATH": str(Path(dtmoments.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, str(path)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


@pytest.mark.parametrize("name", ["child.py", "oracles.py"])
def test_benchmark_names_exist(name):
    # the benchmark calls the package from fresh interpreters, where a
    # missing name would only show as a failed item
    path = ROOT / "perfbench" / name
    tree = ast.parse(path.read_text())
    attrs = [
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "dtmoments"
    ]
    names = list(dtmoments_imports(path))
    assert attrs or names, f"{name} uses nothing from dtmoments"
    for attr in attrs:
        assert hasattr(dtmoments, attr), f"{name}: dtmoments.{attr}"
    for module, attr in names:
        assert hasattr(importlib.import_module(module), attr), f"{name}: {module}.{attr}"


def test_benchmark_encodes_every_result_kind(monkeypatch):
    # the benchmark's oracle reads ``backend`` off every moment it encodes
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    exact = dtmoments.t_word_moment(dtmoments.StarWord.parse("1*"))
    assert child.encode(exact) == {"value": ["1/2", "0/1"], "backend": "exact"}
    zw = dtmoments.ZWord.from_letters(["Z*", "Z"])
    floated = child.encode(dtmoments.z_word_moment(zw, dtmoments.UniformDisk(1.0)))
    assert floated == {"value": [(1.0).hex(), (0.0).hex()], "backend": "float"}
    estimate = dtmoments.Estimate(0.5 + 0j, 0.25, 8, 10, 1)
    assert child.encode(estimate) == {"mean": [(0.5).hex(), (0.0).hex()], "stderr": (0.25).hex(), "n": 8, "trials": 10}
    assert child.encode(dtmoments.Series((1, Fraction(1, 2)))) == ["1/1", "1/2"]
    assert child.encode(dtmoments.DensityPoint(1.0, 0.5, 2.0)) == [(1.0).hex(), (0.5).hex(), (2.0).hex()]


def test_benchmark_trace_lookups_resolve():
    # tracing.install looks each (owner, attribute) up only once a traced run starts
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    lookups = [(span[1], span[2]) for span in tracing.SPANS] + [(count[1], count[2]) for count in tracing.COUNTS]
    assert lookups
    for owner, attr in lookups:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
