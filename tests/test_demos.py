"""Smoke test of the demos: every name a demo imports from dtmoments exists,
and the quick demos run to completion."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dtmoments

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# the Monte Carlo demo takes about 10 s, so only its imports are checked
SLOW = {"06_monte_carlo"}


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


@pytest.mark.parametrize("path", [p for p in DEMOS if p.stem not in SLOW], ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path):
    # run in a scratch directory: the density demo writes its CSV to the cwd
    env = {**os.environ, "PYTHONPATH": str(Path(dtmoments.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, str(path)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
