"""Each module of the package uses every name it imports, so a deletion that
leaves an import behind shows up here rather than as dead weight.  The last
test checks that an import the test tooling makes cannot abort a test run."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dtmoments"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in sorted order."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from .measures import Atomic, UniformDisk as Disk, measure_from_json\n"
        "def f(x: Atomic):\n"
        "    return measure_from_json(x)\n"
    )
    assert unused_imports(source) == ["Disk", "os", "system"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level names (one leading underscore) defined in
    ``sources``, a map of module name to source, that no module reads: no
    load of the name, no attribute of that name and no import of it."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_the_check_finds_unread_private_names():
    sources = {
        "a": "_USED = 1\n_LEFT, _PAIR = 2, 3\ndef _helper():\n    return _USED\n"
             "class _Kept:\n    pass\n__dunder__ = 0\n",
        "b": "from .a import _Kept\ndef _recurse(n):\n    return _recurse(n - 1)\n"
             "def f(mod):\n    return mod._PAIR\n",
    }
    assert unread_private_names(sources) == ["a._LEFT", "a._helper"]


def test_every_private_name_is_read():
    sources = {p.relative_to(PACKAGE).with_suffix("").as_posix(): p.read_text()
               for p in sorted(PACKAGE.rglob("*.py"))}
    assert unread_private_names(sources) == []


def linext_importers(sources: dict[str, str]) -> list[str]:
    """The modules of ``sources``, a map of module name to source, that import
    from ``linext`` in any spelling."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name.rpartition(".")[2] == "linext" for name in names):
                found.append(module)
                break
    return sorted(found)


def test_the_check_finds_linext_imports():
    sources = {"a": "from .linext import nto\n", "b": "from . import linext\n",
               "c": "import dtmoments.linext as le\n", "d": "from .moments import _mul\n"}
    assert linext_importers(sources) == ["a", "b", "c"]


def test_only_the_package_imports_linext():
    # the word engine owns its rank-vector algebra, so the pairing oracle's
    # tree count can leave the package without taking the engine's steps along
    sources = {p.relative_to(PACKAGE).as_posix(): p.read_text() for p in MODULES}
    assert linext_importers(sources) == []


def inf_comparisons(source: str) -> list[int]:
    """The lines of ``source`` that compare a value with ``inf`` in any
    spelling (``inf``, ``math.inf``, ``np.inf``)."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare) and any(
            isinstance(x, ast.Name) and x.id == "inf" or isinstance(x, ast.Attribute) and x.attr == "inf"
            for x in (node.left, *node.comparators)))


def test_the_check_finds_inf_comparisons():
    source = (
        "import math\nfrom math import inf\n"
        "def f(c, limit=math.inf):\n"
        "    if not 0 < c < math.inf:\n"
        "        raise ValueError\n"
        "    return c != inf and c < limit\n"
    )
    assert inf_comparisons(source) == [4, 6]


def test_only_exact_bounds_a_value_by_inf():
    # exact.positive holds the finite-and-positive rule; a hand-written bound
    # elsewhere is a second copy of it
    bounded = [p.relative_to(PACKAGE).as_posix() for p in MODULES if inf_comparisons(p.read_text())]
    assert bounded == ["exact.py"]


def cap_raisers(sources: dict[str, str]) -> list[str]:
    """The modules of ``sources``, a map of module name to source, that raise
    ``CapExceededError``, called or bare, plain or through a module."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            exc = node.exc if isinstance(node, ast.Raise) else None
            exc = exc.func if isinstance(exc, ast.Call) else exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "CapExceededError":
                found.append(module)
                break
    return sorted(found)


def test_the_check_finds_cap_raisers():
    sources = {
        "a": "def f(k):\n    if k > 3:\n        raise CapExceededError(f'{k}')\n",
        "b": "from . import errors\ndef f():\n    raise errors.CapExceededError('k')\n",
        "c": "def f():\n    raise CapExceededError\n",
        "d": "def f(e):\n    raise ValueError('cap') from e\n    raise\n",
        "e": "from .exact import order\ndef f(k):\n    return order(k, 'k', most=3)\n",
    }
    assert cap_raisers(sources) == ["a", "b", "c"]


def test_only_exact_raises_a_cap():
    # exact.order holds every cap; cli.main maps a too-deep recursion to exit 3
    # beside it, so the CLI raises no cap of its own
    sources = {p.relative_to(PACKAGE).as_posix(): p.read_text() for p in MODULES}
    assert cap_raisers(sources) == ["exact.py"]


def bound_checks(source: str) -> list[int]:
    """The lines of ``source`` of every ``if`` whose test compares a bare name
    with an int literal (``<``, ``<=``, ``>``, ``>=``) and whose body raises."""
    def bounds(test):
        operands = [test.left, *test.comparators]
        return any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                   and {type(a), type(b)} == {ast.Name, ast.Constant}
                   and type((a if isinstance(a, ast.Constant) else b).value) is int
                   for op, a, b in zip(test.ops, operands, operands[1:]))

    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.If) and isinstance(node.test, ast.Compare) and bounds(node.test)
        and any(isinstance(stmt, ast.Raise) for stmt in node.body))


def test_the_check_finds_bound_checks():
    source = (
        "def f(n, trials, k, xs):\n"
        "    if trials < 2:\n"
        "        raise ValueError('trials')\n"
        "    elif 1 > n:\n"
        "        raise ValueError('n')\n"
        "    if 0 <= k <= 2048:\n"
        "        k += 1\n"
        "        raise CapExceededError(k)\n"
        "    if k < 0:\n"
        "        k = 0\n"
        "    if n == 0:\n"
        "        raise ValueError\n"
        "    if n < k:\n"
        "        raise ValueError\n"
        "    if len(xs) < 2:\n"
        "        raise ValueError\n"
        "    if n < 2.5:\n"
        "        raise ValueError\n"
        "    if n > True:\n"
        "        raise ValueError\n"
        "    return 0 < n < 3\n"
    )
    assert bound_checks(source) == [2, 4, 6]


def test_only_exact_bounds_an_integer_by_hand():
    # exact.order holds every least value and cap: rmt._check_size bounded
    # the matrix size and the trial count by hand; exact's one hit is
    # rational_sqrt's q < 0
    sources = {p.relative_to(PACKAGE).as_posix(): p.read_text() for p in MODULES}
    assert [module for module, source in sources.items() if bound_checks(source)] == ["exact.py"]


def runner_callers(source: str) -> list[str]:
    """The module-level functions of ``source`` whose bodies, nested
    functions included, call ``_run_trials``, plain or through a module."""
    return sorted(
        node.name for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            isinstance(call, ast.Call) and getattr(call.func, "id", getattr(call.func, "attr", None)) == "_run_trials"
            for call in ast.walk(node)))


def test_the_check_finds_runner_callers():
    source = (
        "def a(words):\n    return _run_trials(draw, words, 4, 3, 0)\n"
        "def b(words):\n    def draw(rngs, size):\n        return {}\n"
        "    return rmt._run_trials(draw, words, 4, 3, 0)[0]\n"
        "def c(words):\n    return a(words)\n"
        "def _run_trials(draw, words, n, trials, seed):\n    return []\n"
        "run = _run_trials\n"
    )
    assert runner_callers(source) == ["a", "b"]


def test_two_draws_feed_the_runner():
    # the DT draw of T and D's diagonal is one function; the elliptic
    # estimator's is another ensemble, with its stream pinned on its own
    assert runner_callers((PACKAGE / "rmt.py").read_text()) == ["_dt_estimates", "estimate_elliptic_moment"]


def test_every_traced_name_resolves():
    # the benchmark's span recorder looks each name up with a bare getattr, so
    # a renamed or removed function would crash a traced run and no other test
    path = PACKAGE.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for entry in tracing.SPANS + tracing.COUNTS:
        owner, attr = entry[1], entry[2]
        assert callable(getattr(owner, attr, None)), f"{entry[0]}: {owner.__name__}.{attr}"


def complex_builders(sources: dict[str, str]) -> list[str]:
    """The modules of ``sources``, a map of module name to source, that call
    the builtin ``complex``."""
    return sorted(
        module for module, source in sources.items()
        if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "complex"
               for node in ast.walk(ast.parse(source))))


def test_the_check_finds_complex_builders():
    sources = {
        "a": "def f(v):\n    return complex(v)\n",
        "b": "def f(v):\n    return [complex(x).real for x in v]\n",
        "c": "def f(v) -> complex:\n    return v.to_complex() + 1j\n",
        "d": "def f(v):\n    return isinstance(v, complex)\n",
    }
    assert complex_builders(sources) == ["a", "b"]


def test_only_exact_and_rmt_build_complex_numbers():
    # exact.tagged holds the tag rule: a moment is a float complex only where
    # that rule says so; the Monte Carlo estimates in rmt are floats throughout
    sources = {p.relative_to(PACKAGE).as_posix(): p.read_text() for p in MODULES}
    assert complex_builders(sources) == ["exact.py", "rmt.py"]


def solve_fraction_work(source: str) -> list[int]:
    """The lines of ``_moment_cumulant_solve``'s body in ``source``, its
    return statements left out, that call ``Fraction`` (plain or through a
    module) or seed a ``sum`` with an expression that names it."""
    def names_fraction(node):
        return any(getattr(n, "id", getattr(n, "attr", None)) == "Fraction" for n in ast.walk(node))

    found = set()
    for fn in ast.parse(source).body:
        if isinstance(fn, ast.FunctionDef) and fn.name == "_moment_cumulant_solve":
            returned = {id(n) for r in ast.walk(fn) if isinstance(r, ast.Return) for n in ast.walk(r)}
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call) or id(call) in returned:
                    continue
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                seeds = call.args[1:] + [kw.value for kw in call.keywords if kw.arg == "start"]
                if name == "Fraction" or name == "sum" and any(names_fraction(seed) for seed in seeds):
                    found.add(call.lineno)
    return sorted(found)


def test_the_check_finds_fraction_work_in_the_solve():
    source = (
        "ZERO = Fraction(0)\n"
        "def _moment_cumulant_solve(known, flag):\n"
        "    m = [Fraction(1)]\n"
        "    b = sum((x for x in m), fractions.Fraction(0))\n"
        "    c = sum(m, start=Fraction.from_float(0.0))\n"
        "    d = sum(x * y for x, y in zip(m, m))\n"
        "    ok = isinstance(known[0], Fraction)\n"
        "    return Series(tuple(Fraction(v, 2) for v in m))\n"
        "def other():\n"
        "    return sum((1, 2), Fraction(0))\n"
    )
    assert solve_fraction_work(source) == [3, 4, 5]


def test_the_solve_runs_on_integers():
    # exact series are rescaled so the table holds integers; only the return
    # divides, once per coefficient
    assert solve_fraction_work((PACKAGE / "transforms.py").read_text()) == []


FAILING_PAIR = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert x != x


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    # hypothesis's failure report imports libcst, which imports
    # mypy_extensions.TypedDict; under the repository's filterwarnings =
    # ["error"] its DeprecationWarning was an INTERNALERROR: pytest exited 3,
    # printed no falsifying example and never ran the next test
    (tmp_path / "test_pair.py").write_text(FAILING_PAIR)
    ini = PACKAGE.parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ini), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-rA", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example: test_always_fails(" in done.stdout
    assert "PASSED test_pair.py::test_passes" in done.stdout
