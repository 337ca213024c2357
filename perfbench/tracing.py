"""Spans around the program's public functions, recorded from outside.

``install`` replaces each traced function at every module attribute that
holds it (``dtmoments``, the defining module and every module that imported
it by name), and each traced method on its class, so calls made inside the
package are seen the way their callers look them up.  Spans are kept in flat
arrays in memory and written out once, after the batch.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import inspect
import statistics
import sys
import time
from array import array

from dtmoments import linext, measures, moments, ncpair, quasinil, rmt, spectral, transforms


def _arg(name):
    """Read argument ``name`` of a call, positional or keyword."""

    def read(fn):
        sig = inspect.signature(fn)
        return lambda args, kwargs, result: sig.bind(*args, **kwargs).arguments[name]

    return read


# (span name, owner, attribute, how to read the span's work count or None)
SPANS = [
    ("ncpair.enumerate", ncpair, "enumerate_compatible_ncp", lambda fn: lambda a, k, r: len(r)),
    ("ncpair.fold", ncpair, "quotient_graph", None),
    ("linext.count", linext, "count_linear_extensions", lambda fn: lambda a, k, r: a[0].n_vertices),
    ("moments.t_word", moments, "t_word_moment", None),
    ("moments.dt_word", moments, "dt_word_moment", None),
    ("moments.z_word", moments, "z_word_moment", None),
    *[("measures.moment", cls, "moment", None) for cls in (
        measures.Atomic, measures.UniformDisk, measures.UniformAnnulus,
        measures.UniformEllipse, measures.MomentTable, measures.ScaledMeasure)],
    ("quasinil.m_recursive", quasinil, "m_recursive", None),
    ("quasinil.canonicalize", quasinil, "canonicalize", None),
    ("transforms.revert", transforms.Series, "revert", None),
    ("transforms.compose", transforms.Series, "compose", None),
    ("transforms.cumulants", transforms, "moments_to_free_cumulants", None),
    ("transforms.cumulants", transforms, "free_cumulants_to_moments", None),
    *[("transforms.check", transforms, name, None) for name in (
        "kn_inverse_check", "ln_inverse_check", "l_limit_inverse_check", "finite_n_r_relation_check")],
    ("spectral.phi_at", spectral, "phi_at", None),
    ("spectral.density_moment", spectral, "density_moment", None),
    ("spectral.grid", spectral, "density_grid", None),
    ("rmt.sweep", rmt, "pure_t_word_sweep", _arg("trials")),
    ("rmt.elliptic", rmt, "estimate_elliptic_moment", _arg("trials")),
    ("rmt.estimate", rmt, "estimate_word_moment", _arg("trials")),
    ("rmt.det_diag", rmt, "deterministic_diagonal_run", _arg("trials")),
    ("rmt.sample_measure", rmt, "sample_measure", None),
]

# Counted, not spanned: a call adds one to the innermost open span's count.
COUNTS = [("spectral.rho", spectral, "rho")]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.work = array("q")
        self.counted: dict[tuple[str, int], int] = {}
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def span(self, name, fn, work=None):
        nid = self._id(name)
        stack, clock = self._stack, time.perf_counter
        names, starts, ends, parents, works = self.name, self.start, self.end, self.parent, self.work

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            works.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if work is not None:
                works[idx] = work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn):
        stack, names, counted = self._stack, self.name, self.counted

        def counting(*args, **kwargs):
            key = (name, names[stack[-1]] if stack else -1)
            counted[key] = counted.get(key, 0) + 1
            return fn(*args, **kwargs)

        counting.__wrapped__ = fn
        return counting

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name\tstart\tend\tparent\twork\n")
            for i in range(len(self.start)):
                f.write(f"{self.names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}"
                        f"\t{self.parent[i]}\t{self.work[i]}\n")


def install(tracer: Tracer) -> None:
    """Swap every traced function for its wrapper wherever callers find it."""
    holders = [m for name, m in sys.modules.items() if name == "dtmoments" or name.startswith("dtmoments.")]

    def replace(owner, attr, wrapper):
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper)
        if inspect.ismodule(owner):
            for module in holders:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)

    for name, owner, attr, work in SPANS:
        fn = getattr(owner, attr)
        replace(owner, attr, tracer.span(name, fn, work(fn) if work else None))
    for name, owner, attr in COUNTS:
        replace(owner, attr, tracer.count(name, getattr(owner, attr)))


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced batch."""
    n = len(tr.start)
    child_time = [0.0] * n
    child_names: list[set] = [set() for _ in range(n)]
    for i in range(n):
        p = tr.parent[i]
        if p >= 0:
            child_time[p] += tr.end[i] - tr.start[i]
            child_names[p].add(tr.names[tr.name[i]])

    by_name: dict[str, list[int]] = {}
    for i in range(n):
        by_name.setdefault(tr.names[tr.name[i]], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def self_s(*names):
        return sum(tr.end[i] - tr.start[i] - child_time[i] for name in names for i in idx(name))

    def calls(name):
        return len(idx(name))

    def work(name):
        return sum(tr.work[i] for i in idx(name))

    def share(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def reuse(name, child):
        """Share of calls that made no ``child`` call: memo hits seen from outside."""
        spans = idx(name)
        return share(sum(1 for i in spans if not child_names[i] & child), len(spans))

    z_id = tr.name_id.get("moments.z_word")
    z_computed = sum(1 for i in idx("moments.z_word") if "moments.dt_word" in child_names[i])
    dt_under_z = sum(1 for i in idx("moments.dt_word") if tr.parent[i] >= 0 and tr.name[tr.parent[i]] == z_id)
    vertices = [tr.work[i] for i in idx("linext.count")]
    trials = sum(work(name) for name in ("rmt.sweep", "rmt.elliptic", "rmt.estimate", "rmt.det_diag"))
    return {
        "ncpair.enumerate_s": self_s("ncpair.enumerate"),
        "ncpair.enumerate_calls": calls("ncpair.enumerate"),
        "ncpair.pairings": work("ncpair.enumerate"),
        "ncpair.fold_s": self_s("ncpair.fold"),
        "ncpair.folds": calls("ncpair.fold"),
        "linext.count_s": self_s("linext.count"),
        "linext.count_calls": calls("linext.count"),
        "linext.vertices_max": max(vertices, default=0),
        "linext.vertices_mean": statistics.fmean(vertices) if vertices else 0.0,
        "moments.t_word_s": self_s("moments.t_word"),
        "moments.t_word_calls": calls("moments.t_word"),
        "moments.dt_word_s": self_s("moments.dt_word"),
        "moments.dt_word_calls": calls("moments.dt_word"),
        "moments.z_word_s": self_s("moments.z_word"),
        "moments.z_word_calls": calls("moments.z_word"),
        "moments.dt_words_per_z": share(dt_under_z, z_computed),
        "moments.t_word_reuse_ratio": reuse("moments.t_word", {"ncpair.enumerate"}),
        "moments.z_word_reuse_ratio": reuse("moments.z_word", {"moments.dt_word"}),
        "measures.moment_s": self_s("measures.moment"),
        "measures.moment_calls": calls("measures.moment"),
        "quasinil.m_recursive_s": self_s("quasinil.m_recursive"),
        "quasinil.calls": calls("quasinil.m_recursive"),
        "quasinil.reuse_ratio": reuse("quasinil.m_recursive", {"quasinil.m_recursive"}),
        "quasinil.canonicalize_s": self_s("quasinil.canonicalize"),
        "transforms.revert_s": self_s("transforms.revert"),
        "transforms.compose_s": self_s("transforms.compose"),
        "transforms.cumulants_s": self_s("transforms.cumulants"),
        "transforms.check_s": self_s("transforms.check"),
        "spectral.phi_at_s": self_s("spectral.phi_at"),
        "spectral.rho_evals_per_phi": share(
            tr.counted.get(("spectral.rho", tr.name_id.get("spectral.phi_at", -2)), 0), calls("spectral.phi_at")),
        "spectral.density_moment_s": self_s("spectral.density_moment"),
        "spectral.grid_s": self_s("spectral.grid"),
        "rmt.sweep_s_per_trial": share(self_s("rmt.sweep"), work("rmt.sweep")),
        "rmt.elliptic_s": self_s("rmt.elliptic"),
        "rmt.estimate_s_per_trial": share(self_s("rmt.estimate"), work("rmt.estimate")),
        "rmt.det_diag_s": self_s("rmt.det_diag"),
        "rmt.sample_measure_s": self_s("rmt.sample_measure"),
        "rmt.trials": trials,
        "trace.spans": n,
    }
