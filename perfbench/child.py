"""One fresh interpreter of the benchmark: set-up, one batch, or the oracle.

    python3 perfbench/child.py import WORKDIR
    python3 perfbench/child.py batch|traced WORKDIR OUT python|blas|raw
    python3 perfbench/child.py oracle WORKDIR OUT

``run.py`` starts it with ``src`` on ``PYTHONPATH``.  The package is imported
first, so the monotonic time printed as the first line marks the end of
set-up for a process whose spawn time the parent recorded.  ``batch`` times
the workload's items with the program's memos cold; ``traced`` does the same
under the span recorder; ``oracle`` checks the outputs of a batch.

Unless the last argument is ``raw``, the batch's times are also scaled to the
reference host by a ``hostspeed.Gauge`` with that probe kind; the raw times
are reported next to the scaled ones.
"""

import time

import dtmoments

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

from dtmoments import (  # noqa: E402
    Atomic,
    Pairing,
    Series,
    StarWord,
    UniformAnnulus,
    UniformDisk,
    UniformEllipse,
    ZWord,
)

MEASURES = {"disk": UniformDisk, "annulus": UniformAnnulus, "ellipse": UniformEllipse}


def build_measure(spec: str, as_float: bool = False):
    """A measure from a CLI-style shorthand, with float parameters if asked."""
    if spec == "delta0":
        return Atomic.delta(0)
    kind, _, rest = spec.partition(":")
    params = [Fraction(tok) for tok in rest.split(",")]
    if as_float:
        params = [float(p) for p in params]
    return MEASURES[kind](*params)


def _fourth_roots(n):
    return [(1, 1j, -1, -1j)[j % 4] for j in range(n)]


def run_item(op: str, a: dict):
    """Call the program for one item; this is all the timed region does."""
    if op == "t_word":
        return dtmoments.t_word_moment(StarWord(tuple(a["eps"])))
    if op == "z_word":
        zw = ZWord(StarWord(tuple(a["eps"])), 1.0 if a["float_c"] else Fraction(1))
        return dtmoments.z_word_moment(zw, build_measure(a["measure"], a["float_measure"]))
    if op == "nto":
        return dtmoments.nto(Pairing(tuple(map(tuple, a["pairs"]))), StarWord(tuple(a["eps"])))
    if op == "m_recursive":
        return dtmoments.m_recursive(tuple(a["seq"]))
    if op == "series_check":
        check = a["check"]
        if check == "l_limit":
            return dtmoments.l_limit_inverse_check(a["order"])
        fn = {"kn": dtmoments.kn_inverse_check, "ln": dtmoments.ln_inverse_check,
              "fnr": dtmoments.finite_n_r_relation_check}[check]
        return fn(a["N"], a["order"])
    if op == "cumulants":
        order = a["order"]
        m = Series.from_one_indexed(tuple(dtmoments.tstt_moment(p) for p in range(1, order + 1)))
        kappa = dtmoments.moments_to_free_cumulants(m)
        return kappa, dtmoments.free_cumulants_to_moments(kappa), dtmoments.r_transform_closed_form(order)
    if op == "density_moment":
        return dtmoments.density_moment(a["p"])
    if op == "density_grid":
        return dtmoments.density_grid(a["num"])
    if op == "phi_roundtrip":
        x = dtmoments.rho(a["v"])
        return x, dtmoments.phi_at(x)
    if op == "sweep":
        return dtmoments.pure_t_word_sweep(a["max_len"], a["n"], a["trials"], a["seed"])
    if op == "elliptic":
        return dtmoments.estimate_elliptic_moment(
            a["theta"], StarWord(tuple(a["eps"])), a["n"], a["trials"], a["seed"])
    if op == "estimate":
        mu = build_measure(a["measure"]) if a["measure"] else None
        return dtmoments.estimate_word_moment(a["letters"], a["n"], a["trials"], a["seed"], mu=mu, c=1.0)
    if op == "det_diag":
        return dtmoments.deterministic_diagonal_run(
            _fourth_roots, 1.0, StarWord(tuple(a["eps"])), a["n"], a["trials"], a["seed"])
    raise ValueError(f"unknown op {op!r}")


def encode(x):
    """A JSON form that keeps every bit: rationals as p/q, floats as hex."""
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, complex):
        return [x.real.hex(), x.imag.hex()]
    if isinstance(x, dtmoments.ComplexRational):
        return [encode(x.re), encode(x.im)]
    if isinstance(x, dtmoments.MomentValue):
        return {"value": encode(x.value), "backend": x.backend}
    if isinstance(x, dtmoments.Estimate):
        return {"mean": encode(x.mean), "stderr": encode(x.stderr), "n": x.n, "trials": x.trials}
    if isinstance(x, Series):
        return [encode(c) for c in x.coeffs]
    if isinstance(x, dtmoments.DensityPoint):
        return [encode(x.x), encode(x.phi), encode(x.v)]
    if isinstance(x, dict):
        return {" ".join(k): encode(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [encode(v) for v in x]
    raise TypeError(f"cannot encode {type(x).__name__}")


def run_batch(items, gauge_kind: str | None, traced: bool, spans_path=None) -> dict:
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    results = []
    gauge = hostspeed.Gauge(gauge_kind)
    gauge.start()
    for item in items:
        try:
            results.append(run_item(item["op"], item["args"]))
        except Exception as e:  # a failing item is reported, not fatal
            results.append(e)
    gauge.stop()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    outputs = {}
    for item, r in zip(items, results):
        outputs[item["id"]] = {"error": f"{type(r).__name__}: {r}"} if isinstance(r, Exception) else encode(r)
    report = {
        "imported_at": IMPORTED_AT,
        "wall_s": gauge.wall,
        "cpu_s": gauge.cpu,
        "raw_wall_s": gauge.raw_wall,
        "raw_cpu_s": gauge.raw_cpu,
        "probe_s": gauge.probe_s(),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "outputs": outputs,
    }
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer)
        if spans_path:
            tracer.write(spans_path)
    return report


def _fraction_loop() -> Fraction:
    total = Fraction(0)
    for k in range(1, 400):
        total += Fraction(k, k * k + 1)
    return total


def environment() -> dict:
    """Where the package came from, library versions and two host probes."""
    import statistics

    import numpy as np

    def median_of_five(fn):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "package": dtmoments.__file__,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "calibration": {
            "matmul_512_complex_s": median_of_five(lambda: a @ a),
            "fraction_loop_s": median_of_five(_fraction_loop),
        },
    }


def main(argv) -> int:
    mode, workdir = argv[1], Path(argv[2])
    print(repr(IMPORTED_AT), flush=True)
    if mode == "import":
        return 0
    out = Path(argv[3])
    items = json.loads((workdir / "inputs.json").read_text())
    if mode == "oracle":
        import oracles

        outputs = json.loads((workdir / "rep0.json").read_text())["outputs"]
        report = {"verdicts": oracles.check_all(items, outputs), "environment": environment()}
    else:
        spans = out.with_suffix(".spans.tsv.gz") if mode == "traced" else None
        kind = None if argv[4] == "raw" else argv[4]
        report = run_batch(items, kind, traced=mode == "traced", spans_path=spans)
    out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
