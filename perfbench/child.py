"""One fresh-interpreter pass of a workload.

    python3 -I perfbench/child.py WORKLOAD SEED THREADS OUT_JSON
        [SPANS_JSONL | --setup-only]

Writes the op records, the monotonic times at which every group context was
built and at which the last report came back, and the process's peak RSS to
OUT_JSON.  It also writes the marks: the reference computation
(reference.py) runs before the contexts are built, between set-up and
checks, between the workload's units and after the last one, and each mark
is (monotonic start, monotonic end, {kernel: reference time}).  The parent
scales the pass's times by the mean reference times.  With SPANS_JSONL the pass is traced, and a fixed-operand probe
of the scalars layer runs after the workload.  With --setup-only the child
stops once the contexts are built: one more `setup_s` sample.
`time.monotonic` is system-wide, so the parent subtracts its own spawn time
from these.

Without arguments the child prints its environment as JSON: a warm-up
import before the timed passes that also records what they run on.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import coxdunkl  # noqa: E402

if not Path(coxdunkl.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"coxdunkl imported from {coxdunkl.__file__}, not this checkout")

import reference  # noqa: E402
from workloads import (SETUP_ONLY, THREAD_VARS, WORKLOADS,  # noqa: E402
                       build_contexts, run_operations)


def _per_op(fn, seconds=0.02, repeats=5):
    """Median over `repeats` of the mean time of one call of `fn`, in s."""
    n = 1
    while True:
        t = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t >= seconds / 4:
            break
        n *= 2
    n = max(1, int(n * seconds / max(time.perf_counter() - t, 1e-9)))
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t) / n)
    return sorted(times)[repeats // 2]


def scalars_probe():
    """FieldElement multiply and inverse and KPoly multiply on fixed operands
    in QQ(2cos(pi/m)), through the public scalars API only."""
    from fractions import Fraction

    from coxdunkl.scalars import KPoly, cos_field

    out = {}
    for m in (3, 4, 5, 7, 12):
        spec = cos_field(m)
        deg = spec.degree
        a = spec.element(*[Fraction(3 + i, 7 + 2 * i) for i in range(deg)])
        b = spec.element(*[Fraction(-5 + 2 * i, 11 + i) for i in range(deg)])
        out[f"scalars.field_mul_ns.m{m}"] = 1e9 * _per_op(lambda: a * b)
        if m in (5, 12):
            out[f"scalars.field_inv_us.m{m}"] = 1e6 * _per_op(lambda: 1 / a)
        if m in (3, 12):
            p = KPoly.from_coeffs(spec, [a, b, a * b, b, a, 1, b])
            q = KPoly.from_coeffs(spec, [b, a, 2, a * a, b, a, 3])
            out[f"scalars.kpoly_mul_us.m{m}"] = 1e6 * _per_op(lambda: p * q)
    return out


def main(argv):
    name, seed, threads, out_path = argv[:4]
    extra = argv[4] if len(argv) > 4 else None
    wl = WORKLOADS[name]
    marks = []

    def mark():
        start = time.monotonic()
        refs = {k: reference.measure(k) for k in ("python", wl.reference)}
        marks.append((start, time.monotonic(), refs))

    mark()
    tracer = None
    if extra not in (None, SETUP_ONLY):
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    build_contexts(wl)
    mark()
    result = {"marks": marks}
    if extra != SETUP_ONLY:
        result["ops"] = run_operations(wl, int(seed), int(threads), mark)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["maxrss_kb"] = usage.ru_maxrss
        mark()
    if tracer:
        result["untraced"] = tracer.untraced
        result["probe"] = scalars_probe()
        tracer.write(extra)
    Path(out_path).write_text(json.dumps(result))


def environment():
    import os
    import platform

    import numpy as np

    from coxdunkl import scalars

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
            "coxdunkl_threads": os.environ.get("COXDUNKL_THREADS"),
            "rational_backend": type(scalars.R0).__module__ + "."
            + type(scalars.R0).__qualname__}


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(sys.argv[1:])
    else:
        print(json.dumps(environment()))
