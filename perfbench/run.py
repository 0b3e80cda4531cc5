"""coxdunkl benchmark: fresh-process passes of a fixed workload.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-golden

Each pass runs the workload in a new interpreter (perfbench/child.py), so
the per-process caches every CLI run pays for are paid here too.  Passes
are started until the next one would end after `--seconds`; at least one
runs.  The time left buys set-up-only passes, which sample `setup_s` again.
Every pass scales its times by the host's speed, measured in the same
process by reference.py, so the seconds reported are those of a host of
fixed speed; the unscaled times go to the results file.
With `--trace 0` the last stdout line reports the medians of the end-to-end
metrics over the passes; with `--trace 1` one traced pass at one thread runs
first and the line reports the per-layer metrics.  Spans, the
per-layer summary and the results are written to perfbench/out/.

Every operation is checked: a skip, an exact output that differs from
golden.json, or a statistical |z| > 4 counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from tracing import LAYER_METRICS, layer_metrics  # noqa: E402
from workloads import (GOLDEN_PATH, SETUP_ONLY, THREAD_VARS,  # noqa: E402
                       WORKLOADS, failure_reason, golden_entry, golden_key,
                       load_golden)

#: the whole run must end well inside three minutes
RUN_LIMIT_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("check_s", "s"),
              ("peak_rss_mb", "MB"))


class ChildError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("COXDUNKL_THREADS", None)
    return env


def spawn(args, limit, capture=False):
    """Run the child to completion, or kill it at `limit` (monotonic)."""
    timeout = limit - time.monotonic()
    if timeout <= 0:
        raise ChildError("out of time")
    try:
        proc = subprocess.run([sys.executable, "-I", str(CHILD), *args],
                              env=child_env(), timeout=timeout,
                              stdout=subprocess.PIPE if capture else sys.stderr,
                              text=True)
    except subprocess.TimeoutExpired:
        raise ChildError(f"child {args[:1]} exceeded the time limit")
    if proc.returncode != 0:
        raise ChildError(f"child {args[:1]} exited with {proc.returncode}")
    return proc.stdout


def one_pass(wl, seed, threads, tag, limit, extra=None):
    """One child; `extra` is a spans path for a traced pass, or SETUP_ONLY."""
    out = OUT / f"{tag}.pass.json"
    args = [wl.name, str(seed), str(threads), str(out)]
    if extra:
        args.append(str(extra))
    t0 = time.monotonic()
    spawn(args, limit)
    res = json.loads(out.read_text())
    out.unlink()
    res["elapsed_s"] = time.monotonic() - t0
    marks = res["marks"]
    # set-up runs from the spawn to the second mark, less the first mark;
    # the checks run from the second mark to the last, less the marks
    (a0, b0, _), (a1, _, _) = marks[:2]
    raw = {"setup_s": a1 - t0 - (b0 - a0)}
    res["setup_s"] = raw["setup_s"] * speed(marks, "python")
    if extra != SETUP_ONLY:
        raw["check_s"] = sum(a - b for (_, b, _), (a, _, _)
                             in zip(marks[1:], marks[2:]))
        raw["wall_s"] = raw["setup_s"] + raw["check_s"]
        res["check_s"] = raw["check_s"] * speed(marks, wl.reference)
        res["wall_s"] = res["setup_s"] + res["check_s"]
        res["peak_rss_mb"] = res["maxrss_kb"] / 1024.0
    res["raw"] = raw
    return res


def speed(marks, kernel):
    """Factor that scales the pass's times to the reference host: set-up is
    pure Python on every workload, the checks are timed against the
    workload's own kernel."""
    return reference.NOMINAL_S / statistics.mean(m[2][kernel] for m in marks)


def count_failures(wl, ops, golden):
    """(attempted, failed, reasons) for one pass against the fixed op list."""
    want = wl.operations()
    got = {(op["group"], op["check"]): op for op in ops}
    reasons = {}
    for key in want:
        op = got.get(key)
        why = "missing" if op is None else failure_reason(op, golden)
        if why:
            reasons["/".join(key)] = why
    return len(want), len(reasons), reasons


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def run_workload(wl, seed, seconds, trace):
    start = time.monotonic()
    limit = start + RUN_LIMIT_S
    deadline = start + seconds
    load = os.getloadavg()
    env = json.loads(spawn([], limit, capture=True))
    env.update({"nproc": os.cpu_count(),
                "cpus_allowed": len(os.sched_getaffinity(0)),
                "loadavg_at_start": load, "threads": wl.threads})
    golden = load_golden()
    tag = f"{wl.name}-seed{seed}-trace{trace}"
    spans_path = OUT / f"{tag}.spans.jsonl"
    traced = None
    if trace:
        traced = one_pass(wl, seed, 1, tag, limit, spans_path)
    passes = []
    while True:
        passes.append(one_pass(wl, seed, wl.threads, tag, limit))
        if time.monotonic() + passes[-1]["elapsed_s"] > deadline:
            break
    # the time left, too short for a pass, buys more set-up samples
    setups = passes[:]
    (a, b, _), (c, d, _) = passes[-1]["marks"][:2]
    need = passes[-1]["raw"]["setup_s"] + (b - a) + (d - c)
    while time.monotonic() + 1.5 * need <= deadline:
        setups.append(one_pass(wl, seed, wl.threads, tag, limit,
                               SETUP_ONLY))
        need = setups[-1]["elapsed_s"]
    attempted = failed = 0
    reasons = {}
    for p in passes + ([traced] if traced else []):
        a, f, r = count_failures(wl, p["ops"], golden)
        attempted += a
        failed += f
        reasons.update(r)

    summary = {}
    for name, unit in END_TO_END:
        sample = setups if name == "setup_s" else passes
        values = [p[name] for p in sample]
        q1, q3 = quartiles(values)
        summary[name] = {"value": statistics.median(values), "unit": unit,
                         "q1": q1, "q3": q3, "n": len(values),
                         "passes": values}
        if name in sample[0]["raw"]:
            raw = [p["raw"][name] for p in sample]
            summary[name].update(raw_value=statistics.median(raw),
                                 raw_passes=raw)
    result = {"workload": wl.name, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env, "passes": len(passes),
              "attempted": attempted, "failed": failed,
              "failure_reasons": reasons, "end_to_end": summary,
              "marks": [p["marks"] for p in passes],
              "ops": passes[-1]["ops"]}
    if trace:
        spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
        spans = [s for s in spans if not s.get("untraced")]
        median = {k: summary[k]["value"] for k in ("wall_s", "check_s")}
        layers, table = layer_metrics(spans, traced["untraced"],
                                      traced["probe"], traced, median,
                                      wl.threads)
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
        (OUT / f"{tag}.layers.json").write_text(json.dumps(
            {"metrics": metrics, "untraced": traced["untraced"],
             "traced_wall_s": traced["wall_s"],
             "traced_check_s": traced["check_s"],
             "spans": table}, indent=1))
        result["per_layer"] = metrics
    else:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in summary.items()}
    (OUT / f"{tag}.result.json").write_text(json.dumps(result, indent=1))
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return result, line


def print_human(result):
    print(f"# {result['workload']}: seed {result['seed']}, "
          f"{result['passes']} untraced passes at threads="
          f"{result['env']['threads']}, env {json.dumps(result['env'])}")
    for name, m in result["end_to_end"].items():
        raw = (f", unscaled {m['raw_value']:.4f}" if "raw_value" in m
               else "")
        print(f"  {name:<12} {m['value']:12.4f} {m['unit']:<3} "
              f"(median of {m['n']}, q1 {m['q1']:.4f}, q3 {m['q3']:.4f}"
              f"{raw})")
    print(f"  fail_ratio   {result['failed']}/{result['attempted']} "
          f"operations")
    for key, why in result["failure_reasons"].items():
        print(f"    FAILED {key}: {why}")
    for name, m in result.get("per_layer", {}).items():
        print(f"  {name:<40} {m['value']:14.4f} {m['unit']}")


def write_golden(limit):
    """Capture the exact outputs of one pass of every workload."""
    golden = {}
    for wl in WORKLOADS.values():
        p = one_pass(wl, 1, wl.threads, f"{wl.name}-golden", limit)
        for op in p["ops"]:
            if op["status"] != "pass":
                raise ChildError(f"{golden_key(op)} is {op['status']}")
            if op["mode"] == "exact":
                golden[golden_key(op)] = golden_entry(op)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} golden entries to {GOLDEN_PATH}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "coxdunkl" / "__init__.py").is_file():
        print(f"no coxdunkl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.write_golden:
            write_golden(time.monotonic() + 600)
            return 0
        if not args.workload:
            ap.error("--workload is required")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        lines = {}
        for name in names:
            result, lines[name] = run_workload(WORKLOADS[name], args.seed,
                                               args.seconds, args.trace)
            print_human(result)
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        line = lines[names[0]]
    else:
        line = {"correct": all(v["correct"] for v in lines.values()),
                "attempted": sum(v["attempted"] for v in lines.values()),
                "failed": sum(v["failed"] for v in lines.values()),
                "metrics": {f"{w}.{k}": m for w, v in lines.items()
                            for k, m in v["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
