"""Tests of the benchmark itself.  Run with `python3 -m pytest perfbench/tests`;
the traced-run fixture runs every workload once (about a minute)."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference  # noqa: E402
import run  # noqa: E402
from tracing import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import (WORKLOADS, Batch, Workload,  # noqa: E402
                       failure_reason, load_golden, run_operations)

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=200)


@pytest.fixture(scope="module")
def traced_runs():
    """One short traced run of every workload: (last stdout line, results)."""
    runs = {}
    for name in WORKLOADS:
        proc = _run("--workload", name, "--seed", "5", "--seconds", "1",
                    "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        result = json.loads(
            (run.OUT / f"{name}-seed5-trace1.result.json").read_text())
        runs[name] = (line, result)
    return runs


def test_names_match_the_contract_and_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    for name in workloads + end_to_end + [n for n, _, _ in per_layer]:
        assert NAME.match(name) and len(name) <= 64, name
    assert workloads == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in WORKLOADS.values()]
    assert end_to_end == [name for name, _ in run.END_TO_END]
    assert per_layer == [m[:3] for m in LAYER_METRICS]
    for *_, used_by in LAYER_METRICS:
        assert set(used_by) <= set(WORKLOADS)


def test_no_operation_skips_or_fails_on_this_commit(traced_runs):
    for name, (line, result) in traced_runs.items():
        ops = WORKLOADS[name].operations()
        assert line["correct"] and line["failed"] == 0, result["failure_reasons"]
        assert line["attempted"] == 2 * len(ops)  # traced + one untraced pass
        assert [(op["group"], op["check"]) for op in result["ops"]] == ops
        assert {op["status"] for op in result["ops"]} == {"pass"}


def test_traced_run_emits_every_layer_metric(traced_runs):
    names = [m[0] for m in LAYER_METRICS]
    for name, (line, _) in traced_runs.items():
        assert list(line["metrics"]) == names
        for metric, *_, used_by in LAYER_METRICS:
            if name in used_by:
                assert line["metrics"][metric]["value"] != 0, (name, metric)
        assert line["metrics"]["bench.untraced_targets"]["value"] == 0
        for suffix in ("spans.jsonl", "layers.json"):
            assert (run.OUT / f"{name}-seed5-trace1.{suffix}").is_file()


def test_times_are_scaled_by_the_reference(traced_runs):
    for _, result in traced_runs.values():
        e2e = result["end_to_end"]
        wl = WORKLOADS[result["workload"]]
        assert e2e["wall_s"]["n"] == len(result["marks"]) >= 1
        for i, marks in enumerate(result["marks"]):
            # before and after set-up, between batches, after the last one
            assert len(marks) == len(wl.batches) + 2
            assert all(a < b and min(refs.values()) > 0
                       for a, b, refs in marks)

            def scaled(name, kernel):
                ref = sum(m[2][kernel] for m in marks) / len(marks)
                return e2e[name]["raw_passes"][i] * reference.NOMINAL_S / ref

            setup = scaled("setup_s", "python")
            check = scaled("check_s", wl.reference)
            assert e2e["setup_s"]["passes"][i] == pytest.approx(setup)
            assert e2e["check_s"]["passes"][i] == pytest.approx(check)
            assert e2e["wall_s"]["passes"][i] == pytest.approx(setup + check)
            # the marks' own time is left out of the checks
            assert e2e["check_s"]["raw_passes"][i] < marks[-1][0] - marks[1][1]
        assert "raw_value" not in e2e["peak_rss_mb"]


def test_tampered_golden_output_counts_as_failed(traced_runs):
    golden = load_golden()
    wl = WORKLOADS["exact-kernel"]
    ops = traced_runs[wl.name][1]["ops"]
    assert run.count_failures(wl, ops, golden)[1] == 0
    group, check = wl.operations()[0]
    key = f"{group}/{check}"
    tampered = dict(golden)
    tampered[key] = dict(golden[key], actual=golden[key]["actual"] * 2)
    attempted, failed, reasons = run.count_failures(wl, ops, tampered)
    assert (attempted, failed) == (len(ops), 1)
    assert reasons == {key: "differs from golden"}


def test_skips_and_wide_z_count_as_failed():
    op = {"group": "A2", "check": "log_moments", "mode": "statistical",
          "status": "pass", "z": 3.9}
    assert failure_reason(op, {}) is None
    assert failure_reason(dict(op, z=-4.2), {}) is not None
    assert failure_reason(dict(op, status="skipped"), {}) == "skipped"


def test_seeds_change_mc_estimates_but_not_exact_outputs():
    small = Workload(
        "small", threads=1, why="",
        batches=(Batch(("A2", "B2"), ("b_poly", "mm_exact_k1", "log_moments",
                                      "gamma_cross_check"),
                       {"mc_samples": 20_000, "shards": 4}),))
    one, two = (run_operations(small, seed, 1) for seed in (1, 2))
    golden = load_golden()
    for a, b in zip(one, two):
        assert (a["group"], a["check"]) == (b["group"], b["check"])
        if a["mode"] == "statistical":
            assert a["actual"] != b["actual"]
        else:
            assert a == b
            assert failure_reason(a, golden) is None


def test_missing_trace_target_is_reported_not_fatal():
    tracer = Tracer()
    tracer.install([("coxdunkl.suite", "no_such_function", "suite.x", None)])
    assert tracer.untraced == ["coxdunkl.suite.no_such_function"]
    timing = {"wall_s": 1.0, "check_s": 0.5}
    metrics, _ = layer_metrics([], tracer.untraced, {}, timing, timing, 1)
    assert metrics["bench.untraced_targets"] == 1
    assert metrics["suite.group_context_s"] == 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "exact-kernel", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
