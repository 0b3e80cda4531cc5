"""Workload definitions, the per-pass operation runner and golden checking.

An *operation* is one (group, check) entry of a workload.  Every
operation passes on the commit that defined the benchmark, so the work per
run is fixed and a skip counts as a failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

#: pinned to 1 in every pass: BLAS threads beyond the cores oversubscribe
#: the machine once the suite's own thread pool runs
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
Z_LIMIT = 4.0

#: child argument: exit once the group contexts are built
SETUP_ONLY = "--setup-only"


@dataclass(frozen=True)
class Batch:
    """One `run_suite` call: every check on every group of the batch."""
    groups: tuple
    checks: tuple
    config: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    why: str
    batches: tuple = ()
    #: reference.py kernel that gauges the host for this workload
    reference: str = "python"

    @property
    def groups(self):
        """Every group the workload touches, in first-use order."""
        seen = []
        for b in self.batches:
            seen += [g for g in b.groups if g not in seen]
        return tuple(seen)

    def operations(self):
        return [(g, c) for b in self.batches for g in b.groups
                for c in b.checks]


MC_SAMPLES = 2_000_000
CENSUS_CHECKS = ("poincare_identity", "degrees_consistency", "chevalley",
                 "psi_identities")

WORKLOADS = {w.name: w for w in (
    Workload(
        "exact-kernel", threads=1,
        why="exact Dunkl kernel b(k) and exact moments over QQ and field "
            "degrees 2, 3 and 4: the cost of criterion 01",
        # the reference is measured between batches, so the batches here
        # and in group-census split only how finely it tracks the host
        batches=(
            Batch(("A3", "B3", "A4", "I2(7)"), ("b_poly",)),
            Batch(("A2", "B2", "I2(5)", "I2(12)"), ("b_poly",)),
            Batch(("A3", "B3", "A4", "I2(7)", "A2", "B2", "I2(5)"),
                  ("mm_exact_k1",)),
            Batch(("A2", "B2", "I2(5)"), ("mm_exact_k2",)),
        )),
    Workload(
        "group-census", threads=1,
        why="enumeration, Poincare, Chevalley and psi on A4, B4, D4, H3, F4: "
            "the coxeter layer alone, no Dunkl or Monte Carlo work",
        batches=tuple(Batch(gs, CENSUS_CHECKS, {"heavy_types_enabled": True})
                      for gs in (("A4", "B4"), ("D4", "H3"), ("F4",)))),
    Workload(
        "mc-sampling", threads=2,
        why="seeded Monte Carlo sampler and reductions at 2e6 samples through "
            "the suite's two-thread pool, the one place the pool can pay",
        batches=(
            Batch(("A3", "B3", "I2(7)", "A4", "D4", "H3"),
                  ("gamma_cross_check", "log_moments"),
                  {"mc_samples": MC_SAMPLES, "shards": 16}),
            Batch(("A2",),
                  ("functional_equation", "gamma_cross_check", "log_moments"),
                  {"mc_samples": MC_SAMPLES, "shards": 16}),
        ),
        reference="numpy"),
)}


def build_contexts(wl: Workload):
    """Build every group context of `wl` by calling `group_context` exactly
    as `run_suite` does, so that its cache hit there is real."""
    from coxdunkl import suite

    budget = suite.SuiteConfig().enumeration_budget
    for label in wl.groups:
        suite.group_context(label, budget)


def run_operations(wl: Workload, seed: int, threads: int,
                   between=lambda: None):
    """Run every operation of `wl` in this process; return the op records.

    `between` is called between two batches.  Module attributes are looked
    up at call time so that tracing wrappers installed on them take effect."""
    from coxdunkl import suite

    ops = []
    for i, b in enumerate(wl.batches):
        if i:
            between()
        cfg = suite.SuiteConfig(groups=b.groups, checks=b.checks, seed=seed,
                                **b.config)
        reports, _ = suite.run_suite(cfg, threads=threads)
        for r in reports:
            ops.append({"group": r.group, "check": r.name, "mode": r.mode,
                        "status": r.status, "expected": r.expected,
                        "actual": r.actual, "z": r.z_score,
                        "samples": _samples_drawn(r, cfg)})
    return ops


def _samples_drawn(report, cfg):
    """Monte Carlo samples an executed statistical check drew, at the
    configured count: the functional equation estimates F(k) and F(k+1)."""
    if report.mode != "statistical" or report.status == "skipped":
        return 0
    return cfg.mc_samples * (2 if report.name == "functional_equation" else 1)


def golden_key(op):
    return f"{op['group']}/{op['check']}"


def golden_entry(op):
    """The fields of an exact op that must reproduce bit for bit."""
    return {"expected": op["expected"], "actual": op["actual"]}


def load_golden(path=GOLDEN_PATH):
    return json.loads(Path(path).read_text())


def failure_reason(op, golden):
    """None when the op counts as passed, else why it failed.

    Skips fail; exact outputs must match the golden copy; statistical ops
    must sit within the 4-sigma band (their bits may change, so they are
    not compared with the golden copy)."""
    if op["status"] != "pass":
        return op["status"]
    if op["mode"] == "statistical":
        z = op.get("z")
        if z is None or not abs(z) <= Z_LIMIT:
            return f"|z| > {Z_LIMIT}"
        return None
    want = golden.get(golden_key(op))
    if want is None:
        return "no golden entry"
    if golden_entry(op) != want:
        return "differs from golden"
    return None
