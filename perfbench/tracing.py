"""Spans around the calls into each coxdunkl layer, made from outside the
package, and the per-layer metrics computed from them.

`install` replaces module attributes with timing wrappers, on the module
whose code makes the call, so that callers that look the name up at call
time go through the wrapper.  A target that no longer exists is recorded as
untraced and skipped: a per-layer gap never fails the run.
"""

from __future__ import annotations

import importlib
import json
import re
import threading
import time

# (module the caller reads the name from, attribute, span name, counts)
# Span names are <defining module>.<function>.  `counts` reads counters from
# the call's arguments and return value.
TARGETS = (
    ("coxdunkl.suite", "run_suite", "suite.run_suite", None),
    ("coxdunkl.suite", "run_check", "suite.run_check", None),
    ("coxdunkl.suite", "group_context", "suite.group_context", None),
    ("coxdunkl.suite", "build_root_system", "coxeter.build_root_system", None),
    ("coxdunkl.suite", "enumerate_group", "coxeter.enumerate_group",
     lambda a, kw, r: {"elements": len(r)}),
    ("coxdunkl.suite", "poincare_polynomial", "coxeter.poincare_polynomial",
     None),
    ("coxdunkl.suite", "compute_degrees", "coxeter.compute_degrees", None),
    ("coxdunkl.suite", "chevalley_q_identity", "coxeter.chevalley_q_identity",
     None),
    ("coxdunkl.suite", "verify_psi_identities",
     "coxeter.verify_psi_identities", None),
    ("coxdunkl.suite", "b_poly", "dunkl.b_poly", None),
    ("coxdunkl.suite", "mm_exact", "mmintegral.mm_exact",
     lambda a, kw, r: {"k": int(a[1] if len(a) > 1 else kw["k"])}),
    ("coxdunkl.suite", "check_functional_equation",
     "mmintegral.check_functional_equation",
     lambda a, kw, r: {"samples": 0 if r.exact else 2 * int(a[3])}),
    ("coxdunkl.suite", "gamma_integral_cross_check",
     "mmintegral.gamma_integral_cross_check",
     lambda a, kw, r: {"samples": int(a[4])}),
    ("coxdunkl.suite", "mm_log_moments", "mmintegral.mm_log_moments",
     lambda a, kw, r: {"samples": int(a[1])}),
    ("coxdunkl.dunkl", "build_discriminant", "polynomials.build_discriminant",
     lambda a, kw, r: {"terms": len(r.terms)}),
    ("coxdunkl.dunkl", "gamma_form", "dunkl.gamma_form", None),
)


def sanitize(group):
    """`I2(12)` -> `I2_12`, so group names can end a metric name."""
    return re.sub(r"[^A-Za-z0-9]+", "_", group).strip("_")


def _group_of(args):
    """The group label when the first argument carries one."""
    if not args:
        return None
    a0 = args[0]
    if isinstance(a0, str):
        return a0
    label = getattr(a0, "label", None)
    return label if isinstance(label, str) else None


class Tracer:
    """In-memory span recorder.  Spans are (id, parent, name, group, check,
    start, end, counts) with times from `time.perf_counter`."""

    def __init__(self):
        self.spans = []
        self.untraced = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, fn, name, counts):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            group = _group_of(args) or (parent[2] if parent else None)
            check = parent[3] if parent else None
            if name == "suite.run_check":
                check, group = args[0], args[1].label
            with tracer._lock:
                sid = tracer._next_id
                tracer._next_id += 1
            stack.append((sid, name, group, check))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = counts(args, kwargs, result) if counts else {}
            tracer.spans.append({"id": sid,
                                 "parent": parent[0] if parent else None,
                                 "name": name, "group": group, "check": check,
                                 "start": start, "end": end, "counts": extra})
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS):
        for module_name, attr, name, counts in targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.untraced.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name, counts))

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
            for target in self.untraced:
                fh.write(json.dumps({"name": target, "untraced": True}) + "\n")


# ---------------------------------------------------------------------------
# per-layer summary
# ---------------------------------------------------------------------------


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def span_table(spans):
    """Per span name: calls, total and self seconds.  Self time is a span's
    duration minus the part of it that its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    table = {}
    for s in spans:
        dur = s["end"] - s["start"]
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - _covered(children.get(s["id"], ()))
    return table


# Per-layer metrics: name, unit, better, the end-to-end metric it should move
# and the workloads that exercise its layer (where it must be non-zero).
ALL = ("exact-kernel", "group-census", "mc-sampling")
EXACT, CENSUS, MC = ALL
SUITE = (EXACT, CENSUS, MC)
B_POLY_GROUPS = ("A4", "B3", "I2(7)", "I2(12)")
CHECKS = {"b_poly": (EXACT,), "mm_exact_k1": (EXACT,),
          "mm_exact_k2": (EXACT,), "poincare_identity": (CENSUS,),
          "degrees_consistency": (CENSUS,), "chevalley": (CENSUS,),
          "psi_identities": (CENSUS,), "functional_equation": (MC,),
          "gamma_cross_check": (MC,), "log_moments": (MC,)}
SCALAR_PROBES = (("field_mul_ns", "ns", (3, 4, 5, 7, 12)),
                 ("field_inv_us", "us", (5, 12)),
                 ("kpoly_mul_us", "us", (3, 12)))

LAYER_METRICS = (
    [("suite.group_context_s", "s", "lower", "setup_s", ALL)]
    + [(f"suite.run_check_s.{c}", "s", "lower", "wall_s", w)
       for c, w in CHECKS.items()]
    + [("suite.unattributed_s", "s", "lower", "wall_s", SUITE),
       ("suite.pool_speedup", "ratio", "higher", "check_s", (MC,)),
       ("coxeter.build_root_system_s", "s", "lower", "setup_s", ALL),
       ("coxeter.poincare_degrees_s", "s", "lower", "setup_s", ALL),
       ("coxeter.enumerate_group_s", "s", "lower", "setup_s", ALL),
       ("coxeter.us_per_element", "us", "lower", "setup_s", ALL),
       ("coxeter.group_order", "count", "higher", "setup_s", ALL),
       ("coxeter.chevalley_s", "s", "lower", "wall_s", (CENSUS,)),
       ("coxeter.psi_s", "s", "lower", "wall_s", (CENSUS,)),
       ("polynomials.build_discriminant_s", "s", "lower", "wall_s", (EXACT,)),
       ("polynomials.discriminant_terms", "count", "lower", "wall_s",
        (EXACT,)),
       ("dunkl.b_poly_self_s", "s", "lower", "wall_s", (EXACT,))]
    + [(f"dunkl.b_poly_s.{sanitize(g)}", "s", "lower", "wall_s", (EXACT,))
       for g in B_POLY_GROUPS]
    + [("dunkl.gamma_form_s", "s", "lower", "wall_s", (MC,)),
       ("mmintegral.mm_exact_s.k1", "s", "lower", "wall_s", (EXACT,)),
       ("mmintegral.mm_exact_s.k2", "s", "lower", "wall_s", (EXACT,)),
       ("mmintegral.log_moments_ns_per_sample", "ns", "lower", "check_s",
        (MC,)),
       ("mmintegral.cross_check_ns_per_sample", "ns", "lower", "check_s",
        (MC,)),
       ("mmintegral.functional_equation_s", "s", "lower", "check_s", (MC,)),
       ("mmintegral.mc_samples", "count", "higher", "check_s", (MC,)),
       ("mmintegral.mc_samples_per_s", "1/s", "higher", "check_s", (MC,))]
    + [(f"scalars.{what}.m{m}", unit, "lower", "wall_s", ALL)
       for what, unit, ms in SCALAR_PROBES for m in ms]
    + [("bench.trace_overhead_s", "s", "lower", "wall_s",
        (EXACT, CENSUS)),
       ("bench.untraced_targets", "count", "lower", "wall_s", ())]
)


def layer_metrics(spans, untraced, probe, traced, untraced_median, threads):
    """Every per-layer metric, 0 where the workload does not use the layer.

    `traced` holds the traced pass's `wall_s` and `check_s` (run at one
    thread); `untraced_median` the medians of the untraced passes, run at the
    workload's `threads`."""
    table = span_table(spans)

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)

    def by(name, pred):
        return sum(s["end"] - s["start"] for s in spans
                   if s["name"] == name and pred(s))

    out = {"suite.group_context_s": total("suite.group_context")}
    for c in CHECKS:
        out[f"suite.run_check_s.{c}"] = by("suite.run_check",
                                           lambda s: s["check"] == c)
    run_check_ids = {s["id"] for s in spans if s["name"] == "suite.run_check"}
    unattributed = 0.0
    for s in spans:
        if s["name"] == "suite.run_suite":
            kids = [(k["start"], k["end"]) for k in spans
                    if k["parent"] == s["id"] and k["id"] in run_check_ids]
            unattributed += s["end"] - s["start"] - _covered(kids)
    out["suite.unattributed_s"] = unattributed
    untraced_check_s = untraced_median["check_s"]
    out["suite.pool_speedup"] = (traced["check_s"] / untraced_check_s
                                 if threads > 1 else 0.0)
    order = count("coxeter.enumerate_group", "elements")
    enum_s = total("coxeter.enumerate_group")
    out.update({
        "coxeter.build_root_system_s": total("coxeter.build_root_system"),
        "coxeter.poincare_degrees_s": total("coxeter.poincare_polynomial")
        + total("coxeter.compute_degrees"),
        "coxeter.enumerate_group_s": enum_s,
        "coxeter.us_per_element": 1e6 * enum_s / order if order else 0.0,
        "coxeter.group_order": order,
        "coxeter.chevalley_s": total("coxeter.chevalley_q_identity"),
        "coxeter.psi_s": total("coxeter.verify_psi_identities"),
        "polynomials.build_discriminant_s":
            total("polynomials.build_discriminant"),
        "polynomials.discriminant_terms":
            count("polynomials.build_discriminant", "terms"),
        "dunkl.b_poly_self_s": table.get("dunkl.b_poly", {}).get("self_s", 0.0),
    })
    for g in B_POLY_GROUPS:
        out[f"dunkl.b_poly_s.{sanitize(g)}"] = by(
            "dunkl.b_poly", lambda s: s["group"] == g)
    lm_samples = count("mmintegral.mm_log_moments", "samples")
    cc_samples = count("mmintegral.gamma_integral_cross_check", "samples")
    fe_samples = count("mmintegral.check_functional_equation", "samples")
    mc_samples = lm_samples + cc_samples + fe_samples
    out.update({
        "dunkl.gamma_form_s": total("dunkl.gamma_form"),
        "mmintegral.mm_exact_s.k1": by("mmintegral.mm_exact",
                                       lambda s: s["counts"].get("k") == 1),
        "mmintegral.mm_exact_s.k2": by("mmintegral.mm_exact",
                                       lambda s: s["counts"].get("k") == 2),
        "mmintegral.log_moments_ns_per_sample":
            1e9 * total("mmintegral.mm_log_moments") / lm_samples
            if lm_samples else 0.0,
        "mmintegral.cross_check_ns_per_sample":
            1e9 * total("mmintegral.gamma_integral_cross_check") / cc_samples
            if cc_samples else 0.0,
        "mmintegral.functional_equation_s":
            total("mmintegral.check_functional_equation"),
        "mmintegral.mc_samples": mc_samples,
        "mmintegral.mc_samples_per_s":
            mc_samples / untraced_check_s if mc_samples else 0.0,
    })
    out.update(probe)
    # at threads > 1 the untraced passes differ from the traced one by more
    # than tracing, so no overhead is reported there
    out["bench.trace_overhead_s"] = (
        traced["wall_s"] - untraced_median["wall_s"] if threads == 1 else 0.0)
    out["bench.untraced_targets"] = len(untraced)
    return out, table
