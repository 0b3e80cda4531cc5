"""The benchmark's trace targets against the package: `perfbench/tracing.py`
wraps package functions by name, and a name that no longer resolves is
silently left untraced there.  Here every target must resolve, apart from
the single-pass wrappers that the package no longer has."""

import importlib
import types
from pathlib import Path

import coxdunkl.dunkl
from coxdunkl.mmintegral import cross_check_plan
from coxdunkl.polynomials import MultiPoly
from coxdunkl.scalars import rat

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: the targets whose functions are gone: the statistical checks run as
#: plans over one `mc_pass`, which the benchmark does not trace yet
UNRESOLVED = {
    ("coxdunkl.suite", "check_functional_equation"),
    ("coxdunkl.suite", "gamma_integral_cross_check"),
    ("coxdunkl.suite", "mm_log_moments"),
}


def _tracing():
    """perfbench/tracing.py as a module, compiled from its text so that
    nothing (not even bytecode) is written beside it."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_benchmark_trace_targets_resolve():
    targets = _tracing().TARGETS
    unresolved = {(name, attr) for name, attr, _, _ in targets
                  if not callable(getattr(importlib.import_module(name),
                                          attr, None))}
    assert unresolved == UNRESOLVED
    # the exact layers' spans among those that do resolve
    for span in ("dunkl.b_poly", "mmintegral.mm_exact", "dunkl.gamma_form",
                 "polynomials.build_discriminant"):
        assert span in {t[2] for t in targets}, span


def test_cross_check_plan_reads_gamma_form_at_call_time(ctx_a1,
                                                        monkeypatch):
    # so that a wrapper installed on coxdunkl.dunkl, as the benchmark's
    # tracer installs one, sees the plan's exact pairing
    calls = []
    gamma_form = coxdunkl.dunkl.gamma_form

    def counted(f, g):
        calls.append((f, g))
        return gamma_form(f, g)

    monkeypatch.setattr(coxdunkl.dunkl, "gamma_form", counted)
    one = MultiPoly.one(ctx_a1.rs)
    cross_check_plan(one, one, rat(1, 2))
    assert calls == [(one, one)]


def test_b_poly_reads_build_discriminant_at_call_time(ctx_a1, monkeypatch):
    # so that the benchmark's polynomials.build_discriminant span, a
    # wrapper installed on coxdunkl.dunkl, sees b_poly's discriminant
    calls = []
    build_discriminant = coxdunkl.dunkl.build_discriminant

    def counted(rs):
        calls.append(rs)
        return build_discriminant(rs)

    monkeypatch.setattr(coxdunkl.dunkl, "build_discriminant", counted)
    assert coxdunkl.dunkl.b_poly(ctx_a1.rs, ctx_a1.degrees).equal
    assert calls == [ctx_a1.rs]
