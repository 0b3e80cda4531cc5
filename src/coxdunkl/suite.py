"""Verification suite: configuration, per-group checks, reports.

Exit codes: 0 all pass, 1 at least one failure, 2 usage/config error,
3 a size budget was exhausted.
"""

import math
import os
import time
from functools import lru_cache
from typing import NamedTuple

from .coxeter import (DEFAULT_ENUMERATION_BUDGET, build_root_system,
                      chevalley_q_identity, compute_degrees, enumerate_group,
                      known_label, poincare_polynomial, standard_diagram,
                      verify_psi_identities)
from .dunkl import b_poly, b_poly_is_heavy, closed_form_b_string
from .errors import BudgetError, ConfigError
from .mmintegral import (cross_check_plan, functional_equation_plan,
                         gamma_product_exact, log_moments_plan, mc_pass,
                         mm_exact, mm_exact_is_heavy, predicted_relative_se)
from .polynomials import MultiPoly
from .scalars import KPoly, rat

SUITE_VERSION = 1

DEFAULT_GROUPS = ("A1", "A2", "A3", "B2", "B3", "D4", "I2(5)", "I2(7)", "H3")


class CheckReport(NamedTuple):
    name: str
    group: str
    mode: str       # "exact" | "statistical"
    status: str     # "pass" | "fail" | "skipped"
    expected: str
    actual: str
    z_score: float = None
    runtime_ms: int = 0

    def as_dict(self):
        out = self._asdict()
        if self.z_score is None:
            del out["z_score"]
        return out


# ---------------------------------------------------------------------------
# per-group context
# ---------------------------------------------------------------------------


class GroupContext(NamedTuple):
    label: str
    rs: object
    elements: list
    poincare: object
    degrees: object


def group_context(label: str,
                  enumeration_budget=DEFAULT_ENUMERATION_BUDGET) -> GroupContext:
    """The one shared context of (label, budget), however the call spells it."""
    return _group_context(label, enumeration_budget)


@lru_cache(maxsize=None)
def _group_context(label, enumeration_budget):
    diagram = standard_diagram(label)
    rs = build_root_system(diagram)
    elements = enumerate_group(rs, budget=enumeration_budget)
    poincare = poincare_polynomial(elements, rs.spec)
    degrees = compute_degrees(rs, poincare)
    return GroupContext(label, rs, elements, poincare, degrees)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _check_poincare(ctx, cfg):
    spec = ctx.rs.spec
    one_minus_q = KPoly.from_coeffs(spec, [1, -1])
    lhs = ctx.poincare * one_minus_q ** ctx.rs.rank
    rhs = KPoly.one(spec)
    for d in ctx.degrees.degrees:
        rhs = rhs * KPoly.from_coeffs(spec, [1] + [0] * (d - 1) + [-1])
    return lhs == rhs, rhs.to_string("q"), lhs.to_string("q")


def _check_degrees(ctx, cfg):
    dd = ctx.degrees
    prod = math.prod(dd.degrees)
    ssum = sum(d - 1 for d in dd.degrees)
    expected = f"prod(d_i)={len(ctx.elements)}, sum(d_i-1)={ctx.rs.num_positive}"
    actual = f"prod(d_i)={prod}, sum(d_i-1)={ssum}, degrees={list(dd.degrees)}"
    return (prod == len(ctx.elements) and ssum == ctx.rs.num_positive,
            expected, actual)


def _check_chevalley(ctx, cfg):
    res = chevalley_q_identity(ctx.rs, ctx.elements, ctx.degrees)
    fmt = lambda fr: f"({fr[0].to_string('q')}) / ({fr[1].to_string('q')})"
    return res.equal, fmt(res.rhs), fmt(res.lhs)


def _check_psi(ctx, cfg):
    rep = verify_psi_identities(ctx.rs, ctx.degrees)
    expected = f"psi={rep.psi}"
    actual = (f"parabolic_sum={rep.parabolic_sum}, "
              f"trace_identity={'ok' if rep.trace_identity_ok else 'FAIL'}, "
              f"census={dict(rep.census)}")
    return rep.parabolic_ok and rep.trace_identity_ok, expected, actual


def _b_gated(ctx, cfg):
    """`b_poly_is_heavy`'s reason, or "" when b(k) runs in this config."""
    return "" if cfg.heavy_types_enabled else b_poly_is_heavy(ctx.rs)


def _b_result(ctx, cfg):
    # one computation per group, shared by the checks that need it
    return ctx.rs._cache("b_poly", lambda: b_poly(
        ctx.rs, ctx.degrees, allow_heavy=cfg.heavy_types_enabled))


def _check_b_poly(ctx, cfg):
    if gated := _b_gated(ctx, cfg):
        return None, gated, "skipped (enable heavy_types_enabled)"
    res = _b_result(ctx, cfg)
    expected = closed_form_b_string(ctx.degrees)
    if res.equal:
        actual = expected + " (roots -m/d_i verified)"
    else:
        actual = res.computed.to_string()
    return res.equal, expected, actual


def _check_mm_exact(ctx, cfg, k):
    rs = ctx.rs
    if gated := mm_exact_is_heavy(rs, k):
        return None, gated, "skipped"
    value = mm_exact(rs, k)
    target = gamma_product_exact(ctx.degrees, k)
    return value == rs.spec.from_rational(target), str(target), str(value)


#: a statistical check is only attempted when the moment estimator's predicted
#: relative standard error (known in closed form) resolves a 4-sigma band
MC_REL_SE_GATE = 0.02


def _skip(expected, actual):
    """A gated statistical check: no stat, so no report."""
    return None, None, lambda _: (expected, actual)


def _check_functional_equation(ctx, cfg):
    if _b_gated(ctx, cfg):
        return _skip("needs b(k)", "skipped (b_poly gated for this type)")
    k = rat(1, 2)
    pse = max(predicted_relative_se(ctx.degrees, float(k), cfg.mc_samples),
              predicted_relative_se(ctx.degrees, float(k) + 1.0,
                                    cfg.mc_samples))
    if pse > MC_REL_SE_GATE:
        return _skip(f"predicted rel. std error {pse:.3g} <= {MC_REL_SE_GATE}",
                     "skipped (heavy-tailed estimator; raise mc_samples)")
    b_at_k = _b_result(ctx, cfg).computed(k)
    return (*functional_equation_plan(b_at_k, k), lambda rep: (
        f"F(k+1) = b(k) F(k) at k=1/2; rhs={rep.rhs:.6g}",
        f"lhs={rep.lhs:.6g}"))


def _check_gamma_cross(ctx, cfg):
    rs = ctx.rs
    f = MultiPoly.variable(rs, 0, 2)
    g = MultiPoly.one(rs)
    for k in (rat(1, 2), rat(1, 4), rat(1, 8)):
        if predicted_relative_se(ctx.degrees, float(k),
                                 cfg.mc_samples) <= MC_REL_SE_GATE:
            break
    else:
        return _skip(f"predicted rel. std error <= {MC_REL_SE_GATE}",
                     "skipped (heavy-tailed estimator; raise mc_samples)")
    return (*cross_check_plan(f, g, k), lambda rep: (
        f"gamma(u1^2, 1) at k={k} = {rep.exact_value:.8g}",
        f"mc_ratio={rep.estimate:.8g} (se={rep.std_error:.2g})"))


def _check_log_moments(ctx, cfg):
    return (*log_moments_plan(ctx.rs, ctx.degrees), lambda rep: (
        f"E[log Delta^2] = -EulerGamma*|S| = {rep.target:.8g}",
        f"mean={rep.mean:.8g} (se={rep.std_error:.2g})"))


STATISTICAL = ("functional_equation", "gamma_cross_check", "log_moments")

#: name -> check, in report order.  An exact check returns (ok, expected,
#: actual).  A statistical check returns (stat, finish, strings) for its
#: group's shared `mc_pass`: finish turns the stat's merged state into an
#: estimator report and strings(report) gives (expected, actual).  A gate
#: that skips a check returns None for its ok or its stat.
CHECKS = {
    "poincare_identity": _check_poincare,
    "degrees_consistency": _check_degrees,
    "chevalley": _check_chevalley,
    "psi_identities": _check_psi,
    "b_poly": _check_b_poly,
    "mm_exact_k1": lambda ctx, cfg: _check_mm_exact(ctx, cfg, 1),
    "mm_exact_k2": lambda ctx, cfg: _check_mm_exact(ctx, cfg, 2),
    "functional_equation": _check_functional_equation,
    "gamma_cross_check": _check_gamma_cross,
    "log_moments": _check_log_moments,
}

CHECK_ORDER = tuple(CHECKS)


class SuiteConfig(NamedTuple):
    """One suite run's settings.  It follows the check registry, whose
    `CHECK_ORDER` is its default `checks`."""

    groups: tuple = DEFAULT_GROUPS
    checks: tuple = CHECK_ORDER
    mc_samples: int = 10_000_000
    seed: int = 42
    shards: int = 16
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET
    heavy_types_enabled: bool = False
    output_path: str = None


_INT_KEYS = {"mc_samples", "seed", "shards", "enumeration_budget"}


def _check_setting(key, value, line=None):
    """Raise ConfigError unless `value` suits the `SuiteConfig` field `key`:
    groups and checks are non-empty lists of known, distinct names, the
    counts are positive integers (a seed is any integer: it is only hashed)
    and heavy_types_enabled is a bool.  `parse_config` checks each line with
    it and `run_suite` each field."""
    if key in ("groups", "checks"):
        what, known = (("group", known_label) if key == "groups"
                       else ("check", CHECKS.__contains__))
        if not value:
            raise ConfigError(f"{key} needs at least one {what}", line)
        for i, name in enumerate(value):
            if not (isinstance(name, str) and known(name)):
                raise ConfigError(f"unknown {what} {name!r}", line)
            if name in value[:i]:
                raise ConfigError(f"{what} {name!r} listed twice", line)
    elif key in _INT_KEYS:
        if type(value) is not int:
            raise ConfigError(f"{key} needs an integer, got {value!r}", line)
        if value <= 0 and key != "seed":
            raise ConfigError(f"{key} must be positive", line)
    elif key == "heavy_types_enabled" and type(value) is not bool:
        raise ConfigError(f"{key} needs true/false, got {value!r}", line)


def parse_config(text: str) -> SuiteConfig:
    """Line-oriented `key = value` format; '#' starts a comment; lists are
    comma separated.  Unknown or repeated keys, unknown groups or checks,
    and empty lists or repeated entries, are rejected up front."""
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected `key = value`, got {raw!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in fields:
            raise ConfigError(f"key {key!r} given twice", lineno)
        if key in ("groups", "checks"):
            value = tuple(n.strip() for n in value.split(",") if n.strip())
        elif key in _INT_KEYS:
            try:
                value = int(value)
            except ValueError:
                pass    # left a string, which _check_setting rejects
        elif key == "heavy_types_enabled":
            value = {"true": True, "false": False}.get(value.lower(), value)
        elif key != "output_path":
            raise ConfigError(f"unknown key {key!r}", lineno)
        _check_setting(key, value, lineno)
        fields[key] = value
    return SuiteConfig(**fields)


def _row(name, label, ok, expected, actual, z=None, seconds=0.0):
    """The one report builder: mode from the name, status from ok."""
    return CheckReport(name, label,
                       "statistical" if name in STATISTICAL else "exact",
                       "skipped" if ok is None else ("pass" if ok else "fail"),
                       expected, actual, z, int(seconds * 1000))


def run_statistical(names, contexts, cfg, threads=1):
    """Run the statistical checks `names` on every group in `contexts`:
    each group's gates, then one `mc_pass`, shared by groups of any ranks,
    over the stats they admit.  Returns the rows in (group, check) order.
    A row's runtime_ms is its own gate, plus the whole pass if it ran."""
    plans, live = [], []
    for ctx in contexts:
        stats = []
        for name in names:
            start = time.perf_counter()
            stat, finish, strings = CHECKS[name](ctx, cfg)
            plans.append((ctx.label, name, stat, finish, strings,
                          time.perf_counter() - start))
            if stat:
                stats.append(stat)
        if stats:
            live.append((ctx.rs, stats))
    start = time.perf_counter()
    passed = mc_pass(live, cfg.mc_samples, cfg.seed, cfg.shards,
                     threads) if live else ()
    shared = time.perf_counter() - start
    states = iter([st for part, _ in passed for st in part])
    rows = []
    for label, name, stat, finish, strings, gate in plans:
        rep = finish(next(states)) if stat else None
        ok, z = (rep.passed, rep.z_score) if rep else (None, None)
        rows.append(_row(name, label, ok, *strings(rep), z,
                         gate + (shared if stat else 0.0)))
    return rows


def run_check(name, ctx, cfg):
    """Run one named check; returns a CheckReport."""
    check = CHECKS.get(name)
    if check is None:
        raise ValueError(f"unknown check {name!r}")
    if name in STATISTICAL:
        return run_statistical((name,), [ctx], cfg)[0]
    start = time.perf_counter()
    result = check(ctx, cfg)
    return _row(name, ctx.label, *result, seconds=time.perf_counter() - start)


def default_threads():
    """COXDUNKL_THREADS when set (a positive integer, else ConfigError), or
    the available parallelism: the CPUs this process may run on, where the
    platform reports its affinity, else the machine's CPU count."""
    env = os.environ.get("COXDUNKL_THREADS")
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        threads = int(env)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(
            f"COXDUNKL_THREADS must be a positive integer, got {env!r}")
    return threads


def run_suite(cfg: SuiteConfig, threads=None):
    """Run the configured checks on the configured groups.

    The tasks run one at a time: first the statistical checks of every
    group, one task whose shared `mc_pass` runs its shards on `threads`
    threads; then the exact checks, one task each.  Returns (reports,
    exit_code), with the reports in (group, check) order.  A config built
    in code is checked as `parse_config` checks its text, and `threads` as
    a positive int (ConfigError)."""
    for key, value in cfg._asdict().items():
        _check_setting(key, value)
    if threads is None:
        threads = default_threads()
    if type(threads) is not int or threads < 1:
        raise ConfigError(f"threads needs a positive integer, got {threads!r}")
    checks = [c for c in CHECK_ORDER if c in cfg.checks]
    stat = tuple(c for c in checks if c in STATISTICAL)
    budget_hit = False
    done, contexts, exact = [], [], []
    for label in cfg.groups:
        try:
            ctx = group_context(label, cfg.enumeration_budget)
        except BudgetError as exc:
            budget_hit = True
            done += [_row(c, label, None, "within enumeration budget",
                          str(exc)) for c in checks]
            continue
        contexts.append(ctx)
        exact += [(ctx, c) for c in checks if c not in stat]
    # the pass first: the default `--threads 2 suite` then peaks at about
    # 142 MB RSS, and at about 156 MB with the exact checks first
    done += run_statistical(stat, contexts, cfg, threads)
    # a gated exact check skips itself, so only the group contexts above
    # meet a budget
    done += [run_check(name, ctx, cfg) for ctx, name in exact]
    by_key = {(r.group, r.name): r for r in done}
    reports = [by_key[label, c] for label in cfg.groups for c in checks]
    if any(r.status == "fail" for r in reports):
        return reports, 1
    return reports, 3 if budget_hit else 0


def render_report(reports, fmt="json", seed=42) -> str:
    """Machine-readable JSON or an aligned table; field order is fixed."""
    if fmt == "json":
        import json   # loaded here, so that `import coxdunkl` does not load it
        doc = {
            "suite_version": SUITE_VERSION,
            "seed": seed,
            "checks": [r.as_dict() for r in reports],
            "failures": sum(1 for r in reports if r.status == "fail"),
        }
        return json.dumps(doc, separators=(",", ":"))
    if fmt == "table":
        headers = ("group", "check", "mode", "status", "z", "ms")
        rows = []
        for r in reports:
            z = "" if r.z_score is None else f"{r.z_score:+.2f}"
            rows.append((r.group, r.name, r.mode, r.status, z,
                         str(r.runtime_ms)))
        widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
                  for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(row[i].ljust(widths[i])
                                   for i in range(len(headers))))
        return "\n".join(lines)
    raise ValueError(f"unknown report format {fmt!r}")


def group_info(label, enumeration_budget=DEFAULT_ENUMERATION_BUDGET) -> dict:
    """Census data for one group, JSON-friendly."""
    ctx = group_context(label, enumeration_budget)
    rep = verify_psi_identities(ctx.rs, ctx.degrees)
    return {
        "type": label,
        "rank": ctx.rs.rank,
        "order": len(ctx.elements),
        "num_reflections": ctx.rs.num_positive,
        "degrees": list(ctx.degrees.degrees),
        "psi": rep.psi,
        "rank2_parabolics": {str(m): n for m, n in rep.census},
    }
