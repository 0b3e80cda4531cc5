"""Acceptance suite: every criterion at its stated tolerance.

Exact criteria use exact equality; statistical criteria run 10^7 Monte Carlo
samples against 4-sigma bands (5-sigma for the stretch variance check).
Each test prints one pass/fail line; run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import os
import time

import pytest

from coxdunkl.coxeter import chevalley_q_identity, verify_psi_identities
from coxdunkl.dunkl import (b_poly, beta_form, closed_form_b,
                            dunkl_apply_root, dunkl_laplacian, gamma_form,
                            verify_algebra_relations)
from coxdunkl.mmintegral import (EULER_GAMMA, cross_check_plan,
                                 functional_equation_plan, gamma_product_exact,
                                 gamma_product_rhs, log_moments_plan, mm_exact,
                                 mm_exact_is_heavy, mm_monte_carlo, run_plans)
from coxdunkl.polynomials import (MultiPoly, apply_reflection,
                                  build_discriminant)
from coxdunkl.scalars import KPoly, rat
from coxdunkl.suite import default_threads, group_context

from conftest import divide_out_roots, random_multipoly

MC_SAMPLES = 10_000_000
SHARDS = 16
SEED = 42
THREADS = default_threads()

B_POLY_TYPES = (["A1", "A2", "A3", "A4", "B2", "B3", "D4"]
                + [f"I2({m})" for m in range(3, 13)] + ["H3"])

ENUMERATED_TYPES = (["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4"]
                    + [f"I2({m})" for m in range(2, 13)] + ["H3", "F4", "H4"])

_b_results = {}


def _b(label):
    if label not in _b_results:
        ctx = group_context(label)
        _b_results[label] = b_poly(ctx.rs, ctx.degrees)
    return _b_results[label]


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:>2} {name}: {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_b_equals_closed_form():
    # computed pairing of the discriminant with itself == degree product formula
    times = []
    for label in B_POLY_TYPES:
        start = time.perf_counter()
        res = _b(label)
        times.append((label, time.perf_counter() - start))
        assert res.equal, f"{label}: computed b != closed form"
        assert res.computed.degree == group_context(label).rs.num_positive
    slowest = max(times, key=lambda t: t[1])
    _report(1, "b(k) exact identity", True,
            f"({len(B_POLY_TYPES)} types; slowest {slowest[0]} "
            f"{slowest[1]:.1f}s)")


def test_criterion_02_b_roots():
    # the rational roots of computed b are exactly -m/d_i, by exact division,
    # with multiplicity #{(i, m) : m/d_i = r}, and b has no other root
    for label in B_POLY_TYPES:
        res = _b(label)
        dd = group_context(label).degrees
        rest = divide_out_roots(res.computed, [rat(m, d) for d in dd.degrees
                                               for m in range(1, d)])
        assert rest.degree == 0 and rest.leading().sign() > 0, label
    _report(2, "roots of b are -m/d_i", True, f"({len(B_POLY_TYPES)} types)")


@pytest.mark.skipif(not os.environ.get("COXDUNKL_HEAVY"),
                    reason="heavy b(k) (B4 takes seconds); set COXDUNKL_HEAVY=1")
def test_criterion_01_heavy_b_equals_closed_form():
    # past the default b(k) budget.  F4 is not run: its b(k) takes about
    # 62 s at 1.83 GB peak RSS (one run, BENCH_operator_order.json)
    for label in ("B4",):
        ctx = group_context(label)
        start = time.perf_counter()
        res = b_poly(ctx.rs, ctx.degrees, allow_heavy=True)
        elapsed = time.perf_counter() - start
        assert res.computed == closed_form_b(ctx.rs.spec, ctx.degrees), label
        assert res.equal, label
        _report(1, f"b(k) exact identity, heavy {label}", True,
                f"({elapsed:.1f}s)")


def test_criterion_03_exact_integral_integer_k():
    # F4 at k = 1 is a moment of degree 48, inside the bound; Garvan (1989)
    # checked it by the same kind of moment
    k1_types = (["A1", "A2", "A3", "A4", "B2", "B3", "D4", "H3", "F4"]
                + [f"I2({m})" for m in range(3, 11)])
    for label in k1_types:
        ctx = group_context(label)
        assert not mm_exact_is_heavy(ctx.rs, 1)
        value = mm_exact(ctx.rs, 1)
        target = gamma_product_exact(ctx.degrees, 1)
        assert value == ctx.rs.spec.from_rational(target), (label, 1)
    a3 = group_context("A3")
    assert mm_exact(a3.rs, 1) == a3.rs.spec.from_rational(288)
    k2_types = ["A1", "A2", "I2(3)", "I2(4)", "I2(5)", "D4", "H3"]
    for label in k2_types:
        ctx = group_context(label)
        assert not mm_exact_is_heavy(ctx.rs, 2)
        value = mm_exact(ctx.rs, 2)
        target = gamma_product_exact(ctx.degrees, 2)
        assert value == ctx.rs.spec.from_rational(target), (label, 2)
    _report(3, "integer-k integral equals Gamma product", True,
            f"({len(k1_types)} types at k=1, {len(k2_types)} at k=2)")


def test_criterion_04_monte_carlo_real_k():
    worst = 0.0
    for label in ("A1", "A2", "B2", "A3"):
        ctx = group_context(label)
        for k in (0.25, 0.5, 0.75):
            est = mm_monte_carlo(ctx.rs, k, MC_SAMPLES, SEED, SHARDS, THREADS)
            target = gamma_product_rhs(ctx.degrees, k)
            z = (est.mean - target) / est.std_error
            worst = max(worst, abs(z))
            assert abs(z) <= 4.0, (label, k, z)
    _report(4, "Monte Carlo matches Gamma product", True,
            f"(12 runs x 1e7 samples, worst |z|={worst:.2f})")


def test_criterion_05_functional_equation():
    worst = 0.0
    for label in ("A1", "A2", "B2"):
        ctx = group_context(label)
        b = _b(label).computed
        ks = (rat(1, 4), rat(1, 2))
        reps = run_plans(ctx.rs, [functional_equation_plan(b(k), k)
                                  for k in ks],
                         MC_SAMPLES, SEED, SHARDS, THREADS)
        for k, rep in zip(ks, reps):
            worst = max(worst, abs(rep.z_score))
            assert rep.passed, (label, k, rep.z_score)
    _report(5, "functional equation F(k+1)=b(k)F(k)", True,
            f"(6 pairs, worst |z|={worst:.2f})")


def test_criterion_06_poincare_and_chevalley():
    for label in ENUMERATED_TYPES:
        ctx = group_context(label)
        spec = ctx.rs.spec
        lhs = ctx.poincare * KPoly.from_coeffs(spec, [1, -1]) ** ctx.rs.rank
        rhs = KPoly.one(spec)
        for d in ctx.degrees.degrees:
            rhs = rhs * KPoly.from_coeffs(spec, [1] + [0] * (d - 1) + [-1])
        assert lhs == rhs, f"{label}: Poincare identity"
        assert chevalley_q_identity(ctx.rs, ctx.elements, ctx.degrees).equal, \
            f"{label}: Chevalley identity"
    _report(6, "Poincare and Chevalley identities", True,
            f"({len(ENUMERATED_TYPES)} types)")


def test_criterion_07_degree_bookkeeping():
    for label in ENUMERATED_TYPES:
        ctx = group_context(label)
        prod = 1
        for d in ctx.degrees.degrees:
            prod *= d
        assert prod == len(ctx.elements), label
        assert sum(d - 1 for d in ctx.degrees.degrees) == \
            ctx.rs.num_positive, label
    _report(7, "degree bookkeeping", True, f"({len(ENUMERATED_TYPES)} types)")


def test_criterion_08_psi_identities():
    labels = (["A2", "A3", "A4", "B2", "B3", "D4"]
              + [f"I2({m})" for m in range(3, 13)] + ["H3"])
    for label in labels:
        ctx = group_context(label)
        rep = verify_psi_identities(ctx.rs, ctx.degrees)
        assert rep.parabolic_ok, f"{label}: parabolic additivity"
        assert rep.trace_identity_ok, f"{label}: trace identity"
    a3 = verify_psi_identities(group_context("A3").rs, group_context("A3").degrees)
    assert a3.psi == 82 == 4 * 16 + 3 * 6
    _report(8, "psi additivity and trace identity", True, f"({len(labels)} types)")


def test_criterion_09_algebraic_property_suite():
    import random
    for label in ("A1", "A2", "B2"):
        ctx = group_context(label)
        rs = ctx.rs
        rep = verify_algebra_relations(rs, degree_cap=5)
        assert rep.ok, (label, rep.failures[:3])
        rng = random.Random(SEED)
        for _ in range(100):
            f = random_multipoly(rs, rng, max_degree=5)
            g = random_multipoly(rs, rng, max_degree=5)
            assert beta_form(f, g) == beta_form(g, f), label
            for j in range(rs.rank):
                assert beta_form(dunkl_apply_root(rs, j, f), g) == \
                    beta_form(f, MultiPoly.variable(rs, j) * g), label
                lhs = gamma_form(MultiPoly.variable(rs, j) * f
                                 - dunkl_apply_root(rs, j, f), g)
                assert lhs == gamma_form(f, dunkl_apply_root(rs, j, g)), label
            for i in range(rs.rank):
                assert beta_form(apply_reflection(f, i),
                                 apply_reflection(g, i)) == beta_form(f, g)
        # degree orthogonality on homogeneous pairs
        for _ in range(50):
            f = random_multipoly(rs, rng, max_degree=5, homogeneous=True)
            g = random_multipoly(rs, rng, max_degree=5, homogeneous=True)
            if f.degree() != g.degree():
                assert beta_form(f, g).is_zero(), label
        delta = build_discriminant(rs)
        assert dunkl_laplacian(delta).is_zero(), label
        assert gamma_form(delta, delta) == beta_form(delta, delta), label
    _report(9, "algebraic property suite", True,
            "(3 types: relations on every monomial to degree 5, "
            "100 form trials)")


def test_criterion_10_gamma_integral_cross_check():
    rs1 = group_context("A1").rs
    u = MultiPoly.variable(rs1, 0)
    # the rank-1 regression pair has pairing exactly 2(1+2k)
    assert gamma_form(u * u, MultiPoly.one(rs1)) == \
        KPoly.from_coeffs(rs1.spec, [2, 4])
    rs2 = group_context("A2").rs
    rsb = group_context("B2").rs
    # (f, g) pairs per group; each group's pairs and k-values share a pass
    cases = [
        ("A1", rs1, [(u * u, MultiPoly.one(rs1)), (u * u * u, u)]),
        ("A2", rs2, [(MultiPoly.variable(rs2, 0) * MultiPoly.variable(rs2, 1),
                      MultiPoly.one(rs2))]),
        ("B2", rsb, [(MultiPoly.variable(rsb, 0, 2),
                      MultiPoly.variable(rsb, 1, 2))]),
    ]
    worst = 0.0
    for label, rs, pairs in cases:
        runs = [(f, g, k) for f, g in pairs for k in (rat(0), rat(1, 2), rat(1))]
        reps = run_plans(rs, [cross_check_plan(f, g, k) for f, g, k in runs],
                         MC_SAMPLES, SEED, SHARDS, THREADS)
        for (_, _, k), rep in zip(runs, reps):
            worst = max(worst, abs(rep.z_score))
            assert rep.passed, (label, k, rep.z_score)
    _report(10, "Gaussian pairing integral formula", True,
            f"(4 pairs x 3 k-values, worst |z|={worst:.2f})")


def test_criterion_11_log_moment():
    worst = 0.0
    for label in ("A1", "A2", "B2"):
        ctx = group_context(label)
        [rep] = run_plans(ctx.rs, [log_moments_plan(ctx.rs)], MC_SAMPLES,
                          SEED, SHARDS, THREADS)
        worst = max(worst, abs(rep.z_score))
        assert rep.passed, (label, rep.z_score)
        assert abs(rep.target + EULER_GAMMA * ctx.rs.num_positive) < 1e-12
    _report(11, "log-moment slope at k=0", True, f"(worst |z|={worst:.2f})")


def test_criterion_12_stretch_log_variance():
    # stretch: variance of log Delta^2 against (pi^2/6) sum(d_i^2 - 1), 5 sigma
    ctx = group_context("A2")
    [rep] = run_plans(ctx.rs, [log_moments_plan(ctx.rs, ctx.degrees)],
                      MC_SAMPLES, SEED, SHARDS, THREADS)
    target = (math.pi ** 2 / 6) * 11
    assert abs(rep.variance_target - target) < 1e-12
    ok = abs(rep.variance_z) <= 5.0
    print(f"[acceptance] criterion 12 log-variance (stretch): "
          f"{'PASS' if ok else 'MISS'} (z={rep.variance_z:.2f})")
    if not ok:
        pytest.xfail(f"stretch criterion outside 5 sigma (z={rep.variance_z:.2f})")
