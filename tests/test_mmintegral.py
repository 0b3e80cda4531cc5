import math
import random

import numpy as np
import pytest

from conftest import random_multipoly
import coxdunkl.mmintegral
from coxdunkl.errors import BudgetError
from coxdunkl.mmintegral import (EULER_GAMMA, _MC_BLOCK, _BlockSampler,
                                 _log_abs_delta, _merged, _Moments,
                                 _poly_float_evaluator, _substream,
                                 cross_check_plan, functional_equation_plan,
                                 gaussian_moment, gamma_product_exact,
                                 gamma_product_rhs, log_gamma_product,
                                 log_moments_plan, mm_exact, mc_pass,
                                 mm_exact_is_heavy, mm_monte_carlo,
                                 predicted_relative_se, run_plans,
                                 wick_moment_bruteforce)
from coxdunkl.coxeter import build_root_system, standard_diagram
from coxdunkl.dunkl import b_poly
from coxdunkl.polynomials import (MultiPoly, apply_reflection,
                                  build_discriminant, root_linear_form)
from coxdunkl.scalars import KPoly, rat
from coxdunkl.suite import DEFAULT_GROUPS, SuiteConfig, group_context, run_check

SAMPLES = 400_000   # unit-test scale; the acceptance suite uses 10^7


def _form_moment(rs, factors):
    """E[prod (alpha_j, x)] by Stein's recursion on the expanded product."""
    p = MultiPoly.one(rs)
    for j in factors:
        p = p * root_linear_form(rs, j)
    return gaussian_moment(p)


def test_wick_small_cases(ctx_a2):
    rs = ctx_a2.rs
    # (alpha, alpha) = 2 for every root
    for i in range(rs.num_positive):
        assert _form_moment(rs, [i, i]) == 2
    # odd moments vanish
    assert _form_moment(rs, [0]) == 0
    assert _form_moment(rs, [0, 1, 2]) == 0
    # {a,a,b,b} -> 4 + 2 (a,b)^2; for adjacent simple roots (a,b) = -1
    assert _form_moment(rs, [0, 0, 1, 1]) == 6


def test_wick_against_bruteforce_oracle():
    for label in ("A2", "B2", "I2(5)"):
        rs = group_context(label).rs
        rng = random.Random(41)
        for _ in range(20):
            n = rng.choice([2, 4, 6, 8])
            factors = [rng.randrange(rs.num_positive) for _ in range(n)]
            assert (_form_moment(rs, factors)
                    == wick_moment_bruteforce(rs, factors)), (label, factors)


def test_wick_permutation_invariance(ctx_b2):
    rs = ctx_b2.rs
    rng = random.Random(42)
    factors = [0, 1, 2, 3, 0, 1]
    base = _form_moment(rs, factors)
    for _ in range(5):
        rng.shuffle(factors)
        assert _form_moment(rs, factors) == base
    # the Gaussian is W-invariant: E[p o s_alpha] = E[p], here for
    # k-dependent polynomials with field coefficients too
    for label in ("B2", "I2(5)", "A3"):
        rs = group_context(label).rs
        p = random_multipoly(rs, random.Random(43), max_degree=6, terms=6,
                             k_degree=2)
        m = gaussian_moment(p)
        assert not m.is_zero(), label
        for j in range(rs.num_positive):
            assert gaussian_moment(apply_reflection(p, j)) == m, (label, j)
        # each k-coefficient is carried through: E[sum k^j p_j] = sum k^j E[p_j]
        slots = KPoly.zero(rs.spec)
        for j in range(3):
            pj = MultiPoly.from_terms(rs, {e: kp.coeff(j)
                                           for e, kp in p.term_items()})
            slots = slots + gaussian_moment(pj) * KPoly.gen(rs.spec) ** j
        assert m == slots, label


def test_wick_budget(monkeypatch):
    rs = group_context("A2").rs
    # A2 at k = 10 is degree 60, the bound itself; k = 11 is past it
    assert not mm_exact_is_heavy(rs, 10) and mm_exact_is_heavy(rs, 11)
    assert mm_exact_is_heavy(group_context("B4").rs, 2)   # degree 64

    def refuse(*args):
        raise AssertionError("mm_exact computed past its bound")

    monkeypatch.setattr(coxdunkl.mmintegral, "build_discriminant", refuse)
    monkeypatch.setattr(coxdunkl.mmintegral, "gaussian_moment", refuse)
    with pytest.raises(BudgetError):
        mm_exact(rs, 11)
    with pytest.raises(BudgetError):
        mm_exact(group_context("B4").rs, 2)
    monkeypatch.undo()
    assert mm_exact(rs, 10) == gamma_product_exact(group_context("A2").degrees, 10)


def test_mm_exact_values():
    # k = 0 is the empty product
    for label in ("A2", "H3"):
        rs = group_context(label).rs
        assert mm_exact(rs, 0) == rs.spec.one()
    # A1: E[(alpha,x)^2] = 2; A2 k=1: Gamma(3)Gamma(4)/Gamma(2)^2 = 12
    a1 = group_context("A1")
    assert mm_exact(a1.rs, 1) == a1.rs.spec.from_rational(2)
    a2 = group_context("A2")
    assert mm_exact(a2.rs, 1) == a2.rs.spec.from_rational(12)


def test_mm_exact_k1_fischer_pairing_matches_the_stein_moment():
    # Delta is harmonic, so F(1) = E[Delta^2] is the Fischer pairing
    # Delta(d)Delta: the |S| root derivatives of Delta against the Stein
    # moment of the product, on every field degree up to 3
    for label in ("A2", "B2", "I2(5)", "I2(7)", "A3", "B3", "D4", "H3"):
        rs = group_context(label).rs
        delta = build_discriminant(rs)
        assert mm_exact(rs, 1) == gaussian_moment(delta * delta).coeff(0), label


def test_mm_exact_matches_gamma_product():
    cases = [("A1", 1), ("A2", 1), ("B2", 1), ("A3", 1), ("A1", 2), ("A2", 2)]
    for label, k in cases:
        ctx = group_context(label)
        val = mm_exact(ctx.rs, k)
        assert val == ctx.rs.spec.from_rational(gamma_product_exact(ctx.degrees, k))


def test_mm_exact_checks_pass_on_every_default_group():
    cfg = SuiteConfig()
    for label in DEFAULT_GROUPS:
        ctx = group_context(label)
        for check in ("mm_exact_k1", "mm_exact_k2"):
            rep = run_check(check, ctx, cfg)
            assert rep.status == "pass", (label, check, rep)


def test_gamma_product_rhs():
    a2 = group_context("A2")
    assert gamma_product_rhs(a2.degrees, 0) == 1
    assert gamma_product_rhs(a2.degrees, 1) == 12
    a1 = group_context("A1")
    v = gamma_product_rhs(a1.degrees, 0.5)
    assert abs(v - 2 / math.sqrt(math.pi)) < 1e-12


def test_mc_at_k0_is_exact(ctx_a2):
    est = mm_monte_carlo(ctx_a2.rs, 0, 100_000, seed=5, shards=8)
    assert est.mean == 1.0
    assert est.std_error == 0.0


def test_mc_determinism(ctx_b2):
    a = mm_monte_carlo(ctx_b2.rs, 0.5, 120_000, seed=9, shards=8)
    b = mm_monte_carlo(ctx_b2.rs, 0.5, 120_000, seed=9, shards=8)
    assert a == b
    c = mm_monte_carlo(ctx_b2.rs, 0.5, 120_000, seed=10, shards=8)
    assert c.mean != a.mean


def test_mc_thread_count_does_not_change_result(ctx_a2):
    a = mm_monte_carlo(ctx_a2.rs, 0.5, 150_000, seed=3, shards=8, threads=1)
    b = mm_monte_carlo(ctx_a2.rs, 0.5, 150_000, seed=3, shards=8, threads=4)
    assert a == b


def test_mc_matches_gamma_product():
    # A1 at k=1/2 -> 2/sqrt(pi); A2 at k=1/2 -> 3/sqrt(pi)
    for label, k, target in [("A1", 0.5, 2 / math.sqrt(math.pi)),
                             ("A2", 0.5, 3 / math.sqrt(math.pi))]:
        ctx = group_context(label)
        est = mm_monte_carlo(ctx.rs, k, SAMPLES, seed=42, shards=16)
        assert abs(est.mean - target) <= 4 * est.std_error


def test_mc_matches_exact_moment_at_k1(ctx_a2):
    # the statistical path against the exact pairing-recursion value F(1) = 12
    target = float(mm_exact(ctx_a2.rs, 1))
    est = mm_monte_carlo(ctx_a2.rs, 1.0, 10 ** 6, seed=77, shards=16)
    assert abs(est.mean - target) <= 4 * est.std_error


def test_mc_monotone_in_k(ctx_a2):
    e0 = mm_monte_carlo(ctx_a2.rs, 0, SAMPLES, seed=17, shards=8)
    e1 = mm_monte_carlo(ctx_a2.rs, 0.5, SAMPLES, seed=18, shards=8)
    e2 = mm_monte_carlo(ctx_a2.rs, 1.0, SAMPLES, seed=19, shards=8)
    band = 4 * math.hypot(e1.std_error, e2.std_error)
    assert e0.mean < e1.mean - 4 * e1.std_error
    assert e1.mean < e2.mean - band


def _fe_plan(ctx, k):
    return functional_equation_plan(b_poly(ctx.rs, ctx.degrees).computed(k), k)


def test_functional_equation_exact_path(ctx_a2):
    # at k = 0 both sides are exact moments:
    # b(0) F(0) = |W| prod (d_i - 1)! = 6 * 1 * 2 = 12 = F(1)
    b = b_poly(ctx_a2.rs, ctx_a2.degrees).computed
    assert b(0) * mm_exact(ctx_a2.rs, 0) == mm_exact(ctx_a2.rs, 1) == 12


def test_functional_equation_statistical(ctx_a1, ctx_b2):
    for ctx, k in [(ctx_a1, rat(1, 2)), (ctx_b2, rat(1, 4))]:
        [rep] = run_plans(ctx.rs, [_fe_plan(ctx, k)], SAMPLES, seed=6)
        assert rep.passed, rep


def test_functional_equation_a1_band(ctx_a1):
    # b(1/2) = 4 and F(3/2)/F(1/2) = 4
    b = b_poly(ctx_a1.rs, ctx_a1.degrees).computed
    assert float(b(rat(1, 2))) == 4.0
    [rep] = run_plans(ctx_a1.rs, [_fe_plan(ctx_a1, rat(1, 2))], SAMPLES,
                      seed=2)
    assert abs(rep.z_score) <= 4


def test_functional_equation_z_is_that_of_the_per_sample_difference(ctx_b2):
    # both sides come from one pass, so the band is the standard error of
    # the mean of w1 - b w0, recomputed here from the same blocks
    rs, k = ctx_b2.rs, rat(1, 4)
    bf = float(b_poly(rs, ctx_b2.degrees).computed(k))
    [rep] = run_plans(rs, [_fe_plan(ctx_b2, k)], 150_000, seed=8, shards=3)
    w0, w1 = [], []
    for shard, n in enumerate((50_000,) * 3):
        sampler = _BlockSampler([rs], 8, shard)
        for _, _, logs in sampler.blocks(n):
            w0.append(np.exp(0.5 * logs))
            w1.append(np.exp(2.5 * logs))
    w0, w1 = np.concatenate(w0), np.concatenate(w1)
    d = w1 - bf * w0
    se = d.std(ddof=1) / math.sqrt(d.size)
    assert rep.z_score == pytest.approx(d.mean() / se, rel=1e-9)
    assert rep.lhs == pytest.approx(w1.mean(), rel=1e-12)
    assert rep.rhs == pytest.approx(bf * w0.mean(), rel=1e-12)
    assert rep.lhs_se == pytest.approx(w1.std(ddof=1) / math.sqrt(d.size),
                                       rel=1e-9)


def test_gamma_cross_check_rank1(ctx_a1):
    rs = ctx_a1.rs
    u2 = MultiPoly.variable(rs, 0, 2)
    one = MultiPoly.one(rs)
    # k=0: plain Gaussian moment E[u^2] = 2, exactly the pairing value
    k0, k1 = run_plans(rs, [cross_check_plan(u2, one, 0),
                            cross_check_plan(u2, one, rat(1, 2))],
                       SAMPLES, seed=11)
    assert k0.exact_value == 2.0
    assert k0.passed
    assert k1.exact_value == 4.0   # 2(1 + 2k) at k = 1/2
    assert k1.passed


def test_gamma_cross_check_trivial_pair(ctx_a2):
    one = MultiPoly.one(ctx_a2.rs)
    [rep] = run_plans(ctx_a2.rs, [cross_check_plan(one, one, rat(1, 2))],
                      50_000, seed=13)
    assert rep.exact_value == 1.0
    assert rep.estimate == 1.0 and rep.passed


def test_log_moments(ctx_a1, ctx_a2):
    [rep] = run_plans(ctx_a1.rs, [log_moments_plan(ctx_a1.rs)], SAMPLES,
                      seed=21, shards=8)
    assert abs(rep.target - (-EULER_GAMMA)) < 1e-12
    assert rep.passed, rep
    [rep] = run_plans(ctx_a2.rs, [log_moments_plan(ctx_a2.rs, ctx_a2.degrees)],
                      SAMPLES, seed=22, shards=8)
    assert abs(rep.target - (-3 * EULER_GAMMA)) < 1e-12
    assert rep.passed, rep
    # second-moment target (pi^2/6) * sum(d_i^2 - 1) = (pi^2/6) * 11
    assert abs(rep.variance_target - (math.pi ** 2 / 6) * 11) < 1e-12


def test_estimate_records_metadata(ctx_a1):
    est = mm_monte_carlo(ctx_a1.rs, 0.25, 10_000, seed=33, shards=4)
    assert est.samples == 10_000 and est.seed == 33 and est.shards == 4
    assert est.rejected == 0


def test_predicted_relative_se(ctx_a1):
    dd = ctx_a1.degrees
    # rank 1: per-sample relative variance at k is F(2k)/F(k)^2 - 1
    f1 = gamma_product_rhs(dd, 1)
    f2 = gamma_product_rhs(dd, 2)
    expect = math.sqrt((float(f2) / float(f1) ** 2 - 1) / 10 ** 6)
    assert abs(predicted_relative_se(dd, 1.0, 10 ** 6) - expect) < 1e-9
    # the prediction tracks the realized standard error within a small factor
    est = mm_monte_carlo(ctx_a1.rs, 0.5, 200_000, seed=44, shards=8)
    pred = predicted_relative_se(dd, 0.5, 200_000)
    realized = est.std_error / est.mean
    assert 0.5 < realized / pred < 2.0
    # log-space evaluation survives ranges where the moment itself overflows
    h3 = group_context("H3").degrees
    assert math.exp(log_gamma_product(h3, 1.5)) == pytest.approx(
        float(gamma_product_rhs(h3, 1.5)))
    assert log_gamma_product(h3, 12.0) > 600   # F(12) itself overflows float64
    assert predicted_relative_se(h3, 6.0, 10 ** 7) > 1e20
    assert predicted_relative_se(h3, 1.5, 10 ** 7) > 0.02


# ---------------------------------------------------------------------------
# the one-log block kernel
# ---------------------------------------------------------------------------


def _per_root_log(column):
    return math.fsum(math.log(abs(v)) for v in column)


def test_log_abs_delta_flags_an_exact_zero_pairing():
    # one column per sample, one row per positive root
    dots = np.array([[1.5, 0.0, -2.0, 3.0],
                     [-0.5, 4.0, 0.25, 0.0],
                     [2.0, 1.0, 1.0, 7.0]])
    logs, zero = _log_abs_delta(dots)
    assert zero.tolist() == [1, 3]
    assert logs[1] == -math.inf and logs[3] == -math.inf
    for s in (0, 2):
        assert logs[s] == pytest.approx(_per_root_log(dots[:, s]), rel=1e-15)


def test_log_abs_delta_out_of_range_products_take_per_root_logs():
    dots = np.array([[1e-200, 1e200, -1e-160, 0.75],
                     [1e-200, -1e200, 1e-160, -2.0]])
    logs, zero = _log_abs_delta(dots)
    assert zero.size == 0
    # underflow to 0, overflow to inf and a subnormal product
    for s in range(3):
        assert logs[s] == _per_root_log(dots[:, s])
    assert logs[3] == math.log(1.5)


def test_log_abs_delta_matches_per_root_sum_on_default_groups():
    # every default group, through the shared pass of its rank
    by_rank = {}
    for label in DEFAULT_GROUPS:
        rs = group_context(label).rs
        by_rank.setdefault(rs.rank, []).append(rs)
    for systems in by_rank.values():
        sampler = _BlockSampler(systems, 7, 0)
        seen = []
        for i, u, logs in sampler.blocks(20_000):
            rs = systems[i]
            ref = np.log(np.abs(rs.float_data()[1] @ u)).sum(axis=0)
            assert np.all(np.abs(logs - ref)
                          <= 1e-13 * np.maximum(1.0, np.abs(ref))), rs.label
            seen.append(i)
        assert seen == list(range(len(systems)))


class _MirrorFirstRng:
    """Fills its first draw with `first` (0.0 by default: with every axis
    at zero, every sample lies on every mirror), then defers to a real
    generator."""

    def __init__(self, first=0.0):
        self.first = first
        self.fresh = True
        self.rng = np.random.default_rng(3)

    def standard_normal(self, size=None, out=None):
        if self.fresh:
            self.fresh = False
            out[...] = self.first
            return out
        return self.rng.standard_normal(size, out=out)


def _shared_draw_is(monkeypatch, make_rng):
    """Serve a fresh make_rng(j) as every pass's shared draw of axis j; the
    groups' own redraw streams stay real."""
    real = coxdunkl.mmintegral._substream
    monkeypatch.setattr(
        coxdunkl.mmintegral, "_substream",
        lambda seed, label, shard: (make_rng(int(label[4:]))
                                    if label.startswith("axis")
                                    else real(seed, label, shard)))


def test_substream_is_one_stream_per_seed_label_and_shard(monkeypatch):
    def first_block(seed, label, shard):
        rng = _substream(seed, label, shard)
        assert isinstance(rng.bit_generator, np.random.SFC64)
        return rng.standard_normal(_MC_BLOCK)

    block = first_block(7, "axis0", 2)
    assert np.array_equal(block, first_block(7, "axis0", 2))
    for other in ((8, "axis0", 2), (7, "axis1", 2), (7, "axis0", 3),
                  (7, "A3", 2)):
        assert not np.array_equal(block, first_block(*other)), other
    # a pass over groups of ranks 3, 2 and 1 opens one stream per axis of
    # the highest rank and per shard: no group's label enters while no
    # sample hits a mirror
    systems = [group_context(g).rs for g in ("A3", "B2", "A1", "H3")]
    opened = []
    real = coxdunkl.mmintegral._substream

    def counting(seed, label, shard):
        opened.append((seed, label, shard))
        return real(seed, label, shard)

    monkeypatch.setattr(coxdunkl.mmintegral, "_substream", counting)
    stat = lambda u, logs, out: (logs,)
    results = mc_pass([(rs, [stat]) for rs in systems], 3000, 7, 3)
    assert sorted(opened) == [(7, f"axis{j}", i) for j in range(3)
                              for i in range(3)]
    assert [rejected for _, rejected in results] == [0, 0, 0, 0]
    # each group maps the leading rows of the same draw z through its own
    # Cholesky factor
    zs = [np.linalg.solve(systems[i].float_data()[0], u)
          for i, u, _ in _BlockSampler(systems, 7, 0).blocks(1000)]
    for z in zs[1:]:
        assert np.allclose(z, zs[0][:len(z)], rtol=0, atol=1e-12)
    assert [len(z) for z in zs] == [3, 2, 1, 3]


def test_block_sampler_redraws_samples_on_a_mirror(ctx_a2, monkeypatch):
    _shared_draw_is(monkeypatch, lambda j: _MirrorFirstRng())
    sampler = _BlockSampler([ctx_a2.rs], 1, 0)
    (_, u, logs), = sampler.blocks(1000)
    assert sampler.rejected == [1000]
    assert u.shape == (2, 1000)
    assert np.isfinite(logs).all()


def test_a_redraw_leaves_a_same_rank_partner_unchanged(monkeypatch):
    # z = (1, 0) pairs to zero with the second simple root of I2(2) =
    # A1 x A1, which is orthogonal to the first, but with no root of A2, and
    # z = (1, 0, 0.3) with no root of B3
    _shared_draw_is(monkeypatch,
                    lambda j: _MirrorFirstRng((1.0, 0.0, 0.3)[j]))
    i22, a2, b3 = (group_context(g).rs for g in ("I2(2)", "A2", "B3"))
    stats = [lambda u, logs, out: (logs,),
             lambda u, logs, out: (u[0], u[1])]
    alone = [mc_pass([(rs, stats)], 1000, 5, 1)[0] for rs in (a2, b3)]
    (redrawn, rejected), *partners = mc_pass(
        [(i22, stats), (a2, stats), (b3, stats)], 1000, 5, 1)
    assert rejected == 1000
    for (got, got_rejected), (want, want_rejected) in zip(partners, alone):
        assert got_rejected == want_rejected == 0
        assert [(s.n, s.mean, s.cm, s.m3, s.m4, s.top) for s in got] == [
            (s.n, s.mean, s.cm, s.m3, s.m4, s.top) for s in want]
    # A2's and B3's whole block is the one axis sample; I2(2) drew its own
    assert alone[0][0][0].cm[0][0] < 1e-20 < redrawn[0].cm[0][0]
    assert alone[1][0][0].cm[0][0] < 1e-20


def test_a_pass_maps_its_blocks_into_one_workspace_per_worker(monkeypatch):
    # the reused arrays give the bits of fresh ones, at every thread count
    systems = [group_context(g).rs for g in ("A1", "B3", "I2(7)", "D4")]
    stat = lambda u, logs, out: (np.exp(logs, out=out[0]),
                                 np.multiply(u[0], u[-1], out=out[1]))

    def states(threads):
        return [([(s.n, s.mean, s.cm, s.top) for s in sts], rejected)
                for sts, rejected in mc_pass([(rs, [stat]) for rs in systems],
                                             150_001, 4, 5, threads)]

    made = []
    workspace = coxdunkl.mmintegral._Workspace

    def counting(*args):
        made.append(args)
        return workspace(*args)

    monkeypatch.setattr(coxdunkl.mmintegral, "_Workspace", counting)
    reused = {threads: states(threads) for threads in (1, 2, 3)}
    assert len(made) == 1 + 2 + 3
    assert reused[1] == reused[2] == reused[3]
    monkeypatch.setattr(coxdunkl.mmintegral, "_rows",
                        lambda buf, rows, b: np.empty((rows, b)))
    assert states(1) == reused[1]


@pytest.mark.parametrize("shards, threads", [(4, 0), (4, -1), (0, 1)])
def test_a_pass_needs_a_thread_and_a_shard(shards, threads):
    # no thread would leave the pass no workspace, and its first shard
    # would wait for one forever; no shard has no samples to share out
    rs = group_context("A1").rs
    with pytest.raises(ValueError, match="shards and threads must be >= 1"):
        mc_pass([(rs, [lambda u, logs, out: (logs,)])], 1000, 1, shards,
                threads)
    with pytest.raises(ValueError, match="shards and threads must be >= 1"):
        mm_monte_carlo(rs, 0.5, 1000, 1, shards, threads=threads)


def test_a_pass_builds_the_float_data_before_its_threads(monkeypatch):
    # a fresh root system: its shard threads must not race to build (A, C)
    import threading
    rs = build_root_system(standard_diagram("A2"))
    calls = []
    cholesky = np.linalg.cholesky

    def counting(g):
        calls.append(threading.current_thread() is threading.main_thread())
        return cholesky(g)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    mc_pass([(rs, [lambda u, logs, out: (logs,)])], 16_000, 3, 8, threads=2)
    assert calls == [True]


class _OddColumnsRng:
    """A real generator whose first draw puts some samples far out, some
    near the origin, and, on axis 1, some on the coordinate hyperplane
    z_1 = 0: on H3 the products of the first overflow and those of the
    second underflow, and the third lie on a mirror of I2(2) = A1 x A1."""

    def __init__(self, axis):
        self.axis = axis
        self.fresh = True
        self.rng = np.random.default_rng(10 + axis)

    def standard_normal(self, size=None, out=None):
        self.rng.standard_normal(size, out=out)
        if self.fresh:
            self.fresh = False
            out[::97] *= 1e25
            out[3::89] *= 1e-25
            if self.axis == 1:
                out[5::101] = 0.0
        return out


def test_the_tile_width_does_not_change_the_bits(monkeypatch):
    # a one-column rest joins the tile before it: BLAS would take it by
    # gemv, whose rounding at rank 3 and up is not gemm's
    monkeypatch.setattr(coxdunkl.mmintegral, "_TILE", 3)
    tiles = coxdunkl.mmintegral._tiles
    assert list(tiles(7)) == [(0, 3), (3, 7)]
    assert list(tiles(8)) == [(0, 3), (3, 6), (6, 8)]
    assert list(tiles(1)) == [(0, 1)]
    systems = [group_context(g).rs for g in ("I2(2)", "A2", "B3", "H3", "D4")]
    parts = [(rs, [cross_check_plan(MultiPoly.variable(rs, 0, 2),
                                    MultiPoly.one(rs), rat(1, 8))[0],
                   log_moments_plan(rs)[0],
                   lambda u, logs, out: (u[0], u[-1])]) for rs in systems]

    def each_width():
        seen, drawn = {}, {}
        for width in (2, 3, 1000, _MC_BLOCK):
            monkeypatch.setattr(coxdunkl.mmintegral, "_TILE", width)
            # shards of 1501 and 1500 samples: a one-column rest at widths
            # 2 and 3
            seen[width] = [([(s.n, s.mean, s.cm, s.m3, s.m4, s.top)
                             for s in sts], rejected)
                           for sts, rejected in mc_pass(parts, 3001, 9, 2)]
            drawn[width] = np.concatenate([
                logs.copy() for _, _, logs in
                _BlockSampler(systems, 9, 0).blocks(1501)])
        assert all(repr(v) == repr(seen[2]) for v in seen.values())
        assert all(np.array_equal(v, drawn[2]) for v in drawn.values())
        return seen[2]

    plain = each_width()
    assert [rejected for _, rejected in plain] == [0] * 5
    _shared_draw_is(monkeypatch, _OddColumnsRng)
    real = coxdunkl.mmintegral._log_abs
    products = np.zeros(2, int)   # overflowed, under the normal range

    def recording(p, pairings):
        products[:] += (np.isinf(p).sum(), (np.abs(p) < 1e-308).sum())
        return real(p, pairings)

    monkeypatch.setattr(coxdunkl.mmintegral, "_log_abs", recording)
    skewed = each_width()
    # I2(2)'s mirror samples are redrawn; more products underflow than that
    assert 0 < skewed[0][1] < products[1] and products[0] > 0
    assert [rejected for _, rejected in skewed[1:]] == [0] * 4
    for (got, _), (want, _) in zip(skewed, plain):
        assert got != want


class _OneFarRng:
    """A real generator whose first draw puts the one sample `col` far out:
    on H3 and D4 its product of root pairings overflows."""

    def __init__(self, axis, col):
        self.col, self.fresh = col, True
        self.rng = np.random.default_rng(20 + axis)

    def standard_normal(self, size=None, out=None):
        self.rng.standard_normal(size, out=out)
        if self.fresh:
            self.fresh = False
            out[self.col] *= 1e30
        return out


def test_a_lone_out_of_range_column_keeps_the_bits_of_the_whole_block(
        monkeypatch):
    # its pairings are formed again by gemm, not by gemv, whose rounding
    # differs: the logs are those of the whole block's pairings c @ u
    systems = [group_context(g).rs for g in ("H3", "D4")]
    for col in (0, 1234, 4999):
        _shared_draw_is(monkeypatch, lambda j: _OneFarRng(j, col))
        for i, u, logs in _BlockSampler(systems, 1, 0).blocks(5000):
            want, zero = _log_abs_delta(systems[i].float_data()[1] @ u)
            assert not zero.size and logs[col] > 700.0
            assert np.array_equal(logs, want)


def test_a_pass_allocates_no_block_arrays(monkeypatch):
    # beyond its workspaces, a pass of cross and log stats holds less than
    # one block of floats at any time
    import tracemalloc
    systems = [group_context(g).rs for g in ("A3", "H3")]
    parts = [(rs, [cross_check_plan(MultiPoly.variable(rs, 0, 2),
                                    MultiPoly.one(rs), rat(1, 2))[0],
                   log_moments_plan(rs)[0]]) for rs in systems]
    mc_pass(parts, 1000, 1, 1)   # float data and numpy's first calls
    made = []
    workspace = coxdunkl.mmintegral._Workspace

    def recording(*args):
        made.append(workspace(*args))
        return made[-1]

    monkeypatch.setattr(coxdunkl.mmintegral, "_Workspace", recording)
    tracemalloc.start()
    try:
        mc_pass(parts, 3 * _MC_BLOCK, 1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for w in made for a in vars(w).values())
    assert len(made) == 1
    assert peak - held < 8 * _MC_BLOCK


def test_poly_float_evaluator_matches_per_term_reference():
    rng = random.Random(55)
    nrng = np.random.default_rng(56)
    for label in ("A2", "B2", "I2(5)"):
        rs = group_context(label).rs
        polys = [MultiPoly.zero(rs), MultiPoly.one(rs),
                 MultiPoly.constant(rs, rat(-7, 3))]
        polys += [random_multipoly(rs, rng, max_degree=6, terms=5, k_degree=2)
                  for _ in range(6)]
        u = nrng.standard_normal((rs.rank, 50))
        for poly in polys:
            for k in (rat(0), rat(1, 2), rat(3, 4)):
                terms = poly.float_terms(k)
                # whatever the rows held before, the value goes to `out`,
                # with the bits of fresh arrays and u_j ** e_j powers
                out, scratch = np.full(50, np.nan), np.full((2, 50), 9.0)
                got = _poly_float_evaluator(poly, k)(u, out, scratch)
                assert got is out
                fresh = np.zeros(50)
                for exps, c in terms:
                    t = np.full(50, c)
                    for j, e in enumerate(exps):
                        if e:
                            t *= u[j] ** e
                    fresh += t
                assert np.array_equal(got, fresh)
                for s in range(u.shape[1]):
                    parts = [c * math.prod(u[j, s] ** e
                                           for j, e in enumerate(exps))
                             for exps, c in terms]
                    scale = math.fsum(abs(p) for p in parts)
                    assert abs(got[s] - math.fsum(parts)) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# stable moment merges and the weight diagnostics
# ---------------------------------------------------------------------------


def test_moment_merges_survive_a_large_offset():
    rng = np.random.default_rng(8)
    sizes = (1, 2, 17, 1000, 4096, 333)
    blocks = [1e6 + rng.standard_normal(n) for n in sizes]
    other = [2.0 * b - 5e5 + rng.standard_normal(b.size) for b in blocks]
    x = [float(v) for b in blocks for v in b]
    y = [float(v) for b in other for v in b]
    n = len(x)
    mx, my = math.fsum(x) / n, math.fsum(y) / n
    dx = [v - mx for v in x]
    dy = [v - my for v in y]
    ref = {p: math.fsum(d ** p for d in dx) for p in (2, 3, 4)}
    ref_xy = math.fsum(a * b for a, b in zip(dx, dy))

    one = _merged(_Moments.of(b) for b in blocks)
    assert one.n == n
    assert one.mean[0] == pytest.approx(mx, rel=1e-15)
    assert one.cm[0][0] == pytest.approx(ref[2], rel=1e-9)
    assert one.m4 == pytest.approx(ref[4], rel=1e-9)
    assert abs(one.m3 - ref[3]) <= 1e-9 * ref[4]
    two = _merged(_Moments.of(a, b) for a, b in zip(blocks, other))
    assert two.mean[1] == pytest.approx(my, rel=1e-15)
    assert two.cm[0][1] == two.cm[1][0] == pytest.approx(ref_xy, rel=1e-9)
    assert two.cm[0][0] == pytest.approx(ref[2], rel=1e-9)
    # the raw power sums these merges replace lose about five digits here
    s1, s2 = math.fsum(x), sum(v * v for v in x)
    assert abs((s2 - s1 * s1 / n) - ref[2]) > 1e-5 * ref[2]


def test_block_moments_match_fsum_at_the_block_size():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(_MC_BLOCK)
    xs = (x, 0.5 * x + rng.standard_normal(_MC_BLOCK), np.exp(2.0 * x))
    cols = [a.tolist() for a in xs]
    means = [math.fsum(c) / len(c) for c in cols]
    ds = [[v - m for v in c] for c, m in zip(cols, means)]
    st = _Moments.of(*xs)
    for i in range(3):
        for j in range(3):
            assert st.cm[i][j] == st.cm[j][i]
            ref = math.fsum(a * b for a, b in zip(ds[i], ds[j]))
            assert abs(st.cm[i][j] - ref) <= 1e-12 * abs(ref), (i, j)
    # the heavy-tailed column alone, for M3 and M4
    one = _Moments.of(xs[2])
    for got, p in ((one.cm[0][0], 2), (one.m3, 3), (one.m4, 4)):
        ref = math.fsum(d ** p for d in ds[2])
        assert abs(got - ref) <= 1e-12 * abs(ref), p


def test_moment_merges_past_the_float_range_keep_mean_and_variance():
    # the fourth power of the mean difference overflows, its square and cube
    # do not: M4 goes to inf, the mean and standard error stay finite
    lo, hi = _Moments.of(np.array([1e100, 2e100])), _Moments.of(
        np.array([4e100, 5e100]))
    st = lo.merge(hi)
    assert st.m4 == math.inf and math.isfinite(st.m3)
    mean, se = st.mean_se()
    assert mean == pytest.approx(3e100, rel=1e-15)
    assert se == pytest.approx(math.sqrt(10e200 / 3 / 4), rel=1e-12)


def test_empty_shards_merge_to_the_others(ctx_a2):
    est = mm_monte_carlo(ctx_a2.rs, 0.5, 5, seed=4, shards=8)
    assert est.samples == 5 and math.isfinite(est.mean) and est.mean > 0


def test_plan_reports_do_not_depend_on_their_companions(ctx_b2):
    # a plan's report is the same to the bit alone and beside other plans
    # in one `run_plans` pass, in any order: batching a group's plans into
    # one pass changes no estimate and no z-score
    rs, k = ctx_b2.rs, rat(1, 4)
    u2, one = MultiPoly.variable(rs, 0, 2), MultiPoly.one(rs)
    plans = [_fe_plan(ctx_b2, k), cross_check_plan(u2, one, k),
             log_moments_plan(rs, ctx_b2.degrees)]
    together = run_plans(rs, plans, 60_000, seed=9, shards=4)
    alone = [run_plans(rs, [plan], 60_000, seed=9, shards=4)[0]
             for plan in plans]
    assert together == alone
    assert list(map(repr, together)) == list(map(repr, alone))
    assert run_plans(rs, plans[::-1], 60_000, seed=9,
                     shards=4) == together[::-1]


def test_estimates_do_not_depend_on_the_thread_count(ctx_b2):
    rs = ctx_b2.rs
    f = MultiPoly.variable(rs, 0, 2)
    one = MultiPoly.one(rs)
    plans = [log_moments_plan(rs, ctx_b2.degrees),
             cross_check_plan(f, one, rat(1, 2))]
    for threads in (2, 3):
        assert (run_plans(rs, plans, 150_000, 6, 8, threads=threads)
                == run_plans(rs, plans, 150_000, 6, 8))
        assert (mm_monte_carlo(rs, 0.75, 150_000, 6, 8, threads=threads)
                == mm_monte_carlo(rs, 0.75, 150_000, 6, 8))


def test_weight_diagnostics(ctx_a2):
    est = mm_monte_carlo(ctx_a2.rs, 0, 100_000, seed=5, shards=8)
    assert est.ess == 100_000
    assert est.max_weight_share == 1 / 100_000
    # heavier tails as k grows: fewer effective samples, a larger top weight
    e1 = mm_monte_carlo(ctx_a2.rs, 0.5, 100_000, seed=5, shards=8)
    e2 = mm_monte_carlo(ctx_a2.rs, 1.5, 100_000, seed=5, shards=8)
    assert 100_000 > e1.ess > e2.ess > 0
    assert 1 / 100_000 < e1.max_weight_share < e2.max_weight_share < 1
