"""The Macdonald-Mehta integral: exact Gaussian moments for integer k,
seeded Monte Carlo for real k, and the statistical identity checks.

The integral is F(k) = (2pi)^(-r/2) * int exp(-(x,x)/2) |Delta(x)|^(2k) dx
over the reflection representation.  For nonnegative integer k the integrand
is the polynomial Delta^(2k), so F(k) is an exact Gaussian moment, taken by
Stein's recursion on its monomials; for real k it is estimated by seeded
Monte Carlo.  The Gaussian draw depends on the rank alone, so one pass serves
every group of one rank: each block is drawn once from the SFC64 stream of
(seed, rank, shard) and mapped into each group's own root coordinates, and a
sample that lands on a mirror of one group is redrawn for that group alone,
from the stream of (seed, group, shard).  A group's estimates are therefore
the same whichever partners share its pass, and bit-reproducible per (seed,
shards) for a fixed numpy, BLAS and CPU; the estimates of groups of one rank
come from common draws, so their errors are correlated.
numpy is imported by the Monte Carlo functions when they first run, so the
exact side never loads it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import BudgetError
from .polynomials import (EXP_BITS, EXP_MASK, MultiPoly, _flat, _fold, _kpoly,
                          _mul_into, build_discriminant)
from .scalars import FieldElement, KPoly, as_rational, qdiv

#: Euler's constant, accurate to well below 1e-15
EULER_GAMMA = 0.5772156649015328606065120900824

_MC_BLOCK = 1 << 16

# Stirling series coefficients B_{2n} / (2n (2n-1)) for n = 1..8
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

_LOG_TWO_PI = 1.8378770664093454835606594728112


def log_gamma(x: float) -> float:
    """log Gamma on (0, inf) via the Stirling series with argument shift."""
    if x <= 0.0:
        raise ValueError("log_gamma needs a positive argument")
    shift = 0.0
    while x < 12.0:
        shift += math.log(x)
        x += 1.0
    acc = (x - 0.5) * math.log(x) - x + 0.5 * _LOG_TWO_PI
    xs = 1.0 / x
    x2 = xs * xs
    for c in _STIRLING:
        acc += c * xs
        xs *= x2
    return acc - shift


# ---------------------------------------------------------------------------
# exact moments by Stein's recursion
# ---------------------------------------------------------------------------

#: the largest degree 2k|S| of Delta^(2k) that `mm_exact` takes on (2 cores:
#: H3 at k = 2, degree 60, about 0.5 s; B4 at k = 2, degree 64, 10-15 s)
MOMENT_DEGREE_LIMIT = 60


def mm_exact_is_heavy(rs, k) -> bool:
    """Whether F(k) is past the exact-moment bound, so `mm_exact` refuses it."""
    return 2 * k * rs.num_positive > MOMENT_DEGREE_LIMIT


def gaussian_moment(p) -> KPoly:
    """E[p] for a MultiPoly p, where u ~ N(0, G) with G = `rs.gram_raw()`.

    Stein's identity E[u_i f] = sum_j G_ij E[d_j f] peels the lowest variable
    u_i of each monomial: E[u_i u^F] = sum_j G_ij F_j E[u^(F - e_j)].  Each
    moment is a flat {c^e: coordinate} dict, worked by the polynomial kernel."""
    rs = p.ring
    umask = (1 << (EXP_BITS * rs.rank)) - 1
    rows = [[(j, _flat(rs, (g,)).items()) for j, g in enumerate(row) if any(g)]
            for row in rs.gram_raw()]
    memo = {0: {0: 1}}   # packed key -> moment, for this call only

    def moment(key):
        if key not in memo:
            i = ((key & -key).bit_length() - 1) // EXP_BITS
            rest = key - (1 << (EXP_BITS * i))
            acc = {}   # empty at degree 1, so at every odd degree
            for j, g in rows[i]:
                f = (rest >> (EXP_BITS * j)) & EXP_MASK
                if f:
                    _mul_into(acc, [(k, x * f) for k, x in g],
                              moment(rest - (1 << (EXP_BITS * j))).items())
            memo[key] = _fold(rs, acc)
        return memo[key]

    out = {}
    for key, x in p.terms.items():
        u = key & umask
        _mul_into(out, ((key - u, x),), moment(u).items())
    return _kpoly(rs, _fold(rs, out).items())


def mm_exact(rs, k: int) -> FieldElement:
    """F(k) for a nonnegative integer k: the moment of Delta^(2k)."""
    if k < 0 or k != int(k):
        raise ValueError("exact evaluation needs a nonnegative integer k")
    k = int(k)
    if mm_exact_is_heavy(rs, k):
        raise BudgetError(f"k={k} on {rs.label} needs a moment of degree "
                          f"{2 * k * rs.num_positive} > {MOMENT_DEGREE_LIMIT}")
    p = MultiPoly.one(rs)
    for _ in range(2 * k):
        p = p * build_discriminant(rs)
    return gaussian_moment(p).coeff(0)


def wick_moment_bruteforce(rs, factors) -> FieldElement:
    """Independent oracle: sum over all perfect pairings (no memoization)."""
    sp = rs.spec
    gram = rs.root_gram()

    def rec(items):
        if not items:
            return sp.raw_one()
        first = items[0]
        acc = sp.raw_zero()   # zero for one item left, so for odd counts
        for j in range(1, len(items)):
            sub = rec(items[1:j] + items[j + 1:])
            acc = sp.raw_add(acc, sp.raw_mul(gram[first][items[j]], sub))
        return acc

    return FieldElement(sp, rec(list(factors)))


def gamma_product_exact(dd, k: int):
    """prod Gamma(1 + k d_i) / Gamma(1 + k)^r as an exact rational."""
    num = 1
    for d in dd.degrees:
        num *= math.factorial(k * d)
    return qdiv(num, math.factorial(k) ** len(dd.degrees))


def log_gamma_product(dd, k: float) -> float:
    """log of the degree-product value, safe far beyond float overflow."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return sum(log_gamma(1.0 + k * d) - log_gamma(1.0 + k) for d in dd.degrees)


def predicted_relative_se(dd, k: float, samples: int) -> float:
    """Predicted relative standard error of the |Delta|^(2k) moment estimator.

    The second moment of the integrand is the value at 2k, so the per-sample
    relative variance is F(2k)/F(k)^2 - 1, known in closed form.  Large values
    mean the 4-sigma band is not trustworthy at desk-scale sample counts."""
    log_ratio = log_gamma_product(dd, 2.0 * k) - 2.0 * log_gamma_product(dd, k)
    if log_ratio > 700.0:
        return math.inf
    return math.sqrt(max(math.expm1(log_ratio), 0.0) / samples)


def gamma_product_rhs(dd, k):
    """The degree-product side of the integral identity.

    Exact rational for integer k, 64-bit float otherwise."""
    kq = as_rational(k) if not isinstance(k, float) else None
    if kq is not None and kq.denominator == 1 and kq >= 0:
        return gamma_product_exact(dd, int(kq))
    return math.exp(log_gamma_product(dd, float(k)))


# ---------------------------------------------------------------------------
# Monte Carlo machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    samples: int
    seed: int
    shards: int
    rejected: int = 0
    #: effective sample size (sum w)^2 / sum w^2, weights w = |Delta|^(2k)
    ess: float = math.nan
    #: the largest single weight as a share of sum w
    max_weight_share: float = math.nan


def _substream(seed, label, shard):
    """Deterministic substream: the first 128 bits of
    SHA-256(seed|label|shard) seed an SFC64 generator.  Reproducible for a
    fixed numpy."""
    import hashlib

    import numpy as np
    digest = hashlib.sha256(f"{seed}|{label}|{shard}".encode()).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.SFC64(key))


def _shard_sizes(samples, shards):
    base, extra = divmod(samples, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


_TINY = sys.float_info.min
_HUGE = sys.float_info.max


def _log_abs_delta(dots):
    """L = log|prod_i dots[i, s]| for each sample s, from one product and
    one log.

    `dots` holds the pairings (alpha, x) as (|S|, samples), so the product
    runs along contiguous rows.  Returns (L, zero), where `zero` indexes the
    samples with an exact zero pairing (their L is -inf).  A sample whose
    product leaves the normal float range (an underflow to a subnormal or to
    0, an overflow to inf) takes the per-root sum of log|.| instead."""
    import numpy as np
    with np.errstate(over="ignore", divide="ignore"):
        p = np.abs(dots.prod(axis=0))
        out = np.log(p)
        odd = np.flatnonzero((p < _TINY) | (p > _HUGE))
        if not odd.size:
            return out, odd
        sub = np.abs(dots[:, odd])
        out[odd] = np.log(sub).sum(axis=0)
    return out, odd[(sub == 0.0).any(axis=0)]


class _BlockSampler:
    """Yields (i, U, L) for each block of Gaussian samples and each root
    system i of `systems`, which share one rank, in turn.

    A block is drawn once, from the substream (seed, "rank<r>", shard), and
    mapped to each system's root coordinates: U is (rank, samples), with row
    j holding the simple-root pairings u_j = (alpha_j, x), and L is
    log|Delta(x)|, the log of the product of (alpha, x) over the positive
    roots.  Samples that hit one system's mirror exactly in float arithmetic
    are redrawn for that system alone, from its own substream (seed, label,
    shard), and counted in its `rejected`; the shared draw stays aligned for
    the others."""

    def __init__(self, systems, seed, shard):
        self.systems = systems
        self.rank = systems[0].rank
        if any(rs.rank != self.rank for rs in systems):
            raise ValueError("a shared pass needs root systems of one rank")
        self.seed, self.shard = seed, shard
        self.rng = _substream(seed, f"rank{self.rank}", shard)
        self.rejected = [0] * len(systems)
        self._own = [None] * len(systems)   # redraw streams, opened on need

    def blocks(self, n):
        remaining = n
        while remaining > 0:
            b = min(_MC_BLOCK, remaining)
            z = self.rng.standard_normal((b, self.rank)).T
            for i, rs in enumerate(self.systems):
                # one system's block is alive at a time, next to the draw
                yield (i, *self._mapped(i, rs, z))
            remaining -= b

    def _mapped(self, i, rs, z):
        a, c = rs.float_data()
        u = a @ z
        logs, bad = _log_abs_delta(c @ u)
        while bad.size:
            self.rejected[i] += bad.size
            if self._own[i] is None:
                self._own[i] = _substream(self.seed, rs.label, self.shard)
            z2 = self._own[i].standard_normal((bad.size, self.rank))
            u[:, bad] = a @ z2.T
            logs[bad], again = _log_abs_delta(c @ u[:, bad])
            bad = bad[again]
        return u, logs


class _Moments:
    """Count, means and central moment sums of a stream of float samples.

    For the variables x_i it keeps n, the means, the co-moments
    C_ij = sum (x_i - mean_i)(x_j - mean_j) and the largest x_0; for a single
    variable it also keeps M3 and M4, the sums of the third and fourth
    central powers.  A block's products are summed by numpy's own einsum
    loops (not BLAS, whose summation order follows its thread count), once
    per unordered pair of variables, and states are merged by the pairwise
    updates of Chan, Golub and LeVeque (1979) and Pebay (SAND2008-6212), so
    no raw power sum is formed and a large common offset costs no digits."""

    __slots__ = ("n", "mean", "cm", "m3", "m4", "top")

    def __init__(self, n=0, mean=(), cm=(), m3=0.0, m4=0.0, top=-math.inf):
        self.n, self.mean, self.cm = n, mean, cm
        self.m3, self.m4, self.top = m3, m4, top

    @classmethod
    def of(cls, *xs):
        """The state of one block of samples of each variable."""
        from numpy import einsum
        mean = tuple(float(x.mean()) for x in xs)
        ds = [x - m for x, m in zip(xs, mean)]
        top = float(xs[0].max())
        if len(ds) > 1:
            cm = [[0.0] * len(ds) for _ in ds]
            for i, a in enumerate(ds):
                for j in range(i, len(ds)):
                    cm[i][j] = cm[j][i] = float(einsum("i,i", a, ds[j]))
            return cls(xs[0].size, mean, tuple(map(tuple, cm)), top=top)
        d = ds[0]
        d2 = d * d
        return cls(d.size, mean, ((float(d2.sum()),),),
                   float(einsum("i,i", d2, d)), float(einsum("i,i", d2, d2)),
                   top)

    def merge(self, other):
        if not other.n:
            return self
        if not self.n:
            return other
        na, nb = self.n, other.n
        n = na + nb
        delta = [mb - ma for ma, mb in zip(self.mean, other.mean)]
        mean = tuple(ma + d * nb / n for ma, d in zip(self.mean, delta))
        f = na * nb / n
        cm = tuple(tuple(ca + cb + f * di * dj
                         for ca, cb, dj in zip(ra, rb, delta))
                   for ra, rb, di in zip(self.cm, other.cm, delta))
        top = max(self.top, other.top)
        if len(delta) > 1:
            return _Moments(n, mean, cm, top=top)
        d = delta[0]
        a2, b2 = self.cm[0][0], other.cm[0][0]
        m3 = (self.m3 + other.m3 + d ** 3 * f * (na - nb) / n
              + 3.0 * d * (na * b2 - nb * a2) / n)
        m4 = (self.m4 + other.m4
              + d ** 4 * f * (na * na - na * nb + nb * nb) / (n * n)
              + 6.0 * d * d * (na * na * b2 + nb * nb * a2) / (n * n)
              + 4.0 * d * (na * other.m3 - nb * self.m3) / n)
        return _Moments(n, mean, cm, m3, m4, top)

    def mean_se(self, coef=(1.0,)):
        """The mean of sum_i coef[i] x_i and its standard error (sample
        variance, n - 1), from the means and the co-moments."""
        n = self.n
        mean = sum(c * m for c, m in zip(coef, self.mean))
        var = sum(a * b * cij for a, row in zip(coef, self.cm)
                  for b, cij in zip(coef, row))
        var = var / (n - 1) if n > 1 else 0.0
        return mean, math.sqrt(max(var, 0.0) / n)


def _merged(states):
    """Merge moment states in order: blocks within a shard, then shards."""
    acc = _Moments()
    for st in states:
        acc = acc.merge(st)
    return acc


def mc_pass(parts, samples, seed, shards, threads=1):
    """One seeded pass serving every stat of every group in `parts`, a list
    of (rs, stats) whose root systems share one rank.  Shard i draws each
    block once for all of them (see `_BlockSampler`), and a stat maps a
    group's block (u, L) to the arrays whose `_Moments` it keeps.  Returns,
    per part, one merged state per stat (blocks, then shards, in order) and
    the part's redrawn count; neither depends on the other parts."""
    if samples < 1:
        raise ValueError("samples must be >= 1")

    def shard(i, n):
        sampler = _BlockSampler([rs for rs, _ in parts], seed, i)
        states = [[_Moments() for _ in stats] for _, stats in parts]
        for j, u, logs in sampler.blocks(n):
            states[j] = [st.merge(_Moments.of(*stat(u, logs)))
                         for st, stat in zip(states[j], parts[j][1])]
        return states, sampler.rejected

    sizes = _shard_sizes(samples, shards)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(shard, range(shards), sizes))
    else:
        results = list(map(shard, range(shards), sizes))
    states, rejected = zip(*results)
    return [([_merged(col) for col in zip(*cols)], sum(counts))
            for cols, counts in zip(zip(*states), zip(*rejected))]


def _one_pass(rs, stat, samples, seed, shards, threads):
    """One stat of one group over a pass: its merged state and redrawn
    count."""
    [((st,), rejected)] = mc_pass([(rs, [stat])], samples, seed, shards,
                                  threads)
    return st, rejected


def mm_monte_carlo(rs, k, samples, seed, shards=16,
                   threads=1) -> McEstimate:
    """Estimate F(k) for real k >= 0 by averaging |Delta|^(2k) over standard
    Gaussian samples.  Identical (seed, samples, shards, type, k) give a
    bit-identical estimate."""
    import numpy as np
    kf = float(k)
    if kf < 0:
        raise ValueError("k must be >= 0")
    weights = lambda u, logs: (np.exp((2.0 * kf) * logs),)
    st, rejected = _one_pass(rs, weights, samples, seed, shards, threads)
    mean, se = st.mean_se()
    # sum w = n mean and sum w^2 = M2 + n mean^2, read from the merged state
    sum_w = samples * mean
    ess = samples / (1.0 + st.cm[0][0] / (sum_w * mean)) if mean else 0.0
    share = st.top / sum_w if mean else math.nan
    return McEstimate(mean, se, samples, seed, shards, rejected, ess, share)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionalEquationReport:
    k: object
    lhs: float              # F(k+1) estimate (or exact value)
    rhs: float              # b(k) * F(k)
    b_at_k: float
    z_score: float
    passed: bool
    exact: bool
    lhs_se: float = 0.0
    rhs_se: float = 0.0


def functional_equation_plan(b_at_k, k):
    """(stat, finish) of F(k+1) = b(k) F(k) at a real k: both sides from the
    same samples, with the 4-sigma band of the per-sample difference
    |Delta|^(2k+2) - b(k) |Delta|^(2k), read from the co-moments."""
    import numpy as np
    kf, bf = float(k), float(b_at_k)

    def stat(u, logs):
        return np.exp((2.0 * kf + 2.0) * logs), np.exp((2.0 * kf) * logs)

    def finish(st):
        diff, sigma = st.mean_se((1.0, -bf))
        lhs, lhs_se = st.mean_se((1.0, 0.0))
        rhs, rhs_se = st.mean_se((0.0, bf))
        z = diff / sigma if sigma > 0 else (0.0 if diff == 0 else math.inf)
        return FunctionalEquationReport(k, lhs, rhs, bf, z, abs(z) <= 4.0,
                                        False, lhs_se, rhs_se)

    return stat, finish


def check_functional_equation(rs, b_computed: KPoly, k, samples, seed,
                              shards=16, threads=1) -> FunctionalEquationReport:
    """F(k+1) = b(k) F(k): exact when both sides are exact moments within
    bound, otherwise both sides from one pass with a 4-sigma band."""
    kq = as_rational(k)
    if kq < 0:
        raise ValueError("k must be >= 0")
    b_at_k = b_computed(kq)
    if kq.denominator == 1 and not mm_exact_is_heavy(rs, int(kq) + 1):
        f0 = mm_exact(rs, int(kq))
        f1 = mm_exact(rs, int(kq) + 1)
        rhs = b_at_k * f0
        ok = (f1 == rhs)
        return FunctionalEquationReport(kq, float(f1), float(rhs),
                                        float(b_at_k), 0.0, ok, True)
    stat, finish = functional_equation_plan(b_at_k, kq)
    st, _ = _one_pass(rs, stat, samples, seed, shards, threads)
    return finish(st)


def _poly_float_evaluator(poly, k_value):
    """Vectorised float evaluation of poly at k = k_value on the columns of
    u, the (rank, samples) simple-root pairings: each term is its coefficient
    times u_j^e_j, one variable at a time."""
    import numpy as np
    terms = poly.float_terms(k_value)

    def ev(u):
        acc = np.zeros(u.shape[1])
        for exps, c in terms:
            t = np.full(u.shape[1], c)
            for j, e in enumerate(exps):
                if e:
                    t *= u[j] ** e
            acc += t
        return acc

    return ev


@dataclass(frozen=True)
class CrossCheckReport:
    k: object
    exact_value: float
    estimate: float
    std_error: float
    z_score: float
    passed: bool


def cross_check_plan(f, g, k):
    """(stat, finish) of the Gaussian-pairing integral formula: the exact
    gamma pairing of (f, g) at k must match E[f g |Delta|^(2k)] /
    E[|Delta|^(2k)], with the delta-method band of the ratio."""
    import numpy as np

    from .dunkl import gamma_form

    kq = as_rational(k)
    kf = float(kq)
    exact_value = float(gamma_form(f, g)(kq))
    ev_fg = _poly_float_evaluator(f * g, kq)

    def stat(u, logs):
        w = np.exp((2.0 * kf) * logs)
        fgw = ev_fg(u)
        fgw *= w
        return fgw, w

    def finish(st):
        n = st.n
        (nbar, dbar), ((cnn, cnd), (_, cdd)) = st.mean, st.cm
        ratio = nbar / dbar
        var_ratio = ((cnn - 2.0 * ratio * cnd + ratio * ratio * cdd)
                     / (dbar * dbar * n * n))
        se = math.sqrt(var_ratio) if var_ratio > 0 else 0.0
        if se > 0:
            z = (ratio - exact_value) / se
        else:
            z = 0.0 if abs(ratio - exact_value) < 1e-12 else math.inf
        return CrossCheckReport(kq, exact_value, ratio, se, z, abs(z) <= 4.0)

    return stat, finish


def gamma_integral_cross_check(rs, f, g, k, samples, seed, shards=16,
                               threads=1) -> CrossCheckReport:
    """`cross_check_plan` over a pass of its own."""
    stat, finish = cross_check_plan(f, g, k)
    st, _ = _one_pass(rs, stat, samples, seed, shards, threads)
    return finish(st)


@dataclass(frozen=True)
class LogMomentsReport:
    mean: float
    std_error: float
    target: float
    z_score: float
    passed: bool
    variance: float
    variance_se: float
    variance_target: float = math.nan
    variance_z: float = math.nan


def log_moments_plan(rs, dd=None):
    """(stat, finish) of E[log Delta^2] (the derivative of F at 0) against
    -EulerGamma * |S|, and of the variance of log Delta^2, whose target
    (pi^2/6) sum(d_i^2 - 1) is filled in when degree data is supplied."""

    def finish(st):
        n = st.n
        mean, se = st.mean_se()
        target = -EULER_GAMMA * rs.num_positive
        z = (mean - target) / se if se > 0 else math.inf
        # central moments for the variance band
        c2 = st.cm[0][0] / n
        c4 = st.m4 / n
        var_of_var = (c4 - c2 * c2) / n
        var_se = math.sqrt(var_of_var) if var_of_var > 0 else 0.0
        var_target = math.nan
        var_z = math.nan
        if dd is not None:
            var_target = (math.pi ** 2 / 6.0) * sum(d * d - 1
                                                    for d in dd.degrees)
            var_z = (c2 - var_target) / var_se if var_se > 0 else math.inf
        return LogMomentsReport(mean, se, target, z, abs(z) <= 4.0,
                                c2, var_se, var_target, var_z)

    return (lambda u, logs: (2.0 * logs,)), finish


def mm_log_moments(rs, samples, seed, shards=16, threads=1,
                   dd=None) -> LogMomentsReport:
    """`log_moments_plan` over a pass of its own."""
    stat, finish = log_moments_plan(rs, dd)
    st, _ = _one_pass(rs, stat, samples, seed, shards, threads)
    return finish(st)
