"""The Macdonald-Mehta integral: exact Gaussian moments for integer k,
seeded Monte Carlo for real k, and the statistical identity checks.

The integral is F(k) = (2pi)^(-r/2) * int exp(-(x,x)/2) |Delta(x)|^(2k) dx
over the reflection representation.  For nonnegative integer k the integrand
is the polynomial Delta^(2k), so F(k) is an exact pairing-sum moment; for
real k it is estimated by counter-based, bit-reproducible Monte Carlo.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .scalars import FieldElement, KPoly, as_rational, qdiv

#: Euler's constant, accurate to well below 1e-15
EULER_GAMMA = 0.5772156649015328606065120900824

DEFAULT_WICK_BUDGET = 20

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
# exact moments via pairing recursion
# ---------------------------------------------------------------------------


def wick_moment(rs, factors, budget=DEFAULT_WICK_BUDGET) -> FieldElement:
    """E[prod (alpha_j, x)] under the standard Gaussian, exactly.

    Pairs the first factor with each remaining one and recurses on the
    leftover multiset, memoized on the sorted index tuple; the covariance of
    two root linear forms is their inner product."""
    factors = tuple(sorted(factors))
    if len(factors) > budget:
        raise BudgetError(
            f"moment with {len(factors)} factors exceeds budget {budget}")
    sp = rs.spec
    gram = rs.root_gram()
    memo = rs._cache("wick_memo", dict)

    def rec(key):
        if not key:
            return sp.raw_one()
        if len(key) % 2:
            return sp.raw_zero()
        got = memo.get(key)
        if got is not None:
            return got
        first = key[0]
        rest = key[1:]
        acc = sp.raw_zero()
        j = 0
        while j < len(rest):
            v = rest[j]
            mult = 1
            while j + mult < len(rest) and rest[j + mult] == v:
                mult += 1
            # pairing `first` with any of the `mult` copies leaves the same multiset
            sub = rec(rest[:j] + rest[j + 1:])
            cov = gram[first][v]
            if any(cov) and any(sub):
                term = sp.raw_mul(cov, sub)
                term = sp.raw_scale(term, mult)
                acc = sp.raw_add(acc, term)
            j += mult
        memo[key] = acc
        return acc

    return FieldElement(sp, rec(factors))


def mm_exact(rs, k: int, budget=DEFAULT_WICK_BUDGET) -> FieldElement:
    """F(k) for a nonnegative integer k: the moment of Delta^(2k)."""
    if k < 0 or k != int(k):
        raise ValueError("exact evaluation needs a nonnegative integer k")
    k = int(k)
    factors = []
    for i in range(rs.num_positive):
        factors.extend([i] * (2 * k))
    if len(factors) > budget:
        raise BudgetError(
            f"k={k} on {rs.label} needs {len(factors)} factors (> {budget})")
    return wick_moment(rs, factors, budget=budget)


def wick_moment_bruteforce(rs, factors) -> FieldElement:
    """Independent oracle: sum over all perfect pairings (no memoization)."""
    sp = rs.spec
    gram = rs.root_gram()
    factors = list(factors)
    if len(factors) % 2:
        return rs.spec.zero()

    def rec(items):
        if not items:
            return sp.raw_one()
        first = items[0]
        acc = sp.raw_zero()
        for j in range(1, len(items)):
            sub = rec(items[1:j] + items[j + 1:])
            acc = sp.raw_add(acc, sp.raw_mul(gram[first][items[j]], sub))
        return acc

    return FieldElement(sp, rec(factors))


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
    kf = float(k)
    if kf < 0:
        raise ValueError("k must be >= 0")
    acc = 0.0
    for d in dd.degrees:
        acc += log_gamma(1.0 + kf * d) - log_gamma(1.0 + kf)
    return math.exp(acc)


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


def _substream(seed, purpose, shard):
    """Deterministic counter-based substream: SHA-256(seed|purpose|shard)
    keys a Philox generator.  Reproducible for fixed numpy."""
    digest = hashlib.sha256(f"{seed}|{purpose}|{shard}".encode()).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _shard_sizes(samples, shards):
    base, extra = divmod(samples, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


class _BlockSampler:
    """Yields (U, dots) blocks of Gaussian samples mapped to root coordinates.

    U has the simple-root pairings u_j = (alpha_j, x); dots has (alpha, x)
    for every positive root.  Rows that hit a mirror exactly in float
    arithmetic are redrawn and counted."""

    def __init__(self, rs, rng):
        a, c = rs.float_data()
        self.at = a.T.copy()
        self.ct = c.T.copy()
        self.rng = rng
        self.rank = rs.rank
        self.rejected = 0

    def blocks(self, n):
        remaining = n
        while remaining > 0:
            b = min(_MC_BLOCK, remaining)
            z = self.rng.standard_normal((b, self.rank))
            u = z @ self.at
            dots = u @ self.ct
            bad = np.nonzero((dots == 0.0).any(axis=1))[0]
            while bad.size:
                self.rejected += bad.size
                z2 = self.rng.standard_normal((bad.size, self.rank))
                u[bad] = z2 @ self.at
                dots[bad] = u[bad] @ self.ct
                bad = bad[(dots[bad] == 0.0).any(axis=1)]
            yield u, dots
            remaining -= b


def _run_shards(samples, shards, worker, threads=1):
    """Run per-shard workers and combine their sum-tuples in shard order."""
    sizes = _shard_sizes(samples, shards)
    results = [None] * shards
    if threads and threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futs = {pool.submit(worker, i, sizes[i]): i for i in range(shards)}
            for fut, i in futs.items():
                results[i] = fut.result()
    else:
        for i in range(shards):
            results[i] = worker(i, sizes[i])
    totals = None
    for res in results:
        if totals is None:
            totals = list(res)
        else:
            for j, v in enumerate(res):
                totals[j] += v
    return totals


def _mean_se(n, s1, s2):
    mean = s1 / n
    var = (s2 - s1 * s1 / n) / (n - 1) if n > 1 else 0.0
    if var < 0.0:
        var = 0.0
    return mean, math.sqrt(var / n)


def mm_monte_carlo(rs, k, samples, seed, shards=16, threads=1,
                   purpose="mm") -> McEstimate:
    """Estimate F(k) for real k >= 0 by averaging |Delta|^(2k) over standard
    Gaussian samples.  Identical (seed, samples, shards, type, k) give a
    bit-identical estimate."""
    kf = float(k)
    if kf < 0:
        raise ValueError("k must be >= 0")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    tag = f"{purpose}|{rs.label}|{kf.hex()}"

    def worker(shard, n):
        sampler = _BlockSampler(rs, _substream(seed, tag, shard))
        s1 = s2 = 0.0
        for _, dots in sampler.blocks(n):
            w = np.exp((2.0 * kf) * np.log(np.abs(dots)).sum(axis=1))
            s1 += float(w.sum())
            s2 += float((w * w).sum())
        return s1, s2, sampler.rejected

    s1, s2, rejected = _run_shards(samples, shards, worker, threads)
    mean, se = _mean_se(samples, s1, s2)
    return McEstimate(mean, se, samples, seed, shards, int(rejected))


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


def check_functional_equation(rs, b_computed: KPoly, k, samples, seed,
                              shards=16, threads=1,
                              wick_budget=DEFAULT_WICK_BUDGET
                              ) -> FunctionalEquationReport:
    """F(k+1) = b(k) F(k): exact when both sides are exact moments within
    budget, otherwise two independent substreams with a propagated 4-sigma band."""
    kq = as_rational(k)
    if kq < 0:
        raise ValueError("k must be >= 0")
    b_at_k = b_computed(kq)
    if kq.denominator == 1 and 2 * (int(kq) + 1) * rs.num_positive <= wick_budget:
        f0 = mm_exact(rs, int(kq), budget=wick_budget)
        f1 = mm_exact(rs, int(kq) + 1, budget=wick_budget)
        rhs = b_at_k * f0
        ok = (f1 == rhs)
        return FunctionalEquationReport(kq, float(f1), float(rhs),
                                        float(b_at_k), 0.0, ok, True)
    est0 = mm_monte_carlo(rs, kq, samples, seed, shards, threads, purpose="fe0")
    est1 = mm_monte_carlo(rs, float(kq) + 1.0, samples, seed, shards, threads,
                          purpose="fe1")
    bf = float(b_at_k)
    diff = est1.mean - bf * est0.mean
    sigma = math.hypot(est1.std_error, bf * est0.std_error)
    z = diff / sigma if sigma > 0 else (0.0 if diff == 0 else math.inf)
    return FunctionalEquationReport(kq, est1.mean, bf * est0.mean, bf, z,
                                    abs(z) <= 4.0, False,
                                    est1.std_error, bf * est0.std_error)


def _poly_float_evaluator(poly, k_value):
    terms = poly.float_terms(k_value)
    if not terms:
        return lambda u: np.zeros(u.shape[0])
    exps = np.array([t[0] for t in terms], dtype=np.int64)
    coeffs = np.array([t[1] for t in terms])
    if (exps == 0).all():
        const = float(coeffs.sum())
        return lambda u: np.full(u.shape[0], const)

    def ev(u):
        return (u[:, None, :] ** exps[None, :, :]).prod(axis=2) @ coeffs

    return ev


@dataclass(frozen=True)
class CrossCheckReport:
    k: object
    exact_value: float
    estimate: float
    std_error: float
    z_score: float
    passed: bool


def gamma_integral_cross_check(rs, f, g, k, samples, seed, shards=16,
                               threads=1) -> CrossCheckReport:
    """Gaussian-pairing integral formula: the exact gamma pairing of (f, g)
    at k must match E[f g |Delta|^(2k)] / E[|Delta|^(2k)].

    Numerator and denominator share samples; the ratio band comes from the
    delta method with the sample covariance."""
    from .dunkl import gamma_form

    kq = as_rational(k)
    kf = float(kq)
    exact_value = float(gamma_form(f, g)(kq))
    ev_f = _poly_float_evaluator(f, kq)
    ev_g = _poly_float_evaluator(g, kq)
    tag = f"gcc|{rs.label}|{kf.hex()}"

    def worker(shard, n):
        sampler = _BlockSampler(rs, _substream(seed, tag, shard))
        sn = sd = snn = sdd = snd = 0.0
        for u, dots in sampler.blocks(n):
            w = np.exp((2.0 * kf) * np.log(np.abs(dots)).sum(axis=1))
            nvals = ev_f(u) * ev_g(u) * w
            sn += float(nvals.sum())
            sd += float(w.sum())
            snn += float((nvals * nvals).sum())
            sdd += float((w * w).sum())
            snd += float((nvals * w).sum())
        return sn, sd, snn, sdd, snd, sampler.rejected

    sn, sd, snn, sdd, snd, _ = _run_shards(samples, shards, worker, threads)
    n = samples
    nbar, dbar = sn / n, sd / n
    ratio = nbar / dbar
    var_n = snn / n - nbar * nbar
    var_d = sdd / n - dbar * dbar
    cov = snd / n - nbar * dbar
    var_ratio = (var_n - 2.0 * ratio * cov + ratio * ratio * var_d) / (dbar * dbar * n)
    se = math.sqrt(var_ratio) if var_ratio > 0 else 0.0
    if se > 0:
        z = (ratio - exact_value) / se
    else:
        z = 0.0 if abs(ratio - exact_value) < 1e-12 else math.inf
    return CrossCheckReport(kq, exact_value, ratio, se, z, abs(z) <= 4.0)


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


def mm_log_moments(rs, samples, seed, shards=16, threads=1,
                   dd=None) -> LogMomentsReport:
    """Estimate E[log Delta^2] (the derivative of F at 0) against
    -EulerGamma * |S|; also returns the variance of log Delta^2, whose target
    (pi^2/6) sum(d_i^2 - 1) is filled in when degree data is supplied."""
    tag = f"lm|{rs.label}"

    def worker(shard, n):
        sampler = _BlockSampler(rs, _substream(seed, tag, shard))
        m1 = m2 = m3 = m4 = 0.0
        for _, dots in sampler.blocks(n):
            x = 2.0 * np.log(np.abs(dots)).sum(axis=1)
            x2 = x * x
            m1 += float(x.sum())
            m2 += float(x2.sum())
            m3 += float((x2 * x).sum())
            m4 += float((x2 * x2).sum())
        return m1, m2, m3, m4, sampler.rejected

    m1, m2, m3, m4, _ = _run_shards(samples, shards, worker, threads)
    n = samples
    mean, se = _mean_se(n, m1, m2)
    target = -EULER_GAMMA * rs.num_positive
    z = (mean - target) / se if se > 0 else math.inf
    # central moments for the variance band
    mu = m1 / n
    c2 = m2 / n - mu * mu
    c4 = (m4 - 4 * mu * m3 + 6 * mu * mu * m2 - 3 * n * mu ** 4) / n
    var_of_var = (c4 - c2 * c2) / n
    var_se = math.sqrt(var_of_var) if var_of_var > 0 else 0.0
    var_target = math.nan
    var_z = math.nan
    if dd is not None:
        var_target = (math.pi ** 2 / 6.0) * sum(d * d - 1 for d in dd.degrees)
        var_z = (c2 - var_target) / var_se if var_se > 0 else math.inf
    return LogMomentsReport(mean, se, target, z, abs(z) <= 4.0,
                            c2, var_se, var_target, var_z)
