"""The Macdonald-Mehta integral: exact Gaussian moments for integer k,
seeded Monte Carlo for real k, and the statistical identity checks.

The integral is F(k) = (2pi)^(-r/2) * int exp(-(x,x)/2) |Delta(x)|^(2k) dx
over the reflection representation.  For nonnegative integer k the integrand
is the polynomial Delta^(2k), so F(k) is an exact Gaussian moment, taken by
Stein's recursion on its monomials.  At k = 1 no product is formed: Delta
is harmonic, so E[Delta^2] is the Fischer pairing Delta(d)Delta, the |S|
root derivatives of Delta.  For real k, F(k) is estimated by seeded
Monte Carlo.  One pass serves groups of every rank: each block is drawn
once, row j of it from the SFC64 stream of (seed, "axis<j>", shard), and a
group of rank r maps rows 0..r-1 into its own root coordinates; a sample
that lands on a mirror of one group is redrawn for that group alone, from
the stream of (seed, group, shard).  A group's estimates therefore depend on
its own rank alone, never on which partners share its pass, and are
bit-reproducible per (seed, shards) for a fixed numpy, BLAS and CPU; the
estimates of all the groups of a pass come from common draws, so their
errors are correlated.  A group's root pairings are formed and multiplied
one cache-sized tile of samples at a time, and every array of a block,
down to the statistics and their centred copies, lives in a workspace that
each worker reuses for the whole pass: a block allocates nothing.
numpy is imported by the Monte Carlo functions when they first run, so the
exact side never loads it.
"""

import math
import sys
from typing import NamedTuple

from .dunkl import root_derivative
from .errors import BudgetError
from .polynomials import (EXP_BITS, EXP_MASK, MultiPoly, _flat, _fold, _kpoly,
                          _map_monomials, _mul_into, build_discriminant)
from .scalars import FieldElement, KPoly, as_rational, qdiv

#: Euler's constant, accurate to well below 1e-15
EULER_GAMMA = 0.5772156649015328606065120900824

_MC_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# exact moments by Stein's recursion
# ---------------------------------------------------------------------------

#: the largest degree 2k|S| of Delta^(2k) that `mm_exact` takes on (2 cores,
#: product and moment: H3 k = 2, degree 60, about 0.14 s; B4 k = 2, 64, 1.3 s)
MOMENT_DEGREE_LIMIT = 60


def mm_exact_is_heavy(rs, k) -> bool:
    """Whether F(k) is past the exact-moment bound, so `mm_exact` refuses it."""
    return 2 * k * rs.num_positive > MOMENT_DEGREE_LIMIT


def gaussian_moment(p) -> KPoly:
    """E[p] for a MultiPoly p, where u ~ N(0, G) with G = `rs.gram_raw()`.

    Stein's identity E[u_i f] = sum_j G_ij E[d_j f] peels the lowest variable
    u_i of each monomial: E[u_i u^F] = sum_j G_ij F_j E[u^(F - e_j)], a flat
    {c^e: coordinate} dict that `_map_monomials` maps over p's monomials."""
    rs = p.ring
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

    return _kpoly(rs, _map_monomials(rs, p.terms, moment).items())


def mm_exact(rs, k: int) -> FieldElement:
    """F(k) for a nonnegative integer k: the moment of Delta^(2k).

    At k = 1 it is Delta(d)Delta = d_alpha_1 ... d_alpha_N Delta over the
    positive roots, since Delta is harmonic and E[p q] is the Fischer
    pairing p(d)q when p is harmonic and p, q are homogeneous of the same
    degree.  Every other k takes the Stein moment of the expanded power."""
    if k < 0 or k != int(k):
        raise ValueError("exact evaluation needs a nonnegative integer k")
    k = int(k)
    if mm_exact_is_heavy(rs, k):
        raise BudgetError(f"k={k} on {rs.label} needs a moment of degree "
                          f"{2 * k * rs.num_positive} > {MOMENT_DEGREE_LIMIT}")
    if k == 1:
        flat = build_discriminant(rs).terms
        for alpha in range(rs.num_positive):
            flat = root_derivative(rs, alpha, flat)
        return _kpoly(rs, flat.items()).coeff(0)
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
    return sum(math.lgamma(1.0 + k * d) - math.lgamma(1.0 + k)
               for d in dd.degrees)


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


class McEstimate(NamedTuple):
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

#: columns of a block whose root pairings are formed and multiplied at a
#: time, so that a tile of them stays in L2 (H3: 15 x 8192 floats, 0.98 MB)
_TILE = 8192

#: block rows handed to a stat: its arrays go to rows 0 and 1, rows 2 and 3
#: are its scratch, and `_Moments.of` then centres into rows 2 and 3
_STAT_ROWS = 4


def _log_abs(p, pairings):
    """L = log|p| in place, for p the product of each sample's root
    pairings.  Returns (L, zero), where `zero` indexes the samples with an
    exact zero pairing (their L is -inf).  A sample whose product left the
    normal float range (an underflow to a subnormal or to 0, an overflow to
    inf) takes the per-root sum of log|.| of `pairings(columns)`, its
    (|S|, len(columns)) pairings, instead."""
    import numpy as np
    with np.errstate(divide="ignore"):
        np.abs(p, out=p)
        if not (p.min() < _TINY or p.max() > _HUGE):
            return np.log(p, out=p), np.empty(0, np.intp)
        odd = np.flatnonzero((p < _TINY) | (p > _HUGE))
        np.log(p, out=p)
        sub = np.abs(pairings(odd))
        p[odd] = np.log(sub).sum(axis=0)
    return p, odd[(sub == 0.0).any(axis=0)]


def _log_abs_delta(dots):
    """`_log_abs` of the products of the pairings `dots`, held as
    (|S|, samples) so that the product runs along contiguous rows."""
    import numpy as np
    with np.errstate(over="ignore"):
        p = dots.prod(axis=0)
    return _log_abs(p, lambda odd: dots[:, odd])


def _tiles(b):
    """(start, stop) of each tile of a b-column block: `_TILE` columns each
    and the rest in the last.  A one-column rest joins the tile before it:
    BLAS multiplies a one-column matrix by another kernel (gemv), whose
    rounding at rank 3 and up is not that of the whole block's product."""
    stops = [*range(_TILE, b - 1, _TILE), b]
    return zip([0, *stops[:-1]], stops)


def _some_pairings(c, u, cols):
    """c @ u[:, cols], the root pairings of the columns `cols` of a block,
    with the bits of the whole block's product: a lone column is multiplied
    beside a copy of itself, as BLAS would take it by gemv (see `_tiles`)."""
    import numpy as np
    return (c @ u[:, np.resize(cols, max(cols.size, 2))])[:, :cols.size]


def _rows(buf, rows, b):
    """The first rows * b entries of the flat `buf` as a C-contiguous
    (rows, b) view."""
    return buf[:rows * b].reshape(rows, b)


class _Workspace:
    """Every array that one worker's blocks need, reused by every block it
    maps for the root systems of a pass: the draw z, one system's
    simple-root pairings u, one tile of its root pairings, its logs, and the
    `_STAT_ROWS` rows that the stats and their moment sums write.  Flat, so
    each block's views are C-contiguous whatever its size, laid out as
    freshly allocated arrays would be, and a block allocates nothing."""

    def __init__(self, systems, block):
        import numpy as np
        rank = max(rs.rank for rs in systems)
        self.z = np.empty(rank * block)
        self.u = np.empty(rank * block)
        self.dots = np.empty(max(rs.num_positive for rs in systems)
                             * min(block, _TILE + 1))
        self.logs = np.empty(block)
        self.rows = np.empty(_STAT_ROWS * block)


class _BlockSampler:
    """Yields (i, U, L) for each block of Gaussian samples and each root
    system i of `systems`, in turn.

    A block is drawn once, into R rows for R the highest rank among
    `systems`: row j from the substream (seed, "axis<j>", shard).  A system
    of rank r maps rows 0..r-1 to its root coordinates: U is (r, samples),
    with row j holding the simple-root pairings u_j = (alpha_j, x), and L is
    log|Delta(x)|, the log of the product of (alpha, x) over the positive
    roots.  The root pairings are formed and multiplied one tile of columns
    at a time (see `_tiles`), and only the samples whose product leaves the
    float range form theirs again.  So a system's draws depend on its own
    rank alone, never on which partners share the pass.  Samples that hit
    one system's mirror exactly in float arithmetic are redrawn for that
    system alone, from its own substream (seed, label, shard), and counted
    in its `rejected`; the shared draw stays aligned for the others.  U and
    L live in `work` (a `_Workspace` for blocks of up to `_MC_BLOCK` samples
    when not given) and hold until the next yield."""

    def __init__(self, systems, seed, shard, work=None):
        self.systems = systems
        self.rank = max(rs.rank for rs in systems)
        self.seed, self.shard = seed, shard
        self.axes = [_substream(seed, f"axis{j}", shard)
                     for j in range(self.rank)]
        self.work = work or _Workspace(systems, _MC_BLOCK)
        self.rejected = [0] * len(systems)
        self._own = [None] * len(systems)   # redraw streams, opened on need

    def blocks(self, n):
        remaining = n
        while remaining > 0:
            b = min(_MC_BLOCK, remaining)
            z = _rows(self.work.z, self.rank, b)
            for rng, row in zip(self.axes, z):
                rng.standard_normal(out=row)
            for i, rs in enumerate(self.systems):
                yield (i, *self._mapped(i, rs, z[:rs.rank]))
            remaining -= b

    def _mapped(self, i, rs, z):
        import numpy as np
        a, c = rs.float_data()
        r, b = z.shape
        u = np.matmul(a, z, out=_rows(self.work.u, r, b))
        logs = self.work.logs[:b]
        with np.errstate(over="ignore"):
            for start, stop in _tiles(b):
                dots = np.matmul(c, u[:, start:stop],
                                 out=_rows(self.work.dots, len(c),
                                           stop - start))
                dots.prod(axis=0, out=logs[start:stop])
        logs, bad = _log_abs(logs, lambda odd: _some_pairings(c, u, odd))
        while bad.size:
            self.rejected[i] += bad.size
            if self._own[i] is None:
                self._own[i] = _substream(self.seed, rs.label, self.shard)
            z2 = self._own[i].standard_normal((bad.size, r))
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
    def of(cls, *xs, scratch=None):
        """The state of one block of samples of each variable, centred into
        the rows of `scratch` (two at least, one per variable; fresh when
        not given)."""
        import numpy as np
        if scratch is None:
            scratch = np.empty((max(len(xs), 2), xs[0].size))
        mean = tuple(float(x.mean()) for x in xs)
        ds = [np.subtract(x, m, out=row)
              for x, m, row in zip(xs, mean, scratch)]
        top = float(xs[0].max())
        if len(ds) > 1:
            cm = [[0.0] * len(ds) for _ in ds]
            for i, a in enumerate(ds):
                for j in range(i, len(ds)):
                    cm[i][j] = cm[j][i] = float(np.einsum("i,i", a, ds[j]))
            return cls(xs[0].size, mean, tuple(map(tuple, cm)), top=top)
        d = ds[0]
        d2 = np.multiply(d, d, out=scratch[1])
        return cls(d.size, mean, ((float(d2.sum()),),),
                   float(np.einsum("i,i", d2, d)),
                   float(np.einsum("i,i", d2, d2)), top)

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
        # products, not powers: a float ** raises OverflowError where a
        # product goes to inf, and only log_moments reads M3 and M4
        d = delta[0]
        d2 = d * d
        a2, b2 = self.cm[0][0], other.cm[0][0]
        m3 = (self.m3 + other.m3 + d2 * d * f * (na - nb) / n
              + 3.0 * d * (na * b2 - nb * a2) / n)
        m4 = (self.m4 + other.m4
              + d2 * d2 * f * (na * na - na * nb + nb * nb) / (n * n)
              + 6.0 * d * d * (na * na * b2 + nb * nb * a2) / (n * n)
              + 4.0 * d * (na * other.m3 - nb * self.m3) / n)
        return _Moments(n, mean, cm, m3, m4, top)

    def doubled(self):
        """The state of the variables 2 x_i.  Exact: a power of two scales
        every rounding of `of` and `merge` alike, so this gives the bits of
        the state of 2 x_i itself."""
        return _Moments(self.n, tuple(2.0 * m for m in self.mean),
                        tuple(tuple(4.0 * c for c in row) for row in self.cm),
                        8.0 * self.m3, 16.0 * self.m4, 2.0 * self.top)

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
    of (rs, stats) whose root systems may have any ranks.  Shard i draws
    each block once for all of them (see `_BlockSampler`).  A stat
    stat(u, L, out) maps a group's block to the arrays whose `_Moments` it
    keeps: u, L, or rows 0 and 1 of the (`_STAT_ROWS`, samples) block `out`,
    whose rows 2 and 3 it may use as scratch.  Returns, per part, one merged
    state per stat (blocks, then shards, in order) and the part's redrawn
    count; neither depends on the other parts.  The shards run on `threads`
    threads, each shard on a `_Workspace` of this pass that no other running
    shard holds, so a block allocates no array."""
    import queue
    if min(samples, shards, threads) < 1:
        raise ValueError("samples, shards and threads must be >= 1")
    systems = [rs for rs, _ in parts]
    sizes = _shard_sizes(samples, shards)
    for rs in systems:   # built here, so that no two shard threads build it
        rs.float_data()
    free = queue.SimpleQueue()   # one workspace per worker
    for _ in range(min(threads, shards)):
        free.put(_Workspace(systems, min(_MC_BLOCK, sizes[0])))

    def shard(i, n):
        work = free.get()
        try:
            sampler = _BlockSampler(systems, seed, i, work)
            states = [[_Moments() for _ in stats] for _, stats in parts]
            for j, u, logs in sampler.blocks(n):
                out = _rows(work.rows, _STAT_ROWS, logs.size)
                states[j] = [st.merge(_Moments.of(*stat(u, logs, out),
                                                  scratch=out[2:]))
                             for st, stat in zip(states[j], parts[j][1])]
            return states, sampler.rejected
        finally:
            free.put(work)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(shard, range(shards), sizes))
    else:
        results = list(map(shard, range(shards), sizes))
    states, rejected = zip(*results)
    return [([_merged(col) for col in zip(*cols)], sum(counts))
            for cols, counts in zip(zip(*states), zip(*rejected))]


def run_plans(rs, plans, samples, seed, shards=16, threads=1):
    """The finished reports of one group's (stat, finish) `plans`, all from
    one `mc_pass`.  A plan's report does not depend on its companions: a
    stat sees only its own group's blocks, and each keeps its own state."""
    [(states, _)] = mc_pass([(rs, [stat for stat, _ in plans])], samples,
                            seed, shards, threads)
    return [finish(st) for (_, finish), st in zip(plans, states)]


def _weight(logs, k, out):
    """The weights |Delta|^(2k) = exp(2k L), written to `out`."""
    import numpy as np
    if k == 0.5:
        return np.exp(logs, out=out)
    return np.exp(np.multiply(logs, 2.0 * k, out=out), out=out)


def mm_monte_carlo(rs, k, samples, seed, shards=16,
                   threads=1) -> McEstimate:
    """Estimate F(k) for real k >= 0 by averaging |Delta|^(2k) over standard
    Gaussian samples.  Identical (seed, samples, shards, type, k) give a
    bit-identical estimate.  Raises BudgetError when the mean or its
    standard error leaves the float range."""
    kf = float(k)
    if kf < 0:
        raise ValueError("k must be >= 0")
    weights = lambda u, logs, out: (_weight(logs, kf, out[0]),)
    [((st,), rejected)] = mc_pass([(rs, [weights])], samples, seed, shards,
                                  threads)
    mean, se = st.mean_se()
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise BudgetError(f"the moments of the estimate of F({k}) on "
                          f"{rs.label} leave the float range")
    # sum w = n mean and sum w^2 = M2 + n mean^2, read from the merged state
    sum_w = samples * mean
    ess = samples / (1.0 + st.cm[0][0] / (sum_w * mean)) if mean else 0.0
    share = st.top / sum_w if mean else math.nan
    return McEstimate(mean, se, samples, seed, shards, rejected, ess, share)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


class FunctionalEquationReport(NamedTuple):
    k: object
    lhs: float              # F(k+1) estimate (or exact value)
    rhs: float              # b(k) * F(k)
    b_at_k: float
    z_score: float
    passed: bool
    lhs_se: float = 0.0
    rhs_se: float = 0.0


def functional_equation_plan(b_at_k, k):
    """(stat, finish) of F(k+1) = b(k) F(k) at a real k: both sides from the
    same samples, with the 4-sigma band of the per-sample difference
    |Delta|^(2k+2) - b(k) |Delta|^(2k), read from the co-moments."""
    kf, bf = float(k), float(b_at_k)

    def stat(u, logs, out):
        # 2(k + 1) is 2k + 2 to the bit: doubling commutes with rounding
        return _weight(logs, kf + 1.0, out[0]), _weight(logs, kf, out[1])

    def finish(st):
        diff, sigma = st.mean_se((1.0, -bf))
        lhs, lhs_se = st.mean_se((1.0, 0.0))
        rhs, rhs_se = st.mean_se((0.0, bf))
        z = diff / sigma if sigma > 0 else (0.0 if diff == 0 else math.inf)
        return FunctionalEquationReport(k, lhs, rhs, bf, z, abs(z) <= 4.0,
                                        lhs_se, rhs_se)

    return stat, finish


def _poly_float_evaluator(poly, k_value):
    """Vectorised float evaluation of poly at k = k_value on the columns of
    u, the (rank, samples) simple-root pairings: ev(u, out, scratch) writes
    it to the row `out`, through the two rows of `scratch`.  Each term is
    its coefficient times u_j^e_j, one variable at a time, with the powers
    that u_j ** e_j gives (a square for e = 2)."""
    import numpy as np
    terms = [(c, [(j, e) for j, e in enumerate(exps) if e])
             for exps, c in poly.float_terms(k_value)]

    def power(x, e, out):
        if e == 1:
            return x
        return np.square(x, out=out) if e == 2 else np.power(x, e, out=out)

    def ev(u, out, scratch):
        t, p = scratch
        out.fill(0.0)
        for c, factors in terms:
            if not factors:
                out += c
                continue
            (j, e), *rest = factors
            np.multiply(power(u[j], e, t), c, out=t)
            for j, e in rest:
                t *= power(u[j], e, p)
            out += t
        return out

    return ev


class CrossCheckReport(NamedTuple):
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
    from .dunkl import gamma_form

    kq = as_rational(k)
    kf = float(kq)
    exact_value = float(gamma_form(f, g)(kq))
    ev_fg = _poly_float_evaluator(f * g, kq)

    def stat(u, logs, out):
        w = _weight(logs, kf, out[1])
        fgw = ev_fg(u, out[0], out[2:])
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


class LogMomentsReport(NamedTuple):
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
        st = st.doubled()   # the stat hands over L = log|Delta| itself
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

    return (lambda u, logs, out: (logs,)), finish
