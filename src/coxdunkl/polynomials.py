"""Sparse multivariate polynomials in the root pairing coordinates u_i.

A polynomial lives over a fixed root system: the variables are the linear
functionals u_i = (alpha_i, x) attached to the simple roots, the
coefficients are polynomials in the deformation parameter k over the field
QQ(c), c = 2cos(pi/m), of the root system, and every operation is exact.

This module owns the one sparse layout, `MultiPoly.terms`: a flat dict
{u^E c^e k^j: coordinate}.  A key packs the u exponents (EXP_BITS bits per
variable from bit 0), c's exponent above them (bit EXP_BITS * rank) and k's
above that; a coordinate is an int, or a `rat` once a denominator has
entered.  The dict holds no zeros and no c^e with e >= d, the degree of the
field.  A product (`_mul_into`) is one int multiply and one dict update per
pair of terms and leaves e <= 2d - 2, which `_reduce` reduces by c's
minimal polynomial; `_fold` reduces and then drops zeros.  Every dict that
is kept (a `MultiPoly`'s terms, a memo table entry, a `_map_monomials`
result) is folded; a monomial's image, which `_map_monomials` reads once,
is only reduced.  `term_items` and `coefficient` give the k-coefficients of
a monomial back as `KPoly` values.
"""

from __future__ import annotations

from .errors import FieldMismatchError
from .scalars import (KPoly, as_kpoly, as_rational, join_terms, power, qdiv,
                      term_str)

EXP_BITS = 10
EXP_MASK = (1 << EXP_BITS) - 1
MAX_EXP = EXP_MASK


def pack_exponents(exps):
    key = 0
    for i, e in enumerate(exps):
        if e < 0 or e > MAX_EXP:
            raise ValueError(f"exponent {e} out of range")
        key |= e << (EXP_BITS * i)
    return key


def unpack_exponents(key, rank):
    return tuple((key >> (EXP_BITS * i)) & EXP_MASK for i in range(rank))


def key_degree(key, rank):
    return sum((key >> (EXP_BITS * i)) & EXP_MASK for i in range(rank))


# ---------------------------------------------------------------------------
# flat terms
# ---------------------------------------------------------------------------


def _mul_into(dst, a, b):
    """dst += a * b for two iterables of flat (key, coordinate) terms, with
    c left unfolded: the one sparse product of the package.  `b` is walked
    once per term of `a`, so it is a list, tuple or dict view."""
    get = dst.get
    for ka, x in a:
        for kb, y in b:
            kb += ka
            dst[kb] = get(kb, 0) + x * y


def _reduce(rs, flat):
    """Reduce c^e (d <= e <= 2d - 2) by c's minimal polynomial, in place;
    zeros stay.  Over QQ (d = 1) there is nothing to reduce."""
    d = rs.spec.degree
    if d > 1:
        cs = EXP_BITS * rs.rank
        for key in [key for key in flat if key >> cs & EXP_MASK >= d]:
            e = key >> cs & EXP_MASK
            x = flat.pop(key)
            for j, r in rs.spec._folds[e - d][1]:
                kj = key + (j << cs)
                flat[kj] = flat.get(kj, 0) + x * r
    return flat


def _fold(rs, flat):
    """`_reduce`, then drop zeros: the form of every dict that is kept (a
    `MultiPoly`'s terms, a table entry, a `_map_monomials` result)."""
    return {key: x for key, x in _reduce(rs, flat).items() if x}


def _flat(rs, kco, key=0):
    """u^E times the k-coefficients `kco` (coordinate tuples, ascending in
    k) as flat terms; `key` packs E."""
    cs = EXP_BITS * rs.rank
    return {key + (e << cs) + (j << (cs + EXP_BITS)): x
            for j, co in enumerate(kco) for e, x in enumerate(co) if x}


def _kpoly(rs, terms):
    """The KPoly sum of x c^e k^j over the flat (key, x) terms of one
    monomial (its u exponents are ignored)."""
    cs = EXP_BITS * rs.rank
    sp = rs.spec
    kco = {}
    for key, x in terms:
        kco.setdefault(key >> (cs + EXP_BITS), [0] * sp.degree)[
            key >> cs & EXP_MASK] = x
    return KPoly(sp, [kco.get(j, sp.raw_zero())
                      for j in range(max(kco, default=-1) + 1)])


def _by_monomial(rs, terms):
    """{packed u^E: [its (key, coordinate) terms with the u part cleared]}
    of the flat dict `terms`, in the order the terms come."""
    umask = (1 << (EXP_BITS * rs.rank)) - 1
    rows = {}
    for key, x in terms.items():
        u = key & umask
        rows.setdefault(u, []).append((key - u, x))
    return rows


def _map_monomials(rs, terms, image):
    """The linear map u^E -> image(u^E) (a flat dict) applied to the flat
    dict `terms`: each monomial's image is built once and multiplied by all
    of its (c, k) slots, and the sum is folded once.  An image is read only
    here, so it may hold zeros and needs only c reduced (`_reduce`); the
    result is zero-free (`_fold`)."""
    out = {}
    for u, row in _by_monomial(rs, terms).items():
        _mul_into(out, row, image(u).items())
    return _fold(rs, out)


def _same_ring(a, b):
    """Whether root systems a and b are one ring: one object, or one Coxeter
    matrix, which fixes all that `build_root_system` returns."""
    return a is b or a.diagram.bonds == b.diagram.bonds


class MultiPoly:
    """Exact sparse polynomial over a root system's coordinate ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms  # zero-free, c-folded {u^E c^e k^j: coordinate}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def constant(cls, ring, value):
        return cls(ring, _flat(ring, as_kpoly(ring.spec, value).co))

    @classmethod
    def one(cls, ring):
        return cls.constant(ring, 1)

    @classmethod
    def variable(cls, ring, i, power=1):
        if not 0 <= i < ring.rank:
            raise ValueError("variable index out of range")
        return cls.from_terms(
            ring, {tuple(power if j == i else 0 for j in range(ring.rank)): 1})

    @classmethod
    def from_terms(cls, ring, mapping):
        """Build from {exponent tuple: coefficient} with KPoly / field / rational values."""
        terms = {}
        for exps, value in mapping.items():
            terms.update(_flat(ring, as_kpoly(ring.spec, value).co,
                               pack_exponents(exps)))
        return cls(ring, terms)

    # -- inspection -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            return -1
        r = self.ring.rank
        return max(key_degree(k, r) for k in self.terms)

    def term_items(self):
        """Deterministic list of (exponent tuple, KPoly) pairs, graded order."""
        r = self.ring.rank
        rows = _by_monomial(self.ring, self.terms)
        keys = sorted(rows,
                      key=lambda k: (-key_degree(k, r),
                                     tuple(-e for e in unpack_exponents(k, r))))
        return [(unpack_exponents(k, r), _kpoly(self.ring, rows[k]))
                for k in keys]

    def coefficient(self, exps) -> KPoly:
        rows = _by_monomial(self.ring, self.terms)
        return _kpoly(self.ring, rows.get(pack_exponents(exps), ()))

    def _check_ring(self, other):
        """Raise ValueError unless `other` (a MultiPoly or a
        `dunkl.DunklDirection`) is on this polynomial's ring (`_same_ring`)."""
        if not _same_ring(self.ring, other.ring):
            raise ValueError("polynomials from different root systems")

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.ring, other)
        self._check_ring(other)
        terms = dict(self.terms)
        for k, x in other.terms.items():
            terms[k] = terms.get(k, 0) + x
        return MultiPoly(self.ring, {k: x for k, x in terms.items() if x})

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {k: -x for k, x in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return MultiPoly.constant(self.ring, other) - self

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check_ring(other)
        dst = {}
        _mul_into(dst, self.terms.items(), other.terms.items())
        return MultiPoly(self.ring, _fold(self.ring, dst))

    __rmul__ = __mul__

    def scale(self, value):
        """Multiply by a KPoly / FieldElement / rational scalar."""
        return self * MultiPoly.constant(self.ring, value)

    def partial(self, i):
        """Derivative with respect to u_i (the dual-basis direction omega_i)."""
        if not 0 <= i < self.ring.rank:
            raise ValueError("variable index out of range")
        shift = EXP_BITS * i
        return MultiPoly(self.ring, {
            k - (1 << shift): x * (k >> shift & EXP_MASK)
            for k, x in self.terms.items() if k >> shift & EXP_MASK})

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            try:
                other = MultiPoly.constant(self.ring, other)
            except (TypeError, FieldMismatchError):
                return NotImplemented
        return _same_ring(self.ring, other.ring) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- evaluation -----------------------------------------------------------

    def float_terms(self, k_value):
        """[(exponent tuple, float coefficient)] with k specialized to k_value."""
        kq = as_rational(k_value)
        rs = self.ring
        out = []
        for u, row in _by_monomial(rs, self.terms).items():
            value = _kpoly(rs, row).raw_at(kq)
            if any(value):
                out.append((unpack_exponents(u, rs.rank), rs.spec.raw_float(value)))
        return out

    # -- serialization ---------------------------------------------------------

    def to_string(self, var_prefix="u"):
        raw_str = self.ring.spec.raw_str
        parts = []
        for exps, kp in self.term_items():
            mono = "*".join(power(f"{var_prefix}{i+1}", e)
                            for i, e in enumerate(exps) if e)
            if kp.degree:
                parts.append(term_str(kp.to_string(), mono, False))
            else:
                a = kp.co[0]
                parts.append(term_str(raw_str(a), mono, not any(a[1:])))
        return join_terms(parts)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"<MultiPoly {self.to_string()}>"


# ---------------------------------------------------------------------------
# reflections, divided differences, discriminant
# ---------------------------------------------------------------------------


def _linear_terms(rs, coeffs):
    """Flat terms of sum_j coeffs[j] u_j for raw coordinate tuples."""
    terms = {}
    for j, co in enumerate(coeffs):
        terms.update(_flat(rs, (co,), 1 << (EXP_BITS * j)))
    return terms


def root_linear_form(rs, root_index) -> MultiPoly:
    """(alpha, x) as a polynomial; its coefficient vector is the root's coordinates."""
    return MultiPoly(rs, _linear_terms(rs, rs.roots_raw()[root_index]))


def reflection_forms(rs, root_index):
    """s_alpha(u_i) = u_i - (alpha_i, alpha) * (alpha, x) for each i, as
    tuples of flat (key, coordinate) terms (cached for every root at once)."""
    def build():
        sp = rs.spec
        out = []
        for root, pair in zip(rs.roots_raw(), rs.pair_vectors()):
            forms = []
            for i, w in enumerate(pair):
                coeffs = [sp.raw_neg(sp.raw_mul(w, c)) for c in root]
                coeffs[i] = sp.raw_add(sp.raw_one(), coeffs[i])
                forms.append(tuple(_linear_terms(rs, coeffs).items()))
            out.append(tuple(forms))
        return tuple(out)
    return rs._cache("reflection_forms", build)[root_index]


def monomial_table(memo, step, key):
    """Memoized per-monomial table T(u^E), for memo = {0: T(0), ...}:
    T(E) = `step(i, E - e_i, T(E - e_i))` peels the lowest variable u_i of E."""
    table = memo.get(key)
    if table is not None:
        return table
    path = []
    while key not in memo:
        # the lowest set bit lies in the lowest nonzero exponent
        i = ((key & -key).bit_length() - 1) // EXP_BITS
        path.append((key, i))
        key -= 1 << (EXP_BITS * i)
    table = memo[key]
    for key, i in reversed(path):
        table = memo[key] = step(i, key - (1 << (EXP_BITS * i)), table)
    return table


def reflection_step(rs, root_index, divided=False):
    """The `monomial_table` step T(u_i u^F) = s_alpha(u_i) T(u^F), which from
    T(0) = 1 tabulates s_alpha(u^E).  `divided` adds (alpha_i, alpha) u^F,
    the twisted Leibniz rule that from T(0) = 0 tabulates the divided
    differences (u^E - s_alpha u^E) / (alpha, x)."""
    forms = reflection_forms(rs, root_index)
    cs = EXP_BITS * rs.rank
    # per variable, the (c^e key, coordinate) terms of (alpha_i, alpha)
    pairs = [[(e << cs, x) for e, x in enumerate(w) if x]
             for w in rs.pair_vectors()[root_index]] if divided else None

    def step(i, prev_key, prev):
        dst = {key + prev_key: x for key, x in pairs[i]} if divided else {}
        _mul_into(dst, forms[i], prev.items())
        return _fold(rs, dst)

    return step


def apply_reflection(f: MultiPoly, root_index) -> MultiPoly:
    """f composed with the reflection in the given positive root (an involution)."""
    rs = f.ring
    memo = {0: {0: 1}}   # s_alpha(u^E) by packed E, for this call only
    step = reflection_step(rs, root_index)
    return MultiPoly(rs, _map_monomials(
        rs, f.terms, lambda u: monomial_table(memo, step, u)))


def divided_difference(f: MultiPoly, root_index) -> MultiPoly:
    """(f - s_alpha f) / (alpha, x) by Taylor's formula.  (alpha, alpha) = 2,
    so s_alpha x = x - (alpha, x) alpha, and with t = (alpha, x)

        dd_alpha f = g_1 - t (g_2 - t (g_3 - ...)),  g_j = d_alpha g_{j-1} / j,

    g_0 = f and d_alpha = sum_i (alpha_i, alpha) d/du_i.  No reflection or
    memo table is formed, so this shares nothing with the Dunkl kernel, which
    the tests check against it.  g_j = d_alpha^j f / j! has integer
    coordinates whenever f has."""
    rs = f.ring
    weights = [(i, MultiPoly(rs, _flat(rs, (w,))))
               for i, w in enumerate(rs.pair_vectors()[root_index]) if any(w)]
    gs = [f]   # g_0, g_1, ... up to the first zero
    while not gs[-1].is_zero():
        dg = sum((gs[-1].partial(i) * w for i, w in weights), MultiPoly.zero(rs))
        gs.append(MultiPoly(rs, {key: qdiv(x, len(gs))
                                 for key, x in dg.terms.items()}))
    t = root_linear_form(rs, root_index)
    dd = MultiPoly.zero(rs)
    for g in reversed(gs[1:]):
        dd = g - t * dd
    return dd


def build_discriminant(rs) -> MultiPoly:
    """Product of (alpha, x) over all positive roots (cached on the root system)."""
    def build():
        delta = MultiPoly.one(rs)
        for i in range(rs.num_positive):
            delta = delta * root_linear_form(rs, i)
        return delta
    return rs._cache("discriminant", build)
