"""Sparse multivariate polynomials in the root pairing coordinates u_i.

A polynomial lives over a fixed root system: the variables are the linear
functionals u_i = (alpha_i, x) attached to the simple roots, coefficients
are KPoly values in the deformation parameter k, and every operation is
exact.  Exponent vectors are packed into a single integer key (10 bits per
variable) for fast dictionary arithmetic.
"""

from __future__ import annotations

from .errors import ExactDivisionError, FieldMismatchError
from .scalars import (KPoly, _acc, _compatible, _mul_into, _normalize, _trim,
                      as_kpoly, as_rational, join_terms)

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


class MultiPoly:
    """Exact sparse polynomial over a root system's coordinate ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms  # dict: packed exponent -> tuple of raw k-coeffs

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def constant(cls, ring, value):
        kco = as_kpoly(ring.spec, value).co
        return cls(ring, {0: kco} if kco else {})

    @classmethod
    def one(cls, ring):
        return cls.constant(ring, 1)

    @classmethod
    def variable(cls, ring, i, power=1):
        if not 0 <= i < ring.rank:
            raise ValueError("variable index out of range")
        if power == 0:
            return cls.one(ring)
        key = pack_exponents(tuple(power if j == i else 0 for j in range(ring.rank)))
        return cls(ring, {key: (ring.spec.raw_one(),)})

    @classmethod
    def from_terms(cls, ring, mapping):
        """Build from {exponent tuple: coefficient} with KPoly / field / rational values."""
        sp = ring.spec
        dst = {}
        for exps, value in mapping.items():
            _acc(sp, dst, pack_exponents(exps), as_kpoly(sp, value).co)
        return cls(ring, _normalize(sp, dst))

    @classmethod
    def linear_form(cls, ring, coeffs):
        """sum_j coeffs[j] * u_j for field/rational coefficients."""
        sp = ring.spec
        dst = {}
        for j, cf in enumerate(coeffs):
            raw = sp.raw(cf)
            if not sp.raw_is_zero(raw):
                _acc(sp, dst, 1 << (EXP_BITS * j), (raw,))
        return cls(ring, _normalize(sp, dst))

    # -- inspection -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            return -1
        r = self.ring.rank
        return max(key_degree(k, r) for k in self.terms)

    def is_homogeneous(self):
        if not self.terms:
            return True
        r = self.ring.rank
        degs = {key_degree(k, r) for k in self.terms}
        return len(degs) == 1

    def term_items(self):
        """Deterministic list of (exponent tuple, KPoly) pairs, graded order."""
        r = self.ring.rank
        sp = self.ring.spec
        keys = sorted(self.terms,
                      key=lambda k: (-key_degree(k, r),
                                     tuple(-e for e in unpack_exponents(k, r))))
        return [(unpack_exponents(k, r), KPoly(sp, self.terms[k])) for k in keys]

    def coefficient(self, exps) -> KPoly:
        return KPoly(self.ring.spec, self.terms.get(pack_exponents(exps), ()))

    def _check_ring(self, other):
        if self.ring is other.ring:
            return
        if (self.ring.rank != other.ring.rank
                or not _compatible(self.ring.spec, other.ring.spec)):
            raise FieldMismatchError("polynomials from incompatible rings")

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.ring, other)
        self._check_ring(other)
        sp = self.ring.spec
        dst = {k: list(v) for k, v in self.terms.items()}
        for k, v in other.terms.items():
            _acc(sp, dst, k, v)
        return MultiPoly(self.ring, _normalize(sp, dst))

    __radd__ = __add__

    def __neg__(self):
        sp = self.ring.spec
        return MultiPoly(self.ring, {
            k: tuple(sp.raw_neg(c) for c in v) for k, v in self.terms.items()})

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
        sp = self.ring.spec
        dst = {}
        _mul_into(sp, dst, self.terms.items(), other.terms.items())
        return MultiPoly(self.ring, _normalize(sp, dst))

    __rmul__ = __mul__

    def scale(self, value):
        """Multiply by a KPoly / FieldElement / rational scalar."""
        return self * MultiPoly.constant(self.ring, value)

    def k_shift(self, n):
        """Multiply every coefficient by k^n."""
        sp = self.ring.spec
        pad = (sp.raw_zero(),) * n
        return MultiPoly(self.ring, {k: pad + v for k, v in self.terms.items()})

    def partial(self, i):
        """Derivative with respect to u_i (the dual-basis direction omega_i)."""
        if not 0 <= i < self.ring.rank:
            raise ValueError("variable index out of range")
        sp = self.ring.spec
        step = 1 << (EXP_BITS * i)
        dst = {}
        for k, v in self.terms.items():
            e = (k >> (EXP_BITS * i)) & EXP_MASK
            if not e:
                continue
            _acc(sp, dst, k - step, [sp.raw_scale(c, e) for c in v])
        return MultiPoly(self.ring, _normalize(sp, dst))

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            try:
                other = MultiPoly.constant(self.ring, other)
            except (TypeError, FieldMismatchError):
                return NotImplemented
        if self.ring is not other.ring:
            if (self.ring.rank != other.ring.rank
                    or not _compatible(self.ring.spec, other.ring.spec)):
                return False
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((k, v) for k, v in self.terms.items()))

    # -- evaluation -----------------------------------------------------------

    def eval_field(self, point):
        """Exact evaluation at a tuple of FieldElements / rationals (k stays formal)."""
        sp = self.ring.spec
        raws = [sp.raw(p) for p in point]
        acc = {}
        r = self.ring.rank
        for k, v in self.terms.items():
            mono = sp.raw_one()
            for i in range(r):
                e = (k >> (EXP_BITS * i)) & EXP_MASK
                for _ in range(e):
                    mono = sp.raw_mul(mono, raws[i])
            _acc(sp, acc, 0, [sp.raw_mul(c, mono) for c in v])
        return KPoly(sp, acc.get(0, ()))

    def float_terms(self, k_value):
        """[(exponent tuple, float coefficient)] with k specialized to k_value."""
        sp = self.ring.spec
        kq = as_rational(k_value)
        out = []
        r = self.ring.rank
        for k, v in self.terms.items():
            acc = sp.raw_zero()
            p = 1
            for c in v:
                acc = sp.raw_add(acc, sp.raw_scale(c, p))
                p = p * kq
            if not sp.raw_is_zero(acc):
                out.append((unpack_exponents(k, r), sp.raw_float(acc)))
        return out

    # -- serialization ---------------------------------------------------------

    def to_string(self, var_prefix="u"):
        parts = []
        for exps, kp in self.term_items():
            mono = "*".join(
                f"{var_prefix}{i+1}" if e == 1 else f"{var_prefix}{i+1}^{e}"
                for i, e in enumerate(exps) if e)
            cs = str(kp.coeff(0)) if kp.degree == 0 else kp.to_string()
            simple_rat = (kp.degree <= 0 and kp.is_rational_coeffs())
            if not mono:
                s = cs if simple_rat else f"({cs})"
            elif simple_rat and cs == "1":
                s = mono
            elif simple_rat and cs == "-1":
                s = f"-{mono}"
            elif simple_rat:
                s = f"{cs}*{mono}"
            else:
                s = f"({cs})*{mono}"
            parts.append(s)
        return join_terms(parts)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"<MultiPoly {self.to_string()}>"


# ---------------------------------------------------------------------------
# reflections, divided differences, discriminant
# ---------------------------------------------------------------------------


def root_linear_form(rs, root_index) -> MultiPoly:
    """(alpha, x) as a polynomial; its coefficient vector is the root's coordinates."""
    return MultiPoly.linear_form(rs, rs.positive_roots[root_index])


def reflection_forms(rs, root_index):
    """s_alpha(u_i) = u_i - (alpha_i, alpha) * (alpha, x) for each i, as
    ((packed, (raw coeff,)), ...) term tuples (cached per root)."""
    def build():
        sp = rs.spec
        pair = rs.pair_vectors()[root_index]
        croot = rs.roots_raw()[root_index]
        forms = []
        for i in range(rs.rank):
            form = []
            for l in range(rs.rank):
                cf = sp.raw_neg(sp.raw_mul(pair[i], croot[l]))
                if l == i:
                    cf = sp.raw_add(cf, sp.raw_one())
                if not sp.raw_is_zero(cf):
                    form.append((1 << (EXP_BITS * l), (cf,)))
            forms.append(tuple(form))
        return tuple(forms)
    return rs._cache(("refl_forms", root_index), build)


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


def _reflected_monomial(rs, root_index, key):
    """Image of the monomial u^E under s_alpha: s(u^E) = s(u_i) s(u^(E-e_i))."""
    sp = rs.spec
    forms = reflection_forms(rs, root_index)

    def step(i, prev_key, prev):
        dst = {}
        _mul_into(sp, dst, forms[i], prev.items())
        return _normalize(sp, dst)

    memo = rs._cache(("refl_img", root_index),
                     lambda: {0: {0: (sp.raw_one(),)}})
    return monomial_table(memo, step, key)


def apply_reflection(f: MultiPoly, root_index) -> MultiPoly:
    """f composed with the reflection in the given positive root (an involution)."""
    rs = f.ring
    sp = rs.spec
    dst = {}
    for key, kco in f.terms.items():
        _mul_into(sp, dst, ((0, kco),),
                  _reflected_monomial(rs, root_index, key).items())
    return MultiPoly(rs, _normalize(sp, dst))


def divided_difference(f: MultiPoly, root_index) -> MultiPoly:
    """(f - s_alpha f) / (alpha, x), with the division certified exact."""
    rs = f.ring
    g = f - apply_reflection(f, root_index)
    return divide_by_root_form(g, root_index)


def divide_by_root_form(g: MultiPoly, root_index) -> MultiPoly:
    """Exact division by the linear form (alpha, x); raises if a remainder is left.

    Synthetic division along the pivot variable: terms are peeled in strictly
    decreasing pivot exponent, so every key is final before it is processed."""
    rs = g.ring
    sp = rs.spec
    croot = rs.roots_raw()[root_index]
    pivot = None
    for j in range(rs.rank):
        if any(croot[j]):
            pivot = j
            break
    inv = sp.raw_inv(croot[pivot])
    step = 1 << (EXP_BITS * pivot)
    others = [(1 << (EXP_BITS * l), croot[l])
              for l in range(rs.rank) if l != pivot and any(croot[l])]

    def pivot_exp(key):
        return (key >> (EXP_BITS * pivot)) & EXP_MASK

    rem = {k: list(v) for k, v in g.terms.items()}
    buckets = {}
    for k in rem:
        buckets.setdefault(pivot_exp(k), set()).add(k)
    quot = {}
    for e in range(max(buckets, default=0), 0, -1):
        for key in sorted(buckets.get(e, ())):
            kco = _trim(sp, rem.pop(key, ()))
            if not kco:
                continue
            qk = key - step
            qco = [sp.raw_mul(c, inv) for c in kco]
            _acc(sp, quot, qk, qco)
            for step2, cf in others:
                k2 = qk + step2
                if k2 not in rem:
                    rem[k2] = []
                    buckets.setdefault(e - 1, set()).add(k2)
                _acc(sp, rem, k2, [sp.raw_neg(sp.raw_mul(c, cf)) for c in qco])
    if _normalize(sp, rem):
        raise ExactDivisionError(
            f"division by root form {root_index} left remainder")
    return MultiPoly(rs, _normalize(sp, quot))


def build_discriminant(rs) -> MultiPoly:
    """Product of (alpha, x) over all positive roots (cached on the root system)."""
    def build():
        delta = MultiPoly.one(rs)
        for i in range(rs.num_positive):
            delta = delta * root_linear_form(rs, i)
        return delta
    return rs._cache("discriminant", build)
