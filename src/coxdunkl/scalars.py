"""Exact scalar arithmetic in the real fields QQ(2cos(pi/m)).

Every exact quantity in the library is a rational combination of powers of
c = 2cos(pi/m) for a single m fixed by the reflection group: arithmetic is
done modulo the minimal polynomial of c, and the real embedding sends c to
the largest real root of that polynomial.  That root is isolated exactly:
a Sturm sequence over QQ counts the real roots in a rational interval, and a
narrow bracket around a float estimate of the root is kept only when the
counts show it holds that root alone; otherwise bisection from the Cauchy
bound narrows to such a bracket.  Sign decisions refine the bracket by
bisection until the interval of the evaluated element, taken by Horner's
rule on Python ints, excludes zero.

A field element is a tuple of coordinates in the power basis of c.  Integral
values are `int`; `rat` (`fractions.Fraction`) appears only where a
denominator does.  Root coordinates, Gram entries, reflections, divided
differences and the discriminant and its norm b(k) all lie in Z[c], because
the minimal polynomial of c is monic and none of them divides, so they are
computed in Python ints.  Every quotient goes through `qdiv`, which is exact
and never returns a float.

KPoly is a dense univariate polynomial over such a field.  It carries the
formal deformation parameter k through the Dunkl calculus and doubles as
the q-variable for length generating functions.  It has its own dense add
and convolution (the sparse multivariate polynomials keep flat int dicts,
see `polynomials`); `KPoly.divmod` is the one long division and
`kpoly_xgcd` the one Euclid: inverses of irrational field elements, gcds
and the minimal polynomials of 2cos(pi/m) (worked over `QQ`) all go
through them.
"""

from __future__ import annotations

import math
from fractions import Fraction as rat
from functools import lru_cache
from operator import add, ne, neg, sub

from .errors import FieldMismatchError, PrecisionExhaustedError

#: the exact zero and one (plain ints, like every integral value)
R0 = 0
R1 = 1

#: hard bound on bisection depth for sign decisions
MAX_SIGN_BITS = 4096

_RAT_OK = (int, rat)


def as_rational(x):
    """Coerce an int / Fraction to the exact scalar type: an `int`
    when the value is integral, `rat` otherwise."""
    if type(x) is int:
        return x
    if isinstance(x, _RAT_OK):
        if x.denominator == 1:
            return int(x.numerator)
        return x if type(x) is rat else rat(x.numerator, x.denominator)
    raise TypeError(f"not a rational value: {x!r}")


def _demoted(co):
    """A coordinate tuple with its integral values as ints."""
    for x in co:
        if type(x) is not int:
            return tuple(map(as_rational, co))
    return tuple(co)


def qdiv(a, b):
    """The exact quotient a / b of two exact scalars (`/` on two ints would
    give a float)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return rat(a, b) if r else q
    return as_rational(a / b)   # a or b is a rat, so `/` is exact


# ---------------------------------------------------------------------------
# field specification
# ---------------------------------------------------------------------------


class FieldSpec:
    """QQ[x]/(p(x)) with the generator embedded as the largest real root of p.

    `top`, a float estimate of that root, lets the bracket start next to it
    after three Sturm counts instead of bisecting from the Cauchy bound."""

    __slots__ = ("min_poly", "degree", "_pow", "_lo", "_hi", "_zero", "_one")

    def __init__(self, min_poly, top=None):
        mp_ = tuple(int(a) for a in min_poly)
        if len(mp_) < 2 or mp_[-1] != 1:
            raise ValueError("minimal polynomial must be monic of degree >= 1")
        self.min_poly = mp_
        self.degree = len(mp_) - 1
        d = self.degree
        # reduction rows: coordinates of c^d, ..., c^(2d-2)
        rows = []
        cur = [-a for a in mp_[:-1]]
        rows.append(tuple(cur))
        for _ in range(d - 2):
            lead = cur[-1]
            cur = [0] + cur[:-1]
            if lead:
                base = rows[0]
                cur = [cur[j] + lead * base[j] for j in range(d)]
            rows.append(tuple(cur))
        self._pow = tuple(rows)
        self._zero = (0,) * d
        self._one = (1,) + (0,) * (d - 1)
        self._init_bracket(top)

    # -- real embedding -----------------------------------------------------

    def _peval(self, x):
        """p(x) q^d for a rational x = n/q: an int of the sign of p(x)."""
        n, q = x.numerator, x.denominator
        acc, scale = 0, 1
        for a in reversed(self.min_poly):
            acc = acc * n + a * scale
            scale *= q
        return acc

    def _init_bracket(self, top):
        p = self.min_poly
        if self.degree == 1:
            self._lo = self._hi = -p[0]
            return
        # Sturm sequence p, p', -rem(p, p'), ...: V(lo) - V(hi) counts the
        # distinct roots in (lo, hi]
        seq = [KPoly(QQ, [(a,) for a in p]),
               KPoly(QQ, [(i * a,) for i, a in enumerate(p)][1:])]
        while seq[-1].degree > 0:
            seq.append(-seq[-2].divmod(seq[-1])[1])

        def changes(x):
            signs = [v > 0 for f in seq if (v := f.raw_at(x)[0])]
            return sum(map(ne, signs, signs[1:]))

        hi = rat(1 + max(map(abs, p[:-1])))   # Cauchy: every root is below
        lo = -hi
        v_hi = changes(hi)
        if top is not None:
            # the cell of the bisection below that holds the estimate at
            # width <= 2^-30, kept if it holds the largest root alone (so
            # refine_to reaches the brackets the bisection would)
            width = hi - lo
            while width > rat(1, 1 << 30):
                width /= 2
            a = lo + (rat(top) - lo) // width * width
            v_b = changes(a + width)
            if v_b == v_hi and changes(a) == v_b + 1:
                self._lo, self._hi = a, a + width
                return
        v_lo = changes(lo)
        if v_lo == v_hi:
            raise ValueError("minimal polynomial has no real root")
        while v_lo - v_hi > 1:
            mid = (lo + hi) / 2
            v_mid = changes(mid)
            if v_mid > v_hi:
                lo, v_lo = mid, v_mid
            else:
                hi, v_hi = mid, v_mid
        self._lo, self._hi = lo, hi

    def refine_to(self, bits):
        """Shrink the generator bracket to width <= 2^-bits (exact bisection)."""
        if self.degree == 1:
            return
        target = rat(1, 1 << bits)
        lo, hi = self._lo, self._hi
        while hi - lo > target:
            mid = (lo + hi) / 2
            s = self._peval(mid)
            if s > 0:
                hi = mid
            elif s < 0:
                lo = mid
            else:  # pragma: no cover - irreducible p has no rational root
                lo = hi = mid
                break
        self._lo, self._hi = lo, hi

    def generator_interval(self, bits):
        self.refine_to(bits)
        return self._lo, self._hi

    # -- raw coordinate-tuple arithmetic -------------------------------------

    def raw_zero(self):
        return self._zero

    def raw_one(self):
        return self._one

    def raw(self, value):
        """Coordinates of a FieldElement of this field or of a rational: the
        one coercion of a value into a raw tuple.  Integral rationals become
        ints; a FieldElement of another field raises FieldMismatchError."""
        if isinstance(value, FieldElement):
            if not _compatible(self, value.spec):
                raise FieldMismatchError(
                    f"mixed fields {self.min_poly} vs {value.spec.min_poly}")
            return value.co
        return (as_rational(value),) + (0,) * (self.degree - 1)

    def raw_add(self, a, b):
        return tuple(map(add, a, b))

    def raw_sub(self, a, b):
        return tuple(map(sub, a, b))

    def raw_neg(self, a):
        return tuple(map(neg, a))

    def raw_mul(self, a, b):
        d = self.degree
        if d == 1:
            return (a[0] * b[0],)
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        pow_ = self._pow
        for i in range(2 * d - 2, d - 1, -1):
            c = prod[i]
            if c:
                row = pow_[i - d]
                for j in range(d):
                    prod[j] += c * row[j]
        return tuple(prod[:d])

    def raw_inv(self, a):
        if not any(a):
            raise ZeroDivisionError("field inverse of zero")
        if not any(a[1:]):
            return (qdiv(1, a[0]),) + (0,) * (self.degree - 1)
        # s*a == g (mod min_poly), and g == 1 unless a is a zero divisor
        g, inv = kpoly_xgcd(KPoly(QQ, [(x,) for x in a]),
                            KPoly(QQ, [(x,) for x in self.min_poly]))
        if g.degree:
            raise ZeroDivisionError("zero divisor in field inverse")
        return tuple(x for (x,) in inv.co) + (0,) * (self.degree - len(inv.co))

    def raw_div(self, a, b):
        return self.raw_mul(a, self.raw_inv(b))

    def raw_is_zero(self, a):
        return not any(a)

    # -- interval evaluation and signs ---------------------------------------

    def _scaled_interval(self, a, bits):
        """(lo, hi, scale), ints with [lo/scale, hi/scale] the interval Horner
        enclosure of sum(a_i c^i) at generator width 2^-bits: over the
        bracket's common denominator D and the coordinates' M, the enclosure
        after the coordinate of c^i is scaled by M D^(d-1-i)."""
        lo, hi = self.generator_interval(bits)
        den = math.lcm(lo.denominator, hi.denominator)
        lo, hi = int(lo * den), int(hi * den)
        scale = math.lcm(*(x.denominator for x in a))
        alo = ahi = int(a[-1] * scale)
        for coeff in reversed(a[:-1]):
            p1, p2, p3, p4 = alo * lo, alo * hi, ahi * lo, ahi * hi
            scale *= den
            shift = int(coeff * scale)
            alo = min(p1, p2, p3, p4) + shift
            ahi = max(p1, p2, p3, p4) + shift
        return alo, ahi, scale

    def raw_interval(self, a, bits):
        """Exact rational interval enclosing sum(a_i c^i) at generator width 2^-bits."""
        if self.degree == 1:
            return a[0], a[0]
        lo, hi, scale = self._scaled_interval(a, bits)
        return qdiv(lo, scale), qdiv(hi, scale)

    def raw_sign(self, a):
        if not any(a):
            return 0
        if self.degree == 1:
            return 1 if a[0] > 0 else -1
        bits = 64
        while bits <= MAX_SIGN_BITS:
            lo, hi, _ = self._scaled_interval(a, bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits <<= 1
        raise PrecisionExhaustedError(
            f"sign undecided at {MAX_SIGN_BITS} bits for {a!r}")

    def raw_embed(self, a, precision_bits):
        """Interval of width <= 2^-precision_bits * max(1, |value|)."""
        if self.degree == 1 or not any(a):
            v = a[0] if a else 0
            return v, v
        bits = max(64, precision_bits)
        while True:
            lo, hi = self.raw_interval(a, bits)
            mid = qdiv(lo + hi, 2)
            bound = qdiv(max(1, abs(mid)), 1 << precision_bits)
            if hi - lo <= bound:
                return lo, hi
            if bits > precision_bits + MAX_SIGN_BITS:  # pragma: no cover
                raise PrecisionExhaustedError("embedding refinement diverged")
            bits <<= 1

    def raw_float(self, a):
        lo, hi = self.raw_embed(a, 60)
        return float(qdiv(lo + hi, 2))

    def raw_str(self, a):
        """a as printed: the rational alone, else its c^i terms from the
        highest down."""
        if not any(a[1:]):
            return str(a[0])
        return join_terms([term_str(str(x), power("c", i), True)
                           for i, x in reversed(list(enumerate(a))) if x])

    # -- misc ----------------------------------------------------------------

    def element(self, *coords):
        if len(coords) > self.degree:
            raise ValueError("too many coordinates")
        return FieldElement(self, coords + (0,) * (self.degree - len(coords)))

    def zero(self):
        return FieldElement(self, self._zero)

    def one(self):
        return FieldElement(self, self._one)

    def gen(self):
        """The generator c as a field element."""
        if self.degree == 1:
            return FieldElement(self, (-self.min_poly[0],))
        co = [0] * self.degree
        co[1] = 1
        return FieldElement(self, tuple(co))

    def from_rational(self, q):
        return FieldElement(self, self.raw(q))

    def __repr__(self):
        return f"FieldSpec(min_poly={self.min_poly})"


def _compatible(s1, s2):
    return s1 is s2 or s1.min_poly == s2.min_poly


#: the rationals: minimal polynomials, field inverses and the degrees of a
#: Poincare polynomial are worked out over them
QQ = FieldSpec((0, 1))


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------


class FieldElement:
    """Immutable element of a FieldSpec, stored in reduced coordinates
    (integral ones as ints)."""

    __slots__ = ("spec", "co")

    def __init__(self, spec, co):
        self.spec = spec
        self.co = _demoted(co)

    def _coerce(self, other):
        if isinstance(other, _SCALAR_TYPES):
            return self.spec.raw(other)
        return None

    def __add__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.raw_add(self.co, oc))

    __radd__ = __add__

    def __sub__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.raw_sub(self.co, oc))

    def __rsub__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.raw_sub(oc, self.co))

    def __mul__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.raw_mul(self.co, oc))

    __rmul__ = __mul__

    def __truediv__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.raw_div(self.co, oc))

    def __rtruediv__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.raw_div(oc, self.co))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.raw_neg(self.co))

    def __eq__(self, other):
        oc = self._coerce(other) if not isinstance(other, FieldElement) else None
        if isinstance(other, FieldElement):
            if not _compatible(self.spec, other.spec):
                return False
            return self.co == other.co
        if oc is None:
            return NotImplemented
        return self.co == oc

    def __hash__(self):
        return hash((self.spec.min_poly, self.co))

    def __bool__(self):
        return any(self.co)

    def sign(self):
        return self.spec.raw_sign(self.co)

    def real_interval(self, precision_bits=53):
        """Exact rational enclosure of the embedded value."""
        if precision_bits < 1:
            raise ValueError("precision_bits must be positive")
        return self.spec.raw_embed(self.co, precision_bits)

    def __float__(self):
        return self.spec.raw_float(self.co)

    def is_rational(self):
        return all(not x for x in self.co[1:])

    def rational(self):
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.co[0]

    def __str__(self):
        return self.spec.raw_str(self.co)

    def __repr__(self):
        return f"<{self}>"


#: the values `FieldSpec.raw` accepts
_SCALAR_TYPES = (FieldElement,) + _RAT_OK


def power(var, i):
    """var^i as printed: "" for i = 0, var for i = 1."""
    return f"{var}^{i}" if i > 1 else var if i else ""


def term_str(coeff, mono, plain, times="*"):
    """The printed coefficient `coeff` times the monomial `mono` ("" for 1):
    the one term rule of the printers.  A coefficient that is not a plain
    rational is parenthesized and joined by "*"; a plain one is joined by
    `times`, and a plain 1 or -1 before a monomial leaves only its sign."""
    if not plain:
        return f"({coeff})*{mono}" if mono else f"({coeff})"
    if not mono:
        return coeff
    if coeff == "1":
        return mono
    if coeff == "-1":
        return "-" + mono
    return coeff + times + mono


def join_terms(parts):
    """Signed term strings joined as `a + b - c`; "0" for no terms."""
    if not parts:
        return "0"
    return parts[0] + "".join(f" - {s[1:]}" if s.startswith("-") else f" + {s}"
                              for s in parts[1:])


# ---------------------------------------------------------------------------
# univariate polynomials over a field
# ---------------------------------------------------------------------------


class KPoly:
    """Dense univariate polynomial over a FieldSpec (formal parameter k or q)."""

    __slots__ = ("spec", "co")

    def __init__(self, spec, raw_coeffs):
        self.spec = spec
        co = list(raw_coeffs)
        while co and not any(co[-1]):
            co.pop()
        self.co = tuple(map(_demoted, co))

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, spec):
        return cls(spec, ())

    @classmethod
    def one(cls, spec):
        return cls(spec, (spec.raw_one(),))

    @classmethod
    def const(cls, spec, value):
        return cls(spec, (spec.raw(value),))

    @classmethod
    def gen(cls, spec):
        return cls(spec, (spec.raw_zero(), spec.raw_one()))

    @classmethod
    def from_coeffs(cls, spec, values):
        """Ascending coefficients given as rationals or FieldElements."""
        return cls(spec, [spec.raw(v) for v in values])

    # -- structure -----------------------------------------------------------

    @property
    def degree(self):
        return len(self.co) - 1

    def is_zero(self):
        return not self.co

    def coeff(self, i):
        if 0 <= i < len(self.co):
            return FieldElement(self.spec, self.co[i])
        return FieldElement(self.spec, self.spec.raw_zero())

    def leading(self):
        if not self.co:
            return FieldElement(self.spec, self.spec.raw_zero())
        return FieldElement(self.spec, self.co[-1])

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (KPoly,) + _SCALAR_TYPES):
            return as_kpoly(self.spec, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = sorted((self.co, o.co), key=len)
        add = self.spec.raw_add
        return KPoly(self.spec, [add(x, y) if any(x) else y
                                 for x, y in zip(a, b)] + list(b[len(a):]))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __neg__(self):
        sp = self.spec
        return KPoly(sp, [sp.raw_neg(a) for a in self.co])

    def __mul__(self, other):
        """Dense convolution; zero coefficients of either side are skipped."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        sp = self.spec
        mul, add = sp.raw_mul, sp.raw_add
        b = [(j, y) for j, y in enumerate(o.co) if any(y)]
        out = [sp.raw_zero()] * (len(self.co) + len(o.co))
        for i, x in enumerate(self.co):
            if any(x):
                for j, y in b:
                    p = mul(x, y)
                    out[i + j] = add(out[i + j], p) if any(out[i + j]) else p
        return KPoly(sp, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = KPoly.one(self.spec)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def raw_at(self, x):
        """The value at x (a rational or a field element) as raw coordinates,
        by Horner's rule."""
        sp = self.spec
        xr = sp.raw(x)
        acc = sp.raw_zero()
        for a in reversed(self.co):
            acc = sp.raw_add(sp.raw_mul(acc, xr), a)
        return acc

    def __call__(self, x):
        return FieldElement(self.spec, self.raw_at(x))

    def divmod(self, other):
        o = self._coerce(other)
        if o is None or not isinstance(o, KPoly):
            raise TypeError("divmod by non-polynomial")
        sp = self.spec
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.co)
        dq = len(self.co) - len(o.co)
        if dq < 0:
            return KPoly.zero(sp), self
        inv_lead = sp.raw_inv(o.co[-1])
        monic = inv_lead == sp.raw_one()
        terms = [(j, y) for j, y in enumerate(o.co) if any(y)]
        q = [sp.raw_zero()] * (dq + 1)
        for i in range(dq, -1, -1):
            c = rem[i + len(o.co) - 1]
            if not monic:
                c = sp.raw_mul(c, inv_lead)
            q[i] = c
            if not sp.raw_is_zero(c):
                for j, y in terms:
                    rem[i + j] = sp.raw_sub(rem[i + j], sp.raw_mul(c, y))
        return KPoly(sp, q), KPoly(sp, rem[:len(o.co) - 1])

    def __eq__(self, other):
        if isinstance(other, KPoly):
            return _compatible(self.spec, other.spec) and self.co == other.co
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.co == o.co

    def __hash__(self):
        return hash((self.spec.min_poly, self.co))

    def to_string(self, var="k"):
        """Terms from the highest power down; a rational coefficient is
        written against its power of `var` (`2k`, `-1/2k`)."""
        raw_str = self.spec.raw_str
        return join_terms([term_str(raw_str(a), power(var, i), not any(a[1:]), "")
                           for i, a in reversed(list(enumerate(self.co)))
                           if any(a)])

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"<KPoly {self.to_string()}>"


def as_kpoly(spec, value) -> KPoly:
    """A KPoly, FieldElement or rational value as a KPoly over `spec`; a value
    from another field raises FieldMismatchError."""
    if isinstance(value, KPoly):
        if not _compatible(spec, value.spec):
            raise FieldMismatchError("mixed fields in polynomial arithmetic")
        return value
    return KPoly.const(spec, value)


def kpoly_divexact(a: KPoly, b: KPoly) -> KPoly:
    """a / b; raises ArithmeticError when b does not divide a."""
    q, r = a.divmod(b)
    if not r.is_zero():
        raise ArithmeticError("inexact polynomial division")
    return q


def kpoly_xgcd(a: KPoly, b: KPoly):
    """(g, s): g the monic gcd of a and b, and s*a == g modulo b."""
    sp = a.spec
    r0, r1 = a, b
    s0, s1 = KPoly.one(sp), KPoly.zero(sp)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.is_zero():
        return r0, s0
    scale = KPoly(sp, (sp.raw_inv(r0.co[-1]),))
    return r0 * scale, s0 * scale


def kpoly_gcd(a: KPoly, b: KPoly) -> KPoly:
    """Monic gcd over the coefficient field."""
    return kpoly_xgcd(a, b)[0]


# ---------------------------------------------------------------------------
# the fields QQ(2cos(pi/m))
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def minimal_poly_2cos(m: int) -> tuple:
    """Monic integer minimal polynomial of 2cos(pi/m), ascending coefficients.

    2cos(pi/m) is a root of D_m(x) + 2, where D_0 = 2, D_1 = x and
    D_n = x D_(n-1) - D_(n-2), so that D_m(2cos t) = 2cos(mt); its roots are
    2cos((2j+1)pi/m).  Stripping the factor (x+2) for odd m and the squared
    minimal polynomials of 2cos(pi/m') for proper divisors m' of m with 2m'
    not dividing m leaves exactly the square of the wanted polynomial; its
    square root is recovered as gcd(f, f').
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    x = KPoly.gen(QQ)
    prev, f = KPoly.const(QQ, 2), x
    for _ in range(m - 1):
        prev, f = f, x * f - prev
    f = f + 2
    if m % 2:
        f = kpoly_divexact(f, KPoly.from_coeffs(QQ, [2, 1]))
    for mp in range(2, m):
        if m % mp == 0 and m % (2 * mp) != 0:
            g = KPoly.from_coeffs(QQ, minimal_poly_2cos(mp))
            f = kpoly_divexact(f, g * g)
    # f == h^2 with h squarefree, so h = gcd(f, f')
    deriv = KPoly.from_coeffs(QQ, [i * c for i, (c,) in enumerate(f.co)][1:])
    h = kpoly_gcd(f, deriv)
    out = tuple(c for (c,) in h.co)
    if any(type(c) is not int for c in out):
        raise ArithmeticError("non-integral minimal polynomial candidate")
    if h * h != f:
        raise ArithmeticError("square-root extraction failed")
    return out


@lru_cache(maxsize=None)
def cos_field(m: int) -> FieldSpec:
    """The field QQ(2cos(pi/m)) with its designated real embedding."""
    return FieldSpec(minimal_poly_2cos(m), top=2.0 * math.cos(math.pi / m))
