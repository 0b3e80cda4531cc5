import math
import random
from fractions import Fraction

import pytest

from coxdunkl.errors import FieldMismatchError
from coxdunkl.scalars import (QQ, FieldSpec, KPoly, as_rational, cos_field,
                              kpoly_gcd, kpoly_xgcd, minimal_poly_2cos, qdiv,
                              rat)


def test_minimal_poly_small_cases():
    # 2cos(pi/3) = 1, 2cos(pi/4) = sqrt(2), 2cos(pi/5) = golden ratio
    assert minimal_poly_2cos(3) == (-1, 1)
    assert minimal_poly_2cos(4) == (-2, 0, 1)
    assert minimal_poly_2cos(5) == (-1, -1, 1)
    assert minimal_poly_2cos(2) == (0, 1)
    assert minimal_poly_2cos(6) == (-3, 0, 1)
    # composite and odd m, where factors of D_m + 2 are stripped
    assert minimal_poly_2cos(7) == (1, -2, -1, 1)
    assert minimal_poly_2cos(8) == (2, 0, -4, 0, 1)
    assert minimal_poly_2cos(9) == (-1, -3, 0, 1)
    assert minimal_poly_2cos(10) == (5, 0, -5, 0, 1)
    assert minimal_poly_2cos(12) == (1, 0, -4, 0, 1)
    assert minimal_poly_2cos(15) == (1, -4, -4, 1, 1)
    assert minimal_poly_2cos(30) == (1, 0, -8, 0, 14, 0, -7, 0, 1)


def test_minimal_poly_numeric_root():
    # Chebyshev-style oracle: the polynomial must vanish at 2cos(pi/m)
    for m in range(2, 25):
        poly = minimal_poly_2cos(m)
        x = 2.0 * math.cos(math.pi / m)
        val = sum(c * x ** i for i, c in enumerate(poly))
        assert abs(val) < 1e-12, (m, val)


def test_minimal_poly_degree_matches_euler_phi():
    def phi(n):
        return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)

    for m in range(3, 25):
        assert len(minimal_poly_2cos(m)) - 1 == phi(2 * m) // 2


def test_embedding_is_largest_root():
    for m in (4, 5, 7, 9, 12):
        spec = cos_field(m)
        lo, hi = spec.generator_interval(64)
        target = 2.0 * math.cos(math.pi / m)
        assert lo <= rat(target) <= hi or abs(float((lo + hi) / 2) - target) < 1e-15


def test_field_arithmetic_defining_relations():
    # sqrt(2) * sqrt(2) = 2
    f4 = cos_field(4)
    c = f4.gen()
    assert c * c == f4.from_rational(2)
    # golden ratio: phi^2 = phi + 1
    f5 = cos_field(5)
    phi = f5.gen()
    assert phi * phi == phi + 1
    # plain rationals
    f3 = cos_field(3)
    assert f3.from_rational(rat(2, 3)) + rat(1, 6) == f3.from_rational(rat(5, 6))


@pytest.mark.parametrize("m", [4, 5, 7, 12])
def test_field_axioms_random_triples(m):
    spec = cos_field(m)
    rng = random.Random(1000 + m)
    d = spec.degree

    def rand_elem():
        return spec.element(*[rat(rng.randint(-9, 9), rng.randint(1, 9))
                              for _ in range(d)])

    for _ in range(200):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * (1 / a) == spec.one()


def test_division_errors():
    f4 = cos_field(4)
    with pytest.raises(ZeroDivisionError):
        f4.one() / f4.zero()
    f5 = cos_field(5)
    with pytest.raises(FieldMismatchError):
        f4.gen() + f5.gen()


def test_real_embed_values():
    f5 = cos_field(5)
    phi = f5.gen()
    lo, hi = phi.real_interval(40)
    golden = (1 + math.sqrt(5)) / 2
    assert float(lo) <= golden <= float(hi)
    assert float(hi - lo) <= 2 ** -40 * max(1.0, golden) * 1.0001
    z = f5.zero()
    assert z.real_interval(53) == (0, 0)
    f4 = cos_field(4)
    val = f4.gen() - 1
    assert abs(float(val) - (math.sqrt(2) - 1)) < 1e-12


def test_generator_bracket_isolates_the_largest_root():
    for m in range(2, 41):
        spec = FieldSpec(minimal_poly_2cos(m))
        # the conjugates of 2cos(pi/m) are 2cos(j pi/m), j odd and prime to m
        conj = sorted(2 * math.cos(j * math.pi / m) for j in range(1, m, 2)
                      if math.gcd(j, m) == 1)
        assert len(conj) == spec.degree
        lo, hi = spec._lo, spec._hi
        if spec.degree == 1:
            assert lo == hi == round(conj[0]) and spec._peval(lo) == 0
            continue
        assert spec._peval(lo) < 0 < spec._peval(hi)
        # exactly one root in (lo, hi], none above hi
        assert conj[-2] < float(lo) < conj[-1] < float(hi)
        c = float(cos_field(m).gen())
        assert abs(c - 2 * math.cos(math.pi / m)) <= math.ulp(c), m
    # complex roots are skipped: x^3 - 2 embeds c as the real cube root of 2
    spec = FieldSpec((-2, 0, 0, 1))
    assert spec._peval(spec._lo) < 0 < spec._peval(spec._hi)
    c = float(spec.gen())
    assert abs(c - 2 ** (1 / 3)) <= math.ulp(c)


def test_bracket_from_a_float_estimate_holds_the_largest_root():
    for m in list(range(3, 41)) + [128]:
        p = minimal_poly_2cos(m)
        top = 2 * math.cos(math.pi / m)
        spec = FieldSpec(p, top=top)
        lo, hi = spec._lo, spec._hi
        if spec.degree == 1:
            assert lo == hi == round(top)
            continue
        assert float(lo) <= top <= float(hi), m
        assert spec._peval(lo) < 0 < spec._peval(hi)
        # the conjugate below, 2cos(j pi/m) for the next odd j prime to m
        j = next(j for j in range(3, m, 2) if math.gcd(j, m) == 1)
        assert 2 * math.cos(j * math.pi / m) < float(lo), m
        if m <= 40:
            # refined, it is the bracket that bisection from the Cauchy
            # bound reaches, so every float embedding keeps its bits
            ref = FieldSpec(p)
            assert spec.generator_interval(64) == ref.generator_interval(64)
    # an estimate whose cell does not hold the largest root alone (here the
    # conjugate below it) falls back to bisection
    p = minimal_poly_2cos(7)
    spec = FieldSpec(p, top=2 * math.cos(3 * math.pi / 7))
    assert (spec._lo, spec._hi) == (FieldSpec(p)._lo, FieldSpec(p)._hi)


def test_real_embed_high_precision():
    # width contract holds at 200 bits, checked in exact rational arithmetic
    f5 = cos_field(5)
    phi = f5.gen()
    lo, hi = phi.real_interval(200)
    assert (hi - lo) * (1 << 200) <= 2
    # the interval brackets a genuine root: p(lo) and p(hi) straddle zero
    assert f5._peval(lo) <= 0 <= f5._peval(hi)


def test_real_embed_ring_homomorphism():
    # the product of enclosures must overlap the enclosure of the product
    f7 = cos_field(7)
    rng = random.Random(7)
    for _ in range(50):
        a = f7.element(*[rat(rng.randint(-5, 5), rng.randint(1, 4))
                         for _ in range(3)])
        b = f7.element(*[rat(rng.randint(-5, 5), rng.randint(1, 4))
                         for _ in range(3)])
        alo, ahi = a.real_interval(60)
        blo, bhi = b.real_interval(60)
        plo, phi_ = (a * b).real_interval(60)
        prods = [alo * blo, alo * bhi, ahi * blo, ahi * bhi]
        assert min(prods) <= phi_ and plo <= max(prods)


def test_sign_decisions():
    f5 = cos_field(5)
    phi = f5.gen()
    assert (phi - 1).sign() == 1            # golden ratio > 1
    assert (phi - 2).sign() == -1
    assert f5.zero().sign() == 0
    # 2cos(pi/12)^2 - 3 = sqrt(3) + 2 - 3 > 0 in QQ(2cos(pi/12))
    f12 = cos_field(12)
    c = f12.gen()
    assert (c * c - 3).sign() == 1


def _fraction_enclosure(spec, co, bits):
    """Interval Horner of sum(co_i c^i) in Fraction arithmetic."""
    lo, hi = map(Fraction, spec.generator_interval(bits))
    alo = ahi = Fraction(co[-1])
    for x in reversed(co[:-1]):
        prods = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(prods) + x, max(prods) + x
    return alo, ahi


@pytest.mark.parametrize("m", [5, 7, 12, 17, 30, 128])
def test_signs_match_an_exact_fraction_evaluation(m):
    # a fresh field: its bracket is refined only by the signs decided here,
    # while the Fraction references narrow the shared one
    spec = FieldSpec(minimal_poly_2cos(m), top=2 * math.cos(math.pi / m))
    ref = cos_field(m)
    d = spec.degree
    # c - p/q for a close rational p/q: too near zero for a 64-bit bracket
    glo, ghi = ref.generator_interval(256)
    pq = Fraction((glo + ghi) / 2).limit_denominator(10 ** 15)
    assert not glo <= pq <= ghi
    near = (-pq, 1) + (0,) * (d - 2)
    lo, hi = _fraction_enclosure(spec, near, 64)
    assert lo < 0 < hi
    assert spec.raw_sign(near) == (1 if glo > pq else -1)
    assert spec.raw_sign(tuple(-x for x in near)) == (1 if glo < pq else -1)
    assert spec.raw_sign((0,) * d) == 0
    rng = random.Random(m)
    samples = [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(12)]
    samples += [tuple(as_rational(Fraction(rng.randint(-9, 9),
                                           rng.randint(1, 6)))
                      for _ in range(d)) for _ in range(6)]
    for co in samples:
        lo, hi = _fraction_enclosure(ref, co, 256)
        assert lo > 0 or hi < 0, co   # 256 bits decide every sample here
        assert spec.raw_sign(co) == (1 if lo > 0 else -1), co
        assert spec.raw_interval(co, 64) == _fraction_enclosure(spec, co, 64)


def test_kpoly_mul_eval_agree():
    spec = cos_field(5)
    rng = random.Random(99)

    def rand_poly():
        return KPoly.from_coeffs(
            spec, [rat(rng.randint(-6, 6), rng.randint(1, 4))
                   for _ in range(rng.randint(1, 5))])

    for _ in range(50):
        p, q = rand_poly(), rand_poly()
        t = rat(rng.randint(-20, 20), rng.randint(1, 10))
        assert (p * q)(t) == p(t) * q(t)
        assert (p + q)(t) == p(t) + q(t)


def test_kpoly_divmod_and_gcd():
    spec = cos_field(3)
    a = KPoly.from_coeffs(spec, [2, 3, 1])          # (k+1)(k+2)
    b = KPoly.from_coeffs(spec, [1, 1])             # k+1
    q, r = a.divmod(b)
    assert r.is_zero() and q == KPoly.from_coeffs(spec, [2, 1])
    c = KPoly.from_coeffs(spec, [3, 4, 1])          # (k+1)(k+3)
    assert kpoly_gcd(a, c) == KPoly.from_coeffs(spec, [1, 1])


def test_kpoly_xgcd_bezout():
    # g is the monic gcd and s*a == g modulo b, over QQ and over QQ(phi)
    f5 = cos_field(5)
    for spec, c in ((QQ, rat(1, 3)), (f5, f5.gen())):
        x = KPoly.gen(spec)
        zero = KPoly.zero(spec)
        p = x * x + c                     # no root in either (real) field
        q = 2 * x - 3 + c
        common = x + c
        cases = [(p, q, KPoly.one(spec)),
                 (p * common, q * common * common, common),
                 (p * common * common, common, common),
                 (q, zero, x + (c - 3) / 2),
                 (zero, p, p),
                 (zero, zero, zero)]
        for a, b, expected in cases:
            g, s = kpoly_xgcd(a, b)
            assert g == expected and kpoly_gcd(a, b) == g
            assert g.is_zero() or g.leading() == 1
            if b.is_zero():
                assert s * a == g
            else:
                assert (s * a - g).divmod(b)[1].is_zero()
                assert s.degree < b.degree
            for f in (a, b):
                assert g.is_zero() or f.divmod(g)[1].is_zero()


def test_kpoly_strings():
    spec = cos_field(3)
    p = KPoly.from_coeffs(spec, [12, 78, 162, 108])
    assert p.to_string() == "108k^3 + 162k^2 + 78k + 12"
    assert KPoly.zero(spec).to_string() == "0"


def test_fieldspec_rejects_non_monic():
    with pytest.raises(ValueError):
        FieldSpec((1, 2))


def test_as_rational_demotes_integral_values_to_int():
    # integral values are ints whatever the rational backend is
    for x in (3, Fraction(6, 3), rat(4, 2), True):
        q = as_rational(x)
        assert type(q) is int and q == x
    third = as_rational(Fraction(1, 3))
    assert type(third) is rat and third == Fraction(1, 3)
    with pytest.raises(TypeError):
        as_rational(0.5)
    spec = cos_field(5)
    assert all(type(x) is int for x in spec.element(Fraction(4, 2), 3).co)
    assert all(type(x) is int for x in spec.gen().co + spec.one().co)


def test_divisions_of_ints_stay_exact():
    # `/` on two ints would give a float; every quotient is exact instead
    assert qdiv(6, 3) == 2 and type(qdiv(6, 3)) is int
    assert qdiv(1, 3) == rat(1, 3) and type(qdiv(1, 3)) is rat
    assert type(qdiv(rat(3, 2), rat(1, 2))) is int
    qq = FieldSpec((0, 1))
    inv = qq.raw_inv((3,))
    assert inv == (rat(1, 3),) and type(inv[0]) is rat
    assert qq.raw_inv((-1,)) == (-1,) and type(qq.raw_inv((-1,))[0]) is int
    f5 = cos_field(5)
    inv = f5.raw_inv(f5.gen().co)   # 1/phi = phi - 1
    assert inv == (-1, 1) and all(type(x) is int for x in inv)
    a = KPoly.from_coeffs(qq, [1, 0, 3])             # 3k^2 + 1
    b = KPoly.from_coeffs(qq, [2, 2])                # 2k + 2
    q, r = a.divmod(b)
    assert q == KPoly.from_coeffs(qq, [rat(-3, 2), rat(3, 2)])
    assert r == KPoly.from_coeffs(qq, [4])
    assert q * b + r == a
    g = kpoly_gcd(KPoly.from_coeffs(qq, [6, 5, 1]), KPoly.from_coeffs(qq, [3, 4, 1]))
    assert g == KPoly.from_coeffs(qq, [3, 1])
    for p in (q, r, g, kpoly_gcd(a, b)):
        assert not any(isinstance(x, float) for c in p.co for x in c)
    assert all(type(x) is int for c in g.co for x in c)
    # degree-1 embedding and float conversion of ints
    assert qq.raw_embed((7,), 53) == (7, 7)
    assert qq.raw_float((7,)) == 7.0 and f5.raw_float((1, 0)) == 1.0


def test_values_from_another_field_raise():
    f5, f7 = cos_field(5), cos_field(7)
    with pytest.raises(FieldMismatchError):
        KPoly.from_coeffs(f5, [1, f7.gen()])
    with pytest.raises(FieldMismatchError):
        KPoly.const(f5, f7.gen())
    with pytest.raises(FieldMismatchError):
        KPoly.gen(f5)(f7.gen())
    with pytest.raises(FieldMismatchError):
        KPoly.gen(f5) * KPoly.gen(f7)
    with pytest.raises(FieldMismatchError):
        f5.raw(f7.gen())
    assert f5.raw(f5.gen()) == (0, 1) and f5.raw(rat(2, 2)) == (1, 0)


def test_comparisons_across_fields_are_false():
    # equality never raises: a value of another field is simply unequal
    f5, f7 = cos_field(5), cos_field(7)
    k5, c7 = KPoly.gen(f5), f7.gen()
    assert not (k5 == c7) and k5 != c7
    assert not (c7 == k5) and c7 != k5
    assert KPoly.const(f5, 1) == 1 and KPoly.const(f5, f5.gen()) == f5.gen()
    assert f5.gen() != c7 and KPoly.gen(f5) != KPoly.gen(f7)


def test_kpoly_products_skip_zero_coefficients():
    # a sparse factor such as 1 - q^3 (Poincare and Chevalley products) must
    # form no product term for a zero coordinate, on either side: every
    # coordinate, zeros included, logs the products it takes part in
    f5 = cos_field(5)
    c = f5.gen()
    calls = []

    class Logged(int):
        def __mul__(self, other):
            calls.append((int(self), int(other)))
            return int(self) * int(other)

        __rmul__ = __mul__

    def logged(values):
        p = KPoly.from_coeffs(f5, values)
        p.co = tuple(tuple(map(Logged, a)) for a in p.co)
        return p

    sparse = logged([1, 0, 0, -1])
    dense = logged([c, 0, 2 * c + 1])
    products = [sparse * dense, dense * sparse, sparse * sparse]
    assert calls and all(x and y for x, y in calls)
    assert len(calls) == 2 * 2 * 3 + 2 * 2
    assert products[0] == products[1] == KPoly.from_coeffs(
        f5, [c, 0, 2 * c + 1, -c, 0, -2 * c - 1])
    assert products[2] == KPoly.from_coeffs(f5, [1, 0, 0, -2, 0, 0, 1])
    assert all(type(x) is int for p in products for a in p.co for x in a)


def test_kpoly_kernel_makes_no_field_call(monkeypatch):
    # products, sums and a division by a leading coefficient +-1 (as in
    # Chevalley's det(1 - q w)) run on flat coordinates: no raw field
    # operation, and no field inverse
    for m in (5, 7):
        spec = cos_field(m)
        c = spec.gen()
        a = KPoly.from_coeffs(spec, [1, c, 0, rat(1, 2), c * c])
        b = KPoly.from_coeffs(spec, [c, 2, -1])
        expected = [str(v) for v in (a * b, a + b, a - b, -a, *a.divmod(b))]

        def forbidden(*args):
            raise AssertionError("field call from the KPoly kernel")

        for name in ("raw_mul", "raw_add", "raw_sub", "raw_neg", "raw_inv"):
            monkeypatch.setattr(FieldSpec, name, forbidden)
        values = [a * b, a + b, a - b, -a, *a.divmod(b)]
        monkeypatch.undo()
        assert [str(v) for v in values] == expected


#: QQ(2cos(pi/m)) of degree 1, 2, 2, 3 and 4
KERNEL_FIELDS = (3, 4, 5, 7, 12)


def _field_points(spec, rng):
    """Rationals, c and mixed elements of `spec`, as evaluation points."""
    d = spec.degree
    pts = [spec.from_rational(rat(rng.randint(-9, 9), rng.randint(1, 5)))
           for _ in range(2)]
    pts.append(spec.gen())
    pts.append(spec.element(*(rat(rng.randint(-4, 4), rng.randint(1, 3))
                              for _ in range(d))))
    return pts


def _kernel_polys(spec, rng):
    """Dense polynomials with coefficients in c and rationals, sparse factors
    1 - q^d and 1 + c q^d, constants and zero."""
    d = spec.degree
    c = spec.gen()

    def coeff():
        kind = rng.randrange(4)
        if kind == 0:
            return 0
        if kind == 1:
            return rat(rng.randint(-7, 7), rng.randint(1, 4))
        return spec.element(*(rng.randint(-5, 5) for _ in range(d))) + \
            (c * c * rat(1, 2) if kind == 3 else 0)

    polys = [KPoly.from_coeffs(spec, [coeff() for _ in range(rng.randint(1, 7))])
             for _ in range(8)]
    for deg in (1, 3, 6):
        polys.append(KPoly.from_coeffs(spec, [1] + [0] * (deg - 1) + [-1]))
        polys.append(KPoly.from_coeffs(spec, [1] + [0] * (deg - 1) + [c]))
    polys += [KPoly.const(spec, c), KPoly.const(spec, rat(-3, 2)),
              KPoly.zero(spec)]
    return polys


@pytest.mark.parametrize("m", KERNEL_FIELDS)
def test_kpoly_arithmetic_matches_evaluation(m):
    # sums, differences, negations and products against their values at
    # field points, where evaluation multiplies by the field's own raw_mul
    spec = cos_field(m)
    rng = random.Random(4100 + m)
    polys = _kernel_polys(spec, rng)
    pts = _field_points(spec, rng)
    for _ in range(60):
        p, q = rng.choice(polys), rng.choice(polys)
        prod, total, diff = p * q, p + q, p - q
        for t in pts:
            pt, qt = p(t), q(t)
            assert prod(t) == pt * qt
            assert total(t) == pt + qt and diff(t) == pt - qt
            assert (-p)(t) == -pt
        for r in (prod, total, diff):
            assert not r.co or any(r.co[-1])
            assert all(type(x) is int or x.denominator > 1
                       for a in r.co for x in a)
        if not p.is_zero() and not q.is_zero():
            assert prod.degree == p.degree + q.degree


@pytest.mark.parametrize("m", KERNEL_FIELDS)
def test_kpoly_divmod_is_a_division_with_remainder(m):
    # a = q b + r with deg r < deg b, for leading coefficients +-1 (as every
    # det(1 - q w) has), a rational and an element carrying c
    spec = cos_field(m)
    rng = random.Random(4200 + m)
    polys = [p for p in _kernel_polys(spec, rng) if not p.is_zero()]
    c = spec.gen()
    divisors = polys + [KPoly.from_coeffs(spec, [2, c, -1]),
                        KPoly.from_coeffs(spec, [c, 0, 1]),
                        KPoly.from_coeffs(spec, [1, rat(2, 3)]),
                        KPoly.from_coeffs(spec, [0, 1, c + 2])]
    for _ in range(60):
        a, b = rng.choice(polys), rng.choice(divisors)
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree
        q2, r2 = (a * b).divmod(b)
        assert q2 == a and r2.is_zero()
        for t in _field_points(spec, rng)[:2]:
            assert a(t) == q(t) * b(t) + r(t)
    with pytest.raises(ZeroDivisionError):
        polys[0].divmod(KPoly.zero(spec))


def test_kpoly_xgcd_bezout_in_a_degree_4_field():
    # over QQ(2cos(pi/12)): g the monic gcd, s a == g modulo b, and g divides
    # both, for common factors carrying c and a rational leading coefficient
    spec = cos_field(12)
    c = spec.gen()
    x = KPoly.gen(spec)
    p = x * x + c                                    # no real root
    q = KPoly.from_coeffs(spec, [rat(1, 3), c, 2])
    common = x * c - rat(1, 2)
    monic = common * (1 / c)
    cases = [(p, q, KPoly.one(spec)), (p * common, q * common, monic),
             (p * common * common, common, monic),
             (q * common * (x - 1), p * (x - 1), x - 1)]
    for a, b, expected in cases:
        g, s = kpoly_xgcd(a, b)
        assert g == expected and g.leading() == 1
        assert (s * a - g).divmod(b)[1].is_zero() and s.degree < b.degree
        assert a.divmod(g)[1].is_zero() and b.divmod(g)[1].is_zero()
