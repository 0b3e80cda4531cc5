import random

import pytest

from coxdunkl.errors import FieldMismatchError
from coxdunkl.polynomials import (MultiPoly, apply_reflection,
                                  build_discriminant, divided_difference,
                                  root_linear_form)
from coxdunkl.scalars import KPoly, cos_field, rat
from coxdunkl.suite import group_context

from conftest import random_kpoly, random_multipoly


def test_basic_arithmetic(ctx_a2):
    rs = ctx_a2.rs
    u1 = MultiPoly.variable(rs, 0)
    u2 = MultiPoly.variable(rs, 1)
    sq = (u1 + u2) * (u1 + u2)
    assert sq == u1 * u1 + u1 * u2 * 2 + u2 * u2
    assert (u1 * u1 * u2).partial(0) == u1 * u2 * 2
    assert (u1 * u1 * u2).partial(1) == u1 * u1


def test_leibniz_rule_for_partials(ctx_b2):
    rs = ctx_b2.rs
    rng = random.Random(11)
    for _ in range(25):
        f = random_multipoly(rs, rng, max_degree=4)
        g = random_multipoly(rs, rng, max_degree=4)
        for i in range(rs.rank):
            assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)


def test_products_with_k_dependent_coefficients():
    # the sparse product against a coefficientwise reference in dense KPoly
    # arithmetic, over QQ and the fields of degree 2 (I2(5)), 3 (I2(7)) and
    # 4 (I2(12)), where products fold powers of c; the first f has
    # coefficients with denominator 3
    for label in ("A2", "B2", "I2(5)", "I2(7)", "I2(12)"):
        rs = group_context(label).rs
        rng = random.Random(15)
        for n in range(8):
            f, g, h = (random_multipoly(rs, rng, max_degree=3, k_degree=2)
                       for _ in range(3))
            if n == 0:
                f = f.scale(rat(1, 3))
            fg = f * g
            expected = {}
            for ef, cf in f.term_items():
                for eg, cg in g.term_items():
                    e = tuple(a + b for a, b in zip(ef, eg))
                    expected[e] = expected.get(e, KPoly.zero(rs.spec)) + cf * cg
            for e, c in expected.items():
                assert fg.coefficient(e) == c
            assert len(fg.term_items()) == sum(1 for c in expected.values()
                                               if not c.is_zero())
            assert fg == g * f
            assert fg * h == f * (g * h)
            assert f * (g + h) == fg + f * h
            c = random_kpoly(rs, rng, 2)
            x = rs.spec.element(*(rng.randint(1, 3) for _ in range(rs.spec.degree)))
            for value, as_kpoly in ((c, c), (x, KPoly.const(rs.spec, x)),
                                    (rat(-2, 3), KPoly.const(rs.spec, rat(-2, 3)))):
                scaled = f.scale(value)
                assert scaled == f * value
                for e, cf in f.term_items():
                    assert scaled.coefficient(e) == cf * as_kpoly
            assert f.scale(0).is_zero() and f.scale(KPoly.zero(rs.spec)).is_zero()


def test_degree_bookkeeping(ctx_a2):
    rs = ctx_a2.rs
    rng = random.Random(12)
    for _ in range(30):
        f = random_multipoly(rs, rng, max_degree=5)
        g = random_multipoly(rs, rng, max_degree=5)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).degree() == f.degree() + g.degree()


def test_root_linear_form_coefficients(ctx_b2):
    rs = ctx_b2.rs
    for i, root in enumerate(rs.roots_raw()):
        form = root_linear_form(rs, i)
        for j in range(rs.rank):
            exps = tuple(1 if l == j else 0 for l in range(rs.rank))
            assert form.coefficient(exps) == KPoly(rs.spec, (root[j],))


def test_reflection_rank1(ctx_a1):
    rs = ctx_a1.rs
    u = MultiPoly.variable(rs, 0)
    assert apply_reflection(u, 0) == -u
    assert apply_reflection(u * u, 0) == u * u


def test_reflection_a2_simple(ctx_a2):
    # s_1(u1) = -u1 and s_1(u2) = u1 + u2 since the bond entry is -1
    rs = ctx_a2.rs
    u1 = MultiPoly.variable(rs, 0)
    u2 = MultiPoly.variable(rs, 1)
    assert apply_reflection(u1, 0) == -u1
    assert apply_reflection(u2, 0) == u1 + u2


def test_reflection_involution_and_homomorphism(ctx_b2):
    rs = ctx_b2.rs
    rng = random.Random(13)
    for _ in range(100):
        f = random_multipoly(rs, rng, max_degree=5)
        g = random_multipoly(rs, rng, max_degree=5)
        a = rng.randrange(rs.num_positive)
        assert apply_reflection(apply_reflection(f, a), a) == f
        assert apply_reflection(f * g, a) == \
            apply_reflection(f, a) * apply_reflection(g, a)
        assert apply_reflection(f + g, a) == \
            apply_reflection(f, a) + apply_reflection(g, a)


def test_divided_difference_rank1(ctx_a1):
    rs = ctx_a1.rs
    u = MultiPoly.variable(rs, 0)
    assert divided_difference(u * u, 0).is_zero()
    assert divided_difference(u, 0) == MultiPoly.constant(rs, 2)
    assert divided_difference(u * u * u, 0) == (u * u) * 2


def test_divided_difference_properties(ctx_a2):
    rs = ctx_a2.rs
    rng = random.Random(14)
    for _ in range(40):
        f = random_multipoly(rs, rng, max_degree=5)
        g = random_multipoly(rs, rng, max_degree=4)
        a = rng.randrange(rs.num_positive)
        df = divided_difference(f, a)
        if not f.is_zero() and not df.is_zero():
            assert df.degree() <= f.degree() - 1
        # twisted Leibniz: dd(fg) = dd(f) g + s(f) dd(g)
        assert divided_difference(f * g, a) == \
            df * g + apply_reflection(f, a) * divided_difference(g, a)
        # defining identity: dd(f) * (alpha, x) == f - s(f)
        assert df * root_linear_form(rs, a) == f - apply_reflection(f, a)


def test_divided_difference_reads_no_reflection_table(monkeypatch):
    # Taylor's formula needs no reflection form, step, memo table or image,
    # so the reference for the Dunkl kernel's tables shares none of them
    import coxdunkl.polynomials as polynomials
    want = {}
    for label in ("A2", "B3", "I2(7)"):
        rs = group_context(label).rs
        f = random_multipoly(rs, random.Random(15), max_degree=4, k_degree=1)
        want[label] = (f, [f - apply_reflection(f, a)
                           for a in range(rs.num_positive)])

    def refuse(*args, **kwargs):
        raise AssertionError("divided_difference read a reflection table")

    for name in ("monomial_table", "reflection_step", "reflection_forms",
                 "apply_reflection"):
        monkeypatch.setattr(polynomials, name, refuse)
    for label, (f, diffs) in want.items():
        rs = group_context(label).rs
        for a, diff in enumerate(diffs):
            assert polynomials.divided_difference(f, a) * \
                root_linear_form(rs, a) == diff, (label, a)


def test_divided_difference_keeps_integer_coordinates():
    # g_j = d_alpha^j f / j! is integral when f is, and so is every
    # coordinate of dd_alpha f, also where a root has a non-unit coordinate
    for label in ("B2", "I2(12)", "B3"):
        rs = group_context(label).rs
        rng = random.Random(16)
        for _ in range(4):
            f = random_multipoly(rs, rng, max_degree=5)
            for a in range(rs.num_positive):
                dd = divided_difference(f, a)
                assert all(type(x) is int for x in dd.terms.values()), \
                    (label, a)


def test_discriminant_a2(ctx_a2):
    rs = ctx_a2.rs
    u1 = MultiPoly.variable(rs, 0)
    u2 = MultiPoly.variable(rs, 1)
    # (u1)(u2)(u1 + u2) expanded against the positive-root product
    assert build_discriminant(rs) == u1 * u1 * u2 + u1 * u2 * u2


def test_discriminant_antisymmetric():
    for label in ("A1", "A2", "B2", "A3", "I2(5)"):
        rs = group_context(label).rs
        delta = build_discriminant(rs)
        assert {sum(e) for e, _ in delta.term_items()} == {rs.num_positive}
        for a in range(rs.num_positive):
            assert apply_reflection(delta, a) == -delta


def test_to_string_deterministic(ctx_a2):
    rs = ctx_a2.rs
    delta = build_discriminant(rs)
    assert delta.to_string() == "u1^2*u2 + u1*u2^2"
    f = MultiPoly.from_terms(rs, {(2, 0): KPoly.from_coeffs(rs.spec, [1, 2]),
                                  (0, 1): -3})
    assert f.to_string() == "(2k + 1)*u1^2 - 3*u2"


def test_float_terms(ctx_a2):
    rs = ctx_a2.rs
    f = MultiPoly.from_terms(rs, {(1, 0): KPoly.from_coeffs(rs.spec, [1, 2])})
    terms = f.float_terms(rat(1, 2))
    assert terms == [((1, 0), 2.0)]


# A value from another field must raise: zipped coordinate by coordinate
# against the ring's own raw tuples it would silently lose data (A2 is over
# QQ, so c = 2cos(pi/5) would drop its c-coordinate and read as 0).


def test_constant_scale_and_product_reject_another_field(ctx_a2):
    rs = ctx_a2.rs
    c5 = cos_field(5).gen()
    u1 = MultiPoly.variable(rs, 0)
    for make in (lambda: MultiPoly.constant(rs, c5),
                 lambda: MultiPoly.constant(rs, KPoly.gen(cos_field(5))),
                 lambda: u1.scale(c5),
                 lambda: u1 * c5,
                 lambda: c5 * u1,
                 lambda: u1 + c5):
        with pytest.raises(FieldMismatchError):
            make()
    assert u1.scale(cos_field(3).from_rational(2)) == u1 * 2


def test_from_terms_rejects_another_field(ctx_a2):
    rs = ctx_a2.rs
    for value in (cos_field(5).gen(), KPoly.gen(cos_field(5))):
        with pytest.raises(FieldMismatchError):
            MultiPoly.from_terms(rs, {(1, 0): value})


def test_linear_form_rejects_another_field(ctx_a2):
    # a linear form sum_j c_j u_j is built from degree-one terms
    rs = ctx_a2.rs
    with pytest.raises(FieldMismatchError):
        MultiPoly.from_terms(rs, {(1, 0): cos_field(5).gen(), (0, 1): 1})
    # an integral rational is demoted to an int
    f = MultiPoly.from_terms(rs, {(1, 0): rat(4, 2), (0, 1): 1})
    assert f.to_string() == "2*u1 + u2"
    assert all(type(x) is int for x in f.terms.values())
