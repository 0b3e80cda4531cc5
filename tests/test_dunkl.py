import random

import pytest

import coxdunkl.dunkl
from coxdunkl.coxeter import chevalley_q_identity
from coxdunkl.dunkl import (DunklDirection, _apply_direction, _dd_tables,
                            _operator_order, _root_directions, b_poly,
                            beta_form, closed_form_b,
                            closed_form_b_string, dunkl_apply,
                            dunkl_apply_omega, dunkl_apply_root,
                            dunkl_laplacian, gamma_form, gaussian_exponential,
                            root_derivative, verify_algebra_relations)
from coxdunkl.errors import BudgetError
from coxdunkl.mmintegral import gaussian_moment
from coxdunkl.polynomials import (EXP_BITS, EXP_MASK, MultiPoly,
                                  apply_reflection, build_discriminant,
                                  divided_difference, key_degree,
                                  reflection_forms)
from coxdunkl.scalars import QQ, FieldElement, KPoly, cos_field, kpoly_gcd, rat
from coxdunkl.suite import group_context

from conftest import divide_out_roots, random_multipoly


def kp(rs, coeffs):
    return KPoly.from_coeffs(rs.spec, coeffs)


def test_rank1_dunkl_values(ctx_a1):
    rs = ctx_a1.rs
    one = MultiPoly.one(rs)
    u = MultiPoly.variable(rs, 0)
    assert dunkl_apply_omega(rs, 0, one).is_zero()
    assert dunkl_apply_omega(rs, 0, u) == MultiPoly.constant(rs, kp(rs, [1, 2]))
    assert dunkl_apply_omega(rs, 0, u * u) == u * 2


def test_direction_pairings_match_coordinates():
    # (alpha_a, omega_i) is alpha_a's coordinate i, and (alpha_a, alpha_b) is
    # sum_i (alpha_i, alpha_b) coord_i(alpha_a)
    for label in ("B2", "I2(7)", "H3"):
        rs = group_context(label).rs
        sp = rs.spec
        roots, pv = rs.roots_raw(), rs.pair_vectors()
        for i in range(rs.rank):
            d = DunklDirection.omega(rs, i)
            assert d.pairings == tuple(c[i] for c in roots)
        for b in range(rs.num_positive):
            d = DunklDirection.from_root(rs, b)
            assert d.dual == pv[b]
            for a, c in enumerate(roots):
                acc = sp.raw_zero()
                for i in range(rs.rank):
                    acc = sp.raw_add(acc, sp.raw_mul(pv[b][i], c[i]))
                assert d.pairings[a] == acc


def test_dunkl_lowers_degree_and_raises_k(ctx_a2):
    rs = ctx_a2.rs
    rng = random.Random(21)
    for _ in range(20):
        f = random_multipoly(rs, rng, max_degree=5, homogeneous=True)
        g = dunkl_apply_omega(rs, rng.randrange(rs.rank), f)
        if g.is_zero():
            continue
        assert g.degree() == f.degree() - 1
        kdeg = max(kp.degree for _, kp in g.term_items())
        assert kdeg <= 1


def test_dunkl_operators_match_the_divided_difference_definition():
    # T_a f = d_a f + k sum_alpha (alpha, a) (f - s_alpha f) / (alpha, x), with
    # the divided differences from Taylor's formula in d_alpha, which reads no
    # table, against the memoized twisted-Leibniz tables inside dunkl_apply_*.
    # I2(7) and I2(12) (field degrees 3 and 4) fold powers of c by the minimal
    # polynomial at every table step and application; the last polynomial has
    # coefficients with denominator 3.  On A3 and B3 half or more of the
    # reflections fix some u_j, whose powers the tables factor out, and on H3
    # (non-crystallographic, over QQ(sqrt 5)) 5 of the 15 do
    for label, max_degree in (("A2", 4), ("B2", 4), ("I2(5)", 4), ("I2(7)", 4),
                              ("I2(12)", 4), ("A3", 3), ("B3", 3), ("H3", 3)):
        rs = group_context(label).rs
        roots = rs.roots_raw()
        fe = lambda raw: FieldElement(rs.spec, raw)
        k = MultiPoly.constant(rs, KPoly.gen(rs.spec))
        rng = random.Random(23)
        polys = [random_multipoly(rs, rng, max_degree=max_degree, k_degree=2)
                 for _ in range(6)]
        polys.append(random_multipoly(rs, rng, max_degree=max_degree,
                                      k_degree=1).scale(rat(1, 3)))
        assert any(type(x) is not int for x in polys[-1].terms.values())
        for f in polys:
            dds = [divided_difference(f, a) for a in range(rs.num_positive)]
            # a = omega_i: d_a = d/du_i and (alpha, omega_i) = alpha's i-th coordinate
            for i in range(rs.rank):
                refl = MultiPoly.zero(rs)
                for a, dd in enumerate(dds):
                    refl = refl + dd.scale(fe(roots[a][i]))
                assert dunkl_apply_omega(rs, i, f) == f.partial(i) + k * refl
            # a = beta: its dual coordinates are (alpha_i, beta)
            for b, beta in enumerate(roots):
                deriv = MultiPoly.zero(rs)
                for i in range(rs.rank):
                    deriv = deriv + f.partial(i).scale(fe(rs.inner(roots[i], beta)))
                refl = MultiPoly.zero(rs)
                for a, dd in enumerate(dds):
                    refl = refl + dd.scale(fe(rs.inner(roots[a], beta)))
                assert dunkl_apply_root(rs, b, f) == deriv + k * refl
    # the operator product of b_poly against the pairing in a degree-3 field
    i27 = group_context("I2(7)")
    delta = build_discriminant(i27.rs)
    assert beta_form(delta, delta) == b_poly(i27.rs, i27.degrees).computed


def test_algebra_relations():
    for label in ("A1", "A2", "B2"):
        ctx = group_context(label)
        rep = verify_algebra_relations(ctx.rs, degree_cap=4)
        assert rep.ok, rep.failures
        # every monomial of degree 1..4
        assert rep.monomials == {1: 4, 2: 14}[ctx.rs.rank]


def test_algebra_relations_catch_a_wrong_multiplicity(monkeypatch):
    # T_i taken at 2k (every omega direction's root pairings doubled) breaks
    # the Heisenberg and Euler relations on B2; the operators still commute,
    # as they do for any constant multiplicity
    omega = coxdunkl.dunkl._omega_directions

    def doubled(rs):
        return tuple(d._replace(pairings=tuple(tuple(2 * x for x in p)
                                               for p in d.pairings))
                     for d in omega(rs))

    monkeypatch.setattr(coxdunkl.dunkl, "_omega_directions", doubled)
    rep = verify_algebra_relations(group_context("B2").rs, degree_cap=3)
    kinds = [f.split()[0] for f in rep.failures]
    assert (rep.monomials, rep.checks) == (9, 54)
    assert (kinds.count("commutator"), kinds.count("heisenberg"),
            kinds.count("euler")) == (0, 30, 9)


def test_beta_rank1_values(ctx_a1):
    rs = ctx_a1.rs
    one = MultiPoly.one(rs)
    u = MultiPoly.variable(rs, 0)
    assert beta_form(one, one) == KPoly.one(rs.spec)
    assert beta_form(u, u * u).is_zero()
    assert beta_form(u, u) == kp(rs, [2, 4])     # 2(2k+1)


def test_beta_symmetry_and_invariance(ctx_a2, ctx_b2):
    for ctx in (ctx_a2, ctx_b2):
        rs = ctx.rs
        rng = random.Random(31)
        for _ in range(20):
            f = random_multipoly(rs, rng, max_degree=4)
            g = random_multipoly(rs, rng, max_degree=4)
            assert beta_form(f, g) == beta_form(g, f)
            # invariance under the simple reflections
            from coxdunkl.polynomials import apply_reflection
            for i in range(rs.rank):
                assert beta_form(apply_reflection(f, i),
                                 apply_reflection(g, i)) == beta_form(f, g)


def test_beta_contravariance(ctx_a2):
    rs = ctx_a2.rs
    rng = random.Random(32)
    for _ in range(20):
        f = random_multipoly(rs, rng, max_degree=4)
        g = random_multipoly(rs, rng, max_degree=4)
        for j in range(rs.rank):
            uj_g = MultiPoly.variable(rs, j) * g
            assert beta_form(dunkl_apply_root(rs, j, f), g) == \
                beta_form(f, uj_g)


def test_beta_degree_orthogonality(ctx_b2):
    rs = ctx_b2.rs
    rng = random.Random(33)
    for _ in range(20):
        f = random_multipoly(rs, rng, max_degree=5, homogeneous=True)
        g = random_multipoly(rs, rng, max_degree=5, homogeneous=True)
        if f.degree() != g.degree():
            assert beta_form(f, g).is_zero()


def test_laplacian_values(ctx_a1, ctx_a2):
    rs = ctx_a1.rs
    u = MultiPoly.variable(rs, 0)
    assert dunkl_laplacian(MultiPoly.one(rs)).is_zero()
    assert dunkl_laplacian(u * u) == MultiPoly.constant(rs, kp(rs, [4, 8]))
    for ctx in (ctx_a2,):
        delta = build_discriminant(ctx.rs)
        assert dunkl_laplacian(delta).is_zero()


def test_laplacian_basis_independent(ctx_b2):
    # sum_j T_{omega_j} y_{alpha_j} must equal sum_{j,l} G_{jl} T_{omega_j} T_{omega_l}
    rs = ctx_b2.rs
    rng = random.Random(34)
    for _ in range(10):
        f = random_multipoly(rs, rng, max_degree=4)
        direct = dunkl_laplacian(f)
        acc = MultiPoly.zero(rs)
        for j in range(rs.rank):
            for l in range(rs.rank):
                g = rs.gram_raw()[j][l]
                if not any(g):
                    continue
                acc = acc + dunkl_apply_omega(
                    rs, j, dunkl_apply_omega(rs, l, f)).scale(
                        FieldElement(rs.spec, g))
        assert direct == acc


def test_gamma_values(ctx_a1):
    rs = ctx_a1.rs
    one = MultiPoly.one(rs)
    u = MultiPoly.variable(rs, 0)
    assert gamma_form(one, one) == KPoly.one(rs.spec)
    assert gamma_form(u * u, one) == kp(rs, [2, 4])   # 2(1+2k)


def test_gamma_equals_beta_on_discriminant():
    for label in ("A1", "A2", "B2"):
        rs = group_context(label).rs
        delta = build_discriminant(rs)
        # exp of the Laplacian fixes the discriminant, so the two pairings agree
        assert gaussian_exponential(delta) == delta
        assert gamma_form(delta, delta) == beta_form(delta, delta)


def test_gamma_form_fills_one_table_list(monkeypatch):
    # the two Gaussian exponentials and the pairing read one set of tables;
    # the values are those of the pairing of two separately built exponentials
    a1, a2 = group_context("A1").rs, group_context("A2").rs
    b2, i25 = group_context("B2").rs, group_context("I2(5)").rs
    u, x, y = (MultiPoly.variable(a1, 0), MultiPoly.variable(a2, 0),
               MultiPoly.variable(a2, 1))
    v, w = MultiPoly.variable(i25, 0), MultiPoly.variable(i25, 1)
    cases = [  # criterion 10's pairs, then two over QQ(2cos(pi/5))
        (u * u, MultiPoly.one(a1), "4k + 2"),
        (u * u * u, u, "16k^2 + 32k + 12"),
        (x * y, MultiPoly.one(a2), "-3k - 1"),
        (MultiPoly.variable(b2, 0, 2), MultiPoly.variable(b2, 1, 2),
         "64k^2 + 48k + 8"),
        (v * v, w * w, "(25*c + 75)*k^2 + (15*c + 45)*k + (2*c + 6)"),
        (v * v * w * w, v * w + 1, "(-1000*c - 125)*k^3 + (-1175*c - 75)*k^2"
                                   " + (-425*c - 10)*k + (-46*c)")]
    for f, g, value in cases:
        separate = beta_form(gaussian_exponential(f), gaussian_exponential(g))
        lists = _record_tables(monkeypatch)
        shared = gamma_form(f, g)
        monkeypatch.undo()
        assert len(lists) == 1, f.ring
        assert str(shared) == str(separate) == value


def test_gamma_contravariance(ctx_a2):
    # gamma((x_a - y_a) f, g) == gamma(f, y_a g) for root directions a
    rs = ctx_a2.rs
    rng = random.Random(35)
    for _ in range(12):
        f = random_multipoly(rs, rng, max_degree=3)
        g = random_multipoly(rs, rng, max_degree=3)
        for j in range(rs.rank):
            lhs = gamma_form(MultiPoly.variable(rs, j) * f
                             - dunkl_apply_root(rs, j, f), g)
            rhs = gamma_form(f, dunkl_apply_root(rs, j, g))
            assert lhs == rhs


def test_b_poly_small_closed_forms():
    a1 = group_context("A1")
    res = b_poly(a1.rs, a1.degrees)
    assert res.computed == kp(a1.rs, [2, 4])          # 2(2k+1)
    assert res.equal

    a2 = group_context("A2")
    res = b_poly(a2.rs, a2.degrees)
    # 6(2k+1)(3k+1)(3k+2) = 108k^3 + 162k^2 + 78k + 12
    assert res.computed == kp(a2.rs, [12, 78, 162, 108])
    assert res.equal
    assert res.computed.leading().sign() > 0
    assert closed_form_b_string(a2.degrees) == "6*(2k+1)*(3k+1)*(3k+2)"

    i24 = group_context("I2(4)")
    res = b_poly(i24.rs, i24.degrees)
    assert res.equal
    assert closed_form_b_string(i24.degrees) == "8*(2k+1)*(4k+1)*(4k+2)*(4k+3)"
    # root multiset: -1/4, -1/2 (twice), -3/4, and no other root
    rest = divide_out_roots(res.computed,
                            [rat(1, 4), rat(1, 2), rat(1, 2), rat(3, 4)])
    assert rest == kp(i24.rs, [8 * 4 * 4 * 4 * 2])


def test_dunkl_operators_scale_the_discriminant_by_one_plus_2k():
    # Delta is anti-invariant, so each divided difference of it is
    # 2 Delta / (alpha, x) and T_a Delta = (1 + 2k) d_a Delta for every a,
    # with d_a = sum_i (alpha_i, a) d/du_i: the identity behind b_poly's
    # first step
    for label in ("A2", "B2", "I2(5)", "A3", "B3"):
        rs = group_context(label).rs
        delta = build_discriminant(rs)
        one_2k = MultiPoly.constant(rs, kp(rs, [1, 2]))
        directions = list(_root_directions(rs))
        directions.append(DunklDirection.omega(rs, rs.rank - 1))
        for a in directions:
            deriv = MultiPoly.zero(rs)
            for i, w in enumerate(a.dual):
                deriv = deriv + delta.partial(i).scale(FieldElement(rs.spec, w))
            assert dunkl_apply(a, delta) == one_2k * deriv, (label, a.dual)


def _record_tables(monkeypatch):
    """The list to which `_dd_tables` now appends every table list it makes."""
    lists = []

    def recorded(rs):
        lists.append(_dd_tables(rs))
        return lists[-1]

    monkeypatch.setattr(coxdunkl.dunkl, "_dd_tables", recorded)
    return lists


def _operator_chain(rs, order, tables):
    """b_poly's applications in the given order of the roots: the derivative
    along the first (no root pairings), then the other |S| - 1 root Dunkl
    operators, their divided differences from `tables`."""
    directions = _root_directions(rs)
    flat = root_derivative(rs, order[0], build_discriminant(rs).terms)
    for b in order[1:]:
        flat = _apply_direction(rs, directions[b], flat, tables)
    return flat


def _table_terms(tables):
    return sum(len(entry) for memo in tables for entry in memo.values())


def test_b_poly_is_independent_of_the_operator_order():
    # the root Dunkl operators commute, so the helper's order, the index
    # order and the reversed order reach the same constant b(k) / (1 + 2k);
    # T_a Delta = (1 + 2k) d_a Delta for every root a, so each chain may
    # start with the derivative along its own first root
    for label in ("A3", "B3", "I2(7)"):
        rs = group_context(label).rs
        n = rs.num_positive
        orders = (_operator_order(rs), list(range(n)), list(range(n))[::-1])
        assert orders[0][0] == 0 and sorted(orders[0]) == orders[1], label
        images = [_operator_chain(rs, order, _dd_tables(rs)) for order in orders]
        assert images[0] == images[1] == images[2], label
        assert len(images[0]) > 1 and all(
            not key & ((1 << (EXP_BITS * rs.rank)) - 1) for key in images[0])


def test_operator_order_fills_fewer_table_terms(monkeypatch):
    # the helper's order opens each table late, at a lower degree, so the
    # divided-difference tables of b_poly hold fewer terms than those of
    # the index order
    lists = _record_tables(monkeypatch)
    for label in ("A4", "B3", "D4"):
        ctx = group_context(label)
        rs = ctx.rs
        lists.clear()
        assert b_poly(rs, ctx.degrees).equal
        assert len(lists) == 1
        index_tables = _dd_tables(rs)
        _operator_chain(rs, range(rs.num_positive), index_tables)
        assert _table_terms(lists[0]) < _table_terms(index_tables), label


def test_b_poly_builds_no_top_degree_tables(monkeypatch):
    # the first step is a plain derivative, so no divided-difference entry
    # of Delta's degree |S| is built; the later steps read degree |S| - 1
    lists = _record_tables(monkeypatch)
    for label in ("B3", "I2(7)"):
        ctx = group_context(label)
        rs = ctx.rs
        lists.clear()
        assert b_poly(rs, ctx.degrees).equal
        assert len(lists) == 1
        degrees = {key_degree(key, rs.rank) for memo in lists[0] for key in memo}
        assert max(degrees) == rs.num_positive - 1, (label, sorted(degrees))


def test_b_poly_tables_hold_only_the_moved_variables(monkeypatch):
    # s_alpha fixes every u_j with (alpha_j, alpha) = 0, so dd_alpha(u_j g) =
    # u_j dd_alpha(g): table alpha is keyed by the exponents of the other
    # variables alone
    lists = _record_tables(monkeypatch)
    for label in ("A4", "B3"):
        ctx = group_context(label)
        rs = ctx.rs
        lists.clear()
        assert b_poly(rs, ctx.degrees).equal
        assert len(lists) == 1
        fixed = 0
        for alpha, (memo, pair) in enumerate(zip(lists[0], rs.pair_vectors())):
            assert len(memo) > 1, (label, alpha)
            for j, w in enumerate(pair):
                if not any(w):
                    fixed += 1
                    assert not any(key >> (EXP_BITS * j) & EXP_MASK
                                   for key in memo), (label, alpha, j)
        assert fixed, label


def test_b_at_zero_is_the_exact_moment_f1():
    # F(1) = b(0) F(0) with F(0) = 1: the kernel against the Stein moment of
    # Delta^2, without the Gamma product (mm_exact at k = 1 runs the same
    # derivative chain as b(0), so it is no oracle here)
    for label in ("A2", "B2", "I2(5)", "A3", "B3", "I2(7)"):
        ctx = group_context(label)
        delta = build_discriminant(ctx.rs)
        assert (b_poly(ctx.rs, ctx.degrees).computed(0)
                == gaussian_moment(delta * delta).coeff(0)), label


def test_b_poly_degree_is_reflection_count():
    for label in ("A2", "B2", "A3", "I2(6)"):
        ctx = group_context(label)
        res = b_poly(ctx.rs, ctx.degrees)
        assert res.computed.degree == ctx.rs.num_positive


def test_b_poly_matches_generic_beta_form():
    # the operator-product route must agree with the monomial expansion route
    for label in ("A1", "A2", "B2"):
        ctx = group_context(label)
        delta = build_discriminant(ctx.rs)
        assert beta_form(delta, delta) == b_poly(ctx.rs, ctx.degrees).computed


def test_exact_kernel_coordinates_are_ints():
    # everything on the way to b(k) lies in Z[c] and nothing divides, so
    # every coordinate is a plain int (no rational backend on the hot path)
    for label in ("B3", "I2(7)", "I2(12)"):
        ctx = group_context(label)
        rs = ctx.rs
        # b_poly's applications, in its order, made here with a table list
        # of their own so that the divided-difference memos can be read
        tables = _dd_tables(rs)
        flat = _operator_chain(rs, _operator_order(rs), tables)
        assert all(len(memo) > 1 for memo in tables)
        assert (MultiPoly.constant(rs, kp(rs, [1, 2])) * MultiPoly(rs, flat)
                == MultiPoly.constant(rs, b_poly(rs, ctx.degrees).computed))
        res = b_poly(rs, ctx.degrees)
        assert res.equal
        raws = list(rs.roots_raw()) + list(rs.pair_vectors())
        raws = [x for vec in raws for x in vec]
        raws += list(res.computed.co)
        values = [x for raw in raws for x in raw]
        # Delta and the reflected-variable forms hold flat {key: coordinate}
        values += list(build_discriminant(rs).terms.values())
        values += [x for a in range(rs.num_positive)
                   for form in reflection_forms(rs, a) for _, x in form]
        # the divided-difference memos hold flat {u^F c^e: coordinate} tables
        values += [x for memo in tables for table in memo.values()
                   for x in table.values()]
        assert len(values) > 100
        bad = {type(x).__name__ for x in values if type(x) is not int}
        assert not bad, (label, bad)


def test_kernel_tables_live_only_in_the_call_that_fills_them():
    # every memo table is a local of the call that fills it, so what the
    # exact kernel leaves on the root system is per-system data under fixed
    # names, and a later b(k) builds its own tables again
    for label in ("B3", "I2(7)"):
        ctx = group_context(label)
        rs = ctx.rs
        first = b_poly(rs, ctx.degrees)
        u = MultiPoly.variable(rs, 0)
        f = u * u - MultiPoly.variable(rs, 1) * 3
        beta_form(f, f)
        dunkl_apply_omega(rs, 1, f)
        dunkl_laplacian(f)
        gamma_form(f, u)
        for a in range(rs.num_positive):
            apply_reflection(f, a)
            divided_difference(f, a)
        assert all(type(key) is str for key in rs._caches), list(rs._caches)
        assert b_poly(rs, ctx.degrees) == first


def test_exact_results_demote_integral_coordinates_to_ints():
    # values that pass through a rational step but come out integral are
    # ints wherever FieldElements, KPolys and field inverses are built
    def ints(raws):
        raws = list(raws)
        assert raws
        return all(type(x) is int for raw in raws for x in raw)

    f5, f12 = cos_field(5), cos_field(12)
    half = f5.element(rat(1, 2)) * 2
    assert half.co == (1, 0) and ints([half.co])
    units = [(f5, (1, 2)), (f5, (0, 1)), (f5, (-1, 1)),
             (f12, (0, 1, 0, 0)), (f12, (4, 0, -1, 0)), (f12, (0, 0, 1, 0))]
    for spec, a in units:
        inv = spec.raw_inv(a)
        assert spec.raw_mul(a, inv) == spec.raw_one() and ints([inv]), (a, inv)
    for label in ("B2", "I2(5)", "H3"):
        ctx = group_context(label)
        res = chevalley_q_identity(ctx.rs, ctx.elements, ctx.degrees)
        assert res.equal
        assert ints(c for frac in (res.lhs, res.rhs) for p in frac for c in p.co)
    for label in ("B2", "I2(5)"):
        ctx = group_context(label)
        assert ints(b_poly(ctx.rs, ctx.degrees).computed.co)
    a = KPoly.from_coeffs(QQ, [2, 3, 1])                    # (k+1)(k+2)
    b = KPoly.from_coeffs(QQ, [rat(1, 2), rat(1, 2)])       # (k+1)/2
    q, r = a.divmod(b)
    g = kpoly_gcd(a, b)
    assert q == KPoly.from_coeffs(QQ, [4, 2]) and r.is_zero()
    assert g == KPoly.from_coeffs(QQ, [1, 1])
    assert ints(q.co) and ints(g.co)


def test_b_poly_heavy_gate():
    b4 = group_context("B4")
    with pytest.raises(BudgetError):
        b_poly(b4.rs, b4.degrees)


def test_beta_zero_positive_definite(ctx_a2):
    # Gram matrix of the k=0 pairing on monomials of degree <= 4
    rs = ctx_a2.rs
    monomials = []
    for d in range(5):
        for e1 in range(d + 1):
            monomials.append(
                MultiPoly.from_terms(rs, {(e1, d - e1): 1}))
    n = len(monomials)
    gram = [[beta_form(monomials[i], monomials[j])(0).rational()
             for j in range(n)] for i in range(n)]
    # leading principal minors by fraction-free Gaussian elimination
    from fractions import Fraction
    mat = [[Fraction(int(x.numerator), int(x.denominator)) for x in row]
           for row in gram]
    det = Fraction(1)
    for i in range(n):
        # pivot must be positive after elimination for positive definiteness
        pivot = mat[i][i]
        assert pivot > 0, f"minor {i+1} not positive"
        for r2 in range(i + 1, n):
            factor = mat[r2][i] / pivot
            for c2 in range(i, n):
                mat[r2][c2] -= factor * mat[i][c2]
