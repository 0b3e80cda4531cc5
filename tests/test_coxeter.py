import itertools
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from coxdunkl.cli import main
from coxdunkl.coxeter import (DegreeData, _char_traces, _det_from_traces,
                              build_root_system,
                              chevalley_q_identity, compute_degrees,
                              enumerate_group, known_label, poincare_polynomial,
                              psi_invariant, rank2_parabolics, rotation_gaps,
                              standard_diagram, verify_psi_identities)
from coxdunkl.dunkl import dunkl_apply_omega, dunkl_apply_root
from coxdunkl.errors import BudgetError, FactorizationError
from coxdunkl.polynomials import apply_reflection, build_discriminant
from coxdunkl.scalars import QQ, FieldElement, KPoly, kpoly_divexact, kpoly_gcd
from coxdunkl.suite import SuiteConfig, group_context, run_check

EXPECTED = {
    # label: (num positive roots, |W|, degrees)
    "A1": (1, 2, (2,)),
    "A2": (3, 6, (2, 3)),
    "A3": (6, 24, (2, 3, 4)),
    "A4": (10, 120, (2, 3, 4, 5)),
    "B2": (4, 8, (2, 4)),
    "B3": (9, 48, (2, 4, 6)),
    "B4": (16, 384, (2, 4, 6, 8)),
    "D4": (12, 192, (2, 4, 4, 6)),
    "F4": (24, 1152, (2, 6, 8, 12)),
    "H3": (15, 120, (2, 6, 10)),
    "H4": (60, 14400, (2, 12, 20, 30)),
    "I2(5)": (5, 10, (2, 5)),
    "I2(7)": (7, 14, (2, 7)),
    "I2(12)": (12, 24, (2, 12)),
}


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_root_counts_orders_degrees(label):
    ctx = group_context(label)
    s, order, degrees = EXPECTED[label]
    assert ctx.rs.num_positive == s
    assert len(ctx.elements) == order
    assert ctx.degrees.degrees == degrees


# Matrices built here from the Gram matrix and root coordinates alone, as
# an oracle independent of the root permutations the group is stored as.
# They hold FieldElements; the root system hands out raw coordinate tuples.


def _fe(rs, raw):
    return tuple(FieldElement(rs.spec, x) for x in raw)


def _roots(rs):
    """The positive roots as FieldElement vectors, from `roots_raw`."""
    return [_fe(rs, c) for c in rs.roots_raw()]


def _matrix(rs, rows):
    return tuple(_fe(rs, row) for row in rows)


def _identity(rs):
    return tuple(tuple(rs.spec.one() if a == b else rs.spec.zero()
                       for b in range(rs.rank)) for a in range(rs.rank))


def _matmul(rs, x, y):
    n = rs.rank
    return tuple(tuple(sum((x[a][t] * y[t][b] for t in range(n)),
                           rs.spec.zero()) for b in range(n))
                 for a in range(n))


def _apply(rs, mat, v):
    return tuple(sum((mat[a][b] * v[b] for b in range(rs.rank)), rs.spec.zero())
                 for a in range(rs.rank))


def _reflection(rs, root):
    """s_alpha(v) = v - (alpha, v) alpha on simple-root coordinates, with
    (alpha, v) from the Gram matrix (`RootSystem.inner`)."""
    basis = _identity(rs)
    raw = [x.co for x in root]
    pair = [FieldElement(rs.spec, rs.inner(raw, [x.co for x in basis[b]]))
            for b in range(rs.rank)]
    return tuple(tuple(basis[a][b] - root[a] * pair[b] for b in range(rs.rank))
                 for a in range(rs.rank))


def _trace(rs, mat):
    return sum((mat[a][a] for a in range(rs.rank)), rs.spec.zero())


def test_a2_positive_roots_by_hand():
    # orbit closure with gram12 = -1 gives {e1, e2, e1+e2}
    rs = group_context("A2").rs
    coords = {tuple(x for (x,) in root) for root in rs.roots_raw()}
    assert coords == {(1, 0), (0, 1), (1, 1)}


def test_roots_have_norm_two_and_reflections_permute():
    for label in ("A2", "B2", "I2(5)", "B3", "H3", "F4"):
        rs = group_context(label).rs
        two = rs.spec.raw(2)
        signed = rs.signed_roots_raw()
        root_set = set(rs.roots_raw())
        perms = rs.simple_reflection_perms()
        assert all(type(row) is bytes for row in perms)
        with pytest.raises(TypeError):
            perms[0][0] = 0
        roots = _roots(rs)
        for i, (raw, root) in enumerate(zip(rs.roots_raw(), roots)):
            assert rs.inner(raw, raw) == two
            mat = _reflection(rs, root)
            for b, other in enumerate(roots):
                img = _apply(rs, mat, other)
                neg = tuple((-e).co for e in img)
                assert tuple(e.co for e in img) in root_set or neg in root_set
                if i < rs.rank:
                    # the stored permutation of s_i agrees with the matrix
                    assert signed[perms[i][b]] == tuple(e.co for e in img)
                    assert signed[perms[i][b + rs.num_positive]] == neg


def test_root_closure_decides_no_sign(monkeypatch):
    # s_i permutes the positive roots other than alpha_i, so the closure
    # never asks the field for a sign
    from coxdunkl import scalars
    calls = []
    sign = scalars.FieldSpec.raw_sign
    monkeypatch.setattr(scalars.FieldSpec, "raw_sign",
                        lambda sp, a: calls.append(a) or sign(sp, a))
    for label in ("H3", "F4", "H4", "E8", "I2(128)"):
        build_root_system(standard_diagram(label))
        assert calls == [], label


def test_only_canonical_labels_are_known():
    # one group, one name: no padding and no leading zeros
    for label in (" A2", "A2 ", "A2\n", "A02", "I2(05)", "I2( 5)", "A0", "I2(0)"):
        assert not known_label(label), label
    assert known_label("A2") and known_label("I2(5)")
    assert standard_diagram("I2(5)").label == "I2(5)"


def test_simple_roots_are_standard_basis():
    rs = group_context("B3").rs
    sp = rs.spec
    for i in range(rs.rank):
        assert rs.roots_raw()[i] == tuple(
            sp.raw_one() if i == j else sp.raw_zero() for j in range(rs.rank))


def _reachable(obj):
    """obj and every value reachable from it through containers and object
    attributes, each once."""
    seen, stack = set(), [obj]
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(x, (int, float, str, bytes)):
            continue
        seen.add(id(x))
        yield x
        if isinstance(x, dict):
            stack += [*x.keys(), *x.values()]
        elif isinstance(x, (tuple, list, set, frozenset)):
            stack += x
        elif hasattr(x, "__dict__"):
            stack += vars(x).values()
        else:
            stack += [getattr(x, a) for a in getattr(type(x), "__slots__", ())
                      if hasattr(x, a)]


def test_root_system_stores_no_field_elements():
    # every exact value a root system holds, its caches included, is a raw
    # coordinate tuple; a FieldElement is built only for a caller
    for label in ("B2", "I2(7)", "H3"):
        ctx = group_context(label)
        rs = ctx.rs
        verify_psi_identities(rs, ctx.degrees)
        chevalley_q_identity(rs, ctx.elements, ctx.degrees)
        rs.float_data()
        f = build_discriminant(rs)
        dunkl_apply_omega(rs, 0, f)
        dunkl_apply_root(rs, rs.num_positive - 1, f)
        apply_reflection(f, 0)
        held = [type(x).__name__ for x in _reachable(rs)]
        assert "FieldElement" not in held, label
        assert "RootSystem" in held and "DunklDirection" in held


@pytest.mark.parametrize("label, num_positive", [
    ("A8", 36), ("B8", 64), ("D8", 56), ("E6", 36), ("E7", 63), ("E8", 120)])
def test_root_closure_past_rank_four(label, num_positive):
    # the closure alone, without enumerating the group; E8's 240 signed
    # roots still fit the byte indices of the root permutations
    rs = build_root_system(standard_diagram(label))
    assert rs.num_positive == num_positive
    two = rs.spec.raw(2)
    assert all(rs.inner(root, root) == two for root in rs.roots_raw())
    perms = rs.simple_reflection_perms()
    assert len(perms) == rs.rank
    assert all(sorted(p) == list(range(2 * num_positive)) for p in perms)


def test_non_finite_diagram_hits_root_budget():
    # affine square: all bonds 4 never closes
    from coxdunkl.coxeter import CoxeterDiagram
    diagram = CoxeterDiagram([[1, 4, 2], [4, 1, 4], [2, 4, 1]], "X3")
    with pytest.raises(BudgetError):
        build_root_system(diagram, root_budget=200)


def test_enumeration_length_histogram_a2():
    elements = group_context("A2").elements
    hist = Counter(g.length for g in elements)
    assert hist == {0: 1, 1: 2, 2: 2, 3: 1}


def test_enumeration_b2_and_h3_longest():
    assert max(g.length for g in group_context("B2").elements) == 4
    h3 = group_context("H3")
    assert max(g.length for g in h3.elements) == h3.rs.num_positive


def test_longest_element_length_is_reflection_count():
    for label in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "H3",
                  "I2(5)", "I2(9)"):
        ctx = group_context(label)
        assert max(g.length for g in ctx.elements) == ctx.rs.num_positive


def test_enumeration_budget_error():
    rs = build_root_system(standard_diagram("E6"))
    assert rs.num_positive == 36
    with pytest.raises(BudgetError):
        enumerate_group(rs, budget=2000)   # |W(E6)| = 51840
    with pytest.raises(BudgetError):
        enumerate_group(rs)                # default budget 20000
    assert main(["info", "--type", "E6"]) == 3


def test_byte_permutations_stop_at_256_roots():
    # A15 has 2|S| = 240 roots, A16 has 272: a byte no longer indexes them
    assert len(build_root_system(standard_diagram("A15"))
               .simple_reflection_perms()[0]) == 240
    with pytest.raises(BudgetError):
        build_root_system(standard_diagram("A16")).simple_reflection_perms()
    assert main(["info", "--type", "A16"]) == 3


def test_e6_enumerates_under_an_explicit_budget():
    rs = build_root_system(standard_diagram("E6"))
    elements = enumerate_group(rs, budget=60000)
    assert len(elements) == 51840
    dd = compute_degrees(rs, poincare_polynomial(elements, rs.spec))
    assert dd.degrees == (2, 5, 6, 8, 9, 12)
    rep = verify_psi_identities(rs, dd)
    assert rep.psi == 3540 and rep.parabolic_sum == 3540
    assert rep.parabolic_ok and rep.trace_identity_ok
    assert dict(rep.census) == {2: 270, 3: 120}


def test_elements_preserve_gram_and_word_rebuilds_matrix():
    # every element of groups over fields of degree 1, 2, 2 and 4
    for label in ("A3", "B2", "H3", "I2(12)"):
        ctx = group_context(label)
        rs = ctx.rs
        roots = _roots(rs)
        gens = [_reflection(rs, roots[i]) for i in range(rs.rank)]
        gram = _matrix(rs, rs.gram_raw())
        for g in ctx.elements:
            mat = _matrix(rs, g.matrix)
            # M^T G M == G
            for a in range(rs.rank):
                for b in range(rs.rank):
                    acc = rs.spec.zero()
                    for i in range(rs.rank):
                        for j in range(rs.rank):
                            acc = acc + mat[i][a] * gram[i][j] * mat[j][b]
                    assert acc == gram[a][b]
            # product of word letters reproduces the matrix
            m = _identity(rs)
            for i in g.word:
                m = _matmul(rs, m, gens[i])
            assert m == mat


def test_permutations_are_read_only_and_lengths_are_ints():
    ctx = group_context("B3")
    for g in ctx.elements:
        assert type(g.perm) is bytes
        assert type(g.length) is int
    with pytest.raises(TypeError):
        ctx.elements[5].perm[0] = 0


def test_length_counts_inverted_roots():
    # inversions counted from the derived matrix, not the permutation
    ctx = group_context("B3")
    rng = random.Random(5)
    sample = rng.sample(ctx.elements, 12)
    for g in sample:
        mat = _matrix(ctx.rs, g.matrix)
        inverted = 0
        for root in _roots(ctx.rs):
            img = _apply(ctx.rs, mat, root)
            lead = next(e for e in img if e)
            inverted += lead.sign() < 0
        assert inverted == g.length == len(g.word)


def test_poincare_small_cases():
    a1 = group_context("A1")
    assert a1.poincare == KPoly.from_coeffs(a1.rs.spec, [1, 1])
    a2 = group_context("A2")
    assert a2.poincare == KPoly.from_coeffs(a2.rs.spec, [1, 2, 2, 1])
    b2 = group_context("B2")
    assert b2.poincare == KPoly.from_coeffs(b2.rs.spec, [1, 2, 2, 2, 1])


def test_poincare_product_identity():
    # sum_w q^l(w) * (1-q)^r == prod (1 - q^d_i)
    for label in ("A2", "B3", "D4", "H3", "I2(7)"):
        ctx = group_context(label)
        spec = ctx.rs.spec
        lhs = ctx.poincare * KPoly.from_coeffs(spec, [1, -1]) ** ctx.rs.rank
        rhs = KPoly.one(spec)
        for d in ctx.degrees.degrees:
            rhs = rhs * KPoly.from_coeffs(spec, [1] + [0] * (d - 1) + [-1])
        assert lhs == rhs


def test_degrees_validation():
    ctx = group_context("H3")
    dd = compute_degrees(ctx.rs, ctx.poincare)
    assert dd.degrees == (2, 6, 10)
    assert dd.order == 120
    assert sum(d - 1 for d in dd.degrees) == 15
    with pytest.raises(FactorizationError, match="cannot factor"):
        compute_degrees(ctx.rs, KPoly.from_coeffs(QQ, [1, 2, 2, 1, 1]))
    # degrees that factor but do not fit the group are the suite's verdict,
    # a failed row, not an error: A3's Poincare polynomial on H3's roots
    wrong = compute_degrees(ctx.rs, group_context("A3").poincare)
    assert wrong == DegreeData((2, 3, 4), 24, 15)
    rep = run_check("degrees_consistency", ctx._replace(degrees=wrong),
                    SuiteConfig())
    assert rep.status == "fail"
    assert rep.expected == "prod(d_i)=120, sum(d_i-1)=15"
    assert rep.actual == "prod(d_i)=24, sum(d_i-1)=6, degrees=[2, 3, 4]"


def test_chevalley_identity():
    # A1: both sides reduce to 2/(1+q)
    a1 = group_context("A1")
    res = chevalley_q_identity(a1.rs, a1.elements, a1.degrees)
    assert res.equal
    assert res.lhs[0] == KPoly.from_coeffs(a1.rs.spec, [2])
    assert res.lhs[1] == KPoly.from_coeffs(a1.rs.spec, [1, 1])
    for label in ("A2", "B2", "A3", "I2(5)", "H3"):
        ctx = group_context(label)
        assert chevalley_q_identity(ctx.rs, ctx.elements, ctx.degrees).equal


def _det_one_minus_q(rs, mat):
    """det(1 - q M) by Laplace expansion along the first row."""
    sp = rs.spec
    q = KPoly.gen(sp)
    rows = [[(KPoly.one(sp) if a == b else KPoly.zero(sp)) - q * mat[a][b]
             for b in range(rs.rank)] for a in range(rs.rank)]

    def det(rows, cols):
        if not rows:
            return KPoly.one(sp)
        acc = KPoly.zero(sp)
        for t, c in enumerate(cols):
            term = rows[0][c] * det(rows[1:], cols[:t] + cols[t + 1:])
            acc = acc + term if t % 2 == 0 else acc - term
        return acc

    return det(rows, list(range(rs.rank)))


def _chevalley_lhs_oracle(rs, elements):
    """(1-q)^r sum_w 1/det(1 - q w) in lowest terms with a monic denominator:
    every term summed into one growing fraction, then reduced by one gcd.
    The matrices come from the reduced words, not the root permutations."""
    sp = rs.spec
    roots = _roots(rs)
    gens = [_reflection(rs, roots[i]) for i in range(rs.rank)]
    dets = Counter()
    for g in elements:
        mat = _identity(rs)
        for i in g.word:
            mat = _matmul(rs, mat, gens[i])
        dets[_det_one_minus_q(rs, mat)] += 1
    num, den = KPoly.zero(sp), KPoly.one(sp)
    for cp, count in dets.items():
        num = num * cp + count * den
        den = den * cp
    num = num * KPoly.from_coeffs(sp, [1, -1]) ** rs.rank
    g = kpoly_gcd(num, den)
    num, den = kpoly_divexact(num, g), kpoly_divexact(den, g)
    inv = KPoly.const(sp, 1 / den.leading())
    return num * inv, den * inv


def test_chevalley_lhs_against_the_summed_fractions():
    for label in ("A3", "B3", "D4", "H3", "I2(7)"):
        ctx = group_context(label)
        res = chevalley_q_identity(ctx.rs, ctx.elements, ctx.degrees)
        assert res.equal and res.lhs == _chevalley_lhs_oracle(ctx.rs, ctx.elements)
    # with degrees (2, 2, 6), D = (1-q^2)^2 (1-q^6) has no factor 1 + q^2, so
    # the 4-cycles' det(1 - q w) = (1 + q)(1 + q^2) does not divide it and is
    # summed as a fraction of its own
    a3 = group_context("A3")
    wrong = SimpleNamespace(degrees=(2, 2, 6), order=24)
    res = chevalley_q_identity(a3.rs, a3.elements, wrong)
    assert not res.equal
    assert res.lhs == _chevalley_lhs_oracle(a3.rs, a3.elements)


def _direct_key(rs, g):
    """(tr w, ..., tr w^h, l(w) mod 2) for h = max(1, floor(r/2)), each
    trace the sum of the diagonal coordinates of w^j's simple-root images."""
    roots = rs.signed_roots_raw()
    head = g.perm[:rs.rank]
    key = []
    for _ in range(max(1, rs.rank // 2)):
        key.append(tuple(map(sum, zip(*(roots[x][b] for b, x in enumerate(head))))))
        head = bytes(g.perm[x] for x in head)
    return tuple(key) + (g.length % 2,)


@pytest.mark.parametrize("label", ["A4", "B4", "D4", "H3", "F4", "I2(7)",
                                   "I2(12)"])
def test_chevalley_keys_fix_det_one_minus_qw(label):
    # half the traces and the parity of the length fix det(1 - q w) on every
    # element, and the traces that follow the reduced words are the
    # coordinate sums of the matrices, counted in the same order
    ctx = group_context(label)
    rs = ctx.rs
    keys = [_direct_key(rs, g) for g in ctx.elements]
    dets = {}
    for g, key in zip(ctx.elements, keys):
        det = _det_one_minus_q(rs, _matrix(rs, g.matrix))
        assert _det_from_traces(rs.spec, rs.rank, key) == det, (label, g.word)
        assert dets.setdefault(key, det) == det
    assert list(_char_traces(rs, ctx.elements).items()) == \
        list(Counter(keys).items())


def test_rank2_parabolic_censuses():
    # A2 is itself the only plane; A3 has four A2 flats and three A1xA1 flats;
    # B3: x_i = x_j = 0 (m=4); x_i = +-x_j = +-x_k (m=3); x_i = 0, x_j = +-x_k (m=2)
    def census(label):
        planes = rank2_parabolics(group_context(label).rs)
        return dict(Counter(p.m for p in planes))

    assert census("A2") == {3: 1}
    assert census("A3") == {3: 4, 2: 3}
    assert census("B3") == {4: 3, 3: 4, 2: 6}
    # past enumeration: the root closure alone, against the textbook degrees
    for label, expected, degrees, psi in (
            ("H4", {5: 72, 3: 200, 2: 450}, (2, 12, 20, 30), 9356),
            ("E7", {3: 336, 2: 945}, (2, 6, 8, 10, 12, 14, 18), 11046),
            ("E8", {3: 1120, 2: 3780}, (2, 8, 12, 14, 18, 20, 24, 30), 40600)):
        rs = build_root_system(standard_diagram(label))
        planes = rank2_parabolics(rs)
        assert dict(Counter(p.m for p in planes)) == expected, label
        order = 1
        for d in degrees:
            order *= d
        dd = DegreeData(degrees, order, rs.num_positive)
        assert sum(2 * p.m * p.m - 2 for p in planes) == psi_invariant(dd) == psi


def test_dihedral_census_is_one_plane():
    # every root of I2(m) lies in its one plane
    for m in list(range(3, 13)) + [96]:
        rs = build_root_system(standard_diagram(f"I2({m})"))
        planes = rank2_parabolics(rs)
        assert dict(Counter(p.m for p in planes)) == {m: 1}, m
        assert planes[0].member_roots == tuple(range(m))


def _in_span(u, v, w):
    # w lies in the span of u and v iff every 3x3 minor of [u v w] vanishes
    for p, q, t in itertools.combinations(range(len(u)), 3):
        if (u[p] * (v[q] * w[t] - v[t] * w[q]) - u[q] * (v[p] * w[t] - v[t] * w[p])
                + u[t] * (v[p] * w[q] - v[q] * w[p])):
            return False
    return True


def test_rank2_partition_property():
    for label in ("A3", "B3", "D4", "H3"):
        rs = group_context(label).rs
        planes = rank2_parabolics(rs)
        n = rs.num_positive
        # plane membership against the coordinates of the roots
        roots = _roots(rs)
        for p in planes:
            a, b = p.member_roots[:2]
            assert p.member_roots == tuple(
                g for g in range(n) if _in_span(roots[a], roots[b], roots[g]))
        assert sum(p.m * (p.m - 1) // 2 for p in planes) == n * (n - 1) // 2
        # every pair appears exactly once
        seen = set()
        for p in planes:
            for a in range(len(p.member_roots)):
                for b in range(a + 1, len(p.member_roots)):
                    pair = (p.member_roots[a], p.member_roots[b])
                    assert pair not in seen
                    seen.add(pair)
        assert len(seen) == n * (n - 1) // 2


def test_psi_values():
    assert psi_invariant(group_context("A1").degrees) == 0
    assert psi_invariant(group_context("A2").degrees) == 16
    for m in (3, 5, 8, 12):
        dd = group_context(f"I2({m})").degrees
        assert psi_invariant(dd) == 2 * m * m - 2


def test_psi_identities():
    # A3: 4*16 + 3*6 = 82; B3: 3*30 + 4*16 + 6*6 = 190
    a3 = group_context("A3")
    rep = verify_psi_identities(a3.rs, a3.degrees)
    assert rep.psi == 82 and rep.parabolic_sum == 82
    assert rep.parabolic_ok and rep.trace_identity_ok
    b3 = group_context("B3")
    rep = verify_psi_identities(b3.rs, b3.degrees)
    assert rep.psi == 190 and rep.parabolic_sum == 190
    assert rep.parabolic_ok and rep.trace_identity_ok


def test_f4_chevalley_and_psi():
    f4 = group_context("F4")
    assert chevalley_q_identity(f4.rs, f4.elements, f4.degrees).equal
    rep = verify_psi_identities(f4.rs, f4.degrees)
    assert rep.psi == 1484 and rep.parabolic_sum == 1484
    assert rep.parabolic_ok and rep.trace_identity_ok
    assert dict(rep.census) == {2: 72, 3: 32, 4: 18}
    h4 = group_context("H4")
    rep = verify_psi_identities(h4.rs, h4.degrees)
    assert rep.psi == 9356 and rep.parabolic_sum == 9356
    assert rep.parabolic_ok and rep.trace_identity_ok
    assert dict(rep.census) == {2: 450, 3: 200, 5: 72}


def test_a2_rotation_traces():
    # the two 3-cycles act on the plane with trace -1
    rs = group_context("A2").rs
    sp = rs.spec
    gaps = rotation_gaps(rs, rank2_parabolics(rs))
    assert len(gaps) == 2
    for gap in gaps:
        assert sp.raw_sub(sp.raw(rs.rank), gap) == sp.raw(-1)


def test_rotations_have_positive_r_minus_trace():
    # r - tr(s_a s_b) over the distinct products of two distinct reflections,
    # from matrices, equals the gaps read off the Gram entries
    for label in ("A3", "B3", "I2(7)"):
        rs = group_context(label).rs
        mats = [_reflection(rs, root) for root in _roots(rs)]
        rotations = {}
        for a, ma in enumerate(mats):
            for b, mb in enumerate(mats):
                if a != b:
                    rot = _matmul(rs, ma, mb)
                    rotations[rot] = rs.rank - _trace(rs, rot)
        gaps = rotation_gaps(rs, rank2_parabolics(rs))
        assert sorted(gaps) == sorted(g.co for g in rotations.values())
        for gap in gaps:
            assert rs.spec.raw_sign(gap) > 0
