"""Dunkl operators, the contravariant and Gaussian bilinear forms, and the
norm of the discriminant as an exact polynomial in the deformation parameter.

The operator attached to a direction a is

    T_a f = d_a f + k * sum over positive roots alpha of
            (alpha, a) * (f - s_alpha f) / (alpha, x),

acting on polynomials in the coordinates u_i = (alpha_i, x).  Directions are
stored in the basis {omega_i} dual to the simple roots, so d_{omega_i} is the
plain partial derivative in u_i.  The divided differences come from per-root
monomial tables built by `polynomials.monomial_table` with the division-free
twisted-Leibniz step (`polynomials.reflection_step`)

    dd(u_i u^F) = (alpha_i, alpha) u^F + s_alpha(u_i) dd(u^F).

s_alpha fixes every u_j with (alpha_j, alpha) = 0, so dd(u_j g) = u_j dd(g):
the table of alpha is keyed by the exponents of the variables s_alpha moves
alone, and an application shifts its entry by the fixed variables' u^E
(A4's b(k) in root-index order fills 1272 table entries, 3901 with
full-monomial keys).

The kernel works on `MultiPoly.terms`, the flat {u^E c^e k^j: int} dicts of
`polynomials`: an application is one `_map_monomials` walk, which builds
each input monomial's image once for all of its (c, k) slots.  The tables
are locals of the call that fills them (`b_poly`, `dunkl_apply`,
`dunkl_laplacian`, `gaussian_exponential`, `beta_form`, `gamma_form`,
which shares one set between its two exponentials and its pairing, and
`verify_algebra_relations`).  `b_poly` starts from the anti-invariant
discriminant, on which T_a acts as (1 + 2k) d_a, so its first application
is a plain derivative and its tables stop below degree |S|.  The root operators commute, and `b_poly`
takes them in the order of `_operator_order`, which reads each table first
as late, and so at as low a degree, as a count of entries finds (A4: 1037
entries, 11814 terms; 1272 and 15985 in root-index order).  The tests check
the operators against `polynomials.divided_difference`, which sums Taylor's
formula in d_alpha and shares no table, reflection form or step with this
kernel.
"""

from itertools import combinations_with_replacement
from math import comb
from typing import NamedTuple

from .errors import BudgetError
from .polynomials import (EXP_BITS, EXP_MASK, MultiPoly, _flat, _fold,
                          _kpoly, _map_monomials, _mul_into, _reduce,
                          apply_reflection, build_discriminant,
                          monomial_table, reflection_step)
from .scalars import KPoly, rat


# ---------------------------------------------------------------------------
# directions
# ---------------------------------------------------------------------------


class DunklDirection(NamedTuple):
    """A direction a in the reflection representation, in raw coordinates:
    `dual[i]` is its coefficient of omega_i, and `pairings[b]` is
    (alpha_b, a) for every positive root alpha_b."""

    ring: object
    dual: tuple
    pairings: tuple

    @classmethod
    def omega(cls, ring, i):
        """The dual basis vector omega_i (so the derivative part is d/du_i):
        (alpha, omega_i) is alpha's coordinate i."""
        sp = ring.spec
        dual = tuple(sp.raw_one() if j == i else sp.raw_zero()
                     for j in range(ring.rank))
        return cls(ring, dual, tuple(c[i] for c in ring.roots_raw()))

    @classmethod
    def from_root(cls, ring, root_index):
        """The positive root alpha as a direction: dual coordinates
        (alpha_i, alpha), pairings its row of the root Gram matrix."""
        return cls(ring, ring.pair_vectors()[root_index],
                   ring.root_gram()[root_index])


def _omega_directions(rs):
    return rs._cache("omega_dirs", lambda: tuple(
        DunklDirection.omega(rs, i) for i in range(rs.rank)))


def _root_directions(rs):
    return rs._cache("root_dirs", lambda: tuple(
        DunklDirection.from_root(rs, i) for i in range(rs.num_positive)))


# ---------------------------------------------------------------------------
# integer divided-difference kernel
# ---------------------------------------------------------------------------


def _dd_tables(rs):
    """Empty divided-difference memos, one per positive root, for the call
    that creates them: entry E of table alpha is dd_alpha(u^E), as flat terms."""
    return [{0: {}} for _ in range(rs.num_positive)]


def _fixed_masks(rs):
    """Per positive root alpha, the exponent bits of the u_j that s_alpha
    fixes, those with (alpha_j, alpha) = 0."""
    return rs._cache("fixed_masks", lambda: tuple(
        sum(EXP_MASK << (EXP_BITS * j) for j, w in enumerate(pair) if not any(w))
        for pair in rs.pair_vectors()))


def _apply_direction(rs, direction, flat, tables):
    """Dunkl application on a flat dict; k-degree rises by <= 1.  The image
    d_a u^E + k sum_alpha (alpha, a) dd_alpha(u^E) of each u^E is built once,
    its divided differences from `tables` (see `_dd_tables`).  An image is
    c-reduced but keeps its zeros, since `_map_monomials` drops them from
    the sum."""
    cs = EXP_BITS * rs.rank
    masks = _fixed_masks(rs)
    grad = [[(e << cs, x) for e, x in enumerate(w) if x] for w in direction.dual]
    refl = [(tables[alpha], reflection_step(rs, alpha, divided=True), masks[alpha],
             [((e << cs) + (1 << (cs + EXP_BITS)), x) for e, x in enumerate(w) if x])
            for alpha, w in enumerate(direction.pairings) if any(w)]

    def image(u):
        out = {}
        for i, ws in enumerate(grad):
            e = u >> (EXP_BITS * i) & EXP_MASK
            if e:
                _mul_into(out, ((u - (1 << (EXP_BITS * i)), e),), ws)
        for memo, step, fixed, ws in refl:
            # dd(u^E_fixed u^E_moved) = u^E_fixed dd(u^E_moved); the short
            # pairing list is the outer operand, so the inner loop over the
            # table entry is entered once per pairing term
            uf = u & fixed
            entry = memo.get(u - uf)   # a hit needs no walker call
            if entry is None:
                entry = monomial_table(memo, step, u - uf)
            _mul_into(out, [(key + uf, x) for key, x in ws] if uf else ws,
                      entry.items())
        return _reduce(rs, out)

    return _map_monomials(rs, flat, image)


def root_derivative(rs, root_index, flat):
    """d_alpha on a flat dict, d_alpha = sum_i (alpha_i, alpha) d/du_i, in
    one loop over the terms; no table is read.  The sum is folded once, so
    the result is zero-free."""
    cs = EXP_BITS * rs.rank
    moved = [(EXP_BITS * i, [(e << cs, x) for e, x in enumerate(w) if x])
             for i, w in enumerate(rs.pair_vectors()[root_index]) if any(w)]
    out = {}
    get = out.get
    for key, x in flat.items():
        for shift, ws in moved:
            e = key >> shift & EXP_MASK
            if e:
                base = key - (1 << shift)
                y = x * e
                for kw, w in ws:
                    kw += base
                    out[kw] = get(kw, 0) + y * w
    return _fold(rs, out)


def dunkl_apply(direction: DunklDirection, f: MultiPoly) -> MultiPoly:
    """Apply the Dunkl operator for the given direction."""
    f._check_ring(direction)
    rs = f.ring
    return MultiPoly(rs, _apply_direction(rs, direction, f.terms, _dd_tables(rs)))


def dunkl_apply_omega(rs, i, f: MultiPoly) -> MultiPoly:
    return dunkl_apply(_omega_directions(rs)[i], f)


def dunkl_apply_root(rs, root_index, f: MultiPoly) -> MultiPoly:
    return dunkl_apply(_root_directions(rs)[root_index], f)


# ---------------------------------------------------------------------------
# bilinear forms
# ---------------------------------------------------------------------------


def beta_form(f: MultiPoly, g: MultiPoly) -> KPoly:
    """The contravariant pairing: substitute the Dunkl operator y_{alpha_j}
    for each multiplication variable u_j in f, apply to g, evaluate at 0.

    Normalized so that pairing(1, 1) = 1; homogeneous polynomials of
    different degrees pair to zero."""
    f._check_ring(g)
    return _beta_form(f, g, _dd_tables(f.ring))


def _beta_form(f, g, tables):
    """`beta_form` with its divided differences from `tables` (see
    `_dd_tables`)."""
    rs = f.ring
    umask = (1 << (EXP_BITS * rs.rank)) - 1
    y_dirs = _root_directions(rs)
    memo = {0: g.terms}   # y^E g by packed E, for this call only

    def step(i, prev_key, prev):
        return _apply_direction(rs, y_dirs[i], prev, tables)

    def image(u):
        return {k: y for k, y in monomial_table(memo, step, u).items()
                if not k & umask}

    return _kpoly(rs, _map_monomials(rs, f.terms, image).items())


def _laplacian(rs, flat, tables):
    """sum_j T_{omega_j} (y_{alpha_j} f) on a flat dict, its divided
    differences from `tables` (see `_dd_tables`)."""
    omega = _omega_directions(rs)
    ydirs = _root_directions(rs)
    return sum((MultiPoly(rs, _apply_direction(
        rs, omega[j], _apply_direction(rs, ydirs[j], flat, tables), tables))
        for j in range(rs.rank)), MultiPoly.zero(rs))


def dunkl_laplacian(f: MultiPoly) -> MultiPoly:
    """Sum of squared Dunkl operators over any orthonormal frame.

    Computed basis-independently as sum_j T_{omega_j} (y_{alpha_j} f)."""
    return _laplacian(f.ring, f.terms, _dd_tables(f.ring))


def gaussian_exponential(f: MultiPoly) -> MultiPoly:
    """exp of half the Dunkl Laplacian applied to f (a finite sum: the
    Laplacian lowers degree by exactly two), one set of tables for all of
    its terms."""
    return _gaussian_exponential(f, _dd_tables(f.ring))


def _gaussian_exponential(f, tables):
    """`gaussian_exponential` with its divided differences from `tables`."""
    rs = f.ring
    total = f
    term = f
    n = 0
    while not term.is_zero():
        n += 1
        term = _laplacian(rs, term.terms, tables).scale(rat(1, 2 * n))
        total = total + term
    return total


def gamma_form(f: MultiPoly, g: MultiPoly) -> KPoly:
    """The Gaussian pairing: the contravariant pairing twisted by exp of half
    the Dunkl Laplacian on both arguments.  The two exponentials and the
    pairing read one set of tables."""
    f._check_ring(g)
    tables = _dd_tables(f.ring)
    return _beta_form(_gaussian_exponential(f, tables),
                      _gaussian_exponential(g, tables), tables)


# ---------------------------------------------------------------------------
# norm of the discriminant
# ---------------------------------------------------------------------------


class BPolyResult(NamedTuple):
    computed: KPoly
    closed_form: KPoly

    @property
    def equal(self):
        return self.computed == self.closed_form


def closed_form_b(spec, dd) -> KPoly:
    """|W| * prod_i prod_{m=1}^{d_i - 1} (k d_i + m)."""
    out = KPoly.const(spec, dd.order)
    for d in dd.degrees:
        for m in range(1, d):
            out = out * KPoly.from_coeffs(spec, [m, d])
    return out


def closed_form_b_string(dd) -> str:
    parts = [str(dd.order)]
    for d in dd.degrees:
        for m in range(1, d):
            parts.append(f"({d}k+{m})")
    return "*".join(parts)


def b_poly_is_heavy(rs) -> str:
    """Why b(k) is outside the default budget, or "" when it is inside: a
    gated `b_poly` needs allow_heavy=True and the suite heavy_types_enabled,
    and both report this text."""
    if rs.num_positive > 15:
        return f"|S|={rs.num_positive} exceeds the default budget"
    return f"rank {rs.rank} exceeds the default budget" if rs.rank > 4 else ""


def _operator_order(rs):
    """The order in which `b_poly` applies the |S| root Dunkl operators, as
    root indices.  The operators commute, so any order gives b(k); the order
    decides when each table is first read, and so how many degrees it fills.

    Root 0 comes first: that step is the plain derivative `root_derivative`
    and reads no table.  The step with input degree D then takes the
    remaining root b that opens the fewest new entries: the sum, over the
    roots alpha with (alpha, b) != 0 whose table no earlier step has read,
    of C(D + m, m), the number of monomials of degree <= D in alpha's m
    moved variables.  Ties go to the lower index."""
    n = rs.num_positive
    moved = [sum(1 for w in pair if any(w)) for pair in rs.pair_vectors()]
    reads = [[alpha for alpha, w in enumerate(row) if any(w)]
             for row in rs.root_gram()]
    opened = [False] * n
    order = [0]
    rest = list(range(1, n))
    for degree in range(n - 1, 0, -1):
        size = [comb(degree + m, m) for m in moved]
        b = min(rest, key=lambda c: sum(size[a] for a in reads[c]
                                        if not opened[a]))
        rest.remove(b)
        order.append(b)
        for a in reads[b]:
            opened[a] = True
    return order


def b_poly(rs, dd, allow_heavy=False) -> BPolyResult:
    """The pairing of the discriminant with itself, two ways.

    `computed` applies the product of the root Dunkl operators to the
    discriminant and reads off the constant term (the discriminant is the
    product of the root linear forms, so this is its image under the
    x -> y substitution).  The discriminant is anti-invariant: s_alpha Delta
    = -Delta, so every divided difference of it is 2 Delta / (alpha, x) and
    the first operator acts as T_a Delta = (1 + 2k) d_a Delta (Dunkl, Trans.
    AMS 311, 1989).  That step is the plain derivative, a direction with no
    root pairings, and its factor (1 + 2k) multiplies the constant term, so
    no divided-difference table of degree |S| is built.  `closed_form` is
    the degree product formula, a product of the factors (k d_i + m):
    equality with it certifies that the roots of b are exactly -m/d_i, with
    their multiplicities.

    The root operators commute, so the order of the product is free: the
    one loop takes them in the order of `_operator_order`, which keeps the
    divided-difference tables small."""
    if not allow_heavy and (heavy := b_poly_is_heavy(rs)):
        raise BudgetError(f"b_poly for {rs.label} needs allow_heavy=True: {heavy}")
    order = _operator_order(rs)
    directions = _root_directions(rs)
    tables = _dd_tables(rs)
    flat = root_derivative(rs, order[0], build_discriminant(rs).terms)
    for b in order[1:]:
        flat = _apply_direction(rs, directions[b], flat, tables)
    image = MultiPoly(rs, flat)
    if image.degree() > 0:
        raise ArithmeticError("discriminant pairing left positive-degree terms")
    computed = KPoly.from_coeffs(rs.spec, [1, 2]) * image.coefficient(
        (0,) * rs.rank)
    return BPolyResult(computed, closed_form_b(rs.spec, dd))


# ---------------------------------------------------------------------------
# defining-relation checks
# ---------------------------------------------------------------------------


class AlgebraReport(NamedTuple):
    monomials: int
    checks: int
    failures: list

    @property
    def ok(self):
        return not self.failures


def verify_algebra_relations(rs, degree_cap=4) -> AlgebraReport:
    """Exact checks, coefficientwise in k, on every monomial u^E with
    1 <= |E| <= degree_cap.  Each relation is linear in f, so this proves it
    for every polynomial of those degrees:

    (a) the Dunkl operators commute;
    (b) the commutator [T_a, x_b] equals (a,b) + k sum (alpha,a)(alpha,b) s_alpha;
    (c) the deformed Euler identity
        sum_j u_j T_{omega_j} f = deg(f) f + k sum_alpha (f - s_alpha f).
    """
    r = rs.rank
    roots = rs.roots_raw()
    pair_vecs = rs.pair_vectors()
    omega = _omega_directions(rs)
    tables = _dd_tables(rs)
    k = MultiPoly.constant(rs, KPoly.from_coeffs(rs.spec, [0, 1]))
    u = [MultiPoly.variable(rs, j) for j in range(r)]

    def t(i, f):
        return MultiPoly(rs, _apply_direction(rs, omega[i], f.terms, tables))

    monomials = [tuple(c.count(i) for i in range(r))
                 for deg in range(1, degree_cap + 1)
                 for c in combinations_with_replacement(range(r), deg)]
    failures = []
    checks = 0
    for exps in monomials:
        f = MultiPoly.from_terms(rs, {exps: 1})
        tf = [t(i, f) for i in range(r)]
        # (a) commutativity on dual-basis pairs
        for i in range(r):
            for j in range(i + 1, r):
                checks += 1
                if t(j, tf[i]) != t(i, tf[j]):
                    failures.append(f"commutator {exps} pair ({i},{j})")
        # (b) deformed Heisenberg with a = omega_i, b = alpha_j
        refl_images = [apply_reflection(f, a) for a in range(rs.num_positive)]
        for i in range(r):
            for j in range(r):
                rhs = f if i == j else MultiPoly.zero(rs)
                for a, sf in enumerate(refl_images):
                    w = rs.spec.raw_mul(roots[a][i], pair_vecs[a][j])
                    rhs = rhs + k * sf * MultiPoly(rs, _flat(rs, (w,)))
                checks += 1
                if t(i, u[j] * f) - u[j] * tf[i] != rhs:
                    failures.append(f"heisenberg {exps} pair ({i},{j})")
        # (c) deformed Euler identity on the homogeneous f
        lhs = sum((u[j] * tf[j] for j in range(r)), MultiPoly.zero(rs))
        anti = sum((f - sf for sf in refl_images), MultiPoly.zero(rs))
        checks += 1
        if lhs != f.scale(sum(exps)) + k * anti:
            failures.append(f"euler {exps}")
    return AlgebraReport(len(monomials), checks, failures)
