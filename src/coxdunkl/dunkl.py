"""Dunkl operators, the contravariant and Gaussian bilinear forms, and the
norm of the discriminant as an exact polynomial in the deformation parameter.

The operator attached to a direction a is

    T_a f = d_a f + k * sum over positive roots alpha of
            (alpha, a) * (f - s_alpha f) / (alpha, x),

acting on polynomials in the coordinates u_i = (alpha_i, x).  Directions are
stored in the basis {omega_i} dual to the simple roots, so d_{omega_i} is the
plain partial derivative in u_i.  The divided differences come from per-root
monomial tables built by `polynomials.monomial_table` with the division-free
twisted-Leibniz step

    dd(u_i u^F) = (alpha_i, alpha) u^F + s_alpha(u_i) dd(u^F),

where s_alpha(u_i) comes from `polynomials.reflection_forms`.  The kernel
works directly on `MultiPoly.terms`, the flat {u^E c^e k^j: int} dicts of
`polynomials`, with its one product `_mul_into` and its c-fold `_fold`.  An
application builds each input monomial's image once and applies it to all
of its (c, k) slots.
The reflect-and-divide route (`apply_reflection`, `divided_difference`,
`divide_by_root_form`) does not use these tables; the tests check the
operators against it.
"""

import random
from collections import Counter
from typing import NamedTuple

from .errors import BudgetError
from .polynomials import (EXP_BITS, EXP_MASK, MultiPoly, _flat, _fold,
                          _kpoly, _mul_into, apply_reflection,
                          build_discriminant, monomial_table, reflection_forms)
from .scalars import FieldElement, KPoly, rat


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


def _dd_monomial(rs, root_index, key):
    """(u^E - s_alpha u^E) / (alpha, x) as a flat {u^F c^e: int} table.

    Twisted Leibniz on u^E = u_i * u^(E - e_i):
        dd(u^E) = (alpha_i, alpha) u^(E-e_i) + s_alpha(u_i) * dd(u^(E-e_i)).
    """
    pair = rs.pair_vectors()[root_index]
    forms = reflection_forms(rs, root_index)

    def step(i, prev_key, prev):
        dst = _flat(rs, (pair[i],), prev_key)
        _mul_into(dst, forms[i], prev.items())
        return _fold(rs, dst)

    return monomial_table(rs._cache(("dd", root_index), lambda: {0: {}}),
                          step, key)


def clear_dunkl_caches(rs):
    """Drop the divided-difference memo tables (after every `b_poly`, so
    that they do not outlive the computation)."""
    for key in [k for k in rs._caches if isinstance(k, tuple) and k[0] == "dd"]:
        rs._caches.pop(key, None)


def _apply_direction(rs, direction, flat):
    """Dunkl application on a flat dict; k-degree rises by <= 1.  The image
    d_a u^E + k sum_alpha (alpha, a) dd_alpha(u^E) of each u^E is built once."""
    cs = EXP_BITS * rs.rank
    umask = (1 << cs) - 1
    grad = [[(e << cs, x) for e, x in enumerate(w) if x] for w in direction.dual]
    refl = [(alpha, [((e << cs) + (1 << (cs + EXP_BITS)), x)
                     for e, x in enumerate(w) if x])
            for alpha, w in enumerate(direction.pairings) if any(w)]
    slots = {}
    for key, x in flat.items():
        slots.setdefault(key & umask, []).append((key & ~umask, x))
    out = {}
    for u, ux in slots.items():
        image = {}
        for i, ws in enumerate(grad):
            e = u >> (EXP_BITS * i) & EXP_MASK
            if e:
                _mul_into(image, ((u - (1 << (EXP_BITS * i)), e),), ws)
        for alpha, ws in refl:
            _mul_into(image, _dd_monomial(rs, alpha, u).items(), ws)
        _mul_into(out, ux, _fold(rs, image).items())
    return _fold(rs, out)


def dunkl_apply(direction: DunklDirection, f: MultiPoly) -> MultiPoly:
    """Apply the Dunkl operator for the given direction."""
    if direction.ring is not f.ring:
        raise ValueError("direction and polynomial from different rings")
    return MultiPoly(f.ring, _apply_direction(f.ring, direction, f.terms))


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
    rs = f.ring
    umask = (1 << (EXP_BITS * rs.rank)) - 1
    y_dirs = _root_directions(rs)
    memo = {0: g.terms}

    def step(i, prev_key, prev):
        return _apply_direction(rs, y_dirs[i], prev)

    out = {}
    for u, row in f._rows().items():
        node = monomial_table(memo, step, u)
        _mul_into(out, ((key - u, x) for key, x in row),
                  [(k, y) for k, y in node.items() if not k & umask])
    return _kpoly(rs, _fold(rs, out).items())


def dunkl_laplacian(f: MultiPoly) -> MultiPoly:
    """Sum of squared Dunkl operators over any orthonormal frame.

    Computed basis-independently as sum_j T_{omega_j} (y_{alpha_j} f)."""
    rs = f.ring
    omega = _omega_directions(rs)
    ydirs = _root_directions(rs)
    return sum((MultiPoly(rs, _apply_direction(
        rs, omega[j], _apply_direction(rs, ydirs[j], f.terms)))
        for j in range(rs.rank)), MultiPoly.zero(rs))


def gaussian_exponential(f: MultiPoly) -> MultiPoly:
    """exp of half the Dunkl Laplacian applied to f (a finite sum: the
    Laplacian lowers degree by exactly two)."""
    total = f
    term = f
    n = 0
    while not term.is_zero():
        n += 1
        term = dunkl_laplacian(term).scale(rat(1, 2 * n))
        total = total + term
    return total


def gamma_form(f: MultiPoly, g: MultiPoly) -> KPoly:
    """The Gaussian pairing: the contravariant pairing twisted by exp of half
    the Dunkl Laplacian on both arguments."""
    return beta_form(gaussian_exponential(f), gaussian_exponential(g))


# ---------------------------------------------------------------------------
# norm of the discriminant
# ---------------------------------------------------------------------------


class BFactorization(NamedTuple):
    """Leading constant and the positive rationals k_i with
    b(k) = b0 * prod (k + k_i)^{n_i}."""

    b0: FieldElement
    roots: tuple  # sorted ((k_i as a Fraction, multiplicity), ...)

    def expand(self, spec) -> KPoly:
        out = KPoly.const(spec, self.b0)
        for root, mult in self.roots:
            out = out * KPoly.from_coeffs(spec, [root, 1]) ** mult
        return out


class BPolyResult(NamedTuple):
    computed: KPoly
    closed_form: KPoly
    factorization: BFactorization    # None when the root pattern fails
    roots_exact: bool

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


def b_poly_is_heavy(rs):
    """Whether b(k) is outside the default budget: `b_poly` then needs
    allow_heavy=True and the suite heavy_types_enabled."""
    return rs.num_positive > 15 or rs.rank > 4


def b_poly(rs, dd, allow_heavy=False) -> BPolyResult:
    """The pairing of the discriminant with itself, three ways.

    `computed` applies the product of the root Dunkl operators to the
    discriminant and reads off the constant term (the discriminant is the
    product of the root linear forms, so this is its image under the
    x -> y substitution).  `closed_form` is the degree product formula, and
    the factorization certifies that the rational roots are exactly -m/d_i."""
    if not allow_heavy and b_poly_is_heavy(rs):
        raise BudgetError(
            f"b_poly for {rs.label} (|S|={rs.num_positive}) needs allow_heavy=True")
    sp = rs.spec
    flat = build_discriminant(rs).terms
    for direction in _root_directions(rs):
        flat = _apply_direction(rs, direction, flat)
    image = MultiPoly(rs, flat)
    if image.degree() > 0:
        raise ArithmeticError("discriminant pairing left positive-degree terms")
    computed = image.coefficient((0,) * rs.rank)
    clear_dunkl_caches(rs)

    closed = closed_form_b(sp, dd)

    fac = computed
    roots = Counter()
    exact = True
    for d in dd.degrees:
        for m in range(1, d):
            divisor = KPoly.from_coeffs(sp, [rat(m, d), 1])
            q, r = fac.divmod(divisor)
            if not r.is_zero():
                exact = False
                break
            fac = q
            roots[rat(m, d)] += 1
        if not exact:
            break
    factorization = None
    if exact and fac.degree == 0:
        b0 = fac.coeff(0)
        factorization = BFactorization(b0, tuple(sorted(roots.items())))
        if factorization.expand(sp) != computed:  # pragma: no cover
            raise ArithmeticError("factorization does not expand to b")
        if b0.sign() <= 0:  # pragma: no cover
            raise ArithmeticError("leading coefficient of b not positive")
    else:
        exact = False
    return BPolyResult(computed, closed, factorization, exact)


# ---------------------------------------------------------------------------
# defining-relation checks
# ---------------------------------------------------------------------------


class AlgebraReport(NamedTuple):
    trials: int
    checks: int
    failures: list

    @property
    def ok(self):
        return not self.failures


def random_poly(rs, max_degree, rng, homogeneous=True, terms=4):
    """Random small-integer polynomial for property checks (deterministic rng)."""
    r = rs.rank
    deg = rng.randint(1, max_degree)
    mapping = {}
    for _ in range(terms):
        cuts = sorted(rng.randint(0, deg) for _ in range(r - 1)) if r > 1 else []
        exps = []
        prev = 0
        for c in cuts:
            exps.append(c - prev)
            prev = c
        exps.append(deg - prev)
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        exps = tuple(exps)
        mapping[exps] = mapping.get(exps, 0) + coeff
        if not homogeneous and rng.random() < 0.3:
            deg = rng.randint(1, max_degree)
    return MultiPoly.from_terms(rs, {e: c for e, c in mapping.items() if c})


def verify_algebra_relations(rs, degree_cap=4, trials=25, seed=0) -> AlgebraReport:
    """Exact checks, coefficientwise in k, on random polynomials:

    (a) the Dunkl operators commute;
    (b) the commutator [T_a, x_b] equals (a,b) + k sum (alpha,a)(alpha,b) s_alpha;
    (c) the deformed Euler identity
        sum_j u_j T_{omega_j} f = deg(f) f + k sum_alpha (f - s_alpha f).
    """
    rng = random.Random(seed)
    sp = rs.spec
    r = rs.rank
    roots = rs.roots_raw()
    pair_vecs = rs.pair_vectors()
    failures = []
    checks = 0
    for t in range(trials):
        f = random_poly(rs, degree_cap, rng)
        # (a) commutativity on dual-basis pairs
        for i in range(r):
            ti = dunkl_apply_omega(rs, i, f)
            for j in range(i + 1, r):
                tj = dunkl_apply_omega(rs, j, f)
                checks += 1
                if dunkl_apply_omega(rs, j, ti) != dunkl_apply_omega(rs, i, tj):
                    failures.append(f"commutator trial {t} pair ({i},{j})")
        # (b) deformed Heisenberg with a = omega_i, b = alpha_j
        refl_images = [apply_reflection(f, a) for a in range(rs.num_positive)]
        for i in range(r):
            tf = dunkl_apply_omega(rs, i, f)
            for j in range(r):
                uj_f = MultiPoly.variable(rs, j) * f
                lhs = dunkl_apply_omega(rs, i, uj_f) - MultiPoly.variable(rs, j) * tf
                rhs = f if i == j else MultiPoly.zero(rs)
                acc = MultiPoly.zero(rs)
                for a in range(rs.num_positive):
                    w = sp.raw_mul(roots[a][i], pair_vecs[a][j])
                    if not any(w):
                        continue
                    acc = acc + refl_images[a] * MultiPoly(rs, _flat(rs, (w,)))
                rhs = rhs + acc.k_shift(1)
                checks += 1
                if lhs != rhs:
                    failures.append(f"heisenberg trial {t} pair ({i},{j})")
        # (c) deformed Euler identity on the homogeneous f
        deg = f.degree()
        lhs = MultiPoly.zero(rs)
        for j in range(r):
            lhs = lhs + MultiPoly.variable(rs, j) * dunkl_apply_omega(rs, j, f)
        anti = MultiPoly.zero(rs)
        for a in range(rs.num_positive):
            anti = anti + (f - refl_images[a])
        rhs = f.scale(deg) + anti.k_shift(1)
        checks += 1
        if lhs != rhs:
            failures.append(f"euler trial {t}")
    return AlgebraReport(trials, checks, failures)
