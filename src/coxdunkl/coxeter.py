"""Finite Coxeter groups: root systems, enumeration, degrees, rank-2 census.

Roots are kept in simple-root coordinates with the normalization
(alpha, alpha) = 2 for every root, so the Gram matrix of the simple roots
has 2 on the diagonal and -2cos(pi/m_ij) off it, and every coordinate lies
in the single field QQ(2cos(pi/m*)) for the largest bond label m*.

A group element is the permutation it induces on the 2|S| roots (Casselman,
"Machine calculations in Weyl groups", 1994), held as an immutable `bytes`
object (every finite group here has 2|S| <= 240).  Composition is one
`bytes.translate` (g * s_i is `s_i.translate(g + pad)`), length counts the
positive roots sent negative, and the matrix, traces and det(1 - q w) are
read off the permutation only where a check needs them.  numpy is loaded
only by `RootSystem.float_data`, for the Monte Carlo sampler.
"""

import re
from collections import Counter
from typing import NamedTuple

from .errors import BudgetError, FactorizationError
from .scalars import QQ, KPoly, cos_field, kpoly_divexact, kpoly_gcd, qdiv

DEFAULT_ENUMERATION_BUDGET = 20000
DEFAULT_ROOT_BUDGET = 600

#: groups whose expensive checks are opt-in
HEAVY_LABELS = frozenset({"F4", "H4"})

_LABEL_RE = re.compile(r"^([ABDEFH])(\d+)$|^I2\((\d+)\)$")


class CoxeterDiagram:
    """Rank, bond matrix m_ij and a canonical label."""

    __slots__ = ("rank", "bonds", "label")

    def __init__(self, bonds, label):
        n = len(bonds)
        for i in range(n):
            if bonds[i][i] != 1:
                raise ValueError("diagonal bond labels must be 1")
            for j in range(n):
                if bonds[i][j] != bonds[j][i]:
                    raise ValueError("bond matrix must be symmetric")
                if i != j and bonds[i][j] < 2:
                    raise ValueError("off-diagonal bond labels must be >= 2")
        self.rank = n
        self.bonds = tuple(tuple(row) for row in bonds)
        self.label = label

    def max_bond(self):
        m = 3
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                m = max(m, self.bonds[i][j])
        return m

    def __repr__(self):
        return f"CoxeterDiagram({self.label!r}, rank={self.rank})"


def _chain(n, special=None):
    bonds = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        bonds[i][i + 1] = bonds[i + 1][i] = 3
    if special:
        i, j, m = special
        bonds[i][j] = bonds[j][i] = m
    return bonds


def standard_diagram(label: str) -> CoxeterDiagram:
    """Diagram for a canonical type label: A1..An, Bn, Dn, E6-E8, F4, H3, H4, I2(m)."""
    m = _LABEL_RE.match(label.strip())
    if not m:
        raise ValueError(f"unknown Coxeter type label {label!r}")
    if m.group(3) is not None:
        order = int(m.group(3))
        if order < 2:
            raise ValueError("I2(m) needs m >= 2")
        return CoxeterDiagram([[1, order], [order, 1]], f"I2({order})")
    family, n = m.group(1), int(m.group(2))
    if family == "A" and n >= 1:
        return CoxeterDiagram(_chain(n), label)
    if family == "B" and 2 <= n <= 8:
        return CoxeterDiagram(_chain(n, (n - 2, n - 1, 4)), label)
    if family == "D" and 4 <= n <= 8:
        bonds = _chain(n)
        bonds[n - 2][n - 1] = bonds[n - 1][n - 2] = 2
        bonds[n - 3][n - 1] = bonds[n - 1][n - 3] = 3
        return CoxeterDiagram(bonds, label)
    if family == "E" and n in (6, 7, 8):
        bonds = _chain(n - 1)
        for row in bonds:
            row.append(2)
        bonds.append([2] * (n - 1) + [1])
        bonds[2][n - 1] = bonds[n - 1][2] = 3
        return CoxeterDiagram(bonds, label)
    if family == "F" and n == 4:
        return CoxeterDiagram(_chain(4, (1, 2, 4)), label)
    if family == "H" and n in (3, 4):
        return CoxeterDiagram(_chain(n, (0, 1, 5)), label)
    raise ValueError(f"unknown Coxeter type label {label!r}")


def known_label(label: str) -> bool:
    try:
        standard_diagram(label)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# root systems
# ---------------------------------------------------------------------------


class RootSystem:
    """Positive roots of a finite Coxeter group in simple-root coordinates.

    Built by `build_root_system`; every value it holds is a raw coordinate
    tuple, as `gram_raw`, `roots_raw` and `pair_vectors` return them."""

    def __init__(self, diagram, spec, gram_raw, roots_raw, pair_vectors):
        self.diagram = diagram
        self.spec = spec
        self._gram_raw = gram_raw
        self._roots_raw = roots_raw
        self._pair_vectors = pair_vectors
        self._caches = {}

    @property
    def rank(self):
        return self.diagram.rank

    @property
    def num_positive(self):
        return len(self._roots_raw)

    @property
    def label(self):
        return self.diagram.label

    def inner(self, v, w):
        """Invariant inner product sum_ij v_i G_ij w_j of two raw coordinate
        vectors, from the Gram matrix alone."""
        sp = self.spec
        acc = sp.raw_zero()
        for x, row in zip(v, self._gram_raw):
            for g, y in zip(row, w):
                acc = sp.raw_add(acc, sp.raw_mul(sp.raw_mul(x, g), y))
        return acc

    # -- cached derived data -------------------------------------------------

    def _cache(self, key, build):
        val = self._caches.get(key)
        if val is None:
            val = build()
            self._caches[key] = val
        return val

    def gram_raw(self):
        return self._gram_raw

    def roots_raw(self):
        return self._roots_raw

    def pair_vectors(self):
        """For each positive root alpha, the vector ((alpha_i, alpha))_i = G c_alpha."""
        return self._pair_vectors

    def root_gram(self):
        """Raw matrix of inner products (alpha, beta) over positive roots,
        (alpha_a, alpha_b) = sum_i coord_i(alpha_a) (alpha_i, alpha_b); one
        triangle is formed and mirrored."""
        def build():
            sp = self.spec
            add, mul = sp.raw_add, sp.raw_mul
            pv = self.pair_vectors()
            out = []
            for a, root in enumerate(self.roots_raw()):
                nz = [(i, x) for i, x in enumerate(root) if any(x)]
                row = [out[b][a] for b in range(a)]
                for b in range(a, len(pv)):
                    acc = sp.raw_zero()
                    for i, x in nz:
                        acc = add(acc, mul(x, pv[b][i]))
                    row.append(acc)
                out.append(row)
            return tuple(map(tuple, out))
        return self._cache("root_gram", build)

    def signed_roots_raw(self):
        """Raw coordinates of all 2|S| roots: index b < |S| is positive root
        b, index |S| + b is its negative."""
        def build():
            sp = self.spec
            pos = self.roots_raw()
            return pos + tuple(tuple(sp.raw_neg(x) for x in c) for c in pos)
        return self._cache("signed_roots_raw", build)

    def simple_reflection_perms(self):
        """r `bytes` of length 2|S|: byte b of row j is the index of
        s_j(beta_b), from s_j(beta) = beta - (alpha_j, beta) alpha_j."""
        def build():
            sp = self.spec
            n = self.num_positive
            if 2 * n > 256:
                raise BudgetError(f"{self.label}: {2 * n} roots exceed a byte index")
            roots = self.signed_roots_raw()
            index = {c: b for b, c in enumerate(roots)}
            pv = self.pair_vectors()
            perms = []
            for j in range(self.rank):
                row = bytearray(2 * n)
                for b, c in enumerate(roots):
                    pair = pv[b][j] if b < n else sp.raw_neg(pv[b - n][j])
                    img = list(c)
                    img[j] = sp.raw_sub(c[j], pair)
                    img = index.get(tuple(img))
                    if img is None:
                        raise ArithmeticError(
                            "simple reflection image is not a root (internal bug)")
                    row[b] = img
                perms.append(bytes(row))
            return tuple(perms)
        return self._cache("simple_reflection_perms", build)

    # -- float data for the Monte Carlo sampler ------------------------------

    def float_data(self):
        """(A, C) with A the Cholesky factor of the Gram matrix and C the
        root coordinate matrix, both float64."""
        def build():
            import numpy as np
            to_float = self.spec.raw_float
            g = np.array([[to_float(e) for e in row] for row in self._gram_raw])
            a = np.linalg.cholesky(g)
            c = np.array([[to_float(e) for e in root] for root in self._roots_raw])
            return a, c
        return self._cache("float_data", build)

    def __repr__(self):
        return f"RootSystem({self.label}, |S|={self.num_positive})"


def build_root_system(diagram: CoxeterDiagram,
                      root_budget=DEFAULT_ROOT_BUDGET) -> RootSystem:
    """Close the simple roots under reflection, keeping positive representatives.

    The closure is breadth-first on raw coordinate tuples.  Reflecting v in
    alpha_i needs (alpha_i, v) for every i, which is v's pair vector, and
    (v, v) = sum_i v_i (alpha_i, v) must be 2 for every root."""
    spec = cos_field(diagram.max_bond())
    r = diagram.rank
    add, mul, sub = spec.raw_add, spec.raw_mul, spec.raw_sub

    def gram_entry(i, j):
        if i == j:
            return spec.raw(2)
        m = diagram.bonds[i][j]
        if m == 2:
            return spec.raw_zero()
        if m == 3:
            return spec.raw(-1)
        if m == diagram.max_bond():   # -c, with c of degree >= 2 here
            return (0, -1) + (0,) * (spec.degree - 2)
        raise ValueError(
            f"bond label {m} not expressible in QQ(2cos(pi/{diagram.max_bond()}))")

    gram = tuple(tuple(gram_entry(i, j) for j in range(r)) for i in range(r))
    rows = [[(j, g) for j, g in enumerate(row) if any(g)] for row in gram]

    zero, one, two = spec.raw_zero(), spec.raw_one(), spec.raw(2)
    roots = [tuple(one if j == i else zero for j in range(r)) for i in range(r)]
    seen = set(roots)
    pairs = []
    signs = {}
    # the list grows behind the loop, a BFS queue
    for v in roots:
        pair = []
        for row in rows:
            t = zero
            for j, g in row:
                if any(v[j]):
                    t = add(t, mul(g, v[j]))
            pair.append(t)
        pairs.append(tuple(pair))
        norm = zero
        for x, t in zip(v, pair):
            norm = add(norm, mul(x, t))
        if norm != two:
            raise ArithmeticError("root with norm != 2 (internal bug)")
        for i, t in enumerate(pair):
            w = list(v)
            w[i] = sub(v[i], t)
            # decide positivity from the first nonzero coordinate, whose
            # sign is often known from an earlier root
            e = next(e for e in w if any(e))
            sgn = signs.get(e)
            if sgn is None:
                sgn = signs[e] = spec.raw_sign(e)
            if sgn <= 0:
                continue
            w = tuple(w)
            if w in seen:
                continue
            if len(roots) >= root_budget:
                raise BudgetError(
                    f"root closure for {diagram.label} exceeded budget {root_budget}"
                    " (non-finite diagram?)")
            seen.add(w)
            roots.append(w)
    return RootSystem(diagram, spec, gram, tuple(roots), tuple(pairs))


# ---------------------------------------------------------------------------
# group enumeration
# ---------------------------------------------------------------------------


class GroupElement(NamedTuple):
    """w as the read-only permutation it induces on the signed root indices
    of `rs` (see `RootSystem.signed_roots_raw`), with a reduced word.

    `length` is the number of positive roots w sends negative."""

    rs: RootSystem
    perm: bytes
    word: tuple
    length: int

    @property
    def matrix(self):
        """w in simple-root coordinates, raw: column b is the root w(alpha_b)."""
        roots = self.rs.signed_roots_raw()
        return tuple(zip(*(roots[i] for i in self.perm[:self.rs.rank])))


def enumerate_group(rs: RootSystem,
                    budget=DEFAULT_ENUMERATION_BUDGET) -> list:
    """All group elements by breadth-first search over reduced words.

    The result is ordered by (length, word) lexicographically; BFS guarantees
    every stored word is reduced.  The permutation of g*s_i is
    s_i.translate(g + pad), and an element is identified by the images of
    the simple roots.
    """
    r, n = rs.rank, rs.num_positive
    gens = rs.simple_reflection_perms()
    pad = bytes(256 - 2 * n)
    negatives = bytes(range(n, 2 * n))
    identity = bytes(range(2 * n))
    elements = [GroupElement(rs, identity, (), 0)]
    seen = {identity[:r]}
    # the list grows behind the loop, a BFS queue: frontier order first,
    # then generator order, so words come out sorted
    for g in elements:
        table = g.perm + pad
        for i, s in enumerate(gens):
            if g.perm[i] >= n:
                continue    # g sends alpha_i negative: g * s_i is shorter
            p = s.translate(table)
            if p[:r] in seen:
                continue
            if len(elements) >= budget:
                raise BudgetError(
                    f"group enumeration for {rs.label} exceeded budget {budget}")
            if n - len(p[:n].translate(None, negatives)) != g.length + 1:
                raise ArithmeticError("inversion count differs from word "
                                      "length (internal bug)")
            seen.add(p[:r])
            elements.append(GroupElement(rs, p, g.word + (i,), g.length + 1))
    return elements


# ---------------------------------------------------------------------------
# length generating function and degrees
# ---------------------------------------------------------------------------


def poincare_polynomial(elements, spec) -> KPoly:
    """Sum of q^length over the group, as an exact polynomial in q."""
    hist = Counter(g.length for g in elements)
    top = max(hist)
    return KPoly.from_coeffs(spec, [hist.get(i, 0) for i in range(top + 1)])


class _Degrees(NamedTuple):
    degrees: tuple
    order: int
    num_reflections: int


class DegreeData(_Degrees):
    """Degrees d_i with |W| and |S|, checked on construction against
    prod d_i = |W| and sum (d_i - 1) = |S|."""

    __slots__ = ()

    def __new__(cls, degrees, order, num_reflections):
        prod = 1
        for d in degrees:
            prod *= d
        if prod != order:
            raise FactorizationError("degree product differs from group order")
        if sum(d - 1 for d in degrees) != num_reflections:
            raise FactorizationError("sum of (d_i - 1) differs from reflection count")
        return super().__new__(cls, degrees, order, num_reflections)


def compute_degrees(rs: RootSystem, poincare: KPoly) -> DegreeData:
    """Factor the length generating function as a product of q-integers.

    Trial division from the highest plausible degree downwards is exact and
    deterministic; both bookkeeping identities are validated on the result.
    """
    if any(any(a[1:]) or type(a[0]) is not int for a in poincare.co):
        raise FactorizationError("non-integer Poincare coefficient")
    coeffs = [a[0] for a in poincare.co]
    order = sum(coeffs)
    degrees = []
    work, size = coeffs, order
    while len(work) > 1:
        for d in range(len(work), 1, -1):
            if size % d:
                continue    # [d]_q divides work only if d = [d]_1 divides work(1)
            # long division by the monic [d]_q = 1 + q + ... + q^(d-1)
            rem, quotient = list(work), [0] * (len(work) - d + 1)
            for i in reversed(range(len(quotient))):
                c = quotient[i] = rem[i + d - 1]
                for j in range(i, i + d):
                    rem[j] -= c
            if not any(rem):
                break
        else:
            raise FactorizationError(
                f"cannot factor {KPoly.from_coeffs(QQ, work).to_string('q')}"
                " into q-integers (enumeration bug?)")
        degrees.append(d)
        work, size = quotient, size // d
    if work != [1]:
        raise FactorizationError("residual factor after q-integer division")
    degrees.sort()
    return DegreeData(tuple(degrees), order, rs.num_positive)


# ---------------------------------------------------------------------------
# Chevalley rational-function identity
# ---------------------------------------------------------------------------


class ChevalleyResult(NamedTuple):
    equal: bool
    lhs: tuple   # (numerator, denominator) in lowest terms, monic denominator
    rhs: tuple


def _char_traces(rs: RootSystem, elements) -> Counter:
    """How many elements w share each (tr(w), ..., tr(w^r)), in order of
    first occurrence; a trace is a coordinate tuple in Z[c].

    tr(v) = sum_b coord_b(v(alpha_b)) is read once per element v off its
    simple-root images; the images under w^j are those under w^(j-1)
    translated by w."""
    r = rs.rank
    roots = rs.signed_roots_raw()
    pad = bytes(256 - len(roots))
    trace = {}
    for g in elements:
        head = g.perm[:r]
        trace[head] = tuple(map(sum, zip(*(roots[x][b]
                                           for b, x in enumerate(head)))))
    out = Counter()
    for g in elements:
        table = g.perm + pad
        head = g.perm[:r]
        key = [trace[head]]
        for _ in range(r - 1):
            head = head.translate(table)
            key.append(trace[head])
        out[tuple(key)] += 1
    return out


def _det_from_traces(spec, p) -> KPoly:
    """det(1 - q w) = sum_k (-1)^k e_k q^k from the power sums p_j = tr(w^j)
    by Newton's identities k e_k = sum_i (-1)^(i-1) e_(k-i) p_i."""
    e = [spec.raw_one()]
    for k in range(1, len(p) + 1):
        acc = spec.raw_zero()
        for i in range(1, k + 1):
            term = spec.raw_mul(e[k - i], p[i - 1])
            acc = spec.raw_add(acc, term) if i % 2 else spec.raw_sub(acc, term)
        e.append(tuple(qdiv(x, k) for x in acc))
    return KPoly(spec, [ek if k % 2 == 0 else spec.raw_neg(ek)
                        for k, ek in enumerate(e)])


def _reduce_fraction(num: KPoly, den: KPoly):
    g = kpoly_gcd(num, den)
    if g.degree > 0:
        num = kpoly_divexact(num, g)
        den = kpoly_divexact(den, g)
    inv = KPoly(den.spec, (den.spec.raw_inv(den.co[-1]),))
    return (num * inv, den * inv)


def chevalley_q_identity(rs: RootSystem, elements, dd: DegreeData) -> ChevalleyResult:
    """Exact identity between the invariant-degree product and the element sum.

    Both sides of
        (1-q)^r * sum_w det(1 - q w)^(-1)  ==  |W| * prod_i (1-q)/(1-q^{d_i})
    are returned in lowest terms over the field.

    Every det(1 - q w) divides D = prod_i (1 - q^{d_i}) (Springer, "Regular
    elements of finite reflection groups", Invent. Math. 1974, Thm. 3.4),
    and its leading coefficient det(-w) is +-1, so the quotients are exact in
    Z[c][q].  With S = sum_w D / det(1 - q w) and D = (1-q)^r Q for
    Q = prod_i [d_i]_q, the left side is S / Q and the right side |W| / Q,
    already in lowest terms: the identity reads S = |W|.  A term that does
    not divide D (degrees that are not the group's) is summed as a fraction
    of its own, and the left side is then reduced.
    """
    spec = rs.spec
    qints = KPoly.one(spec)
    for d in dd.degrees:
        qints = qints * KPoly.from_coeffs(spec, [1] * d)
    one_minus_q_r = KPoly.from_coeffs(spec, [1, -1]) ** rs.rank
    dprod = qints * one_minus_q_r
    total = KPoly.zero(spec)
    side_num, side_den = KPoly.zero(spec), KPoly.one(spec)
    # (p_1..p_r) fixes det(1 - q w); grouping by it leaves few distinct terms
    for p, count in _char_traces(rs, elements).items():
        cp = _det_from_traces(spec, p)
        quotient, rem = dprod.divmod(cp)
        if rem.is_zero():
            total = total + count * quotient
        else:
            side_num = side_num * cp + count * side_den
            side_den = side_den * cp
    num = total * side_den + side_num * one_minus_q_r * qints
    den = qints * side_den
    rhs = (KPoly.const(spec, dd.order), qints)
    lhs = rhs if (num, den) == rhs else _reduce_fraction(num, den)
    return ChevalleyResult(lhs == rhs, lhs, rhs)


# ---------------------------------------------------------------------------
# rank-2 parabolic census and the psi identities
# ---------------------------------------------------------------------------


class Rank2Parabolic(NamedTuple):
    """Codimension-2 mirror intersection: a dihedral pointwise stabilizer."""

    m: int                # mirrors through the flat; the group is I2(m)
    member_roots: tuple   # sorted indices of those mirrors


def rank2_parabolics(rs: RootSystem) -> list:
    """One entry per plane spanned by two positive roots.

    Every unordered pair of reflections lands in exactly one entry; the
    partition is verified by the pair count identity."""
    if rs.rank == 2:   # a dihedral group: one plane, holding every root
        every = tuple(range(rs.num_positive))
        return [Rank2Parabolic(len(every), every)]
    sp = rs.spec
    gram = rs.root_gram()
    n = len(gram)
    four = sp.raw(4)
    # with every root of norm 2, the Gram determinant of roots i, j, g is
    # 2 (4 + xyz - x^2 - y^2 - z^2) for x = (i, j), y = (i, g), z = (j, g);
    # g lies in the plane of i and j exactly when it vanishes.  The Gram
    # entries take few values, so each triple is decided once.
    coplanar = {}

    def vanishes(x, y, z):
        xyz = sp.raw_mul(sp.raw_mul(x, y), z)
        squares = sp.raw_add(sp.raw_mul(x, x),
                             sp.raw_add(sp.raw_mul(y, y), sp.raw_mul(z, z)))
        return sp.raw_is_zero(sp.raw_sub(sp.raw_add(four, xyz), squares))

    assigned = set()
    planes = []
    for i in range(n):
        gi = gram[i]
        for j in range(i + 1, n):
            if (i, j) in assigned:
                continue
            x, gj = gi[j], gram[j]
            members = []
            for g in range(n):
                key = (x, gi[g], gj[g])
                hit = coplanar.get(key)
                if hit is None:
                    hit = coplanar[key] = vanishes(*key)
                if hit:
                    members.append(g)
            members = tuple(members)
            planes.append(Rank2Parabolic(len(members), members))
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    assigned.add((members[a], members[b]))
    total_pairs = sum(p.m * (p.m - 1) // 2 for p in planes)
    if total_pairs != n * (n - 1) // 2:
        raise ArithmeticError("mirror pairs do not partition into planes")
    return planes


def psi_invariant(dd: DegreeData) -> int:
    """3|S|^2 - sum(d_i^2 - 1)."""
    s = dd.num_reflections
    return 3 * s * s - sum(d * d - 1 for d in dd.degrees)


def rotation_gaps(rs: RootSystem, planes) -> list:
    """r - tr(s_a s_b) = 4 - (a, b)^2, raw, for every rotation s_a s_b != 1
    made by two reflections, each rotation once.

    Every such rotation lies in the dihedral group of exactly one plane, and
    there it is s_a0 s_b for the plane's first mirror a0 and one other b."""
    sp = rs.spec
    gram = rs.root_gram()
    four = sp.raw(4)
    out = []
    for p in planes:
        a0 = p.member_roots[0]
        for b in p.member_roots[1:]:
            x = gram[a0][b]
            out.append(sp.raw_sub(four, sp.raw_mul(x, x)))
    return out


class PsiReport(NamedTuple):
    psi: int
    parabolic_sum: int
    parabolic_ok: bool
    trace_identity_ok: bool
    census: tuple   # sorted (m, count) pairs


def verify_psi_identities(rs: RootSystem, dd: DegreeData) -> PsiReport:
    """Additivity of psi over rank-2 parabolics, and the trace-sum form.

    Checks exactly that psi(W) equals both sum(2m^2 - 2) over the census and
    24 * sum over two-reflection rotations of 1/(r - trace)."""
    psi = psi_invariant(dd)
    planes = rank2_parabolics(rs)
    parabolic_sum = sum(2 * p.m * p.m - 2 for p in planes)
    sp = rs.spec
    acc = sp.raw_zero()
    for gap, count in Counter(rotation_gaps(rs, planes)).items():
        if sp.raw_sign(gap) <= 0:
            raise ArithmeticError("rotation with r - trace <= 0 (internal bug)")
        acc = sp.raw_add(acc, sp.raw_mul(sp.raw(count), sp.raw_inv(gap)))
    trace_ok = sp.raw_mul(sp.raw(24), acc) == sp.raw(psi)
    census = Counter(p.m for p in planes)
    return PsiReport(psi, parabolic_sum, parabolic_sum == psi, trace_ok,
                     tuple(sorted(census.items())))
