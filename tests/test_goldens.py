"""Golden exact outputs.  REPORTS and B_COMPUTED were captured from the suite
when every coordinate was a `fractions.Fraction`, before integral values
became plain ints; DISCRIMINANTS, ORACLES and MM_EXACT were captured when
`MultiPoly` still held tuples of k-coefficient tuples, before it took the
Dunkl kernel's flat int dict; STRINGS were captured when `FieldElement`,
`KPoly` and `MultiPoly` each had a term printer of their own.  Every string
must reproduce byte for byte.  D4 and H3 b_poly are not in the benchmark's
golden file."""

import hashlib
import json
from pathlib import Path

import pytest

from coxdunkl.coxeter import build_root_system, standard_diagram
from coxdunkl.dunkl import dunkl_laplacian, gaussian_exponential
from coxdunkl.mmintegral import mm_exact
from coxdunkl.polynomials import (MultiPoly, build_discriminant,
                                  divided_difference)
from coxdunkl.scalars import QQ, KPoly, cos_field, rat
from coxdunkl.suite import SuiteConfig, _b_result, group_context, run_check

#: "type/check" -> (status, expected, actual) of the suite report
REPORTS = {
    'A2/mm_exact_k1': ('pass', '12', '12'),
    'A2/mm_exact_k2': ('pass', '4320', '4320'),
    'A2/chevalley': (
        'pass',
        '(6) / (q^3 + 2q^2 + 2q + 1)',
        '(6) / (q^3 + 2q^2 + 2q + 1)'),
    'B2/mm_exact_k1': ('pass', '48', '48'),
    'B2/mm_exact_k2': ('pass', '241920', '241920'),
    'B2/chevalley': (
        'pass',
        '(8) / (q^4 + 2q^3 + 2q^2 + 2q + 1)',
        '(8) / (q^4 + 2q^3 + 2q^2 + 2q + 1)'),
    'I2(5)/mm_exact_k1': ('pass', '240', '240'),
    'I2(5)/mm_exact_k2': ('pass', '21772800', '21772800'),
    'I2(5)/chevalley': (
        'pass',
        '(10) / (q^5 + 2q^4 + 2q^3 + 2q^2 + 2q + 1)',
        '(10) / (q^5 + 2q^4 + 2q^3 + 2q^2 + 2q + 1)'),
    'A3/mm_exact_k1': ('pass', '288', '288'),
    'A3/mm_exact_k2': ('pass', '87091200', '87091200'),
    'A3/chevalley': (
        'pass',
        '(24) / (q^6 + 3q^5 + 5q^4 + 6q^3 + 5q^2 + 3q + 1)',
        '(24) / (q^6 + 3q^5 + 5q^4 + 6q^3 + 5q^2 + 3q + 1)'),
    'D4/b_poly': (
        'pass',
        '192*(2k+1)*(4k+1)*(4k+2)*(4k+3)*(4k+1)*(4k+2)*(4k+3)*(6k+1)'
        '*(6k+2)*(6k+3)*(6k+4)*(6k+5)',
        '192*(2k+1)*(4k+1)*(4k+2)*(4k+3)*(4k+1)*(4k+2)*(4k+3)*(6k+1)'
        '*(6k+2)*(6k+3)*(6k+4)*(6k+5) (roots -m/d_i verified)'),
    'H3/b_poly': (
        'pass',
        '120*(2k+1)*(6k+1)*(6k+2)*(6k+3)*(6k+4)*(6k+5)*(10k+1)*(10k+2)'
        '*(10k+3)*(10k+4)*(10k+5)*(10k+6)*(10k+7)*(10k+8)*(10k+9)',
        '120*(2k+1)*(6k+1)*(6k+2)*(6k+3)*(6k+4)*(6k+5)*(10k+1)*(10k+2)'
        '*(10k+3)*(10k+4)*(10k+5)*(10k+6)*(10k+7)*(10k+8)'
        '*(10k+9) (roots -m/d_i verified)'),
}

#: type -> the computed b(k), `KPoly.to_string()`
B_COMPUTED = {
    'D4': ('12230590464k^12 + 73383542784k^11 + 198577225728k^10'
           ' + 320203653120k^9 + 342372188160k^8 + 255485804544k^7'
           ' + 136291663872k^6 + 52311048192k^5 + 14319415296k^4'
           ' + 2722701312k^3 + 340853760k^2 + 25187328k + 829440'),
    'H3': ('1866240000000000k^15 + 13996800000000000k^14'
           ' + 48169728000000000k^13 + 100818432000000000k^12'
           ' + 143376164352000000k^11 + 146592711936000000k^10'
           ' + 111182125363200000k^9 + 63607152614400000k^8'
           ' + 27630562010342400k^7 + 9096747720998400k^6'
           ' + 2246512038105600k^5 + 407668546368000k^4'
           ' + 52467106521600k^3 + 4505468313600k^2 + 229866854400k'
           ' + 5225472000'),
}


@pytest.mark.parametrize("name", list(REPORTS))
def test_exact_report_strings(name):
    label, check = name.split("/")
    rep = run_check(check, group_context(label), SuiteConfig())
    assert (rep.status, rep.expected, rep.actual) == REPORTS[name]


def test_benchmark_golden_ops_reproduce():
    # every exact op of the benchmark's golden file, as the suite reports it:
    # a mismatch here is an `outputs_incorrect` benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    golden = json.loads(path.read_text())
    assert golden
    for name, want in sorted(golden.items()):
        label, check = name.split("/")
        rep = run_check(check, group_context(label), SuiteConfig())
        assert rep.mode == "exact" and rep.status == "pass", name
        assert {"expected": rep.expected, "actual": rep.actual} == want, name


@pytest.mark.parametrize("label", list(B_COMPUTED))
def test_computed_b_poly_strings(label):
    # the suite's shared b_poly result (computed once per group context)
    res = _b_result(group_context(label), SuiteConfig())
    assert res.computed.to_string() == B_COMPUTED[label]

#: type -> `build_discriminant(rs).to_string()`, or (SHA-256 of the string,
#: number of monomials) where the string is long
DISCRIMINANTS = {
    'A2': 'u1^2*u2 + u1*u2^2',
    'B2': '(c)*u1^3*u2 + 3*u1^2*u2^2 + (c)*u1*u2^3',
    'I2(5)': ('(c + 1)*u1^4*u2 + (4*c + 2)*u1^3*u2^2 + (4*c + 2)*u1^2*u2^3'
              ' + (c + 1)*u1*u2^4'),
    'A3': ('u1^3*u2^2*u3 + u1^3*u2*u3^2 + 2*u1^2*u2^3*u3 + 3*u1^2*u2^2*u3^2'
           ' + u1^2*u2*u3^3 + u1*u2^4*u3 + 2*u1*u2^3*u3^2 + u1*u2^2*u3^3'),
    'B3': ('5becaf2ab8eb523285c984763fddd4d7f77a480ba2803ac6cd362c1f11c0caf3',
           24),
    'I2(7)': ('(4*c^2 + 3*c - 2)*u1^6*u2 + (21*c^2 + 18*c - 12)*u1^5*u2^2'
              ' + (45*c^2 + 35*c - 25)*u1^4*u2^3'
              ' + (45*c^2 + 35*c - 25)*u1^3*u2^4'
              ' + (21*c^2 + 18*c - 12)*u1^2*u2^5 + (4*c^2 + 3*c - 2)*u1*u2^6'),
    'I2(12)': ('9366f63ec0206634945070ce39c11918779b68d624cdb8c63394aae805f85735',
               11),
    'D4': ('db9ac4dd9d4ffd1f368bf1069d103c0ee3b21bc76d77cd687a9fc7d0f1cb04fc',
           126),
    'H3': ('ceb49ec73a2f9fef92ffbd5a47b3eb10fc3fa07434fa3e14d313c92fe7eb8098',
           84),
}

#: type -> gaussian_exponential(u1^2), dunkl_laplacian(Delta),
#: dunkl_laplacian(u1^2 Delta) and the divided difference of u1^3 u2 in the
#: highest root, printed (or digested) as in DISCRIMINANTS
ORACLES = {
    'B2': (
        'u1^2 + (8k + 2)',
        '0',
        '(-16k - 8)*u1^4 + ((-16*c)*k + (4*c))*u1^3*u2 + 36*u1^2*u2^2'
        ' + (12*c)*u1*u2^3',
        '(c)*u1^2*u2 + 2*u1*u2^2 + (2*c)*u2^3',
    ),
    'I2(7)': (
        'u1^2 + (14k + 2)',
        '0',
        ('fd0905cd0feae20e1cd0c4df02998a530f3f24678fe52333e6a1da51e8453c9e',
         7),
        '(c^2 - c - 1)*u1^2*u2 + (-c^2 + c + 1)*u1*u2^2',
    ),
    'I2(12)': (
        'u1^2 + (24k + 2)',
        '0',
        ('6e64737f0076d1fcb5e4706c7521d842024ca73a105e2745f9defc8b2e22d6ed',
         12),
        '(-c^3 + 4*c)*u1^2*u2 + u1*u2^2 + (c)*u2^3',
    ),
}

#: type -> (F(1), F(2)) from `mm_exact`
MM_EXACT = {
    'D4': ('829440', '1168071076085760000'),
    'H3': ('5225472000', '3496091863679470927872000000'),
}


def _printed(p, golden):
    if isinstance(golden, str):
        return p.to_string()
    return (hashlib.sha256(p.to_string().encode()).hexdigest(),
            len(p.term_items()))


@pytest.mark.parametrize("label", list(DISCRIMINANTS))
def test_discriminant_strings(label):
    delta = build_discriminant(group_context(label).rs)
    assert _printed(delta, DISCRIMINANTS[label]) == DISCRIMINANTS[label]


@pytest.mark.parametrize("label", list(ORACLES))
def test_oracle_route_strings(label):
    rs = group_context(label).rs
    u1, u2 = MultiPoly.variable(rs, 0), MultiPoly.variable(rs, 1)
    delta = build_discriminant(rs)
    polys = (gaussian_exponential(u1 * u1), dunkl_laplacian(delta),
             dunkl_laplacian(u1 * u1 * delta),
             divided_difference(u1 * u1 * u1 * u2, rs.num_positive - 1))
    for p, golden in zip(polys, ORACLES[label]):
        assert _printed(p, golden) == golden


@pytest.mark.parametrize("label", list(MM_EXACT))
def test_mm_exact_strings(label):
    rs = group_context(label).rs
    assert (str(mm_exact(rs, 1)), str(mm_exact(rs, 2))) == MM_EXACT[label]


#: name -> str() of a FieldElement, KPoly or MultiPoly of `_string_values`:
#: +-1 coefficients, negative and fractional rationals, powers of c in
#: QQ(2cos(pi/5)) (where c^2 = c + 1) and QQ(2cos(pi/12)), zeros, and
#: degree-0 irrational k-coefficients inside a MultiPoly
STRINGS = {
    'fe/qq_int': '-2',
    'fe/qq_rat': '3/4',
    'fe/zero5': '0',
    'fe/one5': '1',
    'fe/c5': 'c',
    'fe/-c5': '-c',
    'fe/c5^2': 'c + 1',
    'fe/c5-1': 'c - 1',
    'fe/half_c5': '1/2*c - 3/4',
    'fe/-2/3c5+5': '-2/3*c + 5',
    'fe/rat5': '-7/3',
    'fe/c12^2': 'c^2',
    'fe/c12^3': 'c^3',
    'fe/-c12^2': '-c^2',
    'fe/c12^3+4c': '-c^3 + 4*c',
    'fe/c12_mixed': 'c^3 - c^2 + 1/2*c - 1',
    'fe/c12^4': '4*c^2 - 1',
    'kp/zero': '0',
    'kp/one': '1',
    'kp/-1': '-1',
    'kp/2k+1': '2k + 1',
    'kp/-k-1': '-k - 1',
    'kp/k': 'k',
    'kp/-k^2': '-k^2',
    'kp/-half_k': '-1/2k',
    'kp/rat_q': 'q^3 - 3/4q + 1/2',
    'kp/f5': '(-c + 1)*k^2 + k + (c)',
    'kp/f5_const': '(c + 1)',
    'kp/f5_-c': '(-c)',
    'kp/f5_rat': 'k^2 - k + 5/2',
    'kp/f12_q': 'q^4 - 1/3q^3 + (-c^2)*q^2 + (c^3 - 1)',
    'mp/zero': '0',
    'mp/one': '1',
    'mp/-3': '-3',
    'mp/half': '1/2',
    'mp/k_const': '(-2k + 1)',
    'mp/a2': '(-k)*u1^3 + (2k + 1)*u1^2 - 1/2*u1*u2 - u2^2 + u1 - 3*u2 + 5/3',
    'mp/i5': ('2/7*u2^3 + (-k + (c))*u1^2 + ((c + 1)*k)*u1*u2 + (c + 1)*u1'
              ' + (-c)*u2 + (c)'),
    'mp/i5_const': '(-c)',
    'mp/i12': ('-u1^3 + (c^3 - 1/2*c)*u1*u2 + ((-c^2)*k^2 + 1/3)*u2^2'
               ' + (-c^2)*u1 + ((c)*k - 1)'),
}


def _string_values():
    """The values STRINGS prints: names ending in "_q" in the variable q."""
    f5, f12 = cos_field(5), cos_field(12)
    c5, c12 = f5.gen(), f12.gen()
    c12_2 = c12 * c12
    c12_3 = c12_2 * c12
    a2, i5, i12 = (build_root_system(standard_diagram(label))
                   for label in ("A2", "I2(5)", "I2(12)"))

    def kp(spec, coeffs):
        return KPoly.from_coeffs(spec, coeffs)

    def mp(rs, mapping):
        return MultiPoly.from_terms(rs, mapping)

    return {
        "fe/qq_int": QQ.from_rational(-2),
        "fe/qq_rat": QQ.from_rational(rat(3, 4)),
        "fe/zero5": f5.zero(),
        "fe/one5": f5.one(),
        "fe/c5": c5,
        "fe/-c5": -c5,
        "fe/c5^2": c5 * c5,
        "fe/c5-1": c5 - 1,
        "fe/half_c5": rat(1, 2) * c5 - rat(3, 4),
        "fe/-2/3c5+5": -rat(2, 3) * c5 + 5,
        "fe/rat5": f5.from_rational(rat(-7, 3)),
        "fe/c12^2": c12_2,
        "fe/c12^3": c12_3,
        "fe/-c12^2": -c12_2,
        "fe/c12^3+4c": -c12_3 + 4 * c12,
        "fe/c12_mixed": c12_3 - c12_2 + rat(1, 2) * c12 - 1,
        "fe/c12^4": c12_3 * c12,
        "kp/zero": KPoly.zero(QQ),
        "kp/one": KPoly.one(QQ),
        "kp/-1": kp(QQ, [-1]),
        "kp/2k+1": kp(QQ, [1, 2]),
        "kp/-k-1": kp(QQ, [-1, -1]),
        "kp/k": kp(QQ, [0, 1]),
        "kp/-k^2": kp(QQ, [0, 0, -1]),
        "kp/-half_k": kp(QQ, [0, rat(-1, 2)]),
        "kp/rat_q": kp(QQ, [rat(1, 2), rat(-3, 4), 0, 1]),
        "kp/f5": kp(f5, [c5, 1, 1 - c5]),
        "kp/f5_const": kp(f5, [c5 * c5]),
        "kp/f5_-c": kp(f5, [-c5]),
        "kp/f5_rat": kp(f5, [rat(5, 2), -1, f5.one()]),
        "kp/f12_q": kp(f12, [c12_3 - 1, 0, -c12_2, rat(-1, 3), 1]),
        "mp/zero": MultiPoly.zero(a2),
        "mp/one": MultiPoly.one(a2),
        "mp/-3": MultiPoly.constant(a2, -3),
        "mp/half": MultiPoly.constant(a2, rat(1, 2)),
        "mp/k_const": MultiPoly.constant(a2, kp(a2.spec, [1, -2])),
        "mp/a2": mp(a2, {(2, 0): kp(a2.spec, [1, 2]), (0, 1): -3,
                         (1, 1): rat(-1, 2), (0, 0): rat(5, 3), (1, 0): 1,
                         (0, 2): -1, (3, 0): kp(a2.spec, [0, -1])}),
        "mp/i5": mp(i5, {(1, 0): c5 + 1, (0, 1): -c5,
                         (2, 0): kp(f5, [c5, -1]),
                         (1, 1): kp(f5, [0, c5 * c5]), (0, 0): c5,
                         (0, 3): f5.from_rational(rat(2, 7))}),
        "mp/i5_const": MultiPoly.constant(i5, -c5),
        "mp/i12": mp(i12, {(1, 1): c12_3 - rat(1, 2) * c12,
                           (0, 2): kp(f12, [rat(1, 3), 0, -c12_2]),
                           (3, 0): -1, (0, 0): kp(f12, [-1, c12]),
                           (1, 0): -c12_2}),
    }


def test_coefficient_strings():
    values = _string_values()
    assert list(values) == list(STRINGS)
    for name, value in values.items():
        printed = value.to_string("q") if name.endswith("_q") else str(value)
        assert printed == STRINGS[name], name
