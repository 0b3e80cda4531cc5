"""Golden exact outputs.  REPORTS and B_COMPUTED were captured from the suite
when every coordinate was a `fractions.Fraction`, before integral values
became plain ints; DISCRIMINANTS, ORACLES and MM_EXACT were captured when
`MultiPoly` still held tuples of k-coefficient tuples, before it took the
Dunkl kernel's flat int dict.  Every string must reproduce byte for byte.
D4 and H3 b_poly are not in the benchmark's golden file."""

import hashlib

import pytest

from coxdunkl.dunkl import dunkl_laplacian, gaussian_exponential
from coxdunkl.mmintegral import mm_exact
from coxdunkl.polynomials import (MultiPoly, build_discriminant,
                                  divided_difference)
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
