"""Golden exact outputs, captured from the suite when every coordinate was a
`fractions.Fraction`, before integral values became plain ints.  The int
kernel must reproduce every report string, and the computed b(k), byte for
byte.  D4 and H3 b_poly are not in the benchmark's golden file."""

import pytest

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
