"""The output contract: exact text and JSON of small commands.

The expected bytes were recorded before text, LaTeX and JSON were moved onto
one term walk; text and JSON must not change.  The one later change is the
JSON ring tag of ``qbell`` and of ``ore``'s ``x^0`` line: it is read from every
coefficient, so their q-polynomial coefficients make it ``Q[q]``, not ``Q``.
The partial ``bell``/``qbell`` entries (``--k``) were recorded from the
hand-written Bell and q-Bell recursions before they were replaced by reads of
the SH-hat triangle.  ``quotient blumen`` and ``qcomm-bell`` have text output
only; their entries were recorded before the quotient closed forms were read
off one q-multinomial.  The ``weyl --d 12`` and ``blumen --n 8`` entries were
recorded while that q-multinomial was still a quotient of q-factorials, before
it became a product of Gaussian binomials.
"""

import pytest

from ncbinom.cli import main

GOLDEN = {
    ('binom', '--degree', '4'): {
        'text': ('1*E(1)^4 + 1*E(1112) + 4*E(112)*E(1) + 1*E(1122) + 6*E(12)*E(1)^2 + '
            '3*E(12)^2 + 4*E(122)*E(1) + 1*E(1222) + 4*E(2)*E(1)^3 + 4*E(2)*E(112) '
            '+ 12*E(2)*E(12)*E(1) + 4*E(2)*E(122) + 6*E(2)^2*E(1)^2 + '
            '6*E(2)^2*E(12) + 4*E(2)^3*E(1) + 1*E(2)^4\n'),
        'json': ('{"ring": "Q", "basis": "pbw", "alphabet": 2, "terms": [{"coeff": "1", '
            '"factors": [["1", 4]]}, {"coeff": "1", "factors": [["1112", 1]]}, '
            '{"coeff": "4", "factors": [["112", 1], ["1", 1]]}, {"coeff": "1", '
            '"factors": [["1122", 1]]}, {"coeff": "6", "factors": [["12", 1], '
            '["1", 2]]}, {"coeff": "3", "factors": [["12", 2]]}, {"coeff": "4", '
            '"factors": [["122", 1], ["1", 1]]}, {"coeff": "1", "factors": '
            '[["1222", 1]]}, {"coeff": "4", "factors": [["2", 1], ["1", 3]]}, '
            '{"coeff": "4", "factors": [["2", 1], ["112", 1]]}, {"coeff": "12", '
            '"factors": [["2", 1], ["12", 1], ["1", 1]]}, {"coeff": "4", '
            '"factors": [["2", 1], ["122", 1]]}, {"coeff": "6", "factors": [["2", '
            '2], ["1", 2]]}, {"coeff": "6", "factors": [["2", 2], ["12", 1]]}, '
            '{"coeff": "4", "factors": [["2", 3], ["1", 1]]}, {"coeff": "1", '
            '"factors": [["2", 4]]}]}\n'),
    },
    ('binom', '--degree', '3', '--ring', 'GF:3'): {
        'text': ('1*E(1)^3 + 1*E(112) + 1*E(122) + 1*E(2)^3\n'),
        'json': ('{"ring": "GF:3", "basis": "pbw", "alphabet": 2, "terms": [{"coeff": '
            '"1", "factors": [["1", 3]]}, {"coeff": "1", "factors": [["112", 1]]}, '
            '{"coeff": "1", "factors": [["122", 1]]}, {"coeff": "1", "factors": '
            '[["2", 3]]}]}\n'),
    },
    ('binom', '--alphabet', '11', '--degree', '1'): {
        'text': ('1*E([1]) + 1*E([2]) + 1*E([3]) + 1*E([4]) + 1*E([5]) + 1*E([6]) + '
            '1*E([7]) + 1*E([8]) + 1*E([9]) + 1*E([10]) + 1*E([11])\n'),
        'json': ('{"ring": "Q", "basis": "pbw", "alphabet": 11, "terms": [{"coeff": '
            '"1", "factors": [["[1]", 1]]}, {"coeff": "1", "factors": [["[2]", '
            '1]]}, {"coeff": "1", "factors": [["[3]", 1]]}, {"coeff": "1", '
            '"factors": [["[4]", 1]]}, {"coeff": "1", "factors": [["[5]", 1]]}, '
            '{"coeff": "1", "factors": [["[6]", 1]]}, {"coeff": "1", "factors": '
            '[["[7]", 1]]}, {"coeff": "1", "factors": [["[8]", 1]]}, {"coeff": '
            '"1", "factors": [["[9]", 1]]}, {"coeff": "1", "factors": [["[10]", '
            '1]]}, {"coeff": "1", "factors": [["[11]", 1]]}]}\n'),
    },
    ('sh', '--degree', '2,2'): {
        'text': ('1*E(1122) + 1*E(1212) + 1*E(1221) + 1*E(2112) + 1*E(2121) + '
            '1*E(2211)\n'),
        'json': ('{"ring": "Q", "basis": "word", "alphabet": 2, "terms": [{"coeff": '
            '"1", "word": "1122"}, {"coeff": "1", "word": "1212"}, {"coeff": "1", '
            '"word": "1221"}, {"coeff": "1", "word": "2112"}, {"coeff": "1", '
            '"word": "2121"}, {"coeff": "1", "word": "2211"}]}\n'),
    },
    ('sh', '--degree', '0,0'): {
        'text': ('1*E(e)\n'),
        'json': ('{"ring": "Q", "basis": "word", "alphabet": 2, "terms": [{"coeff": '
            '"1", "word": "e"}]}\n'),
    },
    ('sh', '--degree', '2,2', '--pbw'): {
        'text': ('1*E(1122) + 3*E(12)^2 + 4*E(122)*E(1) + 4*E(2)*E(112) + '
            '12*E(2)*E(12)*E(1) + 6*E(2)^2*E(1)^2\n'),
        'json': ('{"ring": "Q", "basis": "pbw", "alphabet": 2, "terms": [{"coeff": "1", '
            '"factors": [["1122", 1]]}, {"coeff": "3", "factors": [["12", 2]]}, '
            '{"coeff": "4", "factors": [["122", 1], ["1", 1]]}, {"coeff": "4", '
            '"factors": [["2", 1], ["112", 1]]}, {"coeff": "12", "factors": [["2", '
            '1], ["12", 1], ["1", 1]]}, {"coeff": "6", "factors": [["2", 2], ["1", '
            '2]]}]}\n'),
    },
    ('pbw', '--expr', '1/3*E(12)*E(2) + 2/5*E(1)^3 - 3'): {
        'text': ('-3*1 + 2/5*E(1)^3 + 1/3*E(122) + 2/3*E(2)*E(12) + 1/3*E(2)^2*E(1)\n'),
        'json': ('{"ring": "Q", "basis": "pbw", "alphabet": 2, "terms": [{"coeff": '
            '"-3", "factors": []}, {"coeff": "2/5", "factors": [["1", 3]]}, '
            '{"coeff": "1/3", "factors": [["122", 1]]}, {"coeff": "2/3", '
            '"factors": [["2", 1], ["12", 1]]}, {"coeff": "1/3", "factors": [["2", '
            '2], ["1", 1]]}]}\n'),
    },
    ('bell', '--n', '3', '--dual'): {
        'text': ('B*(3,0): 0\nB*(3,1): 1*E(122)\nB*(3,2): 1*E(112) + '
            '3*E(12)*E(1)\nB*(3,3): 1*E(1)^3\n'),
        'json': ('B*(3,0): {"ring": "Q", "basis": "pbw", "alphabet": 2, "terms": '
            '[]}\nB*(3,1): {"ring": "Q", "basis": "pbw", "alphabet": 2, "terms": '
            '[{"coeff": "1", "factors": [["122", 1]]}]}\nB*(3,2): {"ring": "Q", '
            '"basis": "pbw", "alphabet": 2, "terms": [{"coeff": "1", "factors": '
            '[["112", 1]]}, {"coeff": "3", "factors": [["12", 1], ["1", '
            '1]]}]}\nB*(3,3): {"ring": "Q", "basis": "pbw", "alphabet": 2, '
            '"terms": [{"coeff": "1", "factors": [["1", 3]]}]}\n'),
    },
    ('qbell', '--n', '3'): {
        'text': ('1*E(112) + (-1*q + -1*q^2)*E(121) + 1*E(122) + q^3*E(211) + 1*E(212) '
            '+ (-1*q + -1*q^2)*E(221) + 1*E(222)\n'),
        'json': ('{"ring": "Q[q]", "basis": "word", "alphabet": 2, "terms": [{"coeff": '
            '"1", "word": "112"}, {"coeff": "-1*q + -1*q^2", "word": "121"}, '
            '{"coeff": "1", "word": "122"}, {"coeff": "q^3", "word": "211"}, '
            '{"coeff": "1", "word": "212"}, {"coeff": "-1*q + -1*q^2", "word": '
            '"221"}, {"coeff": "1", "word": "222"}]}\n'),
    },
    ('qbell', '--n', '4', '--k', '2'): {
        'text': ('1*E(1122) + 1*E(1212) + (-1*q + -1*q^2 + -1*q^3)*E(1221) + 1*E(2112) + '
            '(-1*q + -1*q^2 + -1*q^3)*E(2121) + (q^3 + q^4 + q^5)*E(2211)\n'),
        'json': ('{"ring": "Q[q]", "basis": "word", "alphabet": 2, "terms": [{"coeff": '
            '"1", "word": "1122"}, {"coeff": "1", "word": "1212"}, {"coeff": "-1*q + '
            '-1*q^2 + -1*q^3", "word": "1221"}, {"coeff": "1", "word": "2112"}, '
            '{"coeff": "-1*q + -1*q^2 + -1*q^3", "word": "2121"}, {"coeff": "q^3 + '
            'q^4 + q^5", "word": "2211"}]}\n'),
    },
    # every coefficient of B_q(3,3) = y^3 is the integer 1, so the ring is Q
    ('qbell', '--n', '3', '--k', '3'): {
        'text': ('1*E(222)\n'),
        'json': ('{"ring": "Q", "basis": "word", "alphabet": 2, "terms": [{"coeff": "1", '
            '"word": "222"}]}\n'),
    },
    # k > n is the zero polynomial, not an error
    ('bell', '--n', '3', '--k', '5'): {
        'text': ('B(3,5): 0\n'),
        'json': ('B(3,5): {"ring": "Q", "basis": "pbw", "alphabet": 2, "terms": []}\n'),
    },
    ('qbell', '--n', '3', '--k', '5'): {
        'text': ('0\n'),
        'json': ('{"ring": "Q", "basis": "word", "alphabet": 2, "terms": []}\n'),
    },
    # below degree 2 the ring tag tells an int coefficient from a q-polynomial:
    # only a coefficient that sigma has touched is one, as on x^1 of ore --n 1
    ('qbell', '--n', '0'): {
        'text': ('1*E(e)\n'),
        'json': ('{"ring": "Q", "basis": "word", "alphabet": 2, "terms": [{"coeff": "1", '
            '"word": "e"}]}\n'),
    },
    ('qbell', '--n', '1'): {
        'text': ('1*E(2)\n'),
        'json': ('{"ring": "Q", "basis": "word", "alphabet": 2, "terms": [{"coeff": "1", '
            '"word": "2"}]}\n'),
    },
    ('qbell', '--n', '1', '--k', '1'): {
        'text': ('1*E(2)\n'),
        'json': ('{"ring": "Q", "basis": "word", "alphabet": 2, "terms": [{"coeff": "1", '
            '"word": "2"}]}\n'),
    },
    ('qbell', '--n', '2', '--k', '2'): {
        'text': ('1*E(22)\n'),
        'json': ('{"ring": "Q", "basis": "word", "alphabet": 2, "terms": [{"coeff": "1", '
            '"word": "22"}]}\n'),
    },
    ('ore', '--n', '0', '--sigma', 'grading'): {
        'text': ('coeff of x^0: 1*E(e)\n'),
        'json': ('coeff of x^0: {"ring": "Q", "basis": "word", "alphabet": 2, "terms": '
            '[{"coeff": "1", "word": "e"}]}\n'),
    },
    ('ore', '--n', '0', '--sigma', 'id'): {
        'text': ('coeff of x^0: 1*E(e)\n'),
        'json': ('coeff of x^0: {"ring": "Q", "basis": "word", "alphabet": 2, "terms": '
            '[{"coeff": "1", "word": "e"}]}\n'),
    },
    ('ore', '--n', '1', '--sigma', 'grading'): {
        'text': ('coeff of x^1: 1*E(e)\ncoeff of x^0: 1*E(2)\n'),
        'json': ('coeff of x^1: {"ring": "Q[q]", "basis": "word", "alphabet": 2, '
            '"terms": [{"coeff": "1", "word": "e"}]}\ncoeff of x^0: {"ring": "Q", '
            '"basis": "word", "alphabet": 2, "terms": [{"coeff": "1", "word": "2"}]}\n'),
    },
    ('ore', '--n', '1', '--sigma', 'id'): {
        'text': ('coeff of x^1: 1*E(e)\ncoeff of x^0: 1*E(2)\n'),
        'json': ('coeff of x^1: {"ring": "Q", "basis": "word", "alphabet": 2, "terms": '
            '[{"coeff": "1", "word": "e"}]}\ncoeff of x^0: {"ring": "Q", "basis": '
            '"word", "alphabet": 2, "terms": [{"coeff": "1", "word": "2"}]}\n'),
    },
    ('ore', '--n', '2', '--sigma', 'grading'): {
        'text': ('coeff of x^2: 1*E(e)\ncoeff of x^1: (1 + q)*E(2)\ncoeff of x^0: '
            '1*E(12) + -1*q*E(21) + 1*E(22)\n'),
        'json': ('coeff of x^2: {"ring": "Q[q]", "basis": "word", "alphabet": 2, '
            '"terms": [{"coeff": "1", "word": "e"}]}\ncoeff of x^1: {"ring": '
            '"Q[q]", "basis": "word", "alphabet": 2, "terms": [{"coeff": "1 + q", '
            '"word": "2"}]}\ncoeff of x^0: {"ring": "Q[q]", "basis": "word", '
            '"alphabet": 2, "terms": [{"coeff": "1", "word": "12"}, {"coeff": '
            '"-1*q", "word": "21"}, {"coeff": "1", "word": "22"}]}\n'),
    },
    ('quotient', 'weyl', '--d', '3'): {
        'text': ('1*E(1)^3 + 3*E(12)*E(1) + 3*E(2)*E(1)^2 + 3*E(2)*E(12) + '
            '3*E(2)^2*E(1) + 1*E(2)^3\n'),
        'json': ('{"ring": "Q", "basis": "pbw", "alphabet": 2, "terms": [{"coeff": "1", '
            '"factors": [["1", 3]]}, {"coeff": "3", "factors": [["12", 1], ["1", '
            '1]]}, {"coeff": "3", "factors": [["2", 1], ["1", 2]]}, {"coeff": "3", '
            '"factors": [["2", 1], ["12", 1]]}, {"coeff": "3", "factors": [["2", '
            '2], ["1", 1]]}, {"coeff": "1", "factors": [["2", 3]]}]}\n'),
    },
    ('quotient', 'kill', '--set', '12', '--expr', '(E(1)+E(2))^3'): {
        'text': ('1*E(1)^3 + 1*E(112) + 1*E(122) + 3*E(2)*E(1)^2 + 3*E(2)^2*E(1) + '
            '1*E(2)^3\n'),
        'json': ('{"ring": "Q", "basis": "pbw", "alphabet": 2, "terms": [{"coeff": "1", '
            '"factors": [["1", 3]]}, {"coeff": "1", "factors": [["112", 1]]}, '
            '{"coeff": "1", "factors": [["122", 1]]}, {"coeff": "3", "factors": '
            '[["2", 1], ["1", 2]]}, {"coeff": "3", "factors": [["2", 2], ["1", '
            '1]]}, {"coeff": "1", "factors": [["2", 3]]}]}\n'),
    },
    ('quotient', 'weyl', '--d', '12', '--max-degree', '12'): {
        'text': ('1*E(1)^12 + 66*E(12)*E(1)^10 + 1485*E(12)^2*E(1)^8 + '
            '13860*E(12)^3*E(1)^6 + 51975*E(12)^4*E(1)^4 + 62370*E(12)^5*E(1)^2 '
            '+ 10395*E(12)^6 + 12*E(2)*E(1)^11 + 660*E(2)*E(12)*E(1)^9 + '
            '11880*E(2)*E(12)^2*E(1)^7 + 83160*E(2)*E(12)^3*E(1)^5 + '
            '207900*E(2)*E(12)^4*E(1)^3 + 124740*E(2)*E(12)^5*E(1) + '
            '66*E(2)^2*E(1)^10 + 2970*E(2)^2*E(12)*E(1)^8 + '
            '41580*E(2)^2*E(12)^2*E(1)^6 + 207900*E(2)^2*E(12)^3*E(1)^4 + '
            '311850*E(2)^2*E(12)^4*E(1)^2 + 62370*E(2)^2*E(12)^5 + '
            '220*E(2)^3*E(1)^9 + 7920*E(2)^3*E(12)*E(1)^7 + '
            '83160*E(2)^3*E(12)^2*E(1)^5 + 277200*E(2)^3*E(12)^3*E(1)^3 + '
            '207900*E(2)^3*E(12)^4*E(1) + 495*E(2)^4*E(1)^8 + '
            '13860*E(2)^4*E(12)*E(1)^6 + 103950*E(2)^4*E(12)^2*E(1)^4 + '
            '207900*E(2)^4*E(12)^3*E(1)^2 + 51975*E(2)^4*E(12)^4 + '
            '792*E(2)^5*E(1)^7 + 16632*E(2)^5*E(12)*E(1)^5 + '
            '83160*E(2)^5*E(12)^2*E(1)^3 + 83160*E(2)^5*E(12)^3*E(1) + '
            '924*E(2)^6*E(1)^6 + 13860*E(2)^6*E(12)*E(1)^4 + '
            '41580*E(2)^6*E(12)^2*E(1)^2 + 13860*E(2)^6*E(12)^3 + '
            '792*E(2)^7*E(1)^5 + 7920*E(2)^7*E(12)*E(1)^3 + '
            '11880*E(2)^7*E(12)^2*E(1) + 495*E(2)^8*E(1)^4 + '
            '2970*E(2)^8*E(12)*E(1)^2 + 1485*E(2)^8*E(12)^2 + 220*E(2)^9*E(1)^3 '
            '+ 660*E(2)^9*E(12)*E(1) + 66*E(2)^10*E(1)^2 + 66*E(2)^10*E(12) + '
            '12*E(2)^11*E(1) + 1*E(2)^12\n'),
        'json': ('{"ring": "Q", "basis": "pbw", "alphabet": 2, "terms": [{"coeff": '
            '"1", "factors": [["1", 12]]}, {"coeff": "66", "factors": [["12", '
            '1], ["1", 10]]}, {"coeff": "1485", "factors": [["12", 2], ["1", '
            '8]]}, {"coeff": "13860", "factors": [["12", 3], ["1", 6]]}, '
            '{"coeff": "51975", "factors": [["12", 4], ["1", 4]]}, {"coeff": '
            '"62370", "factors": [["12", 5], ["1", 2]]}, {"coeff": "10395", '
            '"factors": [["12", 6]]}, {"coeff": "12", "factors": [["2", 1], '
            '["1", 11]]}, {"coeff": "660", "factors": [["2", 1], ["12", 1], '
            '["1", 9]]}, {"coeff": "11880", "factors": [["2", 1], ["12", 2], '
            '["1", 7]]}, {"coeff": "83160", "factors": [["2", 1], ["12", 3], '
            '["1", 5]]}, {"coeff": "207900", "factors": [["2", 1], ["12", 4], '
            '["1", 3]]}, {"coeff": "124740", "factors": [["2", 1], ["12", 5], '
            '["1", 1]]}, {"coeff": "66", "factors": [["2", 2], ["1", 10]]}, '
            '{"coeff": "2970", "factors": [["2", 2], ["12", 1], ["1", 8]]}, '
            '{"coeff": "41580", "factors": [["2", 2], ["12", 2], ["1", 6]]}, '
            '{"coeff": "207900", "factors": [["2", 2], ["12", 3], ["1", 4]]}, '
            '{"coeff": "311850", "factors": [["2", 2], ["12", 4], ["1", 2]]}, '
            '{"coeff": "62370", "factors": [["2", 2], ["12", 5]]}, {"coeff": '
            '"220", "factors": [["2", 3], ["1", 9]]}, {"coeff": "7920", '
            '"factors": [["2", 3], ["12", 1], ["1", 7]]}, {"coeff": "83160", '
            '"factors": [["2", 3], ["12", 2], ["1", 5]]}, {"coeff": "277200", '
            '"factors": [["2", 3], ["12", 3], ["1", 3]]}, {"coeff": "207900", '
            '"factors": [["2", 3], ["12", 4], ["1", 1]]}, {"coeff": "495", '
            '"factors": [["2", 4], ["1", 8]]}, {"coeff": "13860", "factors": '
            '[["2", 4], ["12", 1], ["1", 6]]}, {"coeff": "103950", "factors": '
            '[["2", 4], ["12", 2], ["1", 4]]}, {"coeff": "207900", "factors": '
            '[["2", 4], ["12", 3], ["1", 2]]}, {"coeff": "51975", "factors": '
            '[["2", 4], ["12", 4]]}, {"coeff": "792", "factors": [["2", 5], '
            '["1", 7]]}, {"coeff": "16632", "factors": [["2", 5], ["12", 1], '
            '["1", 5]]}, {"coeff": "83160", "factors": [["2", 5], ["12", 2], '
            '["1", 3]]}, {"coeff": "83160", "factors": [["2", 5], ["12", 3], '
            '["1", 1]]}, {"coeff": "924", "factors": [["2", 6], ["1", 6]]}, '
            '{"coeff": "13860", "factors": [["2", 6], ["12", 1], ["1", 4]]}, '
            '{"coeff": "41580", "factors": [["2", 6], ["12", 2], ["1", 2]]}, '
            '{"coeff": "13860", "factors": [["2", 6], ["12", 3]]}, {"coeff": '
            '"792", "factors": [["2", 7], ["1", 5]]}, {"coeff": "7920", '
            '"factors": [["2", 7], ["12", 1], ["1", 3]]}, {"coeff": "11880", '
            '"factors": [["2", 7], ["12", 2], ["1", 1]]}, {"coeff": "495", '
            '"factors": [["2", 8], ["1", 4]]}, {"coeff": "2970", "factors": '
            '[["2", 8], ["12", 1], ["1", 2]]}, {"coeff": "1485", "factors": '
            '[["2", 8], ["12", 2]]}, {"coeff": "220", "factors": [["2", 9], '
            '["1", 3]]}, {"coeff": "660", "factors": [["2", 9], ["12", 1], '
            '["1", 1]]}, {"coeff": "66", "factors": [["2", 10], ["1", 2]]}, '
            '{"coeff": "66", "factors": [["2", 10], ["12", 1]]}, {"coeff": '
            '"12", "factors": [["2", 11], ["1", 1]]}, {"coeff": "1", "factors": '
            '[["2", 12]]}]}\n'),
    },
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_output_is_byte_stable(capsys, argv, fmt):
    assert main([*argv, "--format", fmt]) == 0
    assert capsys.readouterr() == (GOLDEN[argv][fmt], "")


TEXT_ONLY = {
    ('quotient', 'blumen', '--n', '4'): (
        'y^0 h^0 x^4: 1\n'
        'y^0 h^1 x^2: 1 + q + 2*q^2 + q^3 + q^4\n'
        'y^0 h^2 x^0: 1 + q + q^2\n'
        'y^1 h^0 x^3: 1 + q + q^2 + q^3\n'
        'y^1 h^1 x^1: 1 + 2*q + 3*q^2 + 3*q^3 + 2*q^4 + q^5\n'
        'y^2 h^0 x^2: 1 + q + 2*q^2 + q^3 + q^4\n'
        'y^2 h^1 x^0: 1 + q + 2*q^2 + q^3 + q^4\n'
        'y^3 h^0 x^1: 1 + q + q^2 + q^3\n'
        'y^4 h^0 x^0: 1\n'),
    ('quotient', 'qcomm-bell', '--n', '5', '--k', '2'): (
        'd1 d4: 1 + q + q^2 + q^3 + q^4\n'
        'd2 d3: 1 + q + 2*q^2 + 2*q^3 + 2*q^4 + q^5 + q^6\n'),
    ('quotient', 'blumen', '--n', '8'): (
        'y^0 h^0 x^8: 1\n'
        'y^0 h^1 x^6: 1 + q + 2*q^2 + 2*q^3 + 3*q^4 + 3*q^5 + 4*q^6 + 3*q^7 + '
        '3*q^8 + 2*q^9 + 2*q^10 + q^11 + q^12\n'
        'y^0 h^2 x^4: 1 + 2*q + 4*q^2 + 6*q^3 + 10*q^4 + 13*q^5 + 17*q^6 + '
        '19*q^7 + 22*q^8 + 22*q^9 + 22*q^10 + 19*q^11 + 17*q^12 + 13*q^13 + '
        '10*q^14 + 6*q^15 + 4*q^16 + 2*q^17 + q^18\n'
        'y^0 h^3 x^2: 1 + 3*q + 7*q^2 + 12*q^3 + 19*q^4 + 26*q^5 + 34*q^6 + '
        '40*q^7 + 45*q^8 + 46*q^9 + 45*q^10 + 40*q^11 + 34*q^12 + 26*q^13 + '
        '19*q^14 + 12*q^15 + 7*q^16 + 3*q^17 + q^18\n'
        'y^0 h^4 x^0: 1 + 3*q + 6*q^2 + 9*q^3 + 12*q^4 + 14*q^5 + 15*q^6 + '
        '14*q^7 + 12*q^8 + 9*q^9 + 6*q^10 + 3*q^11 + q^12\n'
        'y^1 h^0 x^7: 1 + q + q^2 + q^3 + q^4 + q^5 + q^6 + q^7\n'
        'y^1 h^1 x^5: 1 + 2*q + 4*q^2 + 6*q^3 + 9*q^4 + 12*q^5 + 15*q^6 + '
        '17*q^7 + 18*q^8 + 18*q^9 + 17*q^10 + 15*q^11 + 12*q^12 + 9*q^13 + '
        '6*q^14 + 4*q^15 + 2*q^16 + q^17\n'
        'y^1 h^2 x^3: 1 + 3*q + 7*q^2 + 13*q^3 + 22*q^4 + 33*q^5 + 46*q^6 + '
        '59*q^7 + 71*q^8 + 80*q^9 + 85*q^10 + 85*q^11 + 80*q^12 + 71*q^13 + '
        '59*q^14 + 46*q^15 + 33*q^16 + 22*q^17 + 13*q^18 + 7*q^19 + 3*q^20 + '
        'q^21\n'
        'y^1 h^3 x^1: 1 + 4*q + 10*q^2 + 19*q^3 + 31*q^4 + 45*q^5 + 60*q^6 + '
        '74*q^7 + 85*q^8 + 91*q^9 + 91*q^10 + 85*q^11 + 74*q^12 + 60*q^13 + '
        '45*q^14 + 31*q^15 + 19*q^16 + 10*q^17 + 4*q^18 + q^19\n'
        'y^2 h^0 x^6: 1 + q + 2*q^2 + 2*q^3 + 3*q^4 + 3*q^5 + 4*q^6 + 3*q^7 + '
        '3*q^8 + 2*q^9 + 2*q^10 + q^11 + q^12\n'
        'y^2 h^1 x^4: 1 + 2*q + 5*q^2 + 8*q^3 + 14*q^4 + 19*q^5 + 27*q^6 + '
        '32*q^7 + 39*q^8 + 41*q^9 + 44*q^10 + 41*q^11 + 39*q^12 + 32*q^13 + '
        '27*q^14 + 19*q^15 + 14*q^16 + 8*q^17 + 5*q^18 + 2*q^19 + q^20\n'
        'y^2 h^2 x^2: 1 + 3*q + 8*q^2 + 15*q^3 + 27*q^4 + 41*q^5 + 60*q^6 + '
        '78*q^7 + 98*q^8 + 112*q^9 + 124*q^10 + 126*q^11 + 124*q^12 + 112*q^13 '
        '+ 98*q^14 + 78*q^15 + 60*q^16 + 41*q^17 + 27*q^18 + 15*q^19 + 8*q^20 + '
        '3*q^21 + q^22\n'
        'y^2 h^3 x^0: 1 + 3*q + 7*q^2 + 12*q^3 + 19*q^4 + 26*q^5 + 34*q^6 + '
        '40*q^7 + 45*q^8 + 46*q^9 + 45*q^10 + 40*q^11 + 34*q^12 + 26*q^13 + '
        '19*q^14 + 12*q^15 + 7*q^16 + 3*q^17 + q^18\n'
        'y^3 h^0 x^5: 1 + q + 2*q^2 + 3*q^3 + 4*q^4 + 5*q^5 + 6*q^6 + 6*q^7 + '
        '6*q^8 + 6*q^9 + 5*q^10 + 4*q^11 + 3*q^12 + 2*q^13 + q^14 + q^15\n'
        'y^3 h^1 x^3: 1 + 2*q + 5*q^2 + 9*q^3 + 15*q^4 + 22*q^5 + 31*q^6 + '
        '39*q^7 + 47*q^8 + 53*q^9 + 56*q^10 + 56*q^11 + 53*q^12 + 47*q^13 + '
        '39*q^14 + 31*q^15 + 22*q^16 + 15*q^17 + 9*q^18 + 5*q^19 + 2*q^20 + '
        'q^21\n'
        'y^3 h^2 x^1: 1 + 3*q + 7*q^2 + 13*q^3 + 22*q^4 + 33*q^5 + 46*q^6 + '
        '59*q^7 + 71*q^8 + 80*q^9 + 85*q^10 + 85*q^11 + 80*q^12 + 71*q^13 + '
        '59*q^14 + 46*q^15 + 33*q^16 + 22*q^17 + 13*q^18 + 7*q^19 + 3*q^20 + '
        'q^21\n'
        'y^4 h^0 x^4: 1 + q + 2*q^2 + 3*q^3 + 5*q^4 + 5*q^5 + 7*q^6 + 7*q^7 + '
        '8*q^8 + 7*q^9 + 7*q^10 + 5*q^11 + 5*q^12 + 3*q^13 + 2*q^14 + q^15 + '
        'q^16\n'
        'y^4 h^1 x^2: 1 + 2*q + 5*q^2 + 8*q^3 + 14*q^4 + 19*q^5 + 27*q^6 + '
        '32*q^7 + 39*q^8 + 41*q^9 + 44*q^10 + 41*q^11 + 39*q^12 + 32*q^13 + '
        '27*q^14 + 19*q^15 + 14*q^16 + 8*q^17 + 5*q^18 + 2*q^19 + q^20\n'
        'y^4 h^2 x^0: 1 + 2*q + 4*q^2 + 6*q^3 + 10*q^4 + 13*q^5 + 17*q^6 + '
        '19*q^7 + 22*q^8 + 22*q^9 + 22*q^10 + 19*q^11 + 17*q^12 + 13*q^13 + '
        '10*q^14 + 6*q^15 + 4*q^16 + 2*q^17 + q^18\n'
        'y^5 h^0 x^3: 1 + q + 2*q^2 + 3*q^3 + 4*q^4 + 5*q^5 + 6*q^6 + 6*q^7 + '
        '6*q^8 + 6*q^9 + 5*q^10 + 4*q^11 + 3*q^12 + 2*q^13 + q^14 + q^15\n'
        'y^5 h^1 x^1: 1 + 2*q + 4*q^2 + 6*q^3 + 9*q^4 + 12*q^5 + 15*q^6 + '
        '17*q^7 + 18*q^8 + 18*q^9 + 17*q^10 + 15*q^11 + 12*q^12 + 9*q^13 + '
        '6*q^14 + 4*q^15 + 2*q^16 + q^17\n'
        'y^6 h^0 x^2: 1 + q + 2*q^2 + 2*q^3 + 3*q^4 + 3*q^5 + 4*q^6 + 3*q^7 + '
        '3*q^8 + 2*q^9 + 2*q^10 + q^11 + q^12\n'
        'y^6 h^1 x^0: 1 + q + 2*q^2 + 2*q^3 + 3*q^4 + 3*q^5 + 4*q^6 + 3*q^7 + '
        '3*q^8 + 2*q^9 + 2*q^10 + q^11 + q^12\n'
        'y^7 h^0 x^1: 1 + q + q^2 + q^3 + q^4 + q^5 + q^6 + q^7\n'
        'y^8 h^0 x^0: 1\n'
    ),
}


@pytest.mark.parametrize("argv", list(TEXT_ONLY), ids=" ".join)
def test_text_only_output_is_byte_stable(capsys, argv):
    assert main(list(argv)) == 0
    assert capsys.readouterr() == (TEXT_ONLY[argv], "")
