"""The output contract: exact text and JSON of small commands.

The expected bytes were recorded before text, LaTeX and JSON were moved onto
one term walk; text and JSON must not change.  The one later change is the
JSON ring tag of ``qbell`` and of ``ore``'s ``x^0`` line: it is read from every
coefficient, so their q-polynomial coefficients make it ``Q[q]``, not ``Q``.
The partial ``bell``/``qbell`` entries (``--k``) were recorded from the
hand-written Bell and q-Bell recursions before they were replaced by reads of
the SH-hat triangle.  ``quotient blumen`` and ``qcomm-bell`` have text output
only; their entries were recorded before the quotient closed forms were read
off one q-multinomial.
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
}


@pytest.mark.parametrize("argv", list(TEXT_ONLY), ids=" ".join)
def test_text_only_output_is_byte_stable(capsys, argv):
    assert main(list(argv)) == 0
    assert capsys.readouterr() == (TEXT_ONLY[argv], "")
