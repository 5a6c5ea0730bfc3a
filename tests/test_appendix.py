"""The golden shuffle tables of ``verify appendix``: the stored text against
the word-basis definition, a doctored or missing golden file or a planted
coefficient fault as a FAIL line (plain and under -O), and the file's place
in the package data."""

import fnmatch
import re
from pathlib import Path

import pytest

from ncbinom import cli, verify
from ncbinom.cli import parse_expression
from ncbinom.pbw import pbw_expand_monomial
from ncbinom.shuffle import sh_word
from ncbinom.words import parse_word

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "ncbinom" / "data"


def _golden():
    return Path(verify.APPENDIX).read_text(encoding="utf-8").splitlines(keepends=True)


def _bracket_words(text):
    """The text with every E(w) replaced by the word-basis expansion of the
    basis element E_w, so that ``parse_expression`` reads the products and
    powers of basis elements as products of their expansions."""
    return re.sub(r"E\((\d+)\)",
                  lambda m: f"({pbw_expand_monomial(((parse_word(m[1]), 1),), 2)})", text)


class TestGoldenText:
    def test_every_table_is_the_word_definition(self):
        lines = _golden()
        heads = []
        for line in lines:
            head, sep, text = line.rstrip("\n").partition(": ")
            n, _, kj = head.partition(" ")
            k, j = map(int, kj.split(","))
            assert sep and int(n) == k + j
            assert parse_expression(_bracket_words(text), 2) == sh_word((k, j)).poly(), head
            heads.append((int(n), k))
        assert heads == [(n, k) for n in (5, 6, 7) for k in range(n + 1)]


# each doctored golden: (how the stored lines change, FAIL detail)
DOCTORED = {
    "missing-line": (lambda ls: ls[:7] + ls[8:], "mismatch at n=6, SH_{1,5}"),
    "missing-last-line": (lambda ls: ls[:-1], "mismatch at n=7, SH_{7,0}"),
    "missing-degree-7": (lambda ls: ls[:13], "mismatch at n=7, SH_{0,7}"),
    "extra-line": (lambda ls: ls + [ls[-1]], "line 22 is past the last table"),
    "trailing-blank-line": (lambda ls: ls + ["\n"], "line 22 is past the last table"),
    "repeated-line": (lambda ls: ls[:3] + ls[2:], "mismatch at n=5, SH_{3,2}"),
    "out-of-order": (lambda ls: ls[:2] + [ls[3], ls[2]] + ls[4:], "mismatch at n=5, SH_{2,3}"),
    "no-separator": (lambda ls: [ls[0].replace(": ", " ")] + ls[1:],
                     "mismatch at n=5, SH_{0,5}"),
    "wrong-index": (lambda ls: [ls[0].replace("0,5", "5,0")] + ls[1:],
                    "mismatch at n=5, SH_{0,5}"),
    "truncated-text": (lambda ls: ls[:4] + [ls[4][:40] + "\n"] + ls[5:],
                       "mismatch at n=5, SH_{4,1}"),
    "empty-file": (lambda ls: [], "mismatch at n=5, SH_{0,5}"),
}


@pytest.fixture
def doctored(tmp_path):
    def write(case):
        path = tmp_path / "appendix.txt"
        path.write_text("".join(DOCTORED[case][0](_golden())), encoding="utf-8")
        return str(path)
    return write


class TestDoctoredGoldenFails:
    @pytest.mark.parametrize("case", sorted(DOCTORED))
    def test_plain(self, monkeypatch, doctored, case):
        monkeypatch.setattr(verify, "APPENDIX", doctored(case))
        assert verify.run_suite("appendix") == (False, DOCTORED[case][1])

    @pytest.mark.parametrize("case", sorted(DOCTORED))
    def test_under_O(self, verify_under_O, doctored, case):
        done = verify_under_O("appendix", (f"from ncbinom import verify\n"
                                           f"verify.APPENDIX = {doctored(case)!r}\n"))
        assert (done.returncode, done.stderr) == (1, b""), done.stderr.decode()
        assert done.stdout.decode() == f"appendix: FAIL ({DOCTORED[case][1]})\n"

    def test_bytes_that_are_not_utf8(self, monkeypatch, tmp_path):
        path = tmp_path / "appendix.txt"
        lines = _golden()
        path.write_bytes(b"".join([lines[0].encode()[:-2] + b"\xff\n"]
                                  + [line.encode() for line in lines[1:]]))
        monkeypatch.setattr(verify, "APPENDIX", str(path))
        assert verify.run_suite("appendix") == (False, "mismatch at n=5, SH_{0,5}")


def _assert_missing_golden_verdicts(suite, code, out, err, missing):
    """``verify <suite> --max-degree 2`` with no golden file: a one-line
    appendix FAIL naming the path, every other suite's PASS line after it,
    exit code 1, no traceback."""
    assert (code, err) == (1, ""), err
    verdicts = dict(line.split(": ", 1) for line in out.splitlines())
    assert verdicts.pop("appendix") == f"FAIL (cannot open {missing!r}: No such file or directory)"
    others = sorted(verify.SUITES.keys() - {"appendix"}) if suite == "all" else []
    assert sorted(verdicts) == others
    assert all(v.startswith("PASS (") for v in verdicts.values()), verdicts


@pytest.mark.parametrize("suite", ["appendix", "all"])
class TestMissingGoldenFails:
    def test_plain(self, monkeypatch, capsys, tmp_path, suite):
        missing = str(tmp_path / "appendix.txt")
        monkeypatch.setattr(verify, "APPENDIX", missing)
        code = cli.main(["verify", suite, "--max-degree", "2"])
        _assert_missing_golden_verdicts(suite, code, *capsys.readouterr(), missing)

    def test_under_O(self, verify_under_O, tmp_path, suite):
        missing = str(tmp_path / "appendix.txt")
        done = verify_under_O(suite, f"from ncbinom import verify\nverify.APPENDIX = {missing!r}\n",
                              "--max-degree", "2")
        _assert_missing_golden_verdicts(suite, done.returncode, done.stdout.decode(),
                                        done.stderr.decode(), missing)


# SH_{2,3} gains 1 on the coefficient of its first PBW monomial
_PLANT_COEFFICIENT = (
    "from ncbinom import verify\n"
    "from ncbinom.pbw import PBWPoly\n"
    "right = verify.sh_closed_form\n"
    "def planted(counts):\n"
    "    p = right(counts).poly()\n"
    "    if tuple(counts) == (2, 3):\n"
    "        p = p + PBWPoly.monomial(next(iter(p.terms)), 2)\n"
    "    return p\n"
    "verify.sh_closed_form = planted\n")


class TestPlantedCoefficientFails:
    def test_plain(self, monkeypatch):
        monkeypatch.setattr(verify, "sh_closed_form", verify.sh_closed_form)
        exec(_PLANT_COEFFICIENT, {})
        assert verify.run_suite("appendix") == (False, "mismatch at n=5, SH_{2,3}")

    def test_under_O(self, verify_under_O):
        done = verify_under_O("appendix", _PLANT_COEFFICIENT)
        assert (done.returncode, done.stderr) == (1, b""), done.stderr.decode()
        assert done.stdout == b"appendix: FAIL (mismatch at n=5, SH_{2,3})\n"


def _package_data_globs():
    """The globs of ``ncbinom`` under [tool.setuptools.package-data], read
    from pyproject.toml as text (Python 3.10 has no tomllib)."""
    section = None
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        if line.startswith("["):
            section = line.strip()
        elif section == "[tool.setuptools.package-data]" and line.startswith("ncbinom"):
            return re.findall(r'"([^"]+)"', line)
    return []


def test_every_data_file_is_package_data():
    globs = _package_data_globs()
    files = sorted(p.relative_to(DATA.parent).as_posix() for p in DATA.rglob("*") if p.is_file())
    assert "data/appendix.txt" in files
    assert [f for f in files if not any(fnmatch.fnmatch(f, g) for g in globs)] == []
