import os
import pathlib
import subprocess
import sys

import pytest

import nilnov
from nilnov.cli import main

DATA = pathlib.Path(__file__).parents[1] / "demos" / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicVerbs:
    def test_collect(self, capsys):
        code, out, _ = run(capsys, "collect", str(DATA / "heis.pcg"), "b a")
        assert code == 0 and out.strip() == "a b c"

    def test_nov_invert_geometric(self, capsys):
        code, out, _ = run(capsys, "nov-invert",
                           "--group", str(DATA / "z.pcg"),
                           "--char", str(DATA / "chi_z.mchar"),
                           "1 - t", "--frontier", "5")
        assert code == 0
        assert out.strip().splitlines()[-1] == "1 + t + t^2 + t^3 + t^4 + O(5)"

    def test_expand_nested(self, capsys):
        code, out, _ = run(capsys, "expand",
                           "--group", str(DATA / "heis.pcg"),
                           "--char", str(DATA / "chi_h3.mchar"),
                           "(1 - (1 - c)^-1 a)^-1", "--frontier", "3,4")
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("1 + a + a c")

    def test_python_dash_m_nilnov(self):
        src = str(pathlib.Path(nilnov.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "nilnov", "collect",
                               str(DATA / "heis.pcg"), "b a"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0 and proc.stdout == "a b c\n"

    def test_order(self, capsys):
        code, out, _ = run(capsys, "order", str(DATA / "heis.pcg"), "c", "a")
        assert code == 0 and out.strip() == "less"

    def test_fit_char(self, capsys):
        code, out, _ = run(capsys, "fit-char", "--rank", "2", "0,1; 1,0; 1,1")
        assert code == 0 and out.strip() == "2 1"

    def test_ring_mul_f2(self, capsys):
        code, out, _ = run(capsys, "ring-mul", str(DATA / "heis.pcg"),
                           "--field", "F2", "1 + a", "1 + a")
        assert code == 0 and out.strip() == "1 + a^2"

    def test_betti(self, capsys):
        code, out, _ = run(capsys, "betti", str(DATA / "bs12.fpg"))
        assert code == 0 and out.strip().splitlines()[-1] == "betti: 1 1 0"

    def test_nq_class2(self, capsys):
        code, out, _ = run(capsys, "nq", str(DATA / "f2.fpg"), "--class", "2")
        assert code == 0
        assert "level 1: [b,a]" in out
        assert "conj b a = [b,a]" in out

    def test_lcs_and_refine(self, capsys):
        code, out, _ = run(capsys, "lcs", str(DATA / "heis.pcg"), "--class", "2")
        assert code == 0 and "gamma_1 = <c>" in out
        code, out, _ = run(capsys, "refine", str(DATA / "heis.pcg"))
        assert code == 0 and "K_1 = <c>" in out

    def test_fox(self, capsys):
        code, out, _ = run(capsys, "fox", str(DATA / "torus.fpg"), "--quotient", "c1")
        assert code == 0
        assert "dr/da = 1 - b" in out
        assert "dr/db = -1 + a" in out

    def test_euler(self, capsys):
        code, out, _ = run(capsys, "euler", str(DATA / "torus.fpg"))
        assert code == 0 and "consistent" in out


class TestVerdictsAndExitCodes:
    def test_theorem_f_torus(self, capsys):
        code, out, _ = run(capsys, "theorem-f", str(DATA / "torus.fpg"),
                           "--quotient", "self",
                           "--char", str(DATA / "chi_torus.mchar"), "-d", "2")
        assert code == 0
        assert "conclusion: cd-drop-certified-at-truncation" in out
        assert "verdict + 2 vanishes-at-truncation 8" in out

    def test_theorem_f_inconclusive_exit_2(self, capsys):
        # P's class-2 quotient at frontier 2: only pattern ++ vanishes
        code, out, _ = run(capsys, "theorem-f", str(DATA / "parafree.fpg"),
                           "--char", str(DATA / "chi_parafree_c2.mchar"),
                           "--quotient", "c2", "--frontier", "2")
        assert code == 2
        verdicts = [line for line in out.splitlines() if line.startswith(("verdict", "conclusion"))]
        assert verdicts == ["verdict ++ 2 vanishes-at-truncation 2,2",
                            "verdict +- 2 inconclusive 2,2",
                            "verdict -+ 2 inconclusive 2,2",
                            "verdict -- 2 inconclusive 2,2",
                            "conclusion: inconclusive"]

    def test_nov_h_inconclusive_exit_2(self, capsys, tmp_path):
        chi = tmp_path / "chi.mchar"
        chi.write_text("char 0: t=1\n")
        code, out, _ = run(capsys, "nov-h", str(DATA / "bs12.fpg"),
                           "--char", str(chi), "--degree", "1",
                           "--frontier", "5", "--sign", "+")
        assert code == 2
        assert "inconclusive" in out

    def test_nov_h_vanishing_exit_0(self, capsys, tmp_path):
        chi = tmp_path / "chi.mchar"
        chi.write_text("char 0: t=1\n")
        code, out, _ = run(capsys, "nov-h", str(DATA / "bs12.fpg"),
                           "--char", str(chi), "--degree", "1",
                           "--frontier", "5", "--sign", "-")
        assert code == 0
        assert "verdict - 1 vanishes-at-truncation 5" in out

    def test_nov_h_projected_entries(self, capsys):
        code, out, _ = run(capsys, "nov-h", str(DATA / "torus.fpg"),
                           "--char", str(DATA / "chi_torus.mchar"),
                           "--quotient", "self", "--degree", "2",
                           "--frontier", "6", "--entries", "projected", "--sweep")
        assert code == 0
        assert "verdict + 2 vanishes-at-truncation 6" in out
        assert "verdict - 2 vanishes-at-truncation 6" in out

    def test_chi_flag_alias(self, capsys):
        code, out, _ = run(capsys, "nov-invert",
                           "--group", str(DATA / "z.pcg"),
                           "--chi", str(DATA / "chi_z.mchar"),
                           "1 - t", "--frontier", "5")
        assert code == 0
        assert out.strip().splitlines()[-1] == "1 + t + t^2 + t^3 + t^4 + O(5)"

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(capsys, "collect", "no_such_file.pcg", "a")
        assert code == 1 and "error" in err

    def test_usage_error_exit_1(self, capsys):
        code, _, err = run(capsys, "collect")
        assert code == 1

    def test_parse_error_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.pcg"
        bad.write_text("pcgroup x\nlevel 0: a b\nconj b a = b\n")
        code, _, err = run(capsys, "collect", str(bad), "a")
        assert code == 1 and "deeper" in err


Z = ["--group", str(DATA / "z.pcg"), "--char", str(DATA / "chi_z.mchar")]
H3 = ["--group", str(DATA / "heis.pcg"), "--char", str(DATA / "chi_h3.mchar")]
BS12 = ["nov-h", str(DATA / "bs12.fpg"), "--char", str(DATA / "chi_z.mchar")]
BAD_MCHAR = pathlib.Path(__file__).parent / "data" / "chi_z_zero_denominator.mchar"
ZERO_MCHAR = pathlib.Path(__file__).parent / "data" / "chi_z_zero.mchar"
TWICE_MCHAR = pathlib.Path(__file__).parent / "data" / "chi_z_twice.mchar"
DUP_GENS = pathlib.Path(__file__).parent / "data" / "dup_gens.fpg"
F2XF2 = pathlib.Path(__file__).parent / "data" / "f2xf2.fpg"
CHI_F2XF2 = pathlib.Path(__file__).parent / "data" / "chi_f2xf2.mchar"


def pcg(text):
    """A .pcg file with this text, to collect in; test_bad_input_is_an_error
    writes it out and passes its path."""
    return ["collect", (".pcg", text), "1"]


def mchar(text):
    """A .mchar file with this text, read over H3."""
    return ["nov-invert", "--group", str(DATA / "heis.pcg"), "--char", (".mchar", text), "1 - a"]


def fpg(text):
    """A .fpg file with this text, for betti."""
    return ["betti", (".fpg", text)]


PCG_KEYWORDS = "(expected 'pcgroup' or 'level' or 'conj')"
FPG_KEYWORDS = "(expected 'group' or 'gens' or 'rel')"


@pytest.mark.parametrize("argv,message", [
    (["nov-invert", *Z, "1 - t", "--field", "F4"], "field 'F4': 4 is not prime"),
    (["nov-invert", *Z, "1 - t", "--frontier", "x"],
     "bad frontier 'x' (expected rationals like 8 or 3,4)"),
    (["nov-invert", *Z, "1 - t", "--frontier", "1/0"],
     "bad frontier '1/0' (expected rationals like 8 or 3,4)"),
    (["nov-invert", *Z, "1 - t", "--mmax", "0"], "m_max must be >= 1"),
    ([*BS12, "-d", "1", "--frontier=0"], "frontier entries must be positive"),
    (["nov-h", str(DATA / "torus.fpg"), "--char", str(DATA / "chi_torus.mchar"),
      "--frontier", "3,3"], "frontier needs 1 entries"),
    (["theorem-f", str(DATA / "torus.fpg"), "--quotient", "self",
      "--char", str(DATA / "chi_torus.mchar"), "--frontier=-1/2"],
     "frontier entries must be positive"),
    (["nov-invert", "--group", str(DATA / "z.pcg"), "--char", str(BAD_MCHAR), "1 - t"],
     "line 1: zero denominator in '1/0'"),
    (["ring-mul", str(DATA / "heis.pcg"), "1/0*a", "a"], "zero denominator in '1/0'"),
    (["ring-mul", str(DATA / "heis.pcg"), "--field", "F5", "1/5*a", "a"],
     "1/5 has no value in F5: its denominator is divisible by 5"),
    (["ring-mul", str(DATA / "heis.pcg"), "1 + + a", "a"], "unexpected '+'"),
    (["fit-char", "--rank", "2", "0,x"],
     "bad lattice point '0,x' (expected integers like 0,1)"),
    (["expand", *H3, "(0)^-1"], "cannot invert zero"),
    (["expand", *H3, "(1 - 1)^-1"], "cannot invert zero"),
    ([*BS12, "-d", "3"], "degree 3 outside 0..2"),
    ([*BS12, "-d", "-1"], "degree -1 outside 0..2"),
    (["nov-h", str(DATA / "bs12.fpg"), "--char", str(ZERO_MCHAR)],
     "the zero multicharacter is not allowed"),
    (["fit-char", "--rank", "2", "0,1,2"], "chain entry of wrong rank"),
    (["fit-char", "--rank", "-1", ""], "lattice rank must be at least 1, got -1"),
    ([*BS12, "--sign", "x"], "bad sign pattern 'x' (expected one + or - per level, 1 in all)"),
    (["betti", str(DUP_GENS)], "line 2: generator 'a' listed twice"),
    (["nov-invert", "--group", str(DATA / "z.pcg"), "--char", str(TWICE_MCHAR), "1 - t"],
     "line 1: generator 't' assigned twice"),
    (["theorem-f", str(F2XF2), "--quotient", "c1", "--char", str(CHI_F2XF2), "-d", "1"],
     "degree 1 is not the top degree 2 of this complex"),
    (pcg("pcgroup\nlevel 0: a\n"), "line 1: expected 'pcgroup <name>'"),
    (pcg("pcgroup x\nlevel 0 a\n"), "line 2: expected 'level <i>: <gen> ...'"),
    (pcg("pcgroup x\nlevel one: a\n"), "line 2: bad level index 'one'"),
    (pcg("pcgroup x\nlevel 1: a\n"), "line 2: levels must appear in order; got 1"),
    (pcg("pcgroup x\nlevel 0:  # none\n"), "line 2: level 0 lists no generators"),
    (pcg("level 0: a\n"), "missing 'pcgroup <name>' header"),
    (pcg("# only a name\npcgroup x\n"), "no generator levels declared"),
    (pcg("pcgroup x\nlevel 0: a b\nconj b = a\n"), "line 3: expected 'conj <y> <x> = <word>'"),
    (pcg("pcgroup x\nlevel 0: a b\nlevel 1: c\nconj a b = c\n"),
     "line 4: 'conj a b': b must come earlier"),
    (pcg("pcgroup x\nlevel 0: a b\nlevel 1: c\nconj b a = c\nconj b a = c^-1\n"),
     "line 5: duplicate relation for (b,a)"),
    (pcg("pcgroup x\nlevel 0: a b\nlevel 1: a\n"), "duplicate generator name"),
    (pcg("pcgroup x\nlevel 0: a b\nlevel 1: c\nconj b a = c^0\n"),
     "zero exponent in relation tail"),
    (mchar("level 0: a=1\n"), "line 1: unknown keyword 'level' (expected 'char')"),
    (mchar("char 0 a=1\n"), "line 1: expected 'char <i>: <gen>=<rational> ...'"),
    (mchar("char x: a=1\n"), "line 1: bad level index 'x'"),
    (mchar("char 2: a=1\n"), "line 1: level 2 out of range"),
    (mchar("char 0: a=1\nchar 0: b=1\n"), "line 2: duplicate char line for level 0"),
    (mchar("char 0: a b=1\n"), "line 1: expected <gen>=<rational>, got 'a'"),
    (mchar("char 0: x=1\n"), "line 1: unknown generator 'x'"),
    (mchar("char 0: a=1 c=1\n"), "line 1: generator c is not at level 0"),
    (fpg("group\ngens a\n"), "line 1: expected 'group <name>'"),
    (fpg("gens a\ngens b\n"), "line 2: second 'gens' line"),
    (fpg("group g\ngens\n"), "line 2: gens line lists no generators"),
    (fpg("gens a\nrelator a\n"), f"line 2: unknown keyword 'relator' {FPG_KEYWORDS}"),
    (fpg("group g\n"), "missing gens line"),
    (fpg("gens a b\nrel a b b^-1 a^-1\n"), "trivial relator after free reduction"),
    (fpg("gens a\nrel a^x\n"), "line 2: bad exponent in token 'a^x'"),
    (pcg("pcgroups H3\nlevel 0: a b\n"), f"line 1: unknown keyword 'pcgroups' {PCG_KEYWORDS}"),
    (pcg("pcgroup H3\nlevels 0: a b\n"), f"line 2: unknown keyword 'levels' {PCG_KEYWORDS}"),
    (pcg("pcgroup H3\nlevel 0: a b\nlevel 1: c\nconjugate b a = c\n"),
     f"line 4: unknown keyword 'conjugate' {PCG_KEYWORDS}"),
    (mchar("chars 0: a=1 b=0\n"), "line 1: unknown keyword 'chars' (expected 'char')"),
    (mchar("char 0: a=1 b=0\ncharm 1: c=1\n"), "line 2: unknown keyword 'charm' (expected 'char')"),
    (pcg("pcgroup H3\npcgroup Z\nlevel 0: a\n"), "line 2: second 'pcgroup' line"),
    (fpg("group f\ngroup g\ngens a\n"), "line 2: second 'group' line"),
    (mchar("char 0\nchar 1: c=1\n"), "line 1: expected 'char <i>: <gen>=<rational> ...'"),
    (pcg("pcgroup H3\nlevel 0: a b\nlevel 1: c\nconj b a\n"),
     "line 4: expected 'conj <y> <x> = <word>'"),
    (["theorem-f", str(DATA / "f2.fpg"), "--char", str(DATA / "chi_torus.mchar"), "-d", "2"],
     "degree 2 is not the top degree 1 of this complex"),
    # a^-1 b has its 4th power in [c,b] modulo N, a level-0 root the lower
    # central series cannot take; ROADMAP item 10 (the isolated series)
    # turns this row into a quotient
    (["nq", (".fpg", "gens a b c\nrel a c a^-1 c^-1 b^3 a^-4 b\n"), "--class", "2"],
     "quotient requires a non-induced central series (unsaturated level lattice)"),
    (["nq", str(DATA / "f2.fpg"), "--class", "3"], "class 3 not supported (only 1 and 2)"),
    (["lcs", str(DATA / "heis.pcg"), "--class", "0"], "class bound must be >= 1"),
    # a repeated chain point is a zero difference: with rank 2 it is met
    # while eliminating a variable, with rank 1 in the system that is left
    (["fit-char", "--rank", "2", "0,1; 0,1"], "derived constraint 0 > 0"),
    (["fit-char", "--rank", "1", "1; 1"], "derived constraint 0 > 0"),
], ids=["field", "frontier", "frontier-zero-denominator", "mmax",
        "nov-h-frontier-zero", "nov-h-frontier-count", "theorem-f-frontier-negative",
        "mchar-zero-denominator", "literal-zero-denominator", "literal-outside-field",
        "literal-doubled-operator", "fit-char-lattice-point", "expand-invert-zero",
        "expand-invert-zero-sum", "nov-h-degree-above", "nov-h-degree-below",
        "nov-h-zero-multicharacter", "fit-char-wrong-rank", "fit-char-rank-below-1",
        "nov-h-sign-character", "fpg-duplicate-generator", "mchar-generator-assigned-twice",
        "theorem-f-degree-below-top",
        "pcg-header-syntax", "pcg-level-syntax", "pcg-bad-level-index", "pcg-levels-out-of-order",
        "pcg-empty-level", "pcg-missing-header", "pcg-no-levels", "pcg-conj-syntax",
        "pcg-conj-order", "pcg-duplicate-conj", "pcg-duplicate-generator", "pcg-zero-tail-exponent",
        "mchar-unknown-keyword", "mchar-header-syntax", "mchar-bad-level",
        "mchar-level-out-of-range", "mchar-duplicate-level", "mchar-missing-equals",
        "mchar-unknown-generator", "mchar-generator-at-wrong-level",
        "fpg-group-syntax", "fpg-second-gens", "fpg-empty-gens", "fpg-unknown-keyword",
        "fpg-missing-gens", "fpg-trivial-relator", "fpg-bad-exponent",
        "pcg-keyword-pcgroups", "pcg-keyword-levels", "pcg-keyword-conjugate",
        "mchar-keyword-chars", "mchar-keyword-charm", "pcg-second-header", "fpg-second-header",
        "mchar-missing-colon", "pcg-conj-missing-equals", "theorem-f-degree-above-top",
        "nq-unsaturated-level-lattice", "nq-class-3", "lcs-class-0",
        "fit-char-repeated-point-rank-2", "fit-char-repeated-point-rank-1"])
def test_bad_input_is_an_error(capsys, tmp_path, argv, message):
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, tuple):  # (suffix, text) of an input file
            suffix, text = arg
            path = tmp_path / f"input{suffix}"
            path.write_text(text)
            argv[i] = str(path)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_sign_excludes_sweep(capsys):
    code, out, err = run(capsys, *BS12, "--sign", "+", "--sweep")
    assert code == 1 and out == ""
    assert err.startswith("error: argument --sweep: not allowed with argument --sign\n")


def test_d1_stall_leaves_d2_running(capsys, tmp_path):
    # chi is zero on level 0 of F2's class-2 quotient, so each d1 entry
    # g - 1 has two terms of minimal degree (0,0) and d1 stalls; H^0 and H^1
    # are inconclusive, while d2 (F2 has no relators) still runs
    chi = tmp_path / "chi.mchar"
    chi.write_text("char 0: a=0 b=0\nchar 1: [b,a]=1\n")
    code, out, _ = run(capsys, "nov-h", str(DATA / "f2.fpg"), "--quotient", "c2", "-d", "1",
                       "--frontier", "2", "--sweep", "--char", str(chi))
    assert code == 2
    stall = "inconclusive (h=?) obstruction=d1: row 0: minimal degree (0,0) attained 2 times"
    expected = []
    for p in ("++", "+-", "-+", "--"):
        expected += [f"H^0 [{p}]: {stall}", f"H^1 [{p}]: {stall}",
                     f"H^2 [{p}]: vanishes-at-truncation (h=0)", f"verdict {p} 1 inconclusive 2,2"]
    assert [line for line in out.splitlines() if not line.startswith("#")] == expected


PARAFREE_C2 = ["nov-h", str(DATA / "parafree.fpg"), "--char", str(DATA / "chi_parafree_c2.mchar"),
               "--quotient", "c2", "--frontier", "2"]


@pytest.mark.parametrize("pattern", ["-+", "--"])
def test_sign_pattern_starting_with_minus(capsys, pattern):
    # argparse reads `--sign -+` as an option, and drops the value of `--sign=--`
    code, out, _ = run(capsys, *PARAFREE_C2, f"--sign={pattern}")
    assert code == 2
    verdicts = [line for line in out.splitlines() if line.startswith("verdict")]
    assert verdicts == [f"verdict {pattern} 2 inconclusive 2,2"]


class TestHeaders:
    def test_header_echoes_configuration(self, capsys):
        code, out, _ = run(capsys, "nov-invert",
                           "--group", str(DATA / "z.pcg"),
                           "--char", str(DATA / "chi_z.mchar"),
                           "1 - t", "--frontier", "5", "--mmax", "12")
        lines = out.splitlines()
        assert lines[0] == "# nilnov report v1"
        assert "# m_max: 12" in lines
        assert "# frontier: 5" in lines
        assert "# field: Q" in lines
        assert any(line.startswith("# pattern:") for line in lines)
