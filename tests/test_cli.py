import pathlib

import pytest

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
BAD_MCHAR = pathlib.Path(__file__).parent / "data" / "chi_z_zero_denominator.mchar"


@pytest.mark.parametrize("env_mmax,argv,message", [
    ("abc", ["nov-invert", *Z, "1 - t"], "NILNOV_MMAX must be an integer, got 'abc'"),
    (None, ["nov-invert", *Z, "1 - t", "--field", "F4"], "field 'F4': 4 is not prime"),
    (None, ["nov-invert", *Z, "1 - t", "--frontier", "x"],
     "bad frontier 'x' (expected rationals like 8 or 3,4)"),
    (None, ["nov-invert", *Z, "1 - t", "--frontier", "1/0"],
     "bad frontier '1/0' (expected rationals like 8 or 3,4)"),
    (None, ["nov-invert", *Z, "1 - t", "--mmax", "0"], "m_max must be >= 1"),
    (None, ["nov-invert", "--group", str(DATA / "z.pcg"), "--char", str(BAD_MCHAR), "1 - t"],
     "line 1: zero denominator in '1/0'"),
    (None, ["ring-mul", str(DATA / "heis.pcg"), "1/0*a", "a"], "zero denominator in '1/0'"),
    (None, ["ring-mul", str(DATA / "heis.pcg"), "--field", "F5", "1/5*a", "a"],
     "1/5 has no value in F5: its denominator is divisible by 5"),
    (None, ["ring-mul", str(DATA / "heis.pcg"), "1 + + a", "a"], "unexpected '+'"),
    (None, ["fit-char", "--rank", "2", "0,x"],
     "bad lattice point '0,x' (expected integers like 0,1)"),
    (None, ["expand", *H3, "(0)^-1"], "cannot invert zero"),
    (None, ["expand", *H3, "(1 - 1)^-1"], "cannot invert zero"),
], ids=["env-mmax", "field", "frontier", "frontier-zero-denominator", "mmax",
        "mchar-zero-denominator", "literal-zero-denominator", "literal-outside-field",
        "literal-doubled-operator", "fit-char-lattice-point", "expand-invert-zero",
        "expand-invert-zero-sum"])
def test_bad_input_is_an_error(capsys, monkeypatch, env_mmax, argv, message):
    if env_mmax is not None:
        monkeypatch.setenv("NILNOV_MMAX", env_mmax)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


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

    def test_env_mmax_override(self, capsys, monkeypatch):
        monkeypatch.setenv("NILNOV_MMAX", "17")
        code, out, _ = run(capsys, "nov-invert",
                           "--group", str(DATA / "z.pcg"),
                           "--char", str(DATA / "chi_z.mchar"),
                           "1 - t", "--frontier", "5")
        assert "# m_max: 17" in out
