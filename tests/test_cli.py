import hashlib
import json
import os
import subprocess
import sys

from fractions import Fraction

import pytest

from smallsys import cli, lorentz
from smallsys.cli import main
from smallsys.exactfield import SQRT2, KElem
from smallsys.lorentz import block_g1, block_g2, serialize_isometry
from smallsys.polyalg import PrecisionError


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


CERT_KEYS = {"schema", "command", "inputs", "checks", "verdict"}
CHECK_KEYS = {"name", "status", "claim", "exact_values", "numeric_values"}


def assert_one_format(argv, capsys, tmp_path):
    """Two runs write byte-identical certificates of the one cli format."""
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(["--quiet", "--json", str(p1)] + argv, capsys)
    run(["--quiet", "--json", str(p2)] + argv, capsys)
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert set(data) == CERT_KEYS
    assert data["command"] == argv[0]
    assert data["checks"]
    assert all(set(c) == CHECK_KEYS for c in data["checks"])


class TestVerify:
    def test_default_instance_passes(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, out, _ = run(["--json", str(path), "verify"], capsys)
        assert code == 0
        assert "verdict: PASS" in out
        data = json.loads(path.read_text())
        assert data["schema"] == 1
        assert data["verdict"] == "PASS"
        byname = {c["name"]: c for c in data["checks"]}
        assert byname["product_nonintegral"]["status"] == "PASS"
        assert byname["lambda2_nonintegral"]["status"] == "PASS"
        assert byname["lambda1_integral"]["status"] == "PASS"
        assert all(c["claim"] for c in data["checks"])
        # the non-quasi-arithmeticity chain
        assert data["inputs"]["a"] == "3"
        sub = byname["subgroup_trace_field"]["exact_values"]
        assert sub["level"] == "k"
        assert sub["witness_trace"] == "7+4*rt2"
        assert byname["ambient_trace_field"]["exact_values"]["level"] == "K"
        assert int(byname["nonintegral_trace_sample"]["exact_values"]["count"]) > 0
        non_qa = byname["non_quasi_arithmetic"]
        assert non_qa["status"] == "PASS"
        assert non_qa["exact_values"]["failures"] == "none"

    def test_square_parameter_is_input_error(self, capsys):
        code, _, err = run(["verify", "--a", "2"], capsys)
        assert code == 2
        assert "square in k" in err

    def test_higher_dimension_passes(self, capsys):
        code, out, _ = run(["--quiet", "verify", "--n", "5"], capsys)
        assert code == 0

    def test_nondefault_a_passes(self, capsys):
        code, out, _ = run(["verify", "--a", "17"], capsys)
        assert code == 0
        assert "SKIP" in out          # the denominator-7 check is instance-specific

    def test_each_matrix_checked_once(self, capsys, monkeypatch):
        # the entry checks are g1 and g2; the tower conjugate D g2 D^-1 and the
        # products and inverses in the word samples are not checked again
        calls = {"is_isometry": 0, "mat_mul": 0}
        for name in calls:
            def counted(*args, _fn=getattr(lorentz, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(lorentz, name, counted)
        code, _, _ = run(["--quiet", "verify", "--n", "3"], capsys)
        assert code == 0
        assert calls["is_isometry"] == 2
        assert calls["mat_mul"] <= 18

    def test_reproducible_json(self, capsys, tmp_path):
        assert_one_format(["verify"], capsys, tmp_path)

    def test_g2_parameter_matches_linear_walk(self):
        # g2's parameter for a != 3 is the least t >= 1 with sqrt2 t^2 > a
        def walk(a):
            t = 1
            while SQRT2 * t * t <= KElem(a):
                t += 1
            return t

        def t2(a):
            checks = {c["name"]: c for c in cli.cmd_verify(a, 2, 64).checks}
            return int(checks["parameter_roundtrip"]["exact_values"]["t2"])
        for p in range(1, 31):
            for q in (1, 2, 3):
                a = Fraction(p, q)
                if a.denominator == q and a != 3 and not KElem(a).is_square()[0]:
                    assert t2(a) == walk(a), a
        a = Fraction(10 ** 13)
        assert t2(a) == 2659148
        assert SQRT2 * 2659147 ** 2 < KElem(a) < SQRT2 * 2659148 ** 2

    # SHA-256 of the --json certificate; a = 12 is the FAIL case, and the
    # tower radicand 5/3 has a denominator
    @pytest.mark.parametrize("a, n, code, digest", [
        ("3", "2", 0, "0572a7d1b3c5ef5a12efa3994f9be548a5fceaf972ead9a148ed219a2d2f826f"),
        ("3", "6", 0, "bb94f8c9d61de5a95ecc19df38744b7a0bf58d98998ec4518b08ecbd8dcf352e"),
        ("17", "2", 0, "9e14e2c08ad70bbe0f2ee3e9c4c74259b9a3556ecead1f60f202864c1e3b4ff5"),
        ("5", "3", 0, "21532dd39ac19b239b2ec42dc8b72bd60edc25a570fbe7853dbda2599fa0ff69"),
        ("7", "4", 0, "0918c4a026b766b807768deca9d25ed54fadf29fdd6af14df36f3363262a818a"),
        ("12", "2", 1, "e523a135d52aec897af2d642e23becf9d8479dc3ede1ae987e2d8aa8a47a1975"),
        ("5/3", "2", 0, "2ee2d89a0d07dcb1ac42dd83389554b0cc76428416a1b9f7812ca853ee0087b2"),
    ])
    def test_certificate_bytes_pinned(self, capsys, tmp_path, a, n, code, digest):
        path = tmp_path / "cert.json"
        assert run(["--quiet", "--json", str(path), "verify", "--a", a, "--n", n],
                   capsys)[0] == code
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestOneFormat:
    @pytest.mark.parametrize("argv", [
        ["search", "--epsilon", "0.25"],
        ["mahler", "--D", "2"],
        ["bracelets", "--length", "8"],
        ["bracelets", "--m", "3"],
        ["minpoly", "--trace", "6+4*rt2", "--norm", "1"],
        ["budget", "--m", "3", "--D", "4"],
        ["congruence", "{g1}", "--level", "2"],
    ], ids=["search", "mahler", "bracelets-length", "bracelets-m", "minpoly",
            "budget", "congruence"])
    def test_reproducible_json(self, capsys, tmp_path, argv):
        mat = tmp_path / "g1.mat"
        mat.write_text(serialize_isometry(block_g1().to_isometry()))
        assert_one_format([a.format(g1=mat) for a in argv], capsys, tmp_path)


class TestSearch:
    def test_success(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        code, out, _ = run(["--json", str(path), "search", "--epsilon", "0.25"], capsys)
        assert code == 0
        data = json.loads(path.read_text())
        check = data["checks"][0]
        assert check["exact_values"]["t"] == "7"
        assert check["numeric_values"]["length"].startswith("0.2414219215")

    def test_failure_exit_code(self, capsys):
        code, out, _ = run(["search", "--epsilon", "1e-9", "--height-bound", "3"],
                           capsys)
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("eps", ["-1", "nan", "inf"])
    def test_bad_epsilon(self, capsys, eps):
        code, _, err = run(["search", "--epsilon", eps], capsys)
        assert code == 2
        assert err.startswith("error: ")

    def test_bad_height_bound(self, capsys):
        code, _, err = run(["search", "--epsilon", "0.25", "--height-bound", "0"],
                           capsys)
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("c", ["x", "1/0", "0", "-1", "1-rt2"])
    def test_bad_coefficient_is_input_error(self, capsys, c):
        code, _, err = run(["search", "--c", c, "--epsilon", "0.25"], capsys)
        assert code == 2
        assert err.startswith("error: ")


class TestMahler:
    def test_degree_four(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        code, _, _ = run(["--quiet", "--json", str(path), "mahler", "--D", "4"], capsys)
        assert code == 0
        data = json.loads(path.read_text())
        check = data["checks"][0]
        assert check["exact_values"]["witness"] == "[-1, -1, 0, 1]"
        assert check["numeric_values"]["measure"].startswith("1.32471795")

    # at the first cap, 1.4, the binomial box held 574,107 polynomials at
    # D = 5 and 92 million at D = 6; power-sum pruning walks a few hundred
    @pytest.mark.parametrize("D", ["5", "6"])
    def test_degrees_past_the_box(self, capsys, tmp_path, D):
        path = tmp_path / "m.json"
        code, _, _ = run(["--quiet", "--json", str(path), "mahler", "--D", D], capsys)
        assert code == 0
        check = json.loads(path.read_text())["checks"][0]
        assert check["exact_values"]["witness"] == "[-1, -1, 0, 1]"
        assert check["numeric_values"]["measure"].startswith("1.32471795")

    def test_bad_degree(self, capsys):
        code, _, _ = run(["mahler", "--D", "0"], capsys)
        assert code == 2


class TestInternalFailure:
    def test_precision_error_exits_3(self, capsys, monkeypatch):
        def undecided(D):
            raise PrecisionError("Mahler measure did not converge")
        monkeypatch.setattr(cli, "min_mahler_above_one", undecided)
        code, out, err = run(["mahler", "--D", "2"], capsys)
        assert code == 3
        assert err == "internal error: PrecisionError: Mahler measure did not converge\n"
        assert out == ""

    def test_import_leaves_numpy_unloaded(self):
        code = "import sys, smallsys.cli; print('numpy' in sys.modules)"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "False"


class TestBracelets:
    def test_length_eight(self, capsys, tmp_path):
        path = tmp_path / "b.json"
        code, _, _ = run(["--quiet", "--json", str(path), "bracelets",
                          "--length", "8"], capsys)
        assert code == 0
        data = json.loads(path.read_text())
        assert data["checks"][0]["exact_values"]["count"] == "8"

    def test_selection(self, capsys):
        code, out, _ = run(["bracelets", "--m", "2"], capsys)
        assert code == 0
        assert "1122, 1212" in out

    def test_requires_one_mode(self, capsys):
        code, _, _ = run(["bracelets"], capsys)
        assert code == 2
        code, _, _ = run(["bracelets", "--length", "4", "--m", "2"], capsys)
        assert code == 2


class TestCongruence:
    def test_g1_membership(self, capsys, tmp_path):
        mat = tmp_path / "g1.mat"
        mat.write_text(serialize_isometry(block_g1().to_isometry()))
        code, out, _ = run(["congruence", str(mat), "--level", "0+1*rt2"], capsys)
        assert code == 0
        assert "member = True" in out
        code, out, _ = run(["congruence", str(mat), "--level", "7"], capsys)
        assert code == 0
        assert "member = False" in out

    def test_nonintegral_matrix_skips_membership(self, capsys, tmp_path):
        mat = tmp_path / "g2.mat"
        mat.write_text(serialize_isometry(block_g2().to_isometry()))
        code, out, _ = run(["congruence", str(mat), "--level", "2"], capsys)
        assert code == 1          # integral_entries check fails
        assert "SKIP" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(["congruence", str(tmp_path / "none.mat"),
                            "--level", "2"], capsys)
        assert code == 2


class TestMinpolyAndBudget:
    def test_minpoly_lambda1(self, capsys, tmp_path):
        path = tmp_path / "mp.json"
        code, _, _ = run(["--quiet", "--json", str(path), "minpoly",
                          "--trace", "6+4*rt2", "--norm", "1"], capsys)
        assert code == 0
        data = json.loads(path.read_text())
        check = data["checks"][0]
        assert check["exact_values"]["minpoly"] == "[1, -12, 6, -12, 1]"
        assert check["exact_values"]["algebraic_integer"] == "True"

    def test_minpoly_invalid(self, capsys):
        code, _, _ = run(["minpoly", "--trace", "0", "--norm", "1"], capsys)
        assert code == 2          # negative discriminant

    def test_budget(self, capsys, tmp_path):
        path = tmp_path / "bud.json"
        code, _, _ = run(["--quiet", "--json", str(path), "budget",
                          "--m", "3", "--D", "4"], capsys)
        assert code == 0
        data = json.loads(path.read_text())
        vals = data["checks"][0]["numeric_values"]
        assert vals["epsilon"].startswith("0.03514994")
        assert vals["systole_gap"].startswith("0.28119957")

    def test_budget_large_m(self, capsys, tmp_path):
        path = tmp_path / "bud.json"
        code, _, _ = run(["--quiet", "--json", str(path), "budget",
                          "--m", "1100", "--D", "1"], capsys)
        assert code == 0
        vals = json.loads(path.read_text())["checks"][0]["numeric_values"]
        assert vals["glued_length_bound"] == f"{1 / 2200:.12f}"

    def test_budget_keeps_small_epsilon(self, capsys, tmp_path):
        path = tmp_path / "bud.json"
        code, _, _ = run(["--quiet", "--json", str(path), "budget",
                          "--m", "40", "--D", "3"], capsys)
        assert code == 0
        vals = json.loads(path.read_text())["checks"][0]["numeric_values"]
        assert float(vals["epsilon"]) == pytest.approx(2 ** -40 / 40, rel=1e-9)
