import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smallsys import arith, cli, combin, lorentz, polyalg
from smallsys.arith import GroupSample, conjugate_between_forms, integrality_scan
from smallsys.cli import main
from smallsys.congr import is_integral_matrix
from smallsys.exactfield import SQRT2, KElem, RealInterval, TowerElem, sqrt_k
from smallsys.lorentz import block_g1, block_g2
from smallsys.polyalg import PrecisionError

from isometry_text import serialize_isometry


pytestmark = pytest.mark.usefixtures("fresh_mahler_caches")


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

    def test_precision_below_the_floor_is_input_error(self, capsys, monkeypatch):
        # the floor is checked before any command runs
        def unreached(*args):
            raise AssertionError("verify ran below the precision floor")
        monkeypatch.setattr(cli, "cmd_verify", unreached)
        code, out, err = run(["--precision", "15", "verify"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: precision must be at least 16 bits\n"

    def test_higher_dimension_passes(self, capsys):
        code, out, _ = run(["--quiet", "verify", "--n", "5"], capsys)
        assert code == 0

    @pytest.mark.xfail(strict=True, reason=(
        "every sampled word is B + I_(n-1) with det B = 1, so its adjoint trace "
        "is 1 + (n-1) tr B + C(n-1, 2); at n = 50 that clears tr B's denominator "
        "49 for words of length <= 2, and nonintegral_trace_sample counts 0"))
    def test_dimension_fifty_passes(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, _, _ = run(["--quiet", "--json", str(path), "verify", "--a", "3",
                          "--n", "50"], capsys)
        status = {c["name"]: c["status"] for c in json.loads(path.read_text())["checks"]}
        assert status["nonintegral_trace_sample"] == "PASS"
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

    def test_products_skip_zero_entries(self, capsys, monkeypatch):
        # the samples' words are the identity outside one 2x2 block; with
        # every term multiplied out, verify --n 6 runs 20,497 KElem multiplies
        calls = [0]
        def counted(x, y, _fn=KElem.__mul__):
            calls[0] += 1
            return _fn(x, y)
        monkeypatch.setattr(KElem, "__mul__", counted)
        monkeypatch.setattr(KElem, "__rmul__", counted)
        assert run(["--quiet", "verify", "--n", "6"], capsys)[0] == 0
        assert calls[0] <= 6000

    def test_values_of_k_take_the_scalar_path(self, capsys, monkeypatch):
        # a tower entry with no sqrt(a) part is a KElem, so a product with it
        # costs two KElem multiplies, not the five of a tower product; with
        # two forms per value, verify --n 10 ran 9,209 KElem and 2,234
        # TowerElem multiplies
        calls = {KElem: 0, TowerElem: 0}
        for cls in calls:
            def counted(x, y, _fn=cls.__mul__, _cls=cls):
                calls[_cls] += 1
                return _fn(x, y)
            monkeypatch.setattr(cls, "__mul__", counted)
            monkeypatch.setattr(cls, "__rmul__", counted)
        assert run(["--quiet", "verify", "--a", "3", "--n", "10"], capsys)[0] == 0
        assert calls[KElem] <= 5500
        assert calls[TowerElem] <= 400

    def test_sqrt_k_decides_a_non_square_once(self, monkeypatch):
        # sqrt_k is the one way into a tower and decides its radicand once
        calls = [0]
        def counted(x, _fn=KElem.is_square):
            calls[0] += 1
            return _fn(x)
        monkeypatch.setattr(KElem, "is_square", counted)
        root = sqrt_k(KElem(Fraction(5, 3), 1))
        assert isinstance(root, TowerElem) and root * root == KElem(Fraction(5, 3), 1)
        assert calls[0] == 1

    def test_one_minpoly_per_distinct_trace(self, monkeypatch):
        # a word and its inverse have the same adjoint trace
        sample = GroupSample([block_g1(2).to_isometry(),
                              conjugate_between_forms(block_g2(2).to_isometry(), 3)], 2)
        traces = [tr for _, tr in sample.traces()]
        calls = []
        def counted(x, _fn=arith.minpoly_over_Q):
            calls.append(x)
            return _fn(x)
        monkeypatch.setattr(arith, "minpoly_over_Q", counted)
        integrality_scan(sample)
        assert len(traces) == 16
        assert len(calls) == len(set(traces)) == 6

    def test_reproducible_json(self, capsys, tmp_path):
        assert_one_format(["verify"], capsys, tmp_path)

    def test_options_of_one_call_do_not_leak(self, capsys, tmp_path):
        # main reads every call against the one command table; an option of
        # one call does not leak into the next, which falls back to the
        # default n = 2
        path = tmp_path / "cert.json"
        assert run(["--quiet", "verify", "--n", "6"], capsys)[0] == 0
        assert run(["--quiet", "--json", str(path), "verify"], capsys)[0] == 0
        assert json.loads(path.read_text())["inputs"]["n"] == "2"

    def test_eigenvalue_check_is_decided_in_the_tower(self, capsys, tmp_path,
                                                       monkeypatch):
        # alpha + 2 sqrt(alpha^2 - 1) has trace coordinate 2 alpha too, but
        # it does not solve x^2 - 2 alpha x + 1
        def wrong(g):
            return g.alpha + 2 * sqrt_k(g.alpha * g.alpha - 1)
        monkeypatch.setattr(cli, "leading_eigenvalue", wrong)
        path = tmp_path / "cert.json"
        assert run(["--quiet", "--json", str(path), "verify"], capsys)[0] == 1
        checks = {c["name"]: c for c in json.loads(path.read_text())["checks"]}
        assert checks["eigenvalues"]["status"] == "FAIL"
        assert checks["eigenvalues"]["exact_values"]["trace1"] == "6+4*rt2"

    def test_each_eigenvalue_found_once(self, capsys, monkeypatch):
        # the lengths are taken from lam1 and lam2; translation_length would
        # find each eigenvalue again, one is_square apiece
        calls = [0]
        def counted(g, _fn=lorentz.leading_eigenvalue):
            calls[0] += 1
            return _fn(g)
        monkeypatch.setattr(lorentz, "leading_eigenvalue", counted)
        monkeypatch.setattr(cli, "leading_eigenvalue", counted)
        assert run(["--quiet", "verify"], capsys)[0] == 0
        assert calls[0] == 2

    def test_g2_parameter_matches_linear_walk(self):
        # g2's parameter for a != 3 is the least t >= 1 with sqrt2 t^2 > a
        def walk(a):
            t = 1
            while (SQRT2 * t * t - KElem(a)).sign() <= 0:
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
        assert (KElem(a) - SQRT2 * 2659147 ** 2).sign() == 1
        assert (SQRT2 * 2659148 ** 2 - KElem(a)).sign() == 1

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
    def test_hybrid_rows_on_short_blocks(self, eps):
        # the shared rows on the short blocks a family would glue, t1 = 4, 17
        # and 169: g1's entries have the denominator 2 t1^4 - 1 (511 at
        # t1 = 4), so lambda1 is no algebraic integer, and the 7 row is the
        # worked instance's alone; every other row holds
        rows = [c["name"] for c in cli.cmd_verify(Fraction(3), 2, 64).checks][:-3]
        g1 = lorentz.find_small_element(KElem(1), eps, 10 ** 6)
        assert not is_integral_matrix(g1.to_isometry())
        for c in (3, 17):
            g2 = lorentz.find_small_element(KElem(c), eps, 10 ** 6)
            cert = cli.Certificate("hybrid", {})
            assert cli.hybrid_rows(cert, g1, g2, 64).entries == g1.to_entries()
            status = {row["name"]: row["status"] for row in cert.checks}
            assert list(status) == rows
            assert status.pop("lambda1_integral") == "FAIL"
            assert status.pop("product_denominator_seven") == "SKIP"
            assert set(status.values()) == {"PASS"}

    # SHA-256 of the --json certificate; a = 12 is the FAIL case, and the
    # tower radicand 5/3 has a denominator
    @pytest.mark.parametrize("a, n, code, digest", [
        ("3", "2", 0, "0572a7d1b3c5ef5a12efa3994f9be548a5fceaf972ead9a148ed219a2d2f826f"),
        ("3", "6", 0, "bb94f8c9d61de5a95ecc19df38744b7a0bf58d98998ec4518b08ecbd8dcf352e"),
        ("3", "10", 0, "7d5a7ca07300d61616091baf52d37ef7abb9bb7231b5b77b94d4dfe8c30d440d"),
        ("3", "3", 0, "700f908e9d83e17a26deb0dd81d61a2f75a11c89cfba6fd7b26d79651d961493"),
        ("17", "2", 0, "9e14e2c08ad70bbe0f2ee3e9c4c74259b9a3556ecead1f60f202864c1e3b4ff5"),
        ("17", "3", 0, "e4342f4be4904131a374997d5bfee8aa888c78df8acd38ac507899dfbf63c486"),
        ("17", "6", 0, "19887b04001d66bf6c4b2a77446f8d5f23674d51403215bf93606a8b4067c783"),
        ("5", "3", 0, "21532dd39ac19b239b2ec42dc8b72bd60edc25a570fbe7853dbda2599fa0ff69"),
        ("7", "4", 0, "0918c4a026b766b807768deca9d25ed54fadf29fdd6af14df36f3363262a818a"),
        ("12", "2", 1, "e523a135d52aec897af2d642e23becf9d8479dc3ede1ae987e2d8aa8a47a1975"),
        ("5/3", "2", 0, "2ee2d89a0d07dcb1ac42dd83389554b0cc76428416a1b9f7812ca853ee0087b2"),
        ("17", "10", 0, "37aed4df9f804afaaf98a88e2279b4ceee7fb5dd571f22b17bc03cbcfb80bfae"),
        ("5/3", "6", 0, "0235cc216270dcc3931f704dc76194592c94f0c406f5630f62d75e8edca9e927"),
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

    # SHA-256 of the --json certificate where lambda lies in k: the search at
    # c = sqrt2 hits t = 9, alpha = 41/40, lambda = 5/4; the + roots of
    # x^2 - 2x - 1 and x^2 are 1 + sqrt2 and 0
    @pytest.mark.parametrize("argv, digest", [
        (["search", "--c", "0+1*rt2", "--epsilon", "0.25"],
         "233e78716fdd00a5bcab771dda7e03b3df2a2b3a507fffcdc686623b0af3f2bd"),
        (["minpoly", "--trace", "2", "--norm", "-1"],
         "5a9f0045f2837fa3377af197d9a0f94b243f034d769927894061fa4b40b58fb6"),
        (["minpoly", "--trace", "0", "--norm", "0"],
         "0b3e1a5fb1e27b1d86cd935bf1e4842fe1b5f85f1e2c71d2a44b8bfd2493cdb9"),
    ], ids=["search-rational-lambda", "minpoly-in-k", "minpoly-zero"])
    def test_certificate_bytes_pinned(self, capsys, tmp_path, argv, digest):
        path = tmp_path / "cert.json"
        assert run(["--quiet", "--json", str(path)] + argv, capsys)[0] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestSearch:
    # SHA-256 of the --json certificate at the default precision where lambda
    # is a tower value: the hit at t = 1682, and the exhausted search that
    # prices the block at -25 - 25 sqrt2
    @pytest.mark.parametrize("argv, code, digest", [
        (["search", "--c", "1", "--epsilon", "0.001"], 0,
         "800c0cb9f28f83205247ae91f08c7fee9f5b00312b867bee1860f364cee10a78"),
        (["search", "--c", "1", "--epsilon", "0.001", "--height-bound", "25"], 1,
         "46b3af32318cc138cecac36fe21cf490f52109a452a88523f22967a16fe90123"),
        (["search", "--c", "1", "--epsilon", "1e-300"], 1,
         "04a70b2d0daf3c89d5dfcaadbbfddfcf37a8a7dd819003a433d69f67f9a0817d"),
        # eps/2 >= 1 takes sinh through its doublings; the digests were taken
        # when sinh went through exp above 1
        (["search", "--epsilon", "5"], 0,
         "aa8069ab322cee83b2348b7dcfce0da9536ac2f3e2c7395436a5442475b964cf"),
        (["search", "--c", "3", "--epsilon", "100"], 0,
         "790009c734cba2874df0fccc6d3a4f12642f0d69a8953197c8003b5c7db75e7b"),
        (["search", "--epsilon", "1e300", "--height-bound", "3"], 0,
         "13d21c12d6c2a0c00f8e70890f4005b3b5a47e4e02a57078dabf91c610205fc8"),
    ], ids=["tower-lambda", "tower-lambda-exhausted", "tiny-epsilon-exhausted",
            "epsilon-5", "epsilon-100", "huge-epsilon"])
    def test_certificate_bytes_pinned(self, capsys, tmp_path, argv, code, digest):
        path = tmp_path / "cert.json"
        assert run(["--quiet", "--json", str(path)] + argv, capsys)[0] == code
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

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

    def test_exhausted_without_a_loxodromic_block(self, capsys, tmp_path):
        # sqrt2 t^2 < c = 100 for every t of height 1, so no block is priced
        # and the certificate fails with best_length nan
        path = tmp_path / "s.json"
        code, _, err = run(["--quiet", "--json", str(path), "search", "--c", "100",
                            "--epsilon", "1e-9", "--height-bound", "1"], capsys)
        assert (code, err) == (1, "")
        check = json.loads(path.read_text())["checks"][0]
        assert check["status"] == "FAIL"
        assert check["exact_values"]["best_t"] == "none"
        assert check["numeric_values"]["best_length"] == "nan"

    @pytest.mark.parametrize("which", ["1+u", "u", "rt2(4-u)"])
    def test_cancelling_coefficients_keep_the_contract(self, capsys, which):
        # u = (sqrt2 - 1)^3300 has coefficients of about 4,200 bits that
        # cancel; the search used to die of OverflowError building its
        # message, then of PrecisionError, before embed rounded once
        u = KElem(1)
        for _ in range(3300):
            u = u * KElem(-1, 1)
        c = {"1+u": 1 + u, "u": u, "rt2(4-u)": SQRT2 * (4 - u)}[which]
        code, _, err = run(["--quiet", "search", "--c", c.to_text(),
                            "--epsilon", "1e-3"], capsys)
        assert (code, err) == (0, "")

    def test_value_of_k_starting_with_a_minus(self, capsys):
        # the value after an option is read as given, "-" first or not
        for c in (["--c=-1+1*rt2"], ["--c", "-1+1*rt2"]):
            code, _, err = run(["--quiet", "search", *c, "--epsilon", "0.1"], capsys)
            assert (code, err) == (0, "")

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

    # at mu = 1.4 the binomial box held 574,107 polynomials at D = 5 and 92
    # million at D = 6; the palindromic walk below theta_0 checks 52 at D = 6
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

    @pytest.mark.parametrize("argv", [
        ["mahler", "--D", str(cli.MAX_MAHLER_D + 1)],
        ["mahler", "--D", str(10 ** 11)],
        ["budget", "--m", "3", "--D", "20"],
    ], ids=["mahler-above", "mahler-huge", "budget-20"])
    def test_degree_above_the_limit_is_input_error(self, capsys, monkeypatch, argv):
        def enumerates(D):
            raise AssertionError("the Mahler measure search ran")
        monkeypatch.setattr(cli, "min_mahler_above_one", enumerates)
        monkeypatch.setattr(cli, "epsilon_gap", enumerates)
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: D = {argv[-1]} is above {cli.MAX_MAHLER_D}: the "
                       "Mahler measure search would run past its measured reach\n")

    # SHA-256 of the --json certificate: every printed digit of the minimum
    # measure and the systole gap, not only a prefix
    @pytest.mark.parametrize("argv, digest", [
        (["mahler", "--D", "2"],
         "d82553d6d6d6715b754ae10f6fc1d281bf93b46f3f658e2878c92bd27485e718"),
        (["mahler", "--D", "3"],
         "332a75912c211a2152148aa9c31b7c8bd0f4c067790ee23d7ad5f9f07d63ba2c"),
        (["mahler", "--D", "4"],
         "cc9bcf452ea61ad45c7bf7b02a73fef295982d477a9d4aeb306b4dee4e2317e9"),
        (["mahler", "--D", "5"],
         "e2ba30e1b68f786f7aeb0bc425f8818a2018f6fc6c078ee81aa4619739db0b29"),
        (["mahler", "--D", "6"],
         "0ecfbe45594513eb698cee5365dc51e4f26c40adfa14cae972b50af50635db3a"),
        (["mahler", "--D", "7"],
         "4ca2b2203210a81821f71e8ee93a8be3cfa0bdb364c8dd46fddf74578515c986"),
        (["mahler", "--D", "8"],
         "04559736afaf47a27c2f1789a92b57f504bbeadd0b2bc0fabff201d041f95a5d"),
        (["mahler", "--D", "12"],
         "62a295258314cde06aea70b25e509639c58820af7fa244cbc49eb6b3df66f346"),
        (["budget", "--m", "3", "--D", "4"],
         "f848774baa5d88386ea10288832a0d42e0de59ec8446b7af98d0238a92f78a27"),
    ], ids=["mahler-2", "mahler-3", "mahler-4", "mahler-5", "mahler-6",
            "mahler-7", "mahler-8", "mahler-12", "budget-3-4"])
    def test_certificate_bytes_pinned(self, capsys, tmp_path, argv, digest):
        path = tmp_path / "cert.json"
        assert run(["--quiet", "--json", str(path)] + argv, capsys)[0] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("argv", [["mahler", "--D", "4"],
                                      ["budget", "--m", "3", "--D", "4"]],
                             ids=["mahler", "budget"])
    def test_certificate_independent_of_earlier_jobs(self, capsys, tmp_path, argv,
                                                     fresh_mahler_caches):
        def certificate(*earlier):
            fresh_mahler_caches()
            for job in earlier:
                assert run(["--quiet"] + job, capsys)[0] == 0
            path = tmp_path / "cert.json"
            assert run(["--quiet", "--json", str(path)] + argv, capsys)[0] == 0
            return path.read_bytes()
        assert certificate() == certificate(["mahler", "--D", "6"])


@given(st.floats())
@example(-0.0)
@example(math.nan)
@example(-math.inf)
@example(1e-6)
@example(math.nextafter(1e-6, 0))
@example(0.0000005)
@example(2.5e-13)
@example(9.9999999999995e-7)
def test_numbers_print_as_floats_did(x):
    # every float, nan, inf and -0.0 too, prints as the float formatting did,
    # and the exact formatting prints a finite float's value as a Fraction the
    # same way; x + 0.0 is x but for -0.0, which no Fraction can hold
    want = f"{x:.12e}" if 0 < abs(x) < 1e-6 else f"{x:.12f}"
    assert cli._fmt(x) == want
    if math.isfinite(x):
        assert cli._fmt(Fraction(x)) == cli._fmt(x + 0.0)


def test_intervals_print_from_their_exact_midpoint():
    # past about 1.8e308 a float overflows, so the midpoint is never one
    assert cli._fmt(RealInterval.exact(10 ** 400)) == "1" + "0" * 400 + ".000000000000"
    assert cli._fmt(RealInterval(-3 * 10 ** 400, -10 ** 400)) == \
        "-2" + "0" * 400 + ".000000000000"
    assert cli._fmt(RealInterval(1, 2)) == "1.500000000000"
    assert cli._fmt(RealInterval(Fraction(1, 10 ** 400), Fraction(3, 10 ** 400), 2048)) \
        == "2.000000000000e-400"


@given(st.integers(-10 ** 400, 10 ** 400), st.integers(-10 ** 400, 10 ** 400),
       st.integers(16, 2048))
@example(1, 2, 64)
@example(-3, 0, 64)
@example(0, 0, 16)
def test_interval_midpoint_prints_as_its_fraction(m, n, precision):
    iv = RealInterval(Fraction(min(m, n), 1 << precision),
                      Fraction(max(m, n), 1 << precision), precision)
    assert cli._fmt(iv) == cli._fmt(Fraction(iv.man_lo + iv.man_hi, 2 << iv.precision))


# ---------------------------------------------------------------------------
# the certificate writer writes the bytes of json.dumps(indent=2, sort_keys=True)
# ---------------------------------------------------------------------------

def written(cert):
    """The certificate's bytes, parsed, once they are checked to be the ones
    json.dumps writes for what they parse to and to hold cert's fields."""
    raw = cert.to_json()
    data = json.loads(raw)
    assert raw == json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert data == {"schema": 1, "command": cert.command,
                    "inputs": {k: str(v) for k, v in cert.inputs.items()},
                    "checks": cert.checks, "verdict": cert.verdict}
    return data


class TestWriter:
    @pytest.mark.parametrize("build", [
        lambda mat: cli.cmd_verify(Fraction(3), 2, 128),
        lambda mat: cli.cmd_search("1", 1e-3, 25, 128),
        lambda mat: cli.cmd_mahler(2),
        lambda mat: cli.cmd_bracelets(8, None),
        lambda mat: cli.cmd_congruence(mat, "2"),
        lambda mat: cli.cmd_minpoly("6+4*rt2", "1", 128),
        lambda mat: cli.cmd_budget(3, 4),
    ], ids=["verify", "search", "mahler", "bracelets", "congruence", "minpoly",
            "budget"])
    def test_each_command(self, tmp_path, build):
        mat = tmp_path / "g1.mat"
        mat.write_text(serialize_isometry(block_g1().to_isometry()))
        cert = build(str(mat))
        data = written(cert)
        assert data["checks"] and set(data) == CERT_KEYS
        assert all(set(c) == CHECK_KEYS for c in data["checks"])

    def test_no_checks(self):
        cert = cli.Certificate("mahler", {})
        assert written(cert)["checks"] == []
        assert cert.to_json() == ('{\n  "checks": [],\n  "command": "mahler",\n'
                                  '  "inputs": {},\n  "schema": 1,\n'
                                  '  "verdict": "PASS"\n}\n')

    @given(st.text(), st.dictionaries(st.text(), st.text() | st.integers() | st.fractions()),
           st.lists(st.tuples(st.text(), st.text(), st.sampled_from([True, False, None]),
                              st.dictionaries(st.text(), st.text() | st.booleans()),
                              st.dictionaries(st.text(), st.floats())), max_size=3))
    @example('"', {"\\": "\x00\x1f\x7f"}, [("", "é☃𝄞\ud800", True, {'"q"': ""}, {})])
    @example("", {}, [("\n\t", "\\\"", None, {"": "\u2028"}, {"é": -0.0})])
    @settings(max_examples=60, deadline=None)
    def test_drawn_strings(self, command, inputs, rows):
        cert = cli.Certificate(command, inputs)
        for name, claim, ok, exact, numeric in rows:
            cert.add(name, claim, ok, exact=exact, numeric=numeric, skip=ok is None)
        data = written(cert)
        assert [(c["name"], c["claim"]) for c in data["checks"]] == \
            [(name, claim) for name, claim, *_ in rows]


class TestInternalFailure:
    def test_precision_error_exits_3(self, capsys, monkeypatch):
        def undecided(D):
            raise PrecisionError("Mahler measure did not converge")
        monkeypatch.setattr(cli, "min_mahler_above_one", undecided)
        code, out, err = run(["mahler", "--D", "2"], capsys)
        assert code == 3
        assert err == "internal error: PrecisionError: Mahler measure did not converge\n"
        assert out == ""

    @staticmethod
    def loaded_by_import(*names):
        """Those of the named modules that a fresh interpreter holds after
        importing smallsys.cli."""
        code = f"import sys, smallsys.cli; print([m for m in {names!r} if m in sys.modules])"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        return out.strip()

    def test_import_leaves_numpy_unloaded(self):
        assert self.loaded_by_import("numpy") == "[]"

    # every command starts a fresh interpreter, and these imports cost up to
    # tens of milliseconds there that no command needs
    def test_import_leaves_mpmath_dataclasses_and_inspect_unloaded(self):
        assert self.loaded_by_import("mpmath", "dataclasses", "inspect",
                                     "string") == "[]"


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

    def test_length_calls_the_public_generator_once(self, capsys, monkeypatch):
        lengths = []

        def counted(length):
            lengths.append(length)
            return combin.enumerate_balanced_bracelets(length)
        monkeypatch.setattr(cli, "enumerate_balanced_bracelets", counted)
        code, out, _ = run(["bracelets", "--length", "20"], capsys)
        assert code == 0
        assert "count = 4752" in out
        assert lengths == [20]

    @pytest.mark.parametrize("m", [21, 40])
    def test_m_above_the_limit_is_input_error(self, capsys, monkeypatch, m):
        def allocates(m):
            raise AssertionError("select_inequivalent called")
        monkeypatch.setattr(cli, "select_inequivalent", allocates)
        code, out, err = run(["bracelets", "--m", str(m)], capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: m = {m} is above 20: each of the {m} words "
                       f"would have 2^{m} letters\n")

    @pytest.mark.parametrize("length", [30, 10 ** 11])
    def test_length_above_the_limit_is_input_error(self, capsys, monkeypatch, length):
        def allocates(length):
            raise AssertionError("enumerate_balanced_bracelets called")
        monkeypatch.setattr(cli, "enumerate_balanced_bracelets", allocates)
        code, out, err = run(["bracelets", "--length", str(length)], capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: length = {length} is above 28: every canonical "
                       "word of that length would be generated\n")

    def test_m_at_the_limit_is_generated(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "select_inequivalent",
                            lambda m: [str(i) for i in range(m)])
        assert run(["--quiet", "bracelets", "--m", "20"], capsys)[0] == 0

    def test_requires_one_mode(self, capsys):
        code, _, _ = run(["bracelets"], capsys)
        assert code == 2
        code, _, _ = run(["bracelets", "--length", "4", "--m", "2"], capsys)
        assert code == 2

    # SHA-256 of the --json certificate: the benchmark's gap workload inputs,
    # then lengths past the filtering reference's reach, and --m up to its cap
    # as the bracelet generator selected them before the closed form
    @pytest.mark.parametrize("argv, digest", [
        (["--length", "16"], "55969b1de8012cdd5a240301c16eafd9c9bf4e3a585b56f9f9004362d00330a6"),
        (["--length", "18"], "1dbfe824c42eed19865cfb74ca04ccde13c7468eb84330efd439dbb4591fff2f"),
        (["--length", "20"], "c989b729ca5c05f106f0cf575517844bc4f945d4ff8958891445068414eaa32c"),
        (["--m", "8"], "5ba16ae8d0b356f67507d421677257450f1e0309580a71ca9bfcf036f1850595"),
        (["--m", "10"], "cc6361e29d129b60d266eb4fc459bc9246a543c61cb1cf396a8c0ad1decba9bd"),
        (["--m", "12"], "421f537bfd3dd67f3d2c145d22df92e5552e125e9e60a0113de9dcd88667c279"),
        (["--length", "22"], "3a1a99e03dba5c6ba835397f25ae6ce2ea5a8e80a10dfd5bafc018d0a336809c"),
        (["--length", "24"], "b1af477ed2f940e44e9d1c59947fc72661cb02e25d7d42547f2089f9ee4f909e"),
        (["--m", "14"], "9c95482913e4bd5eaf596b5235ce8baa80c8fbfe1c0e6104801b40793147850c"),
        (["--m", "16"], "8a3f60da1395b234c8ab7eb34c6b6d5a16fc2ee55e05be0231007a5f2e3b289b"),
        (["--m", "20"], "9919f9c4b737c44b37e645414a6a928452846908756ff8185ee187d911067e7f"),
    ], ids=["length16", "length18", "length20", "m8", "m10", "m12",
            "length22", "length24", "m14", "m16", "m20"])
    def test_certificate_bytes_pinned(self, capsys, tmp_path, argv, digest):
        path = tmp_path / "cert.json"
        assert run(["--quiet", "--json", str(path), "bracelets"] + argv, capsys)[0] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


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

    # SHA-256 of the --json certificate where lambda is a tower value: lambda1,
    # whose minimal polynomial is the degree-4 norm, and the golden ratio,
    # whose quadratic over k has rational coefficients
    @pytest.mark.parametrize("argv, digest", [
        (["minpoly", "--trace", "6+4*rt2", "--norm", "1"],
         "6479a274589323bbecf9e362ce85567911376face90b1c3b1f5e05c738104577"),
        (["minpoly", "--trace", "1", "--norm", "-1"],
         "b6125806d55afe735c4ae9cad9ee50ad6b0c74bf3f5d817b69cb99369b0ad184"),
    ], ids=["tower-quartic", "tower-rational"])
    def test_certificate_bytes_pinned(self, capsys, tmp_path, argv, digest):
        path = tmp_path / "cert.json"
        assert run(["--quiet", "--json", str(path)] + argv, capsys)[0] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_huge_trace_is_formatted(self, capsys, tmp_path):
        path = tmp_path / "mp.json"
        code, _, err = run(["--quiet", "--json", str(path), "minpoly",
                            "--trace", str(10 ** 400), "--norm", "1"], capsys)
        assert (code, err) == (0, "")
        # the root 10^400 - 10^-400 + ... rounds to 10^400 at 12 decimals
        value = json.loads(path.read_text())["checks"][0]["numeric_values"]["value"]
        assert value == "1" + "0" * 400 + ".000000000000"

    def test_root_with_a_large_coefficient(self, capsys, tmp_path):
        # the root t - 1/t - ... of x^2 - t x + 1, t = 10^30 sqrt2, to the 12
        # decimals of mpmath's value at 80 digits; rounding the coefficient
        # 10^30 apart from sqrt2 lost its 100 bits, and printed ...698078570069
        path = tmp_path / "mp.json"
        code, _, err = run(["--quiet", "--json", str(path), "minpoly",
                            f"--trace={10 ** 30}*rt2", "--norm=1"], capsys)
        assert (code, err) == (0, "")
        value = json.loads(path.read_text())["checks"][0]["numeric_values"]["value"]
        assert value == "1414213562373095048801688724209.698078569672"

    def test_minimal_polynomials_take_no_gcd(self, capsys, monkeypatch):
        # a tower value's minimal polynomial is its quadratic over k or that
        # times its conjugate, both squarefree, so no gcd extracts a
        # squarefree part; only the Mahler measure's split calls it
        calls = [0]
        def counted(a, b, _fn=polyalg._gcd):
            calls[0] += 1
            return _fn(a, b)
        monkeypatch.setattr(polyalg, "_gcd", counted)
        assert run(["--quiet", "verify", "--n", "6"], capsys)[0] == 0
        assert run(["--quiet", "minpoly", "--trace", "6+4*rt2", "--norm", "1"],
                   capsys)[0] == 0
        assert calls[0] == 0

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
        # 2^-m min(1/m, gap) is below the least float from m = 1065 on; it
        # prints from its exact value, checked against mpmath at 30 digits
        path = tmp_path / "bud.json"
        for m, D, epsilon in ((1100, 1, "6.692865299112e-335"),
                              (1070, 3, "7.387897507906e-326"),
                              (5000, 4, "1.415962252210e-1509")):
            code, _, _ = run(["--quiet", "--json", str(path), "budget",
                              "--m", str(m), "--D", str(D)], capsys)
            assert code == 0
            vals = json.loads(path.read_text())["checks"][0]["numeric_values"]
            assert vals["glued_length_bound"] == f"{1 / (2 * m):.12f}"
            assert vals["epsilon"] == epsilon
            with mpmath.workdps(30):
                assert mpmath.almosteq(mpmath.mpf(epsilon), mpmath.mpf(2) ** -m / m,
                                       rel_eps=1e-12)

    def test_budget_keeps_small_epsilon(self, capsys, tmp_path):
        path = tmp_path / "bud.json"
        code, _, _ = run(["--quiet", "--json", str(path), "budget",
                          "--m", "40", "--D", "3"], capsys)
        assert code == 0
        vals = json.loads(path.read_text())["checks"][0]["numeric_values"]
        assert float(vals["epsilon"]) == pytest.approx(2 ** -40 / 40, rel=1e-9)


# ---------------------------------------------------------------------------
# the command-line contract, on argv drawn from a grammar of every subcommand
# ---------------------------------------------------------------------------

def _mostly(valid, bad):
    """valid seven times in eight, else one of the malformed texts bad."""
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(bad) if i == 0 else valid)


def _ints(valid, bad=("x", "2.5", "")):
    """Option values: the ints valid as text, or a malformed text."""
    return _mostly(valid.map(str), bad)


K_TEXTS = _mostly(st.sampled_from(["1", "3", "17", "1/3", "1+1*rt2", "0+4*rt2",
                                   "4+3*rt2", "1000", "1e3", "rt2", "0", "-1",
                                   "1-1*rt2", "-rt2", str(10 ** 399), str(3 * 10 ** 400)]),
                  ["1/0", "abc", "", "nan", "inf", "1**rt2"])
EPSILONS = _mostly(st.floats(1e-300, 1e3).map(repr) | st.sampled_from(
    ["5e-324", "1e300", "128", "-0.25", "0", "-0.0"]), ["nan", "inf", "-inf", "abc", ""])

DEGREES = _ints(st.integers(-1, 8) | st.sampled_from([cli.MAX_MAHLER_D + 1, 10 ** 11]))


class TestCommandLine:
    @pytest.mark.parametrize("argv, code", [
        (["search", "--eps", "0.25"], 0),
        (["search", "--h", "5", "--epsilon", "0.25"], 2),   # --height-bound or --help
    ], ids=["abbreviation", "ambiguous-prefix"])
    def test_prefixes(self, capsys, argv, code):
        assert run(["--quiet"] + argv, capsys)[0] == code

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["search", "-h"],
                                      ["--quiet", "congruence", "--he"]])
    def test_help_prints_the_usage(self, capsys, argv):
        assert run(argv, capsys) == (0, cli.USAGE, "")

    @pytest.mark.parametrize("argv", [
        ["nope"],
        ["verify", "--bogus", "1"],
        ["mahler"],
        ["verify", "--n", "x"],
        ["verify", "extra"],
        ["congruence", "--level", "2"],
        [],
        ["verify", "--precision", "64"],
        ["--precision", "x", "verify"],
        ["--quiet=1", "verify"],
        ["mahler", "--D"],
    ], ids=["unknown-command", "unknown-option", "missing-required", "bad-int",
            "stray-positional", "missing-positional", "no-command",
            "global-after-command", "bad-global", "flag-with-value", "missing-value"])
    def test_parse_errors_exit_2(self, capsys, tmp_path, argv):
        path = tmp_path / "cert.json"
        code, out, err = run(["--json", str(path)] + argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not path.exists()

    def test_usage_names_every_command_and_option(self):
        for name, (_, positionals, options, _) in cli.COMMANDS.items():
            assert f"\n  {name} " in cli.USAGE
            for opt in options:
                assert f"--{opt} " in cli.USAGE, opt
            for pos in positionals:
                assert pos.upper() in cli.USAGE
        for opt in ("--precision", "--json", "--quiet", "-h, --help"):
            assert opt in cli.USAGE

    def test_main_leaves_argparse_unloaded(self):
        # a fresh interpreter pays for every import a command needs
        code = ("import sys; from smallsys.cli import main; "
                "rc = main(['--quiet', 'minpoly', '--trace=2', '--norm=-1']); "
                "print(rc, 'argparse' in sys.modules)")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        assert out == "0 False\n"


@st.composite
def command_argv(draw):
    """argv for one smallsys command: valid, boundary and malformed values,
    within work caps of n <= 10, D <= 8, m <= 14, length <= 20 and 512 bits;
    --m 40, --length 30 and 10^11, and --D just above its limit and 10^11 are
    drawn too, since they are rejected before anything is built."""
    argv = ["--quiet"]
    if draw(st.booleans()):
        argv += ["--precision", draw(_ints(st.sampled_from([16, 64, 128, 512]),
                                                 ["15", "0", "-1", "x", "1e3"]))]
    command = draw(st.sampled_from(["verify", "search", "mahler", "bracelets",
                                    "congruence", "minpoly", "budget", "nope"]))
    argv.append(command)

    def option(name, values, required=False):
        if required or draw(st.integers(0, 3)):
            argv.extend([name, draw(values)])
    if command == "verify":
        option("--a", K_TEXTS)
        option("--n", _ints(st.integers(-1, 10)))
    elif command == "search":
        option("--c", K_TEXTS)
        option("--epsilon", EPSILONS, required=draw(st.integers(0, 9)) > 0)
        option("--height-bound", _ints(st.integers(-2, 10 ** 12) | st.integers(1, 30),
                                                ["x", "1e3"]))
    elif command == "mahler":
        option("--D", DEGREES, required=draw(st.integers(0, 9)) > 0)
    elif command == "bracelets":
        mode = draw(st.sampled_from(["--length", "--m"] * 4 + ["both", "neither"]))
        if mode in ("--length", "both"):
            option("--length", _ints(st.integers(-2, 20) | st.sampled_from([30, 10 ** 11])),
                   required=True)
        if mode in ("--m", "both"):
            option("--m", _ints(st.integers(-1, 14), ["40", "21", "x"]), required=True)
    elif command == "congruence":
        argv.append(draw(st.sampled_from(["<g1>", "<g2>", "<garbage>", "<missing>"])))
        option("--level", K_TEXTS, required=True)
    elif command == "minpoly":
        option("--trace", K_TEXTS, required=True)
        option("--norm", K_TEXTS, required=draw(st.integers(0, 9)) > 0)
    elif command == "budget":
        option("--m", _ints(st.integers(-1, 14)), required=True)
        option("--D", DEGREES, required=True)
    return argv


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("matrices")
    files = {"<g1>": serialize_isometry(block_g1().to_isometry()),
             "<g2>": serialize_isometry(block_g2().to_isometry()),
             "<garbage>": "form: diag(1, -rt2)\nrow: 1, x\n"}
    for name, text in files.items():
        (root / name.strip("<>")).write_text(text)
    return {name: str(root / name.strip("<>")) for name in [*files, "<missing>"]}


@given(command_argv())
@settings(max_examples=150, deadline=None)
def test_command_line_contract(matrix_files, argv):
    # exit 0 or 1 writes a certificate of that verdict and nothing to stderr;
    # bad input exits 2; exit 3 is a named precision ceiling; no traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.json")
        argv = ["--json", path] + [matrix_files.get(a, a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err + out.getvalue(), argv
        if code == 3:
            assert "PrecisionError" in err, (argv, err)
        if code in (0, 1):
            assert err == "", (argv, err)
            with open(path, encoding="utf-8") as fh:
                assert json.load(fh)["verdict"] == ("PASS" if code == 0 else "FAIL")
        else:
            assert not os.path.exists(path), argv
