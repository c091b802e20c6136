import json
import random
from fractions import Fraction

import mpmath
import pytest

from smallsys import cli, lorentz
from smallsys.exactfield import KElem, RealInterval, SQRT2, TowerContext, parse_kelem
from smallsys.lorentz import (
    ABlockElement,
    DegenerateParameterError,
    Isometry,
    QuadForm,
    SearchExhaustedError,
    WrongBranchError,
    block_g1,
    block_g2,
    find_small_element,
    in_O_prime,
    is_isometry,
    leading_eigenvalue,
    mat_identity,
    mat_mul,
    param_block,
    parse_form_header,
    parse_isometry,
    serialize_isometry,
    similarity_discriminant_obstruction,
    translation_length,
)
from smallsys.polyalg import PrecisionError

# the two displayed 3x3 matrices of the worked instance (entries in Z[rt2]
# for the first, denominators 7 for the second)
G1_ENTRIES = (
    (KElem(3, 2), KElem(0), KElem(4, 2)),
    (KElem(0), KElem(1), KElem(0)),
    (KElem(2, 2), KElem(0), KElem(3, 2)),
)
G2_ENTRIES = (
    (KElem(Fraction(11, 7), Fraction(6, 7)), KElem(0), KElem(Fraction(4, 7), Fraction(6, 7))),
    (KElem(0), KElem(1), KElem(0)),
    (KElem(Fraction(18, 7), Fraction(6, 7)), KElem(0), KElem(Fraction(11, 7), Fraction(6, 7))),
)
F1 = QuadForm.standard(1, 2)
F2 = QuadForm.standard(3, 2)


def reference_scan(c, eps_target, height_bound):
    """The linear scan find_small_element replaced, kept as its reference:
    t = 1..H, then u + v sqrt2 (v != 0) shell by shell, u and then v
    ascending, with the least alpha kept strictly, and alpha compared against
    cosh(eps) at escalating precision."""
    c, eps = KElem._lift(c), Fraction(eps_target)
    best = None

    def length_below(g):
        prec = 64
        while prec <= 4096:
            alpha_iv = g.alpha.embed(prec)
            cosh_iv = RealInterval(eps, eps, prec).cosh()
            if alpha_iv.strictly_less(cosh_iv):
                return True
            if cosh_iv.strictly_less(alpha_iv):
                return False
            prec *= 2
        raise PrecisionError("undecided")

    def params():
        for t in range(1, height_bound + 1):
            yield KElem(t)
        for h in range(1, height_bound + 1):
            for u in range(-h, h + 1):
                for v in range(-h, h + 1):
                    if v != 0 and max(abs(u), abs(v)) == h:
                        yield KElem(u, v)

    for t in params():
        try:
            g = param_block(c, t, 2)
        except (WrongBranchError, DegenerateParameterError):
            continue
        if length_below(g):
            return g
        if best is None or (g.alpha - best.alpha).sign() < 0:
            best = g
    best_len = float(translation_length(best, 64)) if best is not None else None
    raise SearchExhaustedError(
        f"no parameter of height <= {height_bound} reaches length < {eps_target}"
        + (f"; smallest length found {best_len:.6g}" if best_len is not None else ""),
        best=best, best_length=best_len)


def search_outcome(search, c, eps, height_bound):
    try:
        return "hit", search(c, eps, height_bound).parameter()
    except SearchExhaustedError as exc:
        best = exc.best.parameter() if exc.best is not None else None
        return "exhausted", best, exc.best_length, str(exc)


def k_value(x):
    """x = a + b sqrt2 in mpmath at the working precision."""
    def q(r):
        return mpmath.mpf(r.numerator) / r.denominator
    return q(x.a) + q(x.b) * mpmath.sqrt(2)


def threshold_oracle(c, eps, bits=256):
    """T = (c/sqrt2) coth^2(eps/2) at the given bits: alpha(t) < cosh(eps)
    exactly when t^2 > T."""
    with mpmath.workprec(bits):
        return k_value(c) * mpmath.coth(mpmath.mpf(eps) / 2) ** 2 / mpmath.sqrt(2)


def square_over(t, T):
    with mpmath.workprec(256):
        return k_value(t) ** 2 > T


def rand_valid_param(rng, c):
    # sqrt2 t^2 > c needed; integer t >= 2 covers c in [1, 5]
    t = KElem(rng.randint(2, 30), rng.randint(0, 10))
    return t


class TestIsometryChecks:
    def test_identity(self):
        assert is_isometry(mat_identity(3), F1)

    def test_displayed_matrix_g1(self):
        assert is_isometry(G1_ENTRIES, F1)

    def test_displayed_matrix_g2(self):
        assert is_isometry(G2_ENTRIES, F2)

    def test_perturbed_corner_fails(self):
        bad = [list(r) for r in G1_ENTRIES]
        bad[0][0] = KElem(3, 3)
        assert not is_isometry(bad, F1)

    def test_in_O_prime_g1(self):
        assert in_O_prime(G1_ENTRIES, F1)

    def test_minus_identity_not_sheet_preserving(self):
        neg = tuple(tuple(-x for x in row) for row in mat_identity(3))
        assert is_isometry(neg, F1)
        assert not in_O_prime(neg, F1)

    def test_time_flip_composition_not_sheet_preserving(self):
        flip = (
            (KElem(1), KElem(0), KElem(0)),
            (KElem(0), KElem(1), KElem(0)),
            (KElem(0), KElem(0), KElem(-1)),
        )
        composed = mat_mul(flip, G1_ENTRIES)
        assert is_isometry(composed, F1)
        assert not in_O_prime(composed, F1)

    def test_non_isometry_raises_in_O_prime(self):
        bad = [list(r) for r in G1_ENTRIES]
        bad[0][0] = KElem(3, 3)
        with pytest.raises(ValueError):
            in_O_prime(bad, F1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_isometry(G1_ENTRIES, QuadForm.standard(1, 3))

    def test_isometry_class_verifies(self):
        iso = Isometry(G1_ENTRIES, F1)
        assert iso.sheet_preserving
        inv = iso.inverse()
        assert (iso * inv).entries == mat_identity(3)
        with pytest.raises(ValueError):
            Isometry(((KElem(2),),), QuadForm.standard(1, 1))


class TestParamBlock:
    def test_g1_from_parameter_one(self):
        g = param_block(KElem(1), KElem(1), 2)
        assert g.alpha == KElem(3, 2)
        assert g.gamma == KElem(2, 2)
        assert g.to_entries() == G1_ENTRIES

    def test_g2_from_parameter_three_halves_rt2(self):
        g = param_block(KElem(3), KElem(0, Fraction(3, 2)), 2)
        assert g.alpha == KElem(Fraction(11, 7), Fraction(6, 7))
        assert g.gamma == KElem(Fraction(18, 7), Fraction(6, 7))
        assert g.to_entries() == G2_ENTRIES

    def test_numeric_example(self):
        g = param_block(KElem(1), KElem(10), 2)
        assert float(g.alpha.embed()) == pytest.approx(1.0142428477661193, abs=1e-9)

    def test_degenerate_direction(self):
        # sqrt2 t^2 = c at c = 2 sqrt2, t = sqrt2 ... use c = sqrt2*4, t = 2
        with pytest.raises(DegenerateParameterError):
            param_block(SQRT2 * 4, KElem(2), 2)

    def test_wrong_branch(self):
        with pytest.raises(WrongBranchError):
            param_block(KElem(3), KElem(1), 2)

    def test_block_invariants_random(self):
        rng = random.Random(71)
        for _ in range(500):
            c = KElem(rng.randint(1, 5))
            t = rand_valid_param(rng, c)
            g = param_block(c, t, rng.randint(2, 5))
            assert g.c * g.alpha * g.alpha - SQRT2 * g.gamma * g.gamma == g.c
            assert g.alpha * g.alpha - g.top_right * g.gamma == KElem(1)
            assert is_isometry(g.to_entries(), g.form())
            assert in_O_prime(g.to_entries(), g.form())
            assert g.parameter() == t
            assert (g.alpha - KElem(1)).sign() == 1


class TestEigenvalueAndLength:
    def test_lambda1(self):
        lam = leading_eigenvalue(block_g1())
        assert lam.trace == KElem(6, 4)
        assert lam.norm == KElem(1)
        assert float(lam.numeric(96)) == pytest.approx(11.570427015766490, abs=1e-9)

    def test_lambda2(self):
        lam = leading_eigenvalue(block_g2())
        assert lam.trace == KElem(Fraction(22, 7), Fraction(12, 7))
        assert float(lam.numeric(96)) == pytest.approx(5.381397928309880, abs=1e-9)

    def test_eigenvalue_trace_relation(self):
        rng = random.Random(73)
        for _ in range(100):
            g = param_block(KElem(rng.randint(1, 4)), rand_valid_param(rng, None), 2)
            lam = leading_eigenvalue(g)
            assert lam.trace == 2 * g.alpha
            assert lam.norm == KElem(1)

    def test_identity_boundary_rejected(self):
        with pytest.raises(ValueError):
            leading_eigenvalue(ABlockElement(KElem(1), KElem(0), KElem(1), 2))

    def test_lengths(self):
        assert float(translation_length(block_g1(), 96)) == pytest.approx(
            2.4484524476780758, abs=1e-12)
        assert float(translation_length(block_g2(), 96)) == pytest.approx(
            1.6829481783974669, abs=1e-12)
        assert float(translation_length(param_block(KElem(1), KElem(10), 2), 96)
                     ) == pytest.approx(0.16857737575656589, abs=1e-12)

    def test_length_decreasing_in_t(self):
        lengths = [translation_length(param_block(KElem(1), KElem(t), 2), 96)
                   for t in range(1, 51)]
        for a, b in zip(lengths, lengths[1:]):
            assert b.strictly_less(a)


class TestFindSmallElement:
    def test_t1_suffices(self):
        g = find_small_element(KElem(1), 2.5, 100)
        assert g.parameter() == KElem(1)

    def test_t7_for_quarter(self):
        g = find_small_element(KElem(1), 0.25, 100)
        assert g.parameter() == KElem(7)
        assert float(translation_length(g)) == pytest.approx(0.2414219215, abs=1e-9)

    def test_exhaustion_reports_best(self):
        with pytest.raises(SearchExhaustedError) as exc:
            find_small_element(KElem(1), 1e-9, 3)
        assert exc.value.best is not None
        # the k-parameter scan reaches t = +-(3 + 3 sqrt2), beating every integer t <= 3
        assert exc.value.best.parameter() in (KElem(3, 3), KElem(-3, -3))
        assert exc.value.best_length == pytest.approx(
            float(translation_length(param_block(KElem(1), KElem(3, 3), 2))), abs=1e-9)

    def test_skips_wrong_branch_parameters(self):
        # c = 3 rules out t = 1; the scan must continue to t = 2
        g = find_small_element(KElem(3), 10.0, 50)
        assert g.parameter() == KElem(2)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            find_small_element(KElem(1), 0.0, 10)

    def test_matches_linear_scan(self, monkeypatch):
        # c = 4 rt2 is degenerate at t = 2 and c = 4 + 3 rt2 at t = -1 - rt2, so
        # H = 1 has no loxodromic parameter; c = 1000 is on the wrong branch
        # below t = 27 and h = 12
        cases = [(c, eps, height_bound)
                 for c in (KElem(1), KElem(2), KElem(3), KElem(1, 1), KElem(0, 4),
                           KElem(4, 3), KElem(1000))
                 for eps in (3.0, 1.0, 0.5, 0.3, 0.2, 0.12, 0.05, 1e-2)
                 for height_bound in (1, 2, 3, 6)]
        cases += [(KElem(1000), 3.0, 30), (KElem(1000), 0.3, 15)]
        guesses = lorentz._guesses
        kinds = set()
        for case in cases:
            want = search_outcome(reference_scan, *case)
            # the guesses only seed the walk, which must end at the same place
            # from a start a step or two off either way
            for shift in (0, -2, -1, 1, 2):
                monkeypatch.setattr(lorentz, "_guesses", lambda c, eps, shift=shift: [
                    max(1, n + shift) for n in guesses(c, eps)])
                assert search_outcome(find_small_element, *case) == want, (case, shift)
            if want[0] == "hit":
                kinds.add("shell hit" if want[1].b else "integer hit")
            else:
                kinds.add("exhausted" if want[1] is not None else "no best")
        assert kinds == {"integer hit", "shell hit", "exhausted", "no best"}

    @pytest.mark.parametrize("eps, height_bound, want", [
        (1e-3, 10 ** 4, "1682"),
        (1e-6, 2 * 10 ** 6, "1681793"),
        (1e-4, 10 ** 4, "-6967-6967*rt2"),
        (1e-3, 25, None),
    ])
    def test_handful_of_checks(self, monkeypatch, eps, height_bound, want):
        calls, checked = [], lorentz._length_below

        def counting(g, eps, prec):
            calls.append(prec)
            return checked(g, eps, prec)
        monkeypatch.setattr(lorentz, "_length_below", counting)
        outcome = search_outcome(find_small_element, KElem(1), eps, height_bound)
        if want is None:
            assert outcome[:2] == ("exhausted", KElem(-25, -25))
        else:
            assert outcome == ("hit", parse_kelem(want))
        assert 1 <= len(calls) <= 8

    @pytest.mark.parametrize("c", [KElem(1), KElem(3), KElem(1, 1), KElem(1000)])
    @pytest.mark.parametrize("eps", [1e300, 2.5, 1e-3, 1e-6, 1e-300, 5e-324])
    def test_guesses_within_one_of_threshold(self, c, eps):
        # no division by an interval that contains 0, and no cosh(eps) built;
        # T reaches 2^2160 at eps = 5e-324, hence the oracle's 4096 bits
        T = threshold_oracle(c, eps, 4096)
        n, h = lorentz._guesses(c, Fraction(eps))
        with mpmath.workprec(4096):
            for guess, bound in ((n, T), (h, T / (1 + mpmath.sqrt(2)) ** 2)):
                exact = int(mpmath.floor(mpmath.sqrt(bound))) + 1
                assert exact - 1 <= guess <= exact

    def test_undecided_length_raises(self, monkeypatch):
        # an undecided comparison at the precision ceiling is not "not below"
        monkeypatch.setattr(lorentz, "_length_below", lambda g, eps, prec: None)
        with pytest.raises(PrecisionError):
            find_small_element(KElem(1), 0.25, 10)


class TestSearchCommand:
    """`smallsys search` end to end, on inputs the linear scan could not reach."""

    def certificate(self, argv, capsys, tmp_path):
        path = tmp_path / "search.json"
        code = cli.main(["--quiet", "--json", str(path), "search"] + argv)
        capsys.readouterr()
        return code, path.read_bytes()

    # each hit against the parameters just before it in the search order: for
    # the shell hit, the previous shell's largest t^2 and the last integer
    @pytest.mark.parametrize("eps, height_bound, want, before", [
        ("1e-6", "2000000", "1681793", ["1681792"]),
        ("1e-4", "10000", "-6967-6967*rt2", ["-6966-6966*rt2", "10000"]),
    ])
    def test_first_hit_against_oracle(self, capsys, tmp_path, eps, height_bound,
                                      want, before):
        code, raw = self.certificate(["--epsilon", eps, "--height-bound", height_bound],
                                     capsys, tmp_path)
        assert code == 0
        assert json.loads(raw)["checks"][0]["exact_values"]["t"] == want
        T = threshold_oracle(KElem(1), float(eps))
        assert square_over(parse_kelem(want), T)
        assert not any(square_over(parse_kelem(t), T) for t in before)

    @pytest.mark.parametrize("eps", ["1e10", "1e300"])
    def test_huge_epsilon_passes_at_t1(self, capsys, tmp_path, eps):
        code, raw = self.certificate(["--c", "1", "--epsilon", eps], capsys, tmp_path)
        assert code == 0
        assert json.loads(raw)["checks"][0]["exact_values"]["t"] == "1"

    def test_tiny_epsilon_matches_linear_scan(self, capsys, tmp_path, monkeypatch):
        argv = ["--epsilon", "1e-300", "--height-bound", "5"]
        code, raw = self.certificate(argv, capsys, tmp_path)
        assert code == 1
        assert json.loads(raw)["checks"][0]["exact_values"]["best_t"] == "-5-5*rt2"
        monkeypatch.setattr(cli, "find_small_element", reference_scan)
        assert self.certificate(argv, capsys, tmp_path) == (code, raw)

    def test_tiny_epsilon_hit_passes(self, capsys, tmp_path):
        # near 0 a 128-bit arccosh interval is about 2^-64 wide, so the verdict
        # on this hit needs more bits than --precision
        t = "16817928305074292049769794435721570581303"
        code, raw = self.certificate(["--epsilon", "1e-40", "--height-bound",
                                      str(10 ** 41)], capsys, tmp_path)
        assert code == 0
        check = json.loads(raw)["checks"][0]
        assert check["status"] == "PASS"
        assert check["exact_values"]["t"] == t
        assert check["numeric_values"]["length"].endswith("e-40")
        T = threshold_oracle(KElem(1), 1e-40)
        assert square_over(parse_kelem(t), T)
        assert not square_over(parse_kelem(str(int(t) - 1)), T)

    def test_undecided_length_raises_at_4096_bits(self, capsys, monkeypatch):
        tried = []

        def undecided(g, bits):
            tried.append(bits)
            return RealInterval(0, 1, bits)
        monkeypatch.setattr(cli, "translation_length", undecided)
        assert cli.main(["search", "--epsilon", "0.25"]) == 3
        assert "PrecisionError" in capsys.readouterr().err
        assert tried == [128, 256, 512, 1024, 2048, 4096]

    def test_precision_above_ceiling_decides_once(self, capsys, tmp_path, monkeypatch):
        tried, real = [], cli.translation_length

        def counted(g, bits):
            tried.append(bits)
            return real(g, bits)
        monkeypatch.setattr(cli, "translation_length", counted)
        path = tmp_path / "search.json"
        assert cli.main(["--quiet", "--json", str(path), "--precision", "8192",
                         "search", "--epsilon", "1e-3"]) == 0
        cert = json.loads(path.read_text())
        assert cert["verdict"] == "PASS"
        assert cert["inputs"]["precision"] == "8192"
        assert tried == [8192]

    def test_exhausted_best_length_is_precise(self, capsys, tmp_path):
        # at 64 bits this length's enclosure is [0, 1.65e-10], whose midpoint
        # 8.2e-11 is noise; the length is priced until 2^-40 wide relative
        H = 10 ** 12
        code, raw = self.certificate(["--epsilon", "1e-20", "--height-bound", str(H)],
                                     capsys, tmp_path)
        assert code == 1
        got = float(json.loads(raw)["checks"][0]["numeric_values"]["best_length"])
        alpha = param_block(KElem(1), KElem(-H, -H), 2).alpha
        with mpmath.workprec(400):
            want = mpmath.acosh((alpha.p + alpha.q * mpmath.sqrt(2)) / alpha.d)
        assert abs(got - want) <= 1e-9 * want
        assert float(want) == pytest.approx(6.966e-13, rel=1e-3)

    def test_tiny_epsilon_exhausts_default_height(self, capsys, tmp_path):
        code, raw = self.certificate(["--epsilon", "1e-300"], capsys, tmp_path)
        assert code == 1
        check = json.loads(raw)["checks"][0]
        assert check["exact_values"]["best_t"] == "-10000-10000*rt2"
        assert check["numeric_values"]["best_length"].startswith("0.0000696621")


class TestSimilarityObstruction:
    def test_identical_forms(self):
        f = QuadForm.standard(1, 3)
        assert similarity_discriminant_obstruction(f, f) == "inconclusive"

    def test_a17_rank4(self):
        assert similarity_discriminant_obstruction(
            QuadForm.standard(1, 3), QuadForm.standard(17, 3)) == "obstructed"

    def test_a3_rank4(self):
        assert similarity_discriminant_obstruction(
            QuadForm.standard(1, 3), QuadForm.standard(3, 3)) == "obstructed"

    def test_odd_rank_inconclusive(self):
        assert similarity_discriminant_obstruction(
            QuadForm.standard(1, 2), QuadForm.standard(3, 2)) == "inconclusive"

    def test_square_ratio_inconclusive(self):
        assert similarity_discriminant_obstruction(
            QuadForm.standard(1, 3), QuadForm.standard(4, 3)) == "inconclusive"


class TestTowerConjugation:
    def test_g2_conjugated_into_unit_form(self):
        # diag(sqrt a, 1, ..., 1) g2 diag(sqrt a, 1, ..., 1)^{-1} preserves
        # the unit-coefficient form, with entries in the tower k(sqrt 3)
        ctx = TowerContext.from_rational(3)
        root = ctx.sqrt_gen()
        g2 = block_g2(3).to_entries()
        size = len(g2)
        d = [root if i == 0 else ctx.from_k(1) for i in range(size)]
        conj = tuple(tuple(d[i] * g2[i][j] / d[j] for j in range(size))
                     for i in range(size))
        unit = QuadForm.standard(1, 3)
        assert is_isometry(conj, unit)
        assert in_O_prime(conj, unit)
        assert conj[0][0] == ctx.from_k(KElem(Fraction(11, 7), Fraction(6, 7)))
        assert conj[0][size - 1].u == KElem(0)       # off-corner entries pick up sqrt3
        assert conj[0][size - 1].v != KElem(0)


class TestSerialization:
    def test_roundtrip(self):
        iso = block_g1(3).to_isometry()
        text = serialize_isometry(iso)
        back = parse_isometry(text)
        assert back == iso

    def test_form_header(self):
        f = parse_form_header("form: diag(3, 1, 1, -rt2)")
        assert f == QuadForm.standard(3, 3)
        with pytest.raises(ValueError):
            parse_form_header("form: diag(3, 1)")

    def test_padded_instances_stay_isometries(self):
        for n in range(2, 11):
            assert is_isometry(block_g1(n).to_entries(), QuadForm.standard(1, n))
            assert is_isometry(block_g2(n).to_entries(), QuadForm.standard(3, n))
