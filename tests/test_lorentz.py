import random
from fractions import Fraction

import pytest

from smallsys import lorentz
from smallsys.exactfield import KElem, SQRT2, TowerContext
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

    def test_undecided_length_raises(self, monkeypatch):
        # an undecided comparison at the precision ceiling is not "not below"
        monkeypatch.setattr(lorentz, "_length_below", lambda g, eps, prec: None)
        with pytest.raises(PrecisionError):
            find_small_element(KElem(1), 0.25, 10)


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
