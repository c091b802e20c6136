"""Acceptance suite: every exit criterion at its stated tolerance, one
printed PASS/FAIL line per criterion."""

import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from smallsys.arith import (
    GroupSample,
    conjugate_between_forms,
    integrality_scan,
    non_qa_certificate,
    trace_field_sample,
)
from smallsys.combin import (
    burnside_count,
    canonical_form,
    enumerate_balanced_bracelets,
    epsilon_budget,
    glued_geodesic_length,
    select_inequivalent,
)
from smallsys.congr import ZsqrtIdeal, in_principal_congruence
from smallsys.exactfield import KElem, SQRT2, embed
from smallsys.hypgeom import GeodesicHyperplane, dist_hyperplanes, systole_witness
from smallsys.lorentz import (
    Isometry,
    QuadForm,
    block_g1,
    block_g2,
    find_small_element,
    in_O_prime,
    is_isometry,
    leading_eigenvalue,
    param_block,
    similarity_discriminant_obstruction,
    translation_length,
)
from smallsys.polyalg import (
    ZPoly,
    epsilon_gap,
    enumerate_bounded,
    is_algebraic_integer,
    min_mahler_above_one,
    minpoly_over_Q,
    product,
)


def report(number: int, label: str):
    print(f"ACCEPTANCE {number}: PASS - {label}")


def oracle_128(expr):
    """Quadratic-formula oracle at 128-bit precision."""
    with mpmath.workprec(128):
        return float(expr())


class TestAcceptance:
    def test_01_exact_matrix_verification(self):
        start = time.perf_counter()
        for n in range(2, 11):
            f1 = QuadForm.standard(1, n)
            f2 = QuadForm.standard(3, n)
            m1 = block_g1(n).to_entries()
            m2 = block_g2(n).to_entries()
            assert is_isometry(m1, f1) and in_O_prime(m1, f1)
            assert is_isometry(m2, f2) and in_O_prime(m2, f2)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"matrix verification took {elapsed:.3f}s"
        report(1, f"g1/g2 exact isometries for n = 2..10 in {elapsed * 1000:.0f} ms")

    def test_02_eigenvalues_lengths_witness(self):
        lam1 = leading_eigenvalue(block_g1())
        lam2 = leading_eigenvalue(block_g2())
        len1 = float(translation_length(block_g1(), 128))
        len2 = float(translation_length(block_g2(), 128))

        def orc(alpha_fn):
            a = alpha_fn()
            return a + mpmath.sqrt(a * a - 1)

        o_lam1 = oracle_128(lambda: orc(lambda: 3 + 2 * mpmath.sqrt(2)))
        o_lam2 = oracle_128(lambda: orc(lambda: (11 + 6 * mpmath.sqrt(2)) / 7))
        o_len1 = oracle_128(lambda: mpmath.log(orc(lambda: 3 + 2 * mpmath.sqrt(2))))
        o_len2 = oracle_128(
            lambda: mpmath.log(orc(lambda: (11 + 6 * mpmath.sqrt(2)) / 7)))
        # frozen decimals confirmed by the same oracle before test freeze
        assert abs(o_lam1 - 11.570427015766490) < 1e-12
        assert abs(o_len1 - 2.4484524476780758) < 1e-12
        assert abs(o_lam2 - 5.3813979283098797) < 1e-12
        assert abs(o_len2 - 1.6829481783974669) < 1e-12

        assert float(embed(lam1, 128)) == pytest.approx(o_lam1, abs=1e-6)
        assert len1 == pytest.approx(o_len1, abs=1e-6)
        assert float(embed(lam2, 128)) == pytest.approx(o_lam2, abs=1e-6)
        assert len2 == pytest.approx(o_len2, abs=1e-6)
        witness = systole_witness(len1, len2)
        assert witness == pytest.approx(2 * (o_len1 + o_len2), abs=1e-5)
        assert witness == pytest.approx(8.262801252151085, abs=1e-5)
        report(2, f"lambda/length/witness values at 1e-6/1e-5 "
                  f"(witness {witness:.6f})")

    def test_03_integrality_verdicts(self):
        lam1 = leading_eigenvalue(block_g1())
        lam2 = leading_eigenvalue(block_g2())
        assert is_algebraic_integer(lam1) is True
        assert is_algebraic_integer(lam2) is False
        prod_poly, _ = product(lam1, lam2)
        assert not prod_poly.is_integral()
        assert any(c.denominator % 7 == 0 for c in prod_poly.coeffs
                   if c.denominator > 1)
        report(3, "lambda1 integral, lambda2 and lambda1*lambda2 not; "
                  "denominator divisible by 7")

    def test_04_geometry_consistency(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 200:
            c = KElem(rng.choice([1, 3]))
            t = KElem(rng.randint(1, 25), rng.randint(0, 8))
            if (SQRT2 * t * t - c).sign() <= 0:
                continue
            g = param_block(c, t, 2)
            h = GeodesicHyperplane.coordinate(g.form())
            rel = dist_hyperplanes(h, h.image(g.to_isometry()), 64)
            assert rel.kind == "disjoint"
            assert rel.cosh_sq == g.alpha * g.alpha          # exact
            ell = translation_length(g, 64)
            assert rel.distance.overlaps(ell)
            assert rel.distance.width() < Fraction(1, 2 ** 40)
            assert ell.width() < Fraction(1, 2 ** 40)
            checked += 1
        report(4, "cosh(dist) = alpha exactly and dist = length within 2^-40, "
                  "200 random blocks over both forms")

    def test_05_small_element_search(self):
        for m in range(1, 21):
            g = find_small_element(KElem(1), 1.0 / (4 * m), 10 ** 4)
            t = g.parameter()
            assert t.b == 0 and t.a.denominator == 1 and 1 <= t.a <= 10 ** 4
            assert float(translation_length(g)) < 1.0 / (4 * m)
        lengths = [translation_length(param_block(KElem(1), KElem(t), 2), 64)
                   for t in range(1, 51)]
        assert all(b.strictly_less(a) for a, b in zip(lengths, lengths[1:]))
        report(5, "integer-parameter search succeeds for m = 1..20 and lengths "
                  "decrease over t = 1..50")

    def test_06_trace_fields(self):
        iso1 = block_g1().to_isometry()
        conj2 = conjugate_between_forms(block_g2().to_isometry(), 3)
        sub = trace_field_sample(GroupSample([iso1], 3))
        assert sub.level == "k"
        assert any(tr == KElem(7, 4) for _, tr in sub.witnesses)
        amb = trace_field_sample(GroupSample([iso1, conj2], 2))
        assert amb.level == "K"
        cert = non_qa_certificate(3, sub, amb)
        assert cert.passed
        assert integrality_scan(GroupSample([iso1, conj2], 2))
        report(6, "subgroup field k (witness 7+4*rt2), mixed field K at length 2, "
                  "non-quasi-arithmeticity certificate PASS")

    def test_07_congruence(self):
        g1 = block_g1().to_isometry()
        assert in_principal_congruence(g1, ZsqrtIdeal(SQRT2))
        assert in_principal_congruence(g1, ZsqrtIdeal(KElem(2)))
        assert not in_principal_congruence(g1, ZsqrtIdeal(KElem(7)))
        f1 = QuadForm.standard(1, 2)
        perms = []
        for mat in (((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
                    ((-1, 0, 0), (0, 1, 0), (0, 0, 1)),
                    ((0, -1, 0), (-1, 0, 0), (0, 0, 1))):
            perms.append(Isometry(tuple(tuple(KElem(v) for v in row)
                                        for row in mat), f1))
        rng = random.Random(4096)
        level = ZsqrtIdeal(SQRT2)

        def random_member():
            out = Isometry.identity(f1)
            for _ in range(rng.randint(1, 2)):
                h = rng.choice(perms)
                core = g1 if rng.random() < 0.5 else g1.inverse()
                out = out * (h * core * h.inverse())
            return out

        for _ in range(50):
            m, n = random_member(), random_member()
            assert in_principal_congruence(m, level)
            assert in_principal_congruence(n, level)
            assert in_principal_congruence(m * n, level)
        report(7, "g1 in levels (rt2), (2), not (7); closure on 50 random products")

    def test_08_mahler(self):
        v2, w2 = min_mahler_above_one(2)
        assert v2 == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-5)
        assert w2 == ZPoly([-1, -1, 1])
        v4, w4 = min_mahler_above_one(4)
        assert v4 == pytest.approx(1.3247179572447460, abs=1e-5)
        assert w4 == ZPoly([-1, -1, 0, 1])
        start = time.perf_counter()
        polys = enumerate_bounded(4, 1.4)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"enumeration took {elapsed:.1f}s"
        assert ZPoly([-1, -1, 0, 1]) in set(polys)
        report(8, f"Mahler minima 1.618034 (x^2-x-1) and 1.324718 (x^3-x-1); "
                  f"enumeration D=4 mu=1.4 in {elapsed:.1f}s")

    def test_09_bracelets_and_pipeline(self):
        for length in (2, 4, 6, 8, 10, 12):
            assert len(enumerate_balanced_bracelets(length)) == burnside_count(length)
        assert burnside_count(8) == 8
        for m in range(1, 7):
            sel = select_inequivalent(m)
            assert len(sel) == m and len(set(sel)) == m
            assert all(canonical_form(s) == s for s in sel)
        gap = epsilon_gap(4)
        for m in range(1, 7):
            eps = epsilon_budget(m, gap)
            len1 = float(translation_length(
                find_small_element(KElem(1), eps / 4, 10 ** 4)))
            len2 = float(translation_length(
                find_small_element(KElem(3), eps / 4, 10 ** 4)))
            seq = select_inequivalent(m)[-1]
            glued = glued_geodesic_length(seq, len1, len2)
            assert glued < 1.0 / m
        report(9, "bracelet counts match Burnside for L = 2..12, selection "
                  "distinct for m = 1..6, glued length < 1/m throughout")

    def test_10_similarity_obstruction(self):
        for a in (3, 17):
            assert similarity_discriminant_obstruction(
                QuadForm.standard(1, 3), QuadForm.standard(a, 3)) == "obstructed"
        f = QuadForm.standard(1, 3)
        assert similarity_discriminant_obstruction(f, f) == "inconclusive"
        report(10, "discriminant obstruction for a in {3, 17} at n = 3; "
                   "self-comparison inconclusive")
