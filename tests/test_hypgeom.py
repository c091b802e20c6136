import random
from fractions import Fraction

import mpmath
import pytest

from smallsys import hypgeom
from smallsys.exactfield import KElem, SQRT2
from smallsys.hypgeom import (
    GeodesicHyperplane,
    GeometryError,
    bilinear,
    dist_hyperplanes,
    systole_witness,
)
from smallsys.lorentz import (
    QuadForm,
    block_g1,
    block_g2,
    param_block,
    translation_length,
)

F1 = QuadForm.standard(1, 2)
F2 = QuadForm.standard(3, 2)
LEN1 = 2.4484524476780758
LEN2 = 1.6829481783974669


def e(i, n):
    return tuple(KElem(1 if j == i else 0) for j in range(n + 1))


class TestBilinear:
    def test_diagonal_values(self):
        assert bilinear(F2, e(0, 2), e(0, 2)) == KElem(3)
        assert bilinear(F2, e(1, 2), e(1, 2)) == KElem(1)
        assert bilinear(F2, e(2, 2), e(2, 2)) == -SQRT2

    def test_off_diagonal_vanishes(self):
        assert bilinear(F1, e(0, 2), e(1, 2)) == KElem(0)

    def test_polarization_identity(self):
        rng = random.Random(83)
        for _ in range(100):
            x = tuple(KElem(rng.randint(-5, 5), rng.randint(-2, 2)) for _ in range(3))
            y = tuple(KElem(rng.randint(-5, 5), rng.randint(-2, 2)) for _ in range(3))
            xy = tuple(a + b for a, b in zip(x, y))
            fx = bilinear(F1, x, x)
            fy = bilinear(F1, y, y)
            fxy = bilinear(F1, xy, xy)
            assert bilinear(F1, x, y) == (fxy - fx - fy) / 2


class TestHyperplanes:
    def test_identical_hyperplanes_intersect_at_zero(self):
        # q = 1 exactly: the pair is not disjoint, so no distance is returned
        h = GeodesicHyperplane.coordinate(F1)
        with pytest.raises(GeometryError):
            dist_hyperplanes(h, h)

    def test_g1_image_distance_equals_translation_length(self):
        h = GeodesicHyperplane.coordinate(F1)
        g = block_g1()
        rel = dist_hyperplanes(h, h.image(g.to_isometry()), 96)
        assert rel.kind == "disjoint"
        assert rel.cosh_sq == g.alpha * g.alpha
        assert float(rel.distance) == pytest.approx(LEN1, abs=1e-12)

    def test_g2_image_distance(self):
        h = GeodesicHyperplane.coordinate(F2)
        g = block_g2()
        rel = dist_hyperplanes(h, h.image(g.to_isometry()), 96)
        assert rel.kind == "disjoint"
        assert float(rel.distance) == pytest.approx(LEN2, abs=1e-12)

    def test_cosh_identity_random_blocks(self):
        rng = random.Random(103)
        for _ in range(200):
            c = KElem(rng.choice([1, 3]))
            t = KElem(rng.randint(2, 20), rng.randint(0, 6))
            g = param_block(c, t, 2)
            h = GeodesicHyperplane.coordinate(g.form())
            image = h.image(g.to_isometry())
            rel = dist_hyperplanes(h, image)
            assert rel.cosh_sq == g.alpha * g.alpha
            ell = translation_length(g)
            assert rel.distance.overlaps(ell)

    def test_distance_near_alpha_one_is_narrow(self):
        # at t = 1682, alpha - 1 is about 1e-6: arccosh of sqrt(q)'s enclosure
        # was 1.9e-16 wide at 64 bits and 1.0e-35 at 128, log(sqrt q +
        # sqrt(q - 1)) with q - 1 exact is 1.09e-16 and 5.9e-36
        g = param_block(KElem(1), KElem(1682), 2)
        h = GeodesicHyperplane.coordinate(g.form())
        with mpmath.workprec(256):
            man, exp = mpmath.acosh((g.alpha.p + g.alpha.q * mpmath.sqrt(2))
                                    / g.alpha.d).man_exp      # positive
        want = Fraction(man) * Fraction(2) ** exp
        for precision, width in ((64, 1.2e-16), (128, 6.5e-36)):
            dist = dist_hyperplanes(h, h.image(g.to_isometry()), precision).distance
            assert dist.lo <= want <= dist.hi
            assert dist.width() < width
        assert float(dist) == pytest.approx(9.998769147576284e-4, rel=1e-12)

    def test_intersecting_pair(self):
        # orthogonal normals: q = 0
        h1 = GeodesicHyperplane.coordinate(F1)
        h2 = GeodesicHyperplane(e(1, 2), F1)
        with pytest.raises(GeometryError):
            dist_hyperplanes(h1, h2)

    def test_norm_is_computed_once(self, monkeypatch):
        h = GeodesicHyperplane.coordinate(F2)
        image = h.image(block_g2().to_isometry())
        for plane in (h, image):
            assert plane.norm == bilinear(F2, plane.normal, plane.normal)
        calls = []

        def counted(*args):
            calls.append(args)
            return bilinear(*args)
        monkeypatch.setattr(hypgeom, "bilinear", counted)
        assert dist_hyperplanes(h, image).kind == "disjoint"
        assert len(calls) == 1

    def test_timelike_normal_rejected(self):
        with pytest.raises(GeometryError):
            GeodesicHyperplane(e(2, 2), F1)


class TestSystoleWitness:
    def test_worked_instance(self):
        assert systole_witness(LEN1, LEN2) == pytest.approx(8.262801252151085, abs=1e-12)

    def test_budget_algebra(self):
        eps = 0.3
        delta = 1e-4
        assert systole_witness(eps / 4 - delta, eps / 4 - delta) < eps

    def test_wired_to_small_element_search(self):
        from smallsys.lorentz import find_small_element
        for eps in (0.5, 0.1, 0.02):
            l1 = float(translation_length(find_small_element(KElem(1), eps / 4, 10 ** 4)))
            l2 = float(translation_length(find_small_element(KElem(3), eps / 4, 10 ** 4)))
            assert systole_witness(l1, l2) < eps

    def test_simple(self):
        assert systole_witness(0.1, 0.2) == pytest.approx(0.6)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            systole_witness(0.0, 1.0)
