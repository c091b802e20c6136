import collections
import functools
import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from smallsys import polyalg
from smallsys.exactfield import K_ONE, SQRT2, KElem, TowerElem, embed, escalate, sqrt_k
from smallsys.polyalg import (
    PrecisionError,
    QPoly,
    ZPoly,
    enumerate_bounded,
    epsilon_gap,
    is_algebraic_integer,
    min_mahler_above_one,
    minpoly_over_Q,
    product,
)

pytestmark = pytest.mark.usefixtures("fresh_mahler_caches")

PLASTIC = 1.3247179572447460260
GOLDEN = (1 + math.sqrt(5)) / 2


def root(t, n, branch=1):
    """The root t/2 + branch sqrt(t^2/4 - n) of x^2 - t x + n, t and n in k."""
    return t / 2 + branch * sqrt_k(t * t / 4 - n)


# the two loxodromic eigenvalues of the worked instance (traces in k, norm 1)
LAM1 = root(KElem(6, 4), KElem(1))
LAM2 = root(KElem(Fraction(22, 7), Fraction(12, 7)), KElem(1))


def zprod(*polys):
    """The product of ZPolys, built by polyalg._mul."""
    return ZPoly(functools.reduce(polyalg._mul, (p.coeffs for p in polys)))


def horner(p: QPoly, x):
    """p(x) by Horner's rule, for any x that mixes with Fraction."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def sympy_value(sympy, lam):
    """lam, a KElem or a TowerElem u + v sqrt(d), as an exact sympy radical
    expression."""
    r2 = sympy.sqrt(2)

    def k(x):
        return sympy.Rational(x.a) + sympy.Rational(x.b) * r2
    if not isinstance(lam, TowerElem):
        return k(lam)
    return k(lam.u) + k(lam.v) * sympy.sqrt(k(lam.radicand))


def sympy_minpoly(sympy, val) -> QPoly:
    """Independent oracle: sympy's monic minimal polynomial of val over Q."""
    expected = sympy.minimal_polynomial(val, sympy.symbols("x"), polys=True).monic()
    return QPoly([Fraction(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs())])


class TestMinpoly:
    def test_golden_ratio(self):
        lam = root(KElem(1), KElem(-1))
        assert minpoly_over_Q(lam) == QPoly([-1, -1, 1])

    def test_degenerate_rational(self):
        lam = root(KElem(4), KElem(4))     # the number 2
        assert lam == 2
        assert minpoly_over_Q(lam) == QPoly([-2, 1])

    def test_lambda1_quartic(self):
        # eliminant res_y(x^2 - (6+4y)x + 1, y^2 - 2) expands by hand to
        # (x^2-6x+1)^2 - 32x^2 = x^4 - 12x^3 + 6x^2 - 12x + 1
        assert minpoly_over_Q(LAM1) == QPoly([1, -12, 6, -12, 1])

    def test_lambda2_quartic(self):
        assert minpoly_over_Q(LAM2) == QPoly(
            [1, Fraction(-44, 7), 6, Fraction(-44, 7), 1])

    def test_each_coefficient_is_built_once(self, monkeypatch):
        # the k/Q norm builds each coefficient as a Fraction and QPoly keeps
        # it; wrapping it again in Fraction made 10 for LAM2's 5 coefficients.
        # Over a common denominator 1 (LAM1) the coefficients stay ints,
        # which print, compare and hash as the Fractions did
        built = [0]

        class Counted(Fraction):
            def __new__(cls, *args):
                built[0] += 1
                return super().__new__(cls, *args)
        monkeypatch.setattr(polyalg, "Fraction", Counted)
        for poly, size, fractions in ((lambda: minpoly_over_Q(LAM2), 5, 5),
                                      (lambda: product(LAM1, LAM2, 64)[0], 9, 9),
                                      (lambda: minpoly_over_Q(LAM1), 5, 0)):
            built[0] = 0
            assert len(poly().coeffs) == size
            assert built[0] == fractions
        ints = minpoly_over_Q(LAM1)
        same = QPoly([Fraction(c) for c in ints.coeffs])
        assert all(type(c) is int for c in ints.coeffs)
        assert (ints == same, hash(ints) == hash(same), ints.to_text()) == \
            (True, True, same.to_text())
        assert ints.is_integral() and ints.is_monic()

    def test_matches_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(47)
        cases = []
        for _ in range(25):
            t = KElem(Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, 6)))
            n = KElem(Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, 6)))
            if (t * t - 4 * n).sign() < 0:
                continue
            branch = rng.choice([1, -1])
            cases.append(root(t, n, branch))
        # discriminants that are nonzero squares in k put lam in k
        for _ in range(10):
            s = KElem(rng.randint(0, 6), rng.randint(-4, 4)) or SQRT2
            t = KElem(rng.randint(-6, 6), rng.randint(-6, 6))
            cases.extend(root(t, (t * t - s * s) / 4, branch)
                         for branch in (1, -1))
        for lam in cases:
            assert minpoly_over_Q(lam) == sympy_minpoly(sympy, sympy_value(sympy, lam))

    def test_degenerate_kelem_degree_at_most_two(self):
        rng = random.Random(53)
        for _ in range(40):
            r = KElem(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            m = minpoly_over_Q(r)
            assert m.degree() <= 2
            assert horner(m, r) == 0

    def test_numeric_root_containment(self):
        iv = embed(LAM1, 96)
        lam1 = Fraction("11.570427015766490403162879294473207567885425")
        assert iv.lo < lam1 < iv.hi


class TestIntegrality:
    def test_lambda1_is_integral(self):
        assert is_algebraic_integer(LAM1) is True

    def test_lambda2_not_integral(self):
        assert is_algebraic_integer(LAM2) is False

    def test_golden_integral(self):
        assert is_algebraic_integer(root(KElem(1), KElem(-1))) is True

    def test_polynomial_input(self):
        # a minimal polynomial is read by QPoly itself
        assert QPoly([-1, -1, 1]).is_monic() and QPoly([-1, -1, 1]).is_integral()
        assert QPoly([Fraction(1, 7), 0, 1]).is_monic()
        assert not QPoly([Fraction(1, 7), 0, 1]).is_integral()
        assert not QPoly([1, 2]).is_monic()


class TestProduct:
    def test_degenerate_integers(self):
        two = KElem(2)
        three = KElem(3)
        m, iv = product(two, three)
        assert m == QPoly([-6, 1])
        assert Fraction(6) in iv

    def test_reciprocal_pair(self):
        # LAM1 has norm 1, so its reciprocal is the other root
        m, iv = product(LAM1, root(KElem(6, 4), KElem(1), -1))
        assert m == QPoly([-1, 1])
        assert Fraction(1) in iv

    def test_worked_instance_nonintegral_with_seven_denominator(self):
        m, iv = product(LAM1, LAM2)
        assert not m.is_integral()
        assert m.is_monic()
        dens = {c.denominator for c in m.coeffs}
        assert any(d % 7 == 0 for d in dens)
        # frozen from the sympy resultant-composition oracle
        assert m == QPoly([1, Fraction(-456, 7), Fraction(8796, 49),
                           Fraction(-120, 7), Fraction(-9370, 49),
                           Fraction(-120, 7), Fraction(8796, 49),
                           Fraction(-456, 7), 1])
        assert float(iv) == pytest.approx(62.265071972306455, abs=1e-6)

    def test_matches_sympy_oracle_on_each_branch(self):
        sympy = pytest.importorskip("sympy")
        for branch in (1, -1):
            lam = root(KElem(1, 1), KElem(-1), branch)   # disc 7 + 2 sqrt2
            cases = [(lam, root(KElem(4), KElem(2), branch), 4),   # 2 +- sqrt2
                     (KElem(-1, 2) * lam + KElem(3, -1), lam, 4),
                     (lam, LAM1, 8)]
            for x, y, degree in cases:
                m, iv = product(x, y)
                val = sympy_value(sympy, x) * sympy_value(sympy, y)
                assert m.degree() == degree
                assert m == sympy_minpoly(sympy, val)
                assert iv.lo <= Fraction(str(sympy.N(val, 30))) <= iv.hi

    def test_cross_tower_rewrite_matches_sympy(self):
        # radicands d and 4d multiply to the square (2d)^2, so mu is rewritten
        # into lam's tower with sqrt(4d) = (2d/d) sqrt(d)
        sympy = pytest.importorskip("sympy")
        for branch in (1, -1):
            lam = root(KElem(1, 1), KElem(-1), branch)
            d = lam.radicand
            for u, v in ((KElem(2, -1), KElem(1, 3)), (KElem(0), KElem(-1, 1)),
                         (KElem(Fraction(1, 3)), KElem(5))):
                mu = u + v * sqrt_k(4 * d)
                assert mu.radicand != lam.radicand
                m, iv = product(lam, mu)
                val = sympy_value(sympy, lam) * sympy_value(sympy, mu)
                assert m.degree() <= 4
                assert m == sympy_minpoly(sympy, val)
                assert iv.lo <= Fraction(str(sympy.N(val, 30))) <= iv.hi

    def test_same_tower_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        r3 = sqrt_k(3)
        cases = [(KElem(1, 1) + 2 * r3, KElem(2, -1) + KElem(1, 1) * r3),
                 (r3, r3),
                 (LAM2, LAM2.u + -LAM2.v * sqrt_k(LAM2.radicand))]
        for lam, mu in cases:
            m, iv = product(lam, mu)
            val = sympy_value(sympy, lam) * sympy_value(sympy, mu)
            assert m == sympy_minpoly(sympy, val)
            assert iv.lo <= Fraction(str(sympy.N(val, 30))) <= iv.hi

    def test_cross_tower_rewrite_decides_only_the_product(self, monkeypatch):
        # mu is carried into lam's tower as it is; only d1 d2 = (2 d1)^2 is
        # decided a square, never lam's or mu's radicand again
        lam = root(KElem(1, 1), KElem(-1))
        mu = KElem(2, -1) + KElem(1, 3) * sqrt_k(4 * lam.radicand)
        calls = []
        def counted(x, _fn=KElem.is_square):
            calls.append(x)
            return _fn(x)
        monkeypatch.setattr(KElem, "is_square", counted)
        m, _ = product(lam, mu)
        assert calls == [4 * lam.radicand * lam.radicand]
        assert m == QPoly([8689, 2326, -489, -38, 1])

    def test_interval_subset_of_input_products(self):
        rng = random.Random(59)
        for _ in range(10):
            t = KElem(rng.randint(3, 8), rng.randint(0, 3))
            lam = root(t, KElem(1))
            mu = root(KElem(rng.randint(3, 7)), KElem(1))
            _, iv = product(lam, mu)
            wide = embed(lam, 32) * embed(mu, 32)
            assert wide.lo <= iv.lo and iv.hi <= wide.hi


# ---------------------------------------------------------------------------
# minimal polynomials against sympy, on every branch of the conjugate product
# ---------------------------------------------------------------------------

def k_values(bound, rational=False):
    """Values (p + q sqrt2)/n of k with |p|, |q| <= bound and 1 <= n <= 12;
    q = 0 if rational."""
    q = st.just(0) if rational else st.integers(-bound, bound)
    return st.builds(lambda p, q, n: KElem(Fraction(p, n), Fraction(q, n)),
                     st.integers(-bound, bound), q, st.integers(1, 12))


@st.composite
def radicands(draw, rational):
    """A positive non-square of k."""
    d = abs(draw(k_values(6, rational)))
    assume(d and not d.is_square()[0])
    return d


@st.composite
def tower_values(draw, radicand=None):
    """u + v sqrt(d) with v != 0: pure (u = 0), with rational u, v and d/w^2
    for some w in k, or generic.  Without a given radicand, d = r w^2 for a
    drawn r and w; a rational u, v and r then give a rational u^2 - d v^2 in
    a tower whose radicand may be irrational."""
    shape = draw(st.sampled_from(["pure", "rational", "generic"]))
    rational = shape == "rational"
    u = KElem(0) if shape == "pure" else draw(k_values(3, rational))
    v = draw(k_values(3, rational).filter(bool))
    if radicand is not None:
        return u + v * sqrt_k(radicand)
    r = draw(radicands(rational or draw(st.booleans())))
    w = draw(k_values(2).filter(bool))
    return u + v / w * sqrt_k(r * w * w)


@st.composite
def product_pairs(draw):
    """(lam, mu) with mu in k, in lam's tower, in a tower whose radicand
    times lam's is a square in k, or in a drawn tower; or two pure roots."""
    lam = draw(tower_values())
    relation = draw(st.sampled_from(["k", "same", "square", "other", "pure"]))
    if relation == "k":
        mu = draw(k_values(3).filter(bool))
    elif relation in ("same", "square"):
        w = draw(k_values(2).filter(bool)) if relation == "square" else 1
        mu = draw(tower_values(lam.radicand * w * w))
    else:
        mu = draw(tower_values())
    if relation == "pure":
        lam, mu = lam - lam.u, mu - mu.u
    return tuple(draw(st.permutations([lam, mu])))


R3, R5 = sqrt_k(KElem(3)), sqrt_k(KElem(5))


@settings(max_examples=40, deadline=None)
@given(st.one_of(k_values(4), tower_values()))
@example(root(KElem(1), KElem(-1)))                         # x^2 - x - 1
@example(1 + K_ONE / SQRT2 * sqrt_k(KElem(6)))              # sqrt 3 in k(sqrt 6)
@example(sqrt_k(KElem(1, 1)))                               # x^4 - 2x^2 - 1
@example(LAM1)
@example(KElem(Fraction(1, 3), Fraction(2, 7)) + sqrt_k(KElem(3)))   # denominators 3, 7
def test_minpoly_is_the_conjugate_product(x):
    sympy = pytest.importorskip("sympy")
    assert minpoly_over_Q(x) == sympy_minpoly(sympy, sympy_value(sympy, x))


def test_the_norm_multiplies_ints(monkeypatch):
    # every product behind a minimal polynomial runs on integer coefficients
    seen, mul = [], polyalg._mul

    def recording(a, b):
        seen.append((tuple(a), tuple(b)))
        return mul(a, b)
    monkeypatch.setattr(polyalg, "_mul", recording)
    minpoly_over_Q(LAM2)
    product(LAM1, LAM2)
    assert seen and all(type(c) is int for a, b in seen for c in a + b)


@settings(max_examples=40, deadline=None)
@given(product_pairs())
@example((R3, R5))                                          # x^2 - 15
@example((KElem(1, 1) * R3, 2 * R5))                        # pure, irrational square
@example((R3, 1 + sqrt_k(KElem(12))))                       # radicands' product a square
@example((1 + R3, 1 + R5))                                  # rational quartic
@example((LAM1, 2 + R5))                                    # generic quartic
@example((R3, 2 + R3))
@example((KElem(1, 1), R3))
def test_product_is_the_conjugate_product(pair):
    sympy = pytest.importorskip("sympy")
    lam, mu = pair
    val = sympy_value(sympy, lam) * sympy_value(sympy, mu)
    assert product(lam, mu)[0] == sympy_minpoly(sympy, val)


def cyclotomic_products_up_to_degree(D):
    """Independent Kronecker oracle: all monic measure-1 integer polynomials
    of degree <= D as products of x and cyclotomics of degree <= 2."""
    atoms = [ZPoly([0, 1]), ZPoly([-1, 1]), ZPoly([1, 1]),
             ZPoly([1, 0, 1]), ZPoly([1, 1, 1]), ZPoly([1, -1, 1])]
    found = {(): ZPoly([1])}
    out = set()
    frontier = [ZPoly([1])]
    while frontier:
        nxt = []
        for f in frontier:
            for a in atoms:
                g = zprod(f, a)
                if g.degree() <= D and g not in out:
                    out.add(g)
                    nxt.append(g)
        frontier = nxt
    return {p for p in out if 1 <= p.degree() <= D}


class TestMahlerMeasure:
    def test_linear(self):
        assert float(polyalg._enclosure(ZPoly([-2, 1]), 1e-9)) == pytest.approx(
            2.0, abs=1e-9)

    def test_cyclotomic(self):
        assert float(polyalg._enclosure(ZPoly([1, 1, 1]), 1e-9)) == pytest.approx(
            1.0, abs=1e-9)

    def test_plastic(self):
        assert float(polyalg._enclosure(ZPoly([-1, -1, 0, 1]), 1e-7)) == pytest.approx(
            PLASTIC, abs=1e-7)

    def test_repeated_roots_exact(self):
        # (x^2+1)^2 and (x-1)^4 read above 1 in bare double precision
        for coeffs in ([1, 0, 2, 0, 1], [1, -4, 6, -4, 1]):
            assert float(polyalg._enclosure(ZPoly(coeffs), 1e-9)) == pytest.approx(
                1.0, abs=1e-9)
        assert polyalg._graeffe_walk(ZPoly([1, 0, 2, 0, 1]), ())[0]
        assert polyalg._graeffe_walk(ZPoly([1, -4, 6, -4, 1]), ())[0]
        assert not polyalg._graeffe_walk(ZPoly([-1, -1, 1]), ())[0]

    def test_invariance_mirror_and_reversal(self):
        rng = random.Random(61)
        for _ in range(40):
            half = [rng.randint(-4, 4) for _ in range(2)]
            pal = half + [rng.randint(-4, 4)] + half[::-1]   # palindromic, a0 = a4
            if pal[0] == 0 or pal[-1] == 0:
                continue
            p = ZPoly(pal)
            m = float(polyalg._enclosure(p, 1e-8))
            mirror = ZPoly([c if (p.degree() - i) % 2 == 0 else -c
                            for i, c in enumerate(p.coeffs)])
            rev = ZPoly(list(reversed(p.coeffs)))
            for q in (mirror, rev):
                assert float(polyalg._enclosure(q, 1e-8)) == pytest.approx(m, abs=1e-6)

    def test_scalar_multiple(self):
        assert float(polyalg._enclosure(ZPoly([-6, 3]), 1e-9)) == pytest.approx(
            6.0, abs=1e-8)

    @pytest.mark.parametrize("coeffs, want", [
        ([5], 5), ([0, 0, 3], 3), ([0, 0, 0, -2], 2)])
    def test_constant_times_a_power_of_x(self, coeffs, want):
        assert polyalg._enclosure(ZPoly(coeffs), 1e-10).width() == 0
        assert float(polyalg._enclosure(ZPoly(coeffs), 1e-10)) == want

    @pytest.mark.parametrize("coeffs, want", [
        ([-8, 12, -6, 1], 8.0),                       # (x - 2)^3
        ([1, 2, -1, -2, 1], GOLDEN ** 2),             # (x^2 - x - 1)^2
        ([1, 2, 1, -2, -2, 0, 1], PLASTIC ** 2),      # (x^3 - x - 1)^2
    ], ids=["cube", "golden-square", "plastic-square"])
    def test_repeated_non_cyclotomic_factors(self, coeffs, want):
        # a root iteration never converges on a repeated root; the squarefree
        # layers hand it each distinct root once per multiplicity
        assert float(polyalg._enclosure(ZPoly(coeffs), 1e-10)) == pytest.approx(
            want, abs=1e-10)

    def test_squarefree_layers(self):
        # (x - 2)^3 (x^2 - x - 1) (2x + 1)^2
        p = zprod(ZPoly([-2, 1]), ZPoly([-2, 1]), ZPoly([-2, 1]), ZPoly([-1, -1, 1]),
                  ZPoly([1, 2]), ZPoly([1, 2]))
        layers = polyalg._squarefree_layers(p.coeffs)
        assert [ZPoly(h) for h in layers] == [
            zprod(ZPoly([-2, 1]), ZPoly([-1, -1, 1]), ZPoly([1, 2])),
            zprod(ZPoly([-2, 1]), ZPoly([1, 2])), ZPoly([-2, 1])]

    # each test below patches polyalg._roots, so an enclosure that an
    # earlier test cached must not answer for it: fresh_mahler_caches
    def test_inexact_roots_raise(self, monkeypatch, fresh_mahler_caches):
        # every root off by 1e-6 at every precision: the Smith disks stay
        # about 1e-6 wide, so no precision meets the tolerance
        real = polyalg._roots

        def shifted(c, prec):
            return [(x + (1 << prec) // 10 ** 6, y) for x, y in real(c, prec)]
        monkeypatch.setattr(polyalg, "_roots", shifted)
        with pytest.raises(PrecisionError):
            polyalg._enclosure(ZPoly([-1, -1, 1]), 1e-10)

    @staticmethod
    def _failing_roots(monkeypatch, failures):
        """Make polyalg._roots return None, as when its iteration does not
        settle, on its first `failures` calls; returns the list of
        precisions it was called at."""
        real = polyalg._roots
        tried = []

        def roots(c, prec):
            tried.append(prec)
            return None if len(tried) <= failures else real(c, prec)

        monkeypatch.setattr(polyalg, "_roots", roots)
        return tried

    def test_failed_root_solve_escalates_precision(self, monkeypatch,
                                                   fresh_mahler_caches):
        tried = self._failing_roots(monkeypatch, 1)
        assert float(polyalg._enclosure(ZPoly([-1, -1, 1]), 1e-10)) == pytest.approx(
            GOLDEN, abs=1e-10)
        assert tried == [64, 128]

    def test_root_solve_that_never_converges_raises(self, monkeypatch,
                                                    fresh_mahler_caches):
        tried = self._failing_roots(monkeypatch, float("inf"))
        with pytest.raises(PrecisionError):
            polyalg._enclosure(ZPoly([-1, -1, 1]), 1e-10)
        assert tried == [64, 128, 256, 512, 1024, 2048, 4096]


class TestEnumeration:
    def test_degree_one_small(self):
        polys = enumerate_bounded(1, 1.5)
        assert set(polys) == {ZPoly([0, 1]), ZPoly([-1, 1]), ZPoly([1, 1])}

    def test_degree_one_mu_two(self):
        polys = set(enumerate_bounded(1, 2.0))
        assert ZPoly([-2, 1]) in polys and ZPoly([2, 1]) in polys

    def test_kronecker_at_mu_one(self):
        got = set(enumerate_bounded(2, 1.0))
        assert got == cyclotomic_products_up_to_degree(2)

    def test_near_tie_is_decided_exactly(self):
        # M(x^3 - x - 1) = 1.32471795724475..., 1e-11 from either cap
        plastic = ZPoly([-1, -1, 0, 1])
        assert plastic in enumerate_bounded(3, 1.3247179572547)
        assert plastic not in enumerate_bounded(3, 1.3247179572347)

    def test_integer_cap_equal_to_an_irrational_measure_raises(self):
        # x^2 - x + 2 has complex roots of modulus sqrt 2, so measure exactly
        # 2; no enclosure of it ever lies on one side of the cap 2
        with pytest.raises(PrecisionError):
            enumerate_bounded(2, 2.0)

    def test_closed_under_mirror(self):
        for p in enumerate_bounded(3, 1.4):
            mirror = ZPoly([c if (p.degree() - i) % 2 == 0 else -c
                            for i, c in enumerate(p.coeffs)])
            assert mirror in set(enumerate_bounded(3, 1.4))

    def test_matches_root_finding_oracle(self):
        # independent oracle: sympy's squarefree factorization, then mpmath
        # roots of each factor at 256 bits (repeated roots do not converge)
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")

        def measure(coeffs):
            _, factors = sympy.sqf_list(sympy.Poly(coeffs[::-1], x))
            m = mpmath.mpf(1)
            with mpmath.workprec(256):
                for f, mult in factors:
                    roots = mpmath.polyroots([int(c) for c in f.all_coeffs()],
                                             maxsteps=200, extraprec=256)
                    m *= mpmath.fprod(max(1, abs(r)) for r in roots) ** mult
            return m

        for mu in (1.4, 1.7):
            box = [list(tail) + [1] for d in range(1, 4) for tail in itertools.product(
                *(range(-b, b + 1) for b in
                  (math.floor(math.comb(d, d - j) * mu + 1e-12) for j in range(d))))]
            expected = {ZPoly(c) for c in box if measure(c) <= mu}
            assert set(enumerate_bounded(3, mu)) == expected
            assert ZPoly([1, -2, 1]) in expected and ZPoly([1, 3, 3, 1]) in expected
            got = set(enumerate_bounded(4, mu))
            for c in ([1, 0, 2, 0, 1], [1, -4, 6, -4, 1], [-1, -1, 0, 0, 1]):
                assert (ZPoly(c) in got) == (measure(c) <= mu)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            enumerate_bounded(0, 1.5)
        with pytest.raises(ValueError):
            enumerate_bounded(2, 0.5)


class TestMinMahler:
    def test_degree_one(self):
        value, witness = min_mahler_above_one(1)
        assert value == pytest.approx(2.0, abs=1e-9)
        assert witness == ZPoly([-2, 1])

    def test_degree_two_golden(self):
        value, witness = min_mahler_above_one(2)
        assert value == pytest.approx(GOLDEN, abs=1e-5)
        assert witness == ZPoly([-1, -1, 1])

    def test_degree_four_plastic(self):
        value, witness = min_mahler_above_one(4)
        assert value == pytest.approx(PLASTIC, abs=1e-5)
        assert witness == ZPoly([-1, -1, 0, 1])

    def test_non_increasing_in_degree(self):
        vals = [min_mahler_above_one(D)[0] for D in (1, 2, 3, 4)]
        assert all(vals[i + 1] <= vals[i] + 1e-8 for i in range(len(vals) - 1))

    def test_degree_ten_lehmer(self):
        value, witness = min_mahler_above_one(10)
        assert value == pytest.approx(1.1762808182599176, abs=1e-10)
        assert witness == ZPoly([1, -1, 0, 1, -1, 1, -1, 1, 0, -1, 1])

    def test_epsilon_gap(self):
        assert epsilon_gap(4) == pytest.approx(math.log(PLASTIC), abs=1e-5)


def reference_measure_one(p):
    """Kronecker's test as its own walk, the reference for the Graeffe walk:
    measure 1 iff the iterates stay within the binomial bounds and repeat."""
    _, q = p.shift_out_zero_roots()
    d, coeffs = q.degree(), q.coeffs
    if d == 0:
        return True
    bounds = [math.comb(d, j) for j in range(d + 1)]
    seen = set()
    while True:
        if any(abs(c) > b for c, b in zip(coeffs, bounds)):
            return False
        if coeffs in seen:
            return True
        seen.add(coeffs)
        coeffs = polyalg._graeffe(coeffs)


def reference_graeffe_verdict(p, powers):
    """Whether M(p) <= mu from the first len(powers) iterates by the
    binomial lower bound and Landau's upper bound, or None when open, as its
    own walk: the reference for the Graeffe walk."""
    _, q = p.shift_out_zero_roots()
    d, coeffs = q.degree(), q.coeffs
    binoms = [math.comb(d, j) for j in range(d + 1)]
    for num, den in powers:
        if any(abs(c) * den > b * num for c, b in zip(coeffs, binoms)):
            return False
        if sum(c * c for c in coeffs) * den * den <= num * num:
            return True
        coeffs = polyalg._graeffe(coeffs)
    return None


def graeffe_powers(mu):
    m = Fraction(mu)
    return [(m.numerator ** (1 << k), m.denominator ** (1 << k))
            for k in range(polyalg.GRAEFFE_STEPS + 1)]


def box(D, mu):
    """Every monic polynomial with |a_{d-i}| <= binom(d, i) mu, d = 1..D."""
    for d in range(1, D + 1):
        ranges = []
        for j in range(d):
            bound = math.floor(math.comb(d, d - j) * mu + 1e-12)
            ranges.append(range(-bound, bound + 1))
        for tail in itertools.product(*ranges):
            yield ZPoly(list(tail) + [1])


# the oracles' float margin: box_verdicts checks that no measure it compares
# lies this close to mu, and box_min_mahler counts measures this close as ties
ORACLE_SLACK = 1e-9


@functools.lru_cache(maxsize=None)
def box_verdicts(D, mu):
    """The binomial-box walk that power-sum pruning replaced, kept as its
    oracle: every box polynomial goes through the reference verdict chain
    (Kronecker test, Graeffe and Landau bounds, then the measure to 1e-12,
    which must lie more than ORACLE_SLACK from mu); mirrors close the map."""
    powers = graeffe_powers(mu)
    out = {}
    for poly in box(D, mu):
        one = reference_measure_one(poly)
        verdict = one or reference_graeffe_verdict(poly, powers)
        if verdict is None:
            measure = float(polyalg._enclosure(poly, 1e-12))
            assert abs(measure - mu) > ORACLE_SLACK, poly
            verdict = measure <= mu
        if verdict:
            out[poly] = one
    out |= {polyalg._mirror(p): one for p, one in out.items()}
    return out


def box_min_mahler(D):
    """min_mahler_above_one over box_verdicts: every non-one polynomial is
    measured, and the least (degree, coefficients) within ORACLE_SLACK of the
    least measure wins.  The first cap is 1.3248 rather than 1.4: from D = 3
    on the plastic number 1.32472 lies below it, so the result is the same
    and the D = 5 box stays small."""
    for cap in (1.3248, 1.7, 2.0001):
        measured = [(float(polyalg._enclosure(poly, 1e-10)), poly)
                    for poly, one in box_verdicts(D, cap).items() if not one]
        if measured:
            best = min(m for m, _ in measured)
            return best, min(p for m, p in measured if m <= best + ORACLE_SLACK)
    raise AssertionError("x - 2 has measure 2")


MUS = (1.0, 1.3248, 1.4, 1.7, 2.0001)


class TestPowerSumEnumeration:
    # the box at D = 5 costs 3.5 s at mu = 1.0 and 8 s at 1.3248, and 12 to
    # 85 s at the larger mu, which were compared once, outside this suite
    @pytest.mark.parametrize("D, mu", [(D, mu) for D in (1, 2, 3, 4) for mu in MUS]
                             + [(5, 1.0), (5, 1.3248)])
    def test_verdicts_match_box(self, D, mu):
        assert enumerate_bounded(D, mu) == sorted(box_verdicts(D, mu))

    @pytest.mark.parametrize("mu", MUS)
    def test_graeffe_walk_matches_reference(self, mu):
        # one walk gives both verdicts the two separate walks gave
        powers = graeffe_powers(mu)
        for poly in box(4, mu):
            one = reference_measure_one(poly)
            want = (one, one or reference_graeffe_verdict(poly, powers))
            assert polyalg._graeffe_walk(poly, powers) == want, poly
            assert polyalg._graeffe_walk(poly, ())[0] == one

    @pytest.mark.parametrize("D", [1, 2, 3, 4, 5])
    def test_min_mahler_matches_box(self, D):
        value, witness = min_mahler_above_one(D)
        want_value, want_witness = box_min_mahler(D)
        assert witness == want_witness
        # each side is certified to 1e-10; the class representative measured
        # here may differ from the box's least float in the last bit
        assert value == pytest.approx(want_value, abs=2e-10)

    def test_far_fewer_candidates_than_box(self):
        m = Fraction(1.4)
        walked = sum(len(list(polyalg._candidates(d, m.numerator, m.denominator)))
                     for d in range(1, 5))
        box = sum(math.prod(2 * math.floor(math.comb(d, j) * 1.4 + 1e-12) + 1
                            for j in range(1, d + 1)) for d in range(1, 5))
        assert box == 6432
        assert walked <= 100

    def test_candidates_are_mirror_representatives(self):
        m = Fraction(1.7)
        for d in range(1, 6):
            cands = list(polyalg._candidates(d, m.numerator, m.denominator))
            assert len(set(cands)) == len(cands)
            assert all(p.coeffs[0] != 0 and p.degree() == d and p.is_monic()
                       for p in cands)
            assert all(polyalg._mirror(p) == p or polyalg._mirror(p) not in cands
                       for p in cands)

    @pytest.mark.parametrize("m, mu", [(m, mu) for m in (1, 2, 3) for mu in MUS
                                       if mu >= 1.3248])
    def test_reciprocal_walk_is_the_palindromic_part(self, m, mu):
        f = Fraction(mu)
        walked = list(polyalg._candidates(2 * m, f.numerator, f.denominator, True))
        want = [p for p in polyalg._candidates(2 * m, f.numerator, f.denominator)
                if p.coeffs == p.coeffs[::-1]]          # monic, so p(0) = 1
        assert walked == want
        assert walked

    # the general walk does not rest on Smyth's theorem; at D = 6 and 7 it
    # finds x^3 - x - 1, which the palindromic walk never visits
    @pytest.mark.parametrize("D", [6, 7])
    def test_min_mahler_matches_the_general_walk(self, D):
        best = None
        for d in range(1, D + 1):
            for poly, one, _ in polyalg._accepted(d, Fraction(13248, 10000)):
                if one:
                    continue
                key = polyalg._class_key(poly)
                if best is None or not polyalg._at_most(best, key):
                    best = key
        want = float(polyalg._enclosure(best, Fraction(1, 1 << 34))), best
        assert min_mahler_above_one(D) == want

    # D = 6 accepts no candidate above measure one below theta_0
    @pytest.mark.parametrize("D", [8, 10])
    def test_class_key_once_per_accepted_polynomial(self, monkeypatch, D):
        real_key, real_accepted = polyalg._class_key, polyalg._accepted
        keyed, accepted = collections.Counter(), []

        def counted_key(p):
            keyed[p] += 1
            return real_key(p)

        def recorded(*args):
            for poly, one, key in real_accepted(*args):
                if not one:
                    accepted.append(poly)
                yield poly, one, key
        monkeypatch.setattr(polyalg, "_class_key", counted_key)
        monkeypatch.setattr(polyalg, "_accepted", recorded)
        min_mahler_above_one(D)
        assert accepted and all(keyed[p] == 1 for p in accepted)
        assert set(keyed.values()) == {1}

    def test_class_key_only_where_it_is_read(self, monkeypatch):
        # enumerate_bounded reads no key: of the ten candidates above measure
        # one that the walk accepts or leaves open at (4, 1.4), only the two
        # left open are keyed, for _at_most
        real_key, keyed = polyalg._class_key, []

        def counted_key(p):
            keyed.append(p)
            return real_key(p)
        monkeypatch.setattr(polyalg, "_class_key", counted_key)
        enumerate_bounded(4, 1.4)
        assert len(keyed) == 2
        keyed.clear()
        assert min_mahler_above_one(8)[1] == ZPoly([1, 0, 0, -1, -1, -1, 0, 0, 1])
        assert len(keyed) == 4

    def test_measure_once_per_class(self, monkeypatch):
        self.check_measure_once(monkeypatch, 4, 1)

    # below theta_0 the palindromic walk measures nothing at D = 6
    @pytest.mark.parametrize("D, solves", [(6, 1), (8, 5)])
    def test_measure_once_per_class_at_degree(self, monkeypatch, D, solves):
        self.check_measure_once(monkeypatch, D, solves)

    @staticmethod
    def check_measure_once(monkeypatch, D, solves):
        real_roots, real_enclosure = polyalg._roots, polyalg._enclosure
        roots, measured = [], set()

        def counted_roots(c, prec):
            roots.append(c)
            return real_roots(c, prec)

        def recorded(p, tol):
            measured.add(p)
            return real_enclosure(p, tol)
        monkeypatch.setattr(polyalg, "_roots", counted_roots)
        monkeypatch.setattr(polyalg, "_enclosure", recorded)
        witness = ZPoly([-1, -1, 0, 1]) if D < 8 else ZPoly([1, 0, 0, -1, -1, -1, 0, 0, 1])
        value, got = min_mahler_above_one(D)
        assert got == witness
        assert len(roots) == solves
        if D == 4:
            assert measured == {ZPoly([-1, -1, 0, 1])}
        for p in measured:      # each measured polynomial is its own class key
            assert polyalg._class_key(p) == p
        # epsilon_gap and a second call walk and measure nothing again; the
        # general and the palindromic walk are both _candidates
        monkeypatch.setattr(polyalg, "_candidates", None)
        assert epsilon_gap(D) == math.log(value)
        assert min_mahler_above_one(D) == (value, witness)


def sympy_measure(sympy, poly):
    """M(poly) from sympy's numerical roots of its squarefree factors."""
    x = sympy.symbols("x")
    _, factors = sympy.sqf_list(poly.as_expr(), x)
    value = mpmath.mpf(1)
    for f, mult in factors:
        roots = sympy.Poly(f, x).nroots(n=30)
        value *= mpmath.fprod(max(1, abs(complex(r))) for r in roots) ** mult
    return value


@st.composite
def measure_products(draw):
    """x^j times cyclotomic polynomials times at most one of x^3 - x - 1 and
    x^2 - x - 1, of degree 1..6, as a sympy polynomial."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    atoms = [x] + [sympy.cyclotomic_poly(n, x) for n in
                   (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 18)]
    extra = draw(st.sampled_from([None, x ** 3 - x - 1, x ** 2 - x - 1]))
    poly = sympy.Poly(extra if extra is not None else 1, x)
    for atom in draw(st.lists(st.sampled_from(atoms), max_size=6)):
        if poly.degree() + sympy.degree(atom, x) <= 6:
            poly *= sympy.Poly(atom, x)
    if poly.degree() < 1:
        poly *= sympy.Poly(x - 1, x)
    return poly


@functools.lru_cache(maxsize=None)
def enumerated(D, mu):
    return frozenset(enumerate_bounded(D, mu))


@settings(max_examples=60, deadline=None)
@given(measure_products(), st.sampled_from(MUS[:4]))
def test_pruning_keeps_every_product_below_mu(poly, mu):
    sympy = pytest.importorskip("sympy")
    measure = sympy_measure(sympy, poly)
    zpoly = ZPoly([int(c) for c in reversed(poly.all_coeffs())])
    listed = zpoly in enumerated(poly.degree(), mu)
    if measure <= mu:
        assert listed
    elif measure > mu + ORACLE_SLACK:   # sympy's measure one may read above 1.0
        assert not listed


def zpoly_of(sympy_poly):
    return ZPoly([int(c) for c in reversed(sympy_poly.all_coeffs())])


@settings(max_examples=60, deadline=None)
@given(measure_products())
def test_core_strips_exactly_the_cyclotomic_factors(poly):
    sympy = pytest.importorskip("sympy")
    _, factors = poly.factor_list()
    want = sympy.Poly(1, poly.gen)
    for f, mult in factors:
        if not f.is_cyclotomic:
            want *= f ** mult
    p = zpoly_of(poly)
    core = polyalg._core(p)
    assert core == zpoly_of(want * sympy.sign(want.LC()))
    key = polyalg._class_key(p)
    assert key == polyalg._class_key(core)
    assert float(polyalg._enclosure(key, Fraction(1, 1 << 34))) == pytest.approx(
        float(sympy_measure(sympy, poly)), abs=1e-9)


def power_of_x(g, k):
    """g(x^k)."""
    return ZPoly([v for c in g.coeffs for v in [c] + [0] * (k - 1)])


@settings(max_examples=40, deadline=None)
@given(measure_products().map(zpoly_of), st.sampled_from([2, 3]))
@example(ZPoly([-1, 1]), 2)             # x - 1: the core is the constant 1
@example(ZPoly([-1, -1, 0, 1]), 2)      # x^6 - x^2 - 1, the exact tie up to D = 8
def test_class_key_is_closed_under_powers_of_x(g, k):
    # M(g(x^k)) = M(g), so both share one key and tie exactly
    assert polyalg._class_key(power_of_x(g, k)) == polyalg._class_key(g)


@st.composite
def integer_polys(draw):
    """c x^j times up to three integer factors of degree 1..3, each to the
    power 1..3, of degree 1..9: repeated non-cyclotomic factors and x^j
    multiples included."""
    p = ZPoly([0] * draw(st.integers(0, 2)) + [draw(st.sampled_from([-2, -1, 1, 3]))])
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 3))
        f = ZPoly(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
                  + [draw(st.sampled_from([-2, -1, 1, 2]))])
        for _ in range(draw(st.integers(1, 3))):
            if p.degree() + d <= 9:
                p = zprod(p, f)
    assume(p.degree() >= 1)
    return p


def sympy_measure_256(sympy, p):
    """M(p) at 256 bits from sympy: its squarefree factors, and their roots
    by nroots to 77 digits."""
    coeff, factors = sympy.Poly(p.coeffs[::-1], sympy.symbols("x")).sqf_list()
    with mpmath.workprec(256):
        value = mpmath.mpf(abs(int(coeff)))
        for f, mult in factors:
            value *= abs(int(f.LC())) ** mult
            for r in f.nroots(n=77, maxsteps=200):
                value *= max(1, mpmath.mpf(str(abs(r).evalf(80)))) ** mult
    return value


@settings(max_examples=60, deadline=None)
@given(integer_polys())
@example(ZPoly([-8, 12, -6, 1]))                          # (x - 2)^3
@example(ZPoly([0, 0, 1, 2, 1, -2, -2, 0, 1]))            # x^2 (x^3 - x - 1)^2
@example(zprod(ZPoly([1, 2, -1, -2, 1]), ZPoly([-1, 2])))  # (x^2 - x - 1)^2 (2x - 1)
def test_enclosure_contains_the_measure(p):
    sympy = pytest.importorskip("sympy")
    iv = polyalg._enclosure(p, 1e-10)
    assert iv.width() < 1e-10
    man, exp = sympy_measure_256(sympy, p).man_exp
    assert Fraction(man) * Fraction(2) ** exp in iv


LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)


def mpmath_measure(c):
    """|lc| prod max(1, |root|) of c (constant first) from mpmath's roots at
    256 bits."""
    with mpmath.workprec(256):
        roots = mpmath.polyroots(c[::-1], maxsteps=2000, extraprec=256)
        return abs(c[-1]) * mpmath.fprod(max(1, abs(r)) for r in roots)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12).flatmap(lambda d: st.tuples(
    st.integers(-5, 5).filter(bool), st.lists(st.integers(-5, 5), min_size=d - 1,
                                              max_size=d - 1),
    st.integers(-3, 3).filter(bool))))
@example((1, list(LEHMER[1:-1]), 1))
def test_roots_and_smith_disks_enclose_the_measure(parts):
    c = (parts[0], *parts[1], parts[2])
    assume(polyalg._squarefree_layers(c) == [c])
    iv = escalate(lambda prec: polyalg._smith_measure(c, prec), 64, "no isolation")
    man, exp = mpmath_measure(c).man_exp
    value = Fraction(man) * Fraction(2) ** exp
    slack = value / 2 ** 240
    assert iv.lo - slack <= value <= iv.hi + slack


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for n in range(1, 61):
        want = zpoly_of(sympy.Poly(sympy.cyclotomic_poly(n, x), x))
        assert polyalg._cyclotomic(n) == want.coeffs, n


def test_cyclotomics_build_only_the_usable_degrees():
    # from empty caches, no Phi_n of degree above d is built; then each tuple
    # equals the unfiltered list of every n <= 2 d^2, cut to degree <= d
    kept = polyalg._cyclotomics(16)
    assert polyalg._cyclotomic.cache_info().currsize == len(kept)
    for d in range(1, 17):
        want = tuple(c for c in map(polyalg._cyclotomic, range(1, 2 * d * d + 1))
                     if len(c) <= d + 1)
        assert polyalg._cyclotomics(d) == want, d


class TestPolyBasics:
    def test_divide_exact(self):
        assert polyalg._divide_exact((-1, 0, 1), (-1, 1)) == (1, 1)
        assert polyalg._divide_exact((-2, 2, 4), (-1, 2)) == (2, 2)
        assert polyalg._divide_exact((-1, 0, 1), (-2, 1)) is None   # remainder 3
        assert polyalg._divide_exact((1, 0, 1), (1, 2)) is None     # not over Z

    def test_gcd_is_primitive(self):
        # gcd((x - 1)^2 (x + 2), 6 (x - 1)(x + 3)) = x - 1
        a = zprod(ZPoly([-1, 1]), ZPoly([-1, 1]), ZPoly([2, 1]))
        b = zprod(ZPoly([-6, 6]), ZPoly([3, 1]))
        assert polyalg._gcd(a.coeffs, b.coeffs) == (-1, 1)
        assert polyalg._gcd(b.coeffs, (4,)) == (1,)

    @pytest.mark.parametrize("coeffs", [[Fraction(1, 2), 1], [2.7, 1], [1, 0.5]])
    def test_zpoly_rejects_non_integers(self, coeffs):
        with pytest.raises(TypeError):
            ZPoly(coeffs)

    def test_zpoly_accepts_integral_values(self):
        assert ZPoly([Fraction(4, 2), 2.0, 1]).coeffs == (2, 2, 1)

    def test_negative_discriminant_has_no_real_root(self):
        with pytest.raises(ValueError):
            root(KElem(0), KElem(1))   # x^2 + 1 has no real root

    def test_products_keep_their_class(self):
        # the polynomials carry no arithmetic; their product is _mul on the
        # coefficients, which keeps ints ints (a ZPoly) and Fractions a QPoly
        c = polyalg._mul(ZPoly([-1, 1]).coeffs, ZPoly([1, 1]).coeffs)
        assert all(type(v) is int for v in c) and ZPoly(c).coeffs == (-1, 0, 1)
        q = polyalg._mul(QPoly([1, 2]).coeffs, (Fraction(1, 3),))
        assert QPoly(q) == QPoly([Fraction(1, 3), Fraction(2, 3)])
        assert ZPoly(polyalg._mul(ZPoly([0]).coeffs, ZPoly([3, 1]).coeffs)) == ZPoly([0])

    def test_zpoly_is_the_integer_qpoly(self):
        assert isinstance(ZPoly([1, 1]), QPoly)
        assert ZPoly([1, 1]) != QPoly([1, 1])
        assert QPoly([1]) != ZPoly([1])
        assert ZPoly([1, 1]).coeffs == QPoly([1, 1]).coeffs

    @pytest.mark.parametrize("cls", [QPoly, ZPoly])
    def test_repr_and_immutability_name_the_class(self, cls):
        p = cls([2, 1])
        assert repr(p) == f"{cls.__name__}({list(p.coeffs)!r})"
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            p.coeffs = (1,)


def convolution(a, b):
    """The product of coefficient lists a and b, term by term."""
    return [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
            for k in range(len(a) + len(b) - 1)]


coefficients = st.one_of(st.integers(-9, 9),
                         st.fractions(min_value=-9, max_value=9, max_denominator=5))


@settings(max_examples=200, deadline=None)
@given(st.lists(coefficients, min_size=1, max_size=7),
       st.lists(coefficients, min_size=1, max_size=7))
@example([0], [3, 1])                   # zero times a polynomial
@example([5], [0, 0, 2])                # a constant times 2x^2
@example([0, 0, 1], [0])                # a polynomial times zero
def test_mul_is_the_convolution(a, b):
    assert polyalg._mul(tuple(a), tuple(b)) == convolution(a, b)
    # the product, stripped, is the zero polynomial exactly when a factor is
    assert QPoly(polyalg._mul(tuple(a), tuple(b))).is_zero() == (not any(a) or not any(b))


def inline_graeffe(c):
    """_graeffe as it was before it shared _mul, kept as its oracle."""
    d = len(c) - 1
    neg = [-v if i % 2 else v for i, v in enumerate(c)]
    prod = [0] * (2 * d + 1)
    for i, a in enumerate(c):
        for j, b in enumerate(neg):
            prod[i + j] += a * b
    return tuple(-v for v in prod[::2]) if d % 2 else tuple(prod[::2])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=0, max_size=9))
@example([])                            # the constant 1
@example([-1, -1, 0])                   # x^3 - x - 1, odd degree
@example([1, 0, 0, 0])                  # x^4 + 1, even degree
def test_graeffe_matches_the_inline_formula(tail):
    c = tuple(tail) + (1,)
    assert polyalg._graeffe(c) == inline_graeffe(c)
