import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smallsys import polyalg
from smallsys.arith import GroupSample
from smallsys.congr import ZsqrtIdeal
from smallsys.exactfield import (
    K_ONE,
    SQRT2,
    ContextMismatchError,
    Immutable,
    KElem,
    PrecisionError,
    RealInterval,
    TowerElem,
    embed,
    escalate,
    parse_kelem,
    sqrt_k,
)
from smallsys.hypgeom import GeodesicHyperplane
from smallsys.lorentz import (ABlockElement, Isometry, QuadForm, block_g1,
                              leading_eigenvalue, param_block)


def rand_kelem(rng, bound=20):
    return KElem(Fraction(rng.randint(-bound, bound), rng.randint(1, bound)),
                 Fraction(rng.randint(-bound, bound), rng.randint(1, bound)))


class TestKElemArithmetic:
    def test_norm_identity(self):
        assert (KElem(1, 1)) * (KElem(1, -1)) == KElem(-1)

    def test_fundamental_unit(self):
        assert KElem(3, 2) * KElem(3, -2) == KElem(1)

    def test_div_sqrt2(self):
        assert KElem(1) / SQRT2 == KElem(0, Fraction(1, 2))

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            KElem(1) / KElem(0)

    def test_field_axioms_random(self):
        rng = random.Random(11)
        for _ in range(300):
            x, y, z = (rand_kelem(rng) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            if x:
                assert x * (K_ONE / x) == KElem(1)
            assert x + (-x) == KElem(0)


class TestGaloisAndNorm:
    def test_conjugate_examples(self):
        assert KElem(3, 2).conjugate() == KElem(3, -2)
        assert KElem(5).conjugate() == KElem(5)

    def test_involution_and_homomorphism(self):
        rng = random.Random(7)
        for _ in range(200):
            x, y = rand_kelem(rng), rand_kelem(rng)
            assert x.conjugate().conjugate() == x
            assert (x * y).conjugate() == x.conjugate() * y.conjugate()
            assert (x + y).conjugate() == x.conjugate() + y.conjugate()

    def test_norm_examples(self):
        assert KElem(3, 2).norm() == 1
        assert SQRT2.norm() == -2
        assert KElem(17).norm() == 289

    def test_norm_multiplicative(self):
        rng = random.Random(3)
        for _ in range(1000):
            x, y = rand_kelem(rng), rand_kelem(rng)
            assert (x * y).norm() == x.norm() * y.norm()


class TestIsSquare:
    def test_two(self):
        ok, root = KElem(2).is_square()
        assert ok and root == SQRT2

    def test_unit(self):
        ok, root = KElem(3, 2).is_square()
        assert ok and root == KElem(1, 1)

    def test_seventeen_not_square(self):
        # both p^2 candidates (17 +- 17)/2 = {17, 0} fail to be rational squares
        ok, root = KElem(17).is_square()
        assert not ok and root is None

    def test_three_not_square(self):
        # certifies a = 3 admissible as a tower parameter
        ok, _ = KElem(3).is_square()
        assert not ok

    def test_squares_roundtrip(self):
        rng = random.Random(5)
        for _ in range(1000):
            x = rand_kelem(rng, bound=12)
            ok, root = (x * x).is_square()
            assert ok
            assert root == x or root == -x

    def test_negative(self):
        ok, _ = KElem(-3, -2).is_square()
        assert not ok


def _reference_rational_sqrt(x: Fraction):
    """Exact square root of a rational, or None."""
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


def reference_is_square(x: KElem):
    """The square test on the Fraction views a, b: an independent oracle for
    KElem.is_square, which reads the integer triple."""
    a, b = x.a, x.b
    if b == 0:
        if a < 0:
            return False, None
        r = _reference_rational_sqrt(a)
        if r is not None:
            return True, KElem(r, 0)
        r = _reference_rational_sqrt(a / 2)
        if r is not None:
            return True, KElem(0, r)
        return False, None
    s = _reference_rational_sqrt(x.norm())
    if s is None:
        return False, None
    for p_sq in ((a + s) / 2, (a - s) / 2):
        p = _reference_rational_sqrt(p_sq)
        if p is not None and p != 0:
            root = KElem(p, b / (2 * p))
            if root.sign() < 0:
                root = -root
            return True, root
    return False, None


FRACTIONS = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
K_DRAWS = st.one_of(st.builds(KElem, FRACTIONS), st.builds(KElem, FRACTIONS, FRACTIONS))


@settings(max_examples=300, deadline=None)
@given(st.one_of(K_DRAWS, K_DRAWS.map(lambda r: r * r), K_DRAWS.map(lambda r: 2 * r * r)))
@example(KElem(3, -2))                  # (1 - sqrt2)^2: the root's sign is fixed
@example(KElem(Fraction(1, 2)))         # 1/2 = (sqrt2 / 2)^2
@example(KElem(Fraction(9, 4), 1))      # (1/2 + sqrt2)^2, its root from (p - m)/2d
@example(KElem(0))
@example(KElem(-3, -2))
def test_is_square_matches_the_fraction_algorithm(x):
    ok, root = x.is_square()
    want_ok, want = reference_is_square(x)
    assert ok == want_ok
    assert (root is None) == (want is None)
    if want is not None:
        assert (root.p, root.q, root.d) == (want.p, want.q, want.d)


class TestSqrtK:
    def test_square_gives_its_kelem_root(self):
        rng = random.Random(7)
        for _ in range(200):
            x = rand_kelem(rng, bound=12)
            root = sqrt_k(x * x)
            assert type(root) is KElem and root == abs(x)
        assert sqrt_k(0) == 0 and sqrt_k(2) == SQRT2

    def test_non_square_gives_the_tower_generator(self):
        for x in (KElem(3), KElem(1, 1), KElem(Fraction(5, 3))):
            root = sqrt_k(x)
            assert isinstance(root, TowerElem)
            assert (root.u, root.v, root.radicand) == (0, 1, x)
            assert root * root == x and root.sign() == 1

    @pytest.mark.parametrize("x", [-1, KElem(1, -1), Fraction(-1, 9)])
    def test_negative_raises_value_error(self, x):
        with pytest.raises(ValueError):
            sqrt_k(x)

    def test_foreign_type_raises_type_error(self):
        with pytest.raises(TypeError, match="int, Fraction or KElem"):
            sqrt_k(2.0)


class TestSign:
    def test_examples(self):
        assert KElem(3, -2).sign() == 1
        assert KElem(2, -2).sign() == -1
        assert KElem(0).sign() == 0

    def test_agrees_with_embedding(self):
        rng = random.Random(13)
        for _ in range(400):
            x = rand_kelem(rng)
            iv = x.embed(128)
            if not iv.contains_zero():
                assert x.sign() == (1 if iv.lo > 0 else -1)

    def test_ordering(self):
        assert (KElem(1, 1) - KElem(2)).sign() == 1     # 1+sqrt2 = 2.414... > 2
        assert (KElem(0, 5) - KElem(8)).sign() == -1    # 5 sqrt2 = 7.07 < 8
        assert abs(KElem(2, -2)) == KElem(-2, 2)

    def test_foreign_type_comparisons_raise_type_error(self):
        # k has no order operators, against any type: order goes through sign
        for other in (1.5, "x", None, 2, KElem(2)):
            for compare in (lambda a, b: a < b, lambda a, b: a <= b,
                            lambda a, b: a > b, lambda a, b: a >= b):
                with pytest.raises(TypeError):
                    compare(KElem(1), other)
                with pytest.raises(TypeError):
                    compare(other, KElem(1))

    def test_foreign_type_division_raises_type_error(self):
        for other in (1.5, "x", None):
            with pytest.raises(TypeError):
                other / KElem(1)


class TestEmbedAndHeight:
    def test_embed_contains_value(self):
        iv = KElem(3, 2).embed(53)
        assert Fraction(5828427, 1000000) in RealInterval(iv.lo, iv.hi, 53) or (
            iv.lo < Fraction("5.8284272") and iv.hi > Fraction("5.8284271"))
        assert float(iv) == pytest.approx(5.82842712474619, abs=1e-9)

    def test_embed_zero(self):
        iv = KElem(0).embed(64)
        assert iv.lo == 0 and iv.hi == 0

    def test_embed_sum_with_negation_contains_zero(self):
        rng = random.Random(17)
        for _ in range(100):
            x = rand_kelem(rng)
            s = x.embed(64) + (-x).embed(64)
            assert s.contains_zero()

    def test_minimum_precision(self):
        with pytest.raises(ValueError):
            KElem(1).embed(8)

    def test_width_shrinks(self):
        w64 = SQRT2.embed(64).width()
        w128 = SQRT2.embed(128).width()
        assert w128 < w64


class TestRealInterval:
    def test_sqrt_enclosure(self):
        iv = RealInterval.exact(2, 80).sqrt()
        assert iv.lo * iv.lo <= 2 <= iv.hi * iv.hi

    def test_log_enclosure(self):
        iv = RealInterval.exact(2, 64).log()
        ln2 = Fraction("0.69314718055994530941723212145817656807")
        assert iv.lo < ln2 < iv.hi

    def test_division_by_zero_interval(self):
        with pytest.raises(ZeroDivisionError):
            RealInterval.exact(1, 64) / RealInterval(-1, 1, 64)

    def test_arithmetic_encloses(self):
        rng = random.Random(23)
        for _ in range(200):
            a, b = Fraction(rng.randint(-50, 50), rng.randint(1, 9)), Fraction(rng.randint(-50, 50), rng.randint(1, 9))
            x, y = RealInterval.exact(a, 64), RealInterval.exact(b, 64)
            assert a + b in x + y
            assert a * b in x * y
            if b:
                assert a / b in x / y


class TestTower:
    def test_context_validation(self):
        # a square radicand gives its root in k, a non-square enters a tower
        with pytest.raises(ValueError):
            sqrt_k(-3)
        assert sqrt_k(2) == SQRT2
        assert sqrt_k(Fraction(9, 4)) == Fraction(3, 2)
        assert isinstance(sqrt_k(3), TowerElem)
        assert isinstance(sqrt_k(17), TowerElem)

    def test_mixing_contexts_rejected(self):
        with pytest.raises(ContextMismatchError):
            sqrt_k(3) + sqrt_k(17)

    def test_equality_across_contexts_is_false(self):
        r3, r5 = sqrt_k(3), sqrt_k(5)
        assert r3 != r5
        assert len({r3, r5, sqrt_k(3)}) == 2
        with pytest.raises(ContextMismatchError):
            r3 * r5

    def test_field_axioms(self):
        r3 = sqrt_k(3)
        rng = random.Random(29)
        for _ in range(200):
            x = rand_kelem(rng, 9) + rand_kelem(rng, 9) * r3
            y = rand_kelem(rng, 9) + rand_kelem(rng, 9) * r3
            z = rand_kelem(rng, 9) + rand_kelem(rng, 9) * r3
            assert (x + y) * z == x * z + y * z
            if x:
                assert x * (K_ONE / x) == KElem(1)

    def test_sqrt_k_squares_to_radicand(self):
        square = sqrt_k(3) * sqrt_k(3)
        assert square == KElem(3) and type(square) is KElem

    def test_sign_and_embed(self):
        r3 = sqrt_k(3)
        x = KElem(-1) + KElem(1) * r3           # sqrt3 - 1 > 0
        assert x.sign() == 1
        y = KElem(2) + KElem(-1) * r3           # 2 - sqrt3 > 0
        assert y.sign() == 1
        z = KElem(1) + KElem(-1) * r3           # 1 - sqrt3 < 0
        assert z.sign() == -1
        assert float(x.embed(64)) == pytest.approx(math.sqrt(3) - 1, abs=1e-12)

    @pytest.mark.parametrize("a", [Fraction(2, 3), Fraction(3, 7), Fraction(17, 10 ** 6)])
    def test_rational_radicand_root_is_exact(self, a):
        # the root of a is rounded once, not after a itself is rounded
        for bits in (16, 53, 64, 128):
            root = sqrt_k(a).embed(bits)
            s = math.isqrt((a.numerator << 2 * bits) // a.denominator)
            assert (root.lo, root.hi) == (Fraction(s, 1 << bits), Fraction(s + 1, 1 << bits))

    def test_root_near_one_keeps_its_bits(self):
        # lambda = alpha + sqrt(alpha^2 - 1) at t = 100000, c = 1: alpha^2 - 1
        # is about 2^-32, so rounding it to 64 bits before its root left
        # lambda's enclosure 2^-47.6 wide
        lam = leading_eigenvalue(param_block(1, 100000, 2))
        assert isinstance(lam, TowerElem)
        iv, fine = lam.embed(64), lam.embed(512)
        assert iv.width() <= Fraction(1, 2 ** 60)
        assert iv.lo <= fine.lo and fine.hi <= iv.hi

    def test_division(self):
        g = sqrt_k(3)
        assert (1 / g) * g == KElem(1)
        assert 1 / g == Fraction(1, 3) * g

    @pytest.mark.parametrize("foreign", ["x", 1.5, None])
    def test_elem_rejects_a_foreign_type(self, foreign):
        # u + v sqrt(3) is built from values of k only
        r3 = sqrt_k(3)
        with pytest.raises(TypeError):
            foreign + r3
        with pytest.raises(TypeError):
            1 + foreign * r3


def fraction_text(x: KElem) -> str:
    """KElem.to_text as written on the Fraction views a and b."""
    if not x.q:
        return str(x.a)
    return f"{x.a}{'+' if x.q > 0 else '-'}{abs(x.b)}*rt2"


def fraction_parse(text: str) -> KElem:
    """parse_kelem as a sum of Fractions, for well-formed text."""
    a = b = Fraction(0)
    for term in re.findall(r"[+-]?[^+-]+", text):
        coef, _, rad = term.partition("*")
        if coef.lstrip("+-") == "rt2":
            b += -1 if coef[0] == "-" else 1
        elif rad:
            b += Fraction(coef)
        else:
            a += Fraction(coef)
    return KElem(a, b)


class TestTextFormats:
    def test_kelem_roundtrip(self):
        rng = random.Random(31)
        for _ in range(200):
            x = rand_kelem(rng)
            assert parse_kelem(x.to_text()) == x

    def test_parse_variants(self):
        assert parse_kelem("3+2*rt2") == KElem(3, 2)
        assert parse_kelem("3-2*rt2") == KElem(3, -2)
        assert parse_kelem("-1/7+6/7*rt2") == KElem(Fraction(-1, 7), Fraction(6, 7))
        assert parse_kelem("rt2") == SQRT2
        assert parse_kelem("-rt2") == -SQRT2
        assert parse_kelem("5") == KElem(5)

    @pytest.mark.parametrize("text", [
        "3/06-2/4*rt2", "+rt2", "2*rt2+rt2", "-0", "0/5+0*rt2", "-rt2-rt2+1/3",
        "007/0014*rt2-2"])
    def test_noncanonical_text_parses_as_the_fraction_sum(self, text):
        assert parse_kelem(text) == fraction_parse(text)

    @given(st.lists(st.tuples(st.sampled_from("+-"), st.integers(0, 10 ** 40),
                              st.integers(1, 10 ** 6), st.booleans(),
                              st.sampled_from(["", "*rt2", "rt2"])), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_term_sums_parse_as_the_fraction_sum(self, terms):
        text = "".join(sign + ("rt2" if rad == "rt2" else
                               f"{n}/{'0' * pad}{d}{rad}" if d > 1 or pad else f"{n}{rad}")
                       for sign, n, d, pad, rad in terms)
        assert parse_kelem(text) == fraction_parse(text)

    @given(st.integers(-10 ** 400, 10 ** 400), st.integers(-10 ** 400, 10 ** 400),
           st.integers(1, 10 ** 400))
    @example(0, 0, 1)
    @example(0, -5, 3)
    @example(7, 0, 14)
    @example(-3, 4, 6)
    @settings(max_examples=100, deadline=None)
    def test_text_is_the_fraction_text(self, p, q, d):
        x = KElem(Fraction(p, d), Fraction(q, d))
        assert x.to_text() == fraction_text(x)
        assert parse_kelem(x.to_text()) == x

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_kelem("3+2*rt3")
        with pytest.raises(ValueError):
            parse_kelem("")
        with pytest.raises(ValueError):
            parse_kelem("1+1*rtA")


@pytest.mark.parametrize("x, triple", [
    (KElem(Fraction(2, 4), Fraction(3, 6)), (1, 1, 2)),
    (KElem(6, 4) / 2, (3, 2, 1)),
    (KElem(3, -2), (3, -2, 1)),
    (KElem(Fraction(3, 4), Fraction(-5, 6)), (9, -10, 12)),
    (KElem("3/4", "-5/6"), (9, -10, 12)),
])
def test_integer_triple_representation(x, triple):
    """One canonical triple per value; a and b stay Fraction views."""
    p, q, d = triple
    assert (x.p, x.q, x.d) == triple
    y = KElem(Fraction(p, d), Fraction(q, d))
    assert x == y and hash(x) == hash(y)
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert (x.a, x.b) == (Fraction(p, d), Fraction(q, d))


def test_embed_helper_on_rationals():
    iv = embed(Fraction(1, 3), 64)
    assert Fraction(1, 3) in iv


class TestEscalate:
    @staticmethod
    def recorder(results):
        """decide(prec) that returns results[prec] (None when absent) and
        records every precision it is called at."""
        tried = []

        def decide(prec):
            tried.append(prec)
            return results.get(prec)
        return decide, tried

    @pytest.mark.parametrize("verdict", [True, False, (1, 2)])
    def test_returns_first_decided_result(self, verdict):
        decide, tried = self.recorder({256: verdict, 512: "later"})
        assert escalate(decide, 64, "undecided") == verdict
        assert tried == [64, 128, 256]

    def test_doubles_to_4096_bits_then_raises(self):
        decide, tried = self.recorder({})
        with pytest.raises(PrecisionError, match="^still undecided$"):
            escalate(decide, 64, "still undecided")
        assert tried == [64, 128, 256, 512, 1024, 2048, 4096]

    def test_one_attempt_above_the_ceiling(self):
        decide, tried = self.recorder({8192: False})
        assert escalate(decide, 8192, "undecided") is False
        decide, tried = self.recorder({})
        with pytest.raises(PrecisionError):
            escalate(decide, 8192, "undecided")
        assert tried == [8192]

    def test_polyalg_name_is_the_same_class(self):
        assert polyalg.PrecisionError is PrecisionError


@pytest.mark.parametrize("make", [
    lambda: QuadForm(["x", 1]),
    lambda: QuadForm([1.5]),
    lambda: sqrt_k(1.5),
    lambda: ZsqrtIdeal(2.0),
    lambda: param_block(1.5, 1, 2),
    lambda: ABlockElement("x", 0, 1, 2),
], ids=["QuadForm-str", "QuadForm-float", "sqrt_k", "ZsqrtIdeal",
        "param_block", "ABlockElement"])
def test_constructors_reject_a_foreign_type(make):
    with pytest.raises(TypeError, match="int, Fraction or KElem"):
        make()


# one value of each class that rests on the one immutability guard
VALUES = {
    RealInterval: lambda: RealInterval(0, 1),
    KElem: lambda: KElem(1, 1),
    TowerElem: lambda: sqrt_k(3),
    QuadForm: lambda: QuadForm.standard(1, 2),
    Isometry: lambda: block_g1().to_isometry(),
    ABlockElement: block_g1,
    GroupSample: lambda: GroupSample([block_g1().to_isometry()], 1),
    ZsqrtIdeal: lambda: ZsqrtIdeal(2),
    GeodesicHyperplane: lambda: GeodesicHyperplane.coordinate(QuadForm.standard(1, 2)),
    polyalg.QPoly: lambda: polyalg.QPoly([1, 1]),
}


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_values_are_immutable(cls):
    x = VALUES[cls]()
    assert type(x) is cls and isinstance(x, Immutable)
    for name in (*cls.__slots__, "other"):
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            setattr(x, name, None)
