import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallsys.congr import ZsqrtIdeal, in_principal_congruence, is_integral_matrix
from smallsys.exactfield import KElem, SQRT2
from smallsys.lorentz import Isometry, QuadForm, block_g1, block_g2

F1 = QuadForm.standard(1, 2)
G1 = block_g1().to_isometry()
G2 = block_g2().to_isometry()

RT2 = ZsqrtIdeal(SQRT2)
TWO = ZsqrtIdeal(KElem(2))
SEVEN = ZsqrtIdeal(KElem(7))


class TestDivides:
    def test_rt2_divides(self):
        assert RT2.divides(KElem(2, 2))

    def test_rt2_does_not_divide_odd_part(self):
        assert not RT2.divides(KElem(3, 2))

    def test_rational_seven(self):
        assert SEVEN.divides(KElem(7, 14))

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError):
            RT2.divides(KElem(Fraction(1, 2)))

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            ZsqrtIdeal(KElem(0))
        with pytest.raises(ValueError):
            ZsqrtIdeal(KElem(Fraction(3, 2)))

    def test_transitivity(self):
        rng = random.Random(127)
        for _ in range(200):
            rho = KElem(rng.randint(-5, 5), rng.randint(-5, 5))
            if not rho:
                continue
            mult1 = KElem(rng.randint(-4, 4), rng.randint(-4, 4))
            mult2 = KElem(rng.randint(-4, 4), rng.randint(-4, 4))
            pi = rho * mult1
            x = pi * mult2
            if not pi:
                continue
            assert ZsqrtIdeal(rho).divides(pi)
            assert ZsqrtIdeal(pi).divides(x)
            assert ZsqrtIdeal(rho).divides(x)

    def test_parse_level_syntax(self):
        assert ZsqrtIdeal.parse("0+1*rt2") == RT2
        assert ZsqrtIdeal.parse("2") == TWO


class TestIntegralMatrix:
    def test_g1_integral(self):
        assert is_integral_matrix(G1)

    def test_g2_not_integral(self):
        assert not is_integral_matrix(G2)

    def test_identity(self):
        assert is_integral_matrix(Isometry.identity(F1))

    def test_tower_entries_rejected(self):
        from smallsys.arith import conjugate_between_forms
        h = conjugate_between_forms(block_g2().to_isometry(), 3)
        with pytest.raises(ValueError):
            is_integral_matrix(h)


def random_congruence_element(rng, exponent_range=3):
    """A word in conjugates of g1 by signed spatial permutations; stays in
    the congruence subgroup of level (sqrt 2) by normality."""
    perms = []
    for mat in (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
        ((-1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, -1, 0), (0, 0, 1)),
        ((0, -1, 0), (1, 0, 0), (0, 0, 1)),
    ):
        perms.append(Isometry(tuple(tuple(KElem(v) for v in row) for row in mat), F1))
    out = Isometry.identity(F1)
    for _ in range(rng.randint(1, 2)):
        h = rng.choice(perms)
        e = rng.choice([-1, 1])
        core = G1 if e > 0 else G1.inverse()
        out = out * (h * core * h.inverse())
    return out


class TestPrincipalCongruence:
    def test_g1_in_level_rt2(self):
        assert in_principal_congruence(G1, RT2)

    def test_g1_in_level_two(self):
        assert in_principal_congruence(G1, TWO)

    def test_g1_not_in_level_seven(self):
        assert not in_principal_congruence(G1, SEVEN)

    def test_identity_in_everything(self):
        ident = Isometry.identity(F1)
        for level in (RT2, TWO, SEVEN):
            assert in_principal_congruence(ident, level)

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError):
            in_principal_congruence(G2, RT2)

    def test_closed_under_products(self):
        rng = random.Random(131)
        for _ in range(50):
            m = random_congruence_element(rng)
            n = random_congruence_element(rng)
            assert in_principal_congruence(m, RT2)
            assert in_principal_congruence(n, RT2)
            assert in_principal_congruence(m * n, RT2)

    def test_closed_under_inverse(self):
        rng = random.Random(137)
        for _ in range(25):
            m = random_congruence_element(rng)
            assert in_principal_congruence(m, RT2)
            assert in_principal_congruence(m.inverse(), RT2)


def entrywise_congruence(m, ideal):
    """The entrywise loop that in_principal_congruence replaced, kept as its
    oracle: ideal.divides on each entry of M - Id."""
    if not is_integral_matrix(m):
        raise ValueError("matrix is not integral")
    return all(ideal.divides(e - KElem(1) if i == j else e)
               for i, row in enumerate(m.entries) for j, e in enumerate(row))


SIGNED_PERMUTATIONS = [
    Isometry(tuple(tuple(KElem(v) for v in row) for row in mat), F1)
    for mat in (((0, 1, 0), (1, 0, 0), (0, 0, 1)),
                ((-1, 0, 0), (0, 1, 0), (0, 0, 1)),
                ((1, 0, 0), (0, -1, 0), (0, 0, -1)),
                ((0, -1, 0), (1, 0, 0), (0, 0, 1)))]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([G1, G1.inverse()] + SIGNED_PERMUTATIONS),
                min_size=1, max_size=6),
       st.sampled_from([RT2, TWO, SEVEN]))
def test_congruence_matches_the_entrywise_divides_loop(factors, level):
    m = factors[0]
    for f in factors[1:]:
        m = m * f
    assert in_principal_congruence(m, level) == entrywise_congruence(m, level)
