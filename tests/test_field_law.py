"""Property tests for exact arithmetic in k = Q(sqrt 2) and its towers.

`KElem` stores (p + q sqrt2)/d with d > 0 and gcd(p, q, d) = 1.  These
properties draw elements with integer and rational coordinates and check,
with sympy's radicals as the oracle, that the ring and field operations of
k and of k(sqrt 3), k(sqrt 17) give the exact value, also with one operand a
scalar from k, which acts as its image in the tower; that every result is
in canonical form, so equal values reached along different paths compare
and hash alike; that every value of a tower has one form, a `KElem` when
its sqrt(d) part is zero, so equal values hash alike across int, Fraction,
`KElem` and `TowerElem`; that `sign` agrees with the certified 128-bit
embedding; and that `parse_kelem` inverts `to_text`.
"""

import math
import operator
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smallsys.exactfield import (K_ONE, K_ZERO, ContextMismatchError, KElem, TowerElem,
                                 _tower, parse_kelem, sqrt_k)

SETTINGS = settings(max_examples=60, deadline=None)
ROOTS = {a: sqrt_k(a) for a in (3, 17)}

coords = st.one_of(
    st.integers(-60, 60),
    st.fractions(min_value=-10 ** 4, max_value=10 ** 4, max_denominator=10 ** 4))
kelems = st.builds(KElem, coords, coords)
scalars = st.one_of(coords, kelems)     # scalars from k: int, Fraction or KElem


@st.composite
def towers(draw, count):
    """(sqrt d, elements u + v sqrt d): a drawn v = 0 gives the KElem u, which
    lies in every tower."""
    root = ROOTS[draw(st.sampled_from(sorted(ROOTS)))]
    return root, [draw(kelems) + draw(kelems) * root for _ in range(count)]


def sym(x):
    """The exact value of a KElem, TowerElem or rational as a sympy radical
    expression."""
    if isinstance(x, (int, Fraction)):
        return sympy.Rational(x.numerator, x.denominator)
    if isinstance(x, KElem):
        return sympy.Rational(x.p, x.d) + sympy.Rational(x.q, x.d) * sympy.sqrt(2)
    return sym(x.u) + sym(x.v) * sympy.sqrt(sym(x.radicand))


def same(lhs, rhs):
    return sympy.expand(lhs - rhs) == 0


def assert_canonical(x: KElem):
    assert type(x.p) is int and type(x.q) is int and type(x.d) is int
    assert x.d > 0
    assert math.gcd(x.p, x.q, x.d) == 1


def kelem_parts(x):
    return [x.u, x.v] if isinstance(x, TowerElem) else [x]


def sub(x, y):
    """x - y; a tower element has no reflected subtraction, so a value of k
    minus one is taken as x + (-y)."""
    return x + -y if isinstance(y, TowerElem) and not isinstance(x, TowerElem) else x - y


def side(iv):
    """+1 or -1 when the interval lies on one side of 0, 0 for [0, 0], else None."""
    if iv.lo > 0:
        return 1
    if iv.hi < 0:
        return -1
    return 0 if iv.lo == iv.hi == 0 else None


# -- values agree with the oracle -------------------------------------------

@SETTINGS
@given(kelems, kelems)
def test_kelem_operations_match_sympy(x, y):
    sx, sy = sym(x), sym(y)
    assert same(sym(x + y), sx + sy)
    assert same(sym(x - y), sx - sy)
    assert same(sym(x * y), sx * sy)
    assert same(sym(-x), -sx)
    assert same(sym(x.conjugate()), sx.subs(sympy.sqrt(2), -sympy.sqrt(2)))
    n = x.norm()
    assert same(sympy.Rational(n.numerator, n.denominator), sx * sym(x.conjugate()))
    if y:
        assert same(sym(x / y) * sy, sx)
        assert same(sym(K_ONE / y) * sy, 1)


# a value of k with a tower value, in both orders, runs on every run, not
# only when the draw of v happens to be 0
MIXED = [KElem(2, -1), KElem(Fraction(1, 3), 2) + KElem(-1, 1) * ROOTS[3]]


@SETTINGS
@given(towers(2), scalars)
@example((ROOTS[3], MIXED), KElem(1, 1))
@example((ROOTS[3], MIXED[::-1]), Fraction(-5, 7))
def test_tower_operations_match_sympy(xs, s):
    _, (x, y) = xs
    sx, sy, ss = sym(x), sym(y), sym(s)
    assert same(sym(x + y), sx + sy)
    assert same(sym(sub(x, y)), sx - sy)
    assert same(sym(x * y), sx * sy)
    assert same(sym(x * s), sx * ss) and same(sym(s * x), sx * ss)
    if y:
        assert same(sym(x / y) * sy, sx)
    if s:
        assert same(sym(x / s) * ss, sx)


# -- ring and field laws -----------------------------------------------------

@SETTINGS
@given(kelems, kelems, kelems)
def test_kelem_field_laws(x, y, z):
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x and x - x == 0
    assert x + (-x) == KElem(0)
    if x:
        assert x * (K_ONE / x) == 1
        assert x / x == 1


@SETTINGS
@given(towers(3), scalars)
def test_tower_field_laws(xs, s):
    root, (x, y, z) = xs
    # a scalar from k is the same value in the tower
    assert x * s == x * (s + 0 * root) == s * x
    assert (x * s) * y == x * (s * y) and (x + y) * s == x * s + y * s
    if s:
        assert x / s == x / (s + 0 * root)
        assert (x / s) * s == x
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x - x == KElem(0) and type(x - x) is KElem
    if x:
        assert x * (K_ONE / x) == KElem(1)
        assert x / x == KElem(1)


# -- canonical form ------------------------------------------------------------

@SETTINGS
@given(coords, coords, kelems)
def test_construction_is_canonical(a, b, y):
    x = KElem(a, b)
    assert_canonical(x)
    assert (x.a, x.b) == (Fraction(a), Fraction(b))
    assert x == KElem(Fraction(a) * 6, Fraction(b) * 6) / 6
    assert hash(x) == hash(KElem(Fraction(a) * 6, Fraction(b) * 6) / 6)


@SETTINGS
@given(kelems, kelems)
def test_kelem_results_are_canonical(x, y):
    results = [x + y, x - y, x * y, -x, x.conjugate(), abs(x), x + 1, 3 - x, x * 2]
    if y:
        results += [x / y, K_ONE / y]
    for r in results:
        assert_canonical(r)
    if y:
        for other in ((x * y) / y, (x + y) - y, (x / y) * y):
            assert other == x
            assert hash(other) == hash(x)
            assert (other.p, other.q, other.d) == (x.p, x.q, x.d)


@SETTINGS
@given(towers(2), scalars)
def test_tower_results_are_canonical(xs, s):
    root, (x, y) = xs
    results = [x + y, sub(x, y), x * y, -x, x * s, s * x]
    if isinstance(x, TowerElem):
        results += [x.u + -x.v * root, x.tower_norm()]
    if y:
        results += [x / y, K_ONE / y]
    if s:
        results.append(x / s)
    for r in results:
        for part in kelem_parts(r):
            assert_canonical(part)
    if y:
        assert (x * y) / y == x
        assert hash((x * y) / y) == hash(x)


# -- one form per value ----------------------------------------------------------

# small coordinates, so that equal values in different forms are drawn often
small = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=2))
small_kelems = st.builds(KElem, small, small)
forms = st.one_of(small, small_kelems, st.builds(
    lambda root, u, v: u + v * root, st.sampled_from(list(ROOTS.values())), small_kelems,
    small_kelems))


def tower_coords(x):
    """(u, v) with x = u + v sqrt(d), read off the representation."""
    return (x.u, x.v) if isinstance(x, TowerElem) else (KElem._lift(x), KElem(0))


@SETTINGS
@given(forms, forms)
@example(KElem(7, 4), KElem(7, 4) + 0 * ROOTS[3])
@example(7, 7 + 0 * ROOTS[3])
def test_one_form_per_value(x, y):
    if x == y:
        assert hash(x) == hash(y)
    assert (x == y) == (y == x)
    radicands = {z.radicand for z in (x, y) if isinstance(z, TowerElem)}
    if len(radicands) > 1:
        assert x != y
        with pytest.raises(ContextMismatchError):
            x * y
        return
    if not radicands:
        return
    (d,) = radicands
    (u1, v1), (u2, v2) = tower_coords(x), tower_coords(y)
    want = {"+": (u1 + u2, v1 + v2), "-": (u1 - u2, v1 - v2),
            "*": (u1 * u2 + d * v1 * v2, u1 * v2 + v1 * u2)}
    got = {"+": x + y, "-": sub(x, y), "*": x * y}
    if y:
        n = u2 * u2 - d * v2 * v2
        want["/"] = (u1 * u2 / n - d * v1 * v2 / n, v1 * u2 / n - u1 * v2 / n)
        got["/"] = x / y
    if isinstance(x, TowerElem):
        n = u1 * u1 - d * v1 * v1
        want["inverse"], got["inverse"] = (u1 / n, -v1 / n), x.inverse()
        want["conjugate"], got["conjugate"] = (u1, -v1), u1 + -v1 * sqrt_k(d)
        want["neg"], got["neg"] = (-u1, -v1), -x
    for op, (u, v) in want.items():
        r = got[op]
        assert (type(r) is KElem) == (v == 0), op
        assert tower_coords(r) == (u, v), op
        if v:
            assert r.radicand == d and r.v


@SETTINGS
@given(kelems, st.sampled_from(sorted(ROOTS)))
def test_values_of_k_stay_kelems(u, a):
    root = ROOTS[a]
    assert _tower(u, K_ZERO, root.radicand) is u
    assert type(u + 0 * root) is KElem and u + 0 * root == u
    square = root * root
    assert type(square) is KElem and square == a


# two rational radicands and one outside Q
TOWER_RADICANDS = [KElem(3), KElem(17), KElem(1, 1)]


@SETTINGS
@given(st.permutations(TOWER_RADICANDS), kelems, kelems, kelems, kelems)
@example([KElem(1, 1), KElem(3)], KElem(0), KElem(1), KElem(2), KElem(0, 1))
def test_tower_elements_carry_their_radicand(ds, u1, v1, u2, v2):
    root, other = sqrt_k(ds[0]), sqrt_k(ds[1])
    assert u1 + 0 * root == u1 and type(u1 + 0 * root) is KElem
    x, y = u1 + v1 * root, u2 + v2 * root
    results = [x + y, sub(x, y), x * y, y * x, -x]
    results += [t.inverse() for t in (x, y) if isinstance(t, TowerElem)]
    if y:
        results.append(x / y)
    for r in results:
        if isinstance(r, TowerElem):
            assert r.radicand is root.radicand
    # elements of two towers that lie outside k neither mix nor compare equal
    z = u2 + v2 * other
    if isinstance(x, TowerElem) and isinstance(z, TowerElem):
        assert x != z and z != x
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(ContextMismatchError):
                op(x, z)
            with pytest.raises(ContextMismatchError):
                op(z, x)


# -- sign and order ------------------------------------------------------------

@SETTINGS
@given(kelems)
def test_kelem_sign_agrees_with_embedding(x):
    assert side(x.embed(128)) == x.sign()
    assert x.sign() == sympy.sign(sym(x))


@SETTINGS
@given(st.integers(1, 10 ** 15), st.integers(-1, 1), st.sampled_from([1, -1]))
def test_sign_near_zero(q, shift, s):
    # p/q is a close rational approximation of sqrt2, so p - q sqrt2 is tiny
    p = math.isqrt(2 * q * q) + shift
    x = KElem(s * p, -s * q)
    assert x.sign() == side(x.embed(128))


@SETTINGS
@given(towers(1))
def test_tower_sign_agrees_with_embedding(xs):
    _, (x,) = xs
    assert side(x.embed(128)) in (x.sign(), None)
    assert x.sign() == sympy.sign(sym(x))


@SETTINGS
@given(kelems, kelems)
def test_order_agrees_with_sign(x, y):
    # the order of k is read off the sign of a difference
    assert (x - y).sign() == -(y - x).sign() == sympy.sign(sym(x) - sym(y))
    assert abs(x).sign() >= 0


# -- text ------------------------------------------------------------------------

@SETTINGS
@given(kelems)
def test_text_round_trip(x):
    y = parse_kelem(x.to_text())
    assert y == x
    assert (y.p, y.q, y.d) == (x.p, x.q, x.d)
