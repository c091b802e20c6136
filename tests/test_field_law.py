"""Property tests for exact arithmetic in k = Q(sqrt 2) and its towers.

`KElem` stores (p + q sqrt2)/d with d > 0 and gcd(p, q, d) = 1.  These
properties draw elements with integer and rational coordinates and check,
with sympy's radicals as the oracle, that the ring and field operations of
k and of k(sqrt 3), k(sqrt 17) give the exact value, also with one operand a
scalar from k, which acts as its image in the tower; that every result is
in canonical form, so equal values reached along different paths compare
and hash alike; that `sign` agrees with the certified 128-bit embedding;
and that `parse_kelem` inverts `to_text`.
"""

import math
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from smallsys.exactfield import KElem, TowerContext, parse_kelem

SETTINGS = settings(max_examples=60, deadline=None)
CONTEXTS = {a: TowerContext.from_rational(a) for a in (3, 17)}

coords = st.one_of(
    st.integers(-60, 60),
    st.fractions(min_value=-10 ** 4, max_value=10 ** 4, max_denominator=10 ** 4))
kelems = st.builds(KElem, coords, coords)
scalars = st.one_of(coords, kelems)     # scalars from k: int, Fraction or KElem


@st.composite
def towers(draw, count):
    ctx = CONTEXTS[draw(st.sampled_from(sorted(CONTEXTS)))]
    return [ctx.elem(draw(kelems), draw(kelems)) for _ in range(count)]


def sym(x):
    """The exact value of a KElem, TowerElem or rational as a sympy radical
    expression."""
    if isinstance(x, (int, Fraction)):
        return sympy.Rational(x.numerator, x.denominator)
    if isinstance(x, KElem):
        return sympy.Rational(x.p, x.d) + sympy.Rational(x.q, x.d) * sympy.sqrt(2)
    return sym(x.u) + sym(x.v) * sympy.sqrt(sym(x.ctx.radicand))


def same(lhs, rhs):
    return sympy.expand(lhs - rhs) == 0


def assert_canonical(x: KElem):
    assert type(x.p) is int and type(x.q) is int and type(x.d) is int
    assert x.d > 0
    assert math.gcd(x.p, x.q, x.d) == 1


def kelem_parts(x):
    return [x.u, x.v] if hasattr(x, "ctx") else [x]


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
        assert same(sym(y.inverse()) * sy, 1)


@SETTINGS
@given(towers(2), scalars)
def test_tower_operations_match_sympy(xs, s):
    x, y = xs
    sx, sy, ss = sym(x), sym(y), sym(s)
    assert same(sym(x + y), sx + sy)
    assert same(sym(x - y), sx - sy)
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
        assert x * x.inverse() == 1
        assert x / x == 1


@SETTINGS
@given(towers(3), scalars)
def test_tower_field_laws(xs, s):
    x, y, z = xs
    one = x.ctx.from_k(1)
    # a scalar from k acts as its image in the tower
    assert x * s == x * x.ctx.from_k(s) == s * x
    assert (x * s) * y == x * (s * y) and (x + y) * s == x * s + y * s
    if s:
        assert x / s == x / x.ctx.from_k(s)
        assert (x / s) * s == x
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x - x == x.ctx.from_k(0)
    if x:
        assert x * x.inverse() == one
        assert x / x == one


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
        results += [x / y, y.inverse(), 1 / y]
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
    x, y = xs
    results = [x + y, x - y, x * y, -x, x.tower_conjugate(), x.tower_norm(),
               x * s, s * x]
    if y:
        results += [x / y, y.inverse()]
    if s:
        results.append(x / s)
    for r in results:
        for part in kelem_parts(r):
            assert_canonical(part)
    if y:
        assert (x * y) / y == x
        assert hash((x * y) / y) == hash(x)


# -- sign and order ------------------------------------------------------------

@SETTINGS
@given(kelems)
def test_kelem_sign_agrees_with_embedding(x):
    iv = x.embed(128)
    assert iv.sign() == x.sign()
    assert x.sign() == sympy.sign(sym(x))


@SETTINGS
@given(st.integers(1, 10 ** 15), st.integers(-1, 1), st.sampled_from([1, -1]))
def test_sign_near_zero(q, shift, s):
    # p/q is a close rational approximation of sqrt2, so p - q sqrt2 is tiny
    p = math.isqrt(2 * q * q) + shift
    x = KElem(s * p, -s * q)
    assert x.sign() == x.embed(128).sign()


@SETTINGS
@given(towers(1))
def test_tower_sign_agrees_with_embedding(xs):
    (x,) = xs
    assert x.embed(128).sign() in (x.sign(), None)
    assert x.sign() == sympy.sign(sym(x))


@SETTINGS
@given(kelems, kelems)
def test_order_agrees_with_sign(x, y):
    s = (x - y).sign()
    assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)
    assert abs(x).sign() >= 0


# -- text ------------------------------------------------------------------------

@SETTINGS
@given(kelems)
def test_text_round_trip(x):
    y = parse_kelem(x.to_text())
    assert y == x
    assert (y.p, y.q, y.d) == (x.p, x.q, x.d)
