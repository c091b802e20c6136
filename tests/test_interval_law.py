"""Property tests for the certified interval functions.

Every `RealInterval` function promises an interval that contains the exact
value.  These properties draw rational endpoints, build intervals at 64 and
128 bits, and check that the result contains mpmath's 256-bit value at both
endpoints and the midpoint of the input; `KElem.embed` must contain
a + b sqrt2 the same way, and the distance between {x1 = 0} and its image
under a corner block must contain arccosh(alpha).  The oracle's own error,
about 2^-256 relative, is allowed for.

`ReferenceInterval` is the interval class with exact `Fraction` endpoints
that `RealInterval` replaced.  `RealInterval` keeps each endpoint as an int
mantissa over 2^precision and rounds at the same places, so for every
arithmetic operation and for sqrt it must return exactly the reference's
endpoints, with the operands' precisions mixed.  Its log and sinh run on its
own fixed-point kernels, padded as the reference pads libmp's value, so each
of their endpoints must lie within one ulp of the reference's.
`KElem.embed` must return exactly floor and ceil of x 2^precision, which the
reference decides by bisection on exact integer comparisons; for values
a + b (sqrt2 - 1)^j, whose coefficients cancel, it and the root of
`TowerElem.embed` must be at most one unit wide and enclose sympy's value.
"""

import math
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import libmp

from smallsys import exactfield
from smallsys.exactfield import SQRT2, KElem, RealInterval, sqrt_k
from smallsys.hypgeom import GeodesicHyperplane, dist_hyperplanes
from smallsys.lorentz import param_block

SETTINGS = settings(max_examples=40, deadline=None)
PRECISIONS = st.sampled_from([64, 128])


# ---------------------------------------------------------------------------
# the reference: Fraction endpoints, rounded outward to precision bits
# ---------------------------------------------------------------------------

def _round_down(x: Fraction, prec: int) -> Fraction:
    scale = 1 << prec
    return Fraction(math.floor(x * scale), scale)


def _round_up(x: Fraction, prec: int) -> Fraction:
    scale = 1 << prec
    return Fraction(math.ceil(x * scale), scale)


def _sqrt_down(x: Fraction, prec: int) -> Fraction:
    if x < 0:
        raise ValueError("sqrt of negative lower bound")
    if x == 0:
        return Fraction(0)
    p, q = x.numerator, x.denominator
    s = math.isqrt(p * q << (2 * prec))
    return Fraction(s, q << prec)


def _sqrt_up(x: Fraction, prec: int) -> Fraction:
    if x <= 0:
        if x < 0:
            raise ValueError("sqrt of negative upper bound")
        return Fraction(0)
    p, q = x.numerator, x.denominator
    s = math.isqrt(p * q << (2 * prec))
    if s * s < p * q << (2 * prec):
        s += 1
    return Fraction(s, q << prec)


def _raw_to_frac(raw) -> Fraction:
    sign, man, exp, _ = raw
    m = int(man)
    if sign:
        m = -m
    if exp >= 0:
        return Fraction(m << exp)
    return Fraction(m, 1 << -exp)


def _libmp_dir(fn, x: Fraction, prec: int, upper: bool) -> Fraction:
    """One transcendental endpoint, padded outward past libmp's rounding."""
    work = prec + 16
    rnd = "c" if upper else "f"
    raw = libmp.from_rational(x.numerator, x.denominator, work, rnd)
    out = _raw_to_frac(fn(raw, work, rnd))
    pad = max(abs(out), Fraction(1)) / (1 << (prec + 8))
    return out + pad if upper else out - pad


class ReferenceInterval:
    """A closed interval with exact rational endpoints, rounded outward to
    dyadics with ``precision`` fractional bits."""

    def __init__(self, lo, hi, precision: int = 64):
        if precision < 16:
            raise ValueError("precision must be at least 16 bits")
        lo = Fraction(lo)
        hi = Fraction(hi)
        if lo > hi:
            raise ValueError("empty interval")
        self.lo = _round_down(lo, precision)
        self.hi = _round_up(hi, precision)
        self.precision = precision

    @classmethod
    def exact(cls, x, precision: int = 64) -> "ReferenceInterval":
        x = Fraction(x)
        return cls(x, x, precision)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __float__(self) -> float:
        return float(self.mid())

    def __contains__(self, x) -> bool:
        x = Fraction(x)
        return self.lo <= x <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def overlaps(self, other: "ReferenceInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def strictly_less(self, other: "ReferenceInterval") -> bool:
        return self.hi < other.lo

    def _coerce(self, other) -> "ReferenceInterval":
        if isinstance(other, ReferenceInterval):
            return other
        return ReferenceInterval.exact(other, self.precision)

    def __add__(self, other):
        o = self._coerce(other)
        p = min(self.precision, o.precision)
        return ReferenceInterval(self.lo + o.lo, self.hi + o.hi, p)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        p = min(self.precision, o.precision)
        prods = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return ReferenceInterval(min(prods), max(prods), p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.contains_zero():
            raise ZeroDivisionError("interval divisor contains zero")
        inv = ReferenceInterval(1 / o.hi, 1 / o.lo, o.precision)
        return self * inv

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def sqrt(self) -> "ReferenceInterval":
        lo = max(self.lo, Fraction(0))
        if self.hi < 0:
            raise ValueError("sqrt of negative interval")
        return ReferenceInterval(_sqrt_down(lo, self.precision),
                                 _sqrt_up(self.hi, self.precision), self.precision)

    def log(self) -> "ReferenceInterval":
        if self.lo <= 0:
            raise ValueError("log needs a positive interval")
        return ReferenceInterval(_libmp_dir(libmp.mpf_log, self.lo, self.precision, False),
                                 _libmp_dir(libmp.mpf_log, self.hi, self.precision, True),
                                 self.precision)

    def sinh(self) -> "ReferenceInterval":
        return ReferenceInterval(_libmp_dir(libmp.mpf_sinh, self.lo, self.precision, False),
                                 _libmp_dir(libmp.mpf_sinh, self.hi, self.precision, True),
                                 self.precision)


def _sign_rt2(a: int, b: int) -> int:
    """The sign of a + b sqrt2 for ints a, b: the sign of a + b when a and b
    do not differ in sign, else the sign of the one with the larger square,
    a^2 against 2 b^2."""
    if a * b >= 0:
        return (a + b > 0) - (a + b < 0)
    big = a if a * a > 2 * b * b else b
    return 1 if big > 0 else -1


def reference_embed(x: KElem, precision: int) -> ReferenceInterval:
    """floor and ceil of x 2^k over 2^k, k = precision, for x = (p + q sqrt2)/d,
    found by bisection on exact comparisons: m <= x 2^k exactly when
    p 2^k - m d + q 2^k sqrt2 >= 0, and |x 2^k| <= B = |p 2^k| + 2 |q 2^k|."""
    a, b, d, k = x.p << precision, x.q << precision, x.d, precision
    lo, hi = -(abs(a) + 2 * abs(b)), abs(a) + 2 * abs(b) + 1
    while hi - lo > 1:          # lo <= x 2^k < hi
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _sign_rt2(a - mid * d, b) >= 0 else (lo, mid)
    up = lo + (_sign_rt2(a - lo * d, b) != 0)
    return ReferenceInterval(Fraction(lo, 1 << k), Fraction(up, 1 << k), k)


def rationals(lo, hi):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=10 ** 6)


def oracle_slack(v):
    return abs(v) / 2 ** 240 + Fraction(1, 2 ** 240)


def to_fraction(value) -> Fraction:
    """An mpf's exact value."""
    sign, man, exp, _ = value._mpf_         # man_exp drops the sign
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def assert_encloses(iv: RealInterval, value):
    """iv contains the mpmath value, up to the oracle's rounding error."""
    v = to_fraction(value)
    slack = oracle_slack(v)
    assert iv.lo - slack <= v <= iv.hi + slack, (iv, value)


def check(method, oracle, x, y, precision):
    lo, hi = min(x, y), max(x, y)
    iv = getattr(RealInterval(lo, hi, precision), method)()
    with mpmath.workprec(256):
        for p in (lo, hi, (lo + hi) / 2):
            assert_encloses(iv, oracle(mpmath.mpf(p.numerator) / p.denominator))


@SETTINGS
@given(rationals(0, 1000), rationals(0, 1000), PRECISIONS)
def test_sqrt_encloses(x, y, precision):
    check("sqrt", mpmath.sqrt, x, y, precision)


@SETTINGS
@given(rationals(Fraction(1, 1000), 1000), rationals(Fraction(1, 1000), 1000),
       PRECISIONS)
def test_log_encloses(x, y, precision):
    check("log", mpmath.log, x, y, precision)


@SETTINGS
@given(st.sampled_from([KElem(1), KElem(3), KElem(Fraction(5, 3))]),
       st.integers(-5000, 5000), st.integers(-50, 50), PRECISIONS)
def test_hyperplane_distance_encloses(c, a, b, precision):
    t = KElem(a, b)
    assume((SQRT2 * t * t - c).sign() > 0)
    g = param_block(c, t, 2)
    h = GeodesicHyperplane.coordinate(g.form())
    rel = dist_hyperplanes(h, h.image(g.to_isometry()), precision)
    assert rel.kind == "disjoint" and rel.distance.lo >= 0
    with mpmath.workprec(256):
        alpha = (mpmath.mpf(g.alpha.p) + g.alpha.q * mpmath.sqrt(2)) / g.alpha.d
        assert_encloses(rel.distance, mpmath.acosh(alpha))


def ulp_from(x):
    """The points one ulp above and below x at each precision k."""
    return [lambda k: x + Fraction(1, 2 ** k), lambda k: x - Fraction(1, 2 ** k)]


def point(x):
    return lambda k: Fraction(x)


# log near 1 and sinh of tiny and of large arguments, at precisions from
# the least allowed to the escalation ceiling; sinh at 1 - 2^-bits and at 1
# sits on either side of the switch from the series to the doublings, and
# 4096, the search's cap on x at 4096 bits, takes thirteen doublings
@pytest.mark.parametrize("bits", [16, 64, 128, 4096])
@pytest.mark.parametrize("method, oracle, points", [
    ("log", mpmath.log, [point(1), point(Fraction(1001, 1000))] + ulp_from(1)),
    ("sinh", mpmath.sinh, [point(Fraction(1, 2 ** 60)), point(Fraction(-1, 2 ** 61)),
                           point(Fraction(1, 2 ** 300)), point(64), point(-64),
                           point(Fraction(1001, 10)), point(1), point(-1),
                           lambda k: 1 - Fraction(1, 2 ** k), point(4096)]),
], ids=["log", "sinh"])
def test_kernels_at_the_edges(method, oracle, points, bits):
    """Each result encloses the oracle's values, at bits + 64, at the input's
    endpoints, and its endpoints lie within two ulps of them: 2^-bits, or
    bits significant bits beyond 1."""
    for at in points:
        arg = RealInterval(at(bits), at(bits), bits)
        iv = getattr(arg, method)()
        with mpmath.workprec(bits + 64):
            lo, hi = sorted(to_fraction(oracle(mpmath.mpf(v.numerator) / v.denominator))
                            for v in (arg.lo, arg.hi))
        ulp = max(abs(hi), Fraction(1)) / 2 ** bits
        slack = ulp / 2 ** 40
        assert iv.lo - slack <= lo and hi <= iv.hi + slack, (at(bits), iv)
        assert lo - iv.lo <= 2 * ulp and iv.hi - hi <= 2 * ulp, (at(bits), iv)


# each kernel's (v, err, w): |v - 2^w f(man / 2^prec)| <= err, the bound its
# docstring derives, against mpmath at w + 64 bits
KERNELS = [(exactfield._log_fix, mpmath.log, lambda k: (1, 1 << k + 20)),
           (exactfield._sinh_fix, mpmath.sinh, lambda k: (1 - (1 << k), (1 << k) - 1))]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KERNELS), st.sampled_from([16, 64, 128, 1024]), st.data())
def test_kernels_stay_within_their_stated_error(kernel, bits, data):
    fix, oracle, bounds = kernel
    lo, hi = bounds(bits)
    edges = [1, (1 << bits) - 1, 1 << bits, (1 << bits) + 1, -(1 << bits), lo, hi]
    man = data.draw(st.one_of(st.integers(lo, hi),
                              st.sampled_from([m for m in edges if lo <= m <= hi])))
    v, err, w = fix(man, bits)
    with mpmath.workprec(w + 64):
        want = to_fraction(oracle(mpmath.mpf(man) / 2 ** bits)) * 2 ** w
    assert abs(v - want) <= err, (man, v - want, err)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([16, 64, 128, 1024]), st.data())
def test_atanh_series_within_five_units(w, data):
    # the bound _odd_series states, for |z| < 2^w / 2, up to that bound's edge
    top = (1 << w - 1) - 1
    z = data.draw(st.one_of(st.integers(-top, top), st.sampled_from([top, -top, 1, 0])))
    with mpmath.workprec(w + 64):
        want = to_fraction(mpmath.atanh(mpmath.mpf(z) / 2 ** w)) * 2 ** w
    assert abs(exactfield._odd_series(z, w) - want) <= 5, z


@SETTINGS
@given(rationals(-1000, 1000), rationals(-1000, 1000), PRECISIONS)
def test_embed_encloses(a, b, precision):
    iv = KElem(a, b).embed(precision)
    with mpmath.workprec(256):
        value = (mpmath.mpf(a.numerator) / a.denominator
                 + mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(2))
        assert_encloses(iv, value)


# ---------------------------------------------------------------------------
# RealInterval returns exactly the reference's endpoints
# ---------------------------------------------------------------------------

MATCH = settings(max_examples=150, deadline=None)
BITS = st.sampled_from([16, 17, 53, 64, 128, 200])


def reals(bound, scale=0):
    """Rationals in [-bound, bound] / 2^scale: small denominators, or dyadics
    finer than every precision drawn, so that both rounding branches are taken."""
    dyadic = st.integers(scale, 260 + scale).flatmap(
        lambda k: st.integers(-bound << (k - scale), bound << (k - scale)).map(
            lambda m: Fraction(m, 1 << k)))
    small = st.fractions(-bound, bound, max_denominator=10 ** 9).map(
        lambda x: x / (1 << scale))
    return st.one_of(small, dyadic)


def intervals(bound, scale=0):
    """(lo, hi, precision) with lo <= hi in [-bound, bound] / 2^scale."""
    return st.tuples(reals(bound, scale), reals(bound, scale), BITS).map(
        lambda t: (min(t[0], t[1]), max(t[0], t[1]), t[2]))


def pair(lo, hi, bits):
    return RealInterval(lo, hi, bits), ReferenceInterval(lo, hi, bits)


def outcome(fn, *args):
    """(lo, hi, precision) of fn(*args), or the type of the error it raised."""
    try:
        out = fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)
    return out.lo, out.hi, out.precision


BINARY = [lambda x, y: x + y, lambda x, y: x * y, lambda x, y: x / y]


@MATCH
@given(intervals(1000), intervals(1000))
def test_arithmetic_matches_the_reference(x, y):
    (a, ra), (b, rb) = pair(*x), pair(*y)
    for op in BINARY:
        assert outcome(op, a, b) == outcome(op, ra, rb)


@MATCH
@given(intervals(1000), reals(1000), st.integers(-1000, 1000))
def test_scalar_operands_match_the_reference(x, s, n):
    a, ra = pair(*x)
    for c in (s, n):
        for op in BINARY:
            assert outcome(op, a, c) == outcome(op, ra, c)
            assert outcome(op, c, a) == outcome(op, c, ra)


@MATCH
@given(intervals(1000), intervals(1000), reals(1000))
def test_queries_match_the_reference(x, y, s):
    (a, ra), (b, rb) = pair(*x), pair(*y)
    assert (a.lo, a.hi, a.precision) == (ra.lo, ra.hi, ra.precision)
    assert a.width() == ra.width()
    assert float(a) == float(ra)
    assert (s in a) == (s in ra) and (a.lo in a) and (a.hi in a)
    assert a.contains_zero() == ra.contains_zero()
    assert a.overlaps(b) == ra.overlaps(rb)
    assert a.strictly_less(b) == ra.strictly_less(rb)


@MATCH
@given(intervals(1000), st.one_of(reals(1000), st.integers(-1000, 1000),
                                  st.floats(-1e3, 1e3, allow_nan=False)),
       st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), BITS)
def test_int_float_and_fraction_operands_match_the_reference(x, s, lo, hi, bits):
    # construction and membership read an int, a float or a Fraction exactly
    a, ra = pair(*x)
    assert (s in a) == (s in ra) == (a.lo <= Fraction(s) <= a.hi)
    for t in (a.lo, float(a.lo), float(a.hi)):
        assert (t in a) == (a.lo <= Fraction(t) <= a.hi)
    lo, hi = min(lo, hi), max(lo, hi)
    for ends in ((lo, hi), (int(lo), int(hi) + 1), (Fraction(lo), hi)):
        b, rb = pair(*ends, bits)
        assert (b.lo, b.hi) == (rb.lo, rb.hi)
    with pytest.raises(ValueError):
        math.nan in a
    with pytest.raises(ValueError):
        RealInterval(math.nan, 1)
    with pytest.raises(ValueError):
        RealInterval(hi + 1, lo)


def assert_within_an_ulp(fn, reference):
    """fn's endpoints lie within one ulp of the reference's: 2^-precision,
    or precision significant bits beyond 1, since libmp rounds the
    reference's value to precision + 16 of them.  Errors must agree."""
    got, want = outcome(fn), outcome(reference)
    if isinstance(want, type) or isinstance(got, type):
        assert got == want
        return
    assert got[2] == want[2]
    for x, y in zip(got[:2], want[:2]):
        assert abs(x - y) <= max(abs(y), Fraction(1)) / 2 ** want[2], (got, want)


@MATCH
@given(st.one_of(intervals(1000), intervals(1, 20)))
def test_sqrt_and_log_match_the_reference(x):
    a, ra = pair(*x)
    assert outcome(a.sqrt) == outcome(ra.sqrt)
    assert_within_an_ulp(a.log, ra.log)


@MATCH
@given(intervals(50))
def test_sinh_matches_the_reference(x):
    a, ra = pair(*x)
    assert_within_an_ulp(a.sinh, ra.sinh)


@MATCH
@given(reals(1000), reals(1000), BITS)
def test_embed_matches_the_reference(a, b, bits):
    x = KElem(a, b)
    assert outcome(x.embed, bits) == outcome(reference_embed, x, bits)


# ---------------------------------------------------------------------------
# one rounding, however the coefficients cancel: a + b u^j for u = sqrt2 - 1
# has coefficients of about 1.27 j bits and opposite signs
# ---------------------------------------------------------------------------

def cancelling(a, b, j):
    """a + b u^j as a KElem, and its sympy value."""
    x = KElem(a)
    u = KElem(1)
    for _ in range(j):
        u = u * KElem(-1, 1)
    return x + b * u, sympy.Rational(a) + sympy.Rational(b) * (sympy.sqrt(2) - 1) ** j


def assert_encloses_sympy(iv: RealInterval, value, bits: int):
    """iv contains sympy's value, read to bits // 3 + 40 digits."""
    r = sympy.Rational(sympy.N(value, bits // 3 + 40))
    v = Fraction(int(r.p), int(r.q))
    slack = (abs(v) + 1) / 2 ** (bits + 64)
    assert iv.lo - slack <= v <= iv.hi + slack, (iv, v)


CANCELLING = (rationals(-1000, 1000), rationals(-1000, 1000), st.integers(0, 4000),
              st.sampled_from([16, 64, 128, 1024]))


@SETTINGS
@given(*CANCELLING)
@example(Fraction(1), Fraction(1), 3300, 128)
@example(Fraction(4), Fraction(-1), 4000, 64)
@example(Fraction(0), Fraction(1, 3), 4000, 1024)
@example(Fraction(5, 3), Fraction(0), 0, 16)
def test_embed_is_one_unit_wide(a, b, j, bits):
    x, value = cancelling(a, b, j)
    iv = x.embed(bits)
    assert iv.man_hi - iv.man_lo <= 1
    if not x.q:     # floor and ceil of the rational x 2^bits
        scaled = x.a * 2 ** bits
        assert (iv.man_lo, iv.man_hi) == (math.floor(scaled), math.ceil(scaled))
    assert_encloses_sympy(iv, value, bits)


@SETTINGS
@given(*CANCELLING)
@example(Fraction(1), Fraction(1), 3300, 128)
@example(Fraction(4), Fraction(-1), 4000, 64)
@example(Fraction(0), Fraction(1), 4000, 1024)
@example(Fraction(3), Fraction(0), 0, 16)
def test_tower_root_is_one_unit_wide(a, b, j, bits):
    r, value = cancelling(a, b, j)
    assume(r.sign() > 0)
    iv = sqrt_k(r).embed(bits)
    assert iv.man_hi - iv.man_lo <= 1
    assert_encloses_sympy(iv, sympy.sqrt(value), bits)
