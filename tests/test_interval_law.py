"""Property tests for the certified interval functions.

Every `RealInterval` function promises an interval that contains the exact
value.  These properties draw rational endpoints, build intervals at 64 and
128 bits, and check that the result contains mpmath's 256-bit value at both
endpoints and the midpoint of the input; `KElem.embed` must contain
a + b sqrt2 the same way, and the distance between {x1 = 0} and its image
under a corner block must contain arccosh(alpha).  The oracle's own error,
about 2^-256 relative, is allowed for.
"""

from fractions import Fraction

import mpmath
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smallsys.exactfield import SQRT2, KElem, RealInterval
from smallsys.hypgeom import GeodesicHyperplane, dist_hyperplanes
from smallsys.lorentz import param_block

SETTINGS = settings(max_examples=40, deadline=None)
PRECISIONS = st.sampled_from([64, 128])


def rationals(lo, hi):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=10 ** 6)


def oracle_slack(v):
    return abs(v) / 2 ** 240 + Fraction(1, 2 ** 240)


def assert_encloses(iv: RealInterval, value):
    """iv contains the mpmath value, up to the oracle's rounding error."""
    sign, man, exp, _ = value._mpf_         # man_exp drops the sign
    v = (-1) ** sign * Fraction(man) * Fraction(2) ** exp
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
@given(rationals(-40, 40), rationals(-40, 40), PRECISIONS)
def test_cosh_encloses(x, y, precision):
    check("cosh", mpmath.cosh, x, y, precision)


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


@SETTINGS
@given(rationals(-1, 1), rationals(-1, 1), PRECISIONS)
def test_acos_encloses(x, y, precision):
    check("acos", mpmath.acos, x, y, precision)


@SETTINGS
@given(rationals(-1000, 1000), rationals(-1000, 1000), PRECISIONS)
def test_embed_encloses(a, b, precision):
    iv = KElem(a, b).embed(precision)
    with mpmath.workprec(256):
        value = (mpmath.mpf(a.numerator) / a.denominator
                 + mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(2))
        assert_encloses(iv, value)
