"""Exact arithmetic in Q, k = Q(sqrt 2), and quadratic towers k(sqrt d).

Every value is immutable, through the one guard ``Immutable`` that every
value class of the package rests on, and every operation is a pure function,
so all of this is safe to use from concurrent tasks.  Every value has one
form.  An element of k is one integer triple (p + q sqrt2)/d with d > 0 and
gcd(p, q, d) = 1, so field arithmetic and sign determination run on ints
only, never on floating point.  A tower k(sqrt d) is entered through
``sqrt_k``, which decides once that d is not a square in k; an element u + v
sqrt(d) carries its radicand d, with v = 0 it is the KElem u, and a TowerElem
always has v != 0, so equal values compare and hash alike and a factor from k
costs two multiplies, not five.  Numerical evaluation goes through
``RealInterval``, whose endpoints always enclose the exact value; they are
dyadic, stored as int mantissas over 2^precision, so interval arithmetic runs
on ints too.  ``escalate`` is the one rule that raises a precision.  The
distinguished real embedding sends sqrt(2) and sqrt(d) to their positive
roots.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction


class ContextMismatchError(ValueError):
    """Raised when elements of two towers k(sqrt d) that lie outside k are mixed."""


class PrecisionError(ArithmeticError):
    """Raised when escalating precision failed to decide a certified value."""


class Immutable:
    """The base of every value class: its slots are set once, when the value
    is built, through ``object.__setattr__`` or the slot descriptors, and
    assigning to it afterwards raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")


# the lowest precision an interval takes, and the highest escalate tries, in bits
MIN_PRECISION = 16
MAX_PRECISION = 4096


def escalate(decide, start: int, message: str):
    """The first result of decide(prec) that is not None (False counts as
    decided) for prec = start, 2 start, 4 start, ...  The first call always
    happens; PrecisionError(message) is raised once prec would pass
    MAX_PRECISION bits."""
    prec = start
    while (out := decide(prec)) is None:
        prec *= 2
        if prec > MAX_PRECISION:
            raise PrecisionError(message)
    return out


# ---------------------------------------------------------------------------
# certified intervals
# ---------------------------------------------------------------------------

def _check_precision(precision: int):
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be at least {MIN_PRECISION} bits")


def _ceil_shift(n: int, k: int) -> int:
    """ceil(n / 2^k) for k >= 0."""
    return -(-n >> k)


def _isqrt_up(n: int) -> int:
    s = math.isqrt(n)
    return s if s * s == n else s + 1


# Transcendental endpoints run in fixed point: an int v stands for v / 2^w at
# a working precision w = prec + guard bits, and each kernel returns (v, err,
# w) with |v - 2^w f(x)| <= err units (ulps at w bits).  ``_outward`` pads v
# by err and by max(|v|, 1) / 2^(prec+8), then rounds it outward to two
# mantissas over 2^prec.  log runs its kernel at every x; sinh runs its series
# below 1 and doubles it up to larger x (``_sinh_at``).

@functools.cache
def _odd_recips(w: int, n: int) -> tuple:
    """2^w // (2j + 1) for j = n, n - 1, ..., 0."""
    return tuple((1 << w) // (2 * j + 1) for j in range(n, -1, -1))


def _odd_series(z: int, w: int) -> int:
    """2^w atanh(z / 2^w) for |z| < 2^w / 2, the odd series z^(2j+1) / (2j+1)
    summed by Horner's rule to the term below 2^-w, within 5 units.  The
    running sum s_j <= 4/3 gains at most 1 + 4/3 + 1 units a step and keeps a
    quarter of its error, so it stays within 40/9; times z it is within
    40/18 + 1, and the dropped tail is below 1."""
    neg, z = z < 0, abs(z)
    gap = w - z.bit_length()            # |z| < 2^-gap as a value
    if gap >= w:
        return 0
    c = _odd_recips(w, -(-w // (2 * gap)))
    z2, acc = z * z >> w, c[0]
    for r in c[1:]:
        acc = r + (acc * z2 >> w)
    acc = acc * z >> w
    return -acc if neg else acc


@functools.cache
def _ln2(w: int) -> int:
    """2^w ln 2 within 2 units: 2 atanh(1/3) at w + 4 bits."""
    return _odd_series((1 << w + 4) // 3, w + 4) >> 3


def _log_fix(man: int, prec: int):
    """log(man / 2^prec) for man > 0, as (v, err, w).  With man / 2^prec =
    2^e t, t in [1/sqrt2, sqrt2) within 2 units, k square roots by isqrt take
    t to t_k, whose log stays within 3 units, and log t = 2^(k+1) atanh(z) for
    z = (t_k - 1) / (t_k + 1), |z| < 2^-(k+2).  z's floor and the series add
    2 and 10 units of log t_k, and scaling back multiplies the 15 by 2^k;
    e ln 2 adds 2 |e|.  So err = 2^(k+4) + 2 |e| units."""
    w = prec + 24
    k = math.isqrt(w) >> 2
    w += k
    b = man.bit_length()
    t = man << w - b if b <= w else man >> b - w
    e = b - prec
    if t * t << 1 < 1 << 2 * w:
        t, e = t << 1, e - 1
    for _ in range(k):
        t = math.isqrt(t << w)
    one = 1 << w
    s = _odd_series(((t - one) << w) // (t + one), w)
    return e * _ln2(w) + (s << k + 1), (16 << k) + 2 * abs(e), w


def _sinh_fix(man: int, prec: int):
    """sinh(man / 2^prec) for |man| < 2^prec, as (v, err, w): the odd series
    x^(2j+1) / (2j+1)! in fixed point.  Each term is within 3 units, so n
    terms are within 3n + 4 with the tail, and a tiny x loses no bits."""
    w = prec + 24
    x = abs(man) << 24
    x2, v, n = x * x >> w, 0, 0
    while x:
        v += x
        n += 1
        x = (x * x2 >> w) // (2 * n * (2 * n + 1))
    return (-v if man < 0 else v), 3 * n + 4, w


def _outward(fixed, prec: int):
    """A kernel's (v, err, w) rounded outward to mantissas (lo, hi) over
    2^prec, past err and a pad of max(|v|, 1) / 2^(prec+8)."""
    v, err, w = fixed
    pad = err + (max(abs(v), 1 << w) >> prec + 8) + 1
    return (v - pad) >> w - prec, _ceil_shift(v + pad, w - prec)


def _log_at(man: int, prec: int):
    return _outward(_log_fix(man, prec), prec)


def _sinh_at(man: int, prec: int):
    """Mantissas (lo, hi) over 2^prec enclosing sinh(man / 2^prec).  Below 1
    the series kernel runs at once.  From x = |man| / 2^prec >= 1 on, with
    s = bitlen(floor x), it runs at y = x / 2^s < 1, a shift of the mantissa,
    with s + 8 guard bits, and s doublings sinh 2y = 2 sinh y sqrt(1 +
    sinh^2 y) on RealIntervals, which round outward, take it back to x; a
    doubling at most doubles the relative error, which the guard bits absorb.
    sinh is odd."""
    x = abs(man)
    if x < 1 << prec:
        return _outward(_sinh_fix(man, prec), prec)
    s = (x >> prec).bit_length()
    w = prec + s + 8
    z = _interval(*_outward(_sinh_fix(x << 8, w), w), w)
    one = _interval(1 << w, 1 << w, w)
    for _ in range(s):
        z = (z + z) * (one + z * z).sqrt()
    lo, hi = z._at(prec)
    return (-hi, -lo) if man < 0 else (lo, hi)


def _endpoints(at, low: int, high: int, prec: int):
    """The lower mantissa of at(low) and the upper one of at(high), each an
    enclosure (lo, hi) over 2^prec; a point runs ``at`` once."""
    a = at(low, prec)
    return a[0], (a if high == low else at(high, prec))[1]


class RealInterval(Immutable):
    """A closed interval [lo, hi] with dyadic endpoints containing a real value.

    The endpoints are stored as two int mantissas over 2^precision,
    lo = man_lo / 2^precision and hi = man_hi / 2^precision, so every
    operation works on plain ints.  A result is rounded outward to the smaller
    precision of its operands (a transcendental endpoint is padded outward past
    its kernel's error first); ``lo`` and ``hi`` are read-only Fraction views.
    """

    __slots__ = ("man_lo", "man_hi", "precision")

    def __init__(self, lo, hi, precision: int = 64):
        """[lo, hi] for ints, floats or Fractions, rounded outward."""
        _check_precision(precision)
        (n, d), (m, e) = lo.as_integer_ratio(), hi.as_integer_ratio()
        if n * e > m * d:
            raise ValueError("empty interval")
        _set_lo(self, (n << precision) // d)
        _set_hi(self, -((-m << precision) // e))
        _set_prec(self, precision)

    @classmethod
    def exact(cls, x, precision: int = 64) -> "RealInterval":
        return cls(x, x, precision)

    # -- queries ----------------------------------------------------------

    @property
    def lo(self) -> Fraction:
        return Fraction(self.man_lo, 1 << self.precision)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.man_hi, 1 << self.precision)

    def width(self) -> Fraction:
        return Fraction(self.man_hi - self.man_lo, 1 << self.precision)

    def __float__(self) -> float:
        return (self.man_lo + self.man_hi) / (2 << self.precision)

    def __contains__(self, x) -> bool:
        n, d = x.as_integer_ratio()
        return self.man_lo * d <= n << self.precision <= self.man_hi * d

    def clamped(self) -> "RealInterval":
        """The part at or above 0, for a value known to be >= 0."""
        if self.man_hi < 0:
            raise ValueError("empty interval")
        return _interval(max(self.man_lo, 0), self.man_hi, self.precision)

    def contains_zero(self) -> bool:
        return self.man_lo <= 0 <= self.man_hi

    def overlaps(self, other: "RealInterval") -> bool:
        p, q = self.precision, other.precision
        return self.man_lo << q <= other.man_hi << p and other.man_lo << p <= self.man_hi << q

    def strictly_less(self, other: "RealInterval") -> bool:
        return self.man_hi << other.precision < other.man_lo << self.precision

    def __repr__(self):
        scale = 1 << self.precision
        return f"RealInterval({self.man_lo / scale!r}, {self.man_hi / scale!r})"

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "RealInterval":
        if isinstance(other, RealInterval):
            return other
        return RealInterval.exact(other, self.precision)

    def _at(self, p: int):
        """The mantissas rounded outward to p <= precision bits."""
        k = self.precision - p
        if not k:
            return self.man_lo, self.man_hi
        return self.man_lo >> k, _ceil_shift(self.man_hi, k)

    def __add__(self, other):
        o = self._coerce(other)
        p = min(self.precision, o.precision)
        (a, b), (c, d) = self._at(p), o._at(p)
        return _interval(a + c, b + d, p)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        a, b, c, d = self.man_lo, self.man_hi, o.man_lo, o.man_hi
        prods = (a * c, a * d, b * c, b * d)
        # the products are over 2^(p + q); rounding to min(p, q) drops max(p, q)
        p, q = self.precision, o.precision
        k = max(p, q)
        return _interval(min(prods) >> k, _ceil_shift(max(prods), k), p + q - k)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.contains_zero():
            raise ZeroDivisionError("interval divisor contains zero")
        q = o.precision
        one = 1 << 2 * q
        return self * _interval(one // o.man_hi, -(-one // o.man_lo), q)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def sqrt(self) -> "RealInterval":
        if self.man_hi < 0:
            raise ValueError("sqrt of negative interval")
        p = self.precision
        return _interval(math.isqrt(max(self.man_lo, 0) << p),
                         _isqrt_up(self.man_hi << p), p)

    def log(self) -> "RealInterval":
        if self.man_lo <= 0:
            raise ValueError("log needs a positive interval")
        p = self.precision
        return _interval(*_endpoints(_log_at, self.man_lo, self.man_hi, p), p)

    def sinh(self) -> "RealInterval":
        p = self.precision
        return _interval(*_endpoints(_sinh_at, self.man_lo, self.man_hi, p), p)


# the slots are written through their descriptors, past the __setattr__ guard
_set_lo = RealInterval.man_lo.__set__
_set_hi = RealInterval.man_hi.__set__
_set_prec = RealInterval.precision.__set__


def _interval(man_lo: int, man_hi: int, precision: int) -> RealInterval:
    """[man_lo, man_hi] / 2^precision, from mantissas already rounded outward."""
    x = object.__new__(RealInterval)
    _set_lo(x, man_lo)
    _set_hi(x, man_hi)
    _set_prec(x, precision)
    return x


# ---------------------------------------------------------------------------
# k = Q(sqrt 2)
# ---------------------------------------------------------------------------

def _exact_isqrt(n: int):
    """The root of n when n is a perfect square, else None."""
    if n >= 0:
        r = math.isqrt(n)
        if r * r == n:
            return r
    return None


def _floor_rt2(b: int) -> int:
    """floor(b sqrt2), exactly: isqrt(2 b^2) for b >= 0, and -isqrt(2 b^2) - 1
    for b < 0, where b sqrt2 is irrational."""
    s = math.isqrt(2 * b * b)
    return s if b >= 0 else -s - 1


class KElem(Immutable):
    """An element a + b*sqrt(2) of Q(sqrt 2).

    It is stored as one integer triple, (p + q*sqrt(2))/d with d > 0 and
    gcd(p, q, d) = 1.  That form is canonical, so equal values have equal
    triples, and every operation of the field and its order works on plain
    ints.  ``a`` = p/d and ``b`` = q/d are read-only Fraction views.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, a=0, b=0):
        if type(a) is int and type(b) is int:
            p, q, d = a, b, 1
        else:
            a, b = Fraction(a), Fraction(b)
            d = math.lcm(a.denominator, b.denominator)
            p, q = a.numerator * d // a.denominator, b.numerator * d // b.denominator
        _set_p(self, p)
        _set_q(self, q)
        _set_d(self, d)

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.d)

    @staticmethod
    def _lift(x) -> "KElem":
        if isinstance(x, KElem):
            return x
        if isinstance(x, (int, Fraction)):
            return KElem(x)
        return NotImplemented

    # -- ring/field structure --------------------------------------------

    def __add__(self, other):
        o = other if type(other) is KElem else self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        d, e = self.d, o.d
        if d == e:
            return _canon(self.p + o.p, self.q + o.q, d)
        return _canon(self.p * e + o.p * d, self.q * e + o.q * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _canon(-self.p, -self.q, self.d)

    def __sub__(self, other):
        o = other if type(other) is KElem else self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        d, e = self.d, o.d
        if d == e:
            return _canon(self.p - o.p, self.q - o.q, d)
        return _canon(self.p * e - o.p * d, self.q * e - o.q * d, d * e)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = other if type(other) is KElem else self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        p, q, r, s = self.p, self.q, o.p, o.q
        return _canon(p * r + 2 * q * s, p * s + q * r, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is KElem else self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        p, q, r, s, e = self.p, self.q, o.p, o.q, o.d
        n = r * r - 2 * s * s
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 2)")
        return _canon(e * (p * r - 2 * q * s), e * (q * r - p * s), self.d * n)

    def __eq__(self, other):
        o = other if type(other) is KElem else self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.p == o.p and self.q == o.q and self.d == o.d

    def __hash__(self):
        # a rational value hashes as the int or Fraction it equals
        return hash((self.p, self.q, self.d)) if self.q else hash(self.a)

    def __bool__(self):
        return self.p != 0 or self.q != 0

    # -- order under the distinguished embedding --------------------------

    def sign(self) -> int:
        """Exact sign under sqrt(2) -> +1.414...: with d > 0 it is the sign
        of p + q sqrt2, decided when p and q differ in sign by p^2 vs 2 q^2."""
        p, q = self.p, self.q
        sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
        if sp == sq or not sq:
            return sp
        if not sp:
            return sq
        return sp if p * p > 2 * q * q else sq   # never equal: sqrt 2 irrational

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- field-theoretic operations ---------------------------------------

    def conjugate(self) -> "KElem":
        """The nontrivial Galois conjugate a + b*sqrt(2) -> a - b*sqrt(2)."""
        return _canon(self.p, -self.q, self.d)

    def norm(self) -> Fraction:
        """Field norm x * conj(x) = a^2 - 2 b^2 = (p^2 - 2 q^2)/d^2."""
        return Fraction(self.p ** 2 - 2 * self.q ** 2, self.d ** 2)

    def is_square(self):
        """Decide x = r^2 for some r in k; returns (bool, witness or None).

        It reads the triple (p + q sqrt2)/d alone, by one fact: a rational
        u/v >= 0 is a square exactly when u v is a perfect square.  With q = 0,
        p d = n^2 gives the root n/d, else 2 p d = n^2 gives (n/2d) sqrt2.
        With q != 0, a root r + s sqrt2 forces 2 r^4 - 2 (p/d) r^2 + (q/d)^2
        = 0, so the norm p^2 - 2 q^2 must be a square m^2 and one of
        r^2 = (p + m)/2d, (p - m)/2d a rational square: the first
        2d (p +- m) = n^2 with n != 0 gives the root n/2d + (q/n) sqrt2, its
        sign made positive.
        """
        p, q, d = self.p, self.q, self.d
        if not q:
            n = _exact_isqrt(p * d)
            if n is not None:
                return True, _canon(n, 0, d)
            n = _exact_isqrt(2 * p * d)
            if n is not None:
                return True, _canon(0, n, 2 * d)
            return False, None
        m = _exact_isqrt(p * p - 2 * q * q)
        if m is None:
            return False, None
        for t in (p + m, p - m):
            n = _exact_isqrt(2 * d * t)
            if n:
                return True, abs(_canon(n * n, 2 * d * q, 2 * d * n))
        return False, None

    def embed(self, precision: int = 64) -> RealInterval:
        """Certified enclosure of x under the distinguished embedding: floor
        and ceil of x 2^k over 2^k, k = precision.  x 2^k's numerator
        p 2^k + q 2^k sqrt2 is n = p 2^k + floor(q 2^k sqrt2) when q = 0, else
        lies in (n, n + 1), so the ends are n // d and ceil((n + [q != 0]) / d),
        at most one unit apart whatever the size of p, q and d."""
        _check_precision(precision)
        p, q, d, k = self.p, self.q, self.d, precision
        n = (p << k) + _floor_rt2(q << k)
        return _interval(n // d, -(-(n + (q != 0)) // d), k)

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        a, q = _ratio_text(self.p, self.d), self.q
        if not q:
            return a
        return f"{a}{'+' if q > 0 else '-'}{_ratio_text(abs(q), self.d)}*rt2"

    def __repr__(self):
        return f"KElem({self.a!r}, {self.b!r})"

    def __str__(self):
        return self.to_text()


# the slots are written through their descriptors, past the __setattr__ guard
_set_p, _set_q, _set_d = KElem.p.__set__, KElem.q.__set__, KElem.d.__set__


def _canon(p: int, q: int, d: int) -> KElem:
    """The KElem (p + q sqrt2)/d for any d != 0, put in canonical form."""
    if d != 1:
        g = math.gcd(p, q, d)
        if d < 0:
            g = -g
        if g != 1:
            p, q, d = p // g, q // g, d // g
    x = object.__new__(KElem)
    _set_p(x, p)
    _set_q(x, q)
    _set_d(x, d)
    return x


def _ratio_text(n: int, d: int) -> str:
    """n/d in lowest terms as str(Fraction(n, d)) prints it, for d > 0."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def as_kelem(x) -> KElem:
    """x as a KElem: the converter of every constructor that takes values of
    k.  An int, Fraction or KElem is accepted; anything else raises TypeError
    (``KElem._lift`` answers NotImplemented instead, for the operators)."""
    out = KElem._lift(x)
    if out is NotImplemented:
        raise TypeError(f"expected int, Fraction or KElem, got {type(x).__name__}")
    return out


SQRT2 = KElem(0, 1)
K_ONE = KElem(1)
K_ZERO = KElem(0)


_TERM_RE = re.compile(r"^(?P<num>[+-]?\d+)(?:/(?P<den>\d*[1-9]\d*))?(?:\*(?P<rad>rt2))?$"
                      r"|^(?P<sign>[+-]?)rt2$")


def parse_kelem(text: str) -> KElem:
    """Parse 'p/q', 'p/q+r/s*rt2' and friends; inverse of KElem.to_text."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty field element")
    chunks = re.findall(r"[+-]?[^+-]+", s)
    if "".join(chunks) != s:
        raise ValueError(f"cannot parse field element: {text!r}")
    p, q, d = 0, 0, 1       # the sum so far, (p + q sqrt2)/d
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"cannot parse term {chunk!r} in {text!r}")
        n, e = int(m["num"] or m["sign"] + "1"), int(m["den"] or 1)
        if m["num"] and not m["rad"]:
            p, q = p * e + n * d, q * e
        else:
            p, q = p * e, q * e + n * d
        d *= e
    return _canon(p, q, d)


# ---------------------------------------------------------------------------
# quadratic towers K = k(sqrt d)
# ---------------------------------------------------------------------------

_SCALARS = (int, Fraction, KElem)


class TowerElem(Immutable):
    """An element u + v*sqrt(d) of the tower k(sqrt d) with v != 0; d, a
    positive non-square of k, is its ``radicand``.

    A tower is entered through ``sqrt_k``: u + v * sqrt_k(d) is built by the
    operators.  A value with no sqrt(d) part is the KElem u, so every value
    has one form: equal values compare and hash alike, a TowerElem is never
    zero and never equals a value of k, and a value of k combines with any
    tower.  Elements of two towers raise ContextMismatchError when mixed and
    compare unequal.
    """

    __slots__ = ("u", "v", "radicand")

    def _check(self, o: "TowerElem"):
        if o.radicand is not self.radicand and o.radicand != self.radicand:
            raise ContextMismatchError(
                f"mixing towers k(sqrt({o.radicand})) and k(sqrt({self.radicand}))")

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            return _tower(self.u + other, self.v, self.radicand)
        if not isinstance(other, TowerElem):
            return NotImplemented
        self._check(other)
        return _tower(self.u + other.u, self.v + other.v, self.radicand)

    __radd__ = __add__

    def __neg__(self):
        return _tower(-self.u, -self.v, self.radicand)

    def __sub__(self, other):
        if not isinstance(other, (TowerElem,) + _SCALARS):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return _tower(self.u * other, self.v * other, self.radicand)
        if not isinstance(other, TowerElem):
            return NotImplemented
        self._check(other)
        d = self.radicand
        return _tower(self.u * other.u + d * self.v * other.v,
                      self.u * other.v + self.v * other.u, d)

    __rmul__ = __mul__

    def tower_norm(self) -> KElem:
        return self.u * self.u - self.radicand * self.v * self.v

    def inverse(self) -> "TowerElem":
        """conj / norm; the norm is nonzero because v != 0 and d is not a
        square in k."""
        n = self.tower_norm()
        return _tower(self.u / n, -self.v / n, self.radicand)

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return _tower(self.u / other, self.v / other, self.radicand)
        if not isinstance(other, TowerElem):
            return NotImplemented
        self._check(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return self.inverse() * other

    def __eq__(self, other):
        if isinstance(other, TowerElem):
            return self.radicand == other.radicand and self.u == other.u and self.v == other.v
        return False if isinstance(other, _SCALARS) else NotImplemented

    def __hash__(self):
        return hash((self.u, self.v, self.radicand))

    def sign(self) -> int:
        """Exact sign, with sqrt(d) -> positive root (same logic as KElem)."""
        su, sv = self.u.sign(), self.v.sign()
        if su == sv or not su:
            return sv
        cmp = self.tower_norm().sign()
        return cmp if su > 0 else -cmp   # cmp != 0: d is not a square in k

    def embed(self, precision: int = 64) -> RealInterval:
        return (self.u.embed(precision)
                + self.v.embed(precision) * _sqrt_embed(self.radicand, precision))

    def to_text(self) -> str:
        return f"({self.u.to_text()})+({self.v.to_text()})*rtA"

    def __repr__(self):
        return f"TowerElem({self.u!r}, {self.v!r}, d={self.radicand!r})"

    def __str__(self):
        return self.to_text()


_set_u, _set_v = TowerElem.u.__set__, TowerElem.v.__set__
_set_radicand = TowerElem.radicand.__set__


def _tower(u: KElem, v: KElem, radicand: KElem):
    """u + v*sqrt(radicand) in its one form: u itself when v = 0.  The
    radicand must be a positive non-square of k, as ``sqrt_k`` decides."""
    if not v:
        return u
    x = object.__new__(TowerElem)
    _set_u(x, u)
    _set_v(x, v)
    _set_radicand(x, radicand)
    return x


def _sqrt_embed(r: KElem, precision: int) -> RealInterval:
    """An enclosure of sqrt(r), r = (p + q sqrt2)/d > 0, at most one unit
    wide at k = precision bits: sqrt(r) 2^k = sqrt(z) / d for z = (p + q sqrt2)
    d 4^k, and floor(sqrt z) = isqrt(floor z), so sqrt(r) 2^k lies in [s/d,
    (s + 1)/d] for s = isqrt(p d 4^k + floor(q d 4^k sqrt2))."""
    d, k = r.d, 2 * precision
    s = math.isqrt((r.p * d << k) + _floor_rt2(r.q * d << k))
    return _interval(s // d, -(-(s + 1) // d), precision)


def as_tower_coords(x):
    """View any field element as (u, v) with x = u + v*sqrt(a), u, v in k."""
    if isinstance(x, TowerElem):
        return x.u, x.v
    return as_kelem(x), K_ZERO


def sqrt_k(x):
    """The non-negative square root of x >= 0 in k, in its one form: the KElem
    root when x is a square in k, else the generator sqrt(x) of the tower
    k(sqrt x).  This is the one way into a tower, and it decides once whether
    x is a square.  A negative x raises ValueError."""
    x = as_kelem(x)
    if x.sign() < 0:
        raise ValueError(f"{x} < 0 has no real square root")
    square, root = x.is_square()
    return root if square else _tower(K_ZERO, K_ONE, x)


def embed(x, precision: int = 64) -> RealInterval:
    """Certified interval for a Rational, KElem, or TowerElem."""
    if isinstance(x, (int, Fraction)):
        return RealInterval.exact(x, precision)
    return x.embed(precision)
