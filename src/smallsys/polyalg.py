"""Exact polynomial machinery: minimal polynomials of numbers quadratic
over k = Q(sqrt 2), algebraic-integer tests, Mahler measure, and bounded
enumeration of monic integer polynomials.

Minimal polynomials are exact: every number involved lies in a tower over
k, its characteristic polynomial over Q is the k/Q norm of its
characteristic polynomial over k, and that is a power of the minimal
polynomial (Cohen, A Course in Computational Algebraic Number Theory,
4.3), so the minimal polynomial is its squarefree part.  The Mahler
enumeration walks, on integers, the binomial box cut by the power-sum
bound |s_k| <= d - 1 + mu^k, and decides each candidate there (Kronecker
test, then Graeffe and Landau bounds against the exact cap); certified root
finding serves the measures and the few polynomials left undecided.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from .exactfield import K_ONE, KElem, RealInterval, escalate
from .exactfield import PrecisionError  # noqa: F401  the Mahler measure raises it

GRAEFFE_STEPS = 6       # iterates tried before the certified measure decides
GUARD_TOL = 1e-9        # width of the guard band above the enumeration cap


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _strip(coeffs):
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class QPoly:
    """A polynomial over Q, coefficients constant-first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _strip(Fraction(c) for c in coeffs))

    def __setattr__(self, *_):
        raise AttributeError("QPoly is immutable")

    @classmethod
    def zero(cls):
        return cls([0])

    def is_zero(self) -> bool:
        return self.coeffs == (Fraction(0),)

    def degree(self) -> int:
        return -1 if self.is_zero() else len(self.coeffs) - 1

    def lc(self) -> Fraction:
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return self.lc() == 1 and not self.is_zero()

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __neg__(self):
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return QPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            for j, d in enumerate(other.coeffs):
                out[i + j] += c * d
        return QPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = self.degree() - other.degree()
        if dq < 0:
            return QPoly.zero(), self
        quo = [Fraction(0)] * (dq + 1)
        d = other.coeffs
        for k in range(dq, -1, -1):
            c = rem[other.degree() + k] / d[-1]
            quo[k] = c
            if c:
                for j, dc in enumerate(d):
                    rem[j + k] -= c * dc
        return QPoly(quo), QPoly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self) -> "QPoly":
        if self.is_zero():
            raise ValueError("zero polynomial has no monic form")
        return QPoly([c / self.lc() for c in self.coeffs])

    def derivative(self) -> "QPoly":
        if self.degree() <= 0:
            return QPoly.zero()
        return QPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def content_primitive(self):
        """Positive content and primitive integer part (lc sign preserved)."""
        if self.is_zero():
            return Fraction(0), ZPoly([0])
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        g = math.gcd(*ints)
        return Fraction(g, den), ZPoly([c // g for c in ints])

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def to_text(self) -> str:
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"

    def __repr__(self):
        return f"QPoly({list(self.coeffs)!r})"


class ZPoly:
    """A polynomial over Z, coefficients constant-first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        ints = [int(c) for c in coeffs]
        if ints != coeffs:
            raise TypeError("ZPoly needs integer coefficients")
        object.__setattr__(self, "coeffs", _strip(ints))

    def __setattr__(self, *_):
        raise AttributeError("ZPoly is immutable")

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def degree(self) -> int:
        return -1 if self.is_zero() else len(self.coeffs) - 1

    def lc(self) -> int:
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return self.lc() == 1

    def __eq__(self, other):
        return isinstance(other, ZPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __lt__(self, other):
        return (self.degree(), self.coeffs) < (other.degree(), other.coeffs)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return ZPoly([0])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            for j, d in enumerate(other.coeffs):
                out[i + j] += c * d
        return ZPoly(out)

    def shift_out_zero_roots(self):
        """Drop x^v factors; returns (v, reduced poly)."""
        v = 0
        coeffs = list(self.coeffs)
        while len(coeffs) > 1 and coeffs[0] == 0:
            coeffs.pop(0)
            v += 1
        return v, ZPoly(coeffs)

    def to_qpoly(self) -> QPoly:
        return QPoly(self.coeffs)

    def to_text(self) -> str:
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"

    def __repr__(self):
        return f"ZPoly({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# quadratic algebraic numbers over k
# ---------------------------------------------------------------------------

class QuadAlgNum:
    """A chosen real root of x^2 - trace*x + norm with trace, norm in k.

    ``branch`` +1 selects (trace + sqrt(disc))/2, -1 the other root; the
    discriminant must be nonnegative under the distinguished embedding.
    """

    __slots__ = ("trace", "norm", "branch")

    def __init__(self, trace, norm, branch=1):
        trace = KElem._lift(trace)
        norm = KElem._lift(norm)
        if branch not in (1, -1):
            raise ValueError("branch must be +1 or -1")
        if (trace * trace - 4 * norm).sign() < 0:
            raise ValueError("negative discriminant: no real root on this branch")
        object.__setattr__(self, "trace", trace)
        object.__setattr__(self, "norm", norm)
        object.__setattr__(self, "branch", branch)

    def __setattr__(self, *_):
        raise AttributeError("QuadAlgNum is immutable")

    @classmethod
    def from_kelem(cls, r) -> "QuadAlgNum":
        r = KElem._lift(r)
        return cls(2 * r, r * r, 1)

    def disc(self) -> KElem:
        return self.trace * self.trace - 4 * self.norm

    def numeric(self, precision: int = 64) -> RealInterval:
        root = self.disc().embed(precision).sqrt()
        t = self.trace.embed(precision)
        return (t + root if self.branch > 0 else t - root) / 2

    def __float__(self):
        return float(self.numeric(64))

    def affine(self, a, b) -> "QuadAlgNum":
        """a*self + b for a, b in k."""
        a = KElem._lift(a)
        b = KElem._lift(b)
        if not a:
            return QuadAlgNum.from_kelem(b)
        t, n = self.trace, self.norm
        return QuadAlgNum(a * t + 2 * b, a * a * n + a * b * t + b * b,
                          self.branch * a.sign())

    def __repr__(self):
        return (f"QuadAlgNum(trace={self.trace}, norm={self.norm}, "
                f"branch={'+' if self.branch > 0 else '-'})")


def _squarefree_part(p: QPoly) -> QPoly:
    d = p.derivative()
    if d.is_zero():
        return p.monic()
    g = _poly_gcd(p, d)
    return (p // g).monic()


def _poly_gcd(p: QPoly, q: QPoly) -> QPoly:
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def _norm_to_Q(coeffs) -> QPoly:
    """N_{k/Q} of a polynomial with coefficients in k (constant first):
    writing it as A + sqrt(2) B with A, B over Q, the norm is A^2 - 2 B^2."""
    A = QPoly([c.a for c in coeffs])
    B = QPoly([c.b for c in coeffs])
    return A * A - 2 * (B * B)


def _k_value(lam: QuadAlgNum):
    """lam as an element of k when its discriminant is a square in k, else None."""
    square, root = lam.disc().is_square()
    return (lam.trace + lam.branch * root) / 2 if square else None


def minpoly_over_Q(lam: QuadAlgNum) -> QPoly:
    """Monic minimal polynomial of lam over Q.

    When lam lies in k the answer is read off directly.  Otherwise
    x^2 - t x + n is the characteristic polynomial of lam over k, so its
    k/Q norm A^2 - 2 B^2 is the characteristic polynomial over Q: a power of
    the minimal polynomial, which is therefore its squarefree part.
    """
    r = _k_value(lam)
    if r is not None:
        return QPoly([-r.a, 1]) if not r.b else QPoly([r.norm(), -2 * r.a, 1])
    return _squarefree_part(_norm_to_Q([lam.norm, -lam.trace, K_ONE]))


def product(lam: QuadAlgNum, mu: QuadAlgNum, precision: int = 64):
    """The monic minimal polynomial over Q of lam*mu, together with an
    isolating interval for the product.

    A factor in k rescales the other one.  When disc(lam) * disc(mu) is a
    square in k, mu is an affine image of lam over k and lam*mu is again
    quadratic over k.  Otherwise k(lam, mu) has degree 4 over k, and the
    quartic over k whose roots are the four products lam_i * mu_j is the
    characteristic polynomial of lam*mu there; its k/Q norm is a power of
    the minimal polynomial.
    """
    r, s = _k_value(lam), _k_value(mu)
    if r == 0 or s == 0:
        return QPoly([0, 1]), RealInterval.exact(0, precision)
    iv = lam.numeric(precision) * mu.numeric(precision)
    if r is not None:
        return minpoly_over_Q(mu.affine(r, 0)), iv
    if s is not None:
        return minpoly_over_Q(lam.affine(s, 0)), iv
    t1, n1, t2, n2 = lam.trace, lam.norm, mu.trace, mu.norm
    d1 = lam.disc()
    square, root = (d1 * mu.disc()).is_square()
    if square:
        # sqrt(disc mu) = c sqrt(disc lam) with c = root / d1 > 0, so mu = a lam + b
        # with a = +-c and b = (t2 - a t1) / 2; lam^2 = t1 lam - n1 then gives
        # lam*mu = (a t1 + b) lam - a n1
        a = lam.branch * mu.branch * root / d1
        return minpoly_over_Q(lam.affine((a * t1 + t2) / 2, -a * n1)), iv
    quartic = [n1 * n1 * n2 * n2, -t1 * t2 * n1 * n2,
               n2 * (t1 * t1 - 2 * n1) + n1 * t2 * t2, -t1 * t2, K_ONE]
    return _squarefree_part(_norm_to_Q(quartic)), iv


def is_algebraic_integer(obj) -> bool:
    """True iff the monic minimal polynomial has integer coefficients."""
    if isinstance(obj, QuadAlgNum):
        return minpoly_over_Q(obj).is_integral()
    if isinstance(obj, QPoly):
        if not obj.is_monic():
            raise ValueError("expected a monic minimal polynomial")
        return obj.is_integral()
    raise TypeError(f"cannot test {type(obj).__name__} for integrality")


# ---------------------------------------------------------------------------
# Mahler measure
# ---------------------------------------------------------------------------

def _graeffe(c):
    """Coefficients (constant first) of the monic polynomial whose roots are
    the squares of the roots of the monic one with coefficients c."""
    d = len(c) - 1
    neg = [-v if i % 2 else v for i, v in enumerate(c)]          # c(-x)
    prod = [0] * (2 * d + 1)                                     # c(x) c(-x)
    for i, a in enumerate(c):
        for j, b in enumerate(neg):
            prod[i + j] += a * b
    return tuple(-v for v in prod[::2]) if d % 2 else tuple(prod[::2])


def is_measure_one(p: ZPoly) -> bool:
    """Exact Kronecker test: a monic integer polynomial has Mahler measure 1
    iff its Graeffe iterates stay within the binomial coefficient bounds and
    eventually repeat (all roots then being zero or roots of unity)."""
    if not p.is_monic():
        raise ValueError("measure-one test expects a monic polynomial")
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
        coeffs = _graeffe(coeffs)


def _monic_measure_certified(f: QPoly, rel_tol: float):
    """(lo, hi) enclosure of prod max(1, |root|) for monic f, by exact
    squarefree splitting followed by escalating-precision root finding."""
    if f.degree() <= 0:
        return 1.0, 1.0
    d = f.derivative()
    g = _poly_gcd(f, d)
    if g.degree() > 0:
        h = (f // g).monic()
        lo1, hi1 = _monic_measure_certified(h, rel_tol / 2)
        lo2, hi2 = _monic_measure_certified(g.monic(), rel_tol / 2)
        return lo1 * lo2, hi1 * hi2
    _, P = f.content_primitive()

    def measure(prec):      # None when the root solve fails or is too coarse
        with mpmath.workprec(prec):
            try:
                roots, err = mpmath.polyroots(
                    [mpmath.mpf(c) for c in reversed(P.coeffs)],
                    maxsteps=200, extraprec=prec, error=True)
            except mpmath.libmp.NoConvergence:
                return None
            roots = [mpmath.mpc(r) for r in roots]
        e = 4 * float(err) + 2.0 ** (1 - prec)
        lo, hi = 1.0, 1.0
        for r in roots:
            a = abs(r)
            lo *= float(max(1.0, a - e))
            hi *= float(max(1.0, a + e))
        return (lo, hi) if hi - lo <= rel_tol * lo else None
    return escalate(measure, 64, "Mahler measure did not converge")


def mahler_measure(p: ZPoly, tol: float) -> float:
    """|lc| * prod max(1, |root|), certified to absolute error < tol."""
    if p.is_zero():
        raise ValueError("Mahler measure of the zero polynomial")
    if tol <= 0:
        raise ValueError("tol must be positive")
    _, q = p.shift_out_zero_roots()
    scale = abs(q.lc())
    if q.degree() == 0:
        return float(abs(q.coeffs[0]))
    monic = q.to_qpoly().monic()
    # relative tolerance sized from Landau's bound M(q) <= ||q||_2
    rel = tol / (2 * scale * math.hypot(*q.coeffs))
    lo, hi = _monic_measure_certified(monic, max(rel, 1e-17))
    return scale * (lo + hi) / 2


def _mirror(p: ZPoly) -> ZPoly:
    """The monic polynomial (-1)^d p(-x), which has the same Mahler measure."""
    d = p.degree()
    return ZPoly([c if (d - i) % 2 == 0 else -c for i, c in enumerate(p.coeffs)])


def _graeffe_verdict(p: ZPoly, powers) -> bool | None:
    """Whether M(p) <= mu for monic p, or None when the first GRAEFFE_STEPS
    iterates p_k leave it open; ``powers`` holds mu^(2^k) as (numerator,
    denominator).  max_j |c_j(p_k)| / binom(d, j) <= M(p)^(2^k) <= ||p_k||_2,
    the second by Landau's inequality."""
    _, q = p.shift_out_zero_roots()
    d, coeffs = q.degree(), q.coeffs
    binoms = [math.comb(d, j) for j in range(d + 1)]
    for num, den in powers:
        if any(abs(c) * den > b * num for c, b in zip(coeffs, binoms)):
            return False
        if sum(c * c for c in coeffs) * den * den <= num * num:
            return True
        coeffs = _graeffe(coeffs)
    return None


def _candidates(d: int, num: int, den: int):
    """Monic integer p of degree d with p(0) != 0, one per mirror pair, whose
    c_k (coefficient of x^(d-k)) meet |c_k| <= binom(d, k) mu and the power-sum
    bound |s_k| <= d - 1 + mu^k for mu = num/den: by Newton's identity
    k c_k = -(s_k + sum_{i<k} c_i s_{k-i}) with integers s_1..s_{k-1}."""
    sums = [d - 1 + num ** k // den ** k for k in range(d + 1)]
    binoms = [math.comb(d, k) * num // den for k in range(d + 1)]
    c, s = [1] + [0] * d, [d] + [0] * d

    def extend(k):
        t = sum(c[i] * s[k - i] for i in range(1, k))
        lo = max(-binoms[k] if k > 1 else 0, -((sums[k] + t) // k))
        for ck in range(lo, min(binoms[k], (sums[k] - t) // k) + 1):
            c[k], s[k] = ck, -k * ck - t
            if k < d:
                yield from extend(k + 1)
            # c_1 >= 0; at c_1 = 0 the first nonzero odd c_k must be positive
            elif ck and (c[1] or next((x for x in c[3::2] if x), 1) > 0):
                yield ZPoly(c[::-1])
    return extend(1)


def _class_measure(p: ZPoly, memo: dict) -> float:
    """mahler_measure to 1e-10 of monic p with p(0) != 0, computed once per
    class under x -> -x and reversal, on the class's least member."""
    key = min(p, _mirror(p))
    if abs(p.coeffs[0]) == 1:
        rev = ZPoly([p.coeffs[0] * c for c in reversed(p.coeffs)])
        key = min(key, rev, _mirror(rev))
    if key not in memo:
        memo[key] = mahler_measure(key, 1e-10)
    return memo[key]


def _accepted(d: int, mu: float, memo: dict):
    """(p, measure one?) for the candidates of degree d with measure <= mu."""
    m = Fraction(mu)
    powers = [(m.numerator ** (1 << k), m.denominator ** (1 << k))
              for k in range(GRAEFFE_STEPS + 1)]
    for poly in _candidates(d, m.numerator, m.denominator):
        one = is_measure_one(poly)
        verdict = one or _graeffe_verdict(poly, powers)
        if verdict is None:
            verdict = _class_measure(poly, memo) <= mu + GUARD_TOL
        if verdict:
            yield poly, one


def _bounded_verdicts(D: int, mu: float):
    """enumerate_bounded's polynomials mapped to whether their measure is one."""
    if D < 1 or mu < 1:
        raise ValueError("D and mu must be at least 1")
    out, memo = {ZPoly([0] * j + [1]): True for j in range(1, D + 1)}, {}
    for d in range(1, D + 1):
        for poly, one in _accepted(d, mu, memo):
            for j in range(D - d + 1):      # x^j p has the measure of p
                shifted = ZPoly([0] * j + list(poly.coeffs))
                out[shifted] = out[_mirror(shifted)] = one
    return out


def enumerate_bounded(D: int, mu: float):
    """All monic integer polynomials of degree 1..D with Mahler measure
    <= mu, possibly including a guard band of measures in
    (mu, mu + GUARD_TOL].  The walk covers one of each mirror pair with
    p(0) != 0 in the box |a_{d-i}| <= binom(d, i) mu cut by the power-sum
    bound |s_k| <= d - 1 + mu^k; mirrors and x^j p complete the list.  Each
    is decided on integers (Kronecker test, then Graeffe and Landau bounds
    against the exact rational mu) unless GRAEFFE_STEPS iterates leave it
    to the certified measure."""
    return sorted(_bounded_verdicts(D, mu))


def min_mahler_above_one(D: int):
    """Minimum Mahler measure strictly above 1 among monic integer
    polynomials of degree <= D, with its witness; ties (within 1e-9) resolved
    by smallest (degree, coefficient list).  Each degree is searched up to
    the least measure so far plus the tie band and the measure's error."""
    if D < 1:
        raise ValueError("D must be at least 1")
    memo = {}
    for cap in (1.4, 1.7, 2.0001):
        measured = []
        for d in range(1, D + 1):
            for poly, one in _accepted(d, cap + 1e-9 + 1e-10, memo):
                if not one:
                    value = _class_measure(poly, memo)
                    cap = min(cap, value)
                    measured += [(value, poly), (value, _mirror(poly))]
        if measured:
            best = min(m for m, _ in measured)
            return best, min(p for m, p in measured if m <= best + 1e-9)
    raise AssertionError("unreachable: x - 2 has measure 2")


def epsilon_gap(D: int) -> float:
    """The systole gap constant log(min Mahler measure above 1) at degree D."""
    value, _ = min_mahler_above_one(D)
    return math.log(value)
