"""Exact polynomial machinery: minimal polynomials of numbers quadratic
over k = Q(sqrt 2) and of their products, algebraic-integer tests, Mahler
measure, and bounded enumeration of monic integer polynomials.

A number quadratic over k has the one form exactfield gives it: a KElem, or
a TowerElem u + v sqrt(d) with v != 0.  Minimal polynomials are exact and
read off one rule.  A number is a root of a monic f irreducible over k,
x - r for a value r of k; sigma, the automorphism sqrt2 -> -sqrt2, maps f
to f^sigma.  If f has rational coefficients it is the minimal polynomial
over Q.  Otherwise f and f^sigma are distinct irreducibles over k that both
divide the minimal polynomial, so that is their product, the k/Q norm of f,
taken on ints over the coefficients' common denominator.  The Mahler
enumeration walks, on integers, the binomial box cut by the power-sum
bound |s_k| <= d - 1 + mu^k, and decides each candidate there (Kronecker
test, then Graeffe and Landau bounds against the exact cap); the measure
decides the few left open, enclosed on ints by Smith's disks about the
roots of the squarefree layers an integer gcd splits off, which Aberth's
iteration in floats and Durand-Kerner steps on Gaussian ints approximate.
Every verdict against a cap or the best so far is decided on those
enclosures, never on a float, and equal measures meet as equal keys: the
least member under x -> -x and reversal of g, where g(x^k) is the
cyclotomic-free core (M(g(x^k)) = M(g)).  Enclosures, and min_mahler_above_one, are computed once per process;
from degree 3 on it walks only palindromic polynomials (Smyth 1971).
Polynomial objects carry no arithmetic: every product runs on coefficient
tuples in one loop, _mul, shared by the k/Q norm and the Graeffe step.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .combin import _totient
from .exactfield import (Immutable, K_ONE, RealInterval, TowerElem, _tower,
                         as_kelem, embed, escalate, sqrt_k)
from .exactfield import PrecisionError  # noqa: F401  the Mahler measure raises it

GRAEFFE_STEPS = 6       # iterates tried before the certified measure decides
ROOT_STEPS = 100        # iterations each root-finding stage may take


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _strip(coeffs):
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _mul(a, b):
    """The product of coefficient tuples a and b, constant first, on the
    nonzero coefficients of a."""
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b, i):
                out[j] += c * d
    return out


class QPoly(Immutable):
    """A polynomial over Q, coefficients constant-first: ints stay ints,
    which print, compare and hash as the equal Fractions do."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _strip(
            c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs))

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def degree(self) -> int:
        return -1 if self.is_zero() else len(self.coeffs) - 1

    def lc(self):
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return self.lc() == 1

    def __eq__(self, other):
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def to_text(self) -> str:
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"

    def __repr__(self):
        return f"{type(self).__name__}({list(self.coeffs)!r})"


class ZPoly(QPoly):
    """A QPoly that stores its integer coefficients as ints."""

    __slots__ = ()

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        ints = [int(c) for c in coeffs]
        if ints != coeffs:
            raise TypeError("ZPoly needs integer coefficients")
        object.__setattr__(self, "coeffs", _strip(ints))

    def __lt__(self, other):
        return (self.degree(), self.coeffs) < (other.degree(), other.coeffs)

    def shift_out_zero_roots(self):
        """Drop x^v factors; returns (v, reduced poly)."""
        v = next(i for i, c in enumerate(self.coeffs) if c or i == len(self.coeffs) - 1)
        return v, ZPoly(self.coeffs[v:])


# ---------------------------------------------------------------------------
# numbers quadratic over k
# ---------------------------------------------------------------------------

def _norm_to_Q(coeffs) -> QPoly:
    """The minimal polynomial over Q of the roots of f, monic and irreducible
    over k, from its coefficients in k (constant first).  Over the common
    denominator e of the coefficients, f = (A + sqrt(2) B)/e with A, B over Z,
    and it is A/e when B = 0.  Otherwise f and f^sigma = (A - sqrt(2) B)/e are
    distinct irreducibles over k that both divide it, so it is their
    squarefree product, the norm (A^2 - 2 B^2)/e^2.  Over e = 1 the
    coefficients stay ints."""
    e = math.lcm(*(c.d for c in coeffs))
    A = [c.p * e // c.d for c in coeffs]
    B = [c.q * e // c.d for c in coeffs]
    if any(B):
        A, e = [a - 2 * b for a, b in zip(_mul(A, A), _mul(B, B))], e * e
    return QPoly(A if e == 1 else [Fraction(a, e) for a in A])


def minpoly_over_Q(x) -> QPoly:
    """Monic minimal polynomial over Q of an int, Fraction, KElem or TowerElem,
    by one rule (``_norm_to_Q``).  A value r of k is the root of x - r.  A
    TowerElem u + v sqrt(d) has v != 0 and d is not a square in k, so it is a
    root of x^2 - 2u x + (u^2 - d v^2), irreducible over k.
    """
    if isinstance(x, TowerElem):
        return _norm_to_Q([x.tower_norm(), -2 * x.u, K_ONE])
    return _norm_to_Q([-as_kelem(x), K_ONE])


def product(lam, mu, precision: int = 64):
    """The monic minimal polynomial over Q of lam*mu, together with an
    isolating interval for the product; lam and mu are values of k or of
    towers over it.

    When a factor lies in k, or both lie in one tower, lam*mu is a value of
    that tower.  Otherwise lam = u1 + v1 sqrt(d1) and mu = u2 + v2 sqrt(d2).
    When d1 d2 is a square r^2 in k, sqrt(d2) = (r/d1) sqrt(d1) rewrites mu
    into lam's tower.  Else k(lam, mu) has degree 4 over k, and the only
    automorphism over k that can fix lam*mu flips both roots; it does when
    u1 = u2 = 0, and then lam*mu = v1 v2 sqrt(d1 d2) is a value of the tower
    k(sqrt(d1 d2)).  Otherwise the quartic whose roots are the four products
    lam_i * mu_j is irreducible over k (``_norm_to_Q``).
    """
    if not lam or not mu:
        return QPoly([0, 1]), RealInterval.exact(0, precision)
    iv = embed(lam, precision) * embed(mu, precision)
    if (isinstance(lam, TowerElem) and isinstance(mu, TowerElem)
            and lam.radicand != mu.radicand):
        root = sqrt_k(lam.radicand * mu.radicand)
        if not isinstance(root, TowerElem):
            mu = _tower(mu.u, mu.v * root / lam.radicand, lam.radicand)
        elif lam.u or mu.u:
            t1, n1, t2, n2 = 2 * lam.u, lam.tower_norm(), 2 * mu.u, mu.tower_norm()
            quartic = [n1 * n1 * n2 * n2, -t1 * t2 * n1 * n2,
                       n2 * (t1 * t1 - 2 * n1) + n1 * t2 * t2, -t1 * t2, K_ONE]
            return _norm_to_Q(quartic), iv
        else:
            lam, mu = root * lam.v, mu.v
    return minpoly_over_Q(lam * mu), iv


def is_algebraic_integer(x) -> bool:
    """True iff the monic minimal polynomial over Q of x, a value of k or of
    a tower over it, has integer coefficients."""
    return minpoly_over_Q(x).is_integral()


# ---------------------------------------------------------------------------
# Mahler measure
# ---------------------------------------------------------------------------

def _graeffe(c):
    """Coefficients (constant first) of the monic polynomial whose roots are
    the squares of the roots of the monic one with coefficients c."""
    prod = _mul(c, [-v if i % 2 else v for i, v in enumerate(c)])    # c(x) c(-x)
    return tuple(-v for v in prod[::2]) if (len(c) - 1) % 2 else tuple(prod[::2])


def _graeffe_walk(p: ZPoly, powers):
    """(M(p) = 1, M(p) <= mu) for monic p, both read off one walk over the
    Graeffe iterates p_k.  The first is Kronecker's exact test: the iterates
    stay within |c_j| <= binom(d, j) and so repeat exactly when every root is
    zero or a root of unity.  The second compares the first len(powers)
    iterates, ``powers`` holding mu^(2^k) >= 1 as (numerator, denominator),
    with max_j |c_j(p_k)| / binom(d, j) <= M(p)^(2^k) <= ||p_k||_2 (Landau);
    it is None when they leave it open, and True when the first is."""
    _, q = p.shift_out_zero_roots()
    d, coeffs = q.degree(), q.coeffs
    binoms = [math.comb(d, j) for j in range(d + 1)]
    one = verdict = None
    seen = set()
    for k in itertools.count():
        if one is None:
            if any(abs(c) > b for c, b in zip(coeffs, binoms)):
                one = False
            elif coeffs in seen:
                return True, True
            else:
                seen.add(coeffs)
        if verdict is None and k < len(powers):
            num, den = powers[k]
            if any(abs(c) * den > b * num for c, b in zip(coeffs, binoms)):
                verdict = False
            elif sum(c * c for c in coeffs) * den * den <= num * num:
                verdict = True
        if one is False and (verdict is not None or k + 1 >= len(powers)):
            return False, verdict
        coeffs = _graeffe(coeffs)


def _divide_exact(c, m):
    """The quotient of c by m when m divides c exactly over Z, else None
    (coefficients constant first, on ints)."""
    rem, dm = list(c), len(m) - 1
    quo = [0] * (len(c) - dm)
    for k in range(len(quo) - 1, -1, -1):
        q, r = divmod(rem[k + dm], m[-1])
        if r:
            return None
        quo[k] = q
        if q:
            for j, v in enumerate(m):
                rem[j + k] -= q * v
    return tuple(quo) if not any(rem[:dm]) else None


def _gcd(a, b):
    """The gcd of integer polynomials a and b, b not zero, primitive with a
    positive leading coefficient, by primitive pseudo-remainders: b over its
    content, then lc(b)^k a less multiples of b to a degree below b's."""
    while True:
        g = math.gcd(*b) if b[-1] > 0 else -math.gcd(*b)
        b, r = tuple(v // g for v in b), list(a)
        while len(r) >= len(b):
            c = r.pop()
            if c:
                r = [b[-1] * v for v in r]
                for j, v in enumerate(b[:-1], len(r) + 1 - len(b)):
                    r[j] -= c * v
        if not any(r):
            return b
        a, b = b, _strip(r)


def _squarefree_layers(c):
    """Squarefree h_1, h_2, ... of positive degree with product c: h_i =
    g_(i-1) / g_i holds each root of multiplicity >= i once, for g_0 = c and
    g_i the gcd of g_(i-1) and its derivative."""
    if len(c) == 1:
        return []
    g = _gcd(c, tuple(i * v for i, v in enumerate(c))[1:])
    return [_divide_exact(c, g)] + _squarefree_layers(g)


def _scaled_value(c, x, y, w: int):
    """2^(w d) c(z) for z = (x + iy) / 2^w and c of degree d (constant
    first), as the Gaussian int (re, im), by Horner's rule."""
    d = len(c) - 1
    vr, vi = c[-1], 0
    for k in range(d - 1, -1, -1):
        vr, vi = vr * x - vi * y + (c[k] << w * (d - k)), vr * y + vi * x
    return vr, vi


def _float_roots(c):
    """Approximate roots of the squarefree integer polynomial c (constant
    first) in complex floats, by Aberth's iteration from a circle about 0 of
    radius 2 max |c_k / c_d|^(1/(d-k)), which holds every root (Fujiwara),
    until each step moves every root by less than 2^-40 of max(1, |z|);
    None when floats overflow or divide by zero."""
    d = len(c) - 1
    try:
        a = [float(v) for v in c]
        r = 2 * max(abs(a[k] / a[d]) ** (1 / (d - k)) for k in range(d))
        z = [r * complex(math.cos(t), math.sin(t))
             for t in (2 * math.pi * j / d + 0.4 for j in range(d))]
        for _ in range(ROOT_STEPS):
            worst = 0.0
            for i, zi in enumerate(z):
                p, dp = a[d], 0.0
                for v in a[d - 1::-1]:
                    p, dp = p * zi + v, dp * zi + p
                w = p / dp
                w /= 1 - w * sum(1 / (zi - zj) for j, zj in enumerate(z) if j != i)
                z[i] = zi - w
                worst = max(worst, abs(w) / max(1.0, abs(zi)))
            if worst < 2 ** -40:
                break
    except ArithmeticError:
        return None
    return z if all(math.isfinite(v.real + v.imag) for v in z) else None


def _roots(c, prec: int):
    """The roots of the squarefree integer polynomial c (constant first) as
    Gaussian dyadics (x + iy) / 2^prec, listed as (x, y), or None when they
    do not settle.  ``_float_roots`` starts them; Durand-Kerner steps z_i -=
    c(z_i) / (lc prod_{j != i} (z_i - z_j)) on Gaussian ints over 2^(prec+4),
    exact for the current z, refine them until no correction exceeds one
    unit.  Smith's disks certify whatever comes back, so a poor root costs
    a higher precision, never a wrong measure."""
    z = _float_roots(c)
    if z is None:
        return None
    lc, w = c[-1], prec + 4
    z = [tuple((n << w) // m for n, m in map(float.as_integer_ratio, (v.real, v.imag)))
         for v in z]
    for _ in range(ROOT_STEPS):
        settled = True
        for i, (x, y) in enumerate(z):
            nr, ni = _scaled_value(c, x, y, w)
            dr, di = lc, 0          # lc 2^(w (d-1)) prod (z_i - z_j)
            for j, (u, v) in enumerate(z):
                if j != i:
                    dr, di = dr * (x - u) - di * (y - v), dr * (y - v) + di * (x - u)
            norm = dr * dr + di * di
            if not norm:
                return None
            # the correction n / d to the nearest Gaussian int
            qr = (2 * (nr * dr + ni * di) + norm) // (2 * norm)
            qi = (2 * (ni * dr - nr * di) + norm) // (2 * norm)
            z[i] = (x - qr, y - qi)
            settled = settled and abs(qr) <= 1 and abs(qi) <= 1
        if settled:
            return [((x + 8) >> 4, (y + 8) >> 4) for x, y in z]
    return None


def _smith_measure(c, prec: int):
    """|lc| prod max(1, |root|) of the squarefree integer polynomial c as a
    RealInterval at 2 prec bits, or None when ``_roots`` at prec bits, the
    Gaussian dyadics z_i = (x + iy) / 2^prec, do not isolate the roots.  By
    Smith (1970) the disks about z_i of radius r_i = d |c(z_i)| /
    (|lc| prod_{j != i} |z_i - z_j|) cover the roots of c, and each of them
    holds exactly one when they are pairwise disjoint."""
    d, q = len(c) - 1, 2 * prec
    z = _roots(c, prec)
    if z is None or len(set(z)) < d:
        return None

    def sqrt(num, den):
        return RealInterval.exact(Fraction(num, den), q).sqrt()
    sq = [[(x - u) ** 2 + (y - v) ** 2 for u, v in z] for x, y in z]
    radii, out = [], abs(c[-1])
    for i, (x, y) in enumerate(z):
        vr, vi = _scaled_value(c, x, y, prec)
        dist = math.prod(s for j, s in enumerate(sq[i]) if j != i)
        r = sqrt(d * d * (vr * vr + vi * vi), c[-1] ** 2 * dist << q)
        m = sqrt(x * x + y * y, 1 << q)                 # |z_i|
        out = RealInterval(max(1, m.lo - r.hi), max(1, m.hi + r.hi), q) * out
        radii.append(r.man_hi)
    # disjoint: r_i + r_j < |z_i - z_j|, both sides times 2^q and squared
    if all((radii[i] + radii[j]) ** 2 < sq[i][j] << q
           for i, j in itertools.combinations(range(d), 2)):
        return out


@functools.cache
def _enclosure(p: ZPoly, tol) -> RealInterval:
    """The Mahler measure |lc| * prod max(1, |root|) of p as an interval
    narrower than tol: x^j dropped, the product of the squarefree layers'
    Smith measures at the first precision from 64 bits that isolates their
    roots narrowly enough."""
    if p.is_zero():
        raise ValueError("Mahler measure of the zero polynomial")
    if tol <= 0:
        raise ValueError("tol must be positive")
    _, q = p.shift_out_zero_roots()
    if q.degree() == 0:
        return RealInterval.exact(abs(q.lc()))
    layers = _squarefree_layers(q.coeffs)

    def decide(prec):
        measures = [_smith_measure(h, prec) for h in layers]
        if None not in measures and (out := math.prod(measures)).width() < tol:
            return out
    return escalate(decide, 64, "Mahler measure did not converge")


def _mirror(p: ZPoly) -> ZPoly:
    """The monic polynomial (-1)^d p(-x), which has the same Mahler measure."""
    d = p.degree()
    return ZPoly([c if (d - i) % 2 == 0 else -c for i, c in enumerate(p.coeffs)])


def _candidates(d: int, num: int, den: int, reciprocal: bool = False):
    """Monic integer p of degree d with p(0) != 0, one per mirror pair, whose
    c_k (coefficient of x^(d-k)) meet |c_k| <= binom(d, k) mu and the power-sum
    bound |s_k| <= d - 1 + mu^k for mu = num/den: by Newton's identity
    k c_k = -(s_k + sum_{i<k} c_i s_{k-i}) with integers s_1..s_{k-1}.  With
    reciprocal, only the palindromic ones, c_(d-k) = c_k and c_d = 1: the walk
    chooses c_1..c_(d/2) and each later c_k must be the mirror c_(d-k)."""
    sums = [d - 1 + num ** k // den ** k for k in range(d + 1)]
    binoms = [math.comb(d, k) * num // den for k in range(d + 1)]
    c, s = [1] + [0] * d, [d] + [0] * d

    def extend(k):
        t = sum(c[i] * s[k - i] for i in range(1, k))
        lo = max(-binoms[k] if k > 1 else 0, -((sums[k] + t) // k))
        values = range(lo, min(binoms[k], (sums[k] - t) // k) + 1)
        if reciprocal and 2 * k > d:
            values = [c[d - k]] if c[d - k] in values else []
        for ck in values:
            c[k], s[k] = ck, -k * ck - t
            if k < d:
                yield from extend(k + 1)
            # c_1 >= 0; at c_1 = 0 the first nonzero odd c_k must be positive
            elif ck and (c[1] or next((x for x in c[3::2] if x), 1) > 0):
                yield ZPoly(c[::-1])
    return extend(1)


@functools.cache
def _cyclotomic(n: int) -> tuple:
    """Coefficients (constant first) of the cyclotomic polynomial Phi_n:
    x^n - 1 divided exactly by Phi_d for every proper divisor d of n."""
    out = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            out = _divide_exact(out, _cyclotomic(d))
    return out


@functools.cache
def _cyclotomics(d: int) -> tuple:
    """Every Phi_n of degree phi(n) <= d; phi(n) >= sqrt(n/2) bounds n by
    2 d^2, and only those n are built."""
    return tuple(_cyclotomic(n) for n in range(1, 2 * d * d + 1) if _totient(n) <= d)


def _core(p: ZPoly) -> ZPoly:
    """p with every cyclotomic factor divided out, multiplicities included;
    those factors have measure 1, so the core has the measure of p."""
    c = p.coeffs
    for phi in _cyclotomics(p.degree()):
        while len(phi) <= len(c) and (q := _divide_exact(c, phi)) is not None:
            c = q
    return ZPoly(c)


def _class_key(p: ZPoly) -> ZPoly:
    """The key of monic p's measure class: its cyclotomic-free core read as g
    when it is g(x^k), k the gcd of its exponents (M(g(x^k)) = M(g)), then the
    least member of g's class under x -> -x and reversal."""
    c = _core(p).coeffs
    g = ZPoly(c[::math.gcd(*(i for i, v in enumerate(c) if v)) or 1])  # a constant: gcd 0
    key = min(g, _mirror(g))
    if abs(g.coeffs[0]) == 1:
        rev = ZPoly([g.coeffs[0] * v for v in reversed(g.coeffs)])
        key = min(key, rev, _mirror(rev))
    return key


def _at_most(key: ZPoly, bound) -> bool:
    """M(key) <= bound, a Fraction cap or another key: equal keys tie, else the
    enclosures to 2^-34, 2^-68, ... decide once they separate.  Distinct keys
    of one measure, or a cap equal to a measure with irrational roots, raise
    PrecisionError past MAX_PRECISION bits."""
    if key == bound:
        return True

    def decide(bits):
        m = _enclosure(key, tol := Fraction(1, 1 << bits))
        b = (_enclosure(bound, tol) if isinstance(bound, ZPoly)
             else RealInterval.exact(bound, m.precision))
        if m.hi <= b.lo or m.lo > b.hi:
            return m.hi <= b.lo
    return escalate(decide, 34, "Mahler measures did not separate")


def _accepted(d: int, mu: Fraction, reciprocal: bool = False):
    """(p, one, key) for the candidates p of degree d with measure <= mu: one
    is M(p) = 1, and key is the class key of p when the Graeffe walk left p
    open and ``_at_most`` read it, else None."""
    powers = [(mu.numerator ** (1 << k), mu.denominator ** (1 << k))
              for k in range(GRAEFFE_STEPS + 1)]
    for poly in _candidates(d, mu.numerator, mu.denominator, reciprocal):
        one, verdict = _graeffe_walk(poly, powers)
        key = None if verdict is not None else _class_key(poly)
        if verdict or (key is not None and _at_most(key, mu)):
            yield poly, one, key


def enumerate_bounded(D: int, mu: float):
    """All monic integer polynomials of degree 1..D with Mahler measure
    <= mu.  The walk covers one of each mirror pair with p(0) != 0 in the box
    |a_{d-i}| <= binom(d, i) mu cut by the power-sum bound
    |s_k| <= d - 1 + mu^k; mirrors and x^j p complete the list.  Each is
    decided on integers (Kronecker test, then Graeffe and Landau bounds
    against the exact rational mu) unless GRAEFFE_STEPS iterates leave it to
    the certified measure of its class key (``_at_most``)."""
    if D < 1 or mu < 1:
        raise ValueError("D and mu must be at least 1")
    out = {ZPoly([0] * j + [1]) for j in range(1, D + 1)}
    for d in range(1, D + 1):
        for poly, _, _ in _accepted(d, Fraction(mu)):
            for j in range(D - d + 1):      # x^j p has the measure of p
                shifted = ZPoly([0] * j + list(poly.coeffs))
                out.update((shifted, _mirror(shifted)))
    return sorted(out)


@functools.cache
def min_mahler_above_one(D: int):
    """Minimum Mahler measure strictly above 1 among monic integer
    polynomials of degree <= D, the midpoint of its key's enclosure to 2^-34,
    with that key as witness.  One walk starts from x - 2, x^2 - x - 1, or
    from D = 3 on theta_0 = M(x^3 - x - 1), and caps each degree at the
    dyadic 2^-40 above the best key's enclosure, strictly above its measure.
    From D = 3 on it walks only palindromic p of even degree, p(0) = 1, by
    Smyth (1971): a nonzero algebraic integer, not a root of unity, whose
    minimal polynomial f is not reciprocal (x^deg f f(1/x) != +-f) has
    measure >= theta_0.  So 1 < M(p) < theta_0 needs an irreducible factor f
    of p with 1 < M(f) <= M(p), hence f = x^deg f f(1/x) (with the sign -,
    f(1) = 0), of even degree (an odd one vanishes at -1) and f(0) = 1.
    Anti-reciprocal p are x - 1 or x^2 - 1 times reciprocal ones.  Computed
    once per process for each D."""
    if D < 1:
        raise ValueError("D must be at least 1")
    best = ZPoly((-2, 1) if D == 1 else (-1, -1, 1) if D == 2 else (-1, -1, 0, 1))
    first = _enclosure(best, Fraction(1, 1 << 34))
    for d in range(1, D + 1) if D <= 2 else range(2, D + 1, 2):
        cap = Fraction(math.floor(first.hi * (1 << 40)) + 1, 1 << 40)
        for poly, one, key in _accepted(d, cap, D > 2):
            key = None if one else key or _class_key(poly)
            if key is not None and not _at_most(best, key):
                best, first = key, _enclosure(key, Fraction(1, 1 << 34))
    return float(first), best


def epsilon_gap(D: int) -> float:
    """The systole gap constant log(min Mahler measure above 1) at degree D."""
    value, _ = min_mahler_above_one(D)
    return math.log(value)
