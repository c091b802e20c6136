"""Diagonal quadratic forms of signature (n, 1) over k = Q(sqrt 2), exact
isometry verification, the one-parameter corner-block subgroup with its
rational conic parametrization, leading eigenvalues, translation lengths,
and a search for small ones that reads its parameter off a bound on t^2.
A translation length has one certified enclosure, which every decision reads.

Forms are diag(c_1, ..., c_n, -sqrt 2) with positive spatial coefficients;
matrices may have entries in k or in a quadratic tower over it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactfield import (KElem, RealInterval, SQRT2, TowerElem, escalate,
                         parse_kelem, sqrt2_interval)
from .polyalg import QuadAlgNum


class WrongBranchError(ValueError):
    """Parameter t lies on the wrong branch of the conic (alpha would be < 0)."""


class DegenerateParameterError(ValueError):
    """Parameter t hits the conic's asymptotic direction (sqrt2 t^2 = c)."""


class SearchExhaustedError(RuntimeError):
    """Height bound hit before reaching the target translation length."""

    def __init__(self, message, best=None, best_length=None):
        super().__init__(message)
        self.best = best
        self.best_length = best_length


def _sign_of(x) -> int:
    if isinstance(x, (KElem, TowerElem)):
        return x.sign()
    x = Fraction(x)
    return (x > 0) - (x < 0)


class QuadForm:
    """diag(spatial..., -sqrt 2) acting on n+1 variables."""

    __slots__ = ("n", "spatial", "temporal")

    def __init__(self, spatial):
        spatial = tuple(KElem._lift(c) for c in spatial)
        if not spatial:
            raise ValueError("need at least one spatial coefficient")
        for c in spatial:
            if c.sign() != 1:
                raise ValueError(f"spatial coefficient {c} is not positive")
        object.__setattr__(self, "n", len(spatial))
        object.__setattr__(self, "spatial", spatial)
        object.__setattr__(self, "temporal", -SQRT2)

    def __setattr__(self, *_):
        raise AttributeError("QuadForm is immutable")

    @classmethod
    def standard(cls, c, n: int) -> "QuadForm":
        """diag(c, 1, ..., 1, -sqrt 2) in n+1 variables."""
        if n < 1:
            raise ValueError("dimension must be at least 1")
        return cls([KElem._lift(c)] + [KElem(1)] * (n - 1))

    @property
    def first(self) -> KElem:
        return self.spatial[0]

    def diagonal(self):
        return self.spatial + (self.temporal,)

    def __eq__(self, other):
        return isinstance(other, QuadForm) and self.spatial == other.spatial

    def __hash__(self):
        return hash(self.spatial)

    def discriminant(self) -> KElem:
        out = KElem(1)
        for c in self.spatial:
            out = out * c
        return out * self.temporal

    def header(self) -> str:
        return "form: diag(" + ", ".join(c.to_text() for c in self.spatial) + ", -rt2)"

    def __repr__(self):
        return f"QuadForm({[c.to_text() for c in self.spatial]})"


def parse_form_header(line: str) -> QuadForm:
    s = line.strip()
    if not s.startswith("form: diag(") or not s.endswith(")"):
        raise ValueError(f"bad form header: {line!r}")
    toks = [t.strip() for t in s[len("form: diag("):-1].split(",")]
    if not toks or toks[-1] != "-rt2":
        raise ValueError("form header must end with the temporal coefficient -rt2")
    return QuadForm([parse_kelem(t) for t in toks[:-1]])


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def mat_mul(A, B):
    cols = tuple(zip(*B))
    return tuple(tuple(sum_prod(row, col) for col in cols) for row in A)


def sum_prod(row, col):
    total = None
    for a, b in zip(row, col):
        term = a * b
        total = term if total is None else total + term
    return total


def mat_vec(A, v):
    return tuple(sum_prod(row, v) for row in A)


def mat_identity(size, one=None):
    one = KElem(1) if one is None else one
    zero = one - one
    return tuple(tuple(one if i == j else zero for j in range(size)) for i in range(size))


def is_isometry(entries, form: QuadForm) -> bool:
    """Exact entrywise check M^T F M = F."""
    size = form.n + 1
    if len(entries) != size or any(len(row) != size for row in entries):
        raise ValueError("dimension mismatch between matrix and form")
    diag = form.diagonal()
    for i in range(size):
        for j in range(i, size):
            val = None
            for r in range(size):
                term = entries[r][i] * entries[r][j] * diag[r]
                val = term if val is None else val + term
            want = diag[i] if i == j else None
            if want is None:
                if val:
                    return False
            elif val != want:
                return False
    return True


def in_O_prime(entries, form: QuadForm) -> bool:
    """True iff the isometry preserves the upper hyperboloid sheet; a
    non-isometry raises ValueError."""
    return Isometry(entries, form).sheet_preserving


class Isometry:
    """A form-preserving matrix.  Construction from entries checks
    M^T F M = F exactly; products and inverses are closed under the group
    law, (AB)^T F (AB) = B^T (A^T F A) B = F and (F^{-1} M^T F) M = I, so
    they are built without checking again."""

    __slots__ = ("entries", "form", "sheet_preserving")

    def __init__(self, entries, form: QuadForm):
        entries = tuple(tuple(row) for row in entries)
        if not is_isometry(entries, form):
            raise ValueError("matrix does not preserve the form")
        self._fill(entries, form)

    @classmethod
    def _closed(cls, entries, form: QuadForm) -> "Isometry":
        """An isometry derived from verified ones by the group law."""
        out = object.__new__(cls)
        out._fill(entries, form)
        return out

    def _fill(self, entries, form):
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "sheet_preserving",
                           _sign_of(entries[form.n][form.n]) == 1)

    def __setattr__(self, *_):
        raise AttributeError("Isometry is immutable")

    @classmethod
    def identity(cls, form: QuadForm) -> "Isometry":
        return cls._closed(mat_identity(form.n + 1), form)

    def __mul__(self, other: "Isometry") -> "Isometry":
        if self.form != other.form:
            raise ValueError("isometries of different forms")
        return Isometry._closed(mat_mul(self.entries, other.entries), self.form)

    def inverse(self) -> "Isometry":
        """F^{-1} M^T F, exact; diagonal F makes this entrywise."""
        size = self.form.n + 1
        diag = self.form.diagonal()
        inv = tuple(tuple(self.entries[j][i] * diag[j] / diag[i]
                          for j in range(size)) for i in range(size))
        return Isometry._closed(inv, self.form)

    def trace(self):
        return sum_prod([1] * (self.form.n + 1),
                        [self.entries[i][i] for i in range(self.form.n + 1)])

    def __eq__(self, other):
        return (isinstance(other, Isometry) and self.form == other.form
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.entries, self.form))

    def __repr__(self):
        return f"Isometry({self.form!r}, {len(self.entries)}x{len(self.entries)})"


def serialize_isometry(iso: Isometry) -> str:
    lines = [iso.form.header()]
    for row in iso.entries:
        lines.append("row: " + ", ".join(
            e.to_text() if hasattr(e, "to_text") else str(e) for e in row))
    return "\n".join(lines) + "\n"


def parse_isometry(text: str) -> Isometry:
    lines = [ln for ln in (ln.strip() for ln in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty matrix file")
    form = parse_form_header(lines[0])
    rows = []
    for ln in lines[1:]:
        if not ln.startswith("row:"):
            raise ValueError(f"expected 'row: ...', got {ln!r}")
        rows.append(tuple(parse_kelem(t.strip()) for t in ln[4:].split(",")))
    return Isometry(rows, form)


# ---------------------------------------------------------------------------
# the corner-block one-parameter subgroup
# ---------------------------------------------------------------------------

class ABlockElement:
    """An element of the identity component of the corner-block subgroup:
    corners alpha / gamma acting on coordinates (1, n+1), identity between.

    The defining conic is c*alpha^2 - sqrt2*gamma^2 = c, and the expanded
    matrix has top-right entry sqrt2*gamma/c.
    """

    __slots__ = ("alpha", "gamma", "c", "n")

    def __init__(self, alpha, gamma, c, n: int):
        alpha = KElem._lift(alpha)
        gamma = KElem._lift(gamma)
        c = KElem._lift(c)
        if n < 2:
            raise ValueError("ambient dimension must be at least 2")
        if c * alpha * alpha - SQRT2 * gamma * gamma != c:
            raise ValueError("block does not satisfy the conic equation")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "n", n)

    def __setattr__(self, *_):
        raise AttributeError("ABlockElement is immutable")

    @property
    def top_right(self) -> KElem:
        return SQRT2 * self.gamma / self.c

    def parameter(self) -> KElem:
        """Recover the conic parameter t = gamma / (alpha - 1)."""
        if self.alpha == KElem(1):
            raise ValueError("identity block has no finite parameter")
        return self.gamma / (self.alpha - KElem(1))

    def form(self) -> QuadForm:
        return QuadForm.standard(self.c, self.n)

    def to_entries(self):
        size = self.n + 1
        zero, one = KElem(0), KElem(1)
        rows = []
        for i in range(size):
            row = [zero] * size
            if i == 0:
                row[0], row[size - 1] = self.alpha, self.top_right
            elif i == size - 1:
                row[0], row[size - 1] = self.gamma, self.alpha
            else:
                row[i] = one
            rows.append(tuple(row))
        return tuple(rows)

    def to_isometry(self, form: QuadForm | None = None) -> Isometry:
        return Isometry(self.to_entries(), form or self.form())

    def __eq__(self, other):
        return (isinstance(other, ABlockElement) and self.alpha == other.alpha
                and self.gamma == other.gamma and self.c == other.c and self.n == other.n)

    def __repr__(self):
        return (f"ABlockElement(alpha={self.alpha}, gamma={self.gamma}, "
                f"c={self.c}, n={self.n})")


def param_block(c, t, n: int) -> ABlockElement:
    """Block at conic parameter t: alpha = (c + sqrt2 t^2)/(sqrt2 t^2 - c),
    gamma = 2 c t/(sqrt2 t^2 - c); requires sqrt2 t^2 > c (loxodromic branch)."""
    c = KElem._lift(c)
    t = KElem._lift(t)
    den = SQRT2 * t * t - c
    s = den.sign()
    if s == 0:
        raise DegenerateParameterError(f"sqrt2*t^2 = c at t = {t}")
    if s < 0:
        raise WrongBranchError(
            f"sqrt2*t^2 < c at t = {t}: parameter is outside the identity component")
    alpha = (c + SQRT2 * t * t) / den
    gamma = 2 * c * t / den
    return ABlockElement(alpha, gamma, c, n)


def leading_eigenvalue(g: ABlockElement) -> QuadAlgNum:
    """The eigenvalue > 1 of the corner block: the + root of x^2 - 2 alpha x + 1
    (the determinant is 1 by the conic equation, checked on construction)."""
    if (g.alpha - KElem(1)).sign() <= 0:
        raise ValueError("alpha must exceed 1 for a loxodromic block")
    return QuadAlgNum(2 * g.alpha, KElem(1), 1)


def translation_length(g: ABlockElement, precision: int = 64) -> RealInterval:
    """The one certified enclosure of arccosh(alpha), as log(lambda) clamped at
    0: lambda's discriminant is exact in k, so near alpha = 1 no bits are lost
    to cancellation in alpha^2 - 1, as they are in arccosh of alpha's interval."""
    ell = leading_eigenvalue(g).numeric(precision).log()
    return RealInterval(max(ell.lo, Fraction(0)), ell.hi, precision)


def _length_below(g: ABlockElement, eps: Fraction, precision: int):
    """None when undecided at this precision, else whether translation_length
    < eps (cosh(eps) is never built, so a huge eps costs nothing)."""
    length = translation_length(g, precision)
    return True if length.hi < eps else False if length.lo > eps else None


def _guesses(c: KElem, eps: Fraction):
    """Least n with n^2 > T and least h with h^2 (1 + sqrt2)^2 > T, each right to
    within one, where T = (c/sqrt2) coth^2(eps/2): on the valid branch alpha(t) <
    cosh(eps) exactly when t^2 > T.  Capping eps/2 at 64 moves T by < c 2^-180."""
    x = min(eps / 2, Fraction(64))
    prec = 64 + max(0, x.denominator.bit_length() - x.numerator.bit_length())
    while True:     # the starting bits keep sinh(x) away from 0
        inv_sinh = 1 / RealInterval(x, x, prec).sinh()
        T = c.embed(prec) * (1 + inv_sinh * inv_sinh) / sqrt2_interval(prec)
        if T.width() < 1:
            return [math.isqrt(max(0, int(b.lo))) + 1
                    for b in (T, T * (3 - 2 * sqrt2_interval(prec)))]
        prec *= 2


def find_small_element(c, eps_target: float, height_bound: int) -> ABlockElement:
    """First block with 0 < translation length < eps_target among t = 1, 2, ...,
    height_bound, then t = u + v sqrt2 (v != 0) by height max(|u|, |v|), u and
    then v ascending.  Nothing is scanned: the length falls strictly as t^2
    grows, so the hits start at _guesses, the first in shell h at -h - h sqrt2,
    and _length_below confirms each boundary on both sides from 64 bits up
    (undecided at 4096 bits raises PrecisionError).  On exhaustion ``best`` is the
    block at -H - H sqrt2, of least length, or None when it is not loxodromic."""
    if eps_target <= 0:
        raise ValueError("eps_target must be positive")
    c, eps, cap = KElem._lift(c), Fraction(eps_target), height_bound + 1

    def block(t):
        try:
            return param_block(c, t, 2)
        except (WrongBranchError, DegenerateParameterError):
            return None

    def below(t):
        g = block(t)
        return g is not None and escalate(
            lambda prec: _length_below(g, eps, prec), 64,
            f"length at t = {t.to_text()} undecided at 4096 bits")

    for n, param in zip(_guesses(c, eps), (KElem, lambda h: KElem(-h, -h))):
        n = min(n, cap)     # below is monotone: step to below(n), not below(n - 1)
        while n < cap and not below(param(n)):
            n += 1
        while n > 1 and below(param(n - 1)):
            n -= 1
        if n < cap:
            return block(param(n))
    best = block(KElem(-height_bound, -height_bound))

    def priced(prec):       # the midpoint, once 2^-40 wide relative to the length
        ell = translation_length(best, prec)
        return float(ell) if ell.width() * 2 ** 40 < ell.lo else None
    best_len = None if best is None else escalate(
        priced, 64, f"length at height {height_bound} undecided at 4096 bits")
    raise SearchExhaustedError(
        f"no parameter of height <= {height_bound} reaches length < {eps_target}"
        + (f"; smallest length found {best_len:.6g}" if best_len is not None else ""),
        best=best, best_length=best_len)


def similarity_discriminant_obstruction(f: QuadForm, g: QuadForm) -> str:
    """'obstructed' when even rank forces equal discriminant square classes
    and the ratio is a non-square in k; 'inconclusive' otherwise."""
    if f.n != g.n:
        raise ValueError("forms of different dimensions")
    if (f.n + 1) % 2 == 1:
        return "inconclusive"
    ratio = f.discriminant() / g.discriminant()
    square, _ = ratio.is_square()
    return "inconclusive" if square else "obstructed"


# the two corner blocks of the standard worked instance: t = 1 on the unit
# form, t = (3/2) sqrt2 on the form with first coefficient 3
def block_g1(n: int = 2) -> ABlockElement:
    return param_block(KElem(1), KElem(1), n)


def block_g2(n: int = 2) -> ABlockElement:
    return param_block(KElem(3), KElem(0, Fraction(3, 2)), n)
