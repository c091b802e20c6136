"""Diagonal quadratic forms of signature (n, 1) over k = Q(sqrt 2), exact
isometry verification, the one-parameter corner-block subgroup with its
rational conic parametrization, leading eigenvalues, translation lengths,
and a search for small ones that decides its parameter exactly from a
certified threshold on t^2, computing no length for a hit.  A leading
eigenvalue alpha + sqrt(alpha^2 - 1) is a value of k or of the tower
k(sqrt(alpha^2 - 1)), in its one form; a translation length is the log of its
one certified enclosure, which every decision on a length reads.

Forms are diag(c_1, ..., c_n, -sqrt 2) with positive spatial coefficients;
matrices may have entries in k or in a quadratic tower over it.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

from .exactfield import (MAX_PRECISION, Immutable, K_ONE, K_ZERO, KElem, RealInterval,
                         SQRT2, TowerElem, as_kelem, embed, escalate, parse_kelem,
                         sqrt_k)


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


class QuadForm(Immutable):
    """diag(spatial..., -sqrt 2) acting on n+1 variables."""

    __slots__ = ("n", "spatial", "temporal")

    def __init__(self, spatial):
        spatial = tuple(as_kelem(c) for c in spatial)
        if not spatial:
            raise ValueError("need at least one spatial coefficient")
        for c in spatial:
            if c.sign() != 1:
                raise ValueError(f"spatial coefficient {c} is not positive")
        object.__setattr__(self, "n", len(spatial))
        object.__setattr__(self, "spatial", spatial)
        object.__setattr__(self, "temporal", -SQRT2)

    @classmethod
    def standard(cls, c, n: int) -> "QuadForm":
        """diag(c, 1, ..., 1, -sqrt 2) in n+1 variables."""
        if n < 1:
            raise ValueError("dimension must be at least 1")
        return cls([c] + [K_ONE] * (n - 1))

    def diagonal(self):
        return self.spatial + (self.temporal,)

    def __eq__(self, other):
        return isinstance(other, QuadForm) and self.spatial == other.spatial

    def __hash__(self):
        return hash(self.spatial)

    def discriminant(self) -> KElem:
        out = K_ONE
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
    """A B, exact, entry by entry as sum_prod takes it.  Each column of B
    lists its nonzero entries once; a unit column e_j copies column j of A,
    since every value has one form and x * 1 is x."""
    out = []
    for col in zip(*B):
        nz = [(r, b) for r, b in enumerate(col) if b]
        if len(nz) == 1 and nz[0][1] == K_ONE:
            out.append([row[nz[0][0]] or row[0] * col[0] for row in A])
            continue
        entries = []
        for row in A:
            terms = [row[r] * b for r, b in nz if row[r]]
            entries.append(sum(terms[1:], terms[0]) if terms else row[0] * col[0])
        out.append(entries)
    return tuple(zip(*out))


def sum_prod(row, col):
    """sum_i row[i] * col[i], exact, without the terms that have an
    exact-zero factor; when every term has one, the sum is the exact zero
    row[0] * col[0].  Every value has one form, so skipping terms changes
    no result."""
    total = None
    for a, b in zip(row, col):
        if a and b:
            term = a * b
            total = term if total is None else total + term
    return row[0] * col[0] if total is None else total


def mat_vec(A, v):
    return tuple(sum_prod(row, v) for row in A)


def mat_identity(size):
    return tuple(tuple(K_ONE if i == j else K_ZERO for j in range(size))
                 for i in range(size))


def is_isometry(entries, form: QuadForm) -> bool:
    """Exact entrywise check M^T F M = F; terms with a zero entry are
    skipped, and an empty sum is zero."""
    size = form.n + 1
    if len(entries) != size or any(len(row) != size for row in entries):
        raise ValueError("dimension mismatch between matrix and form")
    diag = form.diagonal()
    for i in range(size):
        for j in range(i, size):
            val = None
            for r in range(size):
                x, y = entries[r][i], entries[r][j]
                if x and y:
                    term = x * y * diag[r]
                    val = term if val is None else val + term
            if i != j:
                if val:
                    return False
            elif val is None or val != diag[i]:
                return False
    return True


def in_O_prime(entries, form: QuadForm) -> bool:
    """True iff the isometry preserves the upper hyperboloid sheet; a
    non-isometry raises ValueError."""
    return Isometry(entries, form).sheet_preserving


class Isometry(Immutable):
    """A form-preserving matrix.  Construction from entries checks
    M^T F M = F exactly; products and inverses are closed under the group
    law, (AB)^T F (AB) = B^T (A^T F A) B = F and (F^{-1} M^T F) M = I, so
    they are built without checking again."""

    __slots__ = ("entries", "form")

    def __init__(self, entries, form: QuadForm):
        entries = tuple(tuple(row) for row in entries)
        if not is_isometry(entries, form):
            raise ValueError("matrix does not preserve the form")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "form", form)

    @classmethod
    def _closed(cls, entries, form: QuadForm) -> "Isometry":
        """An isometry derived from verified ones by the group law."""
        out = object.__new__(cls)
        object.__setattr__(out, "entries", entries)
        object.__setattr__(out, "form", form)
        return out

    @property
    def sheet_preserving(self) -> bool:
        """Whether the upper hyperboloid sheet is kept: the corner is > 0."""
        return _sign_of(self.entries[self.form.n][self.form.n]) == 1

    @classmethod
    def identity(cls, form: QuadForm) -> "Isometry":
        return cls._closed(mat_identity(form.n + 1), form)

    def __mul__(self, other: "Isometry") -> "Isometry":
        if self.form != other.form:
            raise ValueError("isometries of different forms")
        return Isometry._closed(mat_mul(self.entries, other.entries), self.form)

    def inverse(self) -> "Isometry":
        """F^{-1} M^T F, exact; diagonal F makes this entrywise."""
        diag = self.form.diagonal()
        inv = tuple(tuple(x * diag[j] / diag[i] if x else x
                          for j, x in enumerate(col))
                    for i, col in enumerate(zip(*self.entries)))
        return Isometry._closed(inv, self.form)

    def trace(self):
        diag = [row[i] for i, row in enumerate(self.entries)]
        return sum(diag[1:], diag[0])

    def __eq__(self, other):
        return (isinstance(other, Isometry) and self.form == other.form
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.entries, self.form))

    def __repr__(self):
        return f"Isometry({self.form!r}, {len(self.entries)}x{len(self.entries)})"


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

class ABlockElement(Immutable):
    """An element of the identity component of the corner-block subgroup:
    corners alpha / gamma acting on coordinates (1, n+1), identity between.

    The defining conic is c*alpha^2 - sqrt2*gamma^2 = c, and the expanded
    matrix has top-right entry sqrt2*gamma/c.
    """

    __slots__ = ("alpha", "gamma", "c", "n")

    def __init__(self, alpha, gamma, c, n: int):
        alpha, gamma, c = as_kelem(alpha), as_kelem(gamma), as_kelem(c)
        if n < 2:
            raise ValueError("ambient dimension must be at least 2")
        if c * alpha * alpha - SQRT2 * gamma * gamma != c:
            raise ValueError("block does not satisfy the conic equation")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "n", n)

    @property
    def top_right(self) -> KElem:
        return SQRT2 * self.gamma / self.c

    def parameter(self) -> KElem:
        """Recover the conic parameter t = gamma / (alpha - 1)."""
        if self.alpha == K_ONE:
            raise ValueError("identity block has no finite parameter")
        return self.gamma / (self.alpha - K_ONE)

    def form(self) -> QuadForm:
        return QuadForm.standard(self.c, self.n)

    def to_entries(self):
        rows = [list(row) for row in mat_identity(self.n + 1)]
        rows[0][0], rows[0][-1] = self.alpha, self.top_right
        rows[-1][0], rows[-1][-1] = self.gamma, self.alpha
        return tuple(map(tuple, rows))

    def to_isometry(self) -> Isometry:
        return Isometry(self.to_entries(), self.form())

    def __eq__(self, other):
        return (isinstance(other, ABlockElement) and self.alpha == other.alpha
                and self.gamma == other.gamma and self.c == other.c and self.n == other.n)

    def __repr__(self):
        return (f"ABlockElement(alpha={self.alpha}, gamma={self.gamma}, "
                f"c={self.c}, n={self.n})")


def param_block(c, t, n: int) -> ABlockElement:
    """Block at conic parameter t: alpha = (c + sqrt2 t^2)/(sqrt2 t^2 - c),
    gamma = 2 c t/(sqrt2 t^2 - c); requires sqrt2 t^2 > c (loxodromic branch)."""
    c, t = as_kelem(c), as_kelem(t)
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


def leading_eigenvalue(g: ABlockElement):
    """The eigenvalue > 1 of the corner block, alpha + sqrt(alpha^2 - 1), the +
    root of x^2 - 2 alpha x + 1 (the determinant is 1 by the conic equation,
    checked on construction): a KElem when alpha^2 - 1 is a square in k, else a
    TowerElem of k(sqrt(alpha^2 - 1))."""
    if (g.alpha - K_ONE).sign() <= 0:
        raise ValueError("alpha must exceed 1 for a loxodromic block")
    return g.alpha + sqrt_k(g.alpha * g.alpha - 1)


def translation_length(g: ABlockElement, precision: int = 64) -> RealInterval:
    """The one certified enclosure of arccosh(alpha), as log(lambda) clamped at
    0: lambda's radicand alpha^2 - 1 is exact in k, so near alpha = 1 no bits are
    lost to cancellation in alpha^2 - 1, as they are in arccosh of alpha's
    interval."""
    return eigenvalue_length(embed(leading_eigenvalue(g), precision))


def eigenvalue_length(lam_iv: RealInterval) -> RealInterval:
    """translation_length of the block whose leading eigenvalue has the
    enclosure lam_iv, at its precision, so that a caller finds lambda once and
    embeds it once per precision, for the length and for printing lambda."""
    return lam_iv.log().clamped()


def _least_root_above(q: KElem, eps: Fraction) -> int:
    """The least n >= 1 with n^2 > T = q coth^2(eps/2), for q > 0 in k, decided
    exactly: isqrt(floor T) + 1, once floor T has one isqrt at both ends of T's
    enclosure, from 64 + the bits of 1/x bits up at x = eps/2, which keep
    sinh(x) away from 0 (undecided at MAX_PRECISION bits raises
    PrecisionError).  T is transcendental, so escalation parts it from every
    square.

    A huge eps costs nothing: at prec bits x is capped at prec.  coth^2 falls to
    1 as x grows, so T at the cap is an upper end for the true T; and 1/sinh x
    < 2^-prec at the cap, so its enclosure's lower end is q's own, below the
    true T > q, and exact when q is an integer square.  As 1/sinh^2 prec <
    2^(-2 prec), the cap adds less than q 2^(-2 prec) to the width of q's own
    enclosure."""

    half = eps / 2

    def decide(prec):
        x = min(half, prec)
        inv_sinh = 1 / RealInterval(x, x, prec).sinh()
        T = q.embed(prec) * (1 + inv_sinh * inv_sinh)
        n = math.isqrt(max(0, T.man_lo >> T.precision))
        return n + 1 if n == math.isqrt(T.man_hi >> T.precision) else None
    start = 64 + max(0, half.denominator.bit_length() - half.numerator.bit_length())
    # names no float(q) or float(eps): each overflows past about 1.8e308
    return escalate(decide, start,
                    f"t^2 > q coth^2(eps/2) undecided at {MAX_PRECISION} bits")


def find_small_element(c, eps_target: float | Fraction,
                       height_bound: int) -> ABlockElement:
    """First block with 0 < translation length < eps_target, a float or a
    Fraction of any size, among t = 1, 2, ..., height_bound, then t = u + v
    sqrt2 (v != 0) by height max(|u|, |v|), u and then v ascending.  Nothing
    is scanned and no length is computed for a hit: on the valid branch
    alpha(t) < cosh(eps) exactly when t^2 > T = (c/sqrt2) coth^2(eps/2), and
    T > c/sqrt2 puts every such t on the valid branch.  So the first integer
    hit is the least n with n^2 > T, and the first hit in shell h is its
    largest t^2, at -h - h sqrt2, so the first shell is the least h with
    h^2 > T (3 - 2 sqrt2); each is decided by _least_root_above, the shell
    only when n > height_bound.  On exhaustion ``best`` is the block at
    -H - H sqrt2, of least length, or None when it is not loxodromic."""
    if eps_target <= 0:
        raise ValueError("eps_target must be positive")
    c, eps = as_kelem(c), Fraction(eps_target)
    if c.sign() <= 0:
        raise ValueError("c must be positive")
    q = c / SQRT2
    n = _least_root_above(q, eps)
    if n <= height_bound:
        return param_block(c, KElem(n), 2)
    h = _least_root_above(q * (3 - 2 * SQRT2), eps)
    if h <= height_bound:
        return param_block(c, KElem(-h, -h), 2)
    try:
        best = param_block(c, KElem(-height_bound, -height_bound), 2)
    except (WrongBranchError, DegenerateParameterError):
        best = None
    best_len = None
    if best is not None:
        lam = leading_eigenvalue(best)

        def priced(prec):   # the midpoint, once 2^-40 wide relative to the length
            ell = eigenvalue_length(embed(lam, prec))
            return float(ell) if ell.width() * 2 ** 40 < ell.lo else None
        best_len = escalate(priced, 64, f"length at height {height_bound} "
                                        f"undecided at {MAX_PRECISION} bits")
    if isinstance(eps_target, Fraction):    # 6 digits of its exact value, of any size
        eps_target = format(Decimal(eps.numerator) / eps.denominator, ".6g")
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
