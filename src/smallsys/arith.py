"""Adjoint traces over word balls, trace-field detection in the tower
Q < k < K = k(sqrt a), integrality scans, and the certificate combining
them: a subgroup sample with trace field k inside an ambient sample with
trace field K rules out quasi-arithmeticity of the ambient group.

The adjoint trace of an isometry is realized as the exterior-square trace
((tr M)^2 - tr M^2) / 2.  It is a value of k or of K in its one form, and
the integrality scan takes its minimal polynomial over Q as it is.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from fractions import Fraction

from .exactfield import K_ONE, KElem, TowerContext, as_tower_coords
from .lorentz import Isometry, QuadForm, sum_prod
from .polyalg import minpoly_over_Q

def adjoint_trace(m: Isometry):
    """((tr M)^2 - tr M^2) / 2, exact; equals the trace of M acting on the
    second exterior power.  tr M^2 = sum_ij M_ij M_ji is read off the
    entries, so no product matrix is formed."""
    t = m.trace()
    t2 = sum_prod([x for row in m.entries for x in row],
                  [x for col in zip(*m.entries) for x in col])
    return (t * t - t2) / 2


def conjugate_between_forms(m: Isometry, a) -> Isometry:
    """D M D^{-1} with D = diag(sqrt a, 1, ..., 1): carries an isometry of
    diag(a, 1, ..., 1, -rt2) to one of the unit-coefficient form, with
    entries in the tower k(sqrt a)."""
    a = Fraction(a)
    n = m.form.n
    if m.form != QuadForm.standard(KElem(a), n):
        raise ValueError("matrix is not an isometry of diag(a, 1, ..., 1, -rt2)")
    d = [TowerContext.from_rational(a).sqrt_gen()] + [K_ONE] * n
    entries = tuple(tuple(d[i] * m.entries[i][j] / d[j] for j in range(n + 1))
                    for i in range(n + 1))
    # M preserves F2 = D F1 D, so D M D^{-1} preserves D^{-1} F2 D^{-1} = F1
    return Isometry._closed(entries, QuadForm.standard(1, n))


# ---------------------------------------------------------------------------
# word samples
# ---------------------------------------------------------------------------

class GroupSample:
    """Finitely many verified isometries of one form, sampled over reduced
    words up to a fixed length.  `walk` evaluates each word as its parent
    word times one letter, so every sampled element costs one product, and
    that product skips the exact-zero entries of sparse block isometries."""

    __slots__ = ("generators", "word_length")

    def __init__(self, generators, word_length: int = 4):
        generators = tuple(generators)
        if not generators:
            raise ValueError("need at least one generator")
        if word_length < 1:
            raise ValueError("word_length must be at least 1")
        form = generators[0].form
        for g in generators:
            if not isinstance(g, Isometry):
                raise TypeError("generators must be verified isometries")
            if g.form != form:
                raise ValueError("generators live on different forms")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "word_length", word_length)

    def __setattr__(self, *_):
        raise AttributeError("GroupSample is immutable")

    def walk(self):
        """(word, isometry) per nonempty reduced word (a tuple of signed
        generator indices), by length then letters a, A, b, B, ...."""
        letters = []
        for i, g in enumerate(self.generators, 1):
            letters.extend(((i, g), (-i, g.inverse())))
        frontier = [((), None)]
        for _ in range(self.word_length):
            nxt = []
            for w, m in frontier:
                for ltr, g in letters:
                    if w and w[-1] == -ltr:
                        continue
                    step = (w + (ltr,), g if m is None else m * g)
                    nxt.append(step)
                    yield step
            frontier = nxt


def word_to_text(word) -> str:
    """Letters a, b, ... for generators; A, B, ... for inverses."""
    out = []
    for ltr in word:
        idx = abs(ltr) - 1
        ch = string.ascii_lowercase[idx]
        out.append(ch.upper() if ltr < 0 else ch)
    return "".join(out)


@dataclass(frozen=True)
class FieldDescriptor:
    """Smallest level of Q < k < K containing every sampled adjoint trace,
    with one witness per proper field generator present."""
    level: str                                   # "Q" | "k" | "K"
    witnesses: tuple = ()                        # ((word_text, trace), ...)


def trace_field_sample(sample: GroupSample) -> FieldDescriptor:
    k_witness = None
    tower_witness = None
    for word, m in sample.walk():
        tr = adjoint_trace(m)
        u, v = as_tower_coords(tr)
        if v and tower_witness is None:
            tower_witness = (word_to_text(word), tr)
        if u.b and k_witness is None:
            k_witness = (word_to_text(word), tr)
        if k_witness and tower_witness:
            break
    if tower_witness:
        wits = tuple(w for w in (k_witness, tower_witness) if w)
        return FieldDescriptor("K", wits)
    if k_witness:
        return FieldDescriptor("k", (k_witness,))
    return FieldDescriptor("Q")


def integrality_scan(sample: GroupSample):
    """All sampled words whose adjoint trace is not an algebraic integer,
    as (word_text, trace, monic minimal polynomial) triples.  Each distinct
    trace gets one minimal polynomial; a word and its inverse share one."""
    out = []
    minpolys = {}
    for word, m in sample.walk():
        tr = adjoint_trace(m)
        mp = minpolys.get(tr)
        if mp is None:
            mp = minpolys[tr] = minpoly_over_Q(tr)
        if not mp.is_integral():
            out.append((word_to_text(word), tr, mp))
    return out


@dataclass(frozen=True)
class NonQAReport:
    passed: bool
    failures: tuple = ()


def non_qa_certificate(a, subgroup_field: FieldDescriptor,
                       ambient_field: FieldDescriptor) -> NonQAReport:
    """PASS exactly when the subgroup sample has trace field k, the ambient
    sample has trace field K, and a is a positive non-square in k; each
    broken link is named otherwise.  The samples are assumed Zariski dense
    in their groups; that is asserted, not verified."""
    a = Fraction(a)
    failures = []
    if subgroup_field.level != "k":
        failures.append(f"subgroup trace field is {subgroup_field.level}, expected k")
    if ambient_field.level != "K":
        failures.append(f"ambient trace field is {ambient_field.level}, expected K")
    if a <= 0:
        failures.append(f"a = {a} is not positive")
    else:
        square, _ = KElem(a).is_square()
        if square:
            failures.append(f"a = {a} is a square in k")
    return NonQAReport(passed=not failures, failures=tuple(failures))
