"""Adjoint traces over word balls, trace-field detection in the tower
Q < k < K = k(sqrt a), integrality scans, and the certificate combining
them: a subgroup sample with trace field k inside an ambient sample with
trace field K rules out quasi-arithmeticity of the ambient group.

The adjoint trace of an isometry is realized as the exterior-square trace
((tr M)^2 - tr M^2) / 2.  It is a value of k or of K in its one form, and
the integrality scan takes its minimal polynomial over Q as it is.  A word
sample takes one such trace per class of words under cyclic rotation and
inversion, once, and the field and integrality readers share it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exactfield import Immutable, K_ONE, KElem, as_tower_coords, sqrt_k
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
    entries in the tower k(sqrt a), or in k when a is a square there."""
    a = Fraction(a)
    n = m.form.n
    if m.form != QuadForm.standard(KElem(a), n):
        raise ValueError("matrix is not an isometry of diag(a, 1, ..., 1, -rt2)")
    r = sqrt_k(a)
    r_inv = K_ONE / r       # one inverse for all of column 0; zeros are copied
    rows = [list(row) for row in m.entries]
    rows[0][1:] = [r * x if x else x for x in rows[0][1:]]
    for row in rows[1:]:
        if row[0]:
            row[0] = row[0] * r_inv
    entries = tuple(map(tuple, rows))
    # M preserves F2 = D F1 D, so D M D^{-1} preserves D^{-1} F2 D^{-1} = F1
    return Isometry._closed(entries, QuadForm.standard(1, n))


# ---------------------------------------------------------------------------
# word samples
# ---------------------------------------------------------------------------

class GroupSample(Immutable):
    """Finitely many verified isometries of one form, sampled over reduced
    words up to a fixed length, with one adjoint trace per class of words.

    The adjoint trace is a class function: a cyclic rotation of w is a
    conjugate of w and has its trace.  So has w^-1: for M in O(F),
    M^-1 = F^-1 M^T F is conjugate to M^T, and tr Lambda^2(M^T) =
    tr Lambda^2(M).  So the traces are taken once per class of words under
    rotation and inversion, and only a class's first word is multiplied
    out, as its prefix times one letter, with every prefix product kept.
    The sample is immutable, so its traces are computed once and shared by
    every reader."""

    __slots__ = ("generators", "word_length", "_traces")

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
        object.__setattr__(self, "_traces", None)

    def traces(self):
        """(word, adjoint trace) per nonempty reduced word (a tuple of signed
        generator indices), by length then letters a, A, b, B, ...."""
        if self._traces is not None:
            return self._traces
        letters = [s * i for i in range(1, len(self.generators) + 1) for s in (1, -1)]
        products, by_class, out = {}, {}, []

        def product(w):
            if w not in products:
                if len(w) > 1:
                    products[w] = product(w[:-1]) * product(w[-1:])
                else:
                    g = self.generators[abs(w[0]) - 1]
                    products[w] = g if w[0] > 0 else g.inverse()
            return products[w]

        words = [()]
        for _ in range(self.word_length):
            words = [w + (x,) for w in words for x in letters if not w or w[-1] != -x]
            for w in words:
                inv = tuple(-x for x in reversed(w))
                key = min(v[i:] + v[:i] for v in (w, inv) for i in range(len(w)))
                if key not in by_class:
                    by_class[key] = adjoint_trace(product(w))
                out.append((w, by_class[key]))
        object.__setattr__(self, "_traces", tuple(out))
        return self._traces


def word_to_text(word) -> str:
    """Letters a, b, ... for generators; A, B, ... for inverses."""
    out = []
    for ltr in word:
        idx = abs(ltr) - 1
        ch = chr(ord("a") + idx)
        out.append(ch.upper() if ltr < 0 else ch)
    return "".join(out)


class FieldDescriptor(namedtuple("FieldDescriptor", "level witnesses", defaults=((),))):
    """Smallest level, "Q", "k" or "K", of Q < k < K containing every sampled
    adjoint trace, with one witness (word_text, trace) per proper field
    generator present."""

    __slots__ = ()


def trace_field_sample(sample: GroupSample) -> FieldDescriptor:
    k_witness = None
    tower_witness = None
    for word, tr in sample.traces():
        u, v = as_tower_coords(tr)
        if v and tower_witness is None:
            tower_witness = (word_to_text(word), tr)
        if u.q and k_witness is None:
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
    trace gets one minimal polynomial."""
    out = []
    minpolys = {}
    for word, tr in sample.traces():
        mp = minpolys.get(tr)
        if mp is None:
            mp = minpolys[tr] = minpoly_over_Q(tr)
        if not mp.is_integral():
            out.append((word_to_text(word), tr, mp))
    return out


NonQAReport = namedtuple("NonQAReport", "passed failures", defaults=((),))


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
