"""Balanced cyclic sequences over {1, 2} up to dihedral symmetry, generated
directly in lexicographic order, Burnside cross-counts, glued-geodesic length
accounting, and the epsilon budget for the incommensurable-family construction.
"""

from __future__ import annotations

import itertools
import math


class CyclicBinarySeq:
    """A cyclic word over {1, 2}; canonical form is the lexicographic minimum
    over all rotations and reflections."""

    __slots__ = ("word",)

    def __init__(self, word):
        if not isinstance(word, str):
            word = "".join(str(c) for c in word)
        if not word or word.strip("12"):
            raise ValueError(f"word must be nonempty over {{1,2}}, got {word!r}")
        object.__setattr__(self, "word", word)

    def __setattr__(self, *_):
        raise AttributeError("CyclicBinarySeq is immutable")

    def __len__(self):
        return len(self.word)

    def __eq__(self, other):
        return isinstance(other, CyclicBinarySeq) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __lt__(self, other):
        return self.word < other.word

    def __str__(self):
        return self.word

    def __repr__(self):
        return f"CyclicBinarySeq({self.word!r})"

    def dihedral_images(self):
        w = self.word
        for r in range(len(w)):
            rot = w[r:] + w[:r]
            yield rot
            yield rot[::-1]


def canonical_form(seq: CyclicBinarySeq) -> CyclicBinarySeq:
    """Lexicographic minimum over the 2L dihedral images; idempotent."""
    return CyclicBinarySeq(min(seq.dihedral_images()))


def _bracelets_lex(length: int):
    """Canonical balanced words of an even length >= 2, in lexicographic order.

    Sawada's fixed-content prenecklace recursion (TCS 2003) on an explicit
    stack, so long words stay below the recursion limit, yields the balanced
    necklaces.  One <= every rotation of its reversal is the least of its 2L
    dihedral images (Sawada, SIAM J. Comput. 2001); only rotations starting
    with its leading run of 1s, its longest, and then a 2 can be smaller."""
    n = length
    a = [0] * n                     # 0 < 1 stand for "1" < "2"
    p = [1] * (n + 1)               # p[t]: length of a[:t]'s longest Lyndon prefix
    left = [n // 2 - 1, n // 2]     # letters still to place
    t, s = 1, 0                     # s: the next letter to try at position t
    while t:
        while s < 2 and not left[s]:
            s += 1
        if s < 2:
            a[t] = s
            left[s] -= 1
            p[t + 1] = p[t] if s == a[t - p[t]] else t + 1
            if t + 1 < n:
                t += 1
                s = a[t - p[t]]
                continue
            if n % p[n] == 0:
                word = "".join(["12"[c] for c in a])
                rev, head = word[::-1] * 2, word[:word.index("2") + 1]
                i = rev.find(head)
                while 0 <= i < n and word <= rev[i:i + n]:
                    i = rev.find(head, i + 1)
                if not 0 <= i < n:
                    yield word
        else:
            t -= 1
        left[a[t]] += 1             # take back a[t] and try the next letter
        s = a[t] + 1


def enumerate_balanced_bracelets(length: int):
    """All canonical balanced sequences, sorted: generated, not filtered
    from every balanced word.  The count matches burnside_count(length)."""
    if length % 2 != 0 or length < 2:
        raise ValueError("length must be a positive even number")
    return [CyclicBinarySeq(w) for w in _bracelets_lex(length)]


def burnside_count(length: int) -> int:
    """Number of balanced bracelets: average over the dihedral group of the
    balanced words fixed by each symmetry.

    A rotation with g = gcd(j, L) cycles fixes C(g, g/2) balanced words when
    g is even.  Reflections split by axis type: through two positions
    (two fixed letters, (L-2)/2 swaps) or through none (L/2 swaps).
    """
    if length % 2 != 0 or length < 2:
        raise ValueError("length must be a positive even number")
    L = length
    total = 0
    for j in range(L):
        g = math.gcd(j, L)
        if g % 2 == 0:
            total += math.comb(g, g // 2)
    pairs_vertex = (L - 2) // 2
    vertex_fixed = 0
    for ones_fixed in (0, 1, 2):
        need = L // 2 - ones_fixed
        if need % 2 == 0 and 0 <= need // 2 <= pairs_vertex:
            ways = 1 if ones_fixed in (0, 2) else 2
            vertex_fixed += ways * math.comb(pairs_vertex, need // 2)
    total += (L // 2) * vertex_fixed
    pairs_edge = L // 2
    if (L // 2) % 2 == 0:
        total += (L // 2) * math.comb(pairs_edge, L // 4)
    return total // (2 * L)


def select_inequivalent(m: int):
    """The first m balanced canonical sequences of length 2^m in
    lexicographic order; generated lazily, so large lengths stay cheap."""
    if m < 1:
        raise ValueError("m must be at least 1")
    length = 2 ** m
    if burnside_count(length) < m:
        raise AssertionError("fewer balanced bracelets than requested; "
                             "counting bug")
    out = [CyclicBinarySeq(w)
           for w in itertools.islice(_bracelets_lex(length), m)]
    if len(out) < m:
        raise AssertionError("bracelet generation exhausted early; counting bug")
    return out


def glued_geodesic_length(seq: CyclicBinarySeq, len1: float, len2: float) -> float:
    """Total length of the glued closed geodesic: each letter contributes the
    doubled orthogeodesic of its piece, sum over the cyclic word."""
    if len1 <= 0 or len2 <= 0:
        raise ValueError("lengths must be positive")
    per = {"1": 2.0 * len1, "2": 2.0 * len2}
    return sum(per[ch] for ch in seq.word)


def epsilon_budget(m: int, eps_2n: float) -> float:
    """2^(-m) * min(1/m, eps_2n)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if eps_2n <= 0:
        raise ValueError("eps_2n must be positive")
    return 2.0 ** -m * min(1.0 / m, eps_2n)
