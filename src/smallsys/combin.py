"""Balanced cyclic sequences over {1, 2} up to dihedral symmetry, generated
directly in lexicographic order one run 1^r 2^s at a time, Burnside
cross-counts, glued-geodesic length accounting, and the epsilon budget for
the incommensurable-family construction.

A canonical word starts with its longest run of 1s and ends with a 2, so it
is a sequence of blocks 1^r 2^s.  Ordering blocks by r descending, then s
ascending, makes block order word order, and the generator recurses once
per block rather than once per letter.
"""

from __future__ import annotations

import math
from fractions import Fraction


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


def _bracelets_lex(length: int, limit: int | None = None) -> list[str]:
    """The first `limit` (default all) canonical balanced words of an even
    length >= 2, in lexicographic order.

    A block 1^r 2^s is stored as the pair (-r, s), so pair order is block
    order: more 1s first, then fewer 2s.  It is word order too, since 1^r 2
    < 1^r' 2 for r > r' and 1^r 2^s 1 < 1^r 2^s 2.  A rotation that starts
    at a 2 or inside a run of 1s is above one that starts a block, so a word
    is a necklace iff its block sequence is one, and Sawada's prenecklace
    recursion (TCS 2003) runs on blocks: one level per block, with the
    p-rule and the leaf test "k blocks, k % p == 0" as for letters, and the
    last block taking the letters left.  With R1 1s and R2 2s left, a block
    of r < R1 1s leaves R1 - r to blocks of at most r_0 1s with a 2 each,
    so s <= R2 - ceil((R1 - r) / r_0).  A necklace is canonical iff it is
    <= every rotation of its reversal (Sawada, SIAM J. Comput. 2001); read
    from block j the reversal is (r_j, s_{j-1}), (r_{j-1}, s_{j-2}), ...,
    so only the j with r_j = r_0 are compared."""
    h = length // 2
    a = [0] * (length + 2)      # a[2t], a[2t + 1] = -r, s of block t
    a[-2:] = -h, 1              # block -1, the least: block 0's p-rule reads it
    chunks = [""] * h           # chunks[t]: block t as letters
    out = []

    def extend(t, p, ones, twos):
        """Extend the prenecklace of blocks 0..t-1, whose longest Lyndon
        prefix has p blocks, by blocks >= block t - p, (rp, sp); True once
        `limit` words are out."""
        q = 2 * (t - p)
        rp, sp = -a[q], a[q + 1]
        k, m = t + 1, 2 * t + 2
        # as last block, 1^ones 2^twos needs as many 2s as block 0 has:
        # the reversal read from block 0 puts them second
        if twos >= a[1] and (ones < rp or ones == rp and (
                twos > sp or twos == sp and k % p == 0)):
            a[m - 2], a[m - 1] = -ones, twos
            # the reversal read from block j starts at -r_j in the reversed
            # pairs; their second copy ends the search
            pairs, rev = a[:m], a[m - 1::-1] * 2
            i = rev.index(a[0])
            while i < m and pairs <= rev[i:i + m]:
                i = rev.index(a[0], i + 2)
            if i >= m:
                chunks[t] = "1" * ones + "2" * twos
                out.append("".join(chunks[:k]))
                if len(out) == limit:
                    return True
        for r in range(rp if rp < ones else ones - 1, 0, -1):
            a[m - 2], head = -r, "1" * r
            # each later block holds at most r_0 of the ones - r 1s left
            # and at least one 2
            for s in range(sp if r == rp else 1, twos + (r - ones) // -a[0] + 1):
                a[m - 1], chunks[t] = s, head + "2" * s
                if extend(k, p if r == rp and s == sp else k, ones - r, twos - s):
                    return True
        return False

    extend(0, 1, h, h)
    return out


def enumerate_balanced_bracelets(length: int):
    """All canonical balanced sequences, sorted: generated, not filtered
    from every balanced word.  The count matches burnside_count(length)."""
    if length % 2 != 0 or length < 2:
        raise ValueError("length must be a positive even number")
    return [CyclicBinarySeq(w) for w in _bracelets_lex(length)]


def _totient(n: int) -> int:
    """Euler's phi by trial division."""
    out, p = n, 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1
    return out - out // n if n > 1 else out


def burnside_count(length: int) -> int:
    """Number of balanced bracelets: average over the dihedral group of the
    balanced words fixed by each symmetry.

    A rotation with g = gcd(j, L) cycles fixes C(g, g/2) balanced words when
    g is even, and phi(L/g) rotations have g cycles.  Reflections split by
    axis type: through two positions (two fixed letters, (L-2)/2 swaps) or
    through none (L/2 swaps).
    """
    if length % 2 != 0 or length < 2:
        raise ValueError("length must be a positive even number")
    L = length
    total = sum(_totient(L // g) * math.comb(g, g // 2)
                for g in range(2, L + 1, 2) if L % g == 0)
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
    lexicographic order; the generator stops after m, at depth two, so
    large lengths stay cheap."""
    if m < 1:
        raise ValueError("m must be at least 1")
    length = 2 ** m
    if burnside_count(length) < m:
        raise AssertionError("fewer balanced bracelets than requested; "
                             "counting bug")
    out = [CyclicBinarySeq(w) for w in _bracelets_lex(length, m)]
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


def epsilon_budget(m: int, eps_2n: float) -> Fraction:
    """2^(-m) * min(1/m, eps_2n), exactly: a float underflows past m = 1074."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if eps_2n <= 0:
        raise ValueError("eps_2n must be positive")
    return min(Fraction(1, m), Fraction(eps_2n)) / 2 ** m
