"""Balanced cyclic words over {1, 2} up to dihedral symmetry, generated
directly in lexicographic order one run 1^r 2^s at a time, Burnside
cross-counts, the family's m words in closed form, glued-geodesic length
accounting, and the epsilon budget for the incommensurable-family
construction.  A word is a plain str over "12".

A canonical word starts with its longest run of 1s and ends with a 2, so it
is a sequence of blocks 1^r 2^s.  Ordering blocks by r descending, then s
ascending, makes block order word order, and the generator recurses once
per block rather than once per letter.  Its first block (r_0, s_0) bounds
the rest twice over: the reversal read from block 0 starts (r_0, s_{k-1}),
so every choice must leave the last block at least s_0 2s, and where no
later block has r_0 1s that reading is the only rotation of the reversal
to compare with, so one comparison settles the word without a scan.
"""

from __future__ import annotations

import math
from fractions import Fraction


def canonical_form(word: str) -> str:
    """Lexicographic minimum over the rotations of the word and their
    reversals; idempotent."""
    rotations = [word[r:] + word[:r] for r in range(len(word))]
    return min(rotations + [rot[::-1] for rot in rotations])


def enumerate_balanced_bracelets(length: int) -> list[str]:
    """All canonical balanced words of an even length >= 2, in lexicographic
    order: generated, not filtered from every balanced word.  The count
    matches burnside_count(length).

    A block 1^r 2^s is stored as the pair (-r, s), so pair order is block
    order: more 1s first, then fewer 2s.  It is word order too, since 1^r 2
    < 1^r' 2 for r > r' and 1^r 2^s 1 < 1^r 2^s 2.  A rotation that starts
    at a 2 or inside a run of 1s is above one that starts a block, so a word
    is a necklace iff its block sequence is one, and Sawada's prenecklace
    recursion (TCS 2003) runs on blocks: one level per block, with the
    p-rule and the leaf test "k blocks, k % p == 0" as for letters, and the
    last block taking the letters left.  Block 0 = (r_0, s_0) is chosen in
    the outer loops; the word of block 0 alone, 1^h 2^h, is the least word.

    A necklace is canonical iff it is <= every rotation of its reversal
    (Sawada, SIAM J. Comput. 2001).  Read from block j the reversal is
    (r_j, s_{j-1}), (r_{j-1}, s_{j-2}), ..., so it can be below the word
    only for the j with r_j = r_0, and for j = 0 it starts (r_0, s_{k-1}):
    a canonical word's last block has at least s_0 2s.

    *The bound on 2s.*  Every block is chosen so that the last block can
    still have s_0 2s.  With R1 1s and R2 2s left after a block, at least
    ceil(R1 / r_0) blocks follow, since none has more than r_0 1s; each has
    a 2 and the last has s_0, so R2 >= ceil(R1 / r_0) + s_0 - 1.
      - A later block (r, s), with R1, R2 counted before it, leaves R1 - r
        and R2 - s: s <= R2 - ceil((R1 - r) / r_0) - (s_0 - 1).
      - Block 0 = (r, s) leaves h - r and h - s with r_0 = r, s_0 = s:
        h - s >= ceil((h - r) / r) + s - 1, so 2s <= h - ceil((h - r) / r) + 1.
    A subtree cut this way holds no word whose last block has s_0 2s, so
    no canonical word is lost.

    *The reversal test.*  `reps` counts the blocks after block 0 with r_0
    1s.  If there are none and the last block has fewer than r_0 1s, j = 0
    is the only rotation that competes.  It is above the word at once if
    s_{k-1} > s_0; otherwise, past their common -r_0, it reads the pairs
    a[1:m] backwards, and one comparison decides.  Only where some later
    block has r_0 1s are all the j with r_j = r_0 scanned."""
    if length % 2 != 0 or length < 2:
        raise ValueError("length must be a positive even number")
    h = length // 2
    a = [0] * length            # a[2t], a[2t + 1] = -r, s of block t
    out = ["1" * h + "2" * h]   # block 0 alone, the least word

    def extend(t, p, ones, twos, word, reps):
        """Extend `word`, the prenecklace of blocks 0..t-1, by blocks >=
        block t - p, (rp, sp); its longest Lyndon prefix has p blocks, and
        `reps` of blocks 1..t-1 have r_0 1s."""
        q = 2 * (t - p)
        rp, sp = -a[q], a[q + 1]
        k, m = t + 1, 2 * t + 2
        if twos >= s0 and (ones < rp or ones == rp and (
                twos > sp or twos == sp and k % p == 0)):
            a[m - 2], a[m - 1] = -ones, twos
            if reps or ones == r0:
                # the reversal read from block j starts at -r_j in the
                # reversed pairs; their second copy ends the search
                pairs, rev = a[:m], a[m - 1::-1] * 2
                i = rev.index(-r0)
                while i < m and pairs <= rev[i:i + m]:
                    i = rev.index(-r0, i + 2)
                canonical = i >= m
            else:
                # only j = 0 competes: after -r_0 it reads a[1:m] backwards
                canonical = twos > s0 or a[1:m] <= a[m - 1:0:-1]
            if canonical:
                out.append(word + "1" * ones + "2" * twos)
        for r in range(rp if rp < ones else ones - 1, 0, -1):
            a[m - 2], head, rep = -r, word + "1" * r, reps + (r == r0)
            for s in range(sp if r == rp else 1,
                           twos + (r - ones) // r0 - s0 + 2):
                a[m - 1] = s
                extend(k, p if r == rp and s == sp else k, ones - r,
                       twos - s, head + "2" * s, rep)

    for r0 in range(h - 1, 0, -1):
        for s0 in range(1, (h + 1 + (r0 - h) // r0) // 2 + 1):
            a[0], a[1] = -r0, s0
            extend(1, 1, h - r0, h - s0, "1" * r0 + "2" * s0, 0)
    return out


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
    g is even, and phi(L/g) rotations have g cycles.  The L reflections fix
    L C(2f, f) words in all, with f = floor(L/4) and h = L/2 ones.  Half of
    the axes pass through two letters and swap h - 1 pairs; the other half
    pass through none and swap h pairs.  A swapped pair holds two 1s or
    none, so:
      - h even: two fixed letters alike, C(h - 1, h/2) + C(h - 1, h/2 - 1)
        = C(h, h/2), and h pairs, C(h, h/2); each axis fixes C(2f, f).
      - h odd: one fixed 1, on either letter, 2 C(h - 1, (h - 1)/2)
        = 2 C(2f, f), and h pairs, none.
    """
    if length % 2 != 0 or length < 2:
        raise ValueError("length must be a positive even number")
    L, f = length, length // 4
    total = sum(_totient(L // g) * math.comb(g, g // 2)
                for g in range(2, L + 1, 2) if L % g == 0)
    return (total + L * math.comb(2 * f, f)) // (2 * L)


def select_inequivalent(m: int) -> list[str]:
    """The first m canonical balanced words of length 2^m in lexicographic
    order, so pairwise inequivalent: with h = 2^(m-1), 1^h 2^h, then
    1^(h-1) 2^j 1 2^(h-j) for j = 1..m-1.

    A canonical word starts with its longest run of 1s, so 1^h 2^h is the
    least.  Next come those with a run of h - 1 and one stray 1,
    1^(h-1) 2^j 1 2^(h-j) for 0 < j < h.  Of the rotations of such a word
    and of its reversal, only those read from the long run start 1^(h-1) 2
    (at h = 2 those from the stray 1 do too, and repeat them), and the
    reversal's is 1^(h-1) 2^(h-j) 1 2^j, so the word is canonical exactly
    when j <= h - j.  These words rise with j, as word j has a 1 where word
    j + 1 has a 2, and a word whose leading run is shorter has a 2 among its
    first h - 1 letters, so it sorts after them all.  As m - 1 <= 2^(m-2) =
    h/2 for m >= 2, m words exist."""
    if m < 1:
        raise ValueError("m must be at least 1")
    h = 2 ** (m - 1)
    return ["1" * h + "2" * h] + [
        "1" * (h - 1) + "2" * j + "1" + "2" * (h - j) for j in range(1, m)]


def glued_geodesic_length(word: str, len1: float, len2: float) -> float:
    """Total length of the glued closed geodesic: each letter contributes the
    doubled orthogeodesic of its piece, sum over the cyclic word."""
    if len1 <= 0 or len2 <= 0:
        raise ValueError("lengths must be positive")
    per = {"1": 2.0 * len1, "2": 2.0 * len2}
    return sum(per[ch] for ch in word)


def epsilon_budget(m: int, eps_2n: float) -> Fraction:
    """2^(-m) * min(1/m, eps_2n), exactly: a float underflows past m = 1074."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if eps_2n <= 0:
        raise ValueError("eps_2n must be positive")
    return min(Fraction(1, m), Fraction(eps_2n)) / 2 ** m
