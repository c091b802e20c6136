"""Balanced cyclic words over {1, 2} up to dihedral symmetry, generated
directly in lexicographic order one run 1^r 2^s at a time, Burnside
cross-counts, the family's m words in closed form, glued-geodesic length
accounting, and the epsilon budget for the incommensurable-family
construction.  A word is a plain str over "12".

A canonical word starts with its longest run of 1s and ends with a 2, so it
is a sequence of blocks 1^r 2^s.  Ordering blocks by r descending, then s
ascending, makes block order word order, and the generator recurses once
per block rather than once per letter.  Each level's loop decides, for
every block it chooses, the word whose next block takes the letters left,
on the word string itself.  The first block (r_0, s_0) bounds the rest
twice over: the reversal read from block 0 starts (r_0, s_{k-1}), so every
choice must leave the last block at least s_0 2s; and where no later block
has r_0 1s that reading is the only rotation of the reversal to compare
with, so one slice comparison settles the word.  Elsewhere str.find meets
each run of r_0 1s in the doubled reversal, and the rotation there is one
slice to compare.
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

    Blocks are ordered by more 1s first, then fewer 2s.  That is word order
    too, since 1^r 2 < 1^r' 2 for r > r' and 1^r 2^s 1 < 1^r 2^s 2.  A
    rotation that starts at a 2 or inside a run of 1s is above one that
    starts a block, so a word is a necklace iff its block sequence is one,
    and Sawada's prenecklace recursion (TCS 2003) runs on blocks.  Level t
    chooses block t >= block t - p by the p-rule, as for letters: p stays
    where the two are equal and becomes t + 1 otherwise.  Level 0 chooses
    block 0 = (r_0, s_0); a sentinel block (h, 0), below every block, stands
    before it.  For each choice the loop decides the leaf itself, with no
    call: the word whose block t + 1 takes the letters left is a necklace
    iff that block is >= block t + 1 - p, and where it is equal p divides
    the t + 2 blocks.  The word of block 0 alone, 1^h 2^h, is the least.

    *The bound on 2s.*  Every block is chosen so that the last block can
    still have s_0 2s.  With R1 1s and R2 2s left after a block, at least
    ceil(R1 / r_0) blocks follow, since none has more than r_0 1s; each has
    a 2 and the last has s_0, so R2 >= ceil(R1 / r_0) + s_0 - 1.
      - A later block (r, s), with R1, R2 counted before it, leaves R1 - r
        and R2 - s: s <= R2 - ceil((R1 - r) / r_0) - (s_0 - 1).
      - Block 0 = (r, s) leaves h - r and h - s with r_0 = r, s_0 = s:
        h - s >= ceil((h - r) / r) + s - 1, so 2s <= h - ceil((h - r) / r) + 1.
    A subtree cut this way holds no word whose last block has s_0 2s, so no
    canonical word is lost.  As R1 - r >= 1, every leaf's last block has at
    least s_0 2s.  After a block that leaves o 1s and w 2s, the next block
    has fewer than o 1s, so the bound gives it at most w - s_0 2s: the level
    recurses only where o > 1 and w > s_0.

    *The reversal test.*  A necklace is canonical iff it is <= every
    rotation of its reversal (Sawada, SIAM J. Comput. 2001).  The word
    starts 1^r_0 2, and r_0 is its longest run of 1s, so only the rotations
    that start a run of r_0 1s can be below it.  The reversal starts with a
    2, so in the reversal doubled each run of r_0 1s that str.find meets is
    whole, and the rotation there is the slice of length L from it.  Read
    from block j the reversal is (r_j, s_{j-1}), (r_{j-1}, s_{j-2}), ...,
    and these runs come in the order j = k - 1, ..., 1, 0.  `reps` counts
    the blocks with r_0 1s, block 0 among them, and only where a later
    block has r_0 1s is the reversal built and scanned, up to the run of
    block 0 at L - r_0.  The reading from block 0 is 1^r_0, then
    word[:r_0 - 1:-1].  It is above the word at once if the last block has
    more than s_0 2s, and otherwise one slice comparison decides."""
    if length % 2 != 0 or length < 2:
        raise ValueError("length must be a positive even number")
    h = length // 2
    blocks = [["1" * r + "2" * s for s in range(h + 1)] for r in range(h + 1)]
    # a[2t], a[2t + 1] = r, s of block t; a[-2:] = (h, 0), the sentinel before block 0
    a = [0] * length + [h, 0]
    # run = 1^r_0; block 0's run starts at b0 = L - r_0 in the reversal
    out, r0, s0, run, b0 = [blocks[h][h]], 0, 0, "", 0

    def extend(t, p, ones, twos, head, reps):
        """Choose block t >= block t - p = (rp, sp) after `head`, with `ones`
        1s and `twos` 2s left; `reps` blocks of `head` have r_0 1s."""
        nonlocal r0, s0, run, b0
        q = 2 * (t - p)
        rp, sp = a[q], a[q + 1]
        for r in range(rp if rp < ones else ones - 1, 0, -1):
            if not t:
                r0, run, b0 = r, "1" * r, length - r
            a[2 * t], o, rep = r, ones - r, reps + (r == r0)
            c = twos + (r - ones) // r0 + 1
            for s in range(sp if r == rp else 1, (c - s0 if t else c // 2) + 1):
                if not t:
                    s0 = s
                a[2 * t + 1], w, pre = s, twos - s, head + blocks[r][s]
                p1, r1, s1 = t + 1, r0, s0
                if r == rp and s == sp:
                    p1, r1, s1 = p, a[q + 2], a[q + 3]
                if o < r1 or o == r1 and (w > s1 or w == s1 and (t + 2) % p1 == 0):
                    word, i = pre + blocks[o][w], b0
                    if rep > 1 or o == r0:
                        rev = word[::-1] * 2
                        i = rev.find(run)
                        while i < b0 and word <= rev[i:i + length]:
                            i = rev.find(run, i + r0)
                    if i >= b0 and (w > s0 or word[r0:] <= word[:r0 - 1:-1]):
                        out.append(word)
                if o > 1 and w > s0:
                    extend(t + 1, p1, o, w, pre, rep)

    extend(0, 1, h, h, "", 0)
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
