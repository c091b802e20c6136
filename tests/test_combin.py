import bisect
import functools
import hashlib
import itertools
import math
import random
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallsys import cli
from smallsys.combin import (
    burnside_count,
    canonical_form,
    enumerate_balanced_bracelets,
    epsilon_budget,
    glued_geodesic_length,
    select_inequivalent,
)


def brute_force_balanced_bracelets(length):
    """Independent orbit-enumeration oracle."""
    seen = set()
    for bits in iproduct("12", repeat=length):
        word = "".join(bits)
        if word.count("1") != length // 2:
            continue
        orbit = set()
        for r in range(length):
            rot = word[r:] + word[:r]
            orbit.add(rot)
            orbit.add(rot[::-1])
        seen.add(min(orbit))
    return sorted(seen)


def reference_balanced_words(length):
    """Balanced words of the given length in lexicographic order, by next
    multiset permutation."""
    half = length // 2
    word = [1] * half + [2] * half
    while True:
        yield "".join(map(str, word))
        i = length - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = length - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = reversed(word[i + 1:])


def reference_is_canonical(word):
    rotations = [word[r:] + word[:r] for r in range(len(word))]
    return all(word <= img for rot in rotations for img in (rot, rot[::-1]))


def reference_bracelets(length):
    """Every balanced word filtered by the O(L^2) canonical test, sorted."""
    if length % 2 != 0 or length < 2:
        raise ValueError("length must be a positive even number")
    return [w for w in reference_balanced_words(length) if reference_is_canonical(w)]


def reference_select(m):
    """The first m canonical balanced words of length 2^m by the same scan."""
    if m < 1:
        raise ValueError("m must be at least 1")
    canonical = filter(reference_is_canonical, reference_balanced_words(2 ** m))
    return list(itertools.islice(canonical, m))


def reference_burnside_count(L):
    """burnside_count with the rotation term summed over all L rotations."""
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
    if (L // 2) % 2 == 0:
        total += (L // 2) * math.comb(L // 2, L // 4)
    return total // (2 * L)


@functools.cache
def generated_bracelets(length):
    """The generator's word list, made once per length."""
    return enumerate_balanced_bracelets(length)


def is_balanced_word(word, length):
    return (type(word) is str and len(word) == length and not word.strip("12")
            and word.count("1") == length // 2)


class TestCanonicalForm:
    def test_alternating_fixed(self):
        assert canonical_form("1212") == "1212"

    def test_rotated_example(self):
        assert canonical_form("2112") == "1122"

    def test_single_letter(self):
        assert canonical_form("1") == "1"

    def test_idempotent_and_invariant(self):
        rng = random.Random(139)
        for _ in range(100):
            word = "".join(rng.choice("12") for _ in range(rng.randint(1, 10)))
            canon = canonical_form(word)
            assert canonical_form(canon) == canon
            for r in range(len(word)):
                rot = word[r:] + word[:r]
                assert canonical_form(rot) == canonical_form(rot[::-1]) == canon

    @settings(max_examples=8, deadline=None)
    @given(st.integers(1, 8))
    def test_enumerated_words_are_canonical_balanced_strings(self, half):
        words = enumerate_balanced_bracelets(2 * half)
        assert all(is_balanced_word(w, 2 * half) for w in words)
        assert all(canonical_form(w) == w for w in words)
        assert all(u < w for u, w in zip(words, words[1:]))

    def test_selected_words_are_balanced_strings(self):
        for m in range(1, 13):
            assert all(is_balanced_word(w, 2 ** m) for w in select_inequivalent(m))


class TestEnumeration:
    def test_length_two(self):
        assert enumerate_balanced_bracelets(2) == ["12"]

    def test_length_four(self):
        assert enumerate_balanced_bracelets(4) == ["1122", "1212"]

    def test_length_eight_count(self):
        assert len(enumerate_balanced_bracelets(8)) == 8

    def test_matches_brute_force(self):
        for length in (2, 4, 6, 8, 10, 12, 14, 16):
            assert enumerate_balanced_bracelets(length) == \
                brute_force_balanced_bracelets(length)

    def test_matches_reference_filter(self):
        for length in range(2, 21, 2):
            assert enumerate_balanced_bracelets(length) == reference_bracelets(length)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9).flatmap(
        lambda half: st.permutations("1" * half + "2" * half)))
    def test_orbit_of_a_random_word_is_enumerated(self, letters):
        word = "".join(letters)
        words = enumerate_balanced_bracelets(len(word))
        assert canonical_form(word) in words
        assert all(canonical_form(w) == w for w in words)
        assert all(u < w for u, w in zip(words, words[1:]))

    # past the filtering reference's reach the orbit is looked up by bisection
    # in a list made once per length
    @settings(max_examples=60, deadline=None)
    @given(st.integers(10, 13).flatmap(
        lambda half: st.permutations("1" * half + "2" * half)))
    def test_orbit_of_a_long_random_word_is_enumerated(self, letters):
        word = "".join(letters)
        words = generated_bracelets(len(word))
        canon = canonical_form(word)
        i = bisect.bisect_left(words, canon)
        assert i < len(words) and words[i] == canon
        assert all(u < w for u, w in zip(words, words[1:]))

    @pytest.mark.parametrize("length", [22, 24, 26])
    def test_count_beyond_reference(self, length):
        assert len(enumerate_balanced_bracelets(length)) == burnside_count(length)

    # SHA-256 of the space-joined word list, past the filtering reference's
    # reach: every word in order, not only the count
    @pytest.mark.parametrize("length, count, digest", [
        (22, 16159, "e7d84dda991b97926365de17b54c0d66b26d40d6f9614c2d17793a5210838a9d"),
        (24, 56822, "a9c556dc5509cd891756ff8edd625cd9f8fc913fd625aabd428feb6863c17c39"),
    ], ids=["length22", "length24"])
    def test_words_beyond_reference_pinned(self, length, count, digest):
        words = enumerate_balanced_bracelets(length)
        assert len(words) == count
        assert hashlib.sha256(" ".join(words).encode()).hexdigest() == digest

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            enumerate_balanced_bracelets(5)


class TestBurnside:
    def test_small_values(self):
        assert burnside_count(2) == 1
        assert burnside_count(6) == 3
        assert burnside_count(8) == 8

    def test_agrees_with_enumeration(self):
        for length in (2, 4, 6, 8, 10, 12):
            assert burnside_count(length) == len(enumerate_balanced_bracelets(length))

    def test_supports_selection(self):
        for m in range(1, 15):
            assert burnside_count(2 ** m) >= m

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            burnside_count(7)

    def test_rotation_term_matches_the_loop_over_rotations(self):
        for length in range(2, 301, 2):
            assert burnside_count(length) == reference_burnside_count(length), length


class TestSelectInequivalent:
    def test_m1(self):
        assert select_inequivalent(1) == ["12"]

    def test_m2(self):
        assert select_inequivalent(2) == ["1122", "1212"]

    def test_m3_prefix_of_enumeration(self):
        sel = select_inequivalent(3)
        full = enumerate_balanced_bracelets(8)
        assert sel == full[:3]

    def test_up_to_m6_distinct_canonical_balanced(self):
        for m in range(1, 7):
            sel = select_inequivalent(m)
            assert len(sel) == m
            assert len(set(sel)) == m
            for s in sel:
                assert len(s) == 2 ** m
                assert s.count("1") == len(s) // 2
                assert canonical_form(s) == s

    def test_matches_reference_scan(self):
        for m in range(1, 13):
            assert select_inequivalent(m) == reference_select(m)

    def test_closed_form(self):
        # the closed form is the generator's prefix where it is cheap, and
        # past that m canonical balanced words in strictly ascending order
        for m in range(1, 5):
            assert select_inequivalent(m) == enumerate_balanced_bracelets(2 ** m)[:m], m
        for m in range(1, 11):
            sel = select_inequivalent(m)
            assert len(sel) == len(set(sel)) == m
            assert all(is_balanced_word(w, 2 ** m) for w in sel)
            assert all(canonical_form(w) == w for w in sel)
            assert all(u < w for u, w in zip(sel, sel[1:])), m

    def test_long_words_need_no_recursion(self):
        sel = select_inequivalent(14)
        assert len(sel) == 14 and len(sel[-1]) == 2 ** 14
        assert sel[0] == "1" * 2 ** 13 + "2" * 2 ** 13


class TestLengthsAndBudget:
    def test_two_letter_word(self):
        assert glued_geodesic_length("12", 0.3, 0.5) == pytest.approx(2 * 0.3 + 2 * 0.5)

    def test_all_ones(self):
        assert glued_geodesic_length("1111", 0.1, 9.9) == pytest.approx(0.8)

    def test_balanced_equal_lengths(self):
        for length in (2, 4, 8):
            for s in enumerate_balanced_bracelets(length):
                assert glued_geodesic_length(s, 0.25, 0.25) == pytest.approx(
                    2 * length * 0.25)

    def test_budget_bound_for_balanced_words(self):
        eps = 0.01
        for s in enumerate_balanced_bracelets(8):
            val = glued_geodesic_length(s, eps / 4 * 0.999, eps / 4 * 0.999)
            assert val < 8 * eps / 2

    def test_epsilon_budget_values(self):
        assert epsilon_budget(1, 10.0) == pytest.approx(0.5)
        assert epsilon_budget(3, 0.1) == pytest.approx(0.0125)
        assert epsilon_budget(2, 0.4) == pytest.approx(0.1)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            epsilon_budget(0, 1.0)
        with pytest.raises(ValueError):
            epsilon_budget(2, 0.0)


class TestBraceletsCommand:
    @pytest.mark.parametrize("argv", [["--length", "20"], ["--m", "12"]],
                             ids=["length20", "m12"])
    def test_matches_reference_certificate(self, capsys, tmp_path, monkeypatch, argv):
        path = tmp_path / "b.json"

        def certificate():
            code = cli.main(["--quiet", "--json", str(path), "bracelets"] + argv)
            capsys.readouterr()
            return code, path.read_bytes()

        got = certificate()
        assert got[0] == 0
        monkeypatch.setattr(cli, "enumerate_balanced_bracelets", reference_bracelets)
        monkeypatch.setattr(cli, "select_inequivalent", reference_select)
        assert certificate() == got
