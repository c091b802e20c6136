import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smallsys import cli, lorentz
from smallsys.exactfield import (KElem, RealInterval, SQRT2, embed, parse_kelem,
                                 sqrt_k)
from smallsys.lorentz import (
    ABlockElement,
    DegenerateParameterError,
    Isometry,
    QuadForm,
    SearchExhaustedError,
    WrongBranchError,
    block_g1,
    block_g2,
    find_small_element,
    in_O_prime,
    is_isometry,
    leading_eigenvalue,
    mat_identity,
    mat_mul,
    param_block,
    parse_form_header,
    parse_isometry,
    similarity_discriminant_obstruction,
    sum_prod,
    translation_length,
)
from smallsys.polyalg import PrecisionError

from isometry_text import serialize_isometry

# the two displayed 3x3 matrices of the worked instance (entries in Z[rt2]
# for the first, denominators 7 for the second)
G1_ENTRIES = (
    (KElem(3, 2), KElem(0), KElem(4, 2)),
    (KElem(0), KElem(1), KElem(0)),
    (KElem(2, 2), KElem(0), KElem(3, 2)),
)
G2_ENTRIES = (
    (KElem(Fraction(11, 7), Fraction(6, 7)), KElem(0), KElem(Fraction(4, 7), Fraction(6, 7))),
    (KElem(0), KElem(1), KElem(0)),
    (KElem(Fraction(18, 7), Fraction(6, 7)), KElem(0), KElem(Fraction(11, 7), Fraction(6, 7))),
)
F1 = QuadForm.standard(1, 2)
F2 = QuadForm.standard(3, 2)


def cosh_enclosure(eps: Fraction, prec: int) -> RealInterval:
    """cosh(eps) for eps >= 0, from mpmath at prec + 16 bits, widened by
    2^-prec relative: many times mpmath's own error."""
    with mpmath.workprec(prec + 16):
        man, exp = mpmath.cosh(mpmath.mpf(eps.numerator) / eps.denominator).man_exp
    value = man * Fraction(2) ** exp
    return RealInterval(value - value / 2 ** prec, value + value / 2 ** prec, prec)


def reference_scan(c, eps_target, height_bound):
    """The linear scan find_small_element replaced, kept as its reference:
    t = 1..H, then u + v sqrt2 (v != 0) shell by shell, u and then v
    ascending, with the least alpha kept strictly, and alpha compared against
    cosh(eps) at escalating precision."""
    c, eps = KElem._lift(c), Fraction(eps_target)
    best = None

    def length_below(g):
        # cosh(eps) > e^1000 / 2 > 2^1440 past eps = 1000, too large to write
        # as an interval, and above every alpha < 2^1000
        if eps > 1000 and g.alpha.embed(64).hi < 2 ** 1000:
            return True
        prec = 64
        while prec <= 4096:
            alpha_iv = g.alpha.embed(prec)
            cosh_iv = cosh_enclosure(eps, prec)
            if alpha_iv.strictly_less(cosh_iv):
                return True
            if cosh_iv.strictly_less(alpha_iv):
                return False
            prec *= 2
        raise PrecisionError("undecided")

    def params():
        for t in range(1, height_bound + 1):
            yield KElem(t)
        for h in range(1, height_bound + 1):
            for u in range(-h, h + 1):
                for v in range(-h, h + 1):
                    if v != 0 and max(abs(u), abs(v)) == h:
                        yield KElem(u, v)

    for t in params():
        try:
            g = param_block(c, t, 2)
        except (WrongBranchError, DegenerateParameterError):
            continue
        if length_below(g):
            return g
        if best is None or (g.alpha - best.alpha).sign() < 0:
            best = g
    best_len = float(translation_length(best, 64)) if best is not None else None
    raise SearchExhaustedError(
        f"no parameter of height <= {height_bound} reaches length < {eps_target}"
        + (f"; smallest length found {best_len:.6g}" if best_len is not None else ""),
        best=best, best_length=best_len)


def search_outcome(search, c, eps, height_bound):
    try:
        return "hit", search(c, eps, height_bound).parameter()
    except SearchExhaustedError as exc:
        best = exc.best.parameter() if exc.best is not None else None
        return "exhausted", best, exc.best_length, str(exc)


def k_value(x):
    """x = a + b sqrt2 in mpmath at the working precision."""
    def q(r):
        return mpmath.mpf(r.numerator) / r.denominator
    return q(x.a) + q(x.b) * mpmath.sqrt(2)


def threshold_oracle(c, eps, bits=256):
    """T = (c/sqrt2) coth^2(eps/2) at the given bits: alpha(t) < cosh(eps)
    exactly when t^2 > T."""
    with mpmath.workprec(bits):
        return k_value(c) * mpmath.coth(mpmath.mpf(eps) / 2) ** 2 / mpmath.sqrt(2)


def square_over(t, T):
    with mpmath.workprec(256):
        return k_value(t) ** 2 > T


def rand_valid_param(rng, c):
    # sqrt2 t^2 > c needed; integer t >= 2 covers c in [1, 5]
    t = KElem(rng.randint(2, 30), rng.randint(0, 10))
    return t


class TestIsometryChecks:
    def test_identity(self):
        assert is_isometry(mat_identity(3), F1)

    def test_displayed_matrix_g1(self):
        assert is_isometry(G1_ENTRIES, F1)

    def test_displayed_matrix_g2(self):
        assert is_isometry(G2_ENTRIES, F2)

    def test_perturbed_corner_fails(self):
        bad = [list(r) for r in G1_ENTRIES]
        bad[0][0] = KElem(3, 3)
        assert not is_isometry(bad, F1)

    def test_in_O_prime_g1(self):
        assert in_O_prime(G1_ENTRIES, F1)

    def test_minus_identity_not_sheet_preserving(self):
        neg = tuple(tuple(-x for x in row) for row in mat_identity(3))
        assert is_isometry(neg, F1)
        assert not in_O_prime(neg, F1)

    def test_time_flip_composition_not_sheet_preserving(self):
        flip = (
            (KElem(1), KElem(0), KElem(0)),
            (KElem(0), KElem(1), KElem(0)),
            (KElem(0), KElem(0), KElem(-1)),
        )
        composed = mat_mul(flip, G1_ENTRIES)
        assert is_isometry(composed, F1)
        assert not in_O_prime(composed, F1)

    def test_non_isometry_raises_in_O_prime(self):
        bad = [list(r) for r in G1_ENTRIES]
        bad[0][0] = KElem(3, 3)
        with pytest.raises(ValueError):
            in_O_prime(bad, F1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_isometry(G1_ENTRIES, QuadForm.standard(1, 3))

    def test_zero_column_fails(self):
        # M^T F M has an empty sum on the diagonal, which is zero, not F_11
        bad = [list(r) for r in G1_ENTRIES]
        for r in bad:
            r[1] = KElem(0)
        assert not is_isometry(bad, F1)
        assert not is_isometry([[KElem(0)] * 3] * 3, F1)

    def test_agrees_with_dense_check(self):
        # M^T F M = F with every term kept, against sparse block isometries
        # and copies with one entry set to zero or moved off zero
        def dense(m, form):
            diag = form.diagonal()
            size = len(diag)
            return all(
                sum((m[r][i] * m[r][j] * diag[r] for r in range(size)), KElem(0))
                == (diag[i] if i == j else KElem(0))
                for i in range(size) for j in range(size))
        rng = random.Random(131)
        for _ in range(40):
            n = rng.randint(2, 6)
            c = KElem(rng.choice([1, 2, 3]))
            t = KElem(rng.randint(2, 9), rng.randint(0, 3))
            m = [list(r) for r in param_block(c, t, n).to_entries()]
            form = QuadForm.standard(c, n)
            assert is_isometry(m, form) and dense(m, form)
            i, j = rng.randrange(n + 1), rng.randrange(n + 1)
            m[i][j] = KElem(0) if m[i][j] else KElem(rng.randint(1, 3), rng.randint(0, 2))
            assert not dense(m, form)
            assert not is_isometry(m, form)

    def test_isometry_class_verifies(self):
        iso = Isometry(G1_ENTRIES, F1)
        assert iso.sheet_preserving
        inv = iso.inverse()
        assert (iso * inv).entries == mat_identity(3)
        with pytest.raises(ValueError):
            Isometry(((KElem(2),),), QuadForm.standard(1, 1))


ROOT17 = sqrt_k(17)
_coords = st.one_of(st.integers(-30, 30),
                    st.fractions(min_value=-100, max_value=100, max_denominator=50))
_FACTORS = {
    "int": st.integers(-9, 9),
    "k": st.builds(KElem, _coords, _coords),
    "tower": st.builds(lambda u, v: u + v * ROOT17, st.builds(KElem, _coords, _coords),
                       st.builds(KElem, _coords, _coords)),
}
_ZEROS = {"int": 0, "k": KElem(0), "tower": 0 * ROOT17}


def dense_sum_prod(row, col):
    """Every term kept, summed left to right."""
    total = row[0] * col[0]
    for a, b in zip(row[1:], col[1:]):
        total = total + a * b
    return total


class TestSumProd:
    # rows and columns of one kind each; an int row is a rational scalar row,
    # a k row against a tower column is a KElem matrix times a tower one
    @pytest.mark.parametrize("every_term_zero", [False, True], ids=["some", "all"])
    @pytest.mark.parametrize("row_kind, col_kind", [
        ("k", "k"), ("tower", "tower"), ("k", "tower"), ("tower", "k"),
        ("int", "k"), ("int", "tower")])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_dense_sum(self, row_kind, col_kind, every_term_zero, data):
        size = data.draw(st.integers(1, 8))
        row, col = [], []
        for _ in range(size):
            a = data.draw(_FACTORS[row_kind])
            b = data.draw(_FACTORS[col_kind])
            if every_term_zero:
                zero_side = data.draw(st.sampled_from(["row", "col"]))
            else:
                zero_side = data.draw(st.sampled_from(["row", "col", None, None]))
            if zero_side == "row":
                a = _ZEROS[row_kind]
            elif zero_side == "col":
                b = _ZEROS[col_kind]
            row.append(a)
            col.append(b)
        got, want = sum_prod(row, col), dense_sum_prod(row, col)
        assert got == want
        assert type(got) is type(want)
        if every_term_zero:
            assert not got


class TestMatMul:
    # B has unit, zero and sparse columns and A a zero row, so a copied
    # column, a skipped term and an all-zero product entry each show
    @pytest.mark.parametrize("a_kind, b_kind", [
        ("k", "k"), ("tower", "tower"), ("k", "tower"), ("tower", "k")])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_triple_loop(self, a_kind, b_kind, data):
        size = data.draw(st.integers(1, 6))
        index = st.integers(0, size - 1)

        def sparse(kind):
            return [data.draw(st.one_of(st.just(KElem(0)), _FACTORS[kind]))
                    for _ in range(size)]
        A = [sparse(a_kind) for _ in range(size)]
        A[data.draw(index)] = [KElem(0)] * size
        cols = []
        for _ in range(size):
            shape = data.draw(st.sampled_from(["unit", "zero", "sparse"]))
            if shape == "unit":
                j = data.draw(index)
                cols.append([KElem(int(r == j)) for r in range(size)])
            else:
                cols.append([KElem(0)] * size if shape == "zero" else sparse(b_kind))
        B = [list(row) for row in zip(*cols)]
        got = mat_mul(A, B)
        want = tuple(tuple(dense_sum_prod(row, col) for col in cols) for row in A)
        assert got == want
        assert [[type(x) for x in row] for row in got] == \
            [[type(x) for x in row] for row in want]
        assert any(not x for row in got for x in row)


class TestParamBlock:
    def test_g1_from_parameter_one(self):
        g = param_block(KElem(1), KElem(1), 2)
        assert g.alpha == KElem(3, 2)
        assert g.gamma == KElem(2, 2)
        assert g.to_entries() == G1_ENTRIES

    def test_g2_from_parameter_three_halves_rt2(self):
        g = param_block(KElem(3), KElem(0, Fraction(3, 2)), 2)
        assert g.alpha == KElem(Fraction(11, 7), Fraction(6, 7))
        assert g.gamma == KElem(Fraction(18, 7), Fraction(6, 7))
        assert g.to_entries() == G2_ENTRIES

    def test_numeric_example(self):
        g = param_block(KElem(1), KElem(10), 2)
        assert float(g.alpha.embed()) == pytest.approx(1.0142428477661193, abs=1e-9)

    def test_degenerate_direction(self):
        # sqrt2 t^2 = c at c = 2 sqrt2, t = sqrt2 ... use c = sqrt2*4, t = 2
        with pytest.raises(DegenerateParameterError):
            param_block(SQRT2 * 4, KElem(2), 2)

    def test_wrong_branch(self):
        with pytest.raises(WrongBranchError):
            param_block(KElem(3), KElem(1), 2)

    def test_block_invariants_random(self):
        rng = random.Random(71)
        for _ in range(500):
            c = KElem(rng.randint(1, 5))
            t = rand_valid_param(rng, c)
            g = param_block(c, t, rng.randint(2, 5))
            assert g.c * g.alpha * g.alpha - SQRT2 * g.gamma * g.gamma == g.c
            assert g.alpha * g.alpha - g.top_right * g.gamma == KElem(1)
            assert is_isometry(g.to_entries(), g.form())
            assert in_O_prime(g.to_entries(), g.form())
            assert g.parameter() == t
            assert (g.alpha - KElem(1)).sign() == 1


class TestEigenvalueAndLength:
    def test_lambda1(self):
        lam = leading_eigenvalue(block_g1())
        assert 2 * lam.u == KElem(6, 4)
        assert lam.tower_norm() == KElem(1)
        assert float(embed(lam, 96)) == pytest.approx(11.570427015766490, abs=1e-9)

    def test_lambda2(self):
        lam = leading_eigenvalue(block_g2())
        assert 2 * lam.u == KElem(Fraction(22, 7), Fraction(12, 7))
        assert float(embed(lam, 96)) == pytest.approx(5.381397928309880, abs=1e-9)

    def test_eigenvalue_trace_relation(self):
        rng = random.Random(73)
        for _ in range(100):
            g = param_block(KElem(rng.randint(1, 4)), rand_valid_param(rng, None), 2)
            lam = leading_eigenvalue(g)
            assert lam.u == g.alpha
            assert lam.tower_norm() == KElem(1)
            assert lam * lam - 2 * g.alpha * lam + 1 == 0

    def test_identity_boundary_rejected(self):
        with pytest.raises(ValueError):
            leading_eigenvalue(ABlockElement(KElem(1), KElem(0), KElem(1), 2))

    def test_lengths(self):
        assert float(translation_length(block_g1(), 96)) == pytest.approx(
            2.4484524476780758, abs=1e-12)
        assert float(translation_length(block_g2(), 96)) == pytest.approx(
            1.6829481783974669, abs=1e-12)
        assert float(translation_length(param_block(KElem(1), KElem(10), 2), 96)
                     ) == pytest.approx(0.16857737575656589, abs=1e-12)

    def test_length_decreasing_in_t(self):
        lengths = [translation_length(param_block(KElem(1), KElem(t), 2), 96)
                   for t in range(1, 51)]
        for a, b in zip(lengths, lengths[1:]):
            assert b.strictly_less(a)


def first_hits(c, eps):
    """The least n and h that find_small_element decides for the integers
    and for the shells."""
    q = c / SQRT2
    return tuple(lorentz._least_root_above(b, Fraction(eps))
                 for b in (q, q * (3 - 2 * SQRT2)))


def oracle_hits(c, eps):
    """The least n with n^2 > T and h with h^2 (1 + sqrt2)^2 > T, from T at
    4096 bits."""
    T = threshold_oracle(c, eps, 4096)
    with mpmath.workprec(4096):
        return tuple(int(mpmath.floor(mpmath.sqrt(b))) + 1
                     for b in (T, T / (1 + mpmath.sqrt(2)) ** 2))


class TestFindSmallElement:
    def test_t1_suffices(self):
        g = find_small_element(KElem(1), 2.5, 100)
        assert g.parameter() == KElem(1)

    def test_t7_for_quarter(self):
        g = find_small_element(KElem(1), 0.25, 100)
        assert g.parameter() == KElem(7)
        assert float(translation_length(g)) == pytest.approx(0.2414219215, abs=1e-9)

    def test_exhaustion_reports_best(self):
        with pytest.raises(SearchExhaustedError) as exc:
            find_small_element(KElem(1), 1e-9, 3)
        assert exc.value.best is not None
        # the k-parameter scan reaches t = +-(3 + 3 sqrt2), beating every integer t <= 3
        assert exc.value.best.parameter() in (KElem(3, 3), KElem(-3, -3))
        assert exc.value.best_length == pytest.approx(
            float(translation_length(param_block(KElem(1), KElem(3, 3), 2))), abs=1e-9)

    def test_skips_wrong_branch_parameters(self):
        # c = 3 rules out t = 1; the scan must continue to t = 2
        g = find_small_element(KElem(3), 10.0, 50)
        assert g.parameter() == KElem(2)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            find_small_element(KElem(1), 0.0, 10)

    def test_matches_linear_scan(self):
        # c = 4 rt2 is degenerate at t = 2 and c = 4 + 3 rt2 at t = -1 - rt2, so
        # H = 1 has no loxodromic parameter; c = 1000 is on the wrong branch
        # below t = 27 and h = 12
        cases = [(c, eps, height_bound)
                 for c in (KElem(1), KElem(2), KElem(3), KElem(1, 1), KElem(0, 4),
                           KElem(4, 3), KElem(1000))
                 for eps in (3.0, 1.0, 0.5, 0.3, 0.2, 0.12, 0.05, 1e-2)
                 for height_bound in (1, 2, 3, 6)]
        cases += [(KElem(1000), 3.0, 30), (KElem(1000), 0.3, 15)]
        kinds = set()
        for case in cases:
            want = search_outcome(reference_scan, *case)
            assert search_outcome(find_small_element, *case) == want, case
            if want[0] == "hit":
                kinds.add("shell hit" if want[1].b else "integer hit")
            else:
                kinds.add("exhausted" if want[1] is not None else "no best")
        assert kinds == {"integer hit", "shell hit", "exhausted", "no best"}

    @pytest.mark.parametrize("eps, height_bound, want", [
        (1e-3, 10 ** 4, "1682"),
        (1e-6, 2 * 10 ** 6, "1681793"),
        (1e-4, 10 ** 4, "-6967-6967*rt2"),
        (1e-3, 25, None),
    ])
    def test_handful_of_checks(self, monkeypatch, eps, height_bound, want):
        # a hit is read off the threshold alone; only pricing an exhausted
        # search's best block computes a length
        calls, length = [], lorentz.eigenvalue_length

        def counting(lam_iv):
            calls.append(lam_iv.precision)
            return length(lam_iv)
        monkeypatch.setattr(lorentz, "eigenvalue_length", counting)
        outcome = search_outcome(find_small_element, KElem(1), eps, height_bound)
        if want is None:
            assert outcome[:2] == ("exhausted", KElem(-25, -25))
            assert calls[0] == 64
        else:
            assert outcome == ("hit", parse_kelem(want))
            assert calls == []

    @pytest.mark.parametrize("c", [KElem(1), KElem(3), KElem(1, 1), KElem(1000)])
    @pytest.mark.parametrize("eps", [1e300, 2.5, 1e-3, 1e-6, 1e-300, 5e-324])
    def test_guesses_within_one_of_threshold(self, c, eps):
        # the first hits equal the oracle's exactly; no division by an interval
        # that contains 0, and no cosh(eps) built; T reaches 2^2160 at
        # eps = 5e-324, hence the oracle's 4096 bits
        assert first_hits(c, eps) == oracle_hits(c, eps)

    @given(st.sampled_from([KElem(1), KElem(3), KElem(1, 1), KElem(0, 4), KElem(1000)]),
           st.floats(-300 * math.log(10), 3 * math.log(10)))
    @example(KElem(0, 4), 3 * math.log(10))     # c/sqrt2 = 4, past the cap
    @settings(max_examples=40, deadline=None)
    def test_first_hits_match_the_oracle(self, c, log_eps):
        eps = min(max(math.exp(log_eps), 1e-300), 1e3)
        assert first_hits(c, eps) == oracle_hits(c, eps)

    # the cap: at 64 bits T is read at eps/2 = 64, with c/sqrt2's own
    # enclosure as its lower end past it
    @pytest.mark.parametrize("eps", [128.0, math.nextafter(128.0, math.inf), 1e10])
    @pytest.mark.parametrize("c", [KElem(1), KElem(3), KElem(1, 1), KElem(0, 4),
                                   KElem(4, 3), KElem(1000)])
    def test_cap_boundary(self, c, eps):
        assert first_hits(c, eps) == oracle_hits(c, eps)
        for height_bound in range(1, 7):
            case = (c, eps, height_bound)
            assert (search_outcome(find_small_element, *case)
                    == search_outcome(reference_scan, *case)), case

    def test_undecided_length_raises(self):
        # c/sqrt2 = 4 - 2^-5000, and at eps = 1e300 T sits as close below 4:
        # no enclosure up to 4096 bits parts it from 4, and undecided is not
        # "no hit"
        q = KElem(4 - Fraction(1, 2 ** 5000))
        with pytest.raises(PrecisionError):
            find_small_element(q * SQRT2, 1e300, 10)
        # at eps = 128, T is 2^-182 above 4, and that decides it
        assert find_small_element(q * SQRT2, 128.0, 10).parameter() == KElem(3)

    def test_cancelling_coefficients_decide(self):
        # c/sqrt2 = 4 - (sqrt2 - 1)^3300, about 4 - 2^-4196, has coefficients
        # of about 4,200 bits that cancel; it decides at eps = 128 as the
        # rational 4 - 2^-5000 above does
        u = KElem(1)
        for _ in range(3300):
            u = u * KElem(-1, 1)
        assert find_small_element(SQRT2 * (4 - u), 128.0, 10).parameter() == KElem(3)

    @pytest.mark.parametrize("eps", [1000.0, 1e300])
    def test_cap_rises_with_the_precision(self, eps):
        # c/sqrt2 = 4 - 2^-267 keeps 4 inside T's enclosure read at eps/2 = 64;
        # read at eps/2 = 512 from 512 bits on, it decides T < 4, as the linear
        # scan does
        c = KElem(4 - Fraction(1, 2 ** 267)) * SQRT2
        assert find_small_element(c, eps, 10).parameter() == KElem(2)
        assert search_outcome(reference_scan, c, eps, 2) == ("hit", KElem(2))

    def test_integer_hit_never_decides_the_shell(self):
        # no precision up to 4096 bits parts the shell threshold T (3 - 2 sqrt2)
        # from 4, as above; the integer hit t = 5 needs none of it
        c = KElem(4 - Fraction(1, 2 ** 5000)) * (3 + 2 * SQRT2) * SQRT2
        assert find_small_element(c, 1e300, 5).parameter() == KElem(5)
        with pytest.raises(PrecisionError):
            find_small_element(c, 1e300, 4)

    def test_nonpositive_c_is_rejected(self):
        for c in (KElem(0), KElem(-1), KElem(1, -1)):
            with pytest.raises(ValueError):
                find_small_element(c, 0.25, 10)

    def test_epsilon_of_any_size(self):
        # a Fraction eps is used exactly, and no float is taken of it: one
        # overflows past about 1.8e308 and underflows below 5e-324
        assert find_small_element(KElem(1), Fraction(10 ** 400), 10).parameter() == KElem(1)
        t = find_small_element(KElem(1), Fraction(1, 2 ** 1100), 2 ** 1200).parameter()
        assert t.b == 0 and t.a.denominator == 1 and t.a.numerator.bit_length() == 1101
        with mpmath.workprec(4096):
            T = mpmath.coth(mpmath.mpf(2) ** -1101) ** 2 / mpmath.sqrt(2)
            assert (t.a.numerator - 1) ** 2 <= T < t.a.numerator ** 2

    def test_exhaustion_names_an_exact_epsilon_in_six_digits(self):
        # 2^-1100 has a 332-digit denominator; the message keeps 6 digits
        with pytest.raises(SearchExhaustedError) as exc:
            find_small_element(KElem(1), Fraction(1, 2 ** 1100), 10)
        message = str(exc.value)
        assert len(message) < 120 and "< 7.36215e-332;" in message


class TestSearchCommand:
    """`smallsys search` end to end, on inputs the linear scan could not reach."""

    def certificate(self, argv, capsys, tmp_path):
        path = tmp_path / "search.json"
        code = cli.main(["--quiet", "--json", str(path), "search"] + argv)
        capsys.readouterr()
        return code, path.read_bytes()

    # each hit against the parameters just before it in the search order: for
    # the shell hit, the previous shell's largest t^2 and the last integer
    @pytest.mark.parametrize("eps, height_bound, want, before", [
        ("1e-6", "2000000", "1681793", ["1681792"]),
        ("1e-4", "10000", "-6967-6967*rt2", ["-6966-6966*rt2", "10000"]),
    ])
    def test_first_hit_against_oracle(self, capsys, tmp_path, eps, height_bound,
                                      want, before):
        code, raw = self.certificate(["--epsilon", eps, "--height-bound", height_bound],
                                     capsys, tmp_path)
        assert code == 0
        assert json.loads(raw)["checks"][0]["exact_values"]["t"] == want
        T = threshold_oracle(KElem(1), float(eps))
        assert square_over(parse_kelem(want), T)
        assert not any(square_over(parse_kelem(t), T) for t in before)

    @pytest.mark.parametrize("eps", ["1e10", "1e300"])
    def test_huge_epsilon_passes_at_t1(self, capsys, tmp_path, eps):
        code, raw = self.certificate(["--c", "1", "--epsilon", eps], capsys, tmp_path)
        assert code == 0
        assert json.loads(raw)["checks"][0]["exact_values"]["t"] == "1"

    def test_tiny_epsilon_matches_linear_scan(self, capsys, tmp_path, monkeypatch):
        argv = ["--epsilon", "1e-300", "--height-bound", "5"]
        code, raw = self.certificate(argv, capsys, tmp_path)
        assert code == 1
        assert json.loads(raw)["checks"][0]["exact_values"]["best_t"] == "-5-5*rt2"
        monkeypatch.setattr(cli, "find_small_element", reference_scan)
        assert self.certificate(argv, capsys, tmp_path) == (code, raw)

    def test_tiny_epsilon_hit_passes(self, capsys, tmp_path):
        # near 0 a 128-bit arccosh interval is about 2^-64 wide, so the verdict
        # on this hit needs more bits than --precision
        t = "16817928305074292049769794435721570581303"
        code, raw = self.certificate(["--epsilon", "1e-40", "--height-bound",
                                      str(10 ** 41)], capsys, tmp_path)
        assert code == 0
        check = json.loads(raw)["checks"][0]
        assert check["status"] == "PASS"
        assert check["exact_values"]["t"] == t
        assert check["numeric_values"]["length"].endswith("e-40")
        T = threshold_oracle(KElem(1), 1e-40)
        assert square_over(parse_kelem(t), T)
        assert not square_over(parse_kelem(str(int(t) - 1)), T)

    def test_undecided_length_raises_at_4096_bits(self, capsys, monkeypatch):
        tried = []

        def undecided(lam_iv):
            tried.append(lam_iv.precision)
            return RealInterval(0, 1, lam_iv.precision)
        monkeypatch.setattr(cli, "eigenvalue_length", undecided)
        assert cli.main(["search", "--epsilon", "0.25"]) == 3
        assert "PrecisionError" in capsys.readouterr().err
        assert tried == [128, 256, 512, 1024, 2048, 4096]

    def test_precision_above_ceiling_decides_once(self, capsys, tmp_path, monkeypatch):
        tried, real = [], cli.eigenvalue_length

        def counted(lam_iv):
            tried.append(lam_iv.precision)
            return real(lam_iv)
        monkeypatch.setattr(cli, "eigenvalue_length", counted)
        path = tmp_path / "search.json"
        assert cli.main(["--quiet", "--json", str(path), "--precision", "8192",
                         "search", "--epsilon", "1e-3"]) == 0
        cert = json.loads(path.read_text())
        assert cert["verdict"] == "PASS"
        assert cert["inputs"]["precision"] == "8192"
        assert tried == [8192]

    @pytest.mark.parametrize("argv", [
        ["--epsilon", "1e-40", "--height-bound", str(10 ** 41)],
        ["--epsilon", "1e-20", "--height-bound", "1000000000000"],
    ], ids=["hit", "exhausted"])
    def test_one_eigenvalue_per_block(self, capsys, tmp_path, monkeypatch, argv):
        # a lambda, once found, serves every precision its length is tried
        # at: in the search, in pricing an exhausted one and in the verdict;
        # it is embedded once per precision, for its length and its print
        found, embedded, priced = [], [], []
        real_eig, real_embed = lorentz.leading_eigenvalue, lorentz.embed
        real_len = lorentz.eigenvalue_length

        def eig(g):
            found.append(g)
            return real_eig(g)

        def embed(lam, prec):
            embedded.append(lam)
            return real_embed(lam, prec)

        def length(lam_iv):
            priced.append(lam_iv)
            return real_len(lam_iv)
        for module in (lorentz, cli):
            monkeypatch.setattr(module, "leading_eigenvalue", eig)
            monkeypatch.setattr(module, "embed", embed)
            monkeypatch.setattr(module, "eigenvalue_length", length)
        code, raw = self.certificate(argv, capsys, tmp_path)
        assert len(found) == len({id(lam) for lam in embedded}) < len(embedded) == len(priced)
        if code == 0:
            assert json.loads(raw)["checks"][0]["numeric_values"]["lambda"] == \
                cli._fmt(priced[-1])

    def test_exhausted_best_length_is_precise(self, capsys, tmp_path):
        # at 64 bits this length's enclosure is [0, 1.65e-10], whose midpoint
        # 8.2e-11 is noise; the length is priced until 2^-40 wide relative
        H = 10 ** 12
        code, raw = self.certificate(["--epsilon", "1e-20", "--height-bound", str(H)],
                                     capsys, tmp_path)
        assert code == 1
        got = float(json.loads(raw)["checks"][0]["numeric_values"]["best_length"])
        alpha = param_block(KElem(1), KElem(-H, -H), 2).alpha
        with mpmath.workprec(400):
            want = mpmath.acosh((alpha.p + alpha.q * mpmath.sqrt(2)) / alpha.d)
        assert abs(got - want) <= 1e-9 * want
        assert float(want) == pytest.approx(6.966e-13, rel=1e-3)

    def test_tiny_epsilon_exhausts_default_height(self, capsys, tmp_path):
        code, raw = self.certificate(["--epsilon", "1e-300"], capsys, tmp_path)
        assert code == 1
        check = json.loads(raw)["checks"][0]
        assert check["exact_values"]["best_t"] == "-10000-10000*rt2"
        assert check["numeric_values"]["best_length"].startswith("0.0000696621")


class TestSimilarityObstruction:
    def test_identical_forms(self):
        f = QuadForm.standard(1, 3)
        assert similarity_discriminant_obstruction(f, f) == "inconclusive"

    def test_a17_rank4(self):
        assert similarity_discriminant_obstruction(
            QuadForm.standard(1, 3), QuadForm.standard(17, 3)) == "obstructed"

    def test_a3_rank4(self):
        assert similarity_discriminant_obstruction(
            QuadForm.standard(1, 3), QuadForm.standard(3, 3)) == "obstructed"

    def test_odd_rank_inconclusive(self):
        assert similarity_discriminant_obstruction(
            QuadForm.standard(1, 2), QuadForm.standard(3, 2)) == "inconclusive"

    def test_square_ratio_inconclusive(self):
        assert similarity_discriminant_obstruction(
            QuadForm.standard(1, 3), QuadForm.standard(4, 3)) == "inconclusive"


class TestTowerConjugation:
    def test_g2_conjugated_into_unit_form(self):
        # diag(sqrt a, 1, ..., 1) g2 diag(sqrt a, 1, ..., 1)^{-1} preserves
        # the unit-coefficient form, with entries in the tower k(sqrt 3)
        root = sqrt_k(3)
        g2 = block_g2(3).to_entries()
        size = len(g2)
        d = [root if i == 0 else KElem(1) for i in range(size)]
        conj = tuple(tuple(d[i] * g2[i][j] / d[j] for j in range(size))
                     for i in range(size))
        unit = QuadForm.standard(1, 3)
        assert is_isometry(conj, unit)
        assert in_O_prime(conj, unit)
        assert conj[0][0] == KElem(Fraction(11, 7), Fraction(6, 7))
        assert type(conj[0][0]) is KElem            # entries in k keep their form
        assert conj[0][size - 1].u == KElem(0)       # off-corner entries pick up sqrt3
        assert conj[0][size - 1].v != KElem(0)


class TestSerialization:
    def test_roundtrip(self):
        iso = block_g1(3).to_isometry()
        text = serialize_isometry(iso)
        back = parse_isometry(text)
        assert back == iso

    def test_form_header(self):
        f = parse_form_header("form: diag(3, 1, 1, -rt2)")
        assert f == QuadForm.standard(3, 3)
        with pytest.raises(ValueError):
            parse_form_header("form: diag(3, 1)")

    def test_padded_instances_stay_isometries(self):
        for n in range(2, 11):
            assert is_isometry(block_g1(n).to_entries(), QuadForm.standard(1, n))
            assert is_isometry(block_g2(n).to_entries(), QuadForm.standard(3, n))


def test_geometry_layers_leave_polyalg_unloaded():
    # eigenvalues are tower values, so the geometry never needs polyalg
    code = ("import sys, smallsys.lorentz, smallsys.hypgeom, smallsys.congr; "
            "print('smallsys.polyalg' in sys.modules)")
    src = os.path.dirname(os.path.dirname(lorentz.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"
