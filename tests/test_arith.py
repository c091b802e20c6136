import itertools
import random
from fractions import Fraction

import pytest

from smallsys import arith, lorentz
from smallsys.arith import (
    FieldDescriptor,
    GroupSample,
    adjoint_trace,
    conjugate_between_forms,
    integrality_scan,
    non_qa_certificate,
    trace_field_sample,
    word_to_text,
)
from smallsys.exactfield import KElem, TowerElem, as_tower_coords, sqrt_k
from smallsys.lorentz import Isometry, QuadForm, block_g1, block_g2, param_block
from smallsys.polyalg import is_algebraic_integer, minpoly_over_Q

F1 = QuadForm.standard(1, 2)
FLIP = Isometry((
    (KElem(-1), KElem(0), KElem(0)),
    (KElem(0), KElem(1), KElem(0)),
    (KElem(0), KElem(0), KElem(1)),
), F1)
SWAP = Isometry((
    (KElem(0), KElem(1), KElem(0)),
    (KElem(1), KElem(0), KElem(0)),
    (KElem(0), KElem(0), KElem(1)),
), F1)


def exterior_square_trace(m: Isometry):
    """Brute-force pairing oracle: sum over i < j of the 2x2 principal-minor
    pairings M_ii M_jj - M_ij M_ji."""
    e = m.entries
    size = len(e)
    total = None
    for i in range(size):
        for j in range(i + 1, size):
            term = e[i][i] * e[j][j] - e[i][j] * e[j][i]
            total = term if total is None else total + term
    return total


def walk(sample):
    """(word, isometry) per nonempty reduced word of the sample, by length
    then letters a, A, b, B, ...; each word is its parent word times one
    letter.  Every word is multiplied out: the reference for
    GroupSample.traces, which multiplies out one word per class."""
    letters = []
    for i, g in enumerate(sample.generators, 1):
        letters.extend(((i, g), (-i, g.inverse())))
    frontier = [((), None)]
    for _ in range(sample.word_length):
        nxt = []
        for w, m in frontier:
            for ltr, g in letters:
                if w and w[-1] == -ltr:
                    continue
                step = (w + (ltr,), g if m is None else m * g)
                nxt.append(step)
                yield step
        frontier = nxt


def g1_iso(n=2):
    return block_g1(n).to_isometry()


def g2_conj(n=2):
    return conjugate_between_forms(block_g2(n).to_isometry(), 3)


class TestAdjointTrace:
    def test_identity_dimension(self):
        assert adjoint_trace(Isometry.identity(F1)) == KElem(3)

    def test_g1(self):
        assert adjoint_trace(g1_iso()) == KElem(7, 4)

    def test_matches_minor_sum_oracle(self):
        rng = random.Random(107)
        for _ in range(100):
            c = KElem(rng.choice([1, 2, 3]))
            t = KElem(rng.randint(2, 15), rng.randint(0, 5))
            g = param_block(c, t, rng.randint(2, 4)).to_isometry()
            assert adjoint_trace(g) == exterior_square_trace(g)
        # dense conjugates and tower matrices, alone and multiplied
        for _ in range(40):
            t = KElem(rng.randint(2, 12), rng.randint(0, 4))
            h = rng.choice([FLIP, SWAP, FLIP * SWAP])
            dense = h * param_block(KElem(1), t, 2).to_isometry() * h.inverse()
            tower = conjugate_between_forms(param_block(KElem(3), t, 2).to_isometry(), 3)
            for m in (dense, tower, tower * dense, dense * tower.inverse()):
                assert adjoint_trace(m) == exterior_square_trace(m)
        for n in (3, 4):
            m = conjugate_between_forms(param_block(KElem(3), KElem(2, 1), n).to_isometry(), 3)
            assert adjoint_trace(m) == exterior_square_trace(m)

    def test_conjugation_invariance(self):
        rng = random.Random(109)
        for _ in range(500):
            t = KElem(rng.randint(2, 12), rng.randint(0, 4))
            g = param_block(KElem(1), t, 2).to_isometry()
            h = rng.choice([FLIP, SWAP, FLIP * SWAP,
                            param_block(KElem(1), KElem(rng.randint(1, 6)), 2
                                        ).to_isometry()])
            conj = h * g * h.inverse()
            assert adjoint_trace(conj) == adjoint_trace(g)


class TestWalk:
    @staticmethod
    def dense_inverse(m):
        # F^{-1} M^T F, written out for a diagonal form
        diag = m.form.diagonal()
        size = len(diag)
        return tuple(tuple(m.entries[j][i] * diag[j] / diag[i] for j in range(size))
                     for i in range(size))

    @staticmethod
    def dense_product(x, y):
        # the plain triple loop, every term kept, summed left to right
        size = len(x)
        out = []
        for i in range(size):
            row = []
            for j in range(size):
                total = x[i][0] * y[0][j]
                for r in range(1, size):
                    total = total + x[i][r] * y[r][j]
                row.append(total)
            out.append(tuple(row))
        return tuple(out)

    @pytest.mark.parametrize("length", [1, 2, 3])
    @pytest.mark.parametrize("gens", [
        [g1_iso()], [g1_iso(), g2_conj()], [g1_iso(6)], [g1_iso(6), g2_conj(6)],
        # KElem entries against k(sqrt 17) entries, g2's parameter at a = 17
        [g1_iso(), conjugate_between_forms(
            param_block(KElem(17), KElem(4), 2).to_isometry(), 17)],
    ], ids=["one", "two", "one_n6", "two_n6", "mixed_a17"])
    def test_matches_independent_enumeration(self, gens, length):
        letters = [ltr for i in range(1, len(gens) + 1) for ltr in (i, -i)]
        expected = [w for size in range(1, length + 1)
                    for w in itertools.product(letters, repeat=size)
                    if all(x != -y for x, y in zip(w, w[1:]))]
        sample = GroupSample(gens, length)
        walked, traced = list(walk(sample)), sample.traces()
        assert [w for w, _ in walked] == [w for w, _ in traced] == expected
        for (w, m), (_, tr) in zip(walked, traced):
            mats = [gens[ltr - 1].entries if ltr > 0
                    else self.dense_inverse(gens[-ltr - 1]) for ltr in w]
            dense = mats[0]
            for nxt in mats[1:]:
                dense = self.dense_product(dense, nxt)
            assert m.entries == dense
            assert [[type(x) for x in row] for row in m.entries] == \
                [[type(x) for x in row] for row in dense]
            # one trace per class of words, read off the first word of its class
            want = adjoint_trace(Isometry(dense, sample.generators[0].form))
            assert tr == want and type(tr) is type(want)


class TestTraceCounts:
    @staticmethod
    def counted(monkeypatch):
        calls = {"adjoint_trace": 0, "mat_mul": 0}
        for module, name in ((arith, "adjoint_trace"), (lorentz, "mat_mul")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        return calls

    def test_one_trace_per_class(self, monkeypatch):
        # 16 words in 6 classes, first met as a, b, aa, ab, aB and bb; the
        # products are aa, ab, aB and bb
        sample = GroupSample([g1_iso(), g2_conj()], 2)
        calls = self.counted(monkeypatch)
        assert len(sample.traces()) == 16
        assert calls["adjoint_trace"] == 6
        assert calls["mat_mul"] <= 4

    def test_one_generator(self, monkeypatch):
        # a, A | aa, AA | aaa, AAA
        sample = GroupSample([g1_iso()], 3)
        calls = self.counted(monkeypatch)
        assert len(sample.traces()) == 6
        assert calls["adjoint_trace"] == 3

    def test_readers_share_one_walk(self, monkeypatch):
        sample = GroupSample([g1_iso(), g2_conj()], 2)
        calls = self.counted(monkeypatch)
        trace_field_sample(sample)
        assert calls["adjoint_trace"] == 6
        integrality_scan(sample)
        assert calls["adjoint_trace"] == 6


class TestConjugateBetweenForms:
    def test_identity(self):
        ident = Isometry.identity(QuadForm.standard(3, 2))
        out = conjugate_between_forms(ident, 3)
        assert out.form == F1
        assert adjoint_trace(out) == KElem(3)

    def test_g2_entries(self):
        h = g2_conj()
        corner = h.entries[0][0]
        assert corner == KElem(Fraction(11, 7), Fraction(6, 7)) and type(corner) is KElem
        off = h.entries[0][2]
        assert not off.u and off.v != KElem(0)

    def test_trace_preserved(self):
        rng = random.Random(113)
        for _ in range(30):
            t = KElem(rng.randint(2, 10), rng.randint(0, 4))
            g = param_block(KElem(3), t, 2).to_isometry()
            h = conjugate_between_forms(g, 3)
            tr = adjoint_trace(h)
            u, v = as_tower_coords(tr)
            assert (u, v) == (adjoint_trace(g), KElem(0))

    @pytest.mark.parametrize("a", [3, 17, Fraction(5, 3), 2])
    @pytest.mark.parametrize("n", [2, 6, 10])
    def test_entries_are_d_m_d_inverse(self, a, n):
        # each entry d_i M_ij / d_j, with d = (sqrt a, 1, ..., 1), in its one
        # form; the block has zeros in row 0 and column 0
        g = param_block(KElem(a), KElem(5), n).to_isometry()
        d = [sqrt_k(a)] + [KElem(1)] * n
        want = [[d[i] * x / d[j] for j, x in enumerate(row)]
                for i, row in enumerate(g.entries)]
        got = conjugate_between_forms(g, a).entries
        assert [list(row) for row in got] == want
        assert [type(x) for row in got for x in row] == [type(x) for row in want for x in row]

    def test_wrong_form_rejected(self):
        with pytest.raises(ValueError):
            conjugate_between_forms(g1_iso(), 3)

    @pytest.mark.parametrize("a", [2, Fraction(9, 4)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_square_a_gives_an_isometry_over_k(self, a, n):
        """At a square a of k, sqrt a lies in k, so D M D^-1 is an isometry of
        the unit-coefficient form over k: every entry is a KElem, and the
        checked Isometry constructor accepts the entries.  No command reaches
        this case, since verify rejects a square a with exit 2."""
        g = param_block(KElem(a), KElem(2), n).to_isometry()
        out = conjugate_between_forms(g, a)
        assert all(type(x) is KElem for row in out.entries for x in row)
        checked = Isometry(out.entries, QuadForm.standard(1, n))
        assert checked.entries == out.entries


class TestTraceFieldSample:
    def test_identity_sample_is_Q(self):
        fd = trace_field_sample(GroupSample([Isometry.identity(F1)], 2))
        assert fd.level == "Q"

    def test_g1_sample_is_k(self):
        fd = trace_field_sample(GroupSample([g1_iso()], 3))
        assert fd.level == "k"
        word, tr = fd.witnesses[0]
        assert tr == KElem(7, 4)
        assert word == "a"

    def test_mixed_sample_is_K_at_length_two(self):
        fd = trace_field_sample(GroupSample([g1_iso(), g2_conj()], 2))
        assert fd.level == "K"
        assert any(as_tower_coords(tr)[1] for _, tr in fd.witnesses)

    def test_monotone_in_word_length(self):
        gens = [g1_iso(), g2_conj()]
        order = {"Q": 0, "k": 1, "K": 2}
        levels = [trace_field_sample(GroupSample(gens, L)).level for L in (1, 2, 3)]
        assert all(order[a] <= order[b] for a, b in zip(levels, levels[1:]))

    def test_word_text(self):
        assert word_to_text((1, -2, 1)) == "aBa"


class TestIntegralityScan:
    def test_g1_sample_all_integral(self):
        assert integrality_scan(GroupSample([g1_iso()], 3)) == []

    def test_g2_block_nonintegral(self):
        sample = GroupSample([block_g2().to_isometry()], 1)
        bad = integrality_scan(sample)
        words = {w for w, _, _ in bad}
        assert "a" in words
        for _, tr, mp in bad:
            assert not mp.is_integral()

    def test_mixed_sample_nonempty(self):
        assert integrality_scan(GroupSample([g1_iso(), g2_conj()], 2))

    def test_identity_scan_empty(self):
        assert integrality_scan(GroupSample([Isometry.identity(F1)], 2)) == []


class TestNonQACertificate:
    def test_designated_instance_passes(self):
        sub = trace_field_sample(GroupSample([g1_iso()], 3))
        amb = trace_field_sample(GroupSample([g1_iso(), g2_conj()], 2))
        report = non_qa_certificate(3, sub, amb)
        assert report.passed

    def test_square_parameter_fails(self):
        sub = FieldDescriptor("k")
        amb = FieldDescriptor("K")
        report = non_qa_certificate(2, sub, amb)
        assert not report.passed
        assert any("square in k" in f for f in report.failures)

    def test_small_subgroup_field_fails(self):
        report = non_qa_certificate(3, FieldDescriptor("Q"), FieldDescriptor("K"))
        assert not report.passed
        assert any("subgroup" in f for f in report.failures)


def root(t, n, branch=1):
    """The root t/2 + branch sqrt(t^2/4 - n) of x^2 - t x + n, t and n in k."""
    return t / 2 + branch * sqrt_k(t * t / 4 - n)


class TestPalindromicTransfer:
    def test_golden_square(self):
        mu = root(KElem(3), KElem(1))      # golden ratio squared
        assert is_algebraic_integer(mu)

    def test_lambda2_nonintegral(self):
        mu = root(KElem(Fraction(22, 7), Fraction(12, 7)), KElem(1))
        assert not is_algebraic_integer(mu)


def test_tower_trace_is_a_root_of_its_minpoly():
    tr = adjoint_trace(g1_iso() * g2_conj())
    assert isinstance(tr, TowerElem)
    mp = minpoly_over_Q(tr)
    assert mp.degree() == 4
    value = 0
    for c in reversed(mp.coeffs):
        value = value * tr + c
    assert value == 0
