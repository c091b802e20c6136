"""Property tests for the isometry group law.

`Isometry` checks M^T F M = F only when built from entries; products and
inverses are trusted to stay isometries.  These properties check that trust
on random words over corner blocks, signed coordinate permutations and
tower matrices: every product still passes the exact check, its sheet
behaviour follows the parity of its sheet-reversing factors, products
associate, and g * g^-1 is the identity.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smallsys.arith import conjugate_between_forms
from smallsys.exactfield import KElem
from smallsys.lorentz import Isometry, QuadForm, is_isometry, param_block

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def k_parameter(draw):
    """t = +-(u + v sqrt2) with u >= 2 and v >= 0, so sqrt2 t^2 > 3 >= c
    and the block lies on the loxodromic branch."""
    u = Fraction(draw(st.integers(4, 24)), 2)
    v = Fraction(draw(st.integers(0, 8)), draw(st.integers(1, 3)))
    return KElem(u, v) * draw(st.sampled_from([1, -1]))


def block_isometry(draw, c, n, form):
    iso = param_block(c, draw(k_parameter()), n).to_isometry()
    assert iso.form == form
    return iso


@st.composite
def signed_permutation(draw, form):
    """A coordinate permutation with sign flips that only exchanges
    coordinates of equal coefficient; the temporal sign may flip too."""
    n = form.n
    movable = list(range(n)) if form.spatial[0] == KElem(1) else list(range(1, n))
    image = list(range(n + 1))
    shuffled = draw(st.permutations(movable))
    for src, dst in zip(movable, shuffled):
        image[src] = dst
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n + 1, max_size=n + 1))
    rows = [[KElem(0)] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        rows[image[i]][i] = KElem(signs[i])
    return Isometry(rows, form)


@st.composite
def pool(draw):
    """A form and a few isometries of it.  On the unit form the pool may
    hold tower matrices D M D^-1 with entries in k(sqrt 3)."""
    n = draw(st.sampled_from([2, 3, 4]))
    tower = draw(st.booleans())
    c = 1 if tower else draw(st.sampled_from([1, 2, 3]))
    form = QuadForm.standard(c, n)
    out = []
    for _ in range(3):
        kind = draw(st.sampled_from(["block", "perm", "tower"] if tower
                                    else ["block", "perm"]))
        if kind == "block":
            out.append(block_isometry(draw, KElem(c), n, form))
        elif kind == "perm":
            out.append(draw(signed_permutation(form)))
        else:
            src = QuadForm.standard(3, n)
            out.append(conjugate_between_forms(block_isometry(draw, KElem(3), n, src), 3))
    return form, out


@st.composite
def word(draw):
    form, gens = draw(pool())
    picks = draw(st.lists(st.tuples(st.integers(0, len(gens) - 1), st.booleans()),
                          min_size=1, max_size=4))
    return form, [gens[i].inverse() if inv else gens[i] for i, inv in picks]


def product(factors):
    out = factors[0]
    for g in factors[1:]:
        out = out * g
    return out


@SETTINGS
@given(word())
def test_products_and_inverses_stay_isometries(case):
    form, factors = case
    for m in (product(factors), product(factors).inverse()):
        assert is_isometry(m.entries, form)
        assert m.sheet_preserving == (m.entries[form.n][form.n].sign() == 1)
        reversing = sum(not f.sheet_preserving for f in factors)
        assert m.sheet_preserving == (reversing % 2 == 0)


@SETTINGS
@given(pool())
def test_associativity(case):
    _, (g, h, k) = case
    assert (g * h) * k == g * (h * k)


@SETTINGS
@given(pool())
def test_inverse_is_two_sided(case):
    form, gens = case
    ident = Isometry.identity(form)
    for g in gens:
        assert g * g.inverse() == ident
        assert g.inverse() * g == ident
