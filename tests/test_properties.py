"""Properties checked on random inputs: form and certificate JSON, the apex reduction."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from minsos.biform import RATIONAL, BinaryForm, TermPoly
from minsos.cones import lift_gram, schur_reduce_gram
from minsos.gram import Representation
from minsos.surfaces import MonomialBasis

SETTINGS = settings(max_examples=50, deadline=None)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@st.composite
def forms_over_stxy(draw):
    """A rational form over (s, t, x, y) of a random bidegree (deg_st, deg_xy)."""
    deg_st = draw(st.integers(0, 4))
    deg_xy = draw(st.integers(0, 3))
    raw = draw(
        st.dictionaries(
            st.tuples(st.integers(0, deg_st), st.integers(0, deg_xy)), rationals, max_size=8
        )
    )
    terms = {(i, deg_st - i, k, deg_xy - k): c for (i, k), c in raw.items()}
    return deg_st, deg_xy, TermPoly(4, terms)


def _degst_layout(deg_st, deg_xy, f):
    """f in the {"degST", "degXY", "terms"} layout earlier releases wrote."""
    return {
        "degST": deg_st,
        "degXY": deg_xy,
        "terms": [
            {"s": i, "t": j, "x": k, "y": l, "num": c.numerator, "den": c.denominator}
            for (i, j, k, l), c in f.terms.items()
        ],
    }


@SETTINGS
@given(forms_over_stxy())
def test_termpoly_json_round_trip_in_both_layouts(drawn):
    deg_st, deg_xy, f = drawn
    for data in (f.to_json(), _degst_layout(deg_st, deg_xy, f)):
        g = TermPoly.from_json(data)
        assert g == f
        assert g.nvars == 4 and g.field == RATIONAL


@st.composite
def cone_gram_data(draw):
    """(Gp, a, b): a symmetric base Gram matrix, a > 0 and b of degree d."""
    d = draw(st.integers(1, 4))
    upper = draw(st.lists(rationals, min_size=(d + 1) * (d + 2) // 2,
                          max_size=(d + 1) * (d + 2) // 2))
    Gp = [[Fraction(0)] * (d + 1) for _ in range(d + 1)]
    it = iter(upper)
    for i in range(d + 1):
        for j in range(i, d + 1):
            Gp[i][j] = Gp[j][i] = next(it)
    a = draw(st.fractions(min_value=Fraction(1, 60), max_value=50, max_denominator=60))
    b = BinaryForm(draw(st.lists(rationals, min_size=d + 1, max_size=d + 1)), d)
    return Gp, a, b


@SETTINGS
@given(cone_gram_data())
def test_schur_reduce_inverts_lift_gram_exactly(drawn):
    Gp, a, b = drawn
    assert schur_reduce_gram(lift_gram(Gp, a, b), b.deg) == Gp


@st.composite
def representations(draw):
    """A signed representation over a random monomial basis, exact or float."""
    nvars = draw(st.integers(1, 4))
    monos = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), min_size=1,
                          max_size=6, unique=True))
    names = tuple("v%d" % i for i in range(nvars))
    basis = MonomialBasis(tuple(monos), nvars, names)
    exact = draw(st.booleans())
    coeffs = rationals if exact else st.floats(-1e6, 1e6, allow_nan=False)
    vectors = draw(st.lists(st.lists(coeffs, min_size=len(monos), max_size=len(monos)),
                            min_size=1, max_size=4))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(vectors),
                          max_size=len(vectors)))
    return Representation(basis=basis, vectors=vectors, signs=signs, exact=exact)


@SETTINGS
@given(representations())
def test_representation_json_round_trip(rep):
    back = Representation.from_json(rep.to_json())
    assert back.basis == rep.basis
    assert back.signs == rep.signs
    assert back.exact == rep.exact
    if rep.exact:
        assert back.gram_exact() == rep.gram_exact()
    else:
        assert (back.gram() == rep.gram()).all()
