"""Properties checked on random inputs: form and certificate JSON."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minsos.biform import RATIONAL, BinaryForm, TermPoly
from minsos.binary_sos import rnc_basis
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
def representations(draw):
    """A signed representation over a random monomial basis, exact or float,
    of zero to four forms."""
    nvars = draw(st.integers(1, 4))
    monos = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), min_size=1,
                          max_size=6, unique=True))
    names = tuple("v%d" % i for i in range(nvars))
    basis = MonomialBasis(tuple(monos), nvars, names)
    exact = draw(st.booleans())
    coeffs = rationals if exact else st.floats(-1e6, 1e6, allow_nan=False)
    vectors = draw(st.lists(st.lists(coeffs, min_size=len(monos), max_size=len(monos)),
                            min_size=0, max_size=4))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(vectors),
                          max_size=len(vectors)))
    return Representation(basis=basis, vectors=vectors, signs=signs, exact=exact)


@SETTINGS
@given(representations())
# no coefficient is left to infer exactness from
@example(Representation(rnc_basis(2), [], [], exact=False))
def test_representation_json_round_trip(rep):
    back = Representation.from_json(rep.to_json())
    assert back.basis == rep.basis
    assert back.signs == rep.signs
    assert back.exact == rep.exact
    if rep.exact:
        assert back.gram_exact() == rep.gram_exact()
    else:
        assert (back.gram() == rep.gram()).all()


def test_exact_representation_with_float_coefficients_is_rejected():
    data = Representation(rnc_basis(1), [[1.5, 0.25]], [1]).to_json()
    data["exact"] = True
    with pytest.raises(ValueError):
        Representation.from_json(data)
