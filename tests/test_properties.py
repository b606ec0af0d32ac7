"""Properties checked on random inputs: form and certificate JSON, root multiplicities."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minsos.biform import BinaryForm, TermPoly, squarefree_parts
from minsos.binary_sos import rnc_basis, roots
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
        assert g.nvars == 4 and all(type(c) is Fraction for c in g.terms.values())
    # written with re/im floats, each term reads back as the rational its
    # double denotes
    data = f.to_json()
    for term in data["terms"]:
        term["re"], term["im"] = term.pop("num") / term.pop("den"), 0.0
    floats = {expo: Fraction(float(c)) for expo, c in f.terms.items()}
    assert TermPoly.from_json(data) == TermPoly(4, floats)


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


multiplicities = st.integers(1, 4)


@st.composite
def factored_forms(draw):
    """lead * t^m * s^k * prod (s - r t)^k * prod (s^2 + a s t + b t^2)^k, b > a^2 / 4.

    Returns the form, m and the (factor, k) list; the roots r are distinct
    and nonzero and the quadratics distinct, so the factors are coprime.
    """
    nonzero = st.fractions(-5, 5, max_denominator=6).filter(lambda r: r != 0)
    reals = draw(st.lists(st.tuples(nonzero, multiplicities), max_size=3,
                          unique_by=lambda rk: rk[0]))
    quads = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 5), multiplicities),
                          max_size=2, unique_by=lambda abk: abk[:2]))
    factors = [(BinaryForm([-r, 1], 1), k) for r, k in reals]
    factors += [(BinaryForm([a * a // 4 + b, a, 1], 2), k) for a, b, k in quads]
    if draw(st.booleans()):
        factors.append((BinaryForm([0, 1], 1), draw(multiplicities)))  # s
    m = draw(st.integers(0, 4))
    f = BinaryForm([draw(rationals.filter(lambda c: c != 0))] + [0] * m, m)
    for factor, k in factors:
        for _ in range(k):
            f = f * factor
    return f, m, factors


def _root_mults(values):
    """(value, multiplicity) sorted by real part, then imaginary part, to 6 places."""
    return sorted(values, key=lambda vk: (round(vk[0].real, 6), round(vk[0].imag, 6)))


@SETTINGS
@given(factored_forms())
def test_squarefree_parts_and_roots_report_the_built_multiplicities(drawn):
    f, m, factors = drawn
    inf_mult, parts = squarefree_parts(f)
    assert inf_mult == m
    rebuilt = BinaryForm([f.coeffs[f.s_degree()]] + [0] * m, m)
    for part, k in parts:
        assert squarefree_parts(part) == (0, [(part, 1)])
        for _ in range(k):
            rebuilt = rebuilt * part
    assert rebuilt == f
    # part k is the product of the factors built with multiplicity k
    want = {}
    for factor, k in factors:
        want[k] = want[k] * factor if k in want else factor
    assert parts == [(want[k], k) for k in sorted(want)]
    # roots: each factor's roots carry the multiplicity it was built with
    real, pairs = [], []
    for factor, k in factors:
        if factor.deg == 1:
            real.append((complex(-factor.coeffs[0]), k))
        else:
            b, a, _ = factor.coeffs
            pairs.append((complex(-a / 2, np.sqrt(float(b - a * a / 4))), k))
    rm = roots(f)
    assert rm.inf_mult == m
    for got, built in ((rm.real_roots, real), (rm.pairs, pairs)):
        got, built = _root_mults(got), _root_mults(built)
        assert [k for _, k in got] == [k for _, k in built]
        assert [v for v, _ in got] == pytest.approx([v for v, _ in built], abs=1e-9)


@st.composite
def integer_forms(draw):
    """g * h^k * (s - r t)^j * t^m for random integer forms g and h.

    h^k repeats factors, (s - r t)^j adds a real root and t^m the root at
    infinity; g and h may have real roots and zero leading coefficients too.
    """

    def form(max_deg):
        deg = draw(st.integers(1, max_deg))
        coeffs = draw(st.lists(st.integers(-20, 20), min_size=deg + 1, max_size=deg + 1)
                      .filter(any))
        return BinaryForm(coeffs, deg)

    f = form(6)
    h = form(3)
    for _ in range(draw(st.integers(0, 3))):
        f = f * h
    line = BinaryForm([-draw(st.integers(-5, 5)), 1], 1)
    for _ in range(draw(st.integers(0, 3))):
        f = f * line
    m = draw(st.integers(0, 3))
    return f * BinaryForm([1] + [0] * m, m)


@SETTINGS
@given(integer_forms())
def test_roots_come_in_exact_conjugate_pairs(f):
    # each real square-free part goes through the real eigen-solver, whose
    # non-real roots are exact conjugates, so no root of a pair goes missing
    rm = roots(f)
    assert all(value.imag > 0 for value, _ in rm.pairs)
    assert all(value.imag == 0 for value, _ in rm.real_roots)
    total = 2 * sum(k for _, k in rm.pairs) + sum(k for _, k in rm.real_roots) + rm.inf_mult
    assert total == f.deg
