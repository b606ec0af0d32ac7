"""Exact polynomial containers: JSON, fields, square-free parts; and the
arithmetic of form_algebra, which the other tests build their forms with.

Expected values are hand-expanded products of small polynomials, so every
assertion is checkable by eye.
"""

from fractions import Fraction

import pytest

from minsos.biform import (
    COMPLEX,
    RATIONAL,
    BinaryForm,
    TermPoly,
    rational_from_json,
    real_root_count,
    squarefree_parts,
)
from minsos.errors import DegreeMismatch, NotAQuadraticForm

from form_algebra import add, evaluate, mul, sub


# ---------------------------------------------------------------- BinaryForm


def test_binary_mul_difference_of_squares():
    # (s + t)(s - t) = s^2 - t^2
    f = mul(BinaryForm([1, 1], 1), BinaryForm([-1, 1], 1))
    assert f.coeffs == [-1, 0, 1]
    assert f.deg == 2


def test_binary_add_sub_neg_roundtrip():
    f = BinaryForm([1, 2, 3], 2)
    g = BinaryForm([5, -1, 0], 2)
    assert sub(add(f, g), g) == f
    assert f.scale(-1).scale(-1) == f
    assert sub(f, f).is_zero()


def test_binary_eval_exact_and_float():
    # f(s, t) = s^2 + 5 s t + 4 t^2 at (2, 3): 4 + 30 + 36 = 70
    f = BinaryForm([4, 5, 1], 2)
    assert evaluate(f, 2, 3) == 70
    assert evaluate(f, Fraction(1, 2), 1) == Fraction(1, 4) + Fraction(5, 2) + 4
    assert evaluate(f, 2.0, 3.0) == pytest.approx(70.0)


def test_binary_scale_and_max_abs_coeff():
    f = BinaryForm([1, -7, 2], 2)
    assert f.max_abs_coeff() == 7
    assert f.scale(Fraction(1, 2)).coeffs == [Fraction(1, 2), Fraction(-7, 2), 1]


def test_binary_degree_mismatch_raises():
    with pytest.raises(DegreeMismatch):
        add(BinaryForm([1], 0), BinaryForm([1, 1], 1))


def test_binary_json_roundtrip_exact():
    f = BinaryForm([Fraction(1, 3), -2, 1], 2)
    g = BinaryForm.from_json(f.to_json())
    assert g == f and g.field == f.field


def test_binary_json_roundtrip_complex():
    # a float form writes re/im and reads back as the rationals its doubles
    # denote; a non-real coefficient is no input
    f = BinaryForm([0.1, 0.0, -2.5], 2)
    assert f.field == COMPLEX
    g = BinaryForm.from_json(f.to_json())
    assert g.field == RATIONAL
    assert g.coeffs == [Fraction(0.1), 0, Fraction(-5, 2)]
    with pytest.raises(NotAQuadraticForm):
        BinaryForm.from_json(BinaryForm([1 + 2j, 0, -1j], 2).to_json())


@pytest.mark.parametrize("num, den", [(1.5, 1), (3, 2.9), ("3", 2), (None, 1), (float("inf"), 1)])
def test_rational_from_json_needs_integers(num, den):
    with pytest.raises(ValueError, match="is not an integer"):
        rational_from_json({"num": num, "den": den})


def test_rational_from_json_reads_integral_floats():
    assert rational_from_json({"num": 3.0, "den": 2.0}) == Fraction(3, 2)
    assert rational_from_json({"num": -4}) == -4


def test_squarefree_parts_of_a_shared_factor():
    # (s+t)(s-t) * (s+t)(s+2t) = (s+t)^2 (s^2 + s t - 2 t^2)
    common = BinaryForm([1, 1], 1)
    f = mul(common, BinaryForm([-1, 1], 1), common, BinaryForm([2, 1], 1))
    assert squarefree_parts(f) == (0, [(BinaryForm([-2, 1, 1], 2), 1), (common, 2)])
    assert squarefree_parts(common) == (0, [(common, 1)])


def test_squarefree_parts_reads_t_powers_and_float_coefficients():
    # 3 t^2 (s - t/2)^2 = 3 s^2 t^2 - 3 s t^3 + 0.75 t^4, written in floats:
    # a double root at infinity and a double root at s/t = 1/2
    f = BinaryForm([0.75, -3.0, 3.0, 0.0, 0.0], 4)
    assert f.field == COMPLEX
    assert squarefree_parts(f) == (2, [(BinaryForm([Fraction(-1, 2), 1], 1), 2)])
    s = BinaryForm([0, 1], 1)
    assert squarefree_parts(mul(s, s, s.scale(Fraction(5, 7)))) == (0, [(s, 3)])
    assert squarefree_parts(BinaryForm([-4, 0, 0], 2)) == (2, [])
    with pytest.raises(ValueError):
        squarefree_parts(BinaryForm.zero(3))


@pytest.mark.parametrize(
    "roots, factors, count",
    [
        ([], [[1, 0, 1]], 0),  # s^2 + t^2
        ([Fraction(1, 3), -2], [], 2),
        ([Fraction(1, 3), -2, 5], [[Fraction(10**-18), 0, 1]], 3),
        ([0, 1, -1, 7], [[1, 0, 1], [3, 1, 2]], 4),
    ],
)
def test_real_root_count_is_exact(roots, factors, count):
    # products of (s - r t) and definite quadratics, with negative leading
    # coefficients and negative chain members on the way
    for lead in (1, Fraction(-2, 3)):
        f = BinaryForm([lead], 0)
        for r in roots:
            f = mul(f, BinaryForm([-r, 1], 1))
        for q in factors:
            f = mul(f, BinaryForm(q, 2))
        assert real_root_count(f) == count


def test_binary_to_complex():
    # a form built from floats holds complex doubles, as the computed
    # columns of a factorization do; coeffs are indexed by s-power, so
    # t + 2s evaluates to 7 at (3, 1)
    fc = BinaryForm([1.0, 2.0], 1)
    assert fc.field == COMPLEX
    assert all(isinstance(c, complex) for c in fc.coeffs)
    assert evaluate(fc, 3, 1) == 7 + 0j
    with pytest.raises(TypeError):
        add(fc, BinaryForm([1, 2], 1))


@pytest.mark.parametrize(
    "coeffs, field, want",
    [
        ([Fraction(1), 0.0], RATIONAL, [Fraction(1), Fraction(0)]),
        ([0, 0.0], COMPLEX, [0j, 0j]),
        ([0, 1.5], COMPLEX, [0j, 1.5 + 0j]),
        ([0.0, Fraction(1)], RATIONAL, [Fraction(0), Fraction(1)]),
        ([1.5, 0], COMPLEX, [1.5 + 0j, 0j]),
        ([1.5, 2], None, None),
    ],
)
def test_nonzero_coefficients_decide_the_field(coeffs, field, want):
    # zeros take the field of the nonzero coefficients, in any order; a mix
    # of exact and float nonzero coefficients raises
    if field is None:
        with pytest.raises(TypeError, match="mixed coefficient fields"):
            BinaryForm(coeffs)
        with pytest.raises(TypeError, match="mixed coefficient fields"):
            BinaryForm(coeffs[::-1])
        return
    f = BinaryForm(coeffs)
    assert f.field == field
    assert f.coeffs == want
    assert all(type(c) is type(want[0]) for c in f.coeffs)


def test_an_all_zero_form_takes_the_field_argument():
    assert BinaryForm([0, 0.0], field=RATIONAL).coeffs == [Fraction(0)] * 2
    assert BinaryForm([0, 0], field=COMPLEX).coeffs == [0j, 0j]
    with pytest.raises(TypeError, match="mixed coefficient fields"):
        BinaryForm([0, 1], field=COMPLEX)


# ------------------------------------------------- forms over (s, t, x, y)
# a quadratic form on a scroll or cone is a TermPoly over (s, t, x, y)


def test_biform_json_roundtrip():
    f = TermPoly(4, {(2, 0, 0, 2): Fraction(-3, 7), (0, 2, 2, 0): 2})
    g = TermPoly.from_json(f.to_json())
    assert g == f
    # float and real complex terms convert exactly
    fc = TermPoly(4, {(2, 0, 0, 2): -0.375, (0, 2, 2, 0): 2 + 0j})
    assert fc.terms == {(2, 0, 0, 2): Fraction(-3, 8), (0, 2, 2, 0): 2}
    assert TermPoly.from_json(fc.to_json()) == fc
    with pytest.raises(NotAQuadraticForm):
        TermPoly(4, {(2, 0, 0, 2): 1j})


def test_biform_zero_and_scale():
    # forms are built as term dicts; zero coefficients are dropped
    assert TermPoly(4, {(2, 0, 2, 0): 0}).terms == {}
    f = TermPoly(4, {(2, 0, 2, 0): 4, (0, 2, 0, 2): 0})
    scaled = TermPoly(4, {expo: c * Fraction(1, 4) for expo, c in f.terms.items()})
    assert scaled.terms == {(2, 0, 2, 0): 1}


def test_termpoly_reads_the_degst_layout():
    # the layout earlier releases wrote for forms on scrolls and cones
    data = {
        "degST": 2,
        "degXY": 2,
        "terms": [
            {"s": 2, "t": 0, "x": 0, "y": 2, "num": -3, "den": 7},
            {"s": 0, "t": 2, "x": 2, "y": 0, "num": 2, "den": 1},
        ],
    }
    f = TermPoly.from_json(data)
    assert f == TermPoly(4, {(2, 0, 0, 2): Fraction(-3, 7), (0, 2, 2, 0): 2})
    data["terms"] = [{"s": 1, "t": 1, "x": 1, "y": 1, "re": 0.5, "im": 0.0}]
    assert TermPoly.from_json(data).terms == {(1, 1, 1, 1): Fraction(1, 2)}
    data["terms"][0]["im"] = -1.0
    with pytest.raises(NotAQuadraticForm):
        TermPoly.from_json(data)


@pytest.mark.parametrize(
    "term",
    [
        {"s": 3, "t": 0, "x": 2, "y": 0},  # s-degree 3
        {"s": 1, "t": 1, "x": 0, "y": 1},  # xy-degree 1
        {"s": 3, "t": -1, "x": 1, "y": 1},  # negative exponent
    ],
    ids=["st", "xy", "negative"],
)
def test_degst_layout_rejects_terms_off_its_bidegree(term):
    data = {"degST": 2, "degXY": 2, "terms": [dict(term, num=1, den=1)]}
    with pytest.raises(DegreeMismatch):
        TermPoly.from_json(data)


# ----------------------------------------------------------------- TermPoly


def test_termpoly_json_roundtrip():
    f = TermPoly(3, {(2, 0, 0): Fraction(1, 2), (0, 1, 1): -3})
    g = TermPoly.from_json(f.to_json())
    assert g == f


def test_binary_form_termpoly_view_values_agree():
    f = BinaryForm([3, 0, -2, 1], 3)  # 3 t^3 - 2 s^2 t + s^3
    g = TermPoly(f.nvars, f.terms)
    assert g.terms == {(0, 3): 3, (2, 1): -2, (3, 0): 1}
    s, t = Fraction(2), Fraction(-1)
    assert evaluate(f, s, t) == sum(c * s**i * t**j for (i, j), c in g.terms.items())
