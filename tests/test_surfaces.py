"""Surface catalogue: combinatorial invariants, bases, genericity screens.

Oracle notes.  Basis sizes are lattice-point counts of the height-(d, e)
trapezoid: degree one has (d+1) + (e+1) points, and the doubled trapezoid
2P, read off the basis's pair map, has (2d+1) + (d+e+1) + (2e+1).  A surface of minimal degree satisfies
deg = codim + 1 by definition, which pins ambient_dim/degree/codim against
each other.
"""

from fractions import Fraction

import pytest

from minsos import surfaces
from minsos.biform import BinaryForm, TermPoly
from minsos.cones import enumerate_cone
from minsos.enumerator import enumerate_rank
from minsos.errors import DegreeMismatch, NotAScroll
from minsos.gram import build_gram_space
from minsos.sampling import random_positive_form
from minsos.surfaces import (
    SurfaceSpec,
    binary_squarefree,
    cone_rnc,
    count_warning,
    discriminant,
    genericity_check,
    monomial_basis,
    projective_roots,
    quadratic_form_blocks,
    scroll,
    veronese,
)


# -------------------------------------------------------------------- specs


def test_minimal_degree_identity_all_kinds():
    for spec in (scroll(1, 1), scroll(3, 1), veronese(), cone_rnc(4)):
        assert spec.degree == spec.codim + 1
        assert spec.dim == 2


def test_ambient_dims():
    assert scroll(2, 1).ambient_dim == 4
    assert scroll(2, 2).ambient_dim == 5
    assert veronese().ambient_dim == 5
    assert cone_rnc(4).ambient_dim == 5


def test_scroll_genus():
    assert scroll(1, 1).genus == 1
    assert scroll(3, 1).genus == 3
    with pytest.raises(NotAScroll):
        veronese().genus


def test_ruling_heights():
    assert scroll(3, 2).ruling_heights == (3, 2)
    assert cone_rnc(4).ruling_heights == (4, 0)
    with pytest.raises(NotAScroll):
        veronese().ruling_heights


def test_spec_validation():
    with pytest.raises(DegreeMismatch):
        scroll(1, 2)  # requires d >= e
    with pytest.raises(DegreeMismatch):
        scroll(1, 0)  # height zero is a cone, not a scroll
    with pytest.raises(DegreeMismatch):
        cone_rnc(1)
    with pytest.raises(DegreeMismatch):
        SurfaceSpec("moebius")


def test_spec_json_and_str_roundtrip():
    assert scroll(2, 1).to_json() == {"kind": "scroll", "d": 2, "e": 1}
    assert veronese().to_json() == {"kind": "veronese"}
    assert cone_rnc(3).to_json() == {"kind": "cone_rnc", "d": 3}
    assert str(scroll(2, 1)) == "scroll(2,1)"
    assert str(cone_rnc(4)) == "cone_rnc(4)"
    assert str(veronese()) == "veronese"


# -------------------------------------------------------------------- bases


def test_degree_one_basis_sizes():
    assert len(monomial_basis(scroll(1, 1))) == 4
    assert len(monomial_basis(scroll(2, 1))) == 5
    assert len(monomial_basis(scroll(2, 2))) == 6
    assert len(monomial_basis(veronese())) == 6
    assert len(monomial_basis(cone_rnc(4))) == 6


def test_degree_two_basis_sizes():
    # trapezoid lattice counts doubled: (2d+1) + (d+e+1) + (2e+1)
    sizes = ((scroll(2, 1), 12), (scroll(2, 2), 15), (cone_rnc(4), 15), (veronese(), 15))
    for spec, size in sizes:
        assert len(monomial_basis(spec).pair_map.monomials) == size


def test_scroll_basis_is_t_lifted():
    # every degree-one basis monomial has full st-degree d, xy-degree 1
    for spec in (scroll(2, 1), scroll(3, 1), cone_rnc(3)):
        d = spec.ruling_heights[0]
        for mono in monomial_basis(spec):
            assert mono[0] + mono[1] == d
            assert mono[2] + mono[3] == 1


def test_cone_basis_order_base_block_then_apex():
    basis = monomial_basis(cone_rnc(2))
    # base block y s^i t^(2-i), then the single apex monomial x t^2
    assert basis.monomials == (
        (0, 2, 0, 1),
        (1, 1, 0, 1),
        (2, 0, 0, 1),
        (0, 2, 1, 0),
    )


def test_basis_labels_and_index():
    basis = monomial_basis(scroll(1, 1))
    labels = [basis.label(i) for i in range(len(basis))]
    assert labels == ["t*y", "s*y", "t*x", "s*x"]
    assert basis.index((1, 0, 0, 1)) == 1


def test_veronese_basis_monomials():
    basis = monomial_basis(veronese())
    assert len(basis) == 6
    assert all(sum(m) == 2 for m in basis)
    assert basis.nvars == 3
    # quadratic piece: all ternary quartics
    assert all(sum(m) == 4 for m in basis.pair_map.monomials)


# ----------------------------------------------------- blocks, discriminant


def _psd_pair_form():
    # f = (s y)^2 + (t x)^2 on scroll(1,1): a = t^2, b = 0, c = s^2
    return TermPoly(4, {(2, 0, 0, 2): 1, (0, 2, 2, 0): 1})


def test_quadratic_form_blocks_hand_values():
    a, b, c = quadratic_form_blocks(_psd_pair_form(), scroll(1, 1))
    assert a.coeffs == [1, 0, 0]  # t^2
    assert b.is_zero()
    assert c.coeffs == [0, 0, 1]  # s^2


def test_quadratic_form_blocks_reconstruct():
    # f = a(s,t) x^2 + 2 b(s,t) x y + c(s,t) y^2 with hand-chosen blocks
    f = TermPoly(
        4,
        {
            (2, 0, 2, 0): 1,  # a = s^2
            (1, 1, 1, 1): 6,  # 2b = 6 s t, so b = 3 s t
            (0, 2, 0, 2): 5,  # c = 5 t^2
        },
    )
    fc = TermPoly(4, {expo: complex(c) for expo, c in f.terms.items()})
    for form in (f, fc):
        a, b, c = quadratic_form_blocks(form, scroll(1, 1))
        assert a.coeffs == [0, 0, 1]  # s^2
        assert b.coeffs == [0, 3, 0]  # 3 s t
        assert c.coeffs == [5, 0, 0]  # 5 t^2
        assert a.field == b.field == c.field == form.field


def test_blocks_reject_wrong_bidegree():
    # on scroll(1,1) every term must have bidegree (2, 2)
    for terms in (
        {(4, 0, 0, 2): 1},
        {(2, 0, 0, 2): 1, (1, 1, 1, 0): 1},
        {(2, 0, 0, 2): 1, (3, -1, 1, 1): 1},
    ):
        with pytest.raises(DegreeMismatch):
            quadratic_form_blocks(TermPoly(4, terms), scroll(1, 1))
    with pytest.raises(DegreeMismatch):
        quadratic_form_blocks(TermPoly(3, {(2, 0, 0): 1}), scroll(1, 1))


def test_blocks_enforce_t_divisibility():
    # on scroll(2,1) the x^2 block must be divisible by t^2; s^4 x^2 is not
    f = TermPoly(4, {(4, 0, 2, 0): 1, (0, 4, 0, 2): 1})
    with pytest.raises(DegreeMismatch):
        quadratic_form_blocks(f, scroll(2, 1))


def test_discriminant_hand_value():
    # b^2 - ac = -t^2 s^2 for the psd pair form
    delta = discriminant(_psd_pair_form(), scroll(1, 1))
    assert delta.deg == 4
    assert delta.coeffs == [0, 0, -1, 0, 0]


def test_discriminant_nonpositive_on_reals_for_psd():
    delta = discriminant(_psd_pair_form(), scroll(1, 1))
    for s in (-2.0, -0.5, 0.0, 1.0, 3.0):
        assert float(delta.eval(s, 1.0)) <= 0.0


# ---------------------------------------------------------- projective roots


def test_projective_roots_vs_numpy():
    # (s - t)(s - 2t)(s + 3t): roots 1, 2, -3
    f = BinaryForm([1, 1], 1)
    g = (
        BinaryForm([-1, 1], 1)
        * BinaryForm([-2, 1], 1)
        * BinaryForm([3, 1], 1)
    )
    roots = projective_roots(g)
    vals = sorted(r.real for r, _ in roots)
    assert vals == pytest.approx([-3.0, 1.0, 2.0], abs=1e-10)
    assert all(m == 1 for _, m in roots)


def test_projective_roots_at_infinity():
    # t^2 (s - t): double root at infinity plus s/t = 1
    g = BinaryForm([-1, 1], 1) * BinaryForm([1, 0, 0], 2)
    roots = dict(projective_roots(g))
    assert roots["inf"] == 2
    finite = [r for r in roots if r != "inf"]
    assert len(finite) == 1 and abs(finite[0] - 1.0) < 1e-10


def test_projective_roots_multiplicity_clustering():
    # (s - t)^3: one triple root
    g = BinaryForm([-1, 1], 1)
    cube = g * g * g
    roots = projective_roots(cube, cluster_radius=1e-4)
    assert len(roots) == 1
    root, mult = roots[0]
    assert mult == 3 and abs(root - 1.0) < 1e-4


def test_binary_squarefree_exact_and_numeric():
    sq = BinaryForm([-1, 1], 1) * BinaryForm([-1, 1], 1)
    assert not binary_squarefree(sq)
    assert binary_squarefree(BinaryForm([-2, 1], 1) * BinaryForm([5, 1], 1))
    assert not binary_squarefree(sq.to_complex())


# ----------------------------------------------------------------- genericity


def test_genericity_generic_form():
    # (sy - tx)^2 + (ty)^2 + (sx)^2 has squarefree discriminant
    f = TermPoly(
        4,
        {
            (2, 0, 0, 2): 1,
            (1, 1, 1, 1): -2,
            (0, 2, 2, 0): 1,
            (0, 2, 0, 2): 1,
            (2, 0, 2, 0): 1,
        },
    )
    report = genericity_check(f, scroll(1, 1))
    assert report.delta_squarefree is True
    assert report.generic_so_far


def test_genericity_square_form_flagged():
    # f = (s y + t x)^2 = s^2 y^2 + 2 s t x y + t^2 x^2 has identically zero
    # discriminant
    f = TermPoly(4, {(2, 0, 0, 2): 1, (1, 1, 1, 1): 2, (0, 2, 2, 0): 1})
    report = genericity_check(f, scroll(1, 1))
    assert report.delta_squarefree is False
    assert not report.generic_so_far
    assert any("square" in note for note in report.notes)


def test_genericity_expected_counts_by_kind():
    # the count warning reads the generic complex count of each surface kind
    for spec, generic in ((scroll(1, 1), 4), (cone_rnc(3), 10), (veronese(), 63)):
        assert count_warning(spec, generic) is None
        assert count_warning(spec, generic - 1) == (
            "non-generic form: %d rank-3 Gram matrices found, expected %d"
            % (generic - 1, generic)
        )
    assert count_warning(None, 0) is None


def test_count_warning_on_classify_and_cone(monkeypatch):
    real_counts = surfaces.expected_counts

    def one_more(surface):
        counts = dict(real_counts(surface))
        counts["complex"] += 1
        return counts

    monkeypatch.setattr(surfaces, "expected_counts", one_more)
    f = random_positive_form(scroll(1, 1), seed=3)
    report = enumerate_rank(build_gram_space(f, scroll(1, 1)), seed=5)
    assert report.counts["complex"] == 4
    assert report.warning == "non-generic form: 4 rank-3 Gram matrices found, expected 5"
    assert any(note.startswith("path endpoints:") for note in report.notes)
    g = random_positive_form(cone_rnc(3), seed=2)
    report = enumerate_cone(g, cone_rnc(3))
    assert report.warning == "non-generic form: 10 rank-3 Gram matrices found, expected 11"
