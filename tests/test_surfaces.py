"""Surface catalogue: combinatorial invariants, bases, genericity screens.

Oracle notes.  Basis sizes are lattice-point counts of the height-(d, e)
trapezoid: degree one has (d+1) + (e+1) points, and the doubled trapezoid
2P, read off the basis's pair map, has (2d+1) + (d+e+1) + (2e+1).
"""

from fractions import Fraction

import pytest

from minsos import surfaces
from minsos.binary_sos import rnc_basis, roots
from minsos.biform import RATIONAL, BinaryForm, TermPoly
from minsos.cones import enumerate_cone
from minsos.enumerator import enumerate_rank
from minsos.errors import DegreeMismatch, DimensionMismatch, NotAScroll
from minsos.gram import build_gram_space
from minsos.sampling import random_positive_form
from minsos.surfaces import (
    PrismSpec,
    SurfaceSpec,
    cone_rnc,
    count_warning,
    genericity_check,
    monomial_basis,
    scroll,
    veronese,
)


# -------------------------------------------------------------------- specs


def test_scroll_genus():
    assert scroll(1, 1).genus == 1
    assert scroll(3, 1).genus == 3
    with pytest.raises(NotAScroll):
        veronese().genus


def test_surface_prism():
    assert scroll(3, 2).prism == PrismSpec((3, 2))
    assert cone_rnc(4).prism == PrismSpec((4, 0))
    with pytest.raises(NotAScroll):
        veronese().prism


def test_spec_validation():
    with pytest.raises(DegreeMismatch):
        scroll(1, 2)  # requires d >= e
    with pytest.raises(DegreeMismatch):
        scroll(1, 0)  # height zero is a cone, not a scroll
    with pytest.raises(DegreeMismatch):
        cone_rnc(1)
    with pytest.raises(DegreeMismatch):
        SurfaceSpec("moebius")
    # a cone has one height and the Veronese surface none: cone_rnc with a
    # second height would read as the prism of scroll(3, 2)
    with pytest.raises(DegreeMismatch):
        SurfaceSpec("cone_rnc", 3, 2)
    with pytest.raises(DegreeMismatch):
        SurfaceSpec("veronese", 1, 0)
    with pytest.raises(DegreeMismatch):
        SurfaceSpec("veronese", 0, 1)


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


def test_bases_with_the_same_monomials_share_one_read_only_pair_map():
    pairs = rnc_basis(4).pair_map
    assert rnc_basis(4).pair_map is pairs
    assert monomial_basis(cone_rnc(4)).pair_map is monomial_basis(cone_rnc(4)).pair_map
    for array in (pairs.a, pairs.b, pairs.row, pairs.mult):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        pairs.mult[0] = 3


def test_scroll_basis_is_t_lifted():
    # every degree-one basis monomial has full st-degree d, xy-degree 1
    for spec in (scroll(2, 1), scroll(3, 1), cone_rnc(3)):
        d = spec.prism.top
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


@pytest.mark.parametrize("d, e", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_scroll_basis_is_the_prism_basis(d, e):
    assert monomial_basis(scroll(d, e)) == PrismSpec((d, e)).basis()


def test_basis_labels_and_index():
    basis = monomial_basis(scroll(1, 1))
    labels = [basis.label(i) for i in range(len(basis))]
    assert labels == ["t*y", "s*y", "t*x", "s*x"]
    assert basis.monomials.index((1, 0, 0, 1)) == 1


def test_veronese_basis_monomials():
    basis = monomial_basis(veronese())
    assert len(basis) == 6
    assert all(sum(m) == 2 for m in basis)
    assert basis.nvars == 3
    # quadratic piece: all ternary quartics
    assert all(sum(m) == 4 for m in basis.pair_map.monomials)


# ------------------------------------------------------- prism matrix, det M


def _psd_pair_form():
    # f = (s y)^2 + (t x)^2 on scroll(1,1): a = t^2, b = 0, c = s^2
    return TermPoly(4, {(2, 0, 0, 2): 1, (0, 2, 2, 0): 1})


def test_prism_matrix_hand_values():
    m = scroll(1, 1).prism.matrix(_psd_pair_form())
    assert sorted(m) == [(0, 0), (0, 1), (1, 1)]
    assert m[1, 1].coeffs == [1, 0, 0]  # a = t^2
    assert m[0, 1].is_zero()
    assert m[0, 0].coeffs == [0, 0, 1]  # c = s^2


def test_prism_matrix_reconstruct():
    # f = a(s,t) x^2 + 2 b(s,t) x y + c(s,t) y^2 with hand-chosen blocks
    f = TermPoly(
        4,
        {
            (2, 0, 2, 0): 1,  # a = s^2
            (1, 1, 1, 1): 6,  # 2b = 6 s t, so b = 3 s t
            (0, 2, 0, 2): 5,  # c = 5 t^2
        },
    )
    # float terms are read as the rationals they denote, so the blocks of
    # a float-written form are the same exact forms
    ff = TermPoly(4, {expo: float(c) for expo, c in f.terms.items()})
    prism = scroll(1, 1).prism
    for form in (f, ff):
        m = prism.matrix(form)
        assert m[1, 1].coeffs == [0, 0, 1]  # s^2
        assert m[0, 1].coeffs == [0, 3, 0]  # 3 s t
        assert m[0, 0].coeffs == [5, 0, 0]  # 5 t^2
        assert all(entry.field == RATIONAL for entry in m.values())
        assert prism.form(m) == f


def test_prism_matrix_frees_the_entries_of_their_t_powers():
    # on scroll(2,1), f = t^4 x^2 + 2 s t^3 x y + s^4 y^2: the x block carries
    # one t more than its height, so a = t^2, b = s t^2 and c = s^4
    f = TermPoly(4, {(0, 4, 2, 0): 1, (1, 3, 1, 1): 2, (4, 0, 0, 2): 1})
    m = scroll(2, 1).prism.matrix(f)
    assert (m[1, 1].deg, m[0, 1].deg, m[0, 0].deg) == (2, 3, 4)
    assert m[1, 1].coeffs == [1, 0, 0]
    assert m[0, 1].coeffs == [0, 1, 0, 0]
    assert m[0, 0].coeffs == [0, 0, 0, 0, 1]


@pytest.mark.parametrize(
    "spec",
    [scroll(1, 1), scroll(2, 1), scroll(3, 2), cone_rnc(2), cone_rnc(3), cone_rnc(4)],
    ids=str,
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prism_form_inverts_matrix(spec, seed):
    f = random_positive_form(spec, seed=seed)
    m = spec.prism.matrix(f)
    heights = spec.prism.heights
    assert all(m[i, j].deg == heights[i] + heights[j] for i, j in m)
    assert spec.prism.form(m) == f


def test_prism_form_rejects_an_entry_of_the_wrong_degree():
    with pytest.raises(DegreeMismatch):
        PrismSpec((2, 1)).form({(0, 1): BinaryForm([1, 0, 0], 2)})


def test_blocks_reject_wrong_bidegree():
    # on scroll(1,1) every term must have bidegree (2, 2)
    prism = scroll(1, 1).prism
    for terms in (
        {(4, 0, 0, 2): 1},
        {(2, 0, 0, 2): 1, (1, 1, 1, 0): 1},
        {(2, 0, 0, 2): 1, (3, -1, 1, 1): 1},
    ):
        with pytest.raises(DegreeMismatch):
            prism.matrix(TermPoly(4, terms))
    with pytest.raises(DegreeMismatch):
        prism.matrix(TermPoly(3, {(2, 0, 0): 1}))


def test_blocks_enforce_t_divisibility():
    # on scroll(2,1) the x^2 block must be divisible by t^2; s^4 x^2 is not,
    # and the xy block by t; s^4 x y is not
    for bad in ((4, 0, 2, 0), (4, 0, 1, 1)):
        f = TermPoly(4, {bad: 1, (0, 4, 0, 2): 1})
        with pytest.raises(DegreeMismatch):
            scroll(2, 1).prism.matrix(f)


def test_det_hand_value():
    # det M = a c - b^2 = t^2 s^2 for the psd pair form
    prism = scroll(1, 1).prism
    det = prism.det(prism.matrix(_psd_pair_form()))
    assert det.deg == 4
    assert det.coeffs == [0, 0, 1, 0, 0]


def test_det_nonnegative_on_reals_for_psd():
    prism = scroll(1, 1).prism
    det = prism.det(prism.matrix(_psd_pair_form()))
    for s in (-2.0, -0.5, 0.0, 1.0, 3.0):
        assert float(det.eval(s, 1.0)) >= 0.0


@pytest.mark.parametrize("spec", [scroll(2, 1), scroll(3, 2), cone_rnc(3)], ids=str)
def test_det_is_exact_over_the_rationals(spec):
    # random forms carry eighths, so the integer product must scale back exactly
    prism = spec.prism
    m = prism.matrix(random_positive_form(spec, seed=1))
    assert prism.det(m) == m[0, 0] * m[1, 1] - m[0, 1] * m[0, 1]


def test_det_needs_two_blocks():
    prism = PrismSpec((1, 1, 1))
    with pytest.raises(DimensionMismatch):
        prism.det(prism.matrix(TermPoly(5, {(2, 0, 0, 0, 2): 1})))


# ---------------------------------------------------------- projective roots


def test_projective_roots_vs_numpy():
    # (s - t)(s - 2t)(s + 3t): roots 1, 2, -3
    g = BinaryForm([-1, 1], 1) * BinaryForm([-2, 1], 1) * BinaryForm([3, 1], 1)
    rm = roots(g)
    values = [value.real for value, _ in rm.real_roots]
    assert values == pytest.approx([-3.0, 1.0, 2.0], abs=1e-10)
    assert all(mult == 1 for _, mult in rm.real_roots)
    assert rm.pairs == [] and rm.inf_mult == 0


def test_projective_roots_at_infinity():
    # t^2 (s - t): double root at infinity plus s/t = 1
    rm = roots(BinaryForm([-1, 1], 1) * BinaryForm([1, 0, 0], 2))
    assert rm.inf_mult == 2
    assert len(rm.real_roots) == 1 and abs(rm.real_roots[0][0] - 1.0) < 1e-10


def test_projective_roots_of_a_triple_root():
    # (s - t)^3: one triple root, exact to the last bit, with no radius to set
    g = BinaryForm([-1, 1], 1)
    rm = roots(g * g * g)
    assert rm.real_roots == [(1.0, 3)] and rm.pairs == []


@pytest.mark.parametrize(
    "a, c, generic",
    [
        ([1, 0, 1], [2, 0, 1], True),  # (s^2 + t^2)(s^2 + 2 t^2)
        ([1, 0, 0], [0, 0, 1], False),  # s^2 t^2: double roots at 0 and infinity
        ([1, 0, 0], [1, 0, 1], False),  # t^2 (s^2 + t^2): a double root at infinity
        ([0, 1, 0], [1, 0, 1], True),  # s t (s^2 + t^2): a simple root at infinity
        ([1, 2, 1], [1, 0, 1], False),  # (s + t)^2 (s^2 + t^2)
    ],
    ids=["squarefree", "zero-and-infinity", "infinity", "simple-infinity", "finite"],
)
def test_genericity_reads_each_multiple_root_of_det(a, c, generic):
    # f = a x^2 + c y^2 on scroll(1,1), so det M = a c
    prism = scroll(1, 1).prism
    f = prism.form({(1, 1): BinaryForm(a), (0, 0): BinaryForm(c)})
    notes = genericity_check(f, scroll(1, 1))
    assert notes == ([] if generic else ["discriminant is not squarefree"])


# ----------------------------------------------------------------- genericity


def test_genericity_generic_form():
    # (sy - tx)^2 + (ty)^2 + (sx)^2 has a square-free det M
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
    assert genericity_check(f, scroll(1, 1)) == []


def test_genericity_square_form_flagged():
    # f = (s y + t x)^2 = s^2 y^2 + 2 s t x y + t^2 x^2 has det M = 0; the
    # notes keep the older name of -det M, the discriminant
    f = TermPoly(4, {(2, 0, 0, 2): 1, (1, 1, 1, 1): 2, (0, 2, 2, 0): 1})
    assert genericity_check(f, scroll(1, 1)) == [
        "discriminant is not squarefree",
        "identically zero discriminant (f is a square)",
    ]


def test_genericity_notes_the_veronese_surface():
    f = random_positive_form(veronese(), seed=0)
    notes = genericity_check(f, veronese())
    assert notes == ["discriminant diagnostics undefined for the Veronese"]


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
