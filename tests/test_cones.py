"""Apex reduction on cones: exact Schur round trips and lifted census.

Oracle notes.  A cone form f = a * apex^2 + 2 * apex * b + c reduces to
g = c - b^2 / a on the base curve; representations and Gram matrices lift
back by adjoining the square of sqrt(a) * apex + b / sqrt(a).  Both maps are
implemented exactly over the rationals, so the round-trip assertions use
equality, not tolerances.  Census counts are balanced-pairing counts of the
reduced binary form: C(2d, d)/2 complex classes, 2^(d-1) of them psd, plus
C(d, d/2)/2 indefinite ones for even d.
"""

from fractions import Fraction

import numpy as np
import pytest

from minsos.biform import BinaryForm, TermPoly
from minsos.cones import (
    enumerate_cone,
    lift,
    lift_gram,
    reduce_form,
    schur_reduce_gram,
    split,
)
from minsos.errors import ApexCoefficientNotPositive, NotAScroll
from minsos.gram import (
    Representation,
    build_gram_space,
    verify_representation,
)
from minsos.binary_sos import enumerate_two_squares, rnc_basis
from minsos.sampling import random_positive_form
from minsos.surfaces import cone_rnc, monomial_basis, scroll


def _cone_form(d=2, seed=4):
    return random_positive_form(cone_rnc(d), seed=seed)


def _times_xy(g, x_power):
    """g(s, t) * x^x_power * y^(2 - x_power) as a form over (s, t, x, y)."""
    return TermPoly(4, {(i, j, x_power, 2 - x_power): c for (i, j), c in g.terms.items()})


# ------------------------------------------------------------------ split


def test_split_reconstructs_form_exactly():
    # d = 3 as well as d = 2, so the power of t in the cross term is checked
    for d in (2, 3):
        spec = cone_rnc(d)
        f = _cone_form(d)
        a, b, c = split(f, spec)
        assert a > 0
        assert b.deg == d and c.deg == 2 * d
        # rebuild a x^2 t^(2d) + 2 x t^d y b + y^2 c  (apex block is x)
        apex = TermPoly(4, {(0, 2 * d, 2, 0): Fraction(a)})
        t_d = BinaryForm([1] + [0] * d, d)
        cross = _times_xy(t_d * b, x_power=1)
        base = _times_xy(c, x_power=0)
        total = apex + cross.scale(2) + base
        assert total == f


def test_split_rejects_nonpositive_apex():
    spec = cone_rnc(2)
    # f = -x^2 t^4 + y^2 s^4 has negative apex coefficient
    f = TermPoly(4, {(0, 4, 2, 0): -1, (4, 0, 0, 2): 1})
    with pytest.raises(ApexCoefficientNotPositive):
        split(f, spec)


def test_reduce_form_hand_value():
    # f = x^2 t^4 + 2 x t^2 * y s^2 + 5 y^2 s^4: a=1, b=s^2, c=5s^4
    f = TermPoly(
        4,
        {(0, 4, 2, 0): 1, (2, 2, 1, 1): 2, (4, 0, 0, 2): 5},
    )
    g = reduce_form(f, cone_rnc(2))
    # g = 5 s^4 - (s^2)^2 / 1 = 4 s^4
    assert g.coeffs == [0, 0, 0, 0, 4]


# ---------------------------------------------------------- gram round trip


def test_schur_gram_roundtrip_exact():
    spec = cone_rnc(2)
    f = _cone_form(2)
    a, b, _ = split(f, spec)
    space = build_gram_space(f, spec)
    G = space.gram_at_exact([Fraction(1, 3)] * space.kdim)
    Gp = schur_reduce_gram(G, spec.d)
    back = lift_gram(Gp, a, b)
    assert back == G  # exact Fractions, no tolerance


def test_schur_gram_roundtrip_float():
    spec = cone_rnc(3)
    f = _cone_form(3, seed=8)
    a, b, _ = split(f, spec)
    space = build_gram_space(f, spec)
    G = space.gram_at(np.full(space.kdim, 0.2))
    back = lift_gram(schur_reduce_gram(G, spec.d), float(a), b)
    assert np.max(np.abs(back - G)) < 1e-12


def test_schur_rejects_nonpositive_apex_entry():
    G = np.zeros((4, 4))
    with pytest.raises(ApexCoefficientNotPositive):
        schur_reduce_gram(G, 2)


def test_reduced_gram_is_base_fiber_point():
    # reducing a fiber point of f lands on the fiber of g = c - b^2/a
    spec = cone_rnc(2)
    f = _cone_form(2)
    a, b, _ = split(f, spec)
    g = reduce_form(f, spec)
    space = build_gram_space(f, spec)
    G = space.gram_at_exact([Fraction(2, 7)] * space.kdim)
    Gp = schur_reduce_gram(G, spec.d)
    # expand m^T Gp m over the base monomials s^i t^(d-i) and compare to g
    basis = rnc_basis(spec.d)
    expanded = {}
    n = len(basis)
    for i in range(n):
        for j in range(n):
            if Gp[i][j]:
                key = tuple(x + y for x, y in zip(basis[i], basis[j]))
                expanded[key] = expanded.get(key, 0) + Gp[i][j]
    for s_pow in range(2 * spec.d + 1):
        # basis monomials are (s, t) exponent pairs
        key = (s_pow, 2 * spec.d - s_pow)
        assert expanded.get(key, 0) == g.coeffs[s_pow]


# --------------------------------------------------------------------- lift


def test_lift_exact_when_apex_is_square():
    # g = (s^2 - 2 t^2)^2 + (3 s t)^2 lifts over a = 4 (exact square root)
    basis = rnc_basis(2)
    rep = Representation(
        basis=basis, vectors=[[-2, 0, 1], [0, 3, 0]], signs=[1, 1], exact=True
    )
    b = BinaryForm([1, 1, 1], 2)
    lifted = lift(rep, 4, b)
    assert lifted.exact
    assert lifted.nforms == 3
    assert len(lifted.basis) == 4  # base block plus apex
    # lifted Gram has apex entry a and cross column b
    G = lifted.gram_exact()
    assert G[3][3] == 4
    assert [G[i][3] for i in range(3)] == [1, 1, 1]


def test_lift_verifies_against_cone_form():
    spec = cone_rnc(2)
    f = _cone_form(2)
    a, b, _ = split(f, spec)
    g = reduce_form(f, spec)
    reps = enumerate_two_squares(g.to_complex())
    assert reps
    for rep in reps:
        lifted = lift(rep, float(a), b.to_complex())
        assert lifted.nforms == 3
        assert verify_representation(f, lifted) < 1e-8 * float(f.max_abs_coeff())
        assert lifted.is_psd()


# ------------------------------------------------------------------- census


def test_enumerate_cone_small_counts():
    report = enumerate_cone(_cone_form(2), cone_rnc(2))
    assert report.counts == {"complex": 3, "real": 3, "psd": 2, "indefinite": 1}
    assert report.warning is None
    assert any("apex reduction" in note for note in report.notes)


def test_enumerate_cone_d4_counts():
    report = enumerate_cone(_cone_form(4, seed=3), cone_rnc(4))
    assert report.counts == {"complex": 35, "real": 11, "psd": 8, "indefinite": 3}
    assert report.expected == report.counts


def test_enumerate_cone_entries_verified():
    f = _cone_form(2)
    report = enumerate_cone(f, cone_rnc(2))
    for entry in report.entries:
        assert entry["verify_residual"] < 1e-8
        rep = entry["representation"]
        assert rep.nforms == 3
        assert entry["psd"] == rep.is_psd()
        assert entry["psd"] == (entry["inertia"][1] == 0)


def test_enumerate_cone_rejects_scroll():
    f = random_positive_form(scroll(1, 1), seed=1)
    with pytest.raises(NotAScroll):
        enumerate_cone(f, scroll(1, 1))
