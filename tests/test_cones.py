"""Apex reduction on cones: the exact split, the lift and the lifted census.

Oracle notes.  A cone form f = a * apex^2 + 2 * apex * b + c reduces to
g = c - b^2 / a = det M / a on the base curve; representations lift back by adjoining
the square of sqrt(a) * apex + b / sqrt(a).  The split is exact over the
rationals, so the rebuild asserts equality; the lift is in floats and is
checked against f.  The coefficients of f live on the doubled polytope 2P,
which is read off the cone basis's pair_map.  Census counts are
balanced-pairing counts of the reduced binary form: C(2d, d)/2 complex
classes, 2^(d-1) of them psd, plus C(d, d/2)/2 indefinite ones for even d.
"""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from minsos.biform import BinaryForm, TermPoly
from minsos.cones import enumerate_cone, lift, split
from minsos.errors import ApexCoefficientNotPositive, NotAScroll
from minsos.gram import Representation, build_gram_space, gram_stack, verify_representation
from minsos.binary_sos import enumerate_rank_two, enumerate_two_squares, real_class_vectors, roots
from minsos.sampling import random_positive_form
from minsos.surfaces import cone_rnc, monomial_basis, scroll

from form_algebra import add, mul, sub


def _cone_form(d=2, seed=4):
    return random_positive_form(cone_rnc(d), seed=seed)


def _times_xy(g, x_power):
    """Terms of g(s, t) * x^x_power * y^(2 - x_power) over (s, t, x, y)."""
    return {(i, j, x_power, 2 - x_power): c for (i, j), c in g.terms.items()}


# ------------------------------------------------------------------ split


def test_split_reconstructs_form_exactly():
    # d = 3 as well as d = 2, so the power of t in the cross term is checked
    for d in (2, 3):
        spec = cone_rnc(d)
        f = _cone_form(d)
        a, b, g = split(f, spec)
        assert a > 0
        assert b.deg == d and g.deg == 2 * d
        c = add(g, mul(b, b).scale(1 / a))
        # rebuild a x^2 t^(2d) + 2 x t^d y b + y^2 c  (apex block is x)
        # the three blocks have distinct xy-degrees, so their terms never meet
        apex = {(0, 2 * d, 2, 0): Fraction(a)}
        t_d = BinaryForm([1] + [0] * d, d)
        cross = _times_xy(mul(t_d, b).scale(2), x_power=1)
        base = _times_xy(c, x_power=0)
        assert TermPoly(4, {**apex, **cross, **base}) == f


def test_split_rejects_nonpositive_apex():
    spec = cone_rnc(2)
    # f = -x^2 t^4 + y^2 s^4 has negative apex coefficient
    f = TermPoly(4, {(0, 4, 2, 0): -1, (4, 0, 0, 2): 1})
    with pytest.raises(ApexCoefficientNotPositive):
        split(f, spec)


def test_split_hand_value():
    # f = x^2 t^4 + 2 x t^2 * y s^2 + 5 y^2 s^4: a=1, b=s^2, c=5s^4
    f = TermPoly(
        4,
        {(0, 4, 2, 0): 1, (2, 2, 1, 1): 2, (4, 0, 0, 2): 5},
    )
    _, _, g = split(f, cone_rnc(2))
    # g = 5 s^4 - (s^2)^2 / 1 = 4 s^4
    assert g.coeffs == [0, 0, 0, 0, 4]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_split_reduces_to_det_over_the_apex(d, seed):
    # g = det M / a, formed over the integers, is the Schur complement c - b^2/a
    spec = cone_rnc(d)
    f = random_positive_form(spec, seed=seed)
    m = spec.prism.matrix(f)
    a = m[1, 1].coeffs[0]
    assert split(f, spec)[2] == sub(m[0, 0], mul(m[0, 1], m[0, 1]).scale(1 / a))


# --------------------------------------------------------------------- lift


def _stack(reps):
    """The (C, k, n) vectors and (C, k) signs of representations of one shape."""
    return np.array([rep.vectors for rep in reps], dtype=float), np.array([rep.signs for rep in reps])


def test_lift_exact_when_apex_is_square():
    # g = (s^2 - 2 t^2)^2 + (3 s t)^2 lifts over a = 4, a Fraction: a
    # square apex coefficient still gives a float lift
    b = BinaryForm([1, 1, 1], 2)
    vectors, signs = lift(np.array([[[-2.0, 0, 1], [0, 3, 0]]]), np.array([[1, 1]]), Fraction(4), b)
    assert vectors.dtype == float
    assert vectors.shape == (1, 3, 4)  # three forms over the base block plus apex
    assert signs.tolist() == [[1, 1, 1]]
    # lifted Gram has apex entry a and cross column b
    G = gram_stack(vectors, signs)[0]
    assert abs(G[3, 3] - 4) < 1e-12
    assert np.max(np.abs(G[:3, 3] - [1, 1, 1])) < 1e-12


def test_lift_verifies_against_cone_form():
    spec = cone_rnc(2)
    f = _cone_form(2)
    a, b, g = split(f, spec)
    reps = enumerate_two_squares(g)
    assert reps
    vectors, signs = lift(*_stack(reps), a, b)
    assert vectors.shape == (len(reps), 3, 4)
    for vecs, s in zip(vectors.tolist(), signs.tolist()):
        lifted = Representation(monomial_basis(spec), vecs, s)
        assert verify_representation(f, lifted) < 1e-8 * float(f.max_abs_coeff())
        assert lifted.signs == [1, 1, 1]


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
        assert entry["psd"] == (rep.signs == [1, 1, 1])
        assert entry["psd"] == (entry["inertia"][1] == 0)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_enumerate_cone_psd_entries_are_the_lifted_two_squares(d, seed):
    # the census's conjugate splits and the two-squares enumeration of g
    # take the same classes two ways: match their lifted Gram matrices one
    # to one
    spec = cone_rnc(d)
    f = random_positive_form(spec, seed=seed)
    a, b, g = split(f, spec)
    want = list(gram_stack(*lift(*_stack(enumerate_two_squares(g)), a, b)))
    got = [e["representation"].gram() for e in enumerate_cone(f, spec).entries if e["psd"]]
    assert len(got) == len(want) == 2 ** (d - 1)
    for G in want:
        tol = 1e-9 * max(1.0, float(np.max(np.abs(G))))
        hits = [i for i, H in enumerate(got) if np.max(np.abs(H - G)) <= tol]
        assert len(hits) == 1
        got.pop(hits[0])
    assert got == []


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_grams_and_coordinates_have_the_bits_of_each_class_alone(d, seed):
    # each lifted class's Gram matrix as Representation.gram builds it, and
    # its theta from its own solve against the fiber's K^T = Q R
    spec = cone_rnc(d)
    f = random_positive_form(spec, seed=seed)
    space = build_gram_space(f, spec)
    a, b, g = split(f, spec)
    rm = roots(g)
    vectors, signs = lift(*real_class_vectors(rm, enumerate_rank_two(rm)), a, b)
    grams = gram_stack(vectors, signs)
    thetas = space.fiber_coordinates(grams)
    assert len(grams) == len(thetas) == 2 ** (d - 1) + (comb(d, d // 2) // 2 if d % 2 == 0 else 0)
    for vecs, s, G, theta in zip(vectors.tolist(), signs.tolist(), grams, thetas):
        assert G.tobytes() == Representation(space.basis, vecs, s).gram().tobytes()
        diff = (G - space.G0_f).reshape(-1)
        assert theta.tobytes() == np.linalg.solve(space._R, space._Q.T @ diff).tobytes()


def test_enumerate_cone_rejects_scroll():
    f = random_positive_form(scroll(1, 1), seed=1)
    with pytest.raises(NotAScroll):
        enumerate_cone(f, scroll(1, 1))
