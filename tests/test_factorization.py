"""Factorization A = B B^T: random dyad matrices, the residual, NotPSD."""

import json
from fractions import Fraction

import numpy as np
import pytest

from minsos import binary_sos, factorization
from minsos.biform import BinaryForm
from minsos.errors import (
    DimensionMismatch,
    IterationBudgetExceeded,
    NonSymmetric,
    NotPSD,
    StuckAboveTarget,
)
from minsos.cones import enumerate_cone
from minsos.enumerator import enumerate_rank
from minsos.factorization import (
    SymMatrixPoly,
    check_psd_on_grid,
    embed,
    factor,
    factor_residual,
)
from minsos.gram import build_gram_space, inertia
from minsos.sampling import random_dyad_matrix, random_nonneg_binary, random_positive_form
from minsos.surfaces import CONE_RNC, binary_squarefree, cone_rnc, scroll


def _coeffs(form):
    return np.array([complex(c).real for c in form.coeffs])


def _reference_residual(A, columns):
    """max over i <= j of w_ij |a_ij - sum_c c_i c_j|, w = 1 on the diagonal, 2 off it.

    Each (i, j) block owns its own monomials x_i x_j s^p t^q of the prism,
    so this is the coefficient residual of f = sum a_ij x_i x_j.
    """
    worst = 0.0
    for i in range(A.n):
        for j in range(i, A.n):
            got = sum(np.convolve(_coeffs(col[i]), _coeffs(col[j])) for col in columns)
            want = _coeffs(A.entries[i][j])
            if len(want) != len(got):  # a zero entry may carry another degree
                want = np.zeros_like(got)
            weight = 1.0 if i == j else 2.0
            worst = max(worst, weight * float(np.max(np.abs(got - want))))
    return worst


def _assert_n_plus_one_columns(A, result):
    n = A.n
    assert result.rank == n + 1 and result.ncols == n + 1
    B = np.array([np.concatenate([_coeffs(form) for form in col]) for col in result.columns])
    assert np.linalg.matrix_rank(B) == n + 1
    assert result.residual <= 1e-8 * max(1.0, A.max_abs_coeff())


@pytest.mark.parametrize(
    "heights, seed, ncols",
    [
        pytest.param(heights, 0, None, id="heights%d" % i)
        for i, heights in enumerate([(2, 1), (1, 1, 1), (3, 3, 2), (2,)])
    ]
    + [pytest.param((1, 1, 1), 3, 4, id="heights1-3-ncols4")],
)
def test_factor_reaches_n_plus_one_columns(heights, seed, ncols):
    A, _ = random_dyad_matrix(heights, seed=seed, ncols=ncols)
    result = factor(A)
    _assert_n_plus_one_columns(A, result)
    assert _reference_residual(A, result.columns) <= 1e-8 * max(1.0, A.max_abs_coeff())
    assert result.warning is None


@pytest.mark.parametrize(
    "heights, seed, ncols",
    [
        pytest.param((2, 1), 2, None, id="heights0-2"),
        pytest.param((1, 1, 1), 1, None, id="heights1-1"),
        pytest.param((2, 1), 7, None, id="heights2-7"),
    ]
    + [pytest.param((1, 1, 1), s, 1, id="one-dyad-%d" % s) for s in (1, 2, 3, 4, 7)],
)
def test_factor_residual_at_rounding_level(heights, seed, ncols):
    # on the Gram route the feasible points of these draws already have rank
    # <= n+1, with the dropped eigenvalues near -1e-10 of the largest:
    # factored as they stand, the residual is near 5e-9 (the (2, 1) draws now
    # take the branch route).  A single dyad has a rank-1 Gram point, where
    # the n+1 columns of the factor L are rank deficient
    A, _ = random_dyad_matrix(heights, seed=seed, ncols=ncols)
    assert factor(A).residual <= 1e-12 * max(1.0, A.max_abs_coeff())


@pytest.mark.slow
@pytest.mark.xfail(
    strict=True,
    raises=IterationBudgetExceeded,
    reason="ROADMAP direction 3: both feasibility iterations exhaust their "
    "budgets on these psd draws (final gaps 9.0e-8 and 2.1e-8); Gauss-Newton "
    "from the projected point, with no feasibility step, factors both",
)
@pytest.mark.parametrize("seed", [8, 17])
def test_factor_two_dyads_near_the_psd_boundary(seed):
    # psd by construction: a sum of two dyads of heights (3, 1)
    A, _ = random_dyad_matrix((3, 1), seed=seed, ncols=2)
    result = factor(A)
    _assert_n_plus_one_columns(A, result)
    assert result.warning is None


def test_feasibility_fallback_factors_a_shallow_fiber(monkeypatch):
    # n+1 dyads put this fiber at a shallow angle to the psd cone:
    # psd_feasible exhausts its budget and the reflections take over.  An
    # n = 3 draw, since a square-free n = 2 draw takes the branch route
    calls = []
    reflections = factorization._feasible_reflections

    def counted(space):
        calls.append(space)
        return reflections(space)

    monkeypatch.setattr(factorization, "_feasible_reflections", counted)
    A, _ = random_dyad_matrix((1, 1, 1), seed=3, ncols=4)
    result = factor(A)
    assert len(calls) == 1
    _assert_n_plus_one_columns(A, result)
    assert result.warning is None


@pytest.mark.parametrize("stall", ["polish fails", "budget runs out"])
def test_rank_reduction_failure_raises_and_factor_warns(monkeypatch, stall):
    # the psd fiber point of this draw has rank 5 > n+1 = 4; an n = 3 draw
    # takes the Gram route, which calls no lstsq before rank_reduce
    A, _ = random_dyad_matrix((1, 1, 1), seed=2, ncols=4)
    spec, space = factorization.prism_gram_space(A)
    G, _info = factorization.psd_feasible(space)
    assert inertia(G)[0] > spec.target_rank
    reduced = factorization.rank_reduce(space, G, spec.target_rank)
    nplus, nminus, _zero = inertia(reduced)
    assert nminus == 0 and nplus <= spec.target_rank
    assert space.fiber_residual(reduced) <= 1e-12 * max(1.0, float(space.form.max_abs_coeff()))
    steps = []

    def diverging_step(J, rhs, rcond=None):
        # a Gauss-Newton step that leaves the finite numbers
        steps.append(J.shape)
        return np.full(J.shape[1], np.nan), None, 0, None

    if stall == "polish fails":
        monkeypatch.setattr(factorization.np.linalg, "lstsq", diverging_step)
    else:
        monkeypatch.setattr(factorization, "REDUCE_ITERS", 0)
    with pytest.raises(StuckAboveTarget) as info:
        factorization.rank_reduce(space, G, spec.target_rank)
    assert info.value.achieved >= info.value.target == spec.target_rank
    assert bool(steps) == (stall == "polish fails")
    result = factor(A)
    assert result.warning is not None and "stalled" in result.warning
    assert result.ncols > spec.target_rank
    assert result.residual <= 1e-8 * max(1.0, A.max_abs_coeff())


def test_factor_of_a_diagonal_matrix_reaches_three_columns():
    # rows (s, t, 0) and (t, -s, s) factor diag(s^2 + t^2, 2 s^2 + t^2); from
    # the psd fiber point of the Gram route rank_reduce stalled at rank 4,
    # and the branch route starts at a rank-3 class
    zero = BinaryForm.zero(2)
    A = SymMatrixPoly([[BinaryForm([1, 0, 1]), zero], [zero, BinaryForm([1, 0, 2])]])
    result = factor(A)
    assert result.residual <= 1e-8 * max(1.0, A.max_abs_coeff())
    assert result.ncols == 3 and result.warning is None


def _no_feasibility_step(monkeypatch):
    def refuse(space):
        raise AssertionError("the branch route ran a feasibility iteration")

    monkeypatch.setattr(factorization, "psd_feasible", refuse)
    monkeypatch.setattr(factorization, "_feasible_reflections", refuse)


@pytest.mark.parametrize("ncols", [None, 3, 6], ids=lambda c: "ncols%s" % c)
@pytest.mark.parametrize(
    "heights", [(2, 1), (1, 1), (3, 1), (2, 2), (2, 0)], ids=lambda h: "heights%d%d" % h
)
def test_square_free_det_takes_the_branch_route(monkeypatch, heights, ncols):
    # det M of each of these draws has only simple conjugate pairs of roots
    _no_feasibility_step(monkeypatch)
    for seed in range(5):
        A, _ = random_dyad_matrix(heights, seed=seed, ncols=ncols)
        result = factor(A)
        assert result.info["route"] == "branch"
        assert result.info["rootSeparation"] > 0
        assert result.info["classResidual"] <= 1e-12 * max(1.0, A.max_abs_coeff())
        _assert_n_plus_one_columns(A, result)
        assert result.warning is None
        assert result.residual <= 1e-12 * max(1.0, A.max_abs_coeff())
        assert _reference_residual(A, result.columns) <= 1e-12 * max(1.0, A.max_abs_coeff())


@pytest.mark.parametrize(
    "ncols, seed, det_kind", [(1, 0, "zero"), (2, 1, "square")], ids=["one-dyad", "two-dyads"]
)
def test_det_zero_or_with_repeated_roots_takes_the_gram_route(ncols, seed, det_kind):
    # one dyad makes det M vanish, two make it (det B)^2, a square
    A, _ = random_dyad_matrix((2, 1), seed=seed, ncols=ncols)
    spec, space = factorization.prism_gram_space(A)
    M = spec.matrix(space.form)
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[0, 1]
    assert det.is_zero() == (det_kind == "zero")
    assert not binary_squarefree(det)
    assert factorization._branch_class(spec, space) is None
    result = factor(A)
    assert result.info["route"] == "gram" and result.info["feasIterations"] > 0
    assert result.warning is None and result.rank == ncols
    assert _reference_residual(A, result.columns) <= 1e-12 * max(1.0, A.max_abs_coeff())


@pytest.mark.parametrize("gap", [Fraction(1, 10**6), Fraction(1, 10**8)], ids=["1e-6", "1e-8"])
def test_nearly_meeting_roots_take_the_gram_route(gap):
    # det M = (s^2 + t^2)((1 + gap) s^2 + t^2) is square-free, but its roots
    # are gap / 2 apart, and at both gaps the class built from them misses f
    # by more than FIBER_TOL
    zero = BinaryForm.zero(2)
    A = SymMatrixPoly([[BinaryForm([1, 0, 1]), zero], [zero, BinaryForm([1, 0, 1 + gap])]])
    spec, space = factorization.prism_gram_space(A)
    assert factorization._branch_class(spec, space) is None
    result = factor(A)
    assert result.info["route"] == "gram"
    assert _reference_residual(A, result.columns) <= 1e-12 * max(1.0, A.max_abs_coeff())


def test_branch_route_reports_are_byte_identical():
    first = json.dumps(factor(random_dyad_matrix((2, 1), seed=3)[0]).to_json())
    second = json.dumps(factor(random_dyad_matrix((2, 1), seed=3)[0]).to_json())
    assert first == second


def test_rank_reduction_of_a_draw_with_n_dyads():
    # n dyads may give rank n, padded with a zero column to n+1
    A, _ = random_dyad_matrix((1, 1, 1), seed=19, ncols=3)
    result = factor(A)
    assert result.warning is None
    assert result.ncols == 4 and result.rank <= 4
    assert result.residual <= 1e-12 * max(1.0, A.max_abs_coeff())


@pytest.mark.parametrize(
    "heights", [(2, 1), (1, 1, 1), (3, 3, 2), (4, 3, 3, 2)], ids=lambda h: "heights%s" % (h,)
)
def test_embed_is_the_prism_form_of_the_upper_entries(heights):
    A, _ = random_dyad_matrix(heights, seed=0)
    spec, f = embed(A)
    assert spec.heights == heights
    upper = {
        (i, j): A.entries[i][j]
        for i in range(A.n)
        for j in range(i, A.n)
        if not A.entries[i][j].is_zero()
    }
    back = {key: entry for key, entry in spec.matrix(f).items() if not entry.is_zero()}
    assert back == upper


@pytest.mark.parametrize(
    "spec", [scroll(1, 1), scroll(2, 1), cone_rnc(3), cone_rnc(4)], ids=str
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_factor_of_a_surface_form_is_one_of_its_psd_classes(spec, seed):
    # a form on a scroll or cone is the 2 x 2 matrix of its prism, and a
    # psd Gram point of rank 3 on a generic form is one of finitely many
    # classes, so factor must land on one that the enumeration finds
    f = random_positive_form(spec, seed=seed)
    result = factor(SymMatrixPoly.from_upper(2, spec.prism.matrix(f)))
    assert result.rank == 3 and result.warning is None
    vectors = np.array(
        [[complex(c).real for form in col for c in form.coeffs] for col in result.columns]
    )
    G = vectors.T @ vectors
    if spec.kind == CONE_RNC:
        report = enumerate_cone(f, spec)
    else:
        report = enumerate_rank(build_gram_space(f, spec), 3, seed)
    classes = [entry["representation"].gram() for entry in report.entries if entry["psd"]]
    assert len(classes) == report.expected["psd"]
    gaps = [np.max(np.abs(G - C)) / np.max(np.abs(C)) for C in classes]
    assert min(gaps) <= 1e-10


def test_matrix_json_round_trip_and_malformed_entries():
    A, _ = random_dyad_matrix((2, 1), seed=0)
    zero_off = SymMatrixPoly.from_upper(2, {(0, 0): A.entries[0][0], (1, 1): A.entries[1][1]})
    for M in (A, zero_off):
        back = SymMatrixPoly.from_json(M.to_json())
        assert back.to_json() == M.to_json()
        assert np.array_equal(back.evaluate(0.3, -1.2), M.evaluate(0.3, -1.2))
    outside = A.to_json()
    outside["entries"]["0,2"] = outside["entries"]["0,1"]
    with pytest.raises(DimensionMismatch):
        SymMatrixPoly.from_json(outside)
    transposed = A.to_json()
    transposed["entries"]["1,0"] = transposed["entries"]["1,1"]
    with pytest.raises(NonSymmetric):
        SymMatrixPoly.from_json(transposed)


@pytest.mark.parametrize("heights", [(2, 1), (1, 1, 1), (3,)])
def test_factor_residual_matches_reference(heights):
    A, columns = random_dyad_matrix(heights, seed=4)
    columns = [list(col) for col in columns]
    assert factor_residual(A, columns) == 0.0  # integer dyads reproduce A exactly
    bumped = [col[:] for col in columns]
    coeffs = [complex(c).real for c in bumped[0][-1].coeffs]
    coeffs[0] += 0.5
    bumped[0][-1] = BinaryForm(coeffs, bumped[0][-1].deg)
    want = _reference_residual(A, bumped)
    assert want > 0.5
    assert factor_residual(A, bumped) == pytest.approx(want, rel=1e-12)


def test_zero_binary_entry_factors_with_height_zero():
    A = SymMatrixPoly([[BinaryForm.zero(4)]])
    result = factor(A)
    assert result.heights == (0,) and result.rank == 0
    assert factor_residual(A, result.columns) == 0.0


def test_one_by_one_factor_is_the_first_two_squares_class(monkeypatch):
    # the n = 1 columns are the first two-squares representation, built
    # directly from one root choice with no census and no dedup
    forms = [random_nonneg_binary(d, seed=1) for d in (2, 5, 8)]
    forms.append(BinaryForm([1, -2, 3, -4, 3, -2, 1, 0, 0], 8))  # t^2 (s-t)^2 (s^2+t^2)^2
    firsts = [binary_sos.rep_forms(binary_sos.enumerate_two_squares(f)[0]) for f in forms]

    def no_dedup(*args, **kwargs):
        raise AssertionError("factor compared two-squares representations")

    monkeypatch.setattr(binary_sos, "equivalent", no_dedup)
    for f, first in zip(forms, firsts):
        result = factor(SymMatrixPoly([[f]]))
        assert result.heights == (f.deg // 2,)
        assert [col[0].coeffs for col in result.columns] == [g.coeffs for g in first]
        assert result.residual <= 1e-8 * float(f.max_abs_coeff())


def test_factor_residual_rejects_wrong_column_degrees():
    # degrees (1, 2) where the pattern is (2, 1): the column still has 5 coefficients
    A, columns = random_dyad_matrix((2, 1), seed=0)
    wrong = [list(col) for col in columns]
    wrong[0] = [BinaryForm([1, 2], 1), BinaryForm([1, 0, 3], 2)]
    with pytest.raises(DimensionMismatch):
        factor_residual(A, wrong)


def _diag(*entries):
    n = len(entries)
    return SymMatrixPoly([
        [entries[i] if i == j else BinaryForm.zero(entries[i].deg) for j in range(n)]
        for i in range(n)
    ])


# indefinite matrices, each with the region of (u, v) where it is not psd
_INDEFINITE = [
    # diag(s^2, -t^2) is negative wherever t != 0
    (_diag(BinaryForm([0, 0, 1], 2), BinaryForm([-1, 0, 0], 2)),
     lambda u, v: v != 0.0),
    # diag(s^2 + t^2, t^2 - s^2/400) is negative only where |t| < |s|/20
    (_diag(BinaryForm([1, 0, 1], 2), BinaryForm([1, 0, Fraction(-1, 400)], 2)),
     lambda u, v: abs(v) < abs(u) / 20),
    # (s - t)^2 - (s^2 + t^2)/400 is negative only within about 0.035 rad of s = t
    (_diag(BinaryForm([1, 0, 1], 2),
           BinaryForm([Fraction(399, 400), -2, Fraction(399, 400)], 2)),
     lambda u, v: (u - v) ** 2 < (u * u + v * v) / 400),
    # and its mirror near s = -t, where s and t have opposite signs
    (_diag(BinaryForm([1, 0, 1], 2),
           BinaryForm([Fraction(399, 400), 2, Fraction(399, 400)], 2)),
     lambda u, v: (u + v) ** 2 < (u * u + v * v) / 400),
]


def test_indefinite_matrix_raises_not_psd_with_witness():
    for A, in_negative_region in _INDEFINITE:
        with pytest.raises(NotPSD) as info:
            factor(A)
        u, v, lam = info.value.witness
        assert lam < 0.0 and in_negative_region(u, v)
        assert np.linalg.eigvalsh(A.evaluate(u, v))[0] == pytest.approx(lam)


def _entrywise(A, s, t):
    """Reference: A(s, t) entry by entry through BinaryForm.eval."""
    return np.array([[complex(e.eval(s, t)).real for e in row] for row in A.entries])


def _with_zero_entry(A):
    entries = [row[:] for row in A.entries]
    entries[0][1] = entries[1][0] = BinaryForm.zero(entries[0][1].deg)
    return SymMatrixPoly(entries)


def _complex_entries(A):
    return SymMatrixPoly(
        [[BinaryForm([complex(c) for c in e.coeffs], e.deg) for e in row] for row in A.entries]
    )


@pytest.mark.parametrize("kind", ["dyads", "zero-entry", "complex"])
def test_evaluate_on_arrays_equals_stacked_scalar_calls(kind):
    A, _ = random_dyad_matrix((3, 2, 1), seed=5)
    A = {"dyads": A, "zero-entry": _with_zero_entry(A), "complex": _complex_entries(A)}[kind]
    rng = np.random.default_rng(2)
    s, t = rng.standard_normal((2, 3, 4))
    got = A.evaluate(s, t)
    assert got.shape == (3, 4, A.n, A.n) and got.dtype == float
    stacked = np.array([[A.evaluate(a, b) for a, b in zip(sr, tr)] for sr, tr in zip(s, t)])
    # one product either way; only the summation order may differ
    np.testing.assert_allclose(got, stacked, rtol=1e-15, atol=1e-15 * A.max_abs_coeff())
    reference = np.array([[_entrywise(A, a, b) for a, b in zip(sr, tr)] for sr, tr in zip(s, t)])
    np.testing.assert_allclose(got, reference, rtol=1e-13, atol=1e-13 * A.max_abs_coeff())
    assert A.evaluate(0.5, -2.0).shape == (A.n, A.n)


def _first_failing_direction(A):
    """Reference screen: the first of the PSD_DIRECTIONS directions, one at a time."""
    scale = max(A.max_abs_coeff(), 1e-300)
    for j in range(factorization.PSD_DIRECTIONS):
        theta = np.pi * j / factorization.PSD_DIRECTIONS
        u, v = np.cos(theta), np.sin(theta)
        if np.linalg.eigvalsh(_entrywise(A, u, v))[0] < -factorization.PSD_SCREEN_TOL * scale:
            return j
    return None


def _screen_cases():
    cases = [A for A, _region in _INDEFINITE]
    heights = [(2, 1), (1, 1, 1), (3, 3, 2), (3, 1), (2, 2, 1)]
    for seed in range(10):
        A, _ = random_dyad_matrix(heights[seed % len(heights)], seed=seed)
        cases.append(A)
        # a00 - c (cos phi s + sin phi t)^(2 d_0) is negative around phi
        phi = np.pi * (0.2 + 0.07 * seed)
        u, v = (Fraction(x).limit_denominator(1000) for x in (np.cos(phi), np.sin(phi)))
        entries = [row[:] for row in A.entries]
        a00 = entries[0][0]
        bump = BinaryForm([1], 0)
        for _ in range(a00.deg):
            bump = bump * BinaryForm([v, u], 1)
        peak = a00.eval(u, v) / (u * u + v * v) ** (a00.deg // 2)
        entries[0][0] = a00 - bump.scale(Fraction(11, 10) * peak)
        cases.append(SymMatrixPoly(entries))
    return cases


def test_psd_screen_agrees_with_a_loop_over_directions():
    for A in _screen_cases():
        want = _first_failing_direction(A)
        if want is None:
            check_psd_on_grid(A)
            continue
        with pytest.raises(NotPSD) as info:
            check_psd_on_grid(A)
        u, v, lam = info.value.witness
        theta = np.pi * want / factorization.PSD_DIRECTIONS
        assert (u, v) == (np.cos(theta), np.sin(theta))
        assert lam == pytest.approx(np.linalg.eigvalsh(_entrywise(A, u, v))[0], rel=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="the screen samples directions pi j / PSD_DIRECTIONS; the entry "
    "(t - s/200)(t - 3s/200) is negative only for t/s in (0.005, 0.015), "
    "which falls between two of them",
)
def test_psd_screen_rejects_a_thin_negative_wedge():
    # factor then runs its feasibility budget out (2.7 s) and reports a
    # solver failure where NotPSD is the answer
    thin = BinaryForm([1, Fraction(-1, 50), Fraction(3, 40000)], 2)
    assert float(thin.eval(1, 0.01)) == pytest.approx(-2.5e-5)
    with pytest.raises(NotPSD):
        check_psd_on_grid(_diag(thin, BinaryForm([1, 0, 1], 2)))


def test_psd_screen_passes_singular_psd_matrices():
    # a single dyad c c^T is singular in every direction, diag((s - t)^2, s^2 + t^2)
    # along s = t, which the screen samples; rounding must not read as negative
    dyad, _ = random_dyad_matrix((2, 1), seed=0, ncols=1)
    for A in (dyad, _diag(BinaryForm([1, -2, 1], 2), BinaryForm([1, 0, 1], 2))):
        check_psd_on_grid(A)
