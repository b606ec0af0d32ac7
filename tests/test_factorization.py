"""Factorization A = B B^T: random dyad matrices, the residual, NotPSD."""

from fractions import Fraction

import numpy as np
import pytest

from minsos import binary_sos, factorization
from minsos.biform import BinaryForm
from minsos.errors import DimensionMismatch, NonSymmetric, NotPSD, StuckAboveTarget
from minsos.factorization import SymMatrixPoly, check_psd_on_grid, factor, factor_residual
from minsos.sampling import random_dyad_matrix, random_nonneg_binary


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


@pytest.mark.parametrize("heights", [(2, 1), (1, 1, 1), (3, 3, 2), (2,)])
def test_factor_reaches_n_plus_one_columns(heights):
    A, _ = random_dyad_matrix(heights, seed=0)
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
    # rank_reduce leaves these through an early exit; unpolished, the dropped
    # eigenvalues stayed near -1e-10 of the largest and the residual near 5e-9.
    # A single dyad has a rank-1 Gram point, where the rank-(n+1) locus is
    # not isolated: the polish must run at the point's own rank (was 1e-10)
    A, _ = random_dyad_matrix(heights, seed=seed, ncols=ncols)
    assert factor(A).residual <= 1e-12 * max(1.0, A.max_abs_coeff())


def test_feasibility_fallback_factors_a_shallow_fiber(monkeypatch):
    # n+1 dyads put this fiber at a shallow angle to the psd cone:
    # psd_feasible exhausts its budget and the reflections take over
    calls = []
    reflections = factorization._feasible_reflections

    def counted(space):
        calls.append(space)
        return reflections(space)

    monkeypatch.setattr(factorization, "_feasible_reflections", counted)
    A, _ = random_dyad_matrix((2, 1), seed=4, ncols=3)
    result = factor(A)
    assert len(calls) == 1
    _assert_n_plus_one_columns(A, result)
    assert result.warning is None


@pytest.mark.parametrize("stall", ["polish fails", "budget runs out"])
def test_rank_reduction_failure_raises_and_factor_warns(monkeypatch, stall):
    # the psd fiber point of this draw has rank 4 > n+1 = 3, so it enters the cycle
    A, _ = random_dyad_matrix((2, 1), seed=0)
    spec, space = factorization.prism_gram_space(A)
    G, _info = factorization.psd_feasible(space)
    assert factorization._numeric_rank(G) > spec.target_rank
    polishes = []

    def failed_polish(space, G, target):
        polishes.append(G)
        return False, G

    if stall == "polish fails":
        monkeypatch.setattr(factorization, "_rank_newton", failed_polish)
        monkeypatch.setattr(factorization, "REDUCE_BUDGET", 2000)
    else:
        monkeypatch.setattr(factorization, "REDUCE_BUDGET", 0)
    with pytest.raises(StuckAboveTarget) as info:
        factorization.rank_reduce(space, G, spec.target_rank)
    assert info.value.achieved >= info.value.target == spec.target_rank
    assert bool(polishes) == (stall == "polish fails")
    result = factor(A)
    assert result.warning is not None and "stalled" in result.warning
    assert result.ncols > spec.target_rank
    assert result.residual <= 1e-8 * max(1.0, A.max_abs_coeff())


def test_failed_polish_backs_off_and_recovers(monkeypatch):
    # the first polish of this draw, at a truncation gap of 1e-3, runs off to a
    # root that is not psd; the cycle goes on to a gap of 1e-4, and the second
    # polish lands on the psd rank-4 point
    polished = []
    newton = factorization._rank_newton

    def counted(space, G, target):
        ok, out = newton(space, G, target)
        polished.append(ok)
        return ok, out

    monkeypatch.setattr(factorization, "_rank_newton", counted)
    A, _ = random_dyad_matrix((1, 1, 1), seed=3, ncols=4)
    result = factor(A)
    assert polished == [False, True]
    _assert_n_plus_one_columns(A, result)
    assert result.warning is None


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


def test_indefinite_matrix_raises_not_psd_with_witness():
    cases = [
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
    for A, in_negative_region in cases:
        with pytest.raises(NotPSD) as info:
            factor(A)
        u, v, lam = info.value.witness
        assert lam < 0.0 and in_negative_region(u, v)
        assert np.linalg.eigvalsh(A.evaluate(u, v))[0] == pytest.approx(lam)


def test_psd_screen_passes_singular_psd_matrices():
    # a single dyad c c^T is singular in every direction, diag((s - t)^2, s^2 + t^2)
    # along s = t, which the screen samples; rounding must not read as negative
    dyad, _ = random_dyad_matrix((2, 1), seed=0, ncols=1)
    for A in (dyad, _diag(BinaryForm([1, -2, 1], 2), BinaryForm([1, 0, 1], 2))):
        check_psd_on_grid(A)
