"""The oracle accepts true outputs and rejects doctored counts and residuals."""

import copy

import pytest

from minsos import (
    FactorResult,
    Representation,
    cone_rnc,
    enumerate_cone,
    enumerate_two_squares,
    random_dyad_matrix,
    random_nonneg_binary,
    random_positive_form,
)

from perfbench import oracle


def test_count_table_matches_the_paper():
    assert oracle.scroll_counts(2) == {"complex": 16, "real": 4, "psd": 4, "indefinite": 0}
    assert oracle.scroll_counts(3) == {"complex": 64, "real": 16, "psd": 8, "indefinite": 8}
    assert oracle.cone_counts(4) == {"complex": 35, "real": 11, "psd": 8, "indefinite": 3}
    assert oracle.cone_counts(5) == {"complex": 126, "real": 16, "psd": 16, "indefinite": 0}
    assert oracle.two_squares_count(10) == 512


def _doctored(rep, delta):
    vectors = [list(v) for v in rep.vectors]
    vectors[0][0] = float(vectors[0][0]) + delta
    return Representation(basis=rep.basis, vectors=vectors, signs=rep.signs, exact=False)


@pytest.fixture(scope="module")
def cone_case():
    spec = cone_rnc(4)
    f = random_positive_form(spec, seed=11)
    return f, enumerate_cone(f, spec)


def test_enumeration_passes_then_fails_on_a_doctored_count(cone_case):
    f, report = cone_case
    oracle.check_enumeration(f, report, oracle.cone_counts(4))
    doctored = copy.copy(report)
    doctored.counts = dict(report.counts, psd=report.counts["psd"] - 1)
    with pytest.raises(oracle.CheckFailed, match="psd count"):
        oracle.check_enumeration(f, doctored, oracle.cone_counts(4))


def test_enumeration_fails_on_a_doctored_certificate(cone_case):
    f, report = cone_case
    doctored = copy.copy(report)
    doctored.entries = [dict(e) for e in report.entries]
    doctored.entries[0]["representation"] = _doctored(report.entries[0]["representation"], 1e-3)
    with pytest.raises(oracle.CheckFailed, match="residual"):
        oracle.check_enumeration(f, doctored, oracle.cone_counts(4))


def test_two_squares_passes_then_fails_on_a_doctored_residual():
    f = random_nonneg_binary(4, seed=5)
    reps = enumerate_two_squares(f)
    oracle.check_two_squares(f, reps, 4)
    with pytest.raises(oracle.CheckFailed, match="residual"):
        oracle.check_two_squares(f, [_doctored(reps[0], 1e-3)] + reps[1:], 4)
    with pytest.raises(oracle.CheckFailed, match="classes"):
        oracle.check_two_squares(f, reps[:-1], 4)
    with pytest.raises(oracle.CheckFailed, match="share"):
        oracle.check_two_squares(f, reps[:-1] + reps[:1], 4)


def test_factor_passes_then_fails_on_a_doctored_residual_or_rank():
    A, columns = random_dyad_matrix((2, 1), seed=7, ncols=3)
    result = FactorResult(heights=(2, 1), columns=[list(c) for c in columns],
                          residual=0.0, rank=3)
    oracle.check_factor(A, result)
    bad = [list(c) for c in columns]
    form = bad[0][0]
    bad[0][0] = type(form)([float(c) for c in form.coeffs[:-1]] + [float(form.coeffs[-1]) + 1e-3])
    with pytest.raises(oracle.CheckFailed, match="residual"):
        oracle.check_factor(A, FactorResult(heights=(2, 1), columns=bad, residual=0.0, rank=3))
    with pytest.raises(oracle.CheckFailed, match="rank"):
        oracle.check_factor(A, FactorResult(heights=(2, 1), columns=[list(c) for c in columns] * 2,
                                            residual=0.0, rank=6))
