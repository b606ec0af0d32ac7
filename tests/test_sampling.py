"""Seeded generators: reproducibility, re-keying by attempt, dyad matrices."""

import pytest

from minsos import sampling
from minsos.factorization import degree_pattern
from minsos.sampling import (
    distinct_seeds,
    random_dyad_matrix,
    random_nonneg_binary,
    random_positive_form,
)
from minsos.surfaces import cone_rnc, scroll, veronese


@pytest.mark.parametrize("spec", [scroll(2, 1), cone_rnc(3), veronese()])
def test_equal_seeds_give_equal_forms(spec):
    assert random_positive_form(spec, seed=11) == random_positive_form(spec, seed=11)
    assert random_positive_form(spec, seed=11) != random_positive_form(spec, seed=12)


def test_equal_seeds_give_equal_matrices_and_binary_forms():
    A1, cols1 = random_dyad_matrix((2, 1, 1), seed=5)
    A2, cols2 = random_dyad_matrix((2, 1, 1), seed=5)
    assert A1.to_json() == A2.to_json()
    assert [[f.to_json() for f in col] for col in cols1] == [
        [f.to_json() for f in col] for col in cols2
    ]
    assert random_nonneg_binary(4, seed=5) == random_nonneg_binary(4, seed=5)


def test_rejected_draw_rekeys_by_attempt(monkeypatch):
    spec = scroll(1, 1)
    first = random_positive_form(spec, seed=0)
    real_rng = sampling._rng
    # the attempt-1 draw: every attempt reads the stream of the next one
    monkeypatch.setattr(sampling, "_rng", lambda seed, attempt: real_rng(seed, attempt + 1))
    monkeypatch.setattr(sampling, "genericity_check", lambda f, s: [])
    second = random_positive_form(spec, seed=0)
    assert second != first
    # reject attempt 0 only: the result is the attempt-1 draw
    monkeypatch.setattr(sampling, "_rng", real_rng)
    calls = []

    def reject_first(f, s):
        calls.append(f)
        return [] if len(calls) > 1 else ["discriminant is not squarefree"]

    monkeypatch.setattr(sampling, "genericity_check", reject_first)
    assert random_positive_form(spec, seed=0) == second
    assert calls == [first, second]


@pytest.mark.parametrize("heights, ncols", [((2, 1), None), ((3, 3, 2), 4), ((1, 0, 2), 2)])
def test_dyad_matrix_is_the_sum_of_its_dyads(heights, ncols):
    A, columns = random_dyad_matrix(heights, seed=3, ncols=ncols)
    n = len(heights)
    assert degree_pattern(A) == heights
    if ncols is not None:
        assert len(columns) == ncols
    else:
        assert n + 1 <= len(columns) <= 2 * n
    for i in range(n):
        for j in range(n):
            want = [0] * (heights[i] + heights[j] + 1)
            for col in columns:
                for p, x in enumerate(col[i].coeffs):
                    for q, y in enumerate(col[j].coeffs):
                        want[p + q] += x * y
            entry = A.entries[i][j]
            if entry.is_zero():
                assert not any(want)
            else:
                assert entry.deg == heights[i] + heights[j]
                assert list(entry.coeffs) == want


def test_distinct_seeds_are_deterministic_and_distinct():
    seeds = distinct_seeds(42, 50)
    assert seeds == distinct_seeds(42, 50)
    assert len(seeds) == 50 and len(set(seeds)) == 50
    assert all(isinstance(s, int) and 0 <= s < 2**64 for s in seeds)
    assert distinct_seeds(43, 50) != seeds
