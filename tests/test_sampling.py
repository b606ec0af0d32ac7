"""Seeded generators: reproducibility, re-keying by attempt, dyad matrices,
argument checks and the pinned digests of fixed draws."""

import hashlib
import json

import numpy as np
import pytest

from minsos import sampling
from minsos.errors import UnsupportedDegree
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


@pytest.mark.parametrize(
    "heights, ncols, match",
    [
        ((-1,), None, "height must be at least 0, not -1"),
        ((2, -1), None, "height must be at least 0, not -1"),
        ((2.5, 1), None, "height 2.5 is not an integer"),
        ((True, 1), None, "height True is not an integer"),
        ((2, 1), 0, "ncols must be at least 1"),
        ((2, 1), -1, "ncols must be at least 1"),
        ((2, 1), 1.5, "ncols 1.5 is not an integer"),
    ],
)
def test_dyad_matrix_arguments_fail_fast(monkeypatch, heights, ncols, match):
    # the check runs before any draw
    monkeypatch.setattr(sampling, "_rng", lambda seed, attempt: pytest.fail("drew"))
    with pytest.raises(UnsupportedDegree, match=match):
        random_dyad_matrix(heights, seed=0, ncols=ncols)


@pytest.mark.parametrize(
    "d, match",
    [(2.5, "d 2.5 is not an integer"), (True, "d True is not an integer"),
     (0, "d must be at least 1, not 0")],
)
def test_nonneg_binary_degree_fails_fast(d, match):
    with pytest.raises(UnsupportedDegree, match=match):
        random_nonneg_binary(d, seed=0)


def test_integral_floats_and_numpy_integers_read_as_integers():
    assert random_nonneg_binary(3.0, seed=1) == random_nonneg_binary(3, seed=1)
    assert random_nonneg_binary(np.int64(3), seed=1) == random_nonneg_binary(3, seed=1)
    A, columns = random_dyad_matrix((2.0, np.int64(1)), seed=2, ncols=3.0)
    B, columns_b = random_dyad_matrix((2, 1), seed=2, ncols=3)
    assert A.to_json() == B.to_json() and columns == columns_b


# SHA-256 of the sorted-key JSON of each draw, computed before the samplers
# moved from BinaryForm arithmetic to integer arrays; a change to the draw
# order or to the arithmetic changes them
_DYAD_DIGESTS = {
    ((2, 1), 0, None): "e24a37bd7e4a999ae9891cc5f611b5459c09cba71e0f4b467c7573c69cd34c14",
    ((2, 1), 1, None): "8827644bcb144557a4f59bc3fb13a0f331eb005af099247165653de0dccd4809",
    ((2, 1), 2, None): "52ab6c01e59c74b432dfc6cf0bd0d3ff359d2dd1fe679d8949842bc1e1300262",
    ((2, 1), 3, None): "1813664b965fe8ef8fbd7047386d1bef602129046ace0e4f45cc413a3200fced",
    ((2, 1), 4, None): "74e0f7e10d21b0aa358d08acdb05d801507a1fa7a35e76ce23e0efe38c1ebb42",
    ((3, 3, 2), 0, 9): "1f6b1f7a5f5d9bf683f62a3e5167e142d7ade5e4c2c6b164fa456ae82901e285",
    ((3, 3, 2), 1, 9): "0497036764b932119c9cc2d02ecd05b8666b4292660a657b6fe23ed7f7a81b8d",
    ((3, 3, 2), 2, 9): "003d22e615b2ad9b93d66490631488faa0cfb1b6de861d87a435dc3543293826",
    ((3, 3, 2), 3, 9): "4b174f47b93cfe7e18e91f589693003bea9ee548eab0e9df346925ed1797da21",
    ((3, 3, 2), 4, 9): "74cb62b11522c74ef5b1d88efdb3fb6eb9e5321e7572556765eaf030b7632076",
    ((1, 0, 2), 3, 2): "2c35aba83fa4b0658ae14725f6f2f64e503b92335b3de6a42bbefc5bf396d71a",
}
_NONNEG_DIGESTS = {
    (1, 0): "655522f96f0b9d103c5336071a55a27b5effd3a0f4cc6352a1a8071befa17e55",
    (1, 1): "373c5c5177e8e32ed8822a5cf61adb54051b84db4d188e31fa46b59c0e14e4dd",
    (1, 2): "5c69abf862aee9bb069c760cc990401597af49c45063e4692596386baba37db3",
    (6, 0): "efc20a42c543e2126825dd0d504cdccf68b302eb9d634cc18b2e84f667b270bc",
    (6, 1): "53aab2e587f1a5f31223a4255973bd3a1300d4a475074bebba5783c3acb198d3",
    (6, 2): "f9b9df35ecaff1594b353a012fcf372d08ad06b80b1ab75dfd64731f34e8f7ce",
    (8, 0): "bb25751a7c62f16806b0c05db9336dd2c171864d5bd7fe1d3775f237cf34a333",
    (8, 1): "b78f266d50c6a2994a3dde181882de20af430731ba69dcc4f311893a11426b92",
    (8, 2): "7b885fa11f548d3035f0366ecdf88db5a56fea96cad67fd65ce4600db4ffe075",
    (12, 0): "b255a985a70cbf8e4651eeef0f5a3784478febe2b7a7c9469821759ab0334be8",
    (12, 1): "58691d8f8a4354fa80e7e08005e0c421f120e23c2cd67fa035c32a7bb2ad4580",
    (12, 2): "b0ea55aec4397c2bd1271a7e04fed5a8decbd016137e533cdad68baedb4a2ee1",
}
_POSITIVE_DIGESTS = {
    ("scroll(2,1)", 0): "bdc700e352c71bf957d88876f753f4af829b708afa09e438a6d9cc3f2ca33bf3",
    ("scroll(2,1)", 1): "60f1cb857c2bf10ed9417435ca5dc69fa6ef39770edf0acbe0212782d25d5456",
    ("scroll(2,1)", 2): "f30b64609c55427c38cf2119ad07b9cd019426365707869324a3f3d0c936a98c",
    ("cone_rnc(4)", 0): "0c1ce45c067bcc3238704e5b665dae2c7b525f4735a259d3f4b6778a748da4f3",
    ("cone_rnc(4)", 1): "ca26f1c7b44462dd14f3efe9e279d7705ab8e06a50082875e3cb9cb93a676cb6",
    ("cone_rnc(4)", 2): "1f26fded8a6f7bbaf6ec208fff45b1922d69d88c766aa5bdca30d43f1b71534d",
    ("veronese", 0): "85c014b9a0e25c09790b1aae71cdd8c116b1debbb33b9e444e8d335d4c70dd38",
    ("veronese", 1): "a47617b7dc730f51b79f5a36e63c060b1a0c893f599af5a78fb4473e5c3545b9",
    ("veronese", 2): "3c06a7fb3388976107865ac87128ab92d6480873408f842fda0d4124a7b0d154",
}


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("heights, seed, ncols", sorted(_DYAD_DIGESTS, key=repr))
def test_dyad_matrix_draws_are_pinned(heights, seed, ncols):
    A, columns = random_dyad_matrix(heights, seed=seed, ncols=ncols)
    draw = {"matrix": A.to_json(), "columns": [[f.to_json() for f in c] for c in columns]}
    assert _digest(draw) == _DYAD_DIGESTS[(heights, seed, ncols)]


@pytest.mark.parametrize("d, seed", sorted(_NONNEG_DIGESTS))
def test_nonneg_binary_draws_are_pinned(d, seed):
    assert _digest(random_nonneg_binary(d, seed=seed).to_json()) == _NONNEG_DIGESTS[(d, seed)]


_SURFACES = {"scroll(2,1)": scroll(2, 1), "cone_rnc(4)": cone_rnc(4), "veronese": veronese()}


@pytest.mark.parametrize("surface, seed", sorted(_POSITIVE_DIGESTS))
def test_positive_form_draws_are_pinned(surface, seed):
    form = random_positive_form(_SURFACES[surface], seed=seed)
    assert _digest(form.to_json()) == _POSITIVE_DIGESTS[(surface, seed)]
