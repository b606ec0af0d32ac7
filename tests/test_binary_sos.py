"""Two-squares enumeration for positive binary forms.

Hand oracle.  f = (s^2 + t^2)(s^2 + 4 t^2) = s^4 + 5 s^2 t^2 + 4 t^4 has
roots {i, -i, 2i, -2i}.  Writing f = |h|^2 for h a product of one root from
each conjugate pair gives exactly two inequivalent sums of two squares:

  h = (s - i t)(s - 2i t) = s^2 - 2 t^2 - 3 i s t
      ->  f = (s^2 - 2 t^2)^2 + (3 s t)^2
  h = (s - i t)(s + 2i t) = s^2 + 2 t^2 + i s t
      ->  f = (s^2 + 2 t^2)^2 + (s t)^2

(both verified by direct expansion).  The third balanced pairing of the
roots is conjugation-stable and yields the real product split
f = (s^2 + t^2) * (s^2 + 4 t^2), an indefinite difference of squares, so the
rank-two census is 3 complex / 3 real / 2 psd / 1 indefinite.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from minsos import binary_sos
from minsos.binary_sos import (
    _nonnegative,
    class_representation,
    enumerate_rank_two,
    enumerate_two_squares,
    rep_forms,
    rnc_basis,
    roots,
)
from minsos.biform import BinaryForm
from minsos.errors import NotNonnegative, UnsupportedDegree
from minsos.factorization import SymMatrixPoly, factor
from minsos.gram import Representation, equivalent, verify_representation
from minsos.sampling import random_nonneg_binary


def _fixture():
    # (s^2 + t^2)(s^2 + 4 t^2)
    return BinaryForm([4, 0, 5, 0, 1], 4)


# --------------------------------------------------------------------- roots


def test_roots_conjugate_pairs():
    rm = roots(_fixture())
    got = sorted((complex(r) for r, _ in rm.entries()), key=lambda z: z.imag)
    expected = [-2j, -1j, 1j, 2j]
    for a, b in zip(got, expected):
        assert abs(a - b) < 1e-10
    assert sum(mult for _, mult in rm.entries()) == 4


def test_roots_with_multiplicity():
    f = BinaryForm([1, 0, 2, 0, 1], 4)  # (s^2 + t^2)^2
    rm = roots(f)
    assert sorted(m for _, m in rm.entries()) == [2, 2]


def test_roots_near_the_axis_are_a_pair_when_the_exact_count_says_so():
    # s^2 + 1e-18 t^2: +-1e-9 i lie within PAIR_TOL of the axis, but the
    # part has no real root; times (s - t)(s + t) the real roots stay real
    q = BinaryForm([Fraction(1e-18), 0, 1], 2)
    rm = roots(q)
    assert rm.real_roots == [] and [m for _, m in rm.pairs] == [1]
    assert abs(rm.pairs[0][0] - 1e-9j) < 1e-20
    assert _nonnegative(rm)
    rm = roots(q * BinaryForm([-1, 0, 1], 2))
    assert [r for r, _ in rm.real_roots] == [-1, 1] and len(rm.pairs) == 1


def test_is_nonnegative_classification():
    # the decision that two-squares and factor make, on the root multiset
    def is_nonnegative(f):
        return _nonnegative(roots(f))

    assert is_nonnegative(_fixture())
    assert is_nonnegative(BinaryForm([1, 0, 0], 2))  # t^2
    assert not is_nonnegative(BinaryForm([-1, 0, 1], 2))  # (s-t)(s+t)
    assert not is_nonnegative(BinaryForm([0, 1, 0], 2))  # s t changes sign


def test_rnc_basis_monomials():
    basis = rnc_basis(2)
    assert basis.monomials == ((0, 2), (1, 1), (2, 0))
    assert basis.label(1) == "s*t"


# --------------------------------------------------------- two-squares reps


def test_two_squares_hand_enumeration():
    f = _fixture()
    reps = enumerate_two_squares(f)
    assert len(reps) == 2  # 2^(d-1) with d = 2
    # targets from the docstring, as exact representations over rnc_basis(2)
    basis = rnc_basis(2)
    targets = [
        Representation(  # (s^2 - 2 t^2)^2 + (3 s t)^2
            basis=basis, vectors=[[-2, 0, 1], [0, 3, 0]], signs=[1, 1], exact=True
        ),
        Representation(  # (s^2 + 2 t^2)^2 + (s t)^2
            basis=basis, vectors=[[2, 0, 1], [0, 1, 0]], signs=[1, 1], exact=True
        ),
    ]
    for target in targets:
        assert any(equivalent(rep, target) for rep in reps)
    for rep in reps:
        assert verify_representation(f, rep) < 1e-10


def test_two_squares_counts_generic_degrees():
    for d in (2, 3, 4, 5):
        f = random_nonneg_binary(d, seed=20 + d)
        reps = enumerate_two_squares(f)
        assert len(reps) == 2 ** (d - 1)
        for rep in reps:
            assert verify_representation(f, rep) < 1e-10
            assert rep.nforms == 2
            assert rep.is_psd()


def test_two_squares_rejects_indefinite():
    with pytest.raises(NotNonnegative):
        enumerate_two_squares(BinaryForm([-1, 0, 1], 2))


def test_two_squares_odd_degree_rejected():
    with pytest.raises((UnsupportedDegree, NotNonnegative)):
        enumerate_two_squares(BinaryForm([1, 1], 1))


def test_rep_forms_expand_to_f():
    f = random_nonneg_binary(3, seed=9)
    rep = enumerate_two_squares(f)[0]
    p, q = rep_forms(rep)
    expanded = p * p + q * q
    diff = max(
        abs(complex(a) - complex(b)) for a, b in zip(expanded.coeffs, f.coeffs)
    )
    assert diff < 1e-9 * float(f.max_abs_coeff())


def _pairwise_dedup(reps):
    """The quadratic keep-first scan that the trace sweep replaces."""
    kept = []
    for rep in reps:
        if not any(equivalent(rep, other) for other in kept):
            kept.append(rep)
    return kept


def _candidates_and_reps(monkeypatch, f):
    """The root choices enumerate_two_squares dedups, and what it returns."""
    seen = []
    dedup = binary_sos._dedup

    def recording(reps):
        seen.append(reps)
        return dedup(reps)

    monkeypatch.setattr(binary_sos, "_dedup", recording)
    reps = enumerate_two_squares(f)
    (candidates,) = seen
    return candidates, reps


_Q = BinaryForm([1, 0, 1], 2)  # s^2 + t^2
_R = BinaryForm([5, 2, 1], 2)  # s^2 + 2 s t + 5 t^2
_L = BinaryForm([-3, 1], 1)  # s - 3 t


_SWEEP_FORMS = [random_nonneg_binary(d, seed=s) for d in range(1, 8) for s in (0, 1, 2, 41)] + [
    _Q * _Q * _R * _R,
    _L * _L * _Q * _R,
    _Q * _Q * _R,
    _L * _L * _R * _R,
]


@pytest.mark.parametrize("f", _SWEEP_FORMS)
def test_trace_sweep_keeps_what_the_pairwise_scan_keeps(monkeypatch, f):
    candidates, reps = _candidates_and_reps(monkeypatch, f)
    want = _pairwise_dedup(candidates)
    assert len(reps) == len(want)
    assert all(got is kept for got, kept in zip(reps, want))


@pytest.mark.parametrize("f", _SWEEP_FORMS)
def test_prefix_tree_products_have_the_bits_of_products_built_from_scratch(monkeypatch, f):
    candidates, _reps = _candidates_and_reps(monkeypatch, f)
    rm = roots(f)
    half_real = [(value, mult // 2) for value, mult in rm.real_roots]
    assign = list(itertools.product(*(range(mult + 1) for _, mult in rm.pairs)))
    assert len(candidates) == len(assign)
    for rep, counts in zip(candidates, assign):
        choice = list(half_real)
        for (value, mult), a in zip(rm.pairs, counts):
            choice += [(value, a), (value.conjugate(), mult - a)]
        want = binary_sos._conjugate_choice_rep(rm, choice)
        assert np.array(rep.vectors).tobytes() == np.array(want.vectors).tobytes()
        assert rep.signs == want.signs and rep.basis == want.basis


def test_two_squares_at_degree_ten_calls_equivalent_at_most_once_a_choice(monkeypatch):
    calls = []
    real = binary_sos.equivalent

    def counted(rep1, rep2):
        calls.append(1)
        return real(rep1, rep2)

    monkeypatch.setattr(binary_sos, "equivalent", counted)
    candidates, reps = _candidates_and_reps(monkeypatch, random_nonneg_binary(10, seed=0))
    assert len(candidates) == 1024
    assert len(reps) == 512
    # each conjugate twin meets its kept partner; the pairwise scan made 262,144 calls
    assert 512 <= len(calls) <= len(candidates)


@pytest.mark.parametrize("power", [3, 4])
def test_a_complex_root_of_multiplicity_three_or_more_is_reported_unpaired(power):
    # The id is older than the exact multiplicities and the exact conjugate
    # pairs: (s^2 + t^2)^k once left a root without a partner, and now gives
    # one pair of multiplicity k and the census psd count.
    # (s^2 + t^2)^k: pi = (s - i t)^a (s + i t)^(k - a), a = 0..k, one
    # representation per a up to a <-> k - a, so 2 for k = 3 and 3 for k = 4
    count = power // 2 + 1
    f = _Q
    for _ in range(power - 1):
        f = f * _Q
    rm = roots(f)
    assert rm.pairs == [(1j, power)] and rm.real_roots == [] and rm.inf_mult == 0
    assert _nonnegative(rm)
    reps = enumerate_two_squares(f)
    assert len(reps) == count == enumerate_rank_two(rm).counts["psd"]
    for rep in reps:
        assert verify_representation(f, rep) < 1e-10
    result = factor(SymMatrixPoly([[f]]))
    assert result.ncols == 2 and result.warning is None
    assert result.residual <= 1e-8 * float(f.max_abs_coeff())


# ------------------------------------------------------------ rank-2 census


def test_rank_two_census_hand_counts():
    report = enumerate_rank_two(roots(_fixture()))
    assert report.counts["complex"] == 3
    assert report.counts["real"] == 3
    assert report.counts["psd"] == 2
    assert report.counts["indefinite"] == 1


def test_rank_two_census_generic_counts():
    from math import comb

    for d in (2, 3, 4):
        f = random_nonneg_binary(d, seed=40 + d)
        report = enumerate_rank_two(roots(f))
        assert report.counts["complex"] == comb(2 * d, d) // 2
        assert report.counts["psd"] == 2 ** (d - 1)
        both_real = comb(d, d // 2) // 2 if d % 2 == 0 else 0
        assert report.counts["indefinite"] == both_real


def _nongeneric():
    # t^2 (s - t)^2 (s^2 + t^2)^2: a double root at infinity, a double real
    # root and a doubled conjugate pair
    t, s_minus_t, circle = BinaryForm([1, 0, 0], 2), BinaryForm([-1, 1], 1), BinaryForm([1, 0, 1], 2)
    return t * s_minus_t * s_minus_t * circle * circle


def test_nongeneric_census_hand_counts():
    # Splits take (v_inf, v_1, v_i, v_-i) with each v <= 2 and sum 4: 19
    # vectors, (1,1,1,1) self-complementary, so 10 classes.  Both factors are
    # real when v_i = v_-i: {(2,2,0,0)}, {(2,0,1,1), (0,2,1,1)}, {(1,1,1,1)}.
    # They are conjugate when v_inf = v_1 = 1 and v_i + v_-i = 2:
    # {(1,1,2,0), (1,1,0,2)} and {(1,1,1,1)}, whose two factors are equal and
    # real, f = u^2 (its Gram matrix is psd of rank 1), so that class is psd.
    f = _nongeneric()
    rm = roots(f)
    assert (rm.inf_mult, [m for _, m in rm.real_roots], [m for _, m in rm.pairs]) == (2, [2], [2])
    report = enumerate_rank_two(rm)
    assert report.counts == {"complex": 10, "real": 4, "psd": 2, "indefinite": 2, "nsd": 0}
    for cls in report.classes:
        if cls.kind != "complex":
            rep = class_representation(rm, cls)
            assert verify_representation(f, rep) < 1e-10
            assert rep.is_psd() == (cls.kind == "psd")
    # pi = t (s - t) (s - i t)^a (s + i t)^(2-a): a = 0 and a = 2 conjugate,
    # and a = 1 gives the real pi, f = p^2 with q = 0
    reps = enumerate_two_squares(f)
    assert len(reps) == 2 == report.counts["psd"]
    for rep in reps:
        assert verify_representation(f, rep) < 1e-10
    assert sum(rep_forms(rep)[1].is_zero() for rep in reps) == 1


def _rank_two_by_seen_set(rm):
    """enumerate_rank_two as it was when it kept a set of the splits seen."""
    d = rm.degree // 2
    entries = rm.entries()
    fixed = len(entries) - 2 * len(rm.pairs)
    conj = list(range(fixed))
    for i in range(fixed, len(entries), 2):
        conj += [i + 1, i]
    mults = [m for _, m in entries]
    seen, classes = set(), []
    counts = {"complex": 0, "real": 0, "psd": 0, "indefinite": 0, "nsd": 0}
    for vec in itertools.product(*(range(m + 1) for m in mults)):
        if sum(vec) != d:
            continue
        comp = tuple(m - v for m, v in zip(mults, vec))
        if min(vec, comp) in seen:
            continue
        seen.add(min(vec, comp))
        conj_vec = tuple(vec[conj[i]] for i in range(len(entries)))
        if conj_vec == comp:
            kind = "psd" if rm.lead > 0 else "nsd"
        elif conj_vec == vec:
            kind = "indefinite"
        else:
            kind = "complex"
        classes.append({
            "sideA": [(i, v) for i, v in enumerate(vec) if v],
            "sideB": [(i, v) for i, v in enumerate(comp) if v],
            "kind": kind,
        })
        counts["complex"] += 1
        if kind != "complex":
            counts["real"] += 1
            counts[kind] += 1
    return {"counts": counts, "classes": classes}


@pytest.mark.parametrize(
    "f",
    [_nongeneric(), _nongeneric() * _R, _Q * _Q * _R * _R, _L * _L * _Q * _R, _Q * _Q * _R,
     _L * _L * _R * _R, _Q * _Q * _Q, random_nonneg_binary(5, seed=3),
     _nongeneric().scale(-1)],
    ids=["nongeneric", "nongeneric-times-R", "QQRR", "LLQR", "QQR", "LLRR", "QQQ", "generic",
         "negative"],
)
def test_rank_two_classes_are_those_a_seen_set_keeps(f):
    rm = roots(f)
    assert enumerate_rank_two(rm).to_json() == _rank_two_by_seen_set(rm)


def test_rank_two_census_json():
    report = enumerate_rank_two(roots(_fixture()))
    data = report.to_json()
    assert data["counts"]["psd"] == 2
    assert len(data["classes"]) == 3
