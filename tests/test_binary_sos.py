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
    enumerate_rank_two,
    enumerate_two_squares,
    real_class_vectors,
    rep_forms,
    rnc_basis,
    roots,
)
from minsos.biform import BinaryForm
from minsos.errors import NotNonnegative, UnsupportedDegree
from minsos.factorization import SymMatrixPoly, factor
from minsos.gram import Representation, equivalent, verify_representation
from minsos.sampling import random_nonneg_binary

from form_algebra import add, mul


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
    rm = roots(mul(q, BinaryForm([-1, 0, 1], 2)))
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
            assert rep.signs == [1, 1]


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
    expanded = add(mul(p, p), mul(q, q))
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

    def recording(reps, vectors):
        seen.append(reps)
        return dedup(reps, vectors)

    monkeypatch.setattr(binary_sos, "_dedup", recording)
    reps = enumerate_two_squares(f)
    (candidates,) = seen
    return candidates, reps


_Q = BinaryForm([1, 0, 1], 2)  # s^2 + t^2
_R = BinaryForm([5, 2, 1], 2)  # s^2 + 2 s t + 5 t^2
_L = BinaryForm([-3, 1], 1)  # s - 3 t


_SWEEP_FORMS = [random_nonneg_binary(d, seed=s) for d in range(1, 8) for s in (0, 1, 2, 41)] + [
    mul(_Q, _Q, _R, _R),
    mul(_L, _L, _Q, _R),
    mul(_Q, _Q, _R),
    mul(_L, _L, _R, _R),
]


@pytest.mark.parametrize("f", _SWEEP_FORMS)
def test_trace_sweep_keeps_what_the_pairwise_scan_keeps(monkeypatch, f):
    candidates, reps = _candidates_and_reps(monkeypatch, f)
    want = _pairwise_dedup(candidates)
    assert len(reps) == len(want)
    assert all(got is kept for got, kept in zip(reps, want))


def _root_product(choice):
    """prod (s - root)^count over (root, count), descending s-coefficients.

    The np.convolve reference for binary_sos._products: one np.convolve
    call a root, in the order of the choice.  The root at infinity is
    skipped: _homogenize supplies its t factors.
    """
    pi = np.array([1.0 + 0.0j])
    for root, count in choice:
        if root == "inf":
            continue
        for _ in range(count):
            pi = np.convolve(pi, np.array([1.0, -root]))
    return pi


def _homogenize(pi, d):
    """Coefficients of s^i t^(d-i), i = 0..d, from descending s-coefficients;
    the slots above the s-degree (a power of t) are zero."""
    coeffs = np.zeros(d + 1, dtype=complex)
    coeffs[: len(pi)] = pi[::-1]
    return coeffs


def _two_squares_choices(rm):
    """Every two-squares choice of (root, count), in itertools.product order
    of the counts a taken from each pair: half of each real root, then a
    copies of each pair's root and m - a of its conjugate."""
    half_real = [(value, mult // 2) for value, mult in rm.real_roots]
    for counts in itertools.product(*(range(mult + 1) for _, mult in rm.pairs)):
        choice = list(half_real)
        for (value, mult), a in zip(rm.pairs, counts):
            choice += [(value, a), (value.conjugate(), mult - a)]
        yield choice


def _square_vectors(rm, choice):
    """(p, q) with p + i q = sqrt|lead| * pi, pi the choice's _root_product."""
    pi = _homogenize(np.sqrt(abs(rm.lead)) * _root_product(choice), rm.degree // 2)
    return np.array([pi.real, pi.imag])


@pytest.mark.parametrize("f", _SWEEP_FORMS)
def test_prefix_tree_products_have_the_bits_of_products_built_from_scratch(monkeypatch, f):
    # The id is older than the one root-product builder: every candidate
    # that enumerate_two_squares dedups has the bits of its choice built
    # alone by np.convolve, in itertools.product order
    candidates, _reps = _candidates_and_reps(monkeypatch, f)
    rm = roots(f)
    choices = list(_two_squares_choices(rm))
    assert len(candidates) == len(choices)
    for rep, choice in zip(candidates, choices):
        assert np.array(rep.vectors).tobytes() == _square_vectors(rm, choice).tobytes()
        assert rep.signs == [1, 1] and rep.basis == rnc_basis(rm.degree // 2)


@pytest.mark.parametrize(
    "f",
    [mul(_Q, _Q, _R, _R), mul(_Q, _Q, _Q, _R), mul(_L, _L, _Q, _R), mul(_L, _L, _R, _R, _R),
     mul(_L, _L, _Q, _Q, _R, _R), mul(_Q, _Q, _Q, _R, _R), random_nonneg_binary(6, seed=5)],
    ids=["QQRR", "QQQR", "LLQR", "LLRRR", "LLQQRR", "QQQRR", "generic"],
)
def test_product_rows_equal_products_built_from_scratch(f):
    rm = roots(f)
    d = rm.degree // 2
    products = binary_sos._products(rm, np.array(list(binary_sos._choices(rm))))
    choices = list(_two_squares_choices(rm))
    assert products.shape == (len(choices), d + 1)
    for row, choice in zip(products, choices):
        want = _homogenize(_root_product(choice), d)
        assert np.array_equal(row, want) and row.tobytes() == want.tobytes()


_T = BinaryForm([1, 0], 1)  # t, a root at infinity


@pytest.mark.parametrize(
    "f",
    [mul(_Q, _Q, BinaryForm([4, 0, 1], 2)), mul(_L, _L, _Q), mul(_T, _T, _R, _Q),
     BinaryForm([3], 0), mul(_T, _T, _L, _L, _Q, _Q, random_nonneg_binary(4, seed=2))],
    ids=["repeated-pair", "double-real", "double-inf", "constant", "generic-all-three"],
)
def test_factor_columns_have_the_bits_of_the_conjugate_choice_built_alone(f):
    # factor's n = 1 route takes the conjugate of every pair, with full
    # multiplicity, and half of each real root, as np.convolve builds it
    rm = roots(f)
    choice = [(value, mult // 2) for value, mult in rm.real_roots]
    choice += [(value.conjugate(), mult) for value, mult in rm.pairs]
    result = factor(SymMatrixPoly([[f]]))
    got = np.array([[complex(c).real for c in col.coeffs] for (col,) in result.columns])
    assert got.tobytes() == _square_vectors(rm, choice).tobytes()
    assert result.info == {"route": "roots"}


@pytest.mark.parametrize("d", range(2, 9))
def test_equivalent_runs_once_per_duplicate(monkeypatch, d):
    # k simple pairs give 2^k choices in conjugate twins: the first of each
    # twin is kept without a call, the second meets it in one call, which
    # reads the Gram matrices _dedup handed over, with gram()'s bits
    calls = []
    real = binary_sos.equivalent

    def counted(rep1, rep2):
        calls.append(1)
        for rep in (rep1, rep2):
            fresh = Representation(rep.basis, rep.vectors, rep.signs).gram()
            assert rep.gram().tobytes() == fresh.tobytes()
        return real(rep1, rep2)

    monkeypatch.setattr(binary_sos, "equivalent", counted)
    for seed in range(3):
        f = random_nonneg_binary(d, seed=seed)
        rm = roots(f)
        assert [m for _, m in rm.pairs] == [1] * d and rm.real_roots == []
        calls.clear()
        assert len(enumerate_two_squares(f)) == 2 ** (d - 1)
        assert len(calls) == 2 ** (d - 1)


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
        f = mul(f, _Q)
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
    return mul(t, s_minus_t, s_minus_t, circle, circle)


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
    vectors, signs = real_class_vectors(rm, report)
    real = [cls for cls in report.classes if cls.kind != "complex"]
    assert len(vectors) == len(real)
    for vecs, s, cls in zip(vectors.tolist(), signs.tolist(), real):
        rep = Representation(rnc_basis(4), vecs, s)
        assert verify_representation(f, rep) < 1e-10
        assert (rep.signs == [1, 1]) == (cls.kind == "psd")
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
    [_nongeneric(), mul(_nongeneric(), _R), mul(_Q, _Q, _R, _R), mul(_L, _L, _Q, _R),
     mul(_Q, _Q, _R), mul(_L, _L, _R, _R), mul(_Q, _Q, _Q), random_nonneg_binary(5, seed=3),
     _nongeneric().scale(-1)],
    ids=["nongeneric", "nongeneric-times-R", "QQRR", "LLQR", "QQR", "LLRR", "QQQ", "generic",
         "negative"],
)
def test_rank_two_classes_are_those_a_seen_set_keeps(f):
    rm = roots(f)
    assert enumerate_rank_two(rm).to_json() == _rank_two_by_seen_set(rm)


def _rank_two_by_product_filter(rm):
    """enumerate_rank_two as a filter of itertools.product: (counts, classes)."""
    d = rm.degree // 2
    entries = rm.entries()
    fixed = len(entries) - 2 * len(rm.pairs)
    conj = list(range(fixed))
    for i in range(fixed, len(entries), 2):
        conj += [i + 1, i]
    mults = [m for _, m in entries]
    classes = []
    counts = {"complex": 0, "real": 0, "psd": 0, "indefinite": 0, "nsd": 0}
    for vec in itertools.product(*(range(m + 1) for m in mults)):
        comp = tuple(m - v for m, v in zip(mults, vec))
        if sum(vec) != d or comp < vec:
            continue
        conj_vec = tuple(vec[conj[i]] for i in range(len(entries)))
        if conj_vec == comp:
            kind = "psd" if rm.lead > 0 else "nsd"
        elif conj_vec == vec:
            kind = "indefinite"
        else:
            kind = "complex"
        side_a = tuple((i, v) for i, v in enumerate(vec) if v)
        side_b = tuple((i, v) for i, v in enumerate(comp) if v)
        classes.append((side_a, side_b, kind))
        counts["complex"] += 1
        if kind != "complex":
            counts["real"] += 1
            counts[kind] += 1
    return counts, classes


def _reduced_cone_forms(degrees=range(3, 7)):
    from minsos.cones import split
    from minsos.sampling import random_positive_form
    from minsos.surfaces import cone_rnc

    out = []
    for d in degrees:
        spec = cone_rnc(d)
        out += [split(random_positive_form(spec, seed=seed), spec)[2] for seed in range(3)]
    return out


@pytest.mark.parametrize(
    "f",
    _reduced_cone_forms() + [
        BinaryForm([3], 0), _Q, mul(_L, _L),
        mul(BinaryForm([-1, 0, 1], 2), BinaryForm([1, -2, 1], 2)), mul(_T, _T, _Q), mul(_T, _L, _Q),
        mul(_Q, _Q, _Q, _R), mul(_Q.scale(-1), _R),
    ],
    ids=["cone%d-seed%d" % (d, seed) for d in range(3, 7) for seed in range(3)] + [
        "constant", "s2+t2", "(s-3t)^2", "(s-t)^2(s^2-t^2)", "inf-double", "inf-simple",
        "pair-cubed", "negative",
    ],
)
def test_rank_two_matches_the_product_filter_class_by_class(f):
    rm = roots(f)
    report = enumerate_rank_two(rm)
    counts, classes = _rank_two_by_product_filter(rm)
    assert list(report.counts.items()) == list(counts.items())
    assert len(report.classes) == len(classes)
    for got, (side_a, side_b, kind) in zip(report.classes, classes):
        assert (got.side_a, got.side_b, got.kind) == (side_a, side_b, kind)
        assert all(type(x) is int for pair in got.side_a + got.side_b for x in pair)


def _class_vectors_one_at_a_time(rm, cls):
    """(vectors, signs) of one real class, each factor built alone by _root_product."""
    d = rm.degree // 2
    entries = rm.entries()

    def side(pairs):
        return [(entries[idx][0], count) for idx, count in pairs]

    if cls.kind in ("psd", "nsd"):
        sign = 1 if cls.kind == "psd" else -1
        return _square_vectors(rm, side(cls.side_a)), [sign] * 2
    u = _homogenize(rm.lead * _root_product(side(cls.side_a)), d)
    v = _homogenize(_root_product(side(cls.side_b)), d)
    return np.array([((u + v) / 2.0).real, ((u - v) / 2.0).real]), [1, -1]


@pytest.mark.parametrize(
    "f",
    _reduced_cone_forms(range(3, 8)) + [
        _nongeneric(), mul(_T, _T, BinaryForm([1, 1, 1], 2), BinaryForm([2, 0, 1], 2)),
        mul(_Q, _Q, BinaryForm([4, 0, 1], 2)), mul(_L, _L, _Q, _Q), mul(_T, _L, _Q),
        mul(BinaryForm([-1, 0, 1], 2), BinaryForm([1, -2, 1], 2)), mul(_Q.scale(-1), _R),
        BinaryForm([3], 0),
        BinaryForm([1, 0, -1, 0, 0], 4),
    ],
    ids=["cone%d-seed%d" % (d, seed) for d in range(3, 8) for seed in range(3)] + [
        "nongeneric", "inf-double", "pair-double", "real-double", "inf-simple",
        "(s-t)^2(s^2-t^2)", "negative", "constant", "negative-inf-double",
    ],
)
def test_real_class_vectors_have_the_bits_of_each_class_built_alone(f):
    # odd d leaves the indefinite block empty; the root at infinity, the
    # repeated roots and the negative lead reach the other branches; in
    # t^2 (t^2 - s^2) the factor u = lead * t * (s - 1) has a t slot that
    # the lead makes -0, and a zero there must still come out as +0
    rm = roots(f)
    report = enumerate_rank_two(rm)
    vectors, signs = real_class_vectors(rm, report)
    real = [cls for cls in report.classes if cls.kind != "complex"]
    assert vectors.shape == (len(real), 2, rm.degree // 2 + 1)
    assert signs.shape == (len(real), 2)
    for got, got_signs, cls in zip(vectors, signs.tolist(), real):
        want, want_signs = _class_vectors_one_at_a_time(rm, cls)
        assert got.tobytes() == want.tobytes()
        assert got_signs == want_signs


def test_rank_two_census_json():
    report = enumerate_rank_two(roots(_fixture()))
    data = report.to_json()
    assert data["counts"]["psd"] == 2
    assert len(data["classes"]) == 3
