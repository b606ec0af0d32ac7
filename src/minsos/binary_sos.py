"""Sums of two squares of binary forms from the conjugate pairs of their roots.

A nonnegative binary form factors as c * R^2 * prod_j (q_j qbar_j)^(mu_j)
with R collecting the real roots (necessarily of even multiplicity) and the
q_j the conjugate-pair factors.  Every representation f = p^2 + q^2 arises
from pi = sqrt(c) * R * (one root chosen from each conjugate pair, counted
with multiplicity) as p = Re pi, q = Im pi; choices are counted modulo
global conjugation.  For 2d simple complex roots this gives 2^(d-1)
inequivalent representations.

The multiplicities are exact, read off the square-free decomposition of
the form (biform.squarefree_parts); only the root values are numeric.
Each part is real, so its non-real roots come out of the real eigen-solver
as exact conjugates, and roots keeps one of each pair.

Every root product, pi above or a factor of a balanced split, comes out
of one builder: _products multiplies out rows of root counts over the
entries of the root multiset, one root slot for all rows at a time, with
the bits of np.convolve (_times_root).  enumerate_two_squares hands it the
count rows of every choice (_choices), in itertools.product order;
factorization's n = 1 route takes the first of them, the conjugate of
every pair; real_class_vectors hands it the two sides of the census's
real classes.  The dedup stacks every Gram matrix once, reads the traces
off that stack and compares its rows, so a Representation is built only
for a kept choice.  The census of balanced splits
(enumerate_rank_two) builds the splits as the rows of one integer array,
in increasing order, and keeps each one that is not larger than its
complement by array compares; its report keeps those arrays.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .biform import BinaryForm, real_root_count, squarefree_parts
from .errors import NotNonnegative
from .gram import EQUIVALENT_TOL, Representation, equivalent, gram_stack
from .surfaces import MonomialBasis

PAIR_TOL = 1e-8  # a root is real when |Im| is at most this, relative to the largest root


def rnc_basis(d):
    """Monomial basis s^i t^(d-i), i = 0..d, of the rational normal curve."""
    return MonomialBasis(
        tuple((i, d - i) for i in range(d + 1)), 2, ("s", "t")
    )


@dataclass
class RootMultiset:
    """Projective roots of a real binary form, conjugate-closed.

    real_roots holds (value, multiplicity) with exactly real values; pairs
    holds one representative (Im > 0) per conjugate pair.  lead is the
    coefficient of the highest s-power; inf_mult the multiplicity of the
    root at infinity.
    """

    degree: int
    lead: float
    inf_mult: int
    real_roots: list
    pairs: list

    def entries(self):
        """Flat conjugate-closed list of (root or "inf", multiplicity)."""
        out = []
        if self.inf_mult:
            out.append(("inf", self.inf_mult))
        for value, mult in self.real_roots:
            out.append((complex(value), mult))
        for value, mult in self.pairs:
            out.append((value, mult))
            out.append((value.conjugate(), mult))
        return out


def _polish_roots(poly, dpoly, r):
    """Newton-polish all roots r of poly together; returns the polished array.

    Each root runs up to four steps and stops on its own: before a step
    where the derivative vanishes, or after a step below 1e-15 of its size.
    """
    r = np.array(r, dtype=np.complex128)
    live = np.arange(len(r))
    for _ in range(4):
        d = np.polyval(dpoly, r[live])
        live, d = live[d != 0], d[d != 0]
        if not live.size:
            break
        step = np.polyval(poly, r[live]) / d
        rl = r[live] - step
        r[live] = rl
        # NaN fails the test and runs on, as a scalar loop would
        live = live[~(np.abs(step) <= 1e-15 * (1.0 + np.abs(rl)))]
    return r


def roots(f):
    """Root multiset of a real binary form, Newton-polished, in conjugate pairs.

    The multiplicities are exact: they come from the square-free
    decomposition of f (biform.squarefree_parts), and each part's roots are
    found by np.roots and Newton-polished on that part, where they are
    simple.  Each part is real, so np.roots runs the real eigen-solver,
    which returns the non-real roots as exact conjugates, and the polish
    keeps them so.  A root with Im = 0 is real, and one with |Im| above
    PAIR_TOL relative to the largest root is not; pairs keeps one of each
    such pair.  When a part has roots with Im in between, near the axis,
    the number of its real roots is counted exactly (real_root_count, by
    Sturm's theorem), and that many, those of smallest |Im|, are real.
    """
    if f.is_zero():
        raise ValueError("the zero form has no root multiset")
    inf_mult, parts = squarefree_parts(f)
    lead = f.coeffs[f.s_degree()].real
    found = []
    for part, mult in parts:
        # lead * part has the coefficients of f when f is square-free
        poly = np.array([float(lead * c) for c in reversed(part.coeffs)])
        polished = _polish_roots(poly, np.polyder(poly), np.roots(poly))
        found.append((part, mult, [complex(r) for r in polished]))
    tol = PAIR_TOL * max([1.0] + [abs(r) for _, _, rs in found for r in rs])
    real_roots, pairs = [], []
    for part, mult, rs in found:
        # the near-axis pairs (Im > 0) beyond the part's real roots stay pairs
        near = sorted((r for r in rs if 0 < r.imag <= tol), key=lambda r: r.imag)
        if near:
            on_axis = sum(r.imag == 0 for r in rs)
            near = near[max((real_root_count(part) - on_axis) // 2, 0):]
        for r in rs:
            if abs(r.imag) <= tol and r not in near and r.conjugate() not in near:
                real_roots.append((complex(r.real), mult))
            elif r.imag > 0:
                pairs.append((r, mult))
    real_roots.sort(key=lambda rm: rm[0].real)
    pairs.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return RootMultiset(
        degree=f.deg,
        lead=float(lead),
        inf_mult=inf_mult,
        real_roots=real_roots,
        pairs=pairs,
    )


def _nonnegative(rm):
    """Whether the form with root multiset rm is nonnegative on R^2.

    Every real root (infinity included) must have even multiplicity; the
    form then has the sign of its leading coefficient away from its roots.
    """
    return (
        rm.lead > 0
        and rm.inf_mult % 2 == 0
        and all(mult % 2 == 0 for _, mult in rm.real_roots)
    )


def _times_root(rows, roots):
    """Each row times (s - its own root), with np.convolve's bits.

    The rows are descending s-coefficients, right-aligned in a fixed width
    whose first slot is zero, and roots holds one root a row.
    np.convolve(row, [1, -root]) forms coefficient k as the complex dot
    product (BLAS zdotu) of (row[k-1], row[k]) with (-root, 1): four real
    sums, each started at 0 and added to in that order, then re = rr - ii
    and im = ri + ir.  This adds the same terms in the same order for all
    rows at once.  The terms with the 1 are exact, so they round alike
    whether or not the dot product fuses its multiply-adds; those with the
    0 would add a zero to a sum that is never -0, and are left out.
    """
    c = -roots[:, None]
    a, b = rows.real, rows.imag
    rr, ii, ri, ir = np.zeros((4,) + rows.shape)
    rr += a * c.real
    ii += b * c.imag
    ri += a * c.imag
    ir += b * c.real
    rr[:, :-1] += a[:, 1:]
    ir[:, :-1] += b[:, 1:]
    out = np.empty(rows.shape, dtype=complex)
    out.real = rr - ii
    out.imag = ri + ir
    return out


def _products(rm, counts):
    """The root product of each row of counts over rm.entries(), as rows.

    Row c multiplies (s - root) counts[c, e] times for each finite entry e,
    in entry order, and t counts[c, e] times for infinity; every row's
    counts sum to d = rm.degree / 2.  Each row's finite roots are packed to
    the left of one array, and _times_root multiplies a root slot for all
    rows at once, leaving a row unchanged past its last root; the slots
    above its s-degree hold the t-powers.  Returns the (C, d + 1) complex
    coefficients of s^i t^(d-i).
    """
    skip = 1 if rm.inf_mult else 0
    values = np.array([root for root, _ in rm.entries()[skip:]] + [0], dtype=complex)
    ks = np.sum(counts[:, skip:], axis=1)
    width = np.max(ks, initial=0)
    # each row's entries repeated by their counts, then the padding 0 up to width
    repeats = np.column_stack([counts[:, skip:], width - ks]).ravel()
    entry = np.repeat(np.tile(np.arange(len(values)), len(counts)), repeats)
    slots = values[entry].reshape(len(counts), width)
    products = np.zeros((len(counts), rm.degree // 2 + 1), dtype=complex)
    products[:, -1] = 1.0
    for j in range(width):
        products = np.where((ks > j)[:, None], _times_root(products, slots[:, j]), products)
    return products[:, ::-1]


def _choices(rm):
    """The two-squares count rows over rm.entries(), in itertools.product order.

    Each row takes half of every real root (infinity included) and, from
    each conjugate pair of multiplicity m, a copies of the root and m - a
    of its conjugate, a = 0..m; the first row takes the conjugate of every
    pair.  Rows are tuples, made one at a time.
    """
    half = (rm.inf_mult // 2,) * bool(rm.inf_mult) + tuple(m // 2 for _, m in rm.real_roots)
    for pick in itertools.product(*([(a, m - a) for a in range(m + 1)] for _, m in rm.pairs)):
        yield half + sum(pick, ())


def rep_forms(rep):
    """The two binary forms (p, q) of a two-squares Representation."""
    d = len(rep.basis) - 1
    return tuple(BinaryForm([float(c) for c in vec], d) for vec in rep.vectors)


# perfbench counts the equivalent calls made here.  This dedup can go once
# perfbench no longer wraps equivalent (ROADMAP directions 0 and 1).
def _dedup(vectors):
    """The indices of the rows of vectors not equivalent to an earlier kept one.

    vectors is an (M, k, n) array, the vectors of M sums of squares (every
    sign +1) over one basis: the scaled real and imaginary parts of the
    rows _products built.  Their Gram matrices are stacked once by
    gram_stack, so each has the bits of gram() on the Representation of
    its row, and equivalent compares rows of that stack.  It bounds
    max |G_a - G_b| by EQUIVALENT_TOL * scale, so the traces of a and b
    differ by at most n * EQUIVALENT_TOL * scale (scale at least 1 and
    every max |G|).  The kept rows are held sorted by trace, and a row is
    compared only with those whose trace lies within twice that bound of
    its own, the factor 2 absorbing the rounding of the traces.
    """
    grams = gram_stack(vectors, np.ones(vectors.shape[:2]))
    traces = np.trace(grams, axis1=1, axis2=2).tolist()
    scale = max(1.0, float(np.max(np.abs(grams))))
    width = 2.0 * vectors.shape[2] * EQUIVALENT_TOL * scale
    kept = []
    by_trace, near = [], []  # traces of the kept rows, sorted; the rows in that order
    for m, trace in enumerate(traces):
        lo = bisect.bisect_left(by_trace, trace - width)
        hi = bisect.bisect_right(by_trace, trace + width)
        if not any(equivalent(grams[m], grams[j]) for j in near[lo:hi]):
            at = bisect.bisect_right(by_trace, trace)
            by_trace.insert(at, trace)
            near.insert(at, m)
            kept.append(m)
    return kept


def enumerate_two_squares(f, rm=None):
    """All inequivalent representations f = p^2 + q^2 of a nonnegative form.

    rm is the root multiset of f as roots(f) gives it, when the caller
    already holds it; it is computed here otherwise.

    Returns Representations over one shared basis s^i t^(d-i) with two
    vectors (p, q) each, deduplicated by the canonical Gram matrix.
    Multiplicities are enumerated exhaustively, so the count is exact for
    simple complex roots (2^(#pairs - 1)) and a complete dedup otherwise.
    The M = prod (m_j + 1) choices (_choices) are multiplied out by
    _products as the rows of one complex array, in itertools.product order
    of the counts.  The dedup keeps the first of each class: each choice's
    Gram matrix meets equivalent only for the kept ones whose trace lies
    within 2 (d + 1) EQUIVALENT_TOL scale of its own (scale = max(1, largest
    |Gram entry|)), a window no equivalent pair can leave, so the dedup
    makes about M calls instead of M^2 / 2.

    Raises NotNonnegative when f is not nonnegative.
    """
    if f.is_zero():
        raise ValueError("the zero form has degenerate representations")
    if rm is None:
        rm = roots(f)
    if not _nonnegative(rm):
        raise NotNonnegative("the form takes negative values")
    choices = np.array(list(_choices(rm)), dtype=np.int64)
    coeffs = np.sqrt(abs(rm.lead)) * _products(rm, choices)
    vectors = np.stack([coeffs.real, coeffs.imag], axis=1)  # (M, 2, d + 1)
    basis = rnc_basis(rm.degree // 2)
    return [Representation(basis, pq, [1, 1]) for pq in vectors[_dedup(vectors)].tolist()]


@dataclass(eq=False)
class RankTwoReport:
    """Census of all rank <= 2 factorizations f = u * v with deg u = deg v.

    Row c of side_a (side_b) counts the roots of each entry in one factor
    (the other), and kind[c] indexes kinds: "complex", "indefinite", then
    "psd" or "nsd".
    """

    counts: dict
    side_a: np.ndarray
    side_b: np.ndarray
    kind: np.ndarray
    kinds: tuple

    def to_json(self):
        sides = zip(_sides(self.side_a), _sides(self.side_b), self.kind.tolist())
        return {
            "counts": dict(self.counts),
            "classes": [
                {"sideA": list(a), "sideB": list(b), "kind": self.kinds[k]}
                for a, b, k in sides
            ],
        }


def enumerate_rank_two(rm):
    """Classify all balanced factor pairs {u, v} of a real binary form f.

    rm is the root multiset of f, as roots(f) gives it; the classes index
    its entries().  Each class corresponds to a rank <= 2 complex Gram
    matrix of f over the rational normal curve basis.  A class is real when
    the unordered pair is conjugation-stable: either they are conjugate (a
    definite Gram, psd for positive leading scale; also when they are equal
    and real, f = u^2) or both are real and distinct (an indefinite Gram).
    For a squarefree form of degree 2d this yields binom(2d, d)/2 classes.

    The splits are the rows of one integer array in increasing order
    (_bounded_vectors); a row is kept when its complement is not smaller,
    and conjugation-stability is read off by comparing whole rows.
    """
    if rm.degree % 2 == 1:
        raise ValueError("balanced splits need even degree")
    entries = rm.entries()
    nent = len(entries)
    # conjugation as a permutation of entry indices: infinity and the real
    # roots are fixed, the two slots of each conjugate pair swap
    fixed = nent - 2 * len(rm.pairs)
    conj = list(range(fixed))
    for i in range(fixed, nent, 2):
        conj += [i + 1, i]
    mults = np.array([m for _, m in entries], dtype=np.int64)
    vecs = _bounded_vectors(mults, rm.degree // 2)
    comps = mults - vecs
    if nent:
        # the split came first as its complement when that is smaller: the
        # first entry where the two differ is larger in the split
        diff = vecs - comps
        first = np.argmax(diff != 0, axis=1)
        keep = diff[np.arange(len(diff)), first] <= 0
        vecs, comps = vecs[keep], comps[keep]
    # conjugate factors, or f = u^2 when they are also real
    stable = np.all(vecs[:, conj] == comps, axis=1)
    # both factors real: a difference of squares
    both_real = ~stable & np.all(vecs[:, conj] == vecs, axis=1)
    kinds = ("complex", "indefinite", "psd" if rm.lead > 0 else "nsd")
    kind = both_real + 2 * stable
    counts = {"complex": len(vecs), "real": 0, "psd": 0, "indefinite": 0, "nsd": 0}
    counts[kinds[2]] = int(np.sum(stable))
    counts["indefinite"] = int(np.sum(both_real))
    counts["real"] = counts[kinds[2]] + counts["indefinite"]
    return RankTwoReport(counts=counts, side_a=vecs, side_b=comps, kind=kind, kinds=kinds)


def real_class_vectors(rm, census):
    """The signed vectors of every real class of a census, stacked.

    rm is the root multiset that the census indexes.  Returns (C, 2, d + 1)
    vectors, the pair (p, q) over s^i t^(d-i) of each real class in census
    order, and their (C, 2) signs.  A conjugate class gives f = p^2 + q^2
    (or its negative, nsd) with p + i q = sqrt|lead| * pi_a; a both-real
    class gives f = ((u+v)/2)^2 - ((u-v)/2)^2 with u = lead * pi_a and
    v = pi_b, pi the root products of the two factors, all multiplied out
    by one _products call over the census sides.
    """
    d = rm.degree // 2
    real = census.kind > 0
    conj = census.kind[real] == 2
    side_a, side_b = census.side_a[real], census.side_b[real]
    products = _products(rm, np.concatenate([side_a[conj], side_a[~conj], side_b[~conj]]))
    npsd = int(np.sum(conj))
    pi, (u, v) = np.sqrt(abs(rm.lead)) * products[:npsd], np.split(products[npsd:], 2)
    u = rm.lead * u
    vectors = np.zeros((len(conj), 2, d + 1))
    vectors[conj] = np.stack([pi.real, pi.imag], axis=1)
    vectors[~conj] = np.stack([((u + v) / 2.0).real, ((u - v) / 2.0).real], axis=1)
    signs = np.ones((len(conj), 2), dtype=np.int64)
    signs[conj] = 1 if rm.lead > 0 else -1
    signs[~conj, 1] = -1
    return vectors, signs


def _bounded_vectors(bounds, total):
    """All integer vectors 0 <= v_i <= bounds_i with sum(v) = total, as rows.

    The rows are built one entry at a time: each prefix is extended by the
    values that keep its sum within total and can still reach it with the
    bounds that follow.  np.nonzero walks the prefixes in order and the
    values upward, so the rows come in increasing (lexicographic) order, and
    of a split and its complement the smaller one comes first.
    """
    vecs = np.zeros((1, 0), dtype=np.int64)
    sums = np.zeros(1, dtype=np.int64)
    rest = int(np.sum(bounds))
    for b in bounds:
        rest -= b  # what the entries after this one can still add
        grown = sums[:, None] + np.arange(b + 1)
        rows, values = np.nonzero((grown <= total) & (grown + rest >= total))
        vecs = np.column_stack([vecs[rows], values])
        sums = grown[rows, values]
    return vecs[sums == total]


def _sides(vecs):
    """Each row of a count array as the tuple of its (entry index, count) with count > 0."""
    rows, cols = np.nonzero(vecs)
    pairs = list(zip(cols.tolist(), vecs[rows, cols].tolist()))
    ends = np.cumsum(np.count_nonzero(vecs, axis=1)).tolist()
    return [tuple(pairs[lo:hi]) for lo, hi in zip([0] + ends, ends)]
