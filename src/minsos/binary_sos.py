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

enumerate_two_squares builds the products pi of all choices as a prefix
tree, one conjugate pair a level, and its dedup reads every Gram trace off
one stacked array.  The census of balanced splits (enumerate_rank_two)
walks the splits in increasing order and keeps each one that is not larger
than its complement.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .biform import BinaryForm, real_root_count, squarefree_parts
from .errors import NotNonnegative
from .gram import EQUIVALENT_TOL, Representation, equivalent
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


def _homogenize(poly_desc, deg):
    """Coefficients of s^i t^(deg-i), i = 0..deg, from descending s-poly
    coefficients; the slots above the s-degree (a power of t) are zero."""
    coeffs = np.zeros(deg + 1, dtype=complex)
    coeffs[: len(poly_desc)] = poly_desc[::-1]
    return coeffs


def _representation_from_pq(p_coeffs, q_coeffs, d, signs=(1, 1)):
    basis = rnc_basis(d)
    vectors = [
        [float(c) for c in p_coeffs],
        [float(c) for c in q_coeffs],
    ]
    return Representation(basis=basis, vectors=vectors, signs=list(signs), exact=False)


def _root_product(choice, pi=None):
    """pi * prod (s - root)^count over (root, count), descending s-coefficients.

    pi, the product of a prefix of the choice, defaults to 1; extending it
    runs the np.convolve calls that the whole choice would run after that
    prefix, so the bits do not depend on where the product was split.  The
    root at infinity is skipped: homogenization supplies its t factors.
    """
    if pi is None:
        pi = np.array([1.0 + 0.0j])
    for root, count in choice:
        if root == "inf":
            continue
        for _ in range(count):
            pi = np.convolve(pi, np.array([1.0, -root]))
    return pi


def _product_rep(rm, pi, sign=1):
    """The representation sign * (p^2 + q^2) with p + i q = sqrt|lead| * pi.

    pi is a root product (descending s-coefficients) that takes half of
    every real root and, from each conjugate pair, counts summing to the
    pair's multiplicity, so that |lead| * pi * conj(pi) = |f|.
    """
    d = rm.degree // 2
    # t^(inf_mult/2) fills the top slots
    coeffs = _homogenize(np.sqrt(abs(rm.lead)) * pi, d)
    return _representation_from_pq(coeffs.real, coeffs.imag, d, signs=(sign, sign))


def _conjugate_choice_rep(rm, choice, sign=1):
    """_product_rep of the root product of a choice of (root, count)."""
    return _product_rep(rm, _root_product(choice), sign)


def rep_forms(rep):
    """The two binary forms (p, q) of a two-squares Representation."""
    d = len(rep.basis) - 1
    return tuple(BinaryForm([float(c) for c in vec], d) for vec in rep.vectors)


# perfbench counts the equivalent calls made here.  This dedup can go once
# perfbench no longer wraps equivalent (ROADMAP directions 0 and 1).
def _dedup(reps):
    """The reps not equivalent to an earlier kept rep, in their order.

    The reps share one basis and one number of squares.  equivalent(a, b)
    bounds max |G_a - G_b| by EQUIVALENT_TOL * scale, so the traces of a and
    b differ by at most n * EQUIVALENT_TOL * scale (n the basis size, scale
    at least 1 and every max |G|).  The kept reps are held sorted by trace,
    and a rep is compared only with those whose trace lies within twice
    that bound of its own, the factor 2 absorbing the rounding of the
    traces.  The traces and the scale are read off one stacked (M, n, n)
    array of the Gram matrices, summed elementwise as Representation.gram
    sums them, so they carry gram()'s bits.
    """
    vectors = np.array([rep.vectors for rep in reps], dtype=float)  # (M, k, n)
    signs = np.array([rep.signs for rep in reps], dtype=float)  # (M, k)
    grams = np.zeros((len(reps),) + vectors.shape[2:] * 2)
    for v, sign in zip(vectors.transpose(1, 0, 2), signs.T):
        grams += sign[:, None, None] * v[:, :, None] * v[:, None, :]
    traces = np.trace(grams, axis1=1, axis2=2).tolist()
    scale = max(1.0, float(np.max(np.abs(grams))))
    width = 2.0 * vectors.shape[2] * EQUIVALENT_TOL * scale
    kept = []
    by_trace, near = [], []  # traces of the kept reps, sorted; the reps in that order
    for rep, trace in zip(reps, traces):
        lo = bisect.bisect_left(by_trace, trace - width)
        hi = bisect.bisect_right(by_trace, trace + width)
        if not any(equivalent(rep, other) for other in near[lo:hi]):
            at = bisect.bisect_right(by_trace, trace)
            by_trace.insert(at, trace)
            near.insert(at, rep)
            kept.append(rep)
    return kept


def enumerate_two_squares(f, rm=None):
    """All inequivalent representations f = p^2 + q^2 of a nonnegative form.

    rm is the root multiset of f as roots(f) gives it, when the caller
    already holds it; it is computed here otherwise.

    Returns Representations over the basis s^i t^(d-i) with two vectors
    (p, q) each, deduplicated by the canonical Gram matrix.  Multiplicities
    are enumerated exhaustively, so the count is exact for simple complex
    roots (2^(#pairs - 1)) and a complete dedup otherwise.  The M =
    prod (m_j + 1) root products are built as a prefix tree, one pair a
    level, in itertools.product order of the counts: each product extends
    its parent's by the m_j roots of one pair, so simple pairs cost about 2M
    np.convolve calls in all instead of M * #pairs, and each product has
    the bits of one built from scratch.  The
    dedup keeps the first of each class: each choice meets equivalent only
    for the kept reps whose Gram trace lies within 2 (d + 1) EQUIVALENT_TOL
    scale of its own (scale = max(1, largest |Gram entry|)), a window no
    equivalent pair can leave, so the dedup makes about M calls instead of
    M^2 / 2.

    Raises NotNonnegative when f is not nonnegative.
    """
    if f.is_zero():
        raise ValueError("the zero form has degenerate representations")
    if rm is None:
        rm = roots(f)
    if not _nonnegative(rm):
        raise NotNonnegative("the form takes negative values")
    products = [_root_product([(value, mult // 2) for value, mult in rm.real_roots])]
    for value, mult in rm.pairs:
        products = [
            _root_product([(value, a), (value.conjugate(), mult - a)], pi)
            for pi in products
            for a in range(mult + 1)
        ]
    return _dedup([_product_rep(rm, pi) for pi in products])


@dataclass
class PairingClass:
    """One unordered balanced split of the root multiset into two factors."""

    side_a: tuple  # (entry index, count) pairs
    side_b: tuple
    kind: str  # "psd", "indefinite", "nsd", or "complex"


@dataclass
class RankTwoReport:
    """Census of all rank <= 2 factorizations f = u * v with deg u = deg v."""

    counts: dict
    classes: list

    def to_json(self):
        return {
            "counts": dict(self.counts),
            "classes": [
                {"sideA": list(c.side_a), "sideB": list(c.side_b), "kind": c.kind}
                for c in self.classes
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
    """
    if rm.degree % 2 == 1:
        raise ValueError("balanced splits need even degree")
    d = rm.degree // 2
    entries = rm.entries()
    nent = len(entries)
    # conjugation as a permutation of entry indices: infinity and the real
    # roots are fixed, the two slots of each conjugate pair swap
    fixed = nent - 2 * len(rm.pairs)
    conj = list(range(fixed))
    for i in range(fixed, nent, 2):
        conj += [i + 1, i]
    mults = [m for _, m in entries]
    classes = []
    counts = {"complex": 0, "real": 0, "psd": 0, "indefinite": 0, "nsd": 0}
    for vec in _bounded_vectors(mults, d):
        comp = tuple(m - v for m, v in zip(mults, vec))
        if comp < vec:
            continue  # the split came first as comp, and was kept there
        conj_vec = tuple(vec[conj[i]] for i in range(nent))
        if conj_vec == comp:
            # conjugate factors, or f = u^2 when they are also real
            kind = "psd" if rm.lead > 0 else "nsd"
        elif conj_vec == vec:
            # both factors real: a difference of squares
            kind = "indefinite"
        else:
            kind = "complex"
        side_a = tuple((i, v) for i, v in enumerate(vec) if v)
        side_b = tuple((i, v) for i, v in enumerate(comp) if v)
        classes.append(PairingClass(side_a=side_a, side_b=side_b, kind=kind))
        counts["complex"] += 1
        if kind != "complex":
            counts["real"] += 1
            counts[kind] += 1
    return RankTwoReport(counts=counts, classes=classes)


def class_representation(rm, cls):
    """Signed rank <= 2 representation realizing a real pairing class.

    rm is the root multiset that the class indexes.  Conjugate classes give
    f = p^2 + q^2 (or the negative for nsd); both-real classes give the
    difference of squares f = ((u+v)/2)^2 - ((u-v)/2)^2 built from the two
    real factors u, v.
    """
    if cls.kind == "complex":
        raise ValueError("only conjugation-stable classes have real Gram points")
    entries = rm.entries()

    def side(pairs):
        return [(entries[idx][0], count) for idx, count in pairs]

    if cls.kind in ("psd", "nsd"):
        sign = 1 if cls.kind == "psd" else -1
        return _conjugate_choice_rep(rm, side(cls.side_a), sign)
    d = rm.degree // 2
    u = _homogenize(rm.lead * _root_product(side(cls.side_a)), d)
    v = _homogenize(_root_product(side(cls.side_b)), d)
    p, q = ((u + v) / 2.0).real, ((u - v) / 2.0).real
    return _representation_from_pq(p, q, d, signs=(1, -1))


def _bounded_vectors(bounds, total):
    """All integer vectors 0 <= v_i <= bounds_i with sum(v) = total.

    They come in increasing (lexicographic) order, so of a split and its
    complement the smaller one comes first.
    """
    ranges = [range(b + 1) for b in bounds]
    return (v for v in itertools.product(*ranges) if sum(v) == total)
