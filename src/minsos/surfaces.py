"""Surfaces of minimal degree as combinatorial objects.

Three kinds are supported: rational normal scrolls Scroll(d, e) (from the
trapezoid with vertices (0,0), (0,1), (d,0), (e,1)), the Veronese surface in
P^5, and the cone over a rational normal curve.  The module provides their
monomial bases, the genus of a scroll, the generic counts of rank-3 Gram
matrices (expected_counts), and genericity diagnostics.

Scrolls and cones are prisms: Scroll(d, e) is the prism (d, e) and the cone
over the degree-d curve the prism (d, 0).  PrismSpec owns their layout, the
one monomial basis, the one map between a quadratic form and its symmetric
matrix of binary forms (which factorization shares) and, for two blocks,
the one exact det M of that matrix, whose roots are the branch points of
the curve f = 0 over P^1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, lcm

import numpy as np

from .biform import BinaryForm, TermPoly, squarefree_parts
from .errors import DegreeMismatch, DimensionMismatch, NotAScroll

SCROLL = "scroll"
VERONESE = "veronese"
CONE_RNC = "cone_rnc"


@dataclass(frozen=True)
class SurfaceSpec:
    """A surface of minimal degree, identified combinatorially."""

    kind: str
    d: int = 0
    e: int = 0

    def __post_init__(self):
        if self.kind == SCROLL:
            if not (self.d >= self.e >= 1):
                raise DegreeMismatch(
                    "scroll needs d >= e >= 1, got (%d, %d)" % (self.d, self.e)
                )
        elif self.kind == VERONESE:
            if self.d or self.e:
                raise DegreeMismatch(
                    "the Veronese surface has no heights, got (%d, %d)" % (self.d, self.e)
                )
        elif self.kind == CONE_RNC:
            if self.d < 2:
                raise DegreeMismatch("cone needs curve degree >= 2, got %d" % self.d)
            if self.e:
                raise DegreeMismatch("a cone has one height, got (%d, %d)" % (self.d, self.e))
        else:
            raise DegreeMismatch("unknown surface kind %r" % (self.kind,))

    # -- derived data -----------------------------------------------------

    @property
    def genus(self):
        """Genus of the curve cut by a generic quadratic form (scrolls only)."""
        if self.kind != SCROLL:
            raise NotAScroll("genus formula implemented for scrolls only")
        return self.d + self.e - 1

    @property
    def prism(self):
        """The prism (d, e) of a scroll, or (d, 0) of a cone (its apex block)."""
        if self.kind == VERONESE:
            raise NotAScroll("no ruling for the Veronese surface")
        return PrismSpec((self.d, self.e))

    def __str__(self):
        if self.kind == SCROLL:
            return "scroll(%d,%d)" % (self.d, self.e)
        if self.kind == VERONESE:
            return "veronese"
        return "cone_rnc(%d)" % self.d

    def to_json(self):
        if self.kind == SCROLL:
            return {"kind": SCROLL, "d": self.d, "e": self.e}
        if self.kind == VERONESE:
            return {"kind": VERONESE}
        return {"kind": CONE_RNC, "d": self.d}


def scroll(d, e):
    return SurfaceSpec(SCROLL, d, e)


def veronese():
    return SurfaceSpec(VERONESE)


def cone_rnc(d):
    return SurfaceSpec(CONE_RNC, d)


def expected_counts(surface):
    """Generic solution counts by surface kind, or None when unknown.

    Smooth scrolls: 4^g complex rank-3 points, 2^g of them psd, and 2^g
    more indefinite exactly when g is odd.  Cones over the degree-d rational
    normal curve: counts of balanced factor pairs of the reduced binary
    form (all pairings, conjugation-stable pairings, conjugate pairings).
    Veronese surface: the classical 63 / 15 / 8.
    """
    if surface is None:
        return None
    if surface.kind == SCROLL:
        g = surface.genus
        psd = 2**g
        indefinite = 2**g if g % 2 == 1 else 0
        return {
            "complex": 4**g,
            "real": psd + indefinite,
            "psd": psd,
            "indefinite": indefinite,
        }
    if surface.kind == CONE_RNC:
        d = surface.d
        psd = 2 ** (d - 1)
        both_real = comb(d, d // 2) // 2 if d % 2 == 0 else 0
        return {
            "complex": comb(2 * d, d) // 2,
            "real": psd + both_real,
            "psd": psd,
            "indefinite": both_real,
        }
    if surface.kind == VERONESE:
        return {"complex": 63, "real": 15, "psd": 8, "indefinite": 7}
    return None


def count_warning(surface, observed):
    """The non-generic-form warning when fewer than the generic number of
    complex rank-3 points were found, or None."""
    expected = expected_counts(surface)
    if expected is None or observed >= expected["complex"]:
        return None
    return "non-generic form: %d rank-3 Gram matrices found, expected %d" % (
        observed,
        expected["complex"],
    )


@dataclass(frozen=True)
class PairMap:
    """The products m_a * m_b, a <= b, of a basis as rows over 2P.

    monomials lists the distinct products in sorted order (the monomials of
    the doubled polytope 2P) and index inverts it.  Pair p is (a[p], b[p])
    in np.triu_indices order; its product is monomials[row[p]], and mult[p]
    (1 on the diagonal, 2 off it) counts G[a, b] and G[b, a] together, so the
    coefficients of m^T G m are sum over p of mult[p] * G[a[p], b[p]] at
    row[p].  Every basis that lists the same monomials shares one PairMap
    (MonomialBasis.pair_map), so its arrays are read-only.
    """

    monomials: tuple
    index: dict
    a: np.ndarray
    b: np.ndarray
    row: np.ndarray
    mult: np.ndarray

    def coefficients(self, G):
        """The coefficients of m^T G m over monomials, for a float array G."""
        return np.bincount(
            self.row, weights=self.mult * G[self.a, self.b], minlength=len(self.monomials)
        )


@cache
def _pair_map(monomials):
    """The PairMap of a tuple of monomials, built once; its arrays are read-only."""
    a, b = np.triu_indices(len(monomials))
    expo = np.array(monomials, dtype=np.int64)
    products, row = np.unique(expo[a] + expo[b], axis=0, return_inverse=True)
    products = tuple(tuple(m) for m in products.tolist())
    pairs = PairMap(
        monomials=products,
        index={m: r for r, m in enumerate(products)},
        a=a,
        b=b,
        row=row.reshape(-1),
        mult=np.where(a == b, 1, 2),
    )
    for array in (pairs.a, pairs.b, pairs.row, pairs.mult):
        array.flags.writeable = False
    return pairs


@dataclass(frozen=True)
class MonomialBasis:
    """Ordered list of monomial exponent tuples spanning a graded piece."""

    monomials: tuple
    nvars: int
    var_names: tuple

    @property
    def pair_map(self):
        """The PairMap of this basis's monomials, one for every basis that lists them."""
        return _pair_map(self.monomials)

    def __len__(self):
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    def label(self, idx):
        expo = self.monomials[idx]
        parts = []
        for name, e in zip(self.var_names, expo):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class PrismSpec:
    """Truncated prism over the standard (n-1)-simplex with heights d_1..d_n.

    A quadratic form on it is f = sum a_ij X_i X_j, a symmetric n x n matrix
    of binary forms with deg a_ij = d_i + d_j.  Forms live over (s, t, X_n,
    .., X_1): block i sits on variable 2 + (n - 1 - i), so for n = 2 the
    variables are (s, t, x, y) with y the block of height d_1.  A power of t
    lifts every block to the common (s, t)-degree top = max d_i, and the
    matrix [[c, b], [b, a]] of f = a x^2 + 2 b xy + c y^2 is free of it.
    """

    heights: tuple

    def __post_init__(self):
        if len(self.heights) < 2:
            raise DimensionMismatch("a prism needs at least two heights")
        if any(d < 0 for d in self.heights):
            raise DimensionMismatch("negative prism height")

    @property
    def n(self):
        return len(self.heights)

    @property
    def top(self):
        return max(self.heights)

    @property
    def target_rank(self):
        return self.n + 1

    def basis(self):
        """Degree-one monomials X_i s^j t^(top - j), j <= d_i, block by block."""
        monos = []
        for i, d in enumerate(self.heights):
            for j in range(d + 1):
                expo = [j, self.top - j] + [0] * self.n
                expo[-1 - i] = 1
                monos.append(tuple(expo))
        blocks = ("y", "x") if self.n == 2 else ["x%d" % (i + 1) for i in range(self.n)]
        return MonomialBasis(tuple(monos), self.n + 2, ("s", "t", *blocks[::-1]))

    def form(self, entries):
        """The TermPoly f = sum a_ij X_i X_j of the entries {(i, j): a_ij}, i <= j.

        Zero entries are skipped; every other a_ij must have degree d_i + d_j.
        """
        terms = {}
        for (i, j), entry in entries.items():
            if entry.is_zero():
                continue
            if entry.deg != self.heights[i] + self.heights[j]:
                raise DegreeMismatch(
                    "entry (%d,%d) has degree %d, expected %d"
                    % (i, j, entry.deg, self.heights[i] + self.heights[j])
                )
            for p, coeff in enumerate(entry.coeffs):
                expo = [p, 2 * self.top - p] + [0] * self.n
                expo[-1 - i] += 1
                expo[-1 - j] += 1
                terms[tuple(expo)] = coeff if i == j else 2 * coeff
        return TermPoly(self.n + 2, terms)

    def matrix(self, f):
        """The entries {(i, j): a_ij}, i <= j, of a form f; the inverse of form.

        Raises DegreeMismatch unless every term of f has bidegree (2 top, 2)
        and carries the t-power that lifts its entry to that degree.
        """
        if f.nvars != self.n + 2:
            raise DegreeMismatch("expected %d variables, got %d" % (self.n + 2, f.nvars))
        coeffs = {
            (i, j): [Fraction(0)] * (self.heights[i] + self.heights[j] + 1)
            for i in range(self.n)
            for j in range(i, self.n)
        }
        for expo, coeff in f.terms.items():
            if min(expo) < 0 or expo[0] + expo[1] != 2 * self.top or sum(expo[2:]) != 2:
                raise DegreeMismatch("term %r violates bidegree (%d, 2)" % (expo, 2 * self.top))
            i, j = [k for k, e in enumerate(expo[:1:-1]) for _ in range(e)]
            if expo[0] >= len(coeffs[i, j]):
                raise DegreeMismatch("term %r lacks the t-power of its block" % (expo,))
            coeffs[i, j][expo[0]] = coeff if i == j else coeff / 2
        return {key: BinaryForm(c) for key, c in coeffs.items()}

    def det(self, M):
        """det M = a c - b^2 of the matrix M = [[c, b], [b, a]] of a form, n = 2.

        M is what matrix returns; det M is an exact binary form of degree
        2 (d_1 + d_2).  The product runs over the integers: M times the
        common denominator of its entries, then one convolution pair.
        """
        if self.n != 2:
            raise DimensionMismatch("det M is defined for two blocks, not %d" % self.n)
        den = lcm(*(x.denominator for form in M.values() for x in form.coeffs))
        c, b, a = (
            np.array([x.numerator * (den // x.denominator) for x in M[key].coeffs], dtype=object)
            for key in ((0, 0), (0, 1), (1, 1))
        )
        scale = den * den
        return BinaryForm([Fraction(x, scale) for x in np.convolve(c, a) - np.convolve(b, b)])


def _veronese_basis():
    """Ternary monomials of degree two in (u, v, w), reverse-lex order."""
    monos = []
    for a in range(2, -1, -1):
        for b in range(2 - a, -1, -1):
            monos.append((a, b, 2 - a - b))
    return MonomialBasis(tuple(monos), 3, ("u", "v", "w"))


def monomial_basis(spec):
    """Monomial basis of R[X]_1; its pair_map lists the monomials of R[X]_2."""
    if spec.kind == VERONESE:
        return _veronese_basis()
    return spec.prism.basis()


def genericity_check(f, spec):
    """The genericity notes of a quadratic form on a surface; none when generic.

    On a scroll or cone the curve V(f) is a double cover of P^1 branched at
    the roots of det M, M the prism matrix of f, so it is smooth exactly
    when det M has no repeated root, which its exact square-free
    decomposition decides.  M is free of the t-powers that lift the blocks
    of f to one (s, t)-degree, so they never enter det M.  The Veronese
    surface has no det M and always gets a note.  The notes call -det M by
    its older name, the discriminant.
    """
    if spec.kind == VERONESE:
        return ["discriminant diagnostics undefined for the Veronese"]
    prism = spec.prism
    det = prism.det(prism.matrix(f))
    if det.is_zero():
        return ["discriminant is not squarefree", "identically zero discriminant (f is a square)"]
    inf_mult, parts = squarefree_parts(det)
    if inf_mult > 1 or any(k > 1 for _, k in parts):
        return ["discriminant is not squarefree"]
    return []
