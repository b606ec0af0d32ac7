"""Surfaces of minimal degree as combinatorial objects.

Three kinds are supported: rational normal scrolls Scroll(d, e) (from the
trapezoid with vertices (0,0), (0,1), (d,0), (e,1)), the Veronese surface in
P^5, and the cone over a rational normal curve.  The module provides their
monomial bases, genus and degree bookkeeping, the generic counts of rank-3
Gram matrices (expected_counts), discriminants of quadratic forms, and
genericity diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cached_property
from math import comb

import numpy as np

from .biform import RATIONAL, BinaryForm, binary_gcd
from .errors import DegreeMismatch, NotAScroll

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
            pass
        elif self.kind == CONE_RNC:
            if self.d < 2:
                raise DegreeMismatch("cone needs curve degree >= 2, got %d" % self.d)
        else:
            raise DegreeMismatch("unknown surface kind %r" % (self.kind,))

    # -- derived data -----------------------------------------------------

    @property
    def ambient_dim(self):
        if self.kind == SCROLL:
            return self.d + self.e + 1
        if self.kind == VERONESE:
            return 5
        return self.d + 1

    @property
    def dim(self):
        return 2

    @property
    def codim(self):
        return self.ambient_dim - 2

    @property
    def degree(self):
        # minimal degree: deg(X) = codim(X) + 1
        return self.codim + 1

    @property
    def genus(self):
        """Genus of the curve cut by a generic quadratic form (scrolls only)."""
        if self.kind != SCROLL:
            raise NotAScroll("genus formula implemented for scrolls only")
        return self.d + self.e - 1

    @property
    def ruling_heights(self):
        """(d, e) for scrolls, (d, 0) for cones (apex block has height 0)."""
        if self.kind == SCROLL:
            return (self.d, self.e)
        if self.kind == CONE_RNC:
            return (self.d, 0)
        raise NotAScroll("no ruling for the Veronese surface")

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
    row[p].
    """

    monomials: tuple
    index: dict
    a: np.ndarray
    b: np.ndarray
    row: np.ndarray
    mult: np.ndarray


@dataclass(frozen=True)
class MonomialBasis:
    """Ordered list of monomial exponent tuples spanning a graded piece."""

    monomials: tuple
    nvars: int
    var_names: tuple

    @cached_property
    def pair_map(self):
        """The PairMap of this basis, built on first use."""
        a, b = np.triu_indices(len(self.monomials))
        expo = np.array(self.monomials, dtype=np.int64)
        products, row = np.unique(expo[a] + expo[b], axis=0, return_inverse=True)
        monomials = tuple(tuple(m) for m in products.tolist())
        return PairMap(
            monomials=monomials,
            index={m: r for r, m in enumerate(monomials)},
            a=a,
            b=b,
            row=row.reshape(-1),
            mult=np.where(a == b, 1, 2),
        )

    def __len__(self):
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    def __getitem__(self, idx):
        return self.monomials[idx]

    def index(self, monomial):
        return self.monomials.index(tuple(monomial))

    def label(self, idx):
        expo = self.monomials[idx]
        parts = []
        for name, e in zip(self.var_names, expo):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts) if parts else "1"


def _scroll_like_basis(d, e):
    """Basis of R[X]_1 for the trapezoid with heights (d, e); e = 0 for cones.

    The y-block y s^i t^(d-i) for i = 0..d, then the x-block x s^i t^(d-i)
    for i = 0..e (all of bidegree (d, 1)).
    """
    monos = [(i, d - i, 0, 1) for i in range(d + 1)]
    monos += [(i, d - i, 1, 0) for i in range(e + 1)]
    return MonomialBasis(tuple(monos), 4, ("s", "t", "x", "y"))


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
    d, e = spec.ruling_heights
    return _scroll_like_basis(d, e)


def quadratic_form_blocks(f, spec):
    """Split a quadratic form f = a x^2 + 2 b xy + c y^2 on a scroll or cone.

    f is a form over (s, t, x, y) whose every term has bidegree (2d, 2).
    Returns BinaryForms (a, b, c) of degree 2d and checks the divisibility
    pattern: a divisible by t^(2(d-e)) and b by t^(d-e).
    """
    if spec.kind == VERONESE:
        raise NotAScroll("no (x, y) block structure on the Veronese surface")
    if f.nvars != 4:
        raise DegreeMismatch(
            "expected a form in (s, t, x, y), got %d variables" % f.nvars
        )
    d, e = spec.ruling_heights
    deg = 2 * d
    zero = Fraction(0) if f.field == RATIONAL else 0j
    blocks = [[zero] * (deg + 1) for _ in range(3)]  # indexed by the power of x
    for (i, j, k, l), coeff in f.terms.items():
        if min(i, j, k, l) < 0 or i + j != deg or k + l != 2:
            raise DegreeMismatch(
                "term %r violates bidegree (%d, 2)" % ((i, j, k, l), deg)
            )
        blocks[k][i] = coeff
    a = BinaryForm(blocks[2], deg, field=f.field)
    b = BinaryForm([coeff / 2 for coeff in blocks[1]], deg, field=f.field)
    c = BinaryForm(blocks[0], deg, field=f.field)
    gap = d - e
    if a.t_valuation() < 2 * gap:
        raise DegreeMismatch("x^2 coefficient not divisible by t^%d" % (2 * gap))
    if b.t_valuation() < gap:
        raise DegreeMismatch("xy coefficient not divisible by t^%d" % gap)
    return a, b, c


def discriminant(f, spec):
    """Discriminant Delta = b^2 - ac of a quadratic form, normalized.

    The forced factor t^(2(d-e)) is divided out, leaving a binary form of
    degree 2(d+e).  Only the root set matters for the diagnostics; the sign
    convention makes Delta <= 0 on the reals for nonnegative f.
    """
    a, b, c = quadratic_form_blocks(f, spec)
    d, e = spec.ruling_heights
    raw = b * b - a * c
    return raw.divide_t_power(2 * (d - e))


def _squarefree_exact(g):
    """Exact squarefreeness of a rational binary form via gcd of partials."""
    if g.is_zero():
        return False
    gs = g.diff_s()
    gt = BinaryForm(
        [(g.deg - i) * g.coeffs[i] for i in range(g.deg)], g.deg - 1
    )
    if gs.is_zero() or gt.is_zero():
        # happens only for g = c*s^deg or c*t^deg with deg >= 2
        return g.deg <= 1
    return binary_gcd(gs, gt).deg == 0


# relative distance within which numeric roots count as one multiple root
ROOT_CLUSTER_RADIUS = 1e-6


def projective_roots(g, cluster_radius=ROOT_CLUSTER_RADIUS):
    """Numeric projective roots of a binary form with multiplicities.

    Returns a list of (root, multiplicity) where root is a complex number
    (value of s/t) or the string "inf" for the root at infinity.  Roots
    within cluster_radius (relative to the largest root, at least 1) merge
    into one root of higher multiplicity.
    """
    coeffs = [complex(c) for c in g.coeffs]
    out = []
    inf_mult = g.deg - g.s_degree()
    if g.s_degree() < 0:
        raise ValueError("zero form has no root set")
    if inf_mult > 0:
        out.append(("inf", inf_mult))
    poly = coeffs[: g.s_degree() + 1]
    if len(poly) > 1:
        roots = np.roots(poly[::-1])
        scale = max(1.0, max(abs(r) for r in roots))
        used = [False] * len(roots)
        for i, r in enumerate(roots):
            if used[i]:
                continue
            cluster = [r]
            used[i] = True
            for j in range(i + 1, len(roots)):
                if not used[j] and abs(roots[j] - r) <= cluster_radius * scale:
                    cluster.append(roots[j])
                    used[j] = True
            out.append((complex(np.mean(cluster)), len(cluster)))
    return out


def _squarefree_numeric(g):
    if g.is_zero():
        return False
    return all(mult == 1 for _, mult in projective_roots(g))


def binary_squarefree(g):
    """Squarefreeness: exact gcd for rational forms, root clustering otherwise."""
    if g.field == RATIONAL:
        return _squarefree_exact(g)
    return _squarefree_numeric(g)


@dataclass
class GenericityReport:
    """Diagnostics for the genericity of a quadratic form on a surface.

    delta_squarefree is None when the discriminant theory does not apply
    (Veronese surface).  On a scroll the curve V(f) is a double cover of P^1
    branched at the roots of the normalized discriminant, so it is smooth
    exactly when delta_squarefree holds.
    """

    surface: SurfaceSpec
    delta_squarefree: bool | None = None
    notes: list = dataclass_field(default_factory=list)

    @property
    def generic_so_far(self):
        return self.delta_squarefree is not False


def genericity_check(f, spec):
    """Genericity diagnostics for a quadratic form.

    For scrolls and cones: squarefreeness of the normalized discriminant
    (exact gcd in rational mode, roots clustered at ROOT_CLUSTER_RADIUS in
    float mode).  The factor t^(2(d-e)) that b^2 - ac carries on every form
    comes from the ruling heights, not from f, and is left out.
    """
    report = GenericityReport(surface=spec)
    if spec.kind == VERONESE:
        report.notes.append("discriminant diagnostics undefined for the Veronese")
        return report
    try:
        delta = discriminant(f, spec)
    except DegreeMismatch as exc:
        report.notes.append("block structure violated: %s" % exc)
        return report
    if delta.is_zero():
        report.delta_squarefree = False
        report.notes.append("identically zero discriminant (f is a square)")
        return report
    report.delta_squarefree = binary_squarefree(delta)
    return report
