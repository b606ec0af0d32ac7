"""Seeded generators for random problem instances.

Every generator derives its randomness from ``numpy.random.SeedSequence`` so
that a given seed always reproduces the same instance, and rejection loops
re-key the sequence with the attempt number instead of consuming a shared
stream.  That keeps instances stable even if the internal draw order changes.
"""

from fractions import Fraction

import numpy as np

from .biform import BinaryForm, TermPoly
from .errors import UnsupportedDegree
from .factorization import SymMatrixPoly
from .surfaces import VERONESE, genericity_check, monomial_basis, quadratic_form_blocks

MAX_ATTEMPTS = 64
# curve_samples walks s over [-CURVE_RADIUS, CURVE_RADIUS] in CURVE_POINTS steps
CURVE_RADIUS = 3.0
CURVE_POINTS = 400


def _rng(seed, attempt):
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(attempt)]))


def _square_terms(terms, monos, vec):
    # accumulate (sum_i vec[i] * monos[i])^2 into the term dict
    for i, ei in enumerate(monos):
        for j, ej in enumerate(monos):
            coeff = int(vec[i]) * int(vec[j])
            if coeff == 0:
                continue
            key = tuple(a + b for a, b in zip(ei, ej))
            terms[key] = terms.get(key, 0) + coeff


def random_positive_form(spec, seed=0):
    """Random strictly positive quadratic form on the surface ``spec``.

    Built as a sum of three squares of random small-integer linear forms in
    the basis monomials plus a random positive-rational multiple of each
    squared basis monomial, which pushes the form into the interior of the
    psd cone.  Draws that fail the genericity screen are rejected and the
    seed is re-keyed, so the returned instance is generic for enumeration
    whenever the screen can certify that.
    """
    basis = monomial_basis(spec)
    monos = list(basis.monomials)
    n = len(monos)
    for attempt in range(MAX_ATTEMPTS):
        rng = _rng(seed, attempt)
        terms = {}
        for _ in range(3):
            vec = rng.integers(-3, 4, size=n)
            _square_terms(terms, monos, vec)
        weights = rng.integers(1, 6, size=n)
        for i, mono in enumerate(monos):
            key = tuple(2 * e for e in mono)
            terms[key] = terms.get(key, 0) + Fraction(int(weights[i]), 8)
        form = TermPoly(basis.nvars, terms)
        if spec.kind == VERONESE or genericity_check(form, spec).generic_so_far:
            return form
    raise UnsupportedDegree(
        "no generic positive form found for %s after %d attempts" % (spec, MAX_ATTEMPTS)
    )


def random_dyad_matrix(heights, seed=0, ncols=None):
    """Random psd symmetric matrix of binary forms with a known factorization.

    Returns ``(A, columns)`` where ``A = sum c c^T`` over the generated
    dyad columns, each column being a tuple of integer-coefficient binary
    forms of the requested degrees.  ``A`` is therefore psd by construction
    and its diagonal degrees realize ``2 * heights``.
    """
    heights = tuple(int(h) for h in heights)
    n = len(heights)
    if n < 1:
        raise UnsupportedDegree("need at least one row")
    for attempt in range(MAX_ATTEMPTS):
        rng = _rng(seed, attempt)
        if ncols is None:
            # at least n+1 dyads keeps the form in the interior of the sos
            # cone, so the Gram spectrahedron has a Slater point
            width = int(rng.integers(n + 1, 2 * n + 1))
        else:
            width = int(ncols)
        columns = []
        for _ in range(width):
            col = tuple(
                BinaryForm([int(c) for c in rng.integers(-3, 4, size=h + 1)], h)
                for h in heights
            )
            columns.append(col)
        # every diagonal entry must reach its full degree 2*h
        ok = True
        for i, h in enumerate(heights):
            lead_sq = sum(col[i].coeffs[h] ** 2 for col in columns)
            const_sq = sum(col[i].coeffs[0] ** 2 for col in columns)
            if lead_sq == 0 or const_sq == 0:
                ok = False
                break
        if not ok:
            continue
        entries = {}
        for i in range(n):
            for j in range(i, n):
                acc = BinaryForm.zero(heights[i] + heights[j])
                for col in columns:
                    acc = acc + col[i] * col[j]
                entries[(i, j)] = acc
        return SymMatrixPoly.from_upper(n, entries), columns
    raise UnsupportedDegree("failed to draw a full-degree dyad matrix")


def random_nonneg_binary(d, seed=0):
    """Random strictly positive binary form of degree ``2*d``.

    Product of ``d`` pairwise distinct positive-definite quadratics, so the
    roots are ``d`` simple conjugate pairs and the two-squares enumeration
    sees the generic ``2**(d-1)`` count.
    """
    d = int(d)
    if d < 1:
        raise UnsupportedDegree("degree must be at least 2")
    for attempt in range(MAX_ATTEMPTS):
        rng = _rng(seed, attempt)
        quads = []
        for _ in range(d):
            a = int(rng.integers(-3, 4))
            b = (a * a) // 4 + int(rng.integers(1, 6))
            quads.append((a, b))
        if len(set(quads)) < d:
            continue
        f = BinaryForm([1], 0)
        for a, b in quads:
            f = f * BinaryForm([b, a, 1], 2)
        return f
    raise UnsupportedDegree("failed to draw distinct quadratic factors")


def curve_samples(f, spec):
    """Sample real points of the zero set of a form on a scroll or cone.

    Dehomogenizes at ``t = y = 1`` and, for each of ``CURVE_POINTS`` evenly
    spaced samples of the ruling coordinate ``s`` in
    ``[-CURVE_RADIUS, CURVE_RADIUS]``, solves the resulting real quadratic
    in the fiber coordinate.
    Yields ``(s, branch, x)`` rows; branches without real solutions are
    skipped.
    """
    a_form, b_form, c_form = quadratic_form_blocks(f, spec)
    rows = []
    for s in np.linspace(-CURVE_RADIUS, CURVE_RADIUS, CURVE_POINTS):
        sc = complex(s)
        a = complex(a_form.eval(sc, 1.0))
        b = complex(b_form.eval(sc, 1.0))
        c = complex(c_form.eval(sc, 1.0))
        if abs(a.imag) + abs(b.imag) + abs(c.imag) > 1e-12:
            continue
        a, b, c = a.real, b.real, c.real
        if abs(a) < 1e-14:
            if abs(b) > 1e-14:
                rows.append((float(s), 0, -c / (2 * b)))
            continue
        disc = b * b - a * c
        if disc < 0:
            continue
        root = disc**0.5
        rows.append((float(s), 0, (-b - root) / a))
        rows.append((float(s), 1, (-b + root) / a))
    return rows


def distinct_seeds(master, count):
    """Derive ``count`` independent child seeds from one master seed."""
    seq = np.random.SeedSequence(int(master))
    return [int(s) for s in seq.generate_state(int(count), np.uint64)]
