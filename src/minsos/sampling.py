"""Seeded generators for random problem instances.

Every generator derives its randomness from ``numpy.random.SeedSequence`` so
that a given seed always reproduces the same instance, and rejection loops
re-key the sequence with the attempt number instead of consuming a shared
stream, so a rejected attempt leaves the next one's draws as they were.

Dyad matrices and positive binary forms are built on exact integer arrays
(the draws, their convolutions and sums) and wrapped in forms once, at the
end.  The order of the draws within an attempt is part of the contract:
equal seeds give byte-identical JSON, and tests/test_sampling.py pins the
digests of a fixed set of draws.
"""

from fractions import Fraction

import numpy as np

from .biform import BinaryForm, TermPoly, _integer
from .errors import UnsupportedDegree
from .factorization import SymMatrixPoly
from .surfaces import VERONESE, genericity_check, monomial_basis

MAX_ATTEMPTS = 64


def _rng(seed, attempt):
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(attempt)]))


def _at_least(value, least, name):
    """value as an int of at least ``least``; UnsupportedDegree otherwise."""
    try:
        value = _integer(value)
    except ValueError:
        raise UnsupportedDegree("%s %r is not an integer" % (name, value)) from None
    if value < least:
        raise UnsupportedDegree("%s must be at least %d, not %d" % (name, least, value))
    return value


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
        if spec.kind == VERONESE or not genericity_check(form, spec):
            return form
    raise UnsupportedDegree(
        "no generic positive form found for %s after %d attempts" % (spec, MAX_ATTEMPTS)
    )


def random_dyad_matrix(heights, seed=0, ncols=None):
    """Random psd symmetric matrix of binary forms with a known factorization.

    Returns ``(A, columns)`` where ``A = sum c c^T`` over the generated
    dyad columns, each column being a tuple of integer-coefficient binary
    forms of the requested degrees.  ``A`` is therefore psd by construction
    and its diagonal degrees realize ``2 * heights``.  Raises
    UnsupportedDegree unless every height is an integer of at least 0 and
    ``ncols``, when given, one of at least 1.
    """
    heights = tuple(_at_least(h, 0, "height") for h in heights)
    n = len(heights)
    if n < 1:
        raise UnsupportedDegree("need at least one row")
    if ncols is not None:
        ncols = _at_least(ncols, 1, "ncols")
    for attempt in range(MAX_ATTEMPTS):
        rng = _rng(seed, attempt)
        if ncols is None:
            # at least n+1 dyads keeps the form in the interior of the sos
            # cone, so the Gram spectrahedron has a Slater point
            width = int(rng.integers(n + 1, 2 * n + 1))
        else:
            width = ncols
        # one column's rows in turn, then the next column's
        draws = [[rng.integers(-3, 4, size=h + 1) for h in heights] for _ in range(width)]
        # every diagonal entry must reach its full degree 2*h
        if not all(any(c[i][0] for c in draws) and any(c[i][-1] for c in draws) for i in range(n)):
            continue
        entries = {}
        for i in range(n):
            for j in range(i, n):
                # the sum over c of c_i * c_j: each coefficient adds at most
                # (h_i + 1) * width products of draws in [-3, 3], far inside int64
                coeffs = sum(np.convolve(c[i], c[j]) for c in draws)
                entries[(i, j)] = BinaryForm(coeffs.tolist(), heights[i] + heights[j])
        columns = [tuple(BinaryForm(row.tolist(), h) for row, h in zip(c, heights)) for c in draws]
        return SymMatrixPoly.from_upper(n, entries), columns
    raise UnsupportedDegree("failed to draw a full-degree dyad matrix")


def random_nonneg_binary(d, seed=0):
    """Random strictly positive binary form of degree ``2*d``.

    Product of ``d`` pairwise distinct positive-definite quadratics, so the
    roots are ``d`` simple conjugate pairs and the two-squares enumeration
    sees the generic ``2**(d-1)`` count.  Raises UnsupportedDegree unless
    ``d`` is an integer of at least 1.
    """
    d = _at_least(d, 1, "d")
    for attempt in range(MAX_ATTEMPTS):
        rng = _rng(seed, attempt)
        quads = []
        for _ in range(d):
            a = int(rng.integers(-3, 4))
            b = (a * a) // 4 + int(rng.integers(1, 6))
            quads.append((a, b))
        if len(set(quads)) < d:
            continue
        # Python ints: the coefficients grow like 11**d
        coeffs = np.array([1], dtype=object)
        for a, b in quads:
            coeffs = np.convolve(coeffs, np.array([b, a, 1], dtype=object))
        return BinaryForm(coeffs.tolist(), 2 * d)
    raise UnsupportedDegree("failed to draw distinct quadratic factors")


def distinct_seeds(master, count):
    """Derive ``count`` independent child seeds from one master seed."""
    seq = np.random.SeedSequence(int(master))
    return [int(s) for s in seq.generate_state(int(count), np.uint64)]
