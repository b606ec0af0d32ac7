"""Apex reduction for quadratic forms on the cone over a rational normal curve.

Writing f = a * apex^2 + 2 * apex * b + c with a scalar and b, c pulled back
from the base curve, f is the prism matrix M = [[c, b], [b, a]] and the
Schur complement g = c - b^2/a = det M / a is a quadratic form on the base.
Every representation of g lifts to one of f by prepending the square
(sqrt(a) * apex + b/sqrt(a))^2.  The lift raises the rank by exactly one and
preserves reality and positive semidefiniteness, so rank-3 points on the
cone are enumerated through rank-2 points on the curve: all the real
classes at once, as the rows of arrays, each with the bits of one class.
"""

from __future__ import annotations

import numpy as np

from . import enumerator
from .binary_sos import enumerate_rank_two, real_class_vectors, roots as binary_roots
from .errors import ApexCoefficientNotPositive, DimensionMismatch, NotAScroll
from .gram import Representation, build_gram_space, gram_stack
# enumerator.classify certifies the classes, but enumerate_two_squares,
# verify_representation and genericity_check stay here: perfbench wraps all
# three at this module, and a missing name raises KeyError under --trace 1
from .binary_sos import enumerate_two_squares  # noqa: F401
from .gram import verify_representation  # noqa: F401
from .surfaces import CONE_RNC, genericity_check  # noqa: F401


def _require_cone(spec):
    if spec.kind != CONE_RNC:
        raise NotAScroll("apex reduction applies to cones over rational normal curves")


def split(f, spec):
    """Reduce f = a * apex^2 + 2 * apex * b + c on the cone to the base curve.

    The cone over the degree-d curve is the prism (d, 0), so f is the matrix
    M = [[c, b], [b, a]] of spec.prism.matrix(f): row 0 (y) the base block
    and row 1 (x) the apex.  Returns (a, b, g) with a a scalar, b a
    BinaryForm of degree d and g = det M / a one of degree 2d, all exact.

    Raises ApexCoefficientNotPositive when a <= 0 (f is then not positive
    along the apex direction).
    """
    _require_cone(spec)
    prism = spec.prism
    m = prism.matrix(f)
    a = m[1, 1].coeffs[0]
    if not (a > 0):
        raise ApexCoefficientNotPositive(
            "apex coefficient %r is not positive" % (a,)
        )
    return a, m[0, 1], prism.det(m).scale(1 / a)


def lift(vectors, signs, a, b):
    """Lift a stack of representations of g = c - b^2/a on the base to f.

    vectors is a (C, k, d + 1) array of forms over s^i t^(d-i), signs their
    (C, k) signs.  Each lift prepends the square of sqrt(a) * apex +
    b/sqrt(a) over the cone basis (base block first, apex last) and gives
    each base form a zero apex coefficient: (C, k + 1, d + 2) vectors and
    (C, k + 1) signs, in floats.  Signs, reality and psd-ness are kept.
    """
    count, k, n = vectors.shape
    if b.deg != n - 1:
        raise DimensionMismatch("cross term degree %d != base degree %d" % (b.deg, n - 1))
    sqrt_a = float(np.sqrt(float(a)))
    lifted = np.zeros((count, k + 1, n + 1))
    lifted[:, 0] = [float(coeff) / sqrt_a for coeff in b.coeffs] + [sqrt_a]
    lifted[:, 1:, :-1] = vectors
    return lifted, np.column_stack([np.ones(count, dtype=np.int64), signs])


def enumerate_cone(f, spec):
    """Classify all rank-3 Gram matrices of f on a cone via apex reduction.

    The complex census enumerates balanced factor pairs of the reduced form
    g; the real classes are realized as signed rank <= 2 representations,
    lifted, and handed to classify with their Gram matrices and fiber
    coordinates, each built as one stack.  classify labels them by inertia
    and re-verifies every representation against f, reading its Gram matrix
    from the stack.  The psd classes, the conjugate splits, are the
    two-squares representations of g, lifted; no second census of g runs.
    """
    _require_cone(spec)
    space = build_gram_space(f, spec)
    a, b, g = split(f, spec)
    rm = binary_roots(g)
    census = enumerate_rank_two(rm)
    vectors, signs = lift(*real_class_vectors(rm, census), a, b)
    grams = gram_stack(vectors, signs)
    reps = [
        Representation(basis=space.basis, vectors=vecs, signs=s)
        for vecs, s in zip(vectors.tolist(), signs.tolist())
    ]
    for rep, G in zip(reps, grams):
        rep._gram = G
    classes = list(zip(space.fiber_coordinates(grams), grams, reps))
    note = "enumerated through the apex reduction to the base curve"
    return enumerator.classify(space, classes, census.counts["complex"], notes=[note])
