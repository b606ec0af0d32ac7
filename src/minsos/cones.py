"""Apex reduction for quadratic forms on the cone over a rational normal curve.

Writing f = a * apex^2 + 2 * apex * b + c with a scalar and b, c pulled back
from the base curve, f is the prism matrix M = [[c, b], [b, a]] and the
Schur complement g = c - b^2/a = det M / a is a quadratic form on the base.
Every representation of g lifts to one of f by prepending the square
(sqrt(a) * apex + b/sqrt(a))^2.  The lift raises the rank by exactly one and
preserves reality and positive semidefiniteness, so rank-3 points on the
cone are enumerated through rank-2 points on the curve.
"""

from __future__ import annotations

import numpy as np

from .binary_sos import (
    class_representation,
    enumerate_rank_two,
    enumerate_two_squares,
    roots as binary_roots,
)
from .enumerator import classify
from .errors import ApexCoefficientNotPositive, DimensionMismatch, NotAScroll
# classify certifies the classes, but verify_representation and
# genericity_check stay here: perfbench wraps both at this module, and a
# missing name raises KeyError under --trace 1
from .gram import Representation, build_gram_space, verify_representation  # noqa: F401
from .surfaces import CONE_RNC, cone_rnc, genericity_check, monomial_basis  # noqa: F401


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


def lift(rep, a, b):
    """Lift a representation of g = c - b^2/a on the base to one of f.

    Prepends the square of sqrt(a) * apex + b/sqrt(a) over the cone basis
    (base block first, apex last) and pushes each base form w to its
    pullback apex-free form.  Rank increases by exactly one; signs, reality
    and psd-ness are preserved.  The lift is in floats.
    """
    d = len(rep.basis) - 1
    if b.deg != d:
        raise DimensionMismatch("cross term degree %d != base degree %d" % (b.deg, d))
    sqrt_a = float(np.sqrt(float(a)))
    apex_vec = [float(coeff) / sqrt_a for coeff in b.coeffs] + [sqrt_a]
    vectors = [[float(c) for c in vec] + [0.0] for vec in rep.vectors]
    return Representation(
        basis=monomial_basis(cone_rnc(d)),
        vectors=[apex_vec] + vectors,
        signs=[1] + list(rep.signs),
    )


def enumerate_cone(f, spec):
    """Classify all rank-3 Gram matrices of f on a cone via apex reduction.

    The complex census enumerates balanced factor pairs of the reduced form;
    real classes are realized as signed rank <= 2 representations, lifted,
    and handed to classify with the lifted Gram matrices, which labels them
    by inertia and re-verifies every representation against f.
    """
    _require_cone(spec)
    space = build_gram_space(f, spec)
    a, b, g = split(f, spec)
    rm = binary_roots(g)
    census = enumerate_rank_two(rm)
    classes = []
    for cls in census.classes:
        if cls.kind == "complex":
            continue
        lifted = lift(class_representation(rm, cls), a, b)
        G = lifted.gram()
        classes.append((space.fiber_coordinates(G), G, lifted))
    note = "enumerated through the apex reduction to the base curve"
    report = classify(space, classes, census.counts["complex"], notes=[note])
    psd = report.counts["psd"]
    if psd != 0:
        two_sq = enumerate_two_squares(g, rm)
        if len(two_sq) != psd:
            report.notes.append(
                "two-squares census mismatch: %d vs %d psd classes" % (len(two_sq), psd)
            )
    return report
