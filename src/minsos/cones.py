"""Apex reduction for quadratic forms on the cone over a rational normal curve.

Writing f = a * apex^2 + 2 * apex * b + c with a scalar and b, c pulled back
from the base curve, the Schur complement g = c - b^2/a is a quadratic form
on the base, and every representation of g lifts to one of f by prepending
the square (sqrt(a) * apex + b/sqrt(a))^2.  The lift raises the rank by
exactly one and preserves reality and positive semidefiniteness, so rank-3
points on the cone are enumerated through rank-2 points on the curve.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .binary_sos import (
    class_representation,
    enumerate_rank_two,
    enumerate_two_squares,
    roots as binary_roots,
)
from .enumerator import CountReport
from .errors import ApexCoefficientNotPositive, DimensionMismatch, NotAScroll
from .gram import (
    Representation,
    build_gram_space,
    inertia,
    verify_representation,
)
from .surfaces import (
    CONE_RNC,
    cone_rnc,
    count_warning,
    expected_counts,
    genericity_check,
    monomial_basis,
)


def _require_cone(spec):
    if spec.kind != CONE_RNC:
        raise NotAScroll("apex reduction applies to cones over rational normal curves")


def split(f, spec):
    """Decompose f = a * apex^2 + 2 * apex * b + c on the cone.

    The cone over the degree-d curve is the prism (d, 0), so f is the matrix
    [[c, b], [b, a]] of spec.prism.matrix(f): row 0 (y) the base block and
    row 1 (x) the apex.  Returns (a, b, c) with a a scalar, b a BinaryForm
    of degree d and c one of degree 2d, all exact.

    Raises ApexCoefficientNotPositive when a <= 0 (f is then not positive
    along the apex direction).
    """
    _require_cone(spec)
    m = spec.prism.matrix(f)
    a = m[1, 1].coeffs[0]
    if not (a > 0):
        raise ApexCoefficientNotPositive(
            "apex coefficient %r is not positive" % (a,)
        )
    return a, m[0, 1], m[0, 0]


def reduce_form(a, b, c):
    """The Schur complement g = c - b^2/a on the base curve (degree 2d) of
    the split (a, b, c) of a cone form, exactly."""
    return c - (b * b).scale(Fraction(1) / a)


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
    and classified by inertia of the lifted Gram matrix.  Every emitted
    representation is re-verified against f.
    """
    _require_cone(spec)
    space = build_gram_space(f, spec)
    a, b, c = split(f, spec)
    g = reduce_form(a, b, c)
    rm = binary_roots(g)
    census = enumerate_rank_two(rm)
    counts = {
        "complex": census.counts["complex"],
        "real": census.counts["real"],
        "psd": 0,
        "indefinite": 0,
    }
    entries = []
    for cls in census.classes:
        if cls.kind == "complex":
            continue
        base_rep = class_representation(rm, cls)
        lifted = lift(base_rep, a, b)
        G = lifted.gram()
        ine = inertia(G)
        psd = ine[1] == 0
        counts["psd" if psd else "indefinite"] += 1
        entry = {
            "theta": space.fiber_coordinates(G),
            "inertia": ine,
            "psd": psd,
            "representation": lifted,
            "verify_residual": float(verify_representation(f, lifted)),
        }
        entries.append(entry)
    report = genericity_check(f, spec)
    warning = count_warning(spec, counts["complex"])
    notes = ["enumerated through the apex reduction to the base curve"]
    if report.delta_squarefree is False:
        notes.append("discriminant is not squarefree")
    notes.extend(report.notes)
    expected = expected_counts(spec)
    if counts["psd"] != 0:
        two_sq = enumerate_two_squares(g, rm)
        if len(two_sq) != counts["psd"]:
            notes.append(
                "two-squares census mismatch: %d vs %d psd classes"
                % (len(two_sq), counts["psd"])
            )
    return CountReport(
        counts=counts,
        expected=expected,
        warning=warning,
        entries=entries,
        path_stats={},
        notes=notes,
    )
