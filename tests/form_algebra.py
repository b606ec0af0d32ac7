"""Arithmetic on binary forms, for building test inputs and oracles.

BinaryForm in minsos.biform keeps no arithmetic beyond scale: the library
reads forms (roots, gcd, JSON) but never adds or multiplies them.  The
tests build products of linear and quadratic factors with these.
"""

from fractions import Fraction

from minsos.biform import RATIONAL, BinaryForm, _merge_field
from minsos.errors import DegreeMismatch


def add(f, g):
    """f + g, of one degree; TypeError when their fields differ."""
    if f.deg != g.deg:
        raise DegreeMismatch("degree mismatch %d vs %d" % (f.deg, g.deg))
    field = _merge_field(f.field, g.field)
    return BinaryForm([a + b for a, b in zip(f.coeffs, g.coeffs)], f.deg, field=field)


def sub(f, g):
    return add(f, g.scale(-1))


def mul(*forms):
    """The product of one or more forms, multiplied left to right."""
    out = forms[0]
    for g in forms[1:]:
        deg = out.deg + g.deg
        field = _merge_field(out.field, g.field)
        coeffs = [Fraction(0) if field == RATIONAL else 0j] * (deg + 1)
        for i, a in enumerate(out.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(g.coeffs):
                coeffs[i + j] += a * b
        out = BinaryForm(coeffs, deg, field=field)
    return out


def evaluate(f, s, t):
    """f(s, t), in the number type of s, t and the coefficients."""
    total = 0
    sp = 1
    tp = [1] * (f.deg + 1)
    for i in range(1, f.deg + 1):
        tp[i] = tp[i - 1] * t
    for i, c in enumerate(f.coeffs):
        if c != 0:
            total += c * sp * tp[f.deg - i]
        sp = sp * s
    return total
