"""Polynomial containers: one sparse class and one dense binary form.

:class:`TermPoly` maps exponent tuples of a fixed length to coefficients.
Every quadratic form of the package is one: a form on a scroll, cone or
factorization prism is a TermPoly over (s, t) and one variable per block
((s, t, x, y) for two blocks) of bidegree (2d, 2), d the largest height,
checked where its matrix is read, in
:meth:`minsos.surfaces.PrismSpec.matrix`; a form on the Veronese surface is
one over (u, v, w).

:class:`BinaryForm` is a homogeneous form in (s, t), stored densely because
roots and the square-free decomposition (:func:`squarefree_parts`) need
every coefficient.

A TermPoly holds exact rationals (:class:`fractions.Fraction`) only, and so
does every form read from JSON: a float coefficient is read as the rational
it denotes, which ``Fraction(float)`` gives exactly.  A BinaryForm is exact
too unless it is built from floats, as the computed columns of a
factorization and the two squares p and q are; those hold complex doubles.
The nonzero coefficients decide the field, whatever their order, and the
two fields never mix silently (see :class:`BinaryForm`).
"""

from __future__ import annotations

import math
import numbers
import operator
from fractions import Fraction

from .errors import DegreeMismatch, NotAQuadraticForm, ZeroDenominator

RATIONAL = "rational"
COMPLEX = "complex"
_ZERO = Fraction(0)


def _merge_field(fa, fb):
    if fa == fb:
        return fa
    raise TypeError("mixed coefficient fields (%s vs %s)" % (fa, fb))


def _exact(value):
    """The coefficient value as the exact rational it denotes.

    A float converts exactly; a complex value must be real and finite.
    Raises NotAQuadraticForm otherwise.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, complex):
        if value.imag != 0:
            raise NotAQuadraticForm("coefficient %r is not real" % (value,))
        value = value.real
    if isinstance(value, float) and not math.isfinite(value):
        raise NotAQuadraticForm("coefficient %r is not finite" % (value,))
    return Fraction(value)


def _coeff_to_json(value, field):
    if field == RATIONAL:
        return {"num": value.numerator, "den": value.denominator}
    return {"re": value.real, "im": value.imag}


def _integer(value):
    """value as an int; ValueError unless it is one already (3, 3.0 or a
    numpy integer, not true)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError("%r is not an integer" % (value,))
    return int(value)


def _is_number(value):
    """Whether a JSON value is a number: an int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def rational_from_json(entry):
    """The rational of a {"num", "den"} pair of integers, den 1 when absent.

    Raises ZeroDenominator when den is 0, and ValueError when num or den is
    not an integer.
    """
    den = _integer(entry.get("den", 1))
    if den == 0:
        raise ZeroDenominator("coefficient %r has a zero denominator" % (entry,))
    return Fraction(_integer(entry["num"]), den)


def _coeff_from_json(entry):
    """A coefficient from {"num", "den"}, {"re", "im"} or a bare number, exactly.

    Raises ValueError when the bare number, "re" or "im" is not a number
    (JSON true and false are not).
    """
    if not isinstance(entry, dict):
        if not _is_number(entry):
            raise ValueError("coefficient %r is not a number" % (entry,))
        return _exact(entry)
    if "num" in entry:
        return rational_from_json(entry)
    re, im = entry.get("re", 0.0), entry.get("im", 0.0)
    if not _is_number(re) or not _is_number(im):
        raise ValueError("coefficient %r is not a number" % (entry,))
    return _exact(complex(float(re), float(im)))


class BinaryForm:
    """Homogeneous binary form in (s, t), stored densely.

    coeffs[i] is the coefficient of s^i t^(deg - i).  Genuine zero
    coefficients may appear anywhere in the vector.  nvars and terms give
    the TermPoly view over (s, t) exponent pairs.

    The nonzero coefficients decide the field: ints and Fractions give a
    rational form of Fractions, floats and complex numbers a complex form
    of complex doubles, and a mix of the two raises TypeError, in any order.
    Zeros take the field so decided.  When every coefficient is zero, the
    field is ``field``, or without one complex if any coefficient is a
    float or complex zero and rational otherwise.  A ``field`` that the
    nonzero coefficients contradict raises TypeError.
    """

    __slots__ = ("coeffs", "deg", "field")
    nvars = 2

    def __init__(self, coeffs, deg=None, field=None):
        coeffs = list(coeffs)
        if deg is None:
            deg = len(coeffs) - 1
        if len(coeffs) != deg + 1:
            raise DegreeMismatch(
                "coefficient vector length %d != deg + 1 = %d" % (len(coeffs), deg + 1)
            )
        # the fields of the nonzero coefficients, and whether any is a float
        exact = inexact = floats = False
        for c in coeffs:
            if isinstance(c, (int, Fraction)):
                exact = exact or c != 0
            elif isinstance(c, (float, complex)):
                floats = True
                inexact = inexact or c != 0
            else:
                raise TypeError("unsupported coefficient type %r" % type(c).__name__)
        if exact and inexact:
            raise TypeError("mixed coefficient fields (%s vs %s)" % (RATIONAL, COMPLEX))
        decided = RATIONAL if exact else COMPLEX if inexact else None
        if decided is None:
            self.field = field or (COMPLEX if floats else RATIONAL)
        else:
            self.field = decided if field is None else _merge_field(field, decided)
        if self.field == RATIONAL:
            # a zero may be a float or complex zero; every other value is exact
            self.coeffs = [
                c if isinstance(c, Fraction) else Fraction(c) if c else _ZERO for c in coeffs
            ]
        else:
            self.coeffs = [complex(c) for c in coeffs]
        self.deg = deg

    @classmethod
    def zero(cls, deg, field=RATIONAL):
        return cls([0] * (deg + 1), deg, field=field)

    @property
    def terms(self):
        return {(i, self.deg - i): c for i, c in enumerate(self.coeffs) if c != 0}

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def s_degree(self):
        """Largest i with a nonzero s^i coefficient; -1 for the zero form."""
        for i in range(self.deg, -1, -1):
            if self.coeffs[i] != 0:
                return i
        return -1

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self.deg == other.deg and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.deg, tuple(self.coeffs)))

    def __repr__(self):
        return "BinaryForm(deg=%d, %r)" % (self.deg, self.coeffs)

    def scale(self, scalar):
        return BinaryForm([c * scalar for c in self.coeffs], self.deg)

    def max_abs_coeff(self):
        return max(abs(c) for c in self.coeffs) if self.coeffs else 0

    def to_json(self):
        return {
            "deg": self.deg,
            "coeffs": [_coeff_to_json(c, self.field) for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, data):
        """Read {"deg", "coeffs"}; ValueError unless data is an object, deg an
        integer and coeffs a list."""
        if not isinstance(data, dict):
            raise ValueError("binary form %r is not an object" % (data,))
        coeffs = data["coeffs"]
        if not isinstance(coeffs, list):
            raise ValueError("coeffs %r is not a list" % (coeffs,))
        return cls([_coeff_from_json(c) for c in coeffs], _integer(data["deg"]))


def _primitive(p):
    """Integer polynomial p divided by its content, leading coefficient > 0."""
    while p and p[-1] == 0:
        p = p[:-1]
    if not p:
        return p
    content = math.gcd(*p) * (1 if p[-1] > 0 else -1)
    return [c // content for c in p]


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def _pseudo_remainder(u, v):
    """A nonzero multiple of u mod v, for integer u, v; stays over Z."""
    u = list(u)
    while len(u) >= len(v):
        lead = u.pop()
        shift = len(u) - len(v) + 1
        u = [v[-1] * c for c in u]
        for i, c in enumerate(v[:-1]):
            u[shift + i] -= lead * c
        while u and u[-1] == 0:
            u.pop()
    return u


def _quotient(u, v):
    """u / v for integer u and primitive v dividing u; integral by Gauss's lemma."""
    u = list(u)
    q = [0] * max(len(u) - len(v) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        q[k] = u[k + len(v) - 1] // v[-1]
        for i, c in enumerate(v):
            u[k + i] -= q[k] * c
    return q


def _gcd(u, v):
    """Primitive gcd of integer polynomials by the primitive Euclid."""
    while v:
        u, v = v, _primitive(_pseudo_remainder(u, v))
    return _primitive(u)


def squarefree_parts(f):
    """The square-free decomposition of a nonzero real binary form.

    Returns (inf_mult, parts): inf_mult is the multiplicity of the root at
    infinity (the power of t dividing f), and parts lists (part, k) with
    each part a monic square-free BinaryForm of positive degree, prime to t
    and to every other part, so that f = lead * t^inf_mult * prod part^k
    exactly, lead the coefficient of the highest power of s.  Coefficients
    are read as the rationals they denote.  The parts come from Yun's
    algorithm (SYMSAC 1976) on the dehomogenized polynomial, its gcds from
    the primitive Euclid over Z (Brown, J. ACM 1971).
    """
    coeffs = [_exact(c) for c in f.coeffs]
    sdeg = f.s_degree()
    if sdeg < 0:
        raise ValueError("the zero form has no square-free decomposition")
    denominators = math.lcm(*(c.denominator for c in coeffs))
    p = _primitive([int(c * denominators) for c in coeffs[: sdeg + 1]])
    dp = _derivative(p)
    a = _gcd(p, dp)
    b, c = _quotient(p, a), _quotient(dp, a)
    parts = []
    k = 1
    # b is the product of the parts of multiplicity >= k, and gcd(b, c - b')
    # the part of multiplicity k
    while len(b) > 1:
        d = [x - y for x, y in zip(c, _derivative(b))]
        a = _gcd(b, _primitive(d))
        if len(a) > 1:
            parts.append((BinaryForm([Fraction(x, a[-1]) for x in a]), k))
        b, c = _quotient(b, a), _quotient(d, a)
        k += 1
    return f.deg - sdeg, parts


def real_root_count(f):
    """The number of distinct finite real roots of a square-free real binary
    form of positive s-degree, exactly, by Sturm's theorem on the
    dehomogenized polynomial.

    The chain runs over Z and keeps signs: each member is the negated
    pseudo-remainder of the two before it by a divisor of positive leading
    coefficient, divided by its absolute content.
    """
    coeffs = [_exact(c) for c in f.coeffs[: f.s_degree() + 1]]
    denominators = math.lcm(*(c.denominator for c in coeffs))
    chain = [[int(c * denominators) for c in coeffs]]
    chain.append(_derivative(chain[0]))
    while len(chain[-1]) > 1:
        v = chain[-1]
        r = _pseudo_remainder(chain[-2], v if v[-1] > 0 else [-c for c in v])
        chain.append([-c // math.gcd(*r) for c in r])
    # the signs of the chain at +infinity and at -infinity
    plus = [p[-1] > 0 for p in chain]
    minus = [sign == (len(p) % 2 == 1) for sign, p in zip(plus, chain)]
    return sum(map(operator.ne, minus, minus[1:])) - sum(map(operator.ne, plus, plus[1:]))


class TermPoly:
    """Sparse polynomial: exponent tuples of length nvars to coefficients.

    A container: forms are built as term dicts.  terms holds only nonzero
    coefficients, each an exact rational; a float term converts exactly.
    """

    __slots__ = ("nvars", "terms", "_float_terms")

    def __init__(self, nvars, terms):
        self.nvars = int(nvars)
        clean = {}
        for expo, coeff in terms.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.nvars:
                raise DegreeMismatch("exponent tuple %r has wrong arity" % (expo,))
            value = _exact(coeff)
            if value != 0:
                clean[expo] = clean.get(expo, 0) + value
        self.terms = {e: c for e, c in clean.items() if c != 0}
        self._float_terms = None

    def float_terms(self):
        """terms with each coefficient rounded to a float, converted on the first call."""
        if self._float_terms is None:
            self._float_terms = {e: float(c) for e, c in self.terms.items()}
        return self._float_terms

    def __eq__(self, other):
        if not isinstance(other, TermPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self):
        return "TermPoly(nvars=%d, %d terms)" % (self.nvars, len(self.terms))

    def max_abs_coeff(self):
        return max(abs(c) for c in self.terms.values()) if self.terms else 0

    def to_json(self):
        return {
            "nvars": self.nvars,
            "terms": [
                {"expo": list(expo), **_coeff_to_json(self.terms[expo], RATIONAL)}
                for expo in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json(cls, data):
        """Read {"nvars", "terms": [{"expo", coefficient}]}.

        Also reads the layout {"degST", "degXY", "terms": [{"s", "t", "x",
        "y", coefficient}]} of earlier certificates as a form over (s, t, x,
        y); every term must have the bidegree (degST, degXY) it declares.
        ValueError unless terms is a list of objects, every expo a list of
        integers and every count an integer.
        """
        entries = data.get("terms", [])
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ValueError("terms %r is not a list of objects" % (entries,))
        if "degST" in data:
            nvars = 4
            bidegree = (_integer(data["degST"]), _integer(data["degXY"]))
            expos = [tuple(_integer(entry[v]) for v in "stxy") for entry in entries]
            for i, j, k, l in expos:
                if min(i, j, k, l) < 0 or (i + j, k + l) != bidegree:
                    raise DegreeMismatch(
                        "term %r violates bidegree %r" % ((i, j, k, l), bidegree)
                    )
        else:
            nvars = _integer(data["nvars"])
            expos = []
            for entry in entries:
                if not isinstance(entry["expo"], list):
                    raise ValueError("expo %r is not a list of integers" % (entry["expo"],))
                expos.append(tuple(_integer(e) for e in entry["expo"]))
        terms = {}
        for expo, entry in zip(expos, entries):
            terms[expo] = terms.get(expo, 0) + _coeff_from_json(entry)
        return cls(nvars, terms)
