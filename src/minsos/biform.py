"""Polynomial containers: one sparse class and one dense binary form.

:class:`TermPoly` maps exponent tuples of a fixed length to coefficients.
Every quadratic form of the package is one: a form on a scroll or cone is a
TermPoly over (s, t, x, y) of bidegree (2d, 2) (checked where the blocks are
read, in :func:`minsos.surfaces.quadratic_form_blocks`), a form on the
Veronese surface one over (u, v, w), and a form on a factorization prism one
over (s, t, x_1..x_n).

:class:`BinaryForm` is a homogeneous form in (s, t), stored densely because
roots, gcd and the t-valuation need every coefficient.

Coefficients are exact rationals (:class:`fractions.Fraction`) by default;
complex doubles are supported as a second coefficient field for numerical
work.  Conversion between the two is never silent: ``BinaryForm.to_complex``
converts a binary form, and a TermPoly is built in the field of its terms.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegreeMismatch

RATIONAL = "rational"
COMPLEX = "complex"


def _classify_scalar(value):
    """Return (field, normalized) for a raw coefficient."""
    if isinstance(value, Fraction):
        return RATIONAL, value
    if isinstance(value, int):
        return RATIONAL, Fraction(value)
    if isinstance(value, (float, complex)):
        return COMPLEX, complex(value)
    raise TypeError("unsupported coefficient type %r" % type(value).__name__)


def _merge_field(fa, fb):
    if fa == fb:
        return fa
    raise TypeError(
        "mixed coefficient fields (%s vs %s); convert explicitly with to_complex()"
        % (fa, fb)
    )


def _coeff_to_json(value, field):
    if field == RATIONAL:
        return {"num": value.numerator, "den": value.denominator}
    return {"re": value.real, "im": value.imag}


def _coeff_from_json(entry):
    if "num" in entry:
        return Fraction(int(entry["num"]), int(entry.get("den", 1)))
    return complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))


class BinaryForm:
    """Homogeneous binary form in (s, t), stored densely.

    coeffs[i] is the coefficient of s^i t^(deg - i).  Genuine zero
    coefficients may appear anywhere in the vector.  nvars and terms give
    the TermPoly view over (s, t) exponent pairs.
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
        norm = []
        for c in coeffs:
            cfield, value = _classify_scalar(c)
            if field is None:
                field = cfield
            elif value != 0:
                field = _merge_field(field, cfield)
            norm.append(value)
        self.field = field if field is not None else RATIONAL
        if self.field == RATIONAL:
            self.coeffs = [Fraction(c) for c in norm]
        else:
            self.coeffs = [complex(c) for c in norm]
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

    def t_valuation(self):
        """Multiplicity of t dividing the form (deg+1 for the zero form)."""
        for i in range(self.deg, -1, -1):
            if self.coeffs[i] != 0:
                return self.deg - i
        return self.deg + 1

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self.deg == other.deg and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.deg, tuple(self.coeffs)))

    def __repr__(self):
        return "BinaryForm(deg=%d, %r)" % (self.deg, self.coeffs)

    def __add__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if self.deg != other.deg:
            raise DegreeMismatch("degree mismatch %d vs %d" % (self.deg, other.deg))
        field = _merge_field(self.field, other.field)
        return BinaryForm(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.deg, field=field
        )

    def __sub__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        deg = self.deg + other.deg
        field = _merge_field(self.field, other.field)
        zero = Fraction(0) if field == RATIONAL else 0j
        out = [zero] * (deg + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return BinaryForm(out, deg, field=field)

    def scale(self, scalar):
        return BinaryForm([c * scalar for c in self.coeffs], self.deg)

    def eval(self, s, t):
        total = 0
        sp = 1
        # t powers descending via one pass of cached powers
        tp = [1] * (self.deg + 1)
        for i in range(1, self.deg + 1):
            tp[i] = tp[i - 1] * t
        for i, c in enumerate(self.coeffs):
            if c != 0:
                total += c * sp * tp[self.deg - i]
            sp = sp * s
        return total

    def diff_s(self):
        if self.deg == 0:
            return BinaryForm.zero(0, field=self.field)
        return BinaryForm(
            [i * self.coeffs[i] for i in range(1, self.deg + 1)], self.deg - 1
        )

    def divide_t_power(self, k):
        """Exact division by t^k; raises when not divisible."""
        if k == 0:
            return self
        if self.is_zero():
            return BinaryForm.zero(self.deg - k, field=self.field)
        if self.t_valuation() < k:
            raise DegreeMismatch("form not divisible by t^%d" % k)
        return BinaryForm(self.coeffs[: self.deg - k + 1], self.deg - k)

    def max_abs_coeff(self):
        return max(abs(c) for c in self.coeffs) if self.coeffs else 0

    def to_complex(self):
        if self.field == COMPLEX:
            return self
        return BinaryForm([complex(c) for c in self.coeffs], self.deg, field=COMPLEX)

    def to_json(self):
        return {
            "deg": self.deg,
            "coeffs": [_coeff_to_json(c, self.field) for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, data):
        coeffs = [
            _coeff_from_json(c)
            if isinstance(c, dict)
            else (Fraction(c) if isinstance(c, int) else complex(c))
            for c in data["coeffs"]
        ]
        return cls(coeffs, int(data["deg"]))


def binary_gcd(f, g):
    """Exact gcd of two rational binary forms, via the dehomogenized Euclid.

    Returns a BinaryForm; the result is monic in its leading s-coefficient
    except that shared t-powers are carried explicitly.
    """
    if f.field != RATIONAL or g.field != RATIONAL:
        raise TypeError("exact gcd requires rational coefficients")
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    tv = min(f.t_valuation(), g.t_valuation())
    a = f.divide_t_power(f.t_valuation())
    b = g.divide_t_power(g.t_valuation())
    # both now have nonzero constant term in t, gcd has no t factor
    pa = a.coeffs[: a.s_degree() + 1]
    pb = b.coeffs[: b.s_degree() + 1]

    def poly_mod(u, v):
        u = list(u)
        dv = len(v) - 1
        while len(u) - 1 >= dv and any(c != 0 for c in u):
            while u and u[-1] == 0:
                u.pop()
            if len(u) - 1 < dv:
                break
            factor = u[-1] / v[-1]
            shift = len(u) - 1 - dv
            for i in range(dv + 1):
                u[shift + i] -= factor * v[i]
            u.pop()
        while u and u[-1] == 0:
            u.pop()
        return u

    while pb:
        pa, pb = pb, poly_mod(pa, pb)
    lead = pa[-1]
    pa = [c / lead for c in pa]
    deg = len(pa) - 1 + tv
    return BinaryForm(pa + [Fraction(0)] * tv, deg)


class TermPoly:
    """Sparse polynomial: exponent tuples of length nvars to coefficients.

    A container: forms are built as term dicts.  terms holds only nonzero
    coefficients; field is RATIONAL or COMPLEX.
    """

    __slots__ = ("nvars", "terms", "field")

    def __init__(self, nvars, terms, field=None):
        self.nvars = int(nvars)
        clean = {}
        for expo, coeff in terms.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.nvars:
                raise DegreeMismatch("exponent tuple %r has wrong arity" % (expo,))
            cfield, value = _classify_scalar(coeff)
            field = cfield if field is None else _merge_field(field, cfield)
            if value != 0:
                clean[expo] = clean.get(expo, 0) + value
        self.terms = {e: c for e, c in clean.items() if c != 0}
        self.field = field if field is not None else RATIONAL

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TermPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self):
        return "TermPoly(nvars=%d, %d terms)" % (self.nvars, len(self.terms))

    def eval(self, point):
        if len(point) != self.nvars:
            raise DegreeMismatch("point arity mismatch")
        total = 0
        for expo, coeff in self.terms.items():
            value = coeff
            for base, e in zip(point, expo):
                if e:
                    value = value * base**e
            total += value
        return total

    def max_abs_coeff(self):
        return max(abs(c) for c in self.terms.values()) if self.terms else 0

    def to_json(self):
        return {
            "nvars": self.nvars,
            "terms": [
                {"expo": list(expo), **_coeff_to_json(self.terms[expo], self.field)}
                for expo in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json(cls, data):
        """Read {"nvars", "terms": [{"expo", coefficient}]}.

        Also reads the layout {"degST", "degXY", "terms": [{"s", "t", "x",
        "y", coefficient}]} of earlier certificates as a form over (s, t, x,
        y); every term must have the bidegree (degST, degXY) it declares.
        """
        entries = data.get("terms", [])
        if "degST" in data:
            nvars = 4
            bidegree = (int(data["degST"]), int(data["degXY"]))
            expos = [tuple(int(entry[v]) for v in "stxy") for entry in entries]
            for i, j, k, l in expos:
                if min(i, j, k, l) < 0 or (i + j, k + l) != bidegree:
                    raise DegreeMismatch(
                        "term %r violates bidegree %r" % ((i, j, k, l), bidegree)
                    )
        else:
            nvars = int(data["nvars"])
            expos = [tuple(int(e) for e in entry["expo"]) for entry in entries]
        terms = {}
        for expo, entry in zip(expos, entries):
            terms[expo] = terms.get(expo, 0) + _coeff_from_json(entry)
        return cls(nvars, terms)
