"""Bihomogeneous polynomial arithmetic.

A :class:`Biform` is a polynomial that is homogeneous separately in the
variable pairs (s, t) and (x, y).  Coefficients are exact rationals
(:class:`fractions.Fraction`) by default; complex doubles are supported as a
second coefficient field for numerical work.  Conversion between the two is
explicit via :meth:`Biform.to_complex`, never silent.

:class:`BinaryForm` is the degXY = 0 specialization, stored densely, and
:class:`TermPoly` is a small generic exponent-map polynomial used internally
for surfaces whose monomials are not (s,t,x,y)-quadruples (the Veronese
surface and the prisms of the factorization module).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegreeMismatch, ExponentOverflow

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


class Biform:
    """Bihomogeneous polynomial in (s,t) and (x,y).

    terms maps exponent quadruples (i, j, k, l) (powers of s, t, x, y) to
    nonzero coefficients, with i + j == deg_st and k + l == deg_xy for every
    stored term.  The zero polynomial is an empty map with a declared
    bidegree.  nvars = 4 lets it read like a TermPoly over (s, t, x, y).
    """

    __slots__ = ("deg_st", "deg_xy", "terms", "field")
    nvars = 4

    def __init__(self, deg_st, deg_xy, terms, field=None):
        if deg_st < 0 or deg_xy < 0:
            raise DegreeMismatch("negative bidegree (%d, %d)" % (deg_st, deg_xy))
        self.deg_st = int(deg_st)
        self.deg_xy = int(deg_xy)
        clean = {}
        for (i, j, k, l), coeff in terms.items():
            cfield, value = _classify_scalar(coeff)
            if field is None:
                field = cfield
            else:
                field = _merge_field(field, cfield)
            if i < 0 or j < 0 or k < 0 or l < 0:
                raise DegreeMismatch("negative exponent in %r" % ((i, j, k, l),))
            if i + j != self.deg_st or k + l != self.deg_xy:
                raise DegreeMismatch(
                    "term %r violates bidegree (%d, %d)"
                    % ((i, j, k, l), self.deg_st, self.deg_xy)
                )
            if value != 0:
                clean[(i, j, k, l)] = value
        self.terms = clean
        self.field = field if field is not None else RATIONAL

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, deg_st, deg_xy, field=RATIONAL):
        return cls(deg_st, deg_xy, {}, field=field)

    # -- predicates and accessors ----------------------------------------

    def is_zero(self):
        return not self.terms

    @property
    def bidegree(self):
        return (self.deg_st, self.deg_xy)

    def coeff(self, quad):
        zero = Fraction(0) if self.field == RATIONAL else 0j
        return self.terms.get(tuple(quad), zero)

    def max_abs_coeff(self):
        if not self.terms:
            return Fraction(0) if self.field == RATIONAL else 0.0
        return max(abs(c) for c in self.terms.values())

    def sorted_terms(self):
        """Terms in lexicographic (i, k) order; j, l are determined."""
        return sorted(self.terms.items(), key=lambda item: (item[0][0], item[0][2]))

    def __eq__(self, other):
        if not isinstance(other, Biform):
            return NotImplemented
        return (
            self.bidegree == other.bidegree
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.bidegree, frozenset(self.terms.items())))

    def __repr__(self):
        return "Biform(deg_st=%d, deg_xy=%d, %d terms)" % (
            self.deg_st,
            self.deg_xy,
            len(self.terms),
        )

    # -- arithmetic -------------------------------------------------------

    def _check_same_shape(self, other):
        if self.bidegree != other.bidegree:
            raise DegreeMismatch(
                "bidegree mismatch %r vs %r" % (self.bidegree, other.bidegree)
            )
        _merge_field(self.field, other.field)

    def __add__(self, other):
        if not isinstance(other, Biform):
            return NotImplemented
        self._check_same_shape(other)
        terms = dict(self.terms)
        for quad, coeff in other.terms.items():
            terms[quad] = terms.get(quad, 0) + coeff
        return Biform(self.deg_st, self.deg_xy, terms, field=self.field)

    def __sub__(self, other):
        if not isinstance(other, Biform):
            return NotImplemented
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, Biform):
            return NotImplemented
        _merge_field(self.field, other.field)
        terms = {}
        for (i1, j1, k1, l1), c1 in self.terms.items():
            for (i2, j2, k2, l2), c2 in other.terms.items():
                quad = (i1 + i2, j1 + j2, k1 + k2, l1 + l2)
                terms[quad] = terms.get(quad, 0) + c1 * c2
        return Biform(
            self.deg_st + other.deg_st,
            self.deg_xy + other.deg_xy,
            terms,
            field=self.field,
        )

    def scale(self, scalar):
        sfield, value = _classify_scalar(scalar)
        if self.field == RATIONAL and sfield != RATIONAL:
            raise TypeError("scaling a rational biform by a non-rational scalar")
        terms = {quad: coeff * value for quad, coeff in self.terms.items()}
        return Biform(self.deg_st, self.deg_xy, terms, field=self.field)

    def diff(self, var):
        """Partial derivative; var is one of 's', 't', 'x', 'y'."""
        pos = "stxy".index(var)
        drop_st = 1 if pos < 2 else 0
        if (self.deg_st if pos < 2 else self.deg_xy) == 0:
            return Biform.zero(
                max(self.deg_st - drop_st, 0),
                max(self.deg_xy - (1 - drop_st), 0),
                field=self.field,
            )
        terms = {}
        for quad, coeff in self.terms.items():
            e = quad[pos]
            if e == 0:
                continue
            new = list(quad)
            new[pos] = e - 1
            terms[tuple(new)] = terms.get(tuple(new), 0) + e * coeff
        return Biform(
            self.deg_st - drop_st, self.deg_xy - (1 - drop_st), terms, field=self.field
        )

    def eval(self, point):
        """Evaluate at a quadruple (s, t, x, y); exact on rational points."""
        s, t, x, y = point
        if self.field == RATIONAL and all(
            isinstance(v, (int, Fraction)) for v in point
        ):
            zero = Fraction(0)
        else:
            zero = 0j
            s, t, x, y = complex(s), complex(t), complex(x), complex(y)
        total = zero
        powers = {}

        def pw(base, exp, tag):
            key = (tag, exp)
            if key not in powers:
                powers[key] = base**exp
            return powers[key]

        for (i, j, k, l), coeff in self.terms.items():
            total += coeff * pw(s, i, 0) * pw(t, j, 1) * pw(x, k, 2) * pw(y, l, 3)
        return total

    # -- conversions ------------------------------------------------------

    def to_complex(self):
        if self.field == COMPLEX:
            return self
        return Biform(
            self.deg_st,
            self.deg_xy,
            {quad: complex(c) for quad, c in self.terms.items()},
            field=COMPLEX,
        )

    def xy_blocks(self):
        """Split a bidegree-(*, 2) biform as a x^2 + 2 b xy + c y^2.

        Returns BinaryForms (a, b, c), all of degree deg_st.
        """
        if self.deg_xy != 2:
            raise DegreeMismatch("xy_blocks needs deg_xy = 2, got %d" % self.deg_xy)
        half = Fraction(1, 2) if self.field == RATIONAL else 0.5
        blocks = {}
        for (i, j, k, l), coeff in self.terms.items():
            block = blocks.setdefault(k, [0] * (self.deg_st + 1))
            block[i] = coeff
        zero = [0] * (self.deg_st + 1)
        a = BinaryForm(blocks.get(2, zero), self.deg_st, field=self.field)
        b = BinaryForm(
            [c * half for c in blocks.get(1, zero)], self.deg_st, field=self.field
        )
        c = BinaryForm(blocks.get(0, zero), self.deg_st, field=self.field)
        return a, b, c

    # -- serialization ----------------------------------------------------

    def to_json(self):
        entries = []
        for (i, j, k, l), coeff in self.sorted_terms():
            entry = {"s": i, "t": j, "x": k, "y": l}
            if self.field == RATIONAL:
                entry["num"] = coeff.numerator
                entry["den"] = coeff.denominator
            else:
                entry["re"] = coeff.real
                entry["im"] = coeff.imag
            entries.append(entry)
        return {"degST": self.deg_st, "degXY": self.deg_xy, "terms": entries}

    @classmethod
    def from_json(cls, data):
        try:
            deg_st = int(data["degST"])
            deg_xy = int(data["degXY"])
            raw = data.get("terms", [])
        except (KeyError, TypeError) as exc:
            raise DegreeMismatch("malformed biform JSON: %s" % exc) from None
        terms = {}
        field = None
        for entry in raw:
            quad = (int(entry["s"]), int(entry["t"]), int(entry["x"]), int(entry["y"]))
            if "num" in entry:
                coeff = Fraction(int(entry["num"]), int(entry.get("den", 1)))
                tfield = RATIONAL
            else:
                coeff = complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))
                tfield = COMPLEX
            field = tfield if field is None else _merge_field(field, tfield)
            terms[quad] = terms.get(quad, 0) + coeff
        return cls(deg_st, deg_xy, terms, field=field)


def bihomogenize(sx_terms, target_bidegree, field=None):
    """Bihomogenize a sparse polynomial in (s, x).

    sx_terms maps (i, k) (powers of s and x) to coefficients; each monomial
    s^i x^k becomes s^i t^(degST-i) x^k y^(degXY-k).
    """
    deg_st, deg_xy = target_bidegree
    terms = {}
    for (i, k), coeff in sx_terms.items():
        if i > deg_st or k > deg_xy:
            raise ExponentOverflow(
                "monomial s^%d x^%d exceeds target bidegree (%d, %d)"
                % (i, k, deg_st, deg_xy)
            )
        terms[(i, deg_st - i, k, deg_xy - k)] = coeff
    return Biform(deg_st, deg_xy, terms, field=field)


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

    def to_biform(self, deg_xy=0, x_power=0):
        """Embed as a Biform, optionally multiplied by x^x_power y^(deg_xy - x_power)."""
        terms = {}
        for i, c in enumerate(self.coeffs):
            if c != 0:
                terms[(i, self.deg - i, x_power, deg_xy - x_power)] = c
        return Biform(self.deg, deg_xy, terms, field=self.field)

    def to_json(self):
        entry = {"deg": self.deg}
        if self.field == RATIONAL:
            entry["coeffs"] = [
                {"num": c.numerator, "den": c.denominator} for c in self.coeffs
            ]
        else:
            entry["coeffs"] = [{"re": c.real, "im": c.imag} for c in self.coeffs]
        return entry

    @classmethod
    def from_json(cls, data):
        deg = int(data["deg"])
        coeffs = []
        for c in data["coeffs"]:
            if isinstance(c, dict):
                if "num" in c:
                    coeffs.append(Fraction(int(c["num"]), int(c.get("den", 1))))
                else:
                    coeffs.append(complex(float(c.get("re", 0.0)), float(c.get("im", 0.0))))
            else:
                coeffs.append(Fraction(c) if isinstance(c, int) else complex(c))
        return cls(coeffs, deg)


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
    """Sparse polynomial over abstract exponent tuples of fixed length.

    Used for monomial algebras that are not (s,t,x,y)-biforms: ternary forms
    on the Veronese surface and multigraded forms on factorization prisms.
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

    @classmethod
    def zero(cls, nvars, field=RATIONAL):
        return cls(nvars, {}, field=field)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TermPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self):
        return "TermPoly(nvars=%d, %d terms)" % (self.nvars, len(self.terms))

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise DegreeMismatch("arity mismatch")
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            terms[expo] = terms.get(expo, 0) + coeff
        return TermPoly(self.nvars, terms, field=self.field)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        if self.nvars != other.nvars:
            raise DegreeMismatch("arity mismatch")
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, 0) + c1 * c2
        return TermPoly(self.nvars, terms, field=self.field)

    def scale(self, scalar):
        return TermPoly(
            self.nvars,
            {e: c * scalar for e, c in self.terms.items()},
            field=self.field,
        )

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

    def to_complex(self):
        return TermPoly(
            self.nvars,
            {e: complex(c) for e, c in self.terms.items()},
            field=COMPLEX,
        )

    def to_json(self):
        entries = []
        for expo in sorted(self.terms):
            coeff = self.terms[expo]
            entry = {"expo": list(expo)}
            if self.field == RATIONAL:
                entry["num"] = coeff.numerator
                entry["den"] = coeff.denominator
            else:
                entry["re"] = coeff.real
                entry["im"] = coeff.imag
            entries.append(entry)
        return {"nvars": self.nvars, "terms": entries}

    @classmethod
    def from_json(cls, data):
        nvars = int(data["nvars"])
        terms = {}
        field = None
        for entry in data.get("terms", []):
            expo = tuple(int(e) for e in entry["expo"])
            if "num" in entry:
                coeff = Fraction(int(entry["num"]), int(entry.get("den", 1)))
                tfield = RATIONAL
            else:
                coeff = complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))
                tfield = COMPLEX
            field = tfield if field is None else _merge_field(field, tfield)
            terms[expo] = terms.get(expo, 0) + coeff
        return cls(nvars, terms, field=field)
