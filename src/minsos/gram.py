"""Gram matrices of quadratic forms on surfaces of minimal degree.

The affine space of Gram matrices of a form f over a monomial basis m is
{G : m^T G m = f}.  Each entry G[a, b] lands on the single monomial
m_a * m_b, so the space is read off the basis's pair map in closed form, as
a particular solution G0 plus one kernel matrix K_i for every pair whose
monomial an earlier pair already reaches.  Rank-r points of this space are
exactly the representations of f as a signed sum of r squares, extracted
here by eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .biform import TermPoly, _integer, _is_number, rational_from_json
from .errors import (
    DimensionMismatch,
    NonSymmetric,
    NotAQuadraticForm,
    NotInFiber,
)
from .surfaces import MonomialBasis, monomial_basis

# relative thresholds: an eigenvalue counts when it exceeds RANK_TOL times
# the spectral radius; a fiber point may miss the form by FIBER_TOL; two
# float Gram matrices are equivalent within EQUIVALENT_TOL
RANK_TOL = 1e-8
FIBER_TOL = 1e-8
EQUIVALENT_TOL = 1e-8


def gram_residual(f, basis, G):
    """max |coefficient of m^T G m - f| over the monomials of 2P and of f.

    Exact (zero for a fiber point) when G is given as rows of rationals.
    Float for an (N, N) array, and a (C,) array for a (C, N, N) stack,
    each with the bits of its matrix's own call; a NaN coefficient gives a
    NaN residual.  A coefficient of f outside 2P counts with its full size.
    The float residual subtracts f's coefficients rounded to floats, a
    TermPoly's as TermPoly.float_terms converts them once per form.
    """
    pairs = basis.pair_map
    exact = not isinstance(G, np.ndarray)
    terms = f.float_terms() if isinstance(f, TermPoly) and not exact else f.terms
    want, outside = [0] * len(pairs.monomials), [0]
    for expo, c in terms.items():
        r = pairs.index.get(expo)
        if r is None:
            outside.append(abs(c))
        else:
            want[r] = c
    if exact:
        diff = [-c for c in want]
        for r, m, a, b in zip(pairs.row, pairs.mult, pairs.a, pairs.b):
            diff[r] += m * G[a][b]
        return max(outside + [abs(v) for v in diff])
    # complex for a complex binary form; abs(x + 0j) has the bits of abs(x)
    coeffs = np.array([pairs.coefficients(g) for g in G.reshape((-1,) + G.shape[-2:])])
    diff = np.abs(coeffs - np.array(want, dtype=complex))
    resid = np.max(diff, axis=1, initial=float(max(outside)))
    return resid if G.ndim == 3 else float(resid[0])


@dataclass
class GramSpace:
    """Affine family G(theta) = G0 + sum theta_i K_i of Gram matrices.

    G0_f (N x N) and kernel_f (k x N x N) hold G0 and the K_i as floats, read
    off the basis's pair map: G0 is solve_affine's particular solution and
    K_i the kernel matrix of the i-th pair kernel_pairs lists.  to_json
    writes both exactly, as rationals.
    """

    basis: MonomialBasis
    form: object
    surface: object = None

    def __post_init__(self):
        n = len(self.basis)
        pairs = self.basis.pair_map
        self.G0_f = np.zeros((n, n))
        self.G0_f[pairs.a, pairs.b] = self.G0_f[pairs.b, pairs.a] = solve_affine(
            pairs, self._rhs(float)
        )
        p, q = kernel_pairs(pairs)
        rows = np.arange(len(p))
        self.kernel_f = np.zeros((len(p), n, n))
        for at, value in ((p, 1.0), (q, -pairs.mult[p] / pairs.mult[q])):
            self.kernel_f[rows, pairs.a[at], pairs.b[at]] = value
            self.kernel_f[rows, pairs.b[at], pairs.a[at]] = value
        # K^T = Q R once, so projections and coordinates are matrix products
        # and a k x k solve
        self._Q, self._R = np.linalg.qr(self.kernel_f.reshape(len(p), n * n).T)

    def _rhs(self, number):
        """The coefficients of f over the monomials of 2P, each as number(c)."""
        terms = self.form.terms
        return [number(terms.get(key, 0)) for key in self.basis.pair_map.monomials]

    @property
    def size(self):
        return len(self.basis)

    @property
    def kdim(self):
        return len(self.kernel_f)

    def gram_at(self, theta):
        """G(theta) as a numpy array (complex when theta is complex)."""
        theta = np.asarray(theta)
        if theta.shape != (self.kdim,):
            raise DimensionMismatch(
                "theta has shape %r, expected (%d,)" % (theta.shape, self.kdim)
            )
        kernel = self.kernel_f.reshape(self.kdim, -1)
        return self.G0_f + (theta @ kernel).reshape(self.G0_f.shape)

    def fiber_residual(self, G):
        """max |coefficient of m^T G m - f| (exact zero for exact fiber points)."""
        return gram_residual(self.form, self.basis, G)

    def project_fiber(self, G):
        """Orthogonal (Frobenius) projection of a symmetric G onto the fiber."""
        diff = (np.asarray(G, dtype=float) - self.G0_f).reshape(-1)
        return self.G0_f + (self._Q @ (self._Q.T @ diff)).reshape(self.G0_f.shape)

    def fiber_coordinates(self, G):
        """Least-squares theta with G approx G0 + sum theta_i K_i for each
        matrix of a (C, N, N) stack: a (C, k) array, from one stacked solve."""
        diff = (np.asarray(G, dtype=float) - self.G0_f).reshape(-1, self.G0_f.size, 1)
        return np.linalg.solve(self._R[None], self._Q.T[None] @ diff)[..., 0]

    def to_json(self):
        """The basis, k, and G0 and the K_i as exact rational matrices."""
        n = self.size
        pairs = self.basis.pair_map
        a, b, mult = pairs.a.tolist(), pairs.b.tolist(), pairs.mult.tolist()

        def mat(entries):
            rows = [[Fraction(0)] * n for _ in range(n)]
            for pair, value in entries:
                rows[a[pair]][b[pair]] = rows[b[pair]][a[pair]] = value
            return [
                [{"num": v.numerator, "den": v.denominator} for v in row]
                for row in rows
            ]

        p, q = kernel_pairs(pairs)
        data = {
            "basis": [list(m) for m in self.basis.monomials],
            "varNames": list(self.basis.var_names),
            "k": self.kdim,
            "G0": mat(enumerate(solve_affine(pairs, self._rhs(Fraction)))),
            "kernel": [
                mat([(i, Fraction(1)), (j, Fraction(-mult[i], mult[j]))])
                for i, j in zip(p.tolist(), q.tolist())
            ],
        }
        if self.surface is not None:
            data["surface"] = self.surface.to_json()
        if isinstance(self.form, TermPoly):
            data["form"] = self.form.to_json()
        return data


def kernel_pairs(pairs):
    """Index arrays (p, q) of the pairs that span the kernel of the fiber.

    p lists, in pair order, every pair that is not the first pair of its
    monomial (np.triu_indices order), and q[i] is that first pair for p[i].
    Pair p[i] spans one kernel vector: 1 at p[i] and -mult[p[i]] /
    mult[q[i]] at q[i].
    """
    first = np.unique(pairs.row, return_index=True)[1][pairs.row]
    p = np.flatnonzero(first != np.arange(len(first)))
    return p, first[p]


def solve_affine(pairs, rhs):
    """A particular vech(G) of sum over p of mult[p] * u[p] = rhs[row[p]].

    Every pair lands on one monomial, so the equations share no unknown.
    The solution puts rhs of each monomial on the first pair of that
    monomial (np.triu_indices order), divided by the pair's mult, and zero
    on every further pair; those pairs span the kernel, as kernel_pairs
    lists them.  Returns a list over the pairs in the number type of rhs.
    """
    mult = pairs.mult.tolist()
    u = [type(rhs[0])(0)] * len(mult)
    for r, p in enumerate(np.unique(pairs.row, return_index=True)[1].tolist()):
        u[p] = rhs[r] / mult[p]
    return u


def gram_space_from_basis(form, basis, surface=None):
    """The Gram space of m^T G m = f for symmetric G over the given basis."""
    if form.nvars != basis.nvars:
        raise NotAQuadraticForm(
            "form arity %d != basis arity %d" % (form.nvars, basis.nvars)
        )
    unreachable = [key for key in form.terms if key not in basis.pair_map.index]
    if unreachable:
        raise NotAQuadraticForm(
            "form has monomials outside the doubled polytope: %r" % unreachable[:3]
        )
    return GramSpace(basis=basis, form=form, surface=surface)


def build_gram_space(f, spec):
    """Gram space of a quadratic form on a surface of minimal degree."""
    basis = monomial_basis(spec)
    return gram_space_from_basis(f, basis, surface=spec)


def inertia(G):
    """(nPlus, nMinus, nZero) eigenvalue counts of a real symmetric matrix.

    The one-matrix call of inertias.
    """
    G = np.asarray(G)
    if G.ndim != 2:
        raise NonSymmetric("inertia needs a square matrix")
    return inertias(G[None])[0]


def inertias(Gs):
    """The (nPlus, nMinus, nZero) eigenvalue counts of each matrix of a stack.

    Gs is a sequence of real symmetric matrices of one size, or an
    (N, n, n) array; one stacked eigvalsh solves them all.  An eigenvalue
    counts as zero within RANK_TOL of its matrix's spectral radius.  Raises
    NonSymmetric when the matrices are not square, hold a nonzero imaginary
    part, or one differs from its transpose by more than 1e-12 of its
    largest entry.
    """
    if len(Gs) == 0:
        return []
    Gs = np.asarray(Gs)
    if Gs.ndim != 3 or Gs.shape[1] != Gs.shape[2]:
        raise NonSymmetric("inertia needs a square matrix")
    if np.iscomplexobj(Gs):
        if np.max(np.abs(Gs.imag)) > 0:
            raise NonSymmetric("inertia is defined for real symmetric matrices")
        Gs = Gs.real
    Gt = Gs.transpose(0, 2, 1)
    scale = np.fmax(1e-300, np.max(np.abs(Gs), axis=(1, 2)))
    if np.any(np.max(np.abs(Gs - Gt), axis=(1, 2)) > 1e-12 * scale):
        raise NonSymmetric("matrix is not symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (Gs + Gt))
    smax = np.maximum(np.max(np.abs(eigs), axis=1), 1e-300)[:, None]
    nplus = np.sum(eigs > RANK_TOL * smax, axis=1).tolist()
    nminus = np.sum(eigs < -RANK_TOL * smax, axis=1).tolist()
    size = eigs.shape[1]
    return [(p, m, size - p - m) for p, m in zip(nplus, nminus)]


@dataclass
class Representation:
    """Signed sum of squares f = sum_i sign_i * l_i^2.

    Forms are stored as coefficient vectors over the owning basis: floats,
    or Fractions when exact.  The canonical Gram matrix
    sum_i sign_i v_i v_i^T is the equivalence-class invariant.
    """

    basis: MonomialBasis
    vectors: list
    signs: list
    exact: bool = False

    def __post_init__(self):
        self.signs = [int(s) for s in self.signs]
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +-1")
        if len(self.signs) != len(self.vectors):
            raise DimensionMismatch("one sign per form required")
        n = len(self.basis)
        if any(len(vec) != n for vec in self.vectors):
            raise DimensionMismatch(
                "vector lengths %r do not match the basis size %d"
                % ([len(vec) for vec in self.vectors], n)
            )

    @property
    def nforms(self):
        return len(self.vectors)

    def gram(self):
        """Canonical Gram matrix (float)."""
        vectors = np.asarray(self.vectors, dtype=float).reshape(self.nforms, len(self.basis))
        return gram_stack(vectors[None], np.array([self.signs]))[0]

    def gram_exact(self):
        if not self.exact:
            raise ValueError("representation is not exact")
        n = len(self.basis)
        G = [[Fraction(0)] * n for _ in range(n)]
        for sign, vec in zip(self.signs, self.vectors):
            for a in range(n):
                if vec[a] == 0:
                    continue
                for b in range(n):
                    G[a][b] += sign * vec[a] * vec[b]
        return G

    def to_json(self):
        def vec_json(vec):
            if self.exact:
                return [{"num": c.numerator, "den": c.denominator} for c in vec]
            return [float(c) for c in vec]

        return {
            "basis": [list(m) for m in self.basis.monomials],
            "varNames": list(self.basis.var_names),
            "vectors": [vec_json(v) for v in self.vectors],
            "signs": list(self.signs),
            "exact": self.exact,
        }

    @classmethod
    def from_json(cls, data):
        """Read to_json's layout; without "exact" (earlier releases) it is
        inferred: exact when every coefficient is a num/den pair.  Raises
        ValueError when a sign or a basis exponent is not an integer, or a
        vector entry neither a number (true is not one) nor a num/den pair."""
        basis = basis_from_json(data)
        vectors = []
        rational = True
        for raw in data["vectors"]:
            vec = []
            for c in raw:
                if isinstance(c, dict):
                    vec.append(rational_from_json(c))
                elif _is_number(c):
                    vec.append(float(c))
                    rational = False
                else:
                    raise ValueError("vector entry %r is not a number" % (c,))
            vectors.append(vec)
        exact = bool(data.get("exact", rational))
        if exact and not rational:
            raise ValueError("an exact representation holds float coefficients")
        return cls(
            basis=basis,
            vectors=vectors,
            signs=[_integer(s) for s in data["signs"]],
            exact=exact,
        )


def gram_stack(vectors, signs):
    """The canonical Gram matrices of (C, k, n) vectors with (C, k) signs.

    Each is sum_i sign_i v_i v_i^T, summed elementwise over i in order;
    Representation.gram is the one-row case, so a stacked matrix has the
    bits of gram() on the representation of its row; the census compares
    and verifies the rows of such stacks.
    """
    grams = np.zeros((len(vectors),) + vectors.shape[2:] * 2)
    for v, s in zip(vectors.transpose(1, 0, 2), signs.T):
        grams += (s[:, None] * v)[:, :, None] * v[:, None, :]
    return grams


def extract_representation(space, G):
    """Signed linear forms from a real symmetric fiber point, by eigenpairs.

    Eigenvalues are sorted by descending absolute value; those within
    RANK_TOL of the spectral radius are dropped, and each kept form is
    sqrt(|lambda|) times its unit eigenvector with the first significant
    coefficient made positive.  Raises NotInFiber when G misses the form by
    more than FIBER_TOL relative to its largest coefficient.
    """
    G = np.asarray(G)
    if np.iscomplexobj(G):
        if np.max(np.abs(G.imag)) > RANK_TOL * max(1.0, np.max(np.abs(G))):
            raise NonSymmetric("extraction needs a real symmetric matrix")
        G = G.real
    resid = float(space.fiber_residual(G))
    if resid > FIBER_TOL * max(1.0, float(space.form.max_abs_coeff())):
        raise NotInFiber("fiber residual %.3e exceeds tolerance" % resid)
    evals, evecs = np.linalg.eigh(0.5 * (G + G.T))
    order = np.argsort(-np.abs(evals), kind="stable")
    smax = max(np.max(np.abs(evals)), 1e-300)
    vectors = []
    signs = []
    for idx in order:
        lam = evals[idx]
        if abs(lam) <= RANK_TOL * smax:
            continue
        vec = np.sqrt(abs(lam)) * evecs[:, idx]
        vmax = np.max(np.abs(vec))
        for entry in vec:
            if abs(entry) > 1e-9 * vmax:
                if entry < 0:
                    vec = -vec
                break
        vectors.append(vec)
        signs.append(1 if lam > 0 else -1)
    return Representation(basis=space.basis, vectors=vectors, signs=signs, exact=False)


def basis_from_json(data):
    """The MonomialBasis that a report writes as "basis" and "varNames"."""
    monos = tuple(tuple(_integer(e) for e in m) for m in data["basis"])
    names = tuple(data["varNames"])
    return MonomialBasis(monos, len(names), names)


def verify_representation(f, rep):
    """max |coefficient of f - sum sign_i l_i^2|; exact zero in rational mode."""
    return gram_residual(f, rep.basis, rep.gram_exact() if rep.exact else rep.gram())


def equivalent(G1, G2):
    """Whether two float Gram matrices agree within EQUIVALENT_TOL * max(1, every |entry|)."""
    scale = max(1.0, float(np.max(np.abs(G1))), float(np.max(np.abs(G2))))
    return bool(np.max(np.abs(G1 - G2)) <= EQUIVALENT_TOL * scale)
