"""Gram matrices of quadratic forms on surfaces of minimal degree.

The affine space of Gram matrices of a form f over a monomial basis m is
{G : m^T G m = f}.  Each entry G[a, b] lands on the single monomial
m_a * m_b, so the space is read off the basis's pair map in closed form, as
an exact rational particular solution G0 plus a kernel basis K_1..K_k.
Rank-r points of this space are exactly the representations of f as a
signed sum of r squares, extracted here by eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .biform import COMPLEX, TermPoly
from .errors import (
    DimensionMismatch,
    NonSymmetric,
    NotAQuadraticForm,
    NotInFiber,
)
from .surfaces import MonomialBasis, monomial_basis

# relative thresholds: an eigenvalue counts when it exceeds RANK_TOL times
# the spectral radius; a fiber point may miss the form by FIBER_TOL
RANK_TOL = 1e-8
FIBER_TOL = 1e-8


def _form_terms(form):
    """Exponent map of a TermPoly or BinaryForm with real coefficients."""
    if form.field != COMPLEX:
        return form.terms
    if any(coeff.imag for coeff in form.terms.values()):
        raise NotAQuadraticForm("form has non-real coefficients")
    return {expo: coeff.real for expo, coeff in form.terms.items()}


def gram_residual(f, basis, G):
    """max |coefficient of m^T G m - f| over the monomials of 2P and of f.

    Exact (zero for a fiber point) when G is given as rows of rationals,
    float when G is a numpy array.  A coefficient of f outside 2P counts
    with its full size.
    """
    pairs = basis.pair_map
    exact = not isinstance(G, np.ndarray)
    if exact:
        diff = [0] * len(pairs.monomials)
        for r, m, a, b in zip(pairs.row, pairs.mult, pairs.a, pairs.b):
            diff[r] += m * G[a][b]
    else:
        diff = np.bincount(
            pairs.row,
            weights=pairs.mult * G[pairs.a, pairs.b],
            minlength=len(pairs.monomials),
        ).tolist()
    outside = 0
    for expo, c in _form_terms(f).items():
        r = pairs.index.get(expo)
        if r is None:
            outside = max(outside, abs(c))
        else:
            diff[r] -= c
    resid = max([outside] + [abs(v) for v in diff])
    return resid if exact else float(resid)


@dataclass
class GramSpace:
    """Affine family G(theta) = G0 + sum theta_i K_i of Gram matrices."""

    basis: MonomialBasis
    form: object
    G0: list  # exact rational rows
    kernel: list  # list of exact rational matrices
    surface: object = None

    def __post_init__(self):
        n = len(self.basis)
        k = len(self.kernel)
        self.G0_f = np.array([[float(v) for v in row] for row in self.G0])
        # the fiber map: row i is vec(K_i); K^T = Q R once, so projections
        # and coordinates are matrix products and a k x k solve
        self.kernel_flat = np.array(
            [[float(v) for row in K for v in row] for K in self.kernel]
        ).reshape(k, n * n)
        self.kernel_f = self.kernel_flat.reshape(k, n, n)
        self._Q, self._R = np.linalg.qr(self.kernel_flat.T)

    @property
    def size(self):
        return len(self.basis)

    @property
    def kdim(self):
        return len(self.kernel)

    def gram_at(self, theta):
        """G(theta) as a numpy array (complex when theta is complex)."""
        theta = np.asarray(theta)
        if theta.shape != (self.kdim,):
            raise DimensionMismatch(
                "theta has shape %r, expected (%d,)" % (theta.shape, self.kdim)
            )
        return self.G0_f + (theta @ self.kernel_flat).reshape(self.G0_f.shape)

    def gram_at_exact(self, theta):
        """G(theta) as exact rational rows; theta entries must be rational."""
        if len(theta) != self.kdim:
            raise DimensionMismatch("theta length %d != k = %d" % (len(theta), self.kdim))
        n = self.size
        G = [[Fraction(v) for v in row] for row in self.G0]
        for t, K in zip(theta, self.kernel):
            t = Fraction(t)
            for a in range(n):
                for b in range(n):
                    G[a][b] += t * K[a][b]
        return G

    def fiber_residual(self, G):
        """max |coefficient of m^T G m - f| (exact zero for exact fiber points)."""
        return gram_residual(self.form, self.basis, G)

    def project_fiber(self, G):
        """Orthogonal (Frobenius) projection of a symmetric G onto the fiber."""
        diff = (np.asarray(G, dtype=float) - self.G0_f).reshape(-1)
        return self.G0_f + (self._Q @ (self._Q.T @ diff)).reshape(self.G0_f.shape)

    def fiber_coordinates(self, G):
        """Least-squares theta with G approx G0 + sum theta_i K_i."""
        diff = (np.asarray(G, dtype=float) - self.G0_f).reshape(-1)
        return np.linalg.solve(self._R, self._Q.T @ diff)

    def form_norm(self):
        return max((abs(float(v)) for v in _form_terms(self.form).values()), default=0.0)

    def to_json(self):
        def mat(rows):
            return [
                [{"num": v.numerator, "den": v.denominator} for v in row]
                for row in rows
            ]

        data = {
            "basis": [list(m) for m in self.basis.monomials],
            "varNames": list(self.basis.var_names),
            "k": self.kdim,
            "G0": mat(self.G0),
            "kernel": [mat(K) for K in self.kernel],
        }
        if self.surface is not None:
            data["surface"] = self.surface.to_json()
        if isinstance(self.form, TermPoly):
            data["form"] = self.form.to_json()
        return data


def solve_affine(pairs, rhs):
    """Solve sum over p of mult[p] * u[p] = rhs[row[p]] for vech(G) exactly.

    Every pair lands on one monomial, so the equations share no unknown.
    The particular solution puts rhs of each monomial on the first pair of
    that monomial (np.triu_indices order), divided by the pair's mult; every
    further pair p spans one kernel vector, 1 at p and -mult[p] / mult[first]
    at the first pair, in pair order.  Returns (particular, kernel) as lists
    of Fractions over the pairs.
    """
    npairs = len(pairs.row)
    particular = [Fraction(0)] * npairs
    kernel = []
    first = {}
    for p, (r, m) in enumerate(zip(pairs.row.tolist(), pairs.mult.tolist())):
        q = first.setdefault(r, p)
        if q == p:
            particular[p] = rhs[r] / m
            continue
        vec = [Fraction(0)] * npairs
        vec[p] = Fraction(1)
        vec[q] = Fraction(-m, int(pairs.mult[q]))
        kernel.append(vec)
    return particular, kernel


def gram_space_from_basis(form, basis, surface=None):
    """Solve m^T G m = f exactly for symmetric G over the given basis."""
    form_terms = _form_terms(form)
    if form.nvars != basis.nvars:
        raise NotAQuadraticForm(
            "form arity %d != basis arity %d" % (form.nvars, basis.nvars)
        )
    n = len(basis)
    pairs = basis.pair_map
    unreachable = [key for key in form_terms if key not in pairs.index]
    if unreachable:
        raise NotAQuadraticForm(
            "form has monomials outside the doubled polytope: %r" % unreachable[:3]
        )
    rhs = [Fraction(form_terms.get(key, 0)) for key in pairs.monomials]
    particular, null_basis = solve_affine(pairs, rhs)

    def unflatten(vec):
        M = [[Fraction(0)] * n for _ in range(n)]
        for a, b, value in zip(pairs.a, pairs.b, vec):
            M[a][b] = value
            M[b][a] = value
        return M

    G0 = unflatten(particular)
    kernel = [unflatten(vec) for vec in null_basis]
    return GramSpace(basis=basis, form=form, G0=G0, kernel=kernel, surface=surface)


def build_gram_space(f, spec):
    """Gram space of a quadratic form on a surface of minimal degree."""
    basis = monomial_basis(spec)
    return gram_space_from_basis(f, basis, surface=spec)


def inertia(G):
    """(nPlus, nMinus, nZero) eigenvalue counts of a real symmetric matrix.

    An eigenvalue counts as zero within RANK_TOL of the spectral radius.
    """
    if isinstance(G, (list, tuple)):
        G = np.array([[float(v) for v in row] for row in G])
    G = np.asarray(G)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise NonSymmetric("inertia needs a square matrix")
    if np.iscomplexobj(G):
        if np.max(np.abs(G.imag)) > 0:
            raise NonSymmetric("inertia is defined for real symmetric matrices")
        G = G.real
    scale = max(1e-300, float(np.max(np.abs(G))))
    if np.max(np.abs(G - G.T)) > 1e-12 * scale:
        raise NonSymmetric("matrix is not symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (G + G.T))
    smax = max(np.max(np.abs(eigs)), 1e-300)
    nplus = int(np.sum(eigs > RANK_TOL * smax))
    nminus = int(np.sum(eigs < -RANK_TOL * smax))
    return (nplus, nminus, len(eigs) - nplus - nminus)


@dataclass
class Representation:
    """Signed sum of squares f = sum_i sign_i * l_i^2.

    Forms are stored as coefficient vectors over the owning basis (exact
    rational lists or float arrays).  The canonical Gram matrix
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
        n = len(self.basis)
        G = np.zeros((n, n))
        for sign, vec in zip(self.signs, self.vectors):
            v = np.array([float(c) for c in vec])
            G += sign * np.outer(v, v)
        return G

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

    def is_psd(self):
        return all(s == 1 for s in self.signs)

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
        inferred: exact when every coefficient is a num/den pair."""
        monos = tuple(tuple(int(e) for e in m) for m in data["basis"])
        names = tuple(data["varNames"])
        basis = MonomialBasis(monos, len(names), names)
        vectors = []
        rational = True
        for raw in data["vectors"]:
            vec = []
            for c in raw:
                if isinstance(c, dict):
                    vec.append(Fraction(int(c["num"]), int(c.get("den", 1))))
                else:
                    vec.append(float(c))
                    rational = False
            vectors.append(vec)
        exact = bool(data.get("exact", rational))
        if exact and not rational:
            raise ValueError("an exact representation holds float coefficients")
        return cls(
            basis=basis,
            vectors=vectors,
            signs=[int(s) for s in data["signs"]],
            exact=exact,
        )


def extract_representation(space, G):
    """Signed linear forms from a real symmetric fiber point, by eigenpairs.

    Eigenvalues are sorted by descending absolute value; those within
    RANK_TOL of the spectral radius are dropped, and each kept form is
    sqrt(|lambda|) times its unit eigenvector with the first significant
    coefficient made positive.  Raises NotInFiber when G misses the form by
    more than FIBER_TOL relative to its largest coefficient.
    """
    if isinstance(G, (list, tuple)):
        G = np.array([[float(v) for v in row] for row in G])
    G = np.asarray(G)
    if np.iscomplexobj(G):
        if np.max(np.abs(G.imag)) > RANK_TOL * max(1.0, np.max(np.abs(G))):
            raise NonSymmetric("extraction needs a real symmetric matrix")
        G = G.real
    resid = float(space.fiber_residual(G))
    if resid > FIBER_TOL * max(1.0, float(space.form_norm())):
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


def verify_representation(f, rep):
    """max |coefficient of f - sum sign_i l_i^2|; exact zero in rational mode."""
    return gram_residual(f, rep.basis, rep.gram_exact() if rep.exact else rep.gram())


def equivalent(rep1, rep2, tol=1e-8):
    """Equality of the canonical Gram matrices, within tol (exact if possible)."""
    if rep1.basis.monomials != rep2.basis.monomials:
        return False
    if rep1.exact and rep2.exact:
        G1, G2 = rep1.gram_exact(), rep2.gram_exact()
        return all(
            G1[a][b] == G2[a][b] for a in range(len(G1)) for b in range(len(G1))
        )
    G1, G2 = rep1.gram(), rep2.gram()
    scale = max(1.0, float(np.max(np.abs(G1))), float(np.max(np.abs(G2))))
    return bool(np.max(np.abs(G1 - G2)) <= tol * scale)
