"""Factorization of psd bivariate matrix polynomials as A = B B^T.

A symmetric n x n matrix A of homogeneous binary forms with deg a_ij =
d_i + d_j defines a quadratic form f = sum a_ij X_i X_j on the prism over
the standard (n-1)-simplex truncated at heights d_i (for n = 2 this is the
rational normal scroll, or the cone when a height is 0).  PrismSpec, in
minsos.surfaces, owns that layout for matrices, scrolls and cones alike.

factor runs four steps in order: the degrees (degree_pattern, then
PrismSpec.form for the off-diagonal entries), the psd screen over
directions of P^1, a psd point of the Gram family of f, and reduction
(Gauss-Newton on L to a fiber point G = L L^T, L real and n+1 columns
wide).  The psd point comes from one of two routes.  The branch route
(n = 2 with det A square-free and free of real roots) builds a psd rank-3
class outright from the roots of det A, where A drops rank: the branch
points of the curve f = 0 over P^1.  The Gram route (every other input)
reaches a psd point by alternating projections or, when their budget runs
out, Douglas-Rachford reflections.  For n = 1 the roots of the entry give
two squares instead.
Every route ends in one finish, _result, which reads the psd
representation off as B with n+1 columns and row degrees d_i, and records
the route in FactorResult.info.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .biform import COMPLEX, BinaryForm, _integer
from .binary_sos import _conjugate_choice_rep, _nonnegative, rnc_basis, roots
from .errors import (
    DimensionMismatch,
    IterationBudgetExceeded,
    NonSymmetric,
    NotPSD,
    OddDiagonalDegree,
    OffDiagonalDegreeMismatch,
    StuckAboveTarget,
)
from .gram import (
    FIBER_TOL,
    Representation,
    extract_representation,
    gram_space_from_basis,
    inertia,
    verify_representation,
)
from .surfaces import PrismSpec

FEAS_TOL = 1e-10
# alternating projections get FEAS_FIRST_BUDGET rounds before factor falls
# back to the reflections, which get FEAS_BUDGET
FEAS_FIRST_BUDGET = 20_000
FEAS_BUDGET = 100_000
# the psd screen: directions theta = j pi / PSD_DIRECTIONS of P^1, and a
# negative eigenvalue counts beyond PSD_SCREEN_TOL times the largest coefficient
PSD_DIRECTIONS = 160
PSD_SCREEN_TOL = 1e-9
# rank_reduce: Newton steps, and the residual relative to max(1, |f|)
REDUCE_ITERS = 50
REDUCE_TOL = 1e-13


class SymMatrixPoly:
    """Symmetric matrix of homogeneous binary forms."""

    def __init__(self, entries):
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise DimensionMismatch("entries must form a square matrix")
        self.n = n
        self.entries = [list(row) for row in entries]
        for i in range(n):
            for j in range(n):
                a, b = self.entries[i][j], self.entries[j][i]
                same = a.deg == b.deg and all(
                    x == y for x, y in zip(a.coeffs, b.coeffs)
                )
                if not same and not (a.is_zero() and b.is_zero()):
                    raise NonSymmetric("entries (%d,%d) and (%d,%d) differ" % (i, j, j, i))

    def max_abs_coeff(self):
        out = 0.0
        for row in self.entries:
            for entry in row:
                out = max(out, float(entry.max_abs_coeff()))
        return out

    def evaluate(self, s, t):
        """A(s, t) as a float array of shape (..., n, n).

        s and t are scalars or arrays of one shape.  Entry (i, j) is the
        real part of its coefficients contracted with the power table
        s^k t^(d - k), d = deg a_ij: one product over every point, so a
        scalar call gives the n x n matrix A(s, t).
        """
        top = max(e.deg for row in self.entries for e in row)
        coeffs = np.zeros((self.n, self.n, top + 1, top + 1))
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                for k, c in enumerate(e.coeffs):
                    coeffs[i, j, k, e.deg - k] = complex(c).real
        powers = np.arange(top + 1)
        spow = np.asarray(s, dtype=float)[..., None] ** powers
        tpow = np.asarray(t, dtype=float)[..., None] ** powers
        return np.einsum("...k,...l,ijkl->...ij", spow, tpow, coeffs)

    def to_json(self):
        out = {}
        for i in range(self.n):
            for j in range(i, self.n):
                if not self.entries[i][j].is_zero():
                    out["%d,%d" % (i, j)] = self.entries[i][j].to_json()
        return {"n": self.n, "entries": out}

    @classmethod
    def from_upper(cls, n, upper):
        """Build from a dict {(i, j): BinaryForm} over i <= j."""
        entries = [[None] * n for _ in range(n)]
        for (i, j), form in upper.items():
            entries[i][j] = form
            entries[j][i] = form
        degs = [
            max((upper[key].deg for key in upper if i in key), default=0)
            for i in range(n)
        ]
        for i in range(n):
            for j in range(n):
                if entries[i][j] is None:
                    entries[i][j] = BinaryForm.zero(degs[i])
        return cls(entries)

    @classmethod
    def from_json(cls, data):
        """Read {"n", "entries": {"i,j": form}}; ValueError unless n is an
        integer and data and entries are objects."""
        if not isinstance(data, dict):
            raise ValueError("matrix %r is not an object" % (data,))
        n = _integer(data["n"])
        entries = data.get("entries", {})
        if not isinstance(entries, dict):
            raise ValueError("entries %r is not an object" % (entries,))
        upper = {}
        for key, value in entries.items():
            i, j = sorted(int(p) for p in key.split(","))
            if i < 0 or j >= n:
                raise DimensionMismatch(
                    "entry %s lies outside the %d x %d matrix" % (key, n, n)
                )
            form = BinaryForm.from_json(value)
            if upper.setdefault((i, j), form) != form:
                raise NonSymmetric("entry %s differs from its transpose" % key)
        return cls.from_upper(n, upper)


def degree_pattern(A):
    """Row degrees (d_1..d_n) with d_i = deg(a_ii) / 2, and 0 for a zero row.

    Raises OddDiagonalDegree for a diagonal entry of odd degree, and
    OffDiagonalDegreeMismatch for a zero diagonal entry in a nonzero row.
    The off-diagonal degrees d_i + d_j are PrismSpec.form's to check.
    """
    n = A.n
    heights = []
    for i in range(n):
        diag = A.entries[i][i]
        if diag.is_zero():
            if any(not A.entries[i][j].is_zero() for j in range(n)):
                raise OffDiagonalDegreeMismatch(
                    "zero diagonal entry (%d,%d) with a nonzero row" % (i, i)
                )
            heights.append(0)
            continue
        if diag.deg % 2 == 1:
            raise OddDiagonalDegree(
                "diagonal entry (%d,%d) has odd degree %d" % (i, i, diag.deg)
            )
        heights.append(diag.deg // 2)
    return tuple(heights)


def embed(A):
    """The quadratic form f = sum a_ij X_i X_j on the prism of A.

    Returns (spec, f): spec is PrismSpec(degree_pattern(A)), which needs
    n >= 2, and f is spec.form of the upper entries of A.
    """
    n = A.n
    spec = PrismSpec(degree_pattern(A))
    return spec, spec.form({(i, j): A.entries[i][j] for i in range(n) for j in range(i, n)})


def prism_gram_space(A):
    spec, f = embed(A)
    return spec, gram_space_from_basis(f, spec.basis())


def psd_feasible(space):
    """A psd point of the Gram fiber, by alternating projections.

    Alternates eigenvalue clipping (projection onto the psd cone) with the
    orthogonal projection back onto the affine fiber.  The iterate always
    lies exactly on the fiber; it is returned once its smallest eigenvalue
    clears -FEAS_TOL relative to the spectral radius.  The distance moved
    per round is monotonically nonincreasing.  Returns (G, info) with the
    rounds taken.

    Raises IterationBudgetExceeded with the last distance moved as its gap
    when FEAS_FIRST_BUDGET rounds run out (the gap certifies how infeasible
    the pair of sets still looks).
    """
    G = space.project_fiber(space.G0_f)
    gap = 0.0
    for iteration in range(FEAS_FIRST_BUDGET):
        evals, evecs = np.linalg.eigh(G)
        smax = max(float(np.max(np.abs(evals))), 1e-300)
        lam_min = float(evals[0])
        if lam_min >= -FEAS_TOL * smax:
            return G, {"iterations": iteration}
        clipped = evecs @ np.diag(np.maximum(evals, 0.0)) @ evecs.T
        gap = float(np.linalg.norm(G - clipped))
        G = space.project_fiber(clipped)
    raise IterationBudgetExceeded(FEAS_FIRST_BUDGET, gap)


def _psd_clip(G):
    evals, evecs = np.linalg.eigh(G)
    return (evecs * np.maximum(evals, 0.0)) @ evecs.T


def _feasible_reflections(space):
    """Douglas-Rachford feasibility fallback for near-tangential fibers.

    Plain alternating projections converge arbitrarily slowly when the
    fiber meets the psd cone at a shallow angle; the reflection iteration
    z <- z + P_fiber(2 P_psd(z) - z) - P_psd(z) is far less sensitive.
    Returns (G, info) with G a fiber point with lambda_min >= -FEAS_TOL *
    spectral radius; raises IterationBudgetExceeded after FEAS_BUDGET rounds.
    """
    z = np.asarray(space.G0_f, dtype=float).copy()
    check_every = 8
    gap = np.inf
    for iteration in range(FEAS_BUDGET):
        y = _psd_clip(z)
        w = space.project_fiber(2.0 * y - z)
        z = z + w - y
        if iteration % check_every == 0:
            x = space.project_fiber(y)
            evals = np.linalg.eigvalsh(x)
            smax = max(float(np.max(np.abs(evals))), 1e-300)
            gap = max(0.0, -float(evals[0]))
            if evals[0] >= -FEAS_TOL * smax:
                return x, {"iterations": iteration}
    raise IterationBudgetExceeded(FEAS_BUDGET, gap)


def _branch_class(spec, space):
    """One psd rank-3 Gram point for n = 2, from the branch points of det M.

    M = [[c, b], [b, a]] is the exact matrix of the form; returns None
    unless det M = a c - b^2 has 2g + 2 simple roots, all in conjugate
    pairs.  A linear form p X_1 + q X_2 in the image of a class has the
    norm a p^2 - 2 b p q + c q^2 = psi^2, and M has rank 1 at a root r, so
    psi(r) sqrt(c(r)) = eps (b p - c q)(r), or psi(r) sqrt(a(r)) =
    eps (a p - b q)(r) where |a(r)| > |c(r)|.  eps = +1 at each root r of
    rm.pairs (Im > 0) and -1 at its conjugate picks a psd class, and then
    (p, q, psi) -> (conj p, conj q, -conj psi) maps the solutions onto
    themselves.  So with p, q real and psi = i phi, phi real, the real and
    imaginary parts of the g + 1 equations at the r alone have a
    3-dimensional null space.  Its (p, q) rows N span the image, and the
    symmetric Q of G = N^T Q N comes from one least squares solve of the
    coefficients of G against f.

    Returns (G, info) with the route, the smallest root separation of det M
    and the residual of that solve.  Also None when the residual exceeds
    FIBER_TOL relative to f, as where two roots of det M nearly meet.
    """
    M = spec.matrix(space.form)
    # M times the common denominator of its entries, over the integers: the
    # scale moves neither the roots of det M nor the null space below
    den = math.lcm(*(x.denominator for form in M.values() for x in form.coeffs))
    c, b, a = (
        np.array([int(x * den) for x in M[key].coeffs], dtype=object)
        for key in ((0, 0), (0, 1), (1, 1))
    )
    det = BinaryForm((np.convolve(c, a) - np.convolve(b, b)).tolist())
    if det.is_zero():
        return None
    rm = roots(det)
    if rm.inf_mult or rm.real_roots or not rm.pairs or any(m != 1 for _, m in rm.pairs):
        return None
    r = np.array([value for value, _ in rm.pairs])
    av, bv, cv = (np.polyval(x[::-1].astype(float), r) for x in (a, b, c))
    swap = np.abs(av) > np.abs(cv)
    d1, d2 = spec.heights
    powers = r[:, None] ** np.arange(d1 + d2 + 1)
    rows = np.hstack([
        np.where(swap, av, bv)[:, None] * powers[:, :d1 + 1],
        -np.where(swap, bv, cv)[:, None] * powers[:, :d2 + 1],
        -1j * np.sqrt(np.where(swap, av, cv))[:, None] * powers,
    ])
    # unit rows, or the powers of roots far from the unit circle swamp the rest
    rows /= np.max(np.abs(rows), axis=1, keepdims=True)
    N = np.linalg.svd(np.vstack([rows.real, rows.imag]))[2][-3:, :d1 + d2 + 2]
    pairs = space.basis.pair_map
    k, l = np.triu_indices(3)
    # column j: the coefficients of N^T (E + E^T) N, E the unit at (k[j], l[j])
    C = np.stack(
        [pairs.coefficients(np.outer(N[i], N[j]) + np.outer(N[j], N[i])) for i, j in zip(k, l)],
        axis=1,
    )
    want = pairs.coefficients(space.G0_f)
    E = np.zeros((3, 3))
    E[k, l] = np.linalg.lstsq(C, want, rcond=None)[0]
    residual = float(np.max(np.abs(C @ E[k, l] - want)))
    if residual > FIBER_TOL * max(1.0, float(space.form.max_abs_coeff())):
        return None
    every = np.concatenate([r, r.conj()])
    gaps = np.abs(every[:, None] - every[None, :])[~np.eye(len(every), dtype=bool)]
    info = {"route": "branch", "rootSeparation": float(gaps.min()), "classResidual": residual}
    return N.T @ (E + E.T) @ N, info


def rank_reduce(space, G, target_rank):
    """A psd fiber point of rank <= target_rank, as L L^T with L real.

    Gauss-Newton on the N x target_rank factor L (Burer & Monteiro's
    substitution): the residual is the pair-map coefficients of L L^T minus
    those of the fiber, and pair p contributes mult[p] * L[b[p]] at a[p] and
    mult[p] * L[a[p]] at b[p] to its row of the Jacobian.  For a prism the
    system is square up to the O(target_rank) gauge L -> L Q, which the
    minimum-norm least-squares step absorbs.  Every real solution is psd by
    construction.  L starts at the leading eigenpairs of G, eigenvalues
    clipped at 0, and Newton stops once the residual is within REDUCE_TOL
    of the form's largest coefficient.

    Raises StuckAboveTarget with the rank of G when REDUCE_ITERS steps run
    out or L leaves the finite numbers.
    """
    pairs = space.basis.pair_map
    want = pairs.coefficients(space.G0_f)
    tol = REDUCE_TOL * max(1.0, float(space.form.max_abs_coeff()))
    evals, evecs = np.linalg.eigh(G)
    L = evecs[:, -target_rank:] * np.sqrt(np.maximum(evals[-target_rank:], 0.0))
    for steps in range(REDUCE_ITERS + 1):
        F = pairs.coefficients(L @ L.T) - want
        if np.max(np.abs(F)) <= tol:
            return L @ L.T
        if steps == REDUCE_ITERS or not np.all(np.isfinite(F)):
            break
        J = np.zeros((len(F),) + L.shape)
        np.add.at(J, (pairs.row, pairs.a), pairs.mult[:, None] * L[pairs.b])
        np.add.at(J, (pairs.row, pairs.b), pairs.mult[:, None] * L[pairs.a])
        step, *_ = np.linalg.lstsq(J.reshape(len(F), -1), -F, rcond=None)
        L = L + step.reshape(L.shape)
    raise StuckAboveTarget(inertia(G)[0], target_rank)


@dataclass
class FactorResult:
    """Outcome of a matrix factorization A = B B^T."""

    heights: tuple
    columns: list  # linear forms as rows of per-row BinaryForms
    residual: float
    rank: int
    warning: str | None = None
    info: dict = dataclass_field(default_factory=dict)

    @property
    def n(self):
        return len(self.heights)

    @property
    def ncols(self):
        return len(self.columns)

    def rows(self):
        """B as a list of rows, row i holding degree-d_i forms."""
        return [
            [col[i] for col in self.columns] for i in range(self.n)
        ]

    def to_json(self):
        return {
            "heights": list(self.heights),
            "columns": [
                [form.to_json() for form in col] for col in self.columns
            ],
            "residual": self.residual,
            "rank": self.rank,
            "warning": self.warning,
        }


def _result(heights, form, rep, info, warning=None):
    """The FactorResult of a psd representation rep of form: factor's one finish.

    Each vector of rep splits by heights into one binary form per row; the
    rank counts the nonzero vectors, and zero columns pad B to n+1.  info
    names the route and what it measured.
    """
    if any(s != 1 for s in rep.signs):
        raise NotPSD((0.0, 0.0, "negative eigenvalue in the reduced Gram matrix"))
    starts = [sum(h + 1 for h in heights[:i]) for i in range(len(heights))]
    columns = [
        [BinaryForm([float(c) for c in vec[a:a + d + 1]], d) for a, d in zip(starts, heights)]
        for vec in rep.vectors
    ]
    rank = sum(bool(np.any(vec)) for vec in rep.vectors)
    while len(columns) < len(heights) + 1:
        columns.append([BinaryForm.zero(d, field=COMPLEX) for d in heights])
    residual = verify_representation(form, rep)
    return FactorResult(heights, columns, residual, rank, warning, info)


def check_psd_on_grid(A):
    """Screen A for psd-ness over directions of P^1; raises NotPSD with a witness.

    With deg a_ij = d_i + d_j, A(lambda u, lambda v) = D A(u, v) D for
    D = diag(lambda^d_i), a congruence, so the sign of the smallest
    eigenvalue is constant along each ray through the origin (and equal at
    (u, v) and (-u, -v)).  One point per direction therefore suffices: A is
    evaluated at once at (cos theta_j, sin theta_j), theta_j = j pi /
    PSD_DIRECTIONS, j = 0..PSD_DIRECTIONS-1, and the smallest eigenvalues
    of the stack come from one batched eigvalsh.  The first j whose smallest
    eigenvalue lies below -PSD_SCREEN_TOL times the largest coefficient of A
    raises NotPSD((u_j, v_j, lambda_min)).  This is a screen, not a proof: a
    negative region narrower than the spacing of the directions can pass.
    """
    scale = max(A.max_abs_coeff(), 1e-300)
    theta = np.pi * np.arange(PSD_DIRECTIONS) / PSD_DIRECTIONS
    u, v = np.cos(theta), np.sin(theta)
    lam = np.linalg.eigvalsh(A.evaluate(u, v))[:, 0]
    bad = np.flatnonzero(lam < -PSD_SCREEN_TOL * scale)
    if bad.size:
        j = bad[0]
        raise NotPSD((float(u[j]), float(v[j]), float(lam[j])))


def factor_residual(A, columns):
    """max |coefficient of f - sum_c (sum_i c_i X_i)^2|, f = sum a_ij X_i X_j.

    columns are the columns of B, each a list of one binary form per row
    with the degrees of degree_pattern(A).  Off-diagonal entries count with
    their factor 2 in f.  The check runs over the prism basis, or over the
    rational normal curve basis when n = 1.
    """
    heights = degree_pattern(A)
    for col in columns:
        degs = tuple(form.deg for form in col)
        if degs != heights:
            raise DimensionMismatch(
                "factor column degrees %r differ from the degree pattern %r"
                % (degs, heights)
            )
    if A.n == 1:
        f, basis = A.entries[0][0], rnc_basis(heights[0])
    else:
        spec, f = embed(A)
        basis = spec.basis()
    vectors = [[complex(c).real for form in col for c in form.coeffs] for col in columns]
    return verify_representation(f, Representation(basis, vectors, [1] * len(vectors)))


def factor(A):
    """Factor a psd bivariate matrix polynomial as A = B B^T, B n x (n+1).

    Steps, in order: degrees (prism_gram_space), the psd screen
    (check_psd_on_grid), a psd fiber point, and reduction to rank n+1
    (rank_reduce).  For n = 2 the psd point is the rank-3 class that
    _branch_class builds from the branch points of det A (route "branch");
    when it returns None (n >= 3, or det A zero, not square-free or with a
    real root), feasibility finds one (route "gram": psd_feasible, then
    _feasible_reflections when its budget runs out).  n = 1 goes by the
    roots (_factor_binary, route "roots") instead.  All end in the one
    finish, _result; info holds the route, with feasIterations on the Gram
    route and rootSeparation and classResidual on the branch route.  When
    rank_reduce raises StuckAboveTarget, the psd fiber point is factored as
    it stands, with a warning; its extra columns still certify psd-ness.

    Raises a degree error, NotPSD (with witness) or IterationBudgetExceeded.
    """
    if A.n == 1:
        return _factor_binary(A)
    spec, space = prism_gram_space(A)
    check_psd_on_grid(A)
    branch = _branch_class(spec, space) if A.n == 2 else None
    if branch is not None:
        G, info = branch
    else:
        try:
            G, feas = psd_feasible(space)
        except IterationBudgetExceeded:
            G, feas = _feasible_reflections(space)
        info = {"route": "gram", "feasIterations": feas["iterations"]}
    warning = None
    try:
        G = rank_reduce(space, G, spec.target_rank)
    except StuckAboveTarget as exc:
        warning = (
            "rank reduction stalled at %d (target %d); emitting extra columns"
            % (exc.achieved, exc.target)
        )
    rep = extract_representation(space, G)
    return _result(spec.heights, space.form, rep, info, warning)


def _factor_binary(A):
    """n = 1: a sum of two squares of the single entry.

    Its columns are p and q with p + i q = sqrt(lead) * (half of each real
    root) * (the conjugate root of each pair, with full multiplicity).  A
    zero entry has height 0, as a zero row has for n >= 2.
    """
    heights = degree_pattern(A)
    form = A.entries[0][0]
    info = {"route": "roots"}
    if form.is_zero():
        return _result(heights, form, Representation(rnc_basis(0), [], []), info)
    rm = roots(form)
    if not _nonnegative(rm):
        raise NotPSD((None, None, "the form takes negative values"))
    choice = [(value, mult // 2) for value, mult in rm.real_roots]
    choice += [(value.conjugate(), mult) for value, mult in rm.pairs]
    return _result(heights, form, _conjugate_choice_rep(rm, choice), info)
