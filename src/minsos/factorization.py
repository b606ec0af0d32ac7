"""Factorization of psd bivariate matrix polynomials as A = B B^T.

A symmetric n x n matrix A of homogeneous binary forms with deg a_ij =
d_i + d_j defines a quadratic form f = sum a_ij X_i X_j on the prism over
the standard (n-1)-simplex truncated at heights d_i (for n = 2 this is the
rational normal scroll, or the cone when a height is 0).  PrismSpec, in
minsos.surfaces, owns that layout for matrices, scrolls and cones alike.  A
psd point of the Gram family of f is found by alternating projections, or
by Douglas-Rachford reflections when their budget runs out, and taken to a
fiber point G = L L^T with L real and n+1 columns wide by Gauss-Newton on
L; that point is read off columnwise as the factor B with n+1 columns and
row degrees d_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .biform import COMPLEX, BinaryForm
from .binary_sos import _conjugate_choice_rep, _nonnegative, rep_forms, rnc_basis, roots
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
        """Read {"n", "entries": {"i,j": form}}; ValueError unless entries is an object."""
        n = int(data["n"])
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
    """Row degrees (d_1..d_n) with d_i = deg(a_ii) / 2.

    Verifies that every off-diagonal entry is zero or homogeneous of degree
    d_i + d_j; a violation means A cannot be psd for all (s, t) (the 2 x 2
    minor a_ii a_jj - a_ij^2 would have a negative leading term).
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
    for i in range(n):
        for j in range(i + 1, n):
            entry = A.entries[i][j]
            if entry.is_zero():
                continue
            if entry.deg != heights[i] + heights[j]:
                raise OffDiagonalDegreeMismatch(
                    "entry (%d,%d) has degree %d, expected %d"
                    % (i, j, entry.deg, heights[i] + heights[j])
                )
    return tuple(heights)


def embed(A):
    """The quadratic form f = sum a_ij X_i X_j on the prism of A.

    Returns (spec, f): spec is PrismSpec(degree_pattern(A)) and f is
    spec.form of the upper entries of A.
    """
    heights = degree_pattern(A)
    n = A.n
    if n < 2:
        raise DimensionMismatch(
            "1 x 1 matrices are binary forms; use the two-squares enumeration"
        )
    spec = PrismSpec(heights)
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
    rounds taken and the distance of each.

    Raises IterationBudgetExceeded with the final gap when FEAS_FIRST_BUDGET
    rounds run out (the gap certifies how infeasible the pair of sets still
    looks).
    """
    G = space.project_fiber(space.G0_f)
    distances = []
    for iteration in range(FEAS_FIRST_BUDGET):
        evals, evecs = np.linalg.eigh(G)
        smax = max(float(np.max(np.abs(evals))), 1e-300)
        lam_min = float(evals[0])
        if lam_min >= -FEAS_TOL * smax:
            return G, {"iterations": iteration, "distances": distances}
        clipped = evecs @ np.diag(np.maximum(evals, 0.0)) @ evecs.T
        distances.append(float(np.linalg.norm(G - clipped)))
        G = space.project_fiber(clipped)
    gap = distances[-1] if distances else 0.0
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
                return x, {"iterations": iteration, "method": "reflections"}
    raise IterationBudgetExceeded(FEAS_BUDGET, gap)


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


def _column_from_vector(vec, spec):
    """Split a prism-basis coefficient vector into per-row binary forms."""
    out = []
    pos = 0
    for d in spec.heights:
        coeffs = [float(vec[pos + j]) for j in range(d + 1)]
        out.append(BinaryForm(coeffs, d))
        pos += d + 1
    return out


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
    return _columns_residual(f, basis, columns)


def _columns_residual(f, basis, columns):
    """max |coefficient of f - sum_c c^2| with each column c read over basis."""
    vectors = [[complex(c).real for form in col for c in form.coeffs] for col in columns]
    rep = Representation(basis=basis, vectors=vectors, signs=[1] * len(vectors))
    return verify_representation(f, rep)


def factor(A):
    """Factor a psd bivariate matrix polynomial as A = B B^T, B n x (n+1).

    Pipeline: psd screen over directions of P^1 (check_psd_on_grid), prism
    embedding, Gram space, alternating projections to a psd fiber point
    (psd_feasible, then _feasible_reflections when its budget runs out),
    rank reduction to n+1 (rank_reduce: Gauss-Newton on the factor L of
    G = L L^T), column extraction, and the residual of the columns against
    the form and basis of the Gram space.  When rank_reduce raises
    StuckAboveTarget, the psd fiber point is factored as it stands and
    returned with a warning; its extra columns still certify psd-ness.

    Raises NotPSD (with witness) or IterationBudgetExceeded.
    """
    if A.n == 1:
        return _factor_binary(A)
    check_psd_on_grid(A)
    spec, space = prism_gram_space(A)
    try:
        G, info = psd_feasible(space)
    except IterationBudgetExceeded:
        G, info = _feasible_reflections(space)
    target = spec.target_rank
    warning = None
    try:
        G = rank_reduce(space, G, target)
    except StuckAboveTarget as exc:
        warning = (
            "rank reduction stalled at %d (target %d); emitting extra columns"
            % (exc.achieved, exc.target)
        )
    rep = extract_representation(space, G)
    if any(s != 1 for s in rep.signs):
        raise NotPSD((0.0, 0.0, "negative eigenvalue in the reduced Gram matrix"))
    columns = [_column_from_vector(vec, spec) for vec in rep.vectors]
    rank = len(columns)
    while len(columns) < target:
        columns.append(
            [BinaryForm.zero(d, field=COMPLEX) for d in spec.heights]
        )
    return FactorResult(
        heights=spec.heights,
        columns=columns,
        residual=_columns_residual(space.form, space.basis, columns),
        rank=rank,
        warning=warning,
        info={"feasIterations": info["iterations"]},
    )


def _factor_binary(A):
    """n = 1: a sum of two squares of the single entry.

    Its columns are p and q with p + i q = sqrt(lead) * (half of each real
    root) * (the conjugate root of each pair, with full multiplicity).
    """
    form = A.entries[0][0]
    if form.deg % 2 == 1:
        raise OddDiagonalDegree("entry has odd degree %d" % form.deg)
    d = form.deg // 2
    if form.is_zero():
        # a zero row has height 0 in degree_pattern, as for n >= 2
        zero = BinaryForm.zero(0, field=COMPLEX)
        return FactorResult(heights=(0,), columns=[[zero], [zero]], residual=0.0, rank=0)
    rm = roots(form)
    if not _nonnegative(rm):
        raise NotPSD((None, None, "the form takes negative values"))
    choice = [(value, mult // 2) for value, mult in rm.real_roots]
    choice += [(value.conjugate(), mult) for value, mult in rm.pairs]
    p, q = rep_forms(_conjugate_choice_rep(rm, choice))
    return FactorResult(
        heights=(d,),
        columns=[[p], [q]],
        residual=factor_residual(A, [[p], [q]]),
        rank=2 if not q.is_zero() else 1,
        warning=None,
    )
