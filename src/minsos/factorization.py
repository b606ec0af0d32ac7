"""Factorization of psd bivariate matrix polynomials as A = B B^T.

A symmetric n x n matrix A of homogeneous binary forms with deg a_ij =
d_i + d_j defines a quadratic form f = sum a_ij x_i x_j on the prism over
the standard (n-1)-simplex truncated at heights d_i (for n = 2 this is the
rational normal scroll).  A psd point of the Gram family of f is found by
alternating projections, taken to an isolated psd point of rank n+1 by
alternating rank-(n+1) truncation with the fiber projection and a Newton
polish, and read off columnwise as the factor B with n+1 columns and row
degrees d_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .biform import COMPLEX, BinaryForm, TermPoly
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
    RANK_TOL,
    Representation,
    extract_representation,
    gram_space_from_basis,
    verify_representation,
)
from .surfaces import MonomialBasis

FEAS_TOL = 1e-10
# alternating projections get FEAS_FIRST_BUDGET rounds before factor falls
# back to the reflections, which get FEAS_BUDGET
FEAS_FIRST_BUDGET = 20_000
FEAS_BUDGET = 100_000
# the psd screen: directions theta = j pi / PSD_DIRECTIONS of P^1, and a
# negative eigenvalue counts beyond PSD_SCREEN_TOL times the largest coefficient
PSD_DIRECTIONS = 160
PSD_SCREEN_TOL = 1e-9
REDUCE_BUDGET = 40_000


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
        """A(s, t) as a float matrix."""
        return np.array(
            [[complex(e.eval(s, t)).real for e in row] for row in self.entries]
        )

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
        n = int(data["n"])
        upper = {}
        for key, value in data.get("entries", {}).items():
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


@dataclass(frozen=True)
class PrismSpec:
    """Truncated prism over the standard simplex with integer heights."""

    heights: tuple

    def __post_init__(self):
        if len(self.heights) < 2:
            raise DimensionMismatch("a prism needs at least two heights")
        if any(d < 0 for d in self.heights):
            raise DimensionMismatch("negative prism height")

    @property
    def n(self):
        return len(self.heights)

    @property
    def top(self):
        return max(self.heights)

    @property
    def target_rank(self):
        return self.n + 1

    def basis(self):
        """Degree-one monomials x_i s^j t^(top - j), j <= d_i, as a basis.

        Variables are ordered (s, t, x_1..x_n); the common t-power lifts all
        blocks to the same (s, t)-degree, exactly as for scrolls.
        """
        D = self.top
        monos = []
        for i, d in enumerate(self.heights):
            for j in range(d + 1):
                expo = [j, D - j] + [0] * self.n
                expo[2 + i] = 1
                monos.append(tuple(expo))
        names = ("s", "t") + tuple("x%d" % (i + 1) for i in range(self.n))
        return MonomialBasis(tuple(monos), self.n + 2, names)

    def __str__(self):
        return "prism" + str(tuple(self.heights))


def embed(A):
    """The quadratic form f = sum a_ij x_i x_j on the prism of A.

    Returns (PrismSpec, TermPoly over (s, t, x_1..x_n)).  The (s, t)-degree
    of every term is lifted to 2 * max(d_i) by the same t-power that lifts
    the basis monomials.
    """
    heights = degree_pattern(A)
    n = A.n
    if n < 2:
        raise DimensionMismatch(
            "1 x 1 matrices are binary forms; use the two-squares enumeration"
        )
    spec = PrismSpec(heights)
    D = spec.top
    terms = {}
    for i in range(n):
        for j in range(n):
            entry = A.entries[i][j]
            if entry.is_zero():
                continue
            shift = 2 * D - entry.deg
            for p, coeff in enumerate(entry.coeffs):
                if coeff == 0:
                    continue
                expo = [p, entry.deg - p + shift] + [0] * n
                expo[2 + i] += 1
                expo[2 + j] += 1
                key = tuple(expo)
                terms[key] = terms.get(key, 0) + coeff
    return spec, TermPoly(n + 2, terms)


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


def _numeric_rank(G):
    evals = np.linalg.eigvalsh(G)
    smax = max(float(np.max(np.abs(evals))), 1e-300)
    return int(np.sum(evals > RANK_TOL * smax))


def _truncate_psd(G, target_rank):
    """Nearest matrix that is psd of rank at most target_rank (Frobenius)."""
    evals, evecs = np.linalg.eigh(G)
    keep = np.maximum(evals[-target_rank:], 0.0)
    V = evecs[:, -target_rank:]
    return (V * keep) @ V.T


def _rank_newton(space, G, target_rank):
    """Newton polish onto an isolated rank-target psd point of the fiber.

    The vanishing of the null-block U^T G(theta) U gives z(z+1)/2 equations
    in the k fiber coordinates (an exactly determined system for prisms,
    where k = z(z+1)/2 with z = N - target); U is refreshed from the current
    eigenvectors each step, giving quadratic convergence near the root.
    Returns (ok, fiber point).
    """
    z = space.size - target_rank
    if z <= 0:
        return True, G
    iu = np.triu_indices(z)
    theta = space.fiber_coordinates(G)
    cur = space.gram_at(theta)
    for _step in range(30):
        evals, evecs = np.linalg.eigh(cur)
        smax = max(float(np.max(np.abs(evals))), 1e-300)
        order = np.argsort(np.abs(evals))
        U = evecs[:, order[:z]]
        Fvec = (U.T @ cur @ U)[iu]
        if float(np.max(np.abs(Fvec))) <= 1e-13 * smax:
            live = evals > RANK_TOL * smax
            psd_ok = bool(np.all(evals >= -RANK_TOL * smax))
            return psd_ok and int(np.sum(live)) <= target_rank, cur
        J = (U.T @ space.kernel_f @ U)[:, iu[0], iu[1]].T
        try:
            step, *_ = np.linalg.lstsq(J, -Fvec, rcond=None)
        except np.linalg.LinAlgError:
            return False, cur
        if not np.all(np.isfinite(step)):
            return False, cur
        theta = theta + step
        cur = space.gram_at(theta)
    return False, cur


def rank_reduce(space, G, target_rank):
    """Reduce a psd fiber point to rank <= target_rank, staying in the fiber.

    The rank-target psd points of a generic fiber are isolated, so this is
    root finding rather than a convex method.  A point already at or below
    the target rank goes straight to the Newton polish (_rank_newton) at
    its own rank, which takes the eigenvalues dropped at the feasibility
    tolerance to rounding.
    Any other point alternates psd rank-target truncation with the
    projection back onto the fiber until the truncation gap is at most 1e-3
    of the matrix norm, and the Newton polish finishes quadratically from
    there.  A polish that fails (Newton left for a root that is not psd)
    lowers the gap at which the next polish starts tenfold; the cycle
    creeps closer to its limit meanwhile.  Eigenvalues within RANK_TOL of
    the spectral radius count as zero.

    Raises StuckAboveTarget with the rank reached when REDUCE_BUDGET rounds
    run out.
    """
    G = np.asarray(G, dtype=float)
    G = space.project_fiber(0.5 * (G + G.T))
    rank = _numeric_rank(G)
    if rank <= target_rank:
        # polish at the point's own rank: below the target, the rank-target
        # locus is not isolated there and Newton on it fails
        ok, polished = _rank_newton(space, G, rank)
        return polished if ok else G
    scale = max(1.0, float(np.linalg.norm(G)))
    polish_at = 1e-3
    for _ in range(REDUCE_BUDGET):
        T = _truncate_psd(G, target_rank)
        if float(np.linalg.norm(G - T)) / scale <= polish_at:
            ok, polished = _rank_newton(space, G, target_rank)
            if ok:
                return polished
            polish_at *= 0.1  # outside Newton's basin; cycle closer first
        G = space.project_fiber(T)
    raise StuckAboveTarget(_numeric_rank(G), target_rank)


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
    evaluated at (cos theta, sin theta) for theta = j pi / PSD_DIRECTIONS,
    j = 0..PSD_DIRECTIONS-1, and a smallest eigenvalue below -PSD_SCREEN_TOL
    times the largest coefficient of A raises NotPSD((u, v, lambda_min)).
    This is a screen, not a proof: a negative region narrower than the
    spacing of the directions can pass.
    """
    scale = max(A.max_abs_coeff(), 1e-300)
    for theta in np.pi * np.arange(PSD_DIRECTIONS) / PSD_DIRECTIONS:
        u, v = float(np.cos(theta)), float(np.sin(theta))
        lam = float(np.linalg.eigvalsh(A.evaluate(u, v))[0])
        if lam < -PSD_SCREEN_TOL * scale:
            raise NotPSD((u, v, lam))


def factor_residual(A, columns):
    """max |coefficient of f - sum_c (sum_i c_i x_i)^2|, f = sum a_ij x_i x_j.

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
    rep = Representation(basis=basis, vectors=vectors, signs=[1] * len(vectors))
    return verify_representation(f, rep)


def factor(A):
    """Factor a psd bivariate matrix polynomial as A = B B^T, B n x (n+1).

    Pipeline: psd screen over directions of P^1 (check_psd_on_grid), prism
    embedding, Gram space, alternating projections to a psd fiber point
    (psd_feasible, then _feasible_reflections when its budget runs out),
    rank reduction to n+1 (rank_reduce: truncation cycle, then Newton
    polish), column extraction.  When rank_reduce raises StuckAboveTarget,
    the psd fiber point is factored as it stands and returned with a
    warning; its extra columns still certify psd-ness.

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
        residual=factor_residual(A, columns),
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
