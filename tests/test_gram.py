"""Gram fibers: exact expansion identities, kernels, representations.

The load-bearing identity is m^T G(theta) m = f for every theta, checked
exactly over the rationals (no tolerances) on the matrices of the
space's JSON report: G0 reproduces f and each kernel matrix expands to zero,
so the whole affine fiber does.
"""

from fractions import Fraction

import numpy as np
import pytest

from minsos.biform import TermPoly
from minsos.errors import DimensionMismatch, NonSymmetric, NotInFiber
from minsos.factorization import prism_gram_space
from minsos.gram import (
    RANK_TOL,
    Representation,
    build_gram_space,
    equivalent,
    extract_representation,
    gram_residual,
    inertia,
    inertias,
    kernel_pairs,
    solve_affine,
    verify_representation,
)
from minsos.sampling import random_dyad_matrix, random_positive_form
from minsos.surfaces import PrismSpec, cone_rnc, monomial_basis, scroll, veronese


def _space(spec, seed=3):
    return build_gram_space(random_positive_form(spec, seed=seed), spec)


def _prism_space(heights):
    return prism_gram_space(random_dyad_matrix(heights, seed=1)[0])[1]


_KERNEL_SPACES = {
    "scroll11": lambda: _space(scroll(1, 1)),
    "scroll21": lambda: _space(scroll(2, 1)),
    "scroll22": lambda: _space(scroll(2, 2)),
    "veronese": lambda: _space(veronese()),
    "cone3": lambda: _space(cone_rnc(3)),
    "cone6": lambda: _space(cone_rnc(6)),
    "prism21": lambda: _prism_space((2, 1)),
    "prism111": lambda: _prism_space((1, 1, 1)),
    "prism332": lambda: _prism_space((3, 3, 2)),
}


def _exact_space(space):
    """G0 and the kernel matrices as rows of Fractions, read off to_json()."""
    data = space.to_json()

    def matrix(rows):
        return [[Fraction(v["num"], v["den"]) for v in row] for row in rows]

    return matrix(data["G0"]), [matrix(K) for K in data["kernel"]]


def _exact_gram(space, theta):
    """G0 + sum theta_i K_i over the rationals, from the exact report."""
    G0, kernel = _exact_space(space)
    G = [row[:] for row in G0]
    for t, K in zip(theta, kernel):
        for a, row in enumerate(K):
            for b, x in enumerate(row):
                G[a][b] += Fraction(t) * x
    return G


# ------------------------------------------------------------- fiber basics


def test_kernel_dimensions():
    # binomial(N+1, 2) minus the number of degree-two monomials
    assert _space(scroll(1, 1)).kdim == 1
    assert _space(scroll(2, 1)).kdim == 3
    assert _space(scroll(2, 2)).kdim == 6
    assert _space(scroll(3, 1)).kdim == 6
    assert _space(cone_rnc(4)).kdim == 6
    assert _space(veronese()).kdim == 6


def test_g0_expands_to_form_exactly():
    for make in _KERNEL_SPACES.values():
        space = make()
        G0, _kernel = _exact_space(space)
        assert space.fiber_residual(G0) == 0


def test_kernel_matrices_expand_to_zero_exactly():
    # m^T K m = 0 exactly, so adding any kernel matrix keeps G0 on the fiber
    for make in _KERNEL_SPACES.values():
        space = make()
        G0, kernel = _exact_space(space)
        assert len(kernel) == space.kdim
        n = space.size
        for K in kernel:
            assert all(K[a][b] == K[b][a] for a in range(n) for b in range(n))
            shifted = [[g + x for g, x in zip(rg, rk)] for rg, rk in zip(G0, K)]
            assert space.fiber_residual(shifted) == 0
            assert space.fiber_residual([[2 * x for x in row] for row in K]) > 0


def _gauss_jordan_solve(matrix, rhs):
    """Reference: Fraction Gauss-Jordan on [A | b], first-nonzero pivots.

    Returns (particular, kernel): free variables zero in the particular
    solution, one kernel vector per free column (that variable set to 1).
    """
    rows = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    ncols = len(matrix[0])
    pivots = []
    for c in range(ncols + 1):
        r = len(pivots)
        pivot_row = next((rr for rr in range(r, len(rows)) if rows[rr][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for rr in range(len(rows)):
            if rr != r and rows[rr][c] != 0:
                factor = rows[rr][c]
                rows[rr] = [v - factor * p for v, p in zip(rows[rr], rows[r])]
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    assert ncols not in pivots  # consistent
    particular = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        particular[c] = rows[r][ncols]
    kernel = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][fc]
        kernel.append(vec)
    return particular, kernel


_SOLVE_BASES = {
    "scroll11": lambda: monomial_basis(scroll(1, 1)),
    "scroll21": lambda: monomial_basis(scroll(2, 1)),
    "scroll22": lambda: monomial_basis(scroll(2, 2)),
    "scroll32": lambda: monomial_basis(scroll(3, 2)),
    "veronese": lambda: monomial_basis(veronese()),
    "cone3": lambda: monomial_basis(cone_rnc(3)),
    "cone6": lambda: monomial_basis(cone_rnc(6)),
    "prism21": lambda: PrismSpec((2, 1)).basis(),
    "prism332": lambda: PrismSpec((3, 3, 2)).basis(),
    "prism4332": lambda: PrismSpec((4, 3, 3, 2)).basis(),
}


@pytest.mark.parametrize("name", sorted(_SOLVE_BASES))
def test_solve_affine_matches_gauss_jordan(name):
    # one row per monomial of 2P, one column per pair; mult is 1 or 2
    pairs = _SOLVE_BASES[name]().pair_map
    matrix = [[0] * len(pairs.row) for _ in pairs.monomials]
    for p, (r, m) in enumerate(zip(pairs.row, pairs.mult)):
        matrix[r][p] = int(m)
    rhs = [Fraction(r % 7 - 3, r % 5 + 1) for r in range(len(pairs.monomials))]
    particular, kernel = _gauss_jordan_solve(matrix, rhs)
    assert solve_affine(pairs, rhs) == particular
    # the kernel that kernel_pairs lists: 1 at p and -mult[p] / mult[q] at q
    mult = pairs.mult.tolist()
    closed_form = []
    for p, q in zip(*(idx.tolist() for idx in kernel_pairs(pairs))):
        vec = [Fraction(0)] * len(mult)
        vec[p] = Fraction(1)
        vec[q] = Fraction(-mult[p], mult[q])
        closed_form.append(vec)
    assert closed_form == kernel


def _loop_residual(f, basis, G):
    """Reference: expand m^T G m over all ordered pairs into an exponent map."""
    got = {}
    monos = basis.monomials
    for a in range(len(monos)):
        for b in range(len(monos)):
            key = tuple(x + y for x, y in zip(monos[a], monos[b]))
            got[key] = got.get(key, 0) + G[a][b]
    want = {e: complex(c).real for e, c in f.terms.items()}
    return max(abs(got.get(k, 0) - want.get(k, 0)) for k in set(got) | set(want))


def test_gram_residual_matches_loop_reference():
    rng = np.random.default_rng(1)
    for spec in (scroll(2, 1), cone_rnc(3), veronese()):
        space = _space(spec)
        M = rng.standard_normal((space.size, space.size))
        G = space.G0_f + 1e-3 * (M + M.T)
        got = gram_residual(space.form, space.basis, G)
        assert isinstance(got, float)
        assert abs(got - _loop_residual(space.form, space.basis, G)) <= 1e-12


def test_gram_residual_counts_form_terms_outside_2p():
    # s^3 t x y is not a product of two scroll(1,1) basis monomials
    basis = monomial_basis(scroll(1, 1))
    f = TermPoly(4, {(3, 1, 1, 1): 5})
    zero = [[Fraction(0)] * 4 for _ in range(4)]
    assert gram_residual(f, basis, zero) == 5
    assert gram_residual(f, basis, np.zeros((4, 4))) == 5.0


def test_gram_at_exact_stays_on_fiber():
    # G(theta) at rational theta, summed exactly from the report
    for make in _KERNEL_SPACES.values():
        space = make()
        theta = [Fraction(i % 7 - 3, i % 4 + 1) for i in range(space.kdim)]
        assert space.fiber_residual(_exact_gram(space, theta)) == 0


def test_gram_at_matches_exact_evaluation():
    # dyadic theta, so the exact evaluation sees the same theta as gram_at
    for make in _KERNEL_SPACES.values():
        space = make()
        theta = [Fraction(i % 9 - 4, 4) for i in range(space.kdim)]
        G = space.gram_at(np.array([float(t) for t in theta]))
        Ge = np.array([[float(v) for v in row] for row in _exact_gram(space, theta)])
        assert np.max(np.abs(G - Ge)) < 1e-14


def test_gram_at_complex_theta():
    space = _space(scroll(1, 1))
    G = space.gram_at(np.array([1 + 2j]))
    assert np.iscomplexobj(G)
    assert np.max(np.abs(G - G.T)) == 0


def test_gram_at_rejects_wrong_shape():
    space = _space(scroll(2, 1))
    with pytest.raises(DimensionMismatch):
        space.gram_at(np.zeros(2))


def test_fiber_coordinates_roundtrip():
    space = _space(scroll(2, 2))
    theta = np.array([0.5, -1.0, 2.0, 0.0, 1.25, -0.75])
    got = space.fiber_coordinates(space.gram_at(theta)[None])[0]
    assert np.max(np.abs(got - theta)) < 1e-10


def test_project_fiber_idempotent_and_on_fiber():
    space = _space(scroll(2, 1))
    rng = np.random.default_rng(0)
    M = rng.standard_normal((space.size, space.size))
    M = 0.5 * (M + M.T)
    P = space.project_fiber(M)
    assert space.fiber_residual(P) < 1e-9 * max(1.0, float(space.form.max_abs_coeff()))
    P2 = space.project_fiber(P)
    assert np.max(np.abs(P2 - P)) < 1e-12


@pytest.mark.parametrize("name", sorted(_KERNEL_SPACES))
def test_kernel_flat_is_the_exact_kernel(name):
    # the float fiber map (G0_f and the flat kernel, one row vec(K_i) per
    # kernel matrix) is read off the pair map; it must be the exact report
    space = _KERNEL_SPACES[name]()
    G0, kernel = _exact_space(space)
    assert np.array_equal(space.G0_f, np.array(G0, dtype=float))
    exact = np.array(kernel, dtype=float).reshape(space.kdim, -1)
    assert np.array_equal(space.kernel_f.reshape(space.kdim, -1), exact)


def test_space_json_has_shape_fields():
    space = _space(scroll(2, 1))
    data = space.to_json()
    assert len(data["basis"]) == 5
    assert data["k"] == 3
    assert len(data["kernel"]) == 3


# ------------------------------------------------- inertia and matrix rank


def test_inertia_known_signature():
    G = np.diag([3.0, 1.0, 0.0, -2.0])
    assert inertia(G) == (2, 1, 1)


def test_inertia_scales_with_matrix():
    G = np.diag([1e12, 1e-20, -1e12])
    # 1e-20 is numerically zero relative to the spectral radius
    assert inertia(G) == (1, 1, 1)


def _symmetric_stack(rng):
    """Random symmetric matrices, rank-deficient ones, and ones with
    eigenvalues within a factor 2 of RANK_TOL times the spectral radius."""
    mats = []
    for n in (3, 5, 8):
        for _ in range(4):
            A = rng.standard_normal((n, n))
            mats.append(A + A.T)
        for rank in (1, n // 2, n - 1):
            B = rng.standard_normal((n, rank))
            mats.append(B @ np.diag(rng.choice([-1.0, 1.0], rank)) @ B.T)
        for _ in range(4):
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            eigs = rng.choice([-1.0, 1.0], n) * RANK_TOL * rng.uniform(0.5, 2.0, n)
            eigs[0] = 1.0
            mats.append((Q * eigs) @ Q.T)
    return mats


def test_stacked_inertia_equals_inertia_matrix_by_matrix():
    rng = np.random.default_rng(7)
    mats = _symmetric_stack(rng)
    for n in (3, 5, 8):
        stack = [G for G in mats if len(G) == n]
        assert inertias(stack) == [inertia(G) for G in stack]
        assert inertias(np.array(stack)) == inertias(stack)
    near = [inertia(G) for G in mats if len(G) == 8][-4:]
    assert len({ine[2] for ine in near}) > 1  # the threshold cases straddle RANK_TOL
    assert inertias([]) == []


@pytest.mark.parametrize(
    "bad",
    [np.ones((2, 3)), np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[1.0, 1j], [-1j, 1.0]])],
    ids=["non-square", "asymmetric", "complex"],
)
def test_inertia_and_stacked_inertia_reject_the_same_matrices(bad):
    with pytest.raises(NonSymmetric):
        inertia(bad)
    with pytest.raises(NonSymmetric):
        inertias([np.zeros(bad.shape), bad])
    real = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    assert inertia(real) == inertias([real])[0] == (2, 0, 0)


# ------------------------------------------------------------ representations


def test_extract_representation_diagonal_gram():
    # f = sum of squared basis monomials has G = I on the fiber
    spec = scroll(1, 1)
    basis = monomial_basis(spec)
    terms = {}
    for mono in basis:
        key = tuple(2 * e for e in mono)
        terms[key] = terms.get(key, 0) + 1
    f = TermPoly(4, terms)
    space = build_gram_space(f, spec)
    rep = extract_representation(space, np.eye(4))
    assert rep.nforms == 4
    assert all(s == 1 for s in rep.signs)
    assert verify_representation(f, rep) < 1e-12


def test_extract_rejects_off_fiber_matrix():
    space = _space(scroll(1, 1))
    with pytest.raises(NotInFiber):
        extract_representation(space, np.zeros((4, 4)))


def test_representation_expand_exact():
    # (t y + s x)^2 + (s y)^2 over the scroll(1,1) basis [ty, sy, tx, sx]
    basis = monomial_basis(scroll(1, 1))
    rep = Representation(
        basis=basis, vectors=[[1, 0, 0, 1], [0, 1, 0, 0]], signs=[1, 1], exact=True
    )
    f = TermPoly(
        4,
        {
            (0, 2, 0, 2): 1,  # t^2 y^2
            (1, 1, 1, 1): 2,  # 2 s t x y
            (2, 0, 2, 0): 1,  # s^2 x^2
            (2, 0, 0, 2): 1,  # s^2 y^2
        },
    )
    assert verify_representation(f, rep) == 0


def test_representation_gram_and_signs():
    basis = monomial_basis(scroll(1, 1))
    rep = Representation(
        basis=basis,
        vectors=[[1, 0, 0, 0], [0, 1, 0, 0]],
        signs=[1, -1],
        exact=True,
    )
    G = rep.gram()
    assert G[0, 0] == 1 and G[1, 1] == -1
    assert rep.signs == [1, -1]
    assert inertia(G) == (1, 1, 2)  # (positive, negative, zero)


def test_representation_json_roundtrip_exact_and_float():
    basis = monomial_basis(scroll(1, 1))
    exact = Representation(
        basis=basis, vectors=[[Fraction(1, 2), 0, 0, 1]], signs=[1], exact=True
    )
    back = Representation.from_json(exact.to_json())
    assert back.exact and equivalent(exact, back)

    rough = Representation(
        basis=basis, vectors=[[0.5, 0.0, 0.0, 1.0]], signs=[1], exact=False
    )
    back2 = Representation.from_json(rough.to_json())
    assert not back2.exact and equivalent(rough, back2)


def test_equivalent_detects_gauge_rotation():
    # rotating the pair (p, q) leaves p^2 + q^2 and hence the Gram fixed
    basis = monomial_basis(scroll(1, 1))
    c, s = np.cos(0.7), np.sin(0.7)
    p, q = np.array([1.0, 2.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0, -1.0])

    def rep_of(vs):
        return Representation(basis=basis, vectors=list(vs), signs=[1] * len(vs))

    rep1 = rep_of([p, q])
    rep2 = rep_of([c * p + s * q, -s * p + c * q])
    assert equivalent(rep1, rep2)
    rep3 = rep_of([p, 2.0 * q])
    assert not equivalent(rep1, rep3)


def test_representation_rejects_vectors_of_the_wrong_length():
    basis = monomial_basis(scroll(1, 1))
    for vec in ([1, 0, 0], [1, 0, 0, 0, 1]):
        with pytest.raises(DimensionMismatch):
            Representation(basis=basis, vectors=[vec], signs=[1], exact=True)


def test_verify_representation_flags_mismatch():
    basis = monomial_basis(scroll(1, 1))
    rep = Representation(basis=basis, vectors=[[1, 0, 0, 0]], signs=[1], exact=True)
    f = TermPoly(4, {(0, 2, 0, 2): 1, (2, 0, 2, 0): 1})  # t^2 y^2 + s^2 x^2
    assert verify_representation(f, rep) == 1


def test_extracted_representation_matches_eigenstructure():
    space = _space(scroll(2, 1), seed=5)
    theta = np.zeros(space.kdim)
    G = space.gram_at(theta)
    evals = np.linalg.eigvalsh(G)
    expected_rank = int(np.sum(np.abs(evals) > 1e-9 * np.max(np.abs(evals))))
    rep = extract_representation(space, G)
    assert rep.nforms == expected_rank
    assert verify_representation(space.form, rep) < 1e-9 * float(space.form.max_abs_coeff())
