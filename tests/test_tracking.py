"""Homotopy tracker: endpoints cross-checked against numpy companion roots.

The tracker is validated on systems whose solutions an independent method
can produce: univariate polynomials (numpy.roots) and separable systems
with hand-enumerable solution grids.
"""

import itertools

import numpy as np
import pytest

from minsos import tracking
from minsos.tracking import (
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_FAILED,
    PolySystem,
    newton_polish,
    track_all,
    warm_up,
)


def _match_sets(got, expected, tol=1e-8):
    """Greedy bijection between two point sets; asserts max distance < tol."""
    got = list(got)
    assert len(got) == len(expected)
    for e in expected:
        dists = [np.max(np.abs(np.asarray(g) - np.asarray(e))) for g in got]
        idx = int(np.argmin(dists))
        assert dists[idx] < tol, "no endpoint near %r (best %.2e)" % (e, dists[idx])
        got.pop(idx)


# ----------------------------------------------------------------- PolySystem


def test_system_evaluate():
    # F = (x^2 + y - 3, x y) at (2, 1) equals (2, 2)
    sys_ = PolySystem(
        [
            {(2, 0): 1.0, (0, 1): 1.0, (0, 0): -3.0},
            {(1, 1): 1.0},
        ],
        2,
    )
    F = sys_.evaluate(np.array([2.0 + 0j, 1.0 + 0j]))
    assert np.allclose(F, [2.0, 2.0])


def _graded_monomials(k, top):
    return [
        tuple(combo.count(v) for v in range(k))
        for deg in range(top + 1)
        for combo in itertools.combinations_with_replacement(range(k), deg)
    ]


def _reference_tables(polys, k):
    """Dense C, D over every monomial up to the top degree, graded order.

    Monomial j is monomial parent[j] times variable pvar[j], so one pass in
    order fills the monomial vector.
    """
    monos = _graded_monomials(k, max(sum(e) for poly in polys for e in poly))
    index = {expo: j for j, expo in enumerate(monos)}
    parent = np.zeros(len(monos), dtype=np.int64)
    pvar = np.zeros(len(monos), dtype=np.int64)
    for j, expo in enumerate(monos[1:], start=1):
        v = next(i for i, e in enumerate(expo) if e > 0)
        parent[j] = index[tuple(e - (i == v) for i, e in enumerate(expo))]
        pvar[j] = v
    C = np.zeros((k, len(monos)), dtype=np.complex128)
    D = np.zeros((k, k, len(monos)), dtype=np.complex128)
    for i, poly in enumerate(polys):
        for expo, coeff in poly.items():
            C[i, index[expo]] = coeff
            for v in range(k):
                if expo[v]:
                    lower = tuple(e - (j == v) for j, e in enumerate(expo))
                    D[i, v, index[lower]] += expo[v] * coeff
    return C, D, parent, pvar


def _eval_FJ(C, D, parent, pvar, x, mono, F, J):
    """Scalar-loop evaluation of F and the flattened Jacobian (reference)."""
    nm = parent.shape[0]
    mono[0] = 1.0 + 0.0j
    for j in range(1, nm):
        mono[j] = mono[parent[j]] * x[pvar[j]]
    k = C.shape[0]
    for i in range(k):
        acc = 0.0 + 0.0j
        for j in range(nm):
            acc += C[i, j] * mono[j]
        F[i] = acc
    for i in range(k):
        for v in range(k):
            acc = 0.0 + 0.0j
            for j in range(nm):
                acc += D[i, v, j] * mono[j]
            J[i * k + v] = acc


@pytest.mark.parametrize("k,deg", [(1, 6), (2, 4), (3, 4)])
def test_F_and_jacobian_match_scalar_reference(k, deg):
    rng = np.random.default_rng(100 + k)
    polys = [
        {e: complex(*rng.standard_normal(2)) for e in _graded_monomials(k, deg)}
        for _ in range(k)
    ]
    sys_ = PolySystem(polys, k)
    C, D, parent, pvar = _reference_tables(polys, k)
    for _ in range(5):
        x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        F = np.empty(k, dtype=np.complex128)
        J = np.empty(k * k, dtype=np.complex128)
        _eval_FJ(C, D, parent, pvar, x, np.empty(len(parent), complex), F, J)
        _powers, F_new, J_new = sys_._eval_FJ(x[None])
        np.testing.assert_allclose(F_new[0], F, rtol=1e-12)
        np.testing.assert_allclose(sys_.evaluate(x), F, rtol=1e-12)
        np.testing.assert_allclose(J_new[0], J.reshape(k, k), rtol=1e-12)


def test_jacobian_of_sparse_support():
    # d(xy)/dy = x: the monomial x itself is in no equation's support
    polys = [{(1, 1): 2.0 + 1j}, {(0, 1): 1.0, (0, 0): -3.0}]
    x = np.array([0.3 - 1.2j, 2.0 + 0.5j])
    _powers, F, J = PolySystem(polys, 2)._eval_FJ(x[None])
    np.testing.assert_allclose(F[0], [(2.0 + 1j) * x[0] * x[1], x[1] - 3.0])
    np.testing.assert_allclose(J[0], [[(2.0 + 1j) * x[1], (2.0 + 1j) * x[0]], [0, 1]])


def test_total_paths_is_degree_product():
    sys_ = PolySystem([{(3, 0): 1.0, (0, 0): 1.0}, {(0, 2): 1.0, (1, 0): 1.0}], 2)
    assert sys_.degrees.tolist() == [3, 2]
    assert len(sys_.start_points()) == 6


def test_start_points_solve_start_system():
    # start system is x_i^{d_i} = 1: every start point is a root-of-unity grid
    sys_ = PolySystem([{(2, 0): 1.0}, {(0, 3): 1.0}], 2)
    starts = sys_.start_points()
    assert starts.shape == (6, 2)
    assert np.allclose(np.abs(starts), 1.0)
    assert np.allclose(starts[:, 0] ** 2, 1.0)
    assert np.allclose(starts[:, 1] ** 3, 1.0)


# ----------------------------------------------------------- endpoint oracles


def test_univariate_cubic_matches_numpy_roots():
    # x^3 - 2x + 1 = (x - 1)(x^2 + x - 1)
    coeffs = {(3,): 1.0, (1,): -2.0, (0,): 1.0}
    sys_ = PolySystem([coeffs], 1)
    gamma = np.exp(1j * 0.83)
    endpoints, statuses, _steps = track_all(sys_, gamma)
    assert all(s == STATUS_CONVERGED for s in statuses)
    expected = [[r] for r in np.roots([1.0, 0.0, -2.0, 1.0])]
    _match_sets([e for e in endpoints], expected, tol=1e-9)


def test_univariate_degree_six_random_coeffs():
    rng = np.random.default_rng(11)
    poly = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    coeffs = {(i,): poly[i] for i in range(7)}
    sys_ = PolySystem([coeffs], 1)
    endpoints, statuses, _ = track_all(sys_, np.exp(0.3j))
    assert all(s == STATUS_CONVERGED for s in statuses)
    expected = [[r] for r in np.roots(poly[::-1])]
    _match_sets(endpoints, expected, tol=1e-7)


def test_separable_system_full_grid():
    # {x^2 = 1, y^2 = 4} has the four solutions (+-1, +-2)
    sys_ = PolySystem(
        [{(2, 0): 1.0, (0, 0): -1.0}, {(0, 2): 1.0, (0, 0): -4.0}], 2
    )
    endpoints, statuses, _ = track_all(sys_, np.exp(1j * 1.1))
    assert all(s == STATUS_CONVERGED for s in statuses)
    expected = [(sx, sy) for sx in (1, -1) for sy in (2, -2)]
    _match_sets(endpoints, expected, tol=1e-9)


def test_coupled_quadratic_system():
    # {x^2 + y^2 = 5, x y = 2} solved by (+-1, +-2) and (+-2, +-1) with xy = 2
    sys_ = PolySystem(
        [
            {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -5.0},
            {(1, 1): 1.0, (0, 0): -2.0},
        ],
        2,
    )
    endpoints, statuses, _ = track_all(sys_, np.exp(1j * 0.47))
    assert all(s == STATUS_CONVERGED for s in statuses)
    expected = [(1, 2), (2, 1), (-1, -2), (-2, -1)]
    _match_sets(endpoints, expected, tol=1e-9)


def test_tracking_deterministic_for_fixed_gamma():
    coeffs = {(3,): 1.0, (1,): -2.0, (0,): 1.0}
    sys_ = PolySystem([coeffs], 1)
    gamma = np.exp(1j * 0.5)
    e1, s1, n1 = track_all(sys_, gamma)
    e2, s2, n2 = track_all(sys_, gamma)
    assert np.array_equal(e1, e2)
    assert np.array_equal(s1, s2)
    assert np.array_equal(n1, n2)


# ------------------------------------------------ serial reference tracker


def _reference_track(polys, k, gamma):
    """Track each path alone with plain loops, by the tracker's constants.

    Returns (endpoints, statuses, steps) in start-point order: the tuples of
    d_i-th roots of unity, the last variable varying fastest.
    """
    C, D, parent, pvar = _reference_tables(polys, k)
    degs = [max(sum(e) for e in poly) for poly in polys]
    mono = np.empty(len(parent), dtype=complex)

    def power(z, d):
        p = 1.0 + 0.0j
        for _ in range(d):
            p = p * z
        return p

    def homotopy(x, t):
        F = np.empty(k, dtype=complex)
        J = np.empty(k * k, dtype=complex)
        _eval_FJ(C, D, parent, pvar, x, mono, F, J)
        S = np.array([power(x[v], degs[v]) - 1.0 for v in range(k)])
        gt = gamma * (1.0 - t)
        Hx = t * J.reshape(k, k)
        for v in range(k):
            Hx[v, v] += gt * degs[v] * power(x[v], degs[v] - 1)
        return gt * S + t * F, Hx, F - gamma * S

    def newton(x, t, iters, tol):
        for _ in range(iters):
            H, Hx, _Ht = homotopy(x, t)
            try:
                dx = np.linalg.solve(Hx, H)
            except np.linalg.LinAlgError:
                return False, x
            x = x - dx
            norm_dx = np.abs(dx).max()
            norm_x = np.abs(x).max()
            if np.isnan(norm_dx):
                return False, x
            if norm_dx <= tol * (1.0 + norm_x):
                return True, x
            if norm_dx > 0.25 * (1.0 + norm_x):
                return False, x
        return False, x

    def stalled(x):
        if np.abs(x).max() > tracking.STALL_DIVERGED:
            return STATUS_DIVERGED
        return STATUS_FAILED

    def track(x):
        t, h, consec, steps = 0.0, tracking.H_INIT, 0, 0
        while t < 1.0:
            if steps >= tracking.MAX_STEPS:
                return stalled(x), steps, x
            steps += 1
            hstep = min(h, 1.0 - t)
            _H, Hx, Ht = homotopy(x, t)
            try:
                dx = np.linalg.solve(Hx, Ht)
            except np.linalg.LinAlgError:
                ok = False
            else:
                ok, xtrial = newton(
                    x - hstep * dx, t + hstep, tracking.NEWTON_ITERS, tracking.NEWTON_TOL
                )
            if ok:
                t += hstep
                x = xtrial
                if np.abs(x).max() > tracking.DIVERGENCE_CUTOFF:
                    return STATUS_DIVERGED, steps, x
                consec += 1
                if consec >= 2:
                    consec = 0
                    h = min(h * 2.0, tracking.H_MAX)
            else:
                consec = 0
                h = h * 0.5
                if h < tracking.H_MIN:
                    return stalled(x), steps, x
        polished, xp = newton(x, 1.0, tracking.POLISH_ITERS, tracking.POLISH_TOL)
        if polished and np.all(np.isfinite(xp)):
            x = xp
        return STATUS_CONVERGED, steps, x

    roots = [np.exp(2j * np.pi * np.arange(d) / d) for d in degs]
    runs = [track(np.array(start)) for start in itertools.product(*roots)]
    statuses, steps, endpoints = zip(*runs)
    return np.array(endpoints), np.array(statuses), np.array(steps)


@pytest.mark.parametrize("k,deg", [(2, 3), (3, 2)])
@pytest.mark.parametrize("angle", [0.37, 2.61])
def test_batched_tracker_matches_serial_reference(k, deg, angle):
    rng = np.random.default_rng(7 * k + deg)
    polys = [
        {e: complex(*rng.standard_normal(2)) for e in _graded_monomials(k, deg)}
        for _ in range(k)
    ]
    gamma = np.exp(1j * angle)
    endpoints, statuses, steps = track_all(PolySystem(polys, k), gamma)
    ref_x, ref_status, ref_steps = _reference_track(polys, k, gamma)
    assert statuses.tolist() == ref_status.tolist()
    assert steps.tolist() == ref_steps.tolist()
    conv = statuses == STATUS_CONVERGED
    assert conv.sum() == deg**k
    np.testing.assert_allclose(endpoints[conv], ref_x[conv], rtol=1e-10, atol=1e-10)


# -------------------------------------------------------------------- polish


def test_newton_polish_recovers_root():
    coeffs = {(3,): 1.0, (1,): -2.0, (0,): 1.0}
    sys_ = PolySystem([coeffs], 1)
    ok, refined = newton_polish(sys_, np.array([1.0 + 1e-4 + 1e-5j]))
    assert ok
    assert abs(refined[0] - 1.0) < 1e-12


def test_newton_polish_quadratic_residual_drop():
    sys_ = PolySystem(
        [{(2, 0): 1.0, (0, 2): 1.0, (0, 0): -5.0}, {(1, 1): 1.0, (0, 0): -2.0}],
        2,
    )
    x = np.array([1.0 + 1e-3, 2.0 - 1e-3], dtype=complex)
    ok, refined = newton_polish(sys_, x)
    assert ok
    assert np.max(np.abs(sys_.evaluate(refined))) < 1e-12


def test_singular_jacobian_fails_only_its_own_path():
    # x^2 - 1 has the Jacobian 2x, exactly singular at x = 0
    sys_ = PolySystem([{(2,): 1.0, (0,): -1.0}], 1)
    ok, _x = newton_polish(sys_, np.array([0.0 + 0j]))
    assert not ok
    starts = np.array([[1.1 + 0j], [0.0 + 0j], [-0.9 + 0.1j]])
    ok, x = tracking._newton(
        sys_, 0j, starts, np.ones(3), tracking.POLISH_ITERS, tracking.POLISH_TOL
    )
    assert ok.tolist() == [True, False, True]
    np.testing.assert_allclose(x[[0, 2], 0], [1.0, -1.0], atol=1e-14)
    assert x[1, 0] == 0.0


# ------------------------------------------------------------------- backend


def test_warm_up_reports_backend():
    assert warm_up() == "numpy"
