"""Homotopy tracker: endpoints cross-checked against numpy companion roots.

The tracker is validated on systems whose solutions an independent method
can produce: univariate polynomials (numpy.roots) and separable systems
with hand-enumerable solution grids.
"""

import itertools

import numpy as np
import pytest

from minsos import enumerator, tracking
from minsos.gram import build_gram_space
from minsos.sampling import random_positive_form
from minsos.surfaces import scroll
from minsos.tracking import (
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_FAILED,
    STATUS_STOPPED,
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
        _powers, JF = sys_._eval_JF(x[None])
        np.testing.assert_allclose(JF[0, :, k], F, rtol=1e-12)
        np.testing.assert_allclose(sys_.evaluate(x), F, rtol=1e-12)
        np.testing.assert_allclose(JF[0, :, :k], J.reshape(k, k), rtol=1e-12)


def test_jacobian_of_sparse_support():
    # d(xy)/dy = x: the monomial x itself is in no equation's support
    polys = [{(1, 1): 2.0 + 1j}, {(0, 1): 1.0, (0, 0): -3.0}]
    x = np.array([0.3 - 1.2j, 2.0 + 0.5j])
    _powers, JF = PolySystem(polys, 2)._eval_JF(x[None])
    np.testing.assert_allclose(JF[0, :, 2], [(2.0 + 1j) * x[0] * x[1], x[1] - 3.0])
    np.testing.assert_allclose(
        JF[0, :, :2], [[(2.0 + 1j) * x[1], (2.0 + 1j) * x[0]], [0, 1]]
    )


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


def test_stop_ends_the_sweep_with_the_paths_still_running():
    # the stop test sees each batch of endpoints that reached t = 1 and ends
    # the sweep once it has seen three; the paths still running are stopped
    # at the iteration where it fired, and the rest are polished roots
    rng = np.random.default_rng(11)
    poly = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    sys_ = PolySystem([{(i,): poly[i] for i in range(7)}], 1)
    seen = []

    def stop(endpoints):
        seen.extend(endpoints)
        return len(seen) >= 3

    endpoints, statuses, steps = track_all(sys_, np.exp(0.3j), stop=stop)
    converged = statuses == STATUS_CONVERGED
    stopped = statuses == STATUS_STOPPED
    assert np.all(converged | stopped)
    assert converged.sum() == len(seen) >= 3 and stopped.any()
    assert np.all(steps[stopped] == steps[converged].max())
    _match_sets(seen, endpoints[converged], tol=1e-8)
    roots = np.roots(poly[::-1])
    for point in endpoints[converged]:
        assert np.abs(roots - point[0]).min() < 1e-10
    # without a stop, the same gamma tracks every path to its root
    _e, full, _s = track_all(sys_, np.exp(0.3j))
    assert np.all(full == STATUS_CONVERGED)


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

    def tangent_solve(x, t):
        """(dx, v): the Newton step and the tangent dx/dt at (x, t)."""
        H, Hx, Ht = homotopy(x, t)
        y = np.linalg.solve(Hx, np.stack([H, Ht], axis=1))
        return y[:, 0], -y[:, 1]

    def newton(x, t, iters, tol):
        """(converged, x, tangent of the last iteration)."""
        for _ in range(iters):
            try:
                dx, v = tangent_solve(x, t)
            except np.linalg.LinAlgError:
                return False, x, None
            x = x - dx
            norm_dx = np.abs(dx).max()
            norm_x = np.abs(x).max()
            if np.isnan(norm_dx):
                return False, x, None
            if norm_dx <= tol * (1.0 + norm_x):
                return True, x, v
            if norm_dx > 0.25 * (1.0 + norm_x):
                return False, x, None
        return False, x, None

    def stalled(x):
        if np.abs(x).max() > tracking.STALL_DIVERGED:
            return STATUS_DIVERGED
        return STATUS_FAILED

    def predict(prev, t, x, v, h):
        """Cubic Hermite through the last accepted point and the current one,
        unless it strays from the tangent step by more than that step."""
        tangent = x + h * v
        if prev is None:
            return tangent
        t_p, x_p, v_p = prev
        h0 = t - t_p
        s = 1.0 + h / h0
        cubic = (
            (2 * s**3 - 3 * s**2 + 1) * x_p
            + (s**3 - 2 * s**2 + s) * h0 * v_p
            + (3 * s**2 - 2 * s**3) * x
            + (s**3 - s**2) * h0 * v
        )
        if np.abs(cubic - tangent).max() > np.abs(h * v).max():
            return tangent
        return cubic

    def track(x):
        t, h, consec, steps = 0.0, tracking.H_INIT, 0, 0
        prev = None
        # the tangent is solved for at the start point only; an accepted
        # step takes its corrector's last tangent, a rejected one keeps v
        _dx, v = tangent_solve(x, t)
        while t < 1.0:
            if steps >= tracking.MAX_STEPS:
                return stalled(x), steps, x
            steps += 1
            hstep = min(h, 1.0 - t)
            ok, xtrial, vtrial = newton(
                predict(prev, t, x, v, hstep),
                t + hstep,
                tracking.NEWTON_ITERS,
                tracking.NEWTON_TOL,
            )
            if ok:
                prev = (t, x, v)
                t += hstep
                x, v = xtrial, vtrial
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
        polished, xp, _v = newton(x, 1.0, tracking.POLISH_ITERS, tracking.POLISH_TOL)
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


# ----------------------------------------------------------------- predictor


def test_predictor_reproduces_cubic_paths():
    # the Hermite cubic through two points of a cubic x(t) with its
    # derivatives there is x(t) itself, at any step and interval length
    # over which the cubic stays near its tangent line
    rng = np.random.default_rng(5)
    P, k = 6, 3
    coef = rng.standard_normal((4, P, k)) + 1j * rng.standard_normal((4, P, k))
    coef[2:] *= 0.1

    def x(t):
        return sum(coef[j] * t[:, None] ** j for j in range(4))

    def dx(t):
        return sum(j * coef[j] * t[:, None] ** (j - 1) for j in range(1, 4))

    t_p = rng.uniform(0.0, 0.5, P)
    t = t_p + rng.uniform(0.01, 0.2, P)
    h = rng.uniform(0.01, 0.4, P)
    pred = tracking._predict(x(t_p), dx(t_p), x(t), dx(t), t - t_p, h)
    np.testing.assert_allclose(pred, x(t + h), rtol=1e-12, atol=1e-12)


def test_predictor_without_accepted_step_takes_tangent_step():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    h = np.array([0.1, 0.05, 0.25, 1e-3])
    h0 = np.array([0.0, 0.1, 0.0, 0.2])
    # the last accepted point of a path without one is never read
    x_p = np.where(h0[:, None] == 0.0, np.nan, x - h0[:, None] * v)
    pred = tracking._predict(x_p, v, x, v, h0, h)
    np.testing.assert_allclose(pred, x + h[:, None] * v, rtol=1e-12)
    first = h0 == 0.0
    assert np.array_equal(pred[first], x[first] + h[first, None] * v[first])


def test_predictor_falls_back_to_tangent_step_at_a_sharp_turn():
    # x(t) = t + c t^3 bends away from its tangent line within one step when
    # c is large; the cubic is then dropped for the tangent step
    t_p, t, h = np.array([0.0, 0.0]), np.array([0.1, 0.1]), np.array([0.2, 0.2])
    c = np.array([1.0, 1e3])
    x = (t + c * t**3)[:, None] + 0j
    v = (1.0 + 3.0 * c * t**2)[:, None] + 0j
    x_p = (t_p + c * t_p**3)[:, None] + 0j
    v_p = (1.0 + 3.0 * c * t_p**2)[:, None] + 0j
    pred = tracking._predict(x_p, v_p, x, v, t - t_p, h)
    s = t + h
    np.testing.assert_allclose(pred[0, 0], s[0] + c[0] * s[0] ** 3, rtol=1e-12)
    np.testing.assert_allclose(pred[1, 0], x[1, 0] + h[1] * v[1, 0], rtol=1e-12)


def test_step_budget_on_scroll21_form(monkeypatch):
    # a predictor regression would keep every count right and only cost
    # steps: the Hermite predictor takes at most 166 steps on a path of this
    # form (the Euler predictor took 262), with the same statuses; with no
    # count to stop at, the sweep tracks every path to its end
    spec = scroll(2, 1)
    space = build_gram_space(random_positive_form(spec, seed=0), spec)
    runs = []

    def recording(system, gamma, *, stop=None):
        runs.append(track_all(system, gamma, stop=stop))
        return runs[-1]

    monkeypatch.setattr(enumerator, "track_all", recording)
    monkeypatch.setattr(enumerator, "expected_counts", lambda surface: None)
    enumerator.enumerate_rank(space, 3, seed=0)
    _x, statuses, steps = runs[0]
    assert np.bincount(statuses, minlength=3).tolist() == [60, 4, 0]
    assert steps.max() <= 190


def test_sharp_turn_guard_keeps_every_solution():
    # on this form an unguarded cubic extrapolation moves a path that ends at
    # a solution onto another path, and the count drops to 15 with no second
    # sweep to recover it; the tangent fallback at sharp turns keeps all 16
    spec = scroll(2, 1)
    space = build_gram_space(random_positive_form(spec, seed=1195), spec)
    report = enumerator.enumerate_rank(space, 3, seed=1195)
    assert report.counts["complex"] == 16
    assert report.path_stats["converged"] == 60
    assert not report.path_stats["secondSweep"]


def test_one_evaluation_per_corrector_iteration(monkeypatch):
    # the tangent comes from the corrector's last solve, so a lockstep
    # iteration evaluates the homotopy at most NEWTON_ITERS times; the
    # tangent at the start points adds one and the endpoint polish at most
    # POLISH_ITERS (a separate tangent evaluation would add one per iteration)
    spec = scroll(2, 1)
    space = build_gram_space(random_positive_form(spec, seed=0), spec)
    calls = []
    homotopy = tracking._homotopy

    def counting(*args):
        calls.append(1)
        return homotopy(*args)

    sweeps = []

    def recording(system, gamma, *, stop=None):
        before = len(calls)
        out = track_all(system, gamma, stop=stop)
        sweeps.append((len(calls) - before, int(out[2].max())))
        return out

    monkeypatch.setattr(tracking, "_homotopy", counting)
    monkeypatch.setattr(enumerator, "track_all", recording)
    enumerator.enumerate_rank(space, 3, seed=0)
    assert sweeps
    for evaluations, iterations in sweeps:
        bound = tracking.NEWTON_ITERS * iterations + 1 + tracking.POLISH_ITERS
        assert evaluations <= bound


@pytest.mark.slow
def test_scroll21_corpus_counts_without_second_sweep():
    # 300 forms, each enumerated with its own seed: every one gives the
    # generic counts from the first sweep alone
    spec = scroll(2, 1)
    for seed in range(1000, 1300):
        space = build_gram_space(random_positive_form(spec, seed=seed), spec)
        report = enumerator.enumerate_rank(space, 3, seed=seed)
        want = {"complex": 16, "real": 4, "psd": 4, "indefinite": 0}
        assert report.counts == want, seed
        assert not report.path_stats["secondSweep"], seed


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


def test_corrector_returns_the_tangent_of_its_last_iteration():
    # H = (1-t) gamma (x^3 - 1) + t f with f = x^3 - 2x + 1: one iteration
    # that is accepted at once returns the Newton step and the tangent
    # -Ht / Hx, both at the point it started from
    sys_ = PolySystem([{(3,): 1.0, (1,): -2.0, (0,): 1.0}], 1)
    gamma = np.exp(0.4j)
    x0 = np.array([[0.3 + 0.8j], [-1.1 + 0.2j]])
    t = np.array([0.25, 0.7])
    ok, x1, v = tracking._newton(sys_, gamma, x0, t, 1, np.inf)
    assert ok.all()
    z = x0[:, 0]
    f, df = z**3 - 2 * z + 1, 3 * z**2 - 2
    H = (1 - t) * gamma * (z**3 - 1) + t * f
    Hx = (1 - t) * gamma * 3 * z**2 + t * df
    Ht = f - gamma * (z**3 - 1)
    np.testing.assert_allclose(x1[:, 0], z - H / Hx, rtol=1e-13)
    np.testing.assert_allclose(v[:, 0], -Ht / Hx, rtol=1e-13)


def test_singular_jacobian_fails_only_its_own_path():
    # x^2 - 1 has the Jacobian 2x, exactly singular at x = 0
    sys_ = PolySystem([{(2,): 1.0, (0,): -1.0}], 1)
    ok, _x = newton_polish(sys_, np.array([0.0 + 0j]))
    assert not ok
    starts = np.array([[1.1 + 0j], [0.0 + 0j], [-0.9 + 0.1j]])
    ok, x, v = tracking._newton(
        sys_, 0j, starts, np.ones(3), tracking.POLISH_ITERS, tracking.POLISH_TOL
    )
    assert ok.tolist() == [True, False, True]
    np.testing.assert_allclose(x[[0, 2], 0], [1.0, -1.0], atol=1e-14)
    assert x[1, 0] == 0.0
    # at t = 1 with gamma = 0, Ht = F vanishes at a root: so does its tangent,
    # and the failed row keeps zero
    np.testing.assert_allclose(v[:, 0], 0.0, atol=1e-12)


# ------------------------------------------------------------------- backend


def test_warm_up_reports_backend():
    assert warm_up() == "numpy"
