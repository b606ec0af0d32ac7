"""Predictor-corrector path tracking for square polynomial systems.

Tracks the total-degree homotopy H(x, t) = (1-t) * gamma * S(x) + t * F(x)
with start system S_i(x) = x_i^(d_i) - 1 from t = 0 to t = 1, using an Euler
predictor and a Newton corrector with adaptive step control.

All equations of the target system share one monomial table, which also
holds every monomial of their first partial derivatives.  At a point, a
table of the powers x_v^e is built by repeated multiplication, the monomial
vector is one gather over the exponent table, and F and the Jacobian are
the matrix products C @ mono and D @ mono.  Paths are tracked one at a time
with plain numpy calls.
"""

from __future__ import annotations

import numpy as np

STATUS_CONVERGED = 0
STATUS_DIVERGED = 1
STATUS_FAILED = 2

# step-control constants
H_INIT = 0.1
H_MAX = 0.25
H_MIN = 1e-14
# loose corrector tolerance mid-path: the tracker only has to stay inside
# the Newton basin; endpoints are re-polished at POLISH_TOL afterwards
NEWTON_TOL = 1e-9
NEWTON_ITERS = 4
POLISH_TOL = 1e-14
POLISH_ITERS = 10
DIVERGENCE_CUTOFF = 1e8
# a stalled path is only declared divergent from well beyond any plausible
# solution norm; finite solutions of modest conditioning can sit at 1e5-1e6
STALL_DIVERGED = 1e7
MAX_STEPS = 1_500


class PolySystem:
    """A square system of k complex polynomials in k variables.

    Coefficients are stored densely over one monomial table that holds the
    union support and every first derivative of it: C[i, j] is the
    coefficient of monomial exps[j] in equation i, and D[i, v, j] is the
    coefficient of monomial exps[j] in dF_i/dx_v.
    """

    def __init__(self, polys, k):
        """polys: list of k dicts {exponent tuple: complex coefficient}."""
        if len(polys) != k:
            raise ValueError("need exactly k polynomials")
        self.k = k
        support = {(0,) * k}
        for poly in polys:
            for expo in poly:
                support.add(expo)
                for v in range(k):
                    if expo[v]:
                        support.add(_lower(expo, v))
        monos = sorted(support)
        index = {expo: j for j, expo in enumerate(monos)}
        C = np.zeros((k, len(monos)), dtype=np.complex128)
        D = np.zeros((k, k, len(monos)), dtype=np.complex128)
        for i, poly in enumerate(polys):
            for expo, coeff in poly.items():
                C[i, index[expo]] = complex(coeff)
                for v in range(k):
                    if expo[v]:
                        D[i, v, index[_lower(expo, v)]] += expo[v] * complex(coeff)
        self.exps = np.array(monos, dtype=np.int64)
        self.C = C
        self.D = D
        self.degrees = np.array(
            [max((sum(e) for e in poly), default=0) for poly in polys],
            dtype=np.int64,
        )
        # highest power of one variable needed by F, J and the start system
        self.top = int(max(self.degrees.max(initial=0), self.exps.max(initial=0)))
        self._vars = np.arange(k)

    @property
    def total_paths(self):
        return int(np.prod(self.degrees))

    def start_points(self):
        """All tuples of d_i-th roots of unity, as a (paths, k) array."""
        roots = []
        for d in self.degrees:
            angles = 2.0 * np.pi * np.arange(d) / d
            roots.append(np.exp(1j * angles))
        grids = np.meshgrid(*roots, indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=-1)

    def evaluate(self, x):
        """F(x) for a single point."""
        return self._eval_FJ(np.asarray(x, dtype=np.complex128))[1]

    def _eval_FJ(self, x):
        """(powers, F, J) at one point; powers[v, e] = x_v^e."""
        powers = np.repeat(x[:, None], self.top + 1, axis=1)
        powers[:, 0] = 1.0
        powers = np.cumprod(powers, axis=1)
        mono = powers[self._vars, self.exps].prod(axis=1)
        return powers, self.C @ mono, self.D @ mono


def _lower(expo, v):
    return tuple(e - 1 if i == v else e for i, e in enumerate(expo))


def _homotopy(system, gamma, x, t):
    """H(x, t), dH/dx and dH/dt at one point."""
    powers, F, J = system._eval_FJ(x)
    degs = system.degrees
    xd1 = powers[system._vars, degs - 1]
    S = powers[system._vars, degs] - 1.0
    gt = gamma * (1.0 - t)
    H = gt * S + t * F
    Hx = t * J
    Hx[system._vars, system._vars] += gt * degs * xd1
    return H, Hx, F - gamma * S


def _newton(system, gamma, x, t, iters, tol):
    """Newton correction of x at fixed t; returns (converged, last iterate)."""
    for _ in range(iters):
        H, Hx, _Ht = _homotopy(system, gamma, x, t)
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
            # hopeless prediction; bail before burning more iterations
            return False, x
    return False, x


def _stalled(x):
    if np.abs(x).max() > STALL_DIVERGED:
        return STATUS_DIVERGED
    return STATUS_FAILED


def _track_one(system, gamma, x):
    """Track one path from t=0 to t=1; returns (status, steps, endpoint)."""
    t = 0.0
    h = H_INIT
    consec = 0
    steps = 0
    while t < 1.0:
        if steps >= MAX_STEPS:
            return _stalled(x), steps, x
        steps += 1
        hstep = min(h, 1.0 - t)
        # Euler predictor: dx/dt = -Hx^{-1} Ht with Ht = F - gamma * S
        _H, Hx, Ht = _homotopy(system, gamma, x, t)
        try:
            dx = np.linalg.solve(Hx, Ht)
        except np.linalg.LinAlgError:
            ok = False
        else:
            ok, xtrial = _newton(
                system, gamma, x - hstep * dx, t + hstep, NEWTON_ITERS, NEWTON_TOL
            )
        if ok:
            t += hstep
            x = xtrial
            if np.abs(x).max() > DIVERGENCE_CUTOFF:
                return STATUS_DIVERGED, steps, x
            consec += 1
            if consec >= 2:
                consec = 0
                h = min(h * 2.0, H_MAX)
        else:
            consec = 0
            h = h * 0.5
            if h < H_MIN:
                return _stalled(x), steps, x
    # endpoint polish on the target system alone (t = 1)
    polished, xp = _newton(system, gamma, x, 1.0, POLISH_ITERS, POLISH_TOL)
    if polished and np.all(np.isfinite(xp)):
        x = xp
    return STATUS_CONVERGED, steps, x


def track_all(system, gamma):
    """Track every start point of the total-degree homotopy.

    The start points are system.start_points(), the roots of unity of the
    start system.  Returns (endpoints, statuses, steps) arrays indexed by
    path.  Paths are independent; results are written to per-path slots, so
    the output does not depend on execution order.
    """
    starts = system.start_points()
    paths = starts.shape[0]
    out_x = np.empty((paths, system.k), dtype=np.complex128)
    out_status = np.empty(paths, dtype=np.int64)
    out_steps = np.empty(paths, dtype=np.int64)
    gamma = complex(gamma)
    for p in range(paths):
        out_status[p], out_steps[p], out_x[p] = _track_one(system, gamma, starts[p])
    return out_x, out_status, out_steps


def newton_polish(system, x):
    """Polish a point on the target system itself; returns (ok, x).

    Runs up to POLISH_ITERS Newton steps to POLISH_TOL, the endpoint polish
    of a tracked path.  On failure x is the last Newton iterate.
    """
    x = np.array(x, dtype=np.complex128)
    ok, x = _newton(system, 0j, x, 1.0, POLISH_ITERS, POLISH_TOL)
    return bool(ok), x


def warm_up():
    """Track a trivial system once; returns the backend name."""
    system = PolySystem([{(2,): 1.0 + 0j, (0,): -1.0 + 0j}], 1)
    track_all(system, gamma=0.84 + 0.54j)
    return "numpy"
