"""Predictor-corrector path tracking for square polynomial systems.

Tracks the total-degree homotopy H(x, t) = (1-t) * gamma * S(x) + t * F(x)
with start system S_i(x) = x_i^(d_i) - 1 from t = 0 to t = 1, using a cubic
Hermite predictor and a Newton corrector with adaptive step control.

The predictor needs no evaluation beyond the tangent v = -Hx^-1 Ht that
each step solves for at its current point (t, x).  It extrapolates the cubic
through that point and the path's last accepted point (t_p, x_p, v_p), with
the tangents of both, to t + h.  A path with no accepted step yet takes the
tangent step x + h v, and so does a path whose cubic strays from the
tangent step by more than that step's length.

All equations of the target system share one monomial table, which also
holds every monomial of their first partial derivatives.  At P points, a
table of the powers x_v^e is built by repeated multiplication, each
monomial value is a product of one gathered power per variable, and F and
the Jacobian are one matrix product with the stacked coefficients.

The path is the batch axis: every path of a homotopy advances in one array
step.  Each path keeps its own t, step size, step count and status; the
predictor solve and the Newton corrector run on the stacked Jacobians, and
accept or reject, step-size change and every stopping rule are applied per
path by masks, by the rules of a tracker that follows one path at a time.
Finished paths leave the active set, so a step costs what the paths still
running cost.
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
    coefficient of monomial exps[j] in dF_i/dx_v.  Both are kept stacked as
    _CD, so F and the flattened J at P points are one product of _CD with
    the (monomials, P) table of monomial values.
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
        self._CD = np.concatenate([C, D.reshape(k * k, -1)])
        self.degrees = np.array(
            [max((sum(e) for e in poly), default=0) for poly in polys],
            dtype=np.int64,
        )
        # highest power of one variable needed by F, J and the start system
        self.top = int(max(self.degrees.max(initial=0), self.exps.max(initial=0)))
        self._vars = np.arange(k)

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
        return self._eval_FJ(np.asarray(x, dtype=np.complex128)[None])[1][0]

    def _eval_FJ(self, x):
        """(powers, F, J) at the rows of x (P, k); powers[v, e, p] = x[p, v]^e.

        The point index runs last in powers and in the monomial table, so
        each product and gather works on whole rows of P values.
        """
        xT = x.T
        powers = np.empty((self.k, self.top + 1, len(x)), dtype=np.complex128)
        powers[:, 0] = 1.0
        for e in range(1, self.top + 1):
            np.multiply(powers[:, e - 1], xT, out=powers[:, e])
        mono = powers[0, self.exps[:, 0]]
        for v in range(1, self.k):
            mono *= powers[v, self.exps[:, v]]
        FJ = (self._CD @ mono).T
        return powers, FJ[:, : self.k], FJ[:, self.k :].reshape(-1, self.k, self.k)


def _lower(expo, v):
    return tuple(e - 1 if i == v else e for i, e in enumerate(expo))


def _homotopy(system, gamma, x, t):
    """H(x, t), dH/dx and dH/dt at the rows of x (P, k), each at its own t (P,)."""
    powers, F, J = system._eval_FJ(x)
    v = system._vars
    degs = system.degrees
    xd1 = powers[v, degs - 1].T
    S = powers[v, degs].T - 1.0
    gt = (gamma * (1.0 - t))[:, None]
    H = gt * S + t[:, None] * F
    Hx = t[:, None, None] * J
    Hx[:, v, v] += gt * degs * xd1
    return H, Hx, F - gamma * S


def _solve(A, b):
    """Solve A[p] y[p] = b[p] for every p; returns (y, solved).

    A singular matrix fails only its own row, whose y is left zero.
    """
    try:
        return np.linalg.solve(A, b[:, :, None])[:, :, 0], np.ones(len(b), dtype=bool)
    except np.linalg.LinAlgError:
        # the stacked solve raises for the whole stack; find the singular rows
        y = np.zeros_like(b)
        solved = np.ones(len(b), dtype=bool)
        for p in range(len(b)):
            try:
                y[p] = np.linalg.solve(A[p], b[p])
            except np.linalg.LinAlgError:
                solved[p] = False
        return y, solved


def _newton(system, gamma, x, t, iters, tol):
    """Newton correction of each row of x (P, k) at its own t (P,).

    Returns (converged, last iterates).  Each row stops on its own: when it
    converges, when its Jacobian is singular, or when its step is NaN or
    hopelessly large.
    """
    x = x.copy()
    converged = np.zeros(len(x), dtype=bool)
    live = np.arange(len(x))
    for _ in range(iters):
        if not live.size:
            break
        H, Hx, _Ht = _homotopy(system, gamma, x[live], t[live])
        dx, solved = _solve(Hx, H)
        live, dx = live[solved], dx[solved]
        xl = x[live] - dx
        x[live] = xl
        norm_dx = np.abs(dx).max(axis=1)
        scale = 1.0 + np.abs(xl).max(axis=1)
        done = norm_dx <= tol * scale
        converged[live[done]] = True
        # a NaN step or a hopeless prediction bails before burning more iterations
        bail = np.isnan(norm_dx) | (norm_dx > 0.25 * scale)
        live = live[~done & ~bail]
    return converged, x


def _stalled(x):
    """Status of stalled paths at their last points x (P, k)."""
    return np.where(
        np.abs(x).max(axis=1) > STALL_DIVERGED, STATUS_DIVERGED, STATUS_FAILED
    )


def _predict(x_p, v_p, x, v, h0, h):
    """Cubic Hermite extrapolation of each path from t to t + h.

    Rows of x_p, v_p (P, k) are the last accepted points and their tangents,
    at h0 (P,) = t - t_p before the current points x with tangents v; h (P,)
    is the step.  The cubic through both points with both tangents is read
    at s = 1 + h / h0 of the interval [t_p, t].

    A row takes the tangent step x + h v instead when it has no accepted
    step yet (h0 = 0), or when the cubic departs from the tangent step by
    more than the tangent step itself moves (max norm).  The higher-order
    terms then outweigh the first-order one, as where the path turns
    sharply within a step, and the extrapolated point can sit in the
    Newton basin of another path.
    """
    first = h0 == 0.0
    h0 = np.where(first, 1.0, h0)
    s = 1.0 + h / h0
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = (s3 - 2.0 * s2 + s) * h0
    h01 = 3.0 * s2 - 2.0 * s3
    h11 = (s3 - s2) * h0
    cubic = h00[:, None] * x_p + h10[:, None] * v_p + h01[:, None] * x + h11[:, None] * v
    step = h[:, None] * v
    tangent = x + step
    trust = ~first & (np.abs(cubic - tangent).max(axis=1) <= np.abs(step).max(axis=1))
    return np.where(trust[:, None], cubic, tangent)


def track_all(system, gamma):
    """Track every start point of the total-degree homotopy.

    The start points are system.start_points(), the roots of unity of the
    start system.  Returns (endpoints, statuses, steps) arrays indexed by
    path.  All paths advance together, one predictor-corrector step per
    iteration.  Each step predicts by _predict, the cubic Hermite
    extrapolation from the path's last accepted point and its current one
    (the tangent step until a step is accepted, or where the cubic strays
    from it), and corrects by Newton at t + h; an accepted step makes the
    current point the last accepted one.  A path leaves the active set when
    it reaches t = 1, diverges past DIVERGENCE_CUTOFF, or stalls (MAX_STEPS
    steps, or a step size below H_MIN).  Converged endpoints are then
    polished together on the target system.
    """
    gamma = complex(gamma)
    out_x = system.start_points()
    paths = out_x.shape[0]
    out_status = np.full(paths, STATUS_CONVERGED, dtype=np.int64)
    out_steps = np.zeros(paths, dtype=np.int64)
    # state of the active paths; row r is path idx[r]
    idx = np.arange(paths)
    x = out_x.copy()
    t = np.zeros(paths)
    h = np.full(paths, H_INIT)
    # last accepted point of each path; t_p = t until a step is accepted
    t_p = t.copy()
    x_p = np.zeros_like(x)
    v_p = np.zeros_like(x)
    consec = np.zeros(paths, dtype=np.int64)
    steps = np.zeros(paths, dtype=np.int64)
    while idx.size:
        steps += 1
        hstep = np.minimum(h, 1.0 - t)
        # tangent dx/dt = -Hx^{-1} Ht with Ht = F - gamma * S
        _H, Hx, Ht = _homotopy(system, gamma, x, t)
        dx, solved = _solve(Hx, Ht)
        v = -dx
        sel = np.nonzero(solved)[0]
        ok, xtrial = _newton(
            system,
            gamma,
            _predict(x_p[sel], v_p[sel], x[sel], v[sel], t[sel] - t_p[sel], hstep[sel]),
            t[sel] + hstep[sel],
            NEWTON_ITERS,
            NEWTON_TOL,
        )
        accepted = np.zeros(idx.size, dtype=bool)
        accepted[sel] = ok
        moved = sel[ok]
        x_p[moved] = x[moved]
        v_p[moved] = v[moved]
        x[moved] = xtrial[ok]
        t_p = np.where(accepted, t, t_p)
        t = np.where(accepted, t + hstep, t)
        consec = np.where(accepted, consec + 1, 0)
        grow = consec >= 2
        consec[grow] = 0
        h = np.where(grow, np.minimum(h * 2.0, H_MAX), np.where(accepted, h, h * 0.5))
        diverged = accepted & (np.abs(x).max(axis=1) > DIVERGENCE_CUTOFF)
        running = ~diverged & (t < 1.0)
        stalled = running & ((~accepted & (h < H_MIN)) | (steps >= MAX_STEPS))
        ended = ~running | stalled
        if ended.any():
            out = idx[ended]
            out_x[out] = x[ended]
            out_steps[out] = steps[ended]
            out_status[idx[diverged]] = STATUS_DIVERGED
            out_status[idx[stalled]] = _stalled(x[stalled])
            keep = ~ended
            idx, x, t, h = idx[keep], x[keep], t[keep], h[keep]
            t_p, x_p, v_p = t_p[keep], x_p[keep], v_p[keep]
            consec, steps = consec[keep], steps[keep]
    # endpoint polish on the target system alone (t = 1)
    done = np.nonzero(out_status == STATUS_CONVERGED)[0]
    polished, xp = _newton(
        system, gamma, out_x[done], np.ones(done.size), POLISH_ITERS, POLISH_TOL
    )
    good = polished & np.all(np.isfinite(xp), axis=1)
    out_x[done[good]] = xp[good]
    return out_x, out_status, out_steps


def newton_polish(system, x):
    """Polish a point on the target system itself; returns (ok, x).

    Runs up to POLISH_ITERS Newton steps to POLISH_TOL, the endpoint polish
    of a tracked path.  On failure x is the last Newton iterate.
    """
    x = np.array(x, dtype=np.complex128)[None]
    ok, x = _newton(system, 0j, x, np.ones(1), POLISH_ITERS, POLISH_TOL)
    return bool(ok[0]), x[0]


def warm_up():
    """Track a trivial system once; returns the backend name."""
    system = PolySystem([{(2,): 1.0 + 0j, (0,): -1.0 + 0j}], 1)
    track_all(system, gamma=0.84 + 0.54j)
    return "numpy"
