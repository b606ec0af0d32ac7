"""Predictor-corrector path tracking for square polynomial systems.

Tracks the total-degree homotopy H(x, t) = (1-t) * gamma * S(x) + t * F(x)
with start system S_i(x) = x_i^(d_i) - 1 from t = 0 to t = 1, using a cubic
Hermite predictor and a Newton corrector with adaptive step control.

The target system is balanced before it is tracked (Meintjes & Morgan,
"A methodology for solving chemical equilibrium systems", Appl. Math.
Comput. 22, 1987; the chapter on scaling in Morgan, Solving Polynomial
Systems Using Continuation, 1987).  Equation i is multiplied by 2^r_i and
variable v is replaced by u_v = theta_v 2^(-s_v), the x of H, with integer
exponents from one least-squares fit of sum (log2|c| + r_i + e.s)^2 over
the coefficients c of monomials e.  Coefficients that span many orders of
magnitude, as the random combinations of minors do, otherwise leave the
start system's unit coefficients far from the target's: paths then do
nearly all of their moving near t = 0, where the step control rejects
step after step.  Powers of two make the scaling and its inverse exact in
binary floating point, so the balanced system has exactly the roots of
the caller's, and theta maps to u and back bit for bit.  The callers see
only theta.

Each Newton iteration solves Hx [dx, y] = [H, Ht] for both right-hand
sides at once, so the corrector also returns the tangent v = -y = dx/dt
of its last iteration.  The tangent of a path is solved for once, at its
start point; after that an accepted step takes the tangent its corrector
returned, and a rejected step keeps the tangent it had, since its point
has not moved.  The predictor extrapolates the cubic through the current
point (t, x, v) and the path's last accepted point (t_p, x_p, v_p), with
the tangents of both, to t + h.  A path with no accepted step yet takes
the tangent step x + h v, and so does a path whose cubic strays from the
tangent step by more than that step's length.

All equations of the target system share one monomial table, which also
holds every monomial of their first partial derivatives.  At P points, a
table of the powers x_v^e is built by repeated multiplication, each
monomial value is a product of one gathered power per variable, and the
Jacobian with F as an extra column is one matrix product with the stacked
coefficients.  The start system is read off the same power table by one
gather, so H, Hx and Ht cost one product.

The path is the batch axis: every path of a homotopy advances in one array
step.  Each path keeps its own t, step size, step count and status; the
Newton corrector runs on the stacked Jacobians, and accept or reject,
step-size change and every stopping rule are applied per path by masks,
by the rules of a tracker that follows one path at a time.  Finished paths
leave the active set, so a step costs what the paths still running cost.

A caller that knows an upper bound on the number of isolated solutions can
end a sweep early: track_all hands the endpoints of each batch of paths
that reach t = 1 to a stop test, and once the test reports every solution
found, the paths still running are stopped, not tracked on.  The bound is
the caller's to give; enumerator.solve takes the generic counts of the
paper, which no form exceeds (Morgan & Sommese, Appl. Math. Comput. 1989).
"""

from __future__ import annotations

import numpy as np

STATUS_CONVERGED = 0
STATUS_DIVERGED = 1
STATUS_FAILED = 2
STATUS_STOPPED = 3

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
# the tolerances above are relative to the balanced variables u, the norms
# below are of theta: they say how large a solution of the caller's can be
DIVERGENCE_CUTOFF = 1e8
# a stalled path is only declared divergent from well beyond any plausible
# solution norm; finite solutions of modest conditioning can sit at 1e5-1e6
STALL_DIVERGED = 1e7
MAX_STEPS = 1_500


class PolySystem:
    """A square system of k complex polynomials in k variables, balanced.

    The system is balanced when it is built (see _balance): equation i is
    multiplied by 2^r_i and variable v is replaced by u_v = theta_v 2^(-s_v),
    so the system the tracker follows has the coefficients c 2^(r_i + e.s)
    in the variables u.  Every function that takes or returns points
    (track_all and newton_polish below) works in the caller's variables
    theta and the caller's equations; only the private helpers work in u.

    Coefficients are stored densely over one monomial table that holds the
    union support and every first derivative of it: C[i, j] is the balanced
    coefficient of monomial exps[j] in equation i, and D[i, v, j] is the
    coefficient of monomial exps[j] in dF_i/du_v.  They are kept stacked
    as _JF, row i * (k + 1) + v holding D[i, v] and row i * (k + 1) + k
    holding C[i], so the Jacobian with F as its last column, at P points,
    is one product of _JF with the (monomials, P) table of monomial values.
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
        self.exps = np.array(monos, dtype=np.int64)
        C = np.zeros((k, len(monos)), dtype=np.complex128)
        for i, poly in enumerate(polys):
            for expo, coeff in poly.items():
                C[i, index[expo]] = complex(coeff)
        self.equation_scale, self.variable_scale = _balance(C, self.exps)
        C *= 2.0 ** (self.equation_scale[:, None] + self.exps @ self.variable_scale)
        JF = np.zeros((k, k + 1, len(monos)), dtype=np.complex128)
        JF[:, k] = C
        used = C.any(axis=0)
        for v in range(k):
            # lowering e_v by one is one-to-one on the monomials that hold u_v
            holds = np.nonzero(used & (self.exps[:, v] > 0))[0]
            lower = [index[_lower(monos[j], v)] for j in holds]
            JF[:, v, lower] = self.exps[holds, v] * C[:, holds]
        self._JF = JF.reshape(k * (k + 1), -1)
        self.degrees = np.array(
            [max((sum(e) for e in poly), default=0) for poly in polys],
            dtype=np.int64,
        )
        # highest power of one variable needed by F, J and the start system
        self.top = int(max(self.degrees.max(initial=0), self.exps.max(initial=0)))
        # rows of the flattened (k * (top + 1), P) power table: the powers
        # u_v^e that make up each monomial, then u_v^d_v and u_v^(d_v - 1)
        row = np.arange(k) * (self.top + 1)
        self._mono_rows = self.exps + row
        self._start_rows = np.concatenate(
            [row + self.degrees, row + np.maximum(self.degrees - 1, 0)]
        )

    def to_tracked(self, theta):
        """The tracked variables u = theta 2^(-s) of points theta (..., k)."""
        return np.asarray(theta, dtype=np.complex128) * 2.0 ** -self.variable_scale

    def from_tracked(self, u):
        """The caller's variables theta = u 2^s of tracked points u (..., k)."""
        return np.asarray(u, dtype=np.complex128) * 2.0 ** self.variable_scale

    def start_points(self):
        """All tuples of d_i-th roots of unity, as a (paths, k) array in u."""
        roots = []
        for d in self.degrees:
            angles = 2.0 * np.pi * np.arange(d) / d
            roots.append(np.exp(1j * angles))
        grids = np.meshgrid(*roots, indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=-1)

    def _eval_JF(self, x):
        """(powers, JF) of the balanced system at the rows of u = x (P, k).

        powers (k * (top + 1), P) holds x[p, v]^e in row v * (top + 1) + e;
        JF[p] (k, k + 1) is the Jacobian at x[p] with F(x[p]) as its last
        column.  The point index runs last in powers and in the monomial
        table, so each product and gather works on whole rows of P values.
        """
        P = len(x)
        powers = np.empty((self.k, self.top + 1, P), dtype=np.complex128)
        powers[:, 0] = 1.0
        xT = x.T
        for e in range(1, self.top + 1):
            np.multiply(powers[:, e - 1], xT, out=powers[:, e])
        powers = powers.reshape(self.k * (self.top + 1), P)
        mono = powers.take(self._mono_rows[:, 0], axis=0)
        for v in range(1, self.k):
            mono *= powers.take(self._mono_rows[:, v], axis=0)
        return powers, (self._JF @ mono).T.reshape(P, self.k, self.k + 1)


def _balance(C, exps):
    """Integer exponents (r, s) that balance the coefficient table C (k, M).

    Scaling equation i by 2^r_i and variable v by 2^s_v turns the
    coefficient c of monomial e in equation i into c 2^(r_i + e.s).  The
    exponents minimise sum (log2|c| + r_i + e.s)^2 over the nonzero c, one
    least-squares fit (the minimum-norm solution where the fit does not fix
    them), rounded to integers so that the scaling is exact.
    """
    k = len(C)
    rows, cols = np.nonzero(C)
    A = np.zeros((len(rows), 2 * k))
    A[np.arange(len(rows)), rows] = 1.0
    A[:, k:] = exps[cols]
    fit = np.linalg.lstsq(A, -np.log2(np.abs(C[rows, cols])), rcond=None)[0]
    fit = np.rint(fit).astype(np.int64)
    return fit[:k], fit[k:]


def _lower(expo, v):
    return tuple(e - 1 if i == v else e for i, e in enumerate(expo))


def _homotopy(system, gamma, x, t):
    """Hx and [H, Ht] at the rows of x (P, k), each at its own t (P,).

    Returns (Hx, B): Hx (P, k, k) is dH/dx, and B (P, k, 2) holds H and
    Ht = dH/dt = F - gamma * S as its two columns, the right-hand sides of
    one Newton-and-tangent solve.  Hx is t * J scaled in place in the
    product's array, and the start system's diagonal is added through a
    strided view of it.
    """
    P, k = x.shape
    powers, JF = system._eval_JF(x)
    start = powers.take(system._start_rows, axis=0).T  # x_v^d_v, x_v^(d_v - 1)
    gt = (gamma * (1.0 - t))[:, None]
    tc = t[:, None]
    F = JF[:, :, k]
    S = start[:, :k] - 1.0
    B = np.empty((P, k, 2), dtype=np.complex128)
    np.multiply(tc, F, out=B[:, :, 0])
    B[:, :, 0] += gt * S
    np.subtract(F, gamma * S, out=B[:, :, 1])
    Hx = JF[:, :, :k]
    Hx *= tc[:, :, None]
    diag = JF.reshape(P, k * (k + 1))[:, :: k + 2]
    diag += gt * system.degrees * start[:, k:]
    return Hx, B


def _solve(A, b):
    """Solve A[p] y[p] = b[p] for every p, b (P, k, m); returns (y, solved).

    A singular matrix fails only its own row, whose y is left zero.
    """
    try:
        return np.linalg.solve(A, b), np.ones(len(b), dtype=bool)
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

    Returns (converged, last iterates, tangents).  Each iteration solves
    Hx [dx, y] = [H, Ht] for both columns in one solve; the tangent of a
    converged row is -y of its last iteration, dx/dt at the iterate before
    its last update (rows that do not converge keep zero).  Each row stops
    on its own: when it converges, when its Jacobian is singular, or when
    its step is NaN or hopelessly large.
    """
    x = x.copy()
    v = np.zeros_like(x)
    converged = np.zeros(len(x), dtype=bool)
    live = np.arange(len(x))
    for _ in range(iters):
        if not live.size:
            break
        Hx, B = _homotopy(system, gamma, x[live], t[live])
        y, solved = _solve(Hx, B)
        live, y = live[solved], y[solved]
        dx = y[:, :, 0]
        xl = x[live] - dx
        x[live] = xl
        norm_dx = np.abs(dx).max(axis=1)
        scale = 1.0 + np.abs(xl).max(axis=1)
        done = norm_dx <= tol * scale
        finished = live[done]
        converged[finished] = True
        v[finished] = -y[done, :, 1]
        # a hopeless prediction bails before burning more iterations, and
        # so does a NaN step, since NaN fails every comparison
        live = live[~done & (norm_dx <= 0.25 * scale)]
    return converged, x, v


def _stalled(x):
    """Status of stalled paths at their last points theta = x (P, k)."""
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


def track_all(system, gamma, *, stop=None):
    """Track every start point of the total-degree homotopy.

    The start points are system.start_points(), the roots of unity of the
    start system.  Returns (endpoints, statuses, steps) arrays indexed by
    path.  All paths advance together, one predictor-corrector step per
    iteration.  Each step predicts by _predict, the cubic Hermite
    extrapolation from the path's last accepted point and its current one
    (the tangent step until a step is accepted, or where the cubic strays
    from it), and corrects by Newton at t + h.  The tangent at the current
    point is solved for once at the start point; an accepted step takes
    the tangent of its corrector's last iteration and makes the current
    point the last accepted one, and a rejected step keeps both.  A path
    leaves the active set when it reaches t = 1, diverges past
    DIVERGENCE_CUTOFF, or stalls (MAX_STEPS steps, or a step size below
    H_MIN).  Converged endpoints are then polished together on the target
    system.

    The paths run in the balanced variables u of the system; the
    endpoints and the points handed to stop are mapped back to theta.

    stop, when given, is called after each iteration in which paths reach
    t = 1, with their (unpolished) endpoints as a (P, k) array.  When it
    returns true the sweep ends: the paths still running get
    STATUS_STOPPED, with their last point and step count, and the
    converged endpoints are polished as usual.
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
    # tangent dx/dt = -Hx^{-1} Ht at the start points; Hx = gamma diag(d x^(d-1))
    # is regular at every root of unity
    Hx, B = _homotopy(system, gamma, x, t)
    v = -_solve(Hx, B)[0][:, :, 1]
    # last accepted point of each path; t_p = t until a step is accepted
    t_p = t.copy()
    x_p = np.zeros_like(x)
    v_p = np.zeros_like(x)
    consec = np.zeros(paths, dtype=np.int64)
    steps = np.zeros(paths, dtype=np.int64)
    while idx.size:
        steps += 1
        hstep = np.minimum(h, 1.0 - t)
        accepted, xtrial, vtrial = _newton(
            system,
            gamma,
            _predict(x_p, v_p, x, v, t - t_p, hstep),
            t + hstep,
            NEWTON_ITERS,
            NEWTON_TOL,
        )
        moved = accepted[:, None]
        x_p = np.where(moved, x, x_p)
        v_p = np.where(moved, v, v_p)
        x = np.where(moved, xtrial, x)
        v = np.where(moved, vtrial, v)
        t_p = np.where(accepted, t, t_p)
        t = np.where(accepted, t + hstep, t)
        consec = np.where(accepted, consec + 1, 0)
        grow = consec >= 2
        consec[grow] = 0
        h = np.where(grow, np.minimum(h * 2.0, H_MAX), np.where(accepted, h, h * 0.5))
        theta = system.from_tracked(x)
        diverged = accepted & (np.abs(theta).max(axis=1) > DIVERGENCE_CUTOFF)
        running = ~diverged & (t < 1.0)
        stalled = running & ((~accepted & (h < H_MIN)) | (steps >= MAX_STEPS))
        ended = ~running | stalled
        if ended.any():
            out = idx[ended]
            out_x[out] = x[ended]
            out_steps[out] = steps[ended]
            out_status[idx[diverged]] = STATUS_DIVERGED
            out_status[idx[stalled]] = _stalled(theta[stalled])
            arrived = ~running & ~diverged
            halt = stop is not None and arrived.any() and stop(theta[arrived])
            keep = ~ended
            idx, x, v, t, h = idx[keep], x[keep], v[keep], t[keep], h[keep]
            t_p, x_p, v_p = t_p[keep], x_p[keep], v_p[keep]
            consec, steps = consec[keep], steps[keep]
            if halt:
                out_x[idx] = x
                out_steps[idx] = steps
                out_status[idx] = STATUS_STOPPED
                break
    # endpoint polish on the target system alone (t = 1)
    done = np.nonzero(out_status == STATUS_CONVERGED)[0]
    polished, xp, _v = _newton(
        system, gamma, out_x[done], np.ones(done.size), POLISH_ITERS, POLISH_TOL
    )
    good = polished & np.all(np.isfinite(xp), axis=1)
    out_x[done[good]] = xp[good]
    return system.from_tracked(out_x), out_status, out_steps


def newton_polish(system, x):
    """Polish a point on the target system itself; returns (ok, x).

    Runs up to POLISH_ITERS Newton steps to POLISH_TOL, the endpoint polish
    of a tracked path.  On failure x is the last Newton iterate.
    """
    u = system.to_tracked(x)[None]
    ok, u, _v = _newton(system, 0j, u, np.ones(1), POLISH_ITERS, POLISH_TOL)
    return bool(ok[0]), system.from_tracked(u[0])


def warm_up():
    """Track a trivial system once; returns the backend name."""
    system = PolySystem([{(2,): 1.0 + 0j, (0,): -1.0 + 0j}], 1)
    track_all(system, gamma=0.84 + 0.54j)
    return "numpy"
