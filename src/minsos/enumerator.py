"""Enumeration of low-rank points on a Gram spectrahedron.

The rank <= r locus of the affine family G(theta) = G0 + sum theta_i K_i is
cut out by all (r+1) x (r+1) minors.  Symmetry of G makes the minor for row
set I and column set J equal to the one for (J, I), so only pairs with
I <= J are expanded.  A seeded square subsystem of k random complex
combinations of the minors is solved by total-degree homotopy continuation;
endpoints are filtered against the full minor list, clustered, tagged real,
and classified by inertia.

Where the paper gives the generic number of rank-3 points (expected_counts),
that number is the one completeness test: the first sweep stops once it
holds that many points, and another sweep with a new gamma runs only while
the points of all sweeps so far fall short of it, up to SWEEPS sweeps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import (
    DimensionMismatch,
    PathFailureBudgetExceeded,
    RankTooLarge,
    SystemTooLarge,
)
from .gram import extract_representation, gram_residual, inertias
# classify verifies through gram_residual, but perfbench wraps
# verify_representation here: a missing name raises KeyError under --trace 1
from .gram import verify_representation  # noqa: F401
from .surfaces import count_warning, expected_counts, genericity_check
from .tracking import (
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_FAILED,
    STATUS_STOPPED,
    PolySystem,
    newton_polish,
    track_all,
)

# endpoint post-processing, all relative: minors vanish to RESIDUAL_TOL,
# endpoints within CLUSTER_RADIUS merge, points within REAL_TOL of the real
# locus are realized; more than FAIL_BUDGET failed paths abort a sweep; at
# most SWEEPS sweeps run while short of the generic count
RESIDUAL_TOL = 1e-8
CLUSTER_RADIUS = 1e-6
REAL_TOL = 1e-6
FAIL_BUDGET = 0.05
SWEEPS = 3
COEFF_CUTOFF = 1e-13  # relative floor below which expansion coefficients are noise
# the tracker evaluates every monomial at every path at once, in complex128;
# a larger table than this is refused before any minor is expanded
TRACK_TABLE_LIMIT = 1 << 30  # bytes


def _monomials(k, maxdeg):
    """Exponent tuples in k variables of total degree <= maxdeg, graded order."""
    monos = []
    for deg in range(maxdeg + 1):
        for combo in itertools.combinations_with_replacement(range(k), deg):
            expo = [0] * k
            for v in combo:
                expo[v] += 1
            monos.append(tuple(expo))
    return monos


def _shift_tables(monos, k, maxdeg):
    """Per-variable index maps realizing multiplication by theta_v."""
    index = {expo: i for i, expo in enumerate(monos)}
    tables = []
    for v in range(k):
        src = []
        dst = []
        for i, expo in enumerate(monos):
            if sum(expo) < maxdeg:
                lifted = tuple(
                    e + 1 if j == v else e for j, e in enumerate(expo)
                )
                src.append(i)
                dst.append(index[lifted])
        tables.append((np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)))
    return tables


class _AffineDet:
    """Expands determinants of submatrices of G0 + sum theta_i K_i.

    Entries are affine in theta; Laplace expansion along rows of the fixed
    row set I shares sub-determinants across all column sets J through a
    per-I memo keyed by (depth, columns).
    """

    def __init__(self, G0, kernel, monos, shifts):
        self.G0 = G0
        self.kernel = kernel  # (k, N, N)
        self.k = kernel.shape[0]
        self.nmono = len(monos)
        self.shifts = shifts

    def _entry_vec(self, a, b):
        vec = np.zeros(self.nmono)
        vec[0] = self.G0[a, b]
        # degree-one monomials occupy slots 1..k in graded order
        for v in range(self.k):
            vec[1 + v] = self.kernel[v, a, b]
        return vec

    def _affine_mul(self, a, b, vec):
        out = self.G0[a, b] * vec
        for v in range(self.k):
            coeff = self.kernel[v, a, b]
            if coeff != 0.0:
                src, dst = self.shifts[v]
                out[dst] += coeff * vec[src]
        return out

    def minor(self, I, J, memo):
        return self._det(I, tuple(J), 0, memo)

    def _det(self, I, J, depth, memo):
        key = (depth, J)
        cached = memo.get(key)
        if cached is not None:
            return cached
        row = I[depth]
        if len(J) == 1:
            vec = self._entry_vec(row, J[0])
        else:
            vec = np.zeros(self.nmono)
            sign = 1.0
            for pos in range(len(J)):
                sub = self._det(I, J[:pos] + J[pos + 1 :], depth + 1, memo)
                vec += sign * self._affine_mul(row, J[pos], sub)
                sign = -sign
        memo[key] = vec
        return vec


@dataclass
class MinorSystem:
    """All (rank+1)-minors of a Gram family plus a seeded square subsystem."""

    space: object
    rank: int
    seed: int
    mono_exps: np.ndarray  # (nmono, k) exponent rows, graded order
    minors: np.ndarray  # (nminors, nmono) dense coefficient rows
    combos: np.ndarray  # (k, nmono) complex coefficient rows

    @property
    def k(self):
        return self.space.kdim

    def residuals(self, thetas):
        """max |minor| at each row of thetas (P, k), relative to the scale of
        G(theta) raised to the minor size.

        The rows go through one product per block.  A block holds as many
        points as there are monomials, so its minor values take no more
        memory than the minor table itself.
        """
        thetas = np.asarray(thetas, dtype=np.complex128)
        out = np.empty(len(thetas))
        block = len(self.mono_exps)
        kernel = self.space.kernel_f.reshape(self.k, -1)
        G0 = self.space.G0_f.reshape(-1)
        for lo in range(0, len(thetas), block):
            theta = thetas[lo : lo + block]
            mono = np.prod(theta[:, None, :] ** self.mono_exps, axis=2)
            # the minors are real: the real and imaginary parts of the
            # monomials go through one real product
            vals = np.concatenate([mono.real, mono.imag]) @ self.minors.T
            G = G0 + theta @ kernel
            scale = np.maximum(1.0, np.abs(G).max(axis=1)) ** (self.rank + 1)
            n = len(theta)
            out[lo : lo + n] = np.hypot(vals[:n], vals[n:]).max(axis=1) / scale
        return out

    def poly_system(self):
        polys = []
        for row in self.combos:
            cutoff = COEFF_CUTOFF * float(np.max(np.abs(row)))
            poly = {}
            for i, coeff in enumerate(row):
                if abs(coeff) > cutoff:
                    poly[tuple(int(e) for e in self.mono_exps[i])] = complex(coeff)
            polys.append(poly)
        return PolySystem(polys, self.k)


def minor_system(space, rank, seed=0):
    """Expand the (rank+1)-minors of G(theta) and draw a square subsystem.

    Minors are expanded exactly in floating point (the entries are affine
    with rational coefficients) over a dense graded monomial index.  The
    square subsystem takes k independent complex Gaussian combinations of
    the full minor list, seeded for reproducibility.
    """
    N = space.size
    k = space.kdim
    if rank < 1 or rank >= N:
        raise RankTooLarge(
            "rank %d out of range for %d x %d Gram matrices" % (rank, N, N)
        )
    if k == 0:
        raise DimensionMismatch("Gram family has no free parameters")
    m = rank + 1
    monos = _monomials(k, m)
    shifts = _shift_tables(monos, k, m)
    expander = _AffineDet(space.G0_f, space.kernel_f, monos, shifts)
    subsets = list(itertools.combinations(range(N), m))
    rows = []
    for i, I in enumerate(subsets):
        memo = {}
        for J in subsets[i:]:
            rows.append(expander.minor(I, J, memo))
    minors = np.array(rows)
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal((k, len(rows))) + 1j * rng.standard_normal(
        (k, len(rows))
    )
    return MinorSystem(
        space=space,
        rank=rank,
        seed=seed,
        mono_exps=np.array(monos, dtype=np.int64),
        minors=minors,
        combos=coeff @ minors,
    )


@dataclass
class SolutionSet:
    """Deduplicated endpoints of the homotopy, in canonical order."""

    system: MinorSystem
    points: list  # complex (k,) arrays, sorted canonically
    is_real: list
    residuals: list
    cluster_sizes: list
    path_stats: dict

    def __len__(self):
        return len(self.points)

    def to_json(self):
        pts = []
        for point, real_flag, resid, size in zip(
            self.points, self.is_real, self.residuals, self.cluster_sizes
        ):
            pts.append(
                {
                    "theta": [[float(v.real), float(v.imag)] for v in point],
                    "real": bool(real_flag),
                    "residual": float(resid),
                    "pathCount": int(size),
                }
            )
        return {"points": pts, "pathStats": dict(self.path_stats)}


def _canonical_key(point):
    key = []
    for v in point:
        key.append(float(v.real))
        key.append(float(v.imag))
    return tuple(key)


def _validate(system, block, sweep_id):
    """Endpoints whose minors all vanish, as (point, residual, sweep_id)."""
    resid = system.residuals(block)
    good = resid <= RESIDUAL_TOL
    survivors = [
        (point, float(r), sweep_id) for point, r in zip(block[good], resid[good])
    ]
    return survivors, int(len(block) - good.sum())


def _near(point, reps):
    """Mask of the rows of reps (R, k) within CLUSTER_RADIUS of point, the
    radius taken relative to each representative's own scale."""
    tol = CLUSTER_RADIUS * np.maximum(1.0, np.abs(reps).max(axis=1))
    return np.abs(point - reps).max(axis=1) <= tol


def _cluster(survivors):
    """Merge validated endpoints, visited in canonical order.

    Returns [representative, best residual, per-sweep path counts] lists.
    A point joins the first cluster whose representative is _near it.
    """
    clusters = []
    for point, resid, sweep_id in sorted(
        survivors, key=lambda item: _canonical_key(item[0])
    ):
        for entry in clusters:
            if _near(point, entry[0][None])[0]:
                entry[2][sweep_id] += 1
                entry[1] = min(entry[1], resid)
                break
        else:
            counts = [0] * SWEEPS
            counts[sweep_id] = 1
            clusters.append([point, resid, counts])
    return clusters


def _count_stop(system, count):
    """A stop test for track_all: true once the endpoints it has seen hold
    count distinct points whose minors vanish to RESIDUAL_TOL.

    Each new endpoint is checked against the representatives found so far
    by _cluster's radius rule, so a call costs its endpoints times the
    representatives, not a re-clustering of every endpoint seen.
    """
    reps = np.empty((0, system.k), dtype=np.complex128)

    def stop(endpoints):
        nonlocal reps
        for point in endpoints[system.residuals(endpoints) <= RESIDUAL_TOL]:
            if not _near(point, reps).any():
                reps = np.vstack([reps, point])
        return len(reps) >= count

    return stop


def solve(system, seed=0):
    """Track the seeded square subsystem and post-process its endpoints.

    Endpoints are kept when every minor vanishes to RESIDUAL_TOL (relative),
    merged within CLUSTER_RADIUS, and sorted canonically so the result is a
    deterministic function of (system, seed).  Points within REAL_TOL of the
    real locus are re-polished from their real parts and stored real.

    For rank 3 on a known surface, expected_counts gives the generic
    complex count, and no form has more isolated rank-3 points than that
    (the parameter-continuation theorem of Morgan & Sommese, Appl. Math.
    Comput. 1989).  That count is the one completeness test.  The first
    sweep stops, by _count_stop, once the endpoints that reached t = 1 hold
    that many distinct validated points; the paths still running are
    counted as stopped, neither failed nor diverged.  While the validated
    classes of all sweeps so far fall short of the count, one more sweep
    runs, in full, with the next gamma of the seeded stream, up to SWEEPS
    sweeps in all: the solution set does not depend on gamma, so the union
    of validated endpoints can only recover what earlier sweeps lost.  With
    no known count, one full sweep runs.

    The path statistics are the first sweep's, except junkFiltered, which
    counts every sweep; secondSweep says that more than one sweep ran.

    Raises PathFailureBudgetExceeded when more than FAIL_BUDGET of the
    non-diverging paths of any sweep fail to converge.
    """
    rng = np.random.default_rng(seed)
    psys = system.poly_system()
    expected = expected_counts(system.space.surface) if system.rank == 3 else None
    stop = None if expected is None else _count_stop(system, expected["complex"])
    survivors = []
    junk = 0
    for sweep in range(SWEEPS):
        gamma = np.exp(2j * np.pi * rng.uniform())
        x, s, _steps = track_all(psys, gamma, stop=stop if sweep == 0 else None)
        failed = int(np.sum(s == STATUS_FAILED))
        tracked = int(np.sum(s != STATUS_DIVERGED))
        if tracked > 0 and failed > FAIL_BUDGET * tracked:
            raise PathFailureBudgetExceeded(failed, len(s))
        if sweep == 0:
            endpoints, statuses = x, s
        more, bad = _validate(system, x[s == STATUS_CONVERGED], sweep)
        survivors += more
        junk += bad
        clusters = _cluster(survivors)
        if expected is None or len(clusters) >= expected["complex"]:
            break
    # stalled paths of the first sweep that sit at a large parameter norm
    # with vanishing minors are escaping toward solutions at infinity of the
    # affine chart
    stalled = endpoints[statuses == STATUS_FAILED]
    norm = np.abs(stalled).max(axis=1, initial=0.0)
    far = norm > 1e3
    norm = norm[far][system.residuals(stalled[far]) <= 1e-4]
    points = []
    real_flags = []
    residuals = []
    sizes = []
    for rep, resid, counts in clusters:
        # a path that jumped in one sweep inflates only that sweep's count;
        # only a true multiplicity repeats in every sweep that saw the point
        size = min(c for c in counts if c)
        real_flag = False
        if float(np.max(np.abs(rep.imag))) <= REAL_TOL * max(
            1.0, float(np.max(np.abs(rep)))
        ):
            # the gate is the residual of the realized real point, not the
            # polish convergence bit: Newton may stagnate at rounding level
            candidate = rep.real.astype(np.complex128)
            _, polished = newton_polish(psys, candidate)
            realized = polished.real.astype(np.complex128)
            if not np.all(np.isfinite(realized)):
                realized = candidate
            real_resid = float(system.residuals(realized[None])[0])
            if real_resid <= RESIDUAL_TOL:
                rep = realized
                resid = real_resid
                real_flag = True
        points.append(rep)
        real_flags.append(real_flag)
        residuals.append(resid)
        sizes.append(size)
    stats = {
        "paths": len(statuses),
        "converged": int(np.sum(statuses == STATUS_CONVERGED)),
        "diverged": int(np.sum(statuses == STATUS_DIVERGED)),
        "failed": int(np.sum(statuses == STATUS_FAILED)),
        "stopped": int(np.sum(statuses == STATUS_STOPPED)),
        "secondSweep": sweep > 0,
        "stalledEscaping": len(norm),
        "escapeNormMax": float(norm.max(initial=0.0)),
        "junkFiltered": junk,
        "solutions": len(points),
        # the powers of two that balance the tracked system (tracking.PolySystem)
        "equationScale": psys.equation_scale.tolist(),
        "variableScale": psys.variable_scale.tolist(),
    }
    return SolutionSet(
        system=system,
        points=points,
        is_real=real_flags,
        residuals=residuals,
        cluster_sizes=sizes,
        path_stats=stats,
    )


@dataclass
class CountReport:
    """Classification of the solutions of one enumeration run."""

    counts: dict
    expected: dict | None
    warning: str | None
    entries: list
    path_stats: dict
    notes: list = dataclass_field(default_factory=list)
    solution_set: object = None  # SolutionSet when produced by enumerate_rank

    def summary_lines(self):
        lines = []
        order = ("complex", "real", "psd", "indefinite")
        got = "  ".join("%s=%d" % (key, self.counts[key]) for key in order)
        lines.append("counts: " + got)
        if self.expected is not None:
            want = "  ".join(
                "%s=%d" % (key, self.expected[key]) for key in order
            )
            lines.append("expected (generic): " + want)
        if self.warning:
            lines.append("warning: " + self.warning)
        for note in self.notes:
            lines.append("note: " + note)
        return lines

    def to_json(self):
        entries = []
        for entry in self.entries:
            rep = entry.get("representation")
            entries.append(
                {
                    "theta": [float(v) for v in entry["theta"]],
                    "inertia": list(entry["inertia"]),
                    "psd": bool(entry["psd"]),
                    "verifyResidual": entry.get("verify_residual"),
                    "representation": rep.to_json() if rep is not None else None,
                }
            )
        return {
            "counts": dict(self.counts),
            "expected": dict(self.expected) if self.expected else None,
            "warning": self.warning,
            "entries": entries,
            "pathStats": dict(self.path_stats),
            "notes": list(self.notes),
        }


def classify(space, classes, complex_count, notes=(), path_stats=None):
    """The CountReport of a form's classes, whatever route found them.

    classes lists the real classes as (theta, G, rep) triples; complex_count
    counts all classes.  Each is labelled by the inertia of G, all of them
    from one stacked eigvalsh (gram.inertias): no negative eigenvalue means
    a sum of rank squares (a psd class), otherwise a signed mix.  A rep of
    None is read off a psd G by extract_representation; a given rep comes
    with its own Gram matrix as G, the bits of rep.gram().  Every rep is
    re-verified against the form by one stacked gram_residual call over
    those matrices.  The genericity diagnostics follow the caller's notes,
    and a warning is attached when complex_count falls short of the generic
    count for the surface.
    """
    counts = {"complex": complex_count, "real": len(classes), "psd": 0, "indefinite": 0}
    entries = []
    certified = []  # (entry, Gram matrix of its representation)
    for (theta, G, rep), ine in zip(classes, inertias([G for _, G, _ in classes])):
        psd = ine[1] == 0
        counts["psd" if psd else "indefinite"] += 1
        entry = {"theta": theta, "inertia": ine, "psd": psd}
        if rep is None and psd:
            rep = extract_representation(space, G)
            G = rep.gram()
        if rep is not None:
            entry["representation"] = rep
            certified.append((entry, G))
        entries.append(entry)
    if certified:
        residuals = gram_residual(space.form, space.basis, np.array([G for _, G in certified]))
        for (entry, _), resid in zip(certified, residuals.tolist()):
            entry["verify_residual"] = resid
    notes = list(notes)
    if space.surface is not None and space.form is not None:
        notes.extend(genericity_check(space.form, space.surface))
    return CountReport(
        counts=counts,
        expected=expected_counts(space.surface),
        warning=count_warning(space.surface, complex_count),
        entries=entries,
        path_stats=dict(path_stats or {}),
        notes=notes,
    )


def _path_notes(solutions):
    """Why the homotopy may have missed classes: absorbed paths, paths
    escaping to infinity, and the diverged and junk endpoints."""
    stats = solutions.path_stats
    notes = [
        "solution %d absorbed %d paths (multiplicity > 1 degeneration)" % (i, size)
        for i, size in enumerate(solutions.cluster_sizes)
        if size > 1
    ]
    escaping = stats.get("stalledEscaping", 0)
    if escaping:
        notes.append(
            "%d paths stalled escaping to infinity (parameter norm up to"
            " %.1e, minors vanishing): missing representations degenerate"
            " at the boundary of the affine Gram chart"
            % (escaping, stats.get("escapeNormMax", 0.0))
        )
    notes.append(
        "path endpoints: %d diverged, %d filtered as junk"
        % (stats.get("diverged", 0), stats.get("junkFiltered", 0))
    )
    return notes


def enumerate_rank(space, rank=3, seed=0):
    """Full pipeline: minors, homotopy, classification, for one seed.

    The seed feeds two independent streams (combination coefficients and the
    start-system rotation), so runs with equal seeds are reproducible.

    Raises SystemTooLarge when the total-degree start system, (rank + 1)^k
    paths each evaluating every monomial of degree <= rank + 1 in k
    variables, needs a table above TRACK_TABLE_LIMIT: genus-4 scrolls
    (k = 10) would ask for about 16 GiB, genus 3 (k = 6) for 14 MB.
    """
    k = space.kdim
    paths = (rank + 1) ** k
    table = paths * math.comb(k + rank + 1, rank + 1) * 16
    if table > TRACK_TABLE_LIMIT:
        raise SystemTooLarge(
            "%d parameters give %d start paths and a %.1f GiB monomial table"
            " (limit %.1f GiB)" % (k, paths, table / 2**30, TRACK_TABLE_LIMIT / 2**30)
        )
    ss = np.random.SeedSequence(seed)
    combo_seed, gamma_seed = (int(s) for s in ss.generate_state(2, np.uint64))
    system = minor_system(space, rank, seed=combo_seed)
    solutions = solve(system, seed=gamma_seed)
    real = [p.real for p, is_real in zip(solutions.points, solutions.is_real) if is_real]
    classes = [(theta, space.gram_at(theta), None) for theta in real]
    report = classify(space, classes, len(solutions), path_stats=solutions.path_stats)
    if report.warning is not None:
        report.notes += _path_notes(solutions)
    report.solution_set = solutions
    return report
