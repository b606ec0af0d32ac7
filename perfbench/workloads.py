"""The benchmark workloads of minsos and the layer instrumentation.

Every instance seed comes from the workload seed through SeedSequence, and
every job calls the public API at call time through the module attribute,
so the wrappers that ``instrument`` installs see the call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from minsos import (
    binary_sos,
    cones,
    enumerator,
    errors,
    factorization,
    gram,
    sampling,
    surfaces,
)
from minsos.tracking import STATUS_FAILED

from perfbench import oracle
from perfbench.spans import counted, self_times, span_counts, spanned, total_times

# Job times are scaled to the reference host speed (see hostspeed.py), so
# what is left of a run's spread is the spread between its random draws:
# each workload draws enough instances that their summed time is steady.
# A scroll(2,1) form takes 3-5 s at the reference speed, and a form's time
# varies by ~20% from form to form
HOMOTOPY_FORMS = 6
# (heights, instances per run); each matrix is a sum of FACTOR_DYADS * n
# dyads.  With fewer dyads (the generator draws n+1..2n) the fiber often
# meets the psd cone at a shallow angle: about one matrix in ten then
# exhausts psd_feasible's budget and falls back, 3-10x slower, a tail that
# swings a run by 20-50% between seeds.  Heights (4, 3, 3, 2) take 3-10 s a
# job, too long to draw enough of them within a run.
FACTOR_CASES = (((2, 1), 6), ((3, 3, 2), 12))
FACTOR_DYADS = 3
CONE_DEGREES = (4, 5, 6)
# the dedup is quadratic in the 2^d root choices: d = 8 already spends most
# of its 0.6 s there, while d = 10 alone would take 10 s
TWO_SQUARES_DEGREES = (6, 7, 8)


@dataclass
class Instance:
    group: str  # instances of one group are draws of the same problem size
    label: str
    seeds: dict
    run: Callable[[], object]
    check: Callable[[object], None]  # raises oracle.CheckFailed


def instance_seeds(workload, seed, count):
    """count instance seeds drawn from the workload seed and the workload name."""
    seq = np.random.SeedSequence([int(seed), *workload.encode()])
    return [int(s) for s in seq.generate_state(count, np.uint64)]


def _enumerate_rank(f, spec, seed):
    space = gram.build_gram_space(f, spec)
    return enumerator.enumerate_rank(space, 3, seed)


def _factor(A):
    return factorization.factor(A)


def _enumerate_cone(f, spec):
    return cones.enumerate_cone(f, spec)


def _two_squares(f):
    return binary_sos.enumerate_two_squares(f)


def homotopy(seed):
    """Rank-3 enumeration on scroll(2,1) (k=3, 64 total-degree paths).

    The surfaces with k = 1 would give jobs short enough to repeat many
    times, but their 4-path homotopy lands two paths on one solution for
    about one form in 100, and k = 1 is not where the tracker spends its time.
    """
    spec = surfaces.scroll(2, 1)
    want = oracle.scroll_counts(spec.genus)
    seeds = instance_seeds("homotopy", seed, 2 * HOMOTOPY_FORMS)
    out = []
    for i in range(HOMOTOPY_FORMS):
        form_seed, path_seed = seeds[2 * i], seeds[2 * i + 1]
        f = sampling.random_positive_form(spec, seed=form_seed)
        out.append(Instance(
            group=str(spec),
            label="%s/%d" % (spec, i),
            seeds={"form": form_seed, "enumerate": path_seed},
            run=functools.partial(_enumerate_rank, f, spec, path_seed),
            check=functools.partial(oracle.check_enumeration, f, want=want),
        ))
    return out


def factor(seed):
    """B B^T factorization of random psd matrices, each a sum of 3n dyads."""
    cases = [(heights, j) for heights, count in FACTOR_CASES for j in range(count)]
    seeds = instance_seeds("factor", seed, len(cases))
    out = []
    for (heights, j), s in zip(cases, seeds):
        A, _columns = sampling.random_dyad_matrix(heights, seed=s, ncols=FACTOR_DYADS * len(heights))
        out.append(Instance(
            group="heights%s" % (heights,),
            label="heights%s/%d" % (heights, j),
            seeds={"matrix": s},
            run=functools.partial(_factor, A),
            check=functools.partial(oracle.check_factor, A),
        ))
    return out


def census(seed):
    """Cone enumeration by apex reduction plus the two-squares census."""
    seeds = instance_seeds("census", seed, len(CONE_DEGREES) + len(TWO_SQUARES_DEGREES))
    out = []
    for d, s in zip(CONE_DEGREES, seeds):
        spec = surfaces.cone_rnc(d)
        f = sampling.random_positive_form(spec, seed=s)
        out.append(Instance(
            group=str(spec),
            label=str(spec),
            seeds={"form": s},
            run=functools.partial(_enumerate_cone, f, spec),
            check=functools.partial(oracle.check_enumeration, f, want=oracle.cone_counts(d)),
        ))
    for d, s in zip(TWO_SQUARES_DEGREES, seeds[len(CONE_DEGREES):]):
        f = sampling.random_nonneg_binary(d, seed=s)
        out.append(Instance(
            group="two_squares(d=%d)" % d,
            label="two_squares(d=%d)" % d,
            seeds={"form": s},
            run=functools.partial(_two_squares, f),
            check=functools.partial(oracle.check_two_squares, f, d=d),
        ))
    return out


WORKLOADS = {"homotopy": homotopy, "factor": factor, "census": census}


def instrument(tracer, patcher):
    """Wrap every measured layer entry point at the attribute its caller uses."""

    def span(owner, attr, name, **hooks):
        patcher.wrap(owner, attr, spanned(tracer, name, **hooks))

    def on_track(result, kwargs):
        _x, statuses, steps = result
        tracer.count("tracking.paths", len(statuses))
        tracer.count("tracking.steps", int(np.sum(steps)))
        tracer.count("tracking.failed", int(np.sum(statuses == STATUS_FAILED)))
        if kwargs.get("careful"):
            tracer.count("tracking.retrack_paths", len(statuses))

    def on_solve(result, kwargs):
        stats = result.path_stats
        tracer.count("enumerator.paths", stats["paths"])
        tracer.count("enumerator.solutions", stats["solutions"])
        tracer.count("enumerator.junk", stats["junkFiltered"])
        tracer.count("enumerator.second_sweeps", int(stats["secondSweep"]))

    def on_factor(result, kwargs):
        tracer.count("factorization.jobs")
        tracer.count("factorization.feas_iterations", result.info.get("feasIterations", 0))
        tracer.count("factorization.stalled", int(result.warning is not None))

    def on_feasible_error(exc):
        if isinstance(exc, errors.IterationBudgetExceeded):
            tracer.count("factorization.feasible_fallbacks")

    for attr in ("random_positive_form", "random_dyad_matrix", "random_nonneg_binary"):
        span(sampling, attr, "sampling.generate")
    for owner in (sampling, enumerator, cones):
        span(owner, "genericity_check", "surfaces.genericity")
    for owner in (gram, factorization):
        span(owner, "gram_space_from_basis", "gram.build")
    span(gram, "solve_affine", "exact_linalg.solve_affine")
    span(gram.GramSpace, "project_fiber", "gram.project_fiber")
    for owner in (enumerator, factorization):
        span(owner, "extract_representation", "gram.extract")
    for owner in (enumerator, cones):
        span(owner, "verify_representation", "gram.verify")
    span(enumerator, "enumerate_rank", "enumerator.enumerate_rank")
    span(enumerator, "minor_system", "enumerator.minor_system")
    span(enumerator, "solve", "enumerator.solve", on_result=on_solve)
    span(enumerator, "classify", "enumerator.classify")
    span(enumerator, "track_all", "tracking.track_all", on_result=on_track)
    span(enumerator, "newton_polish", "tracking.newton_polish")
    span(cones, "enumerate_cone", "cones.enumerate_cone")
    for owner, attr in ((binary_sos, "roots"), (cones, "binary_roots")):
        span(owner, attr, "binary_sos.roots")
    span(cones, "enumerate_rank_two", "binary_sos.enumerate_rank_two")
    for owner in (binary_sos, cones):
        span(owner, "enumerate_two_squares", "binary_sos.enumerate_two_squares")
    patcher.wrap(binary_sos, "equivalent", counted(tracer, "binary_sos.equivalent_calls"))
    span(factorization, "factor", "factorization.factor", on_result=on_factor)
    span(factorization, "check_psd_on_grid", "factorization.grid")
    patcher.wrap(factorization.SymMatrixPoly, "evaluate",
                 counted(tracer, "factorization.evaluate_calls"))
    span(factorization, "embed", "factorization.embed")
    span(factorization, "psd_feasible", "factorization.feasible", on_error=on_feasible_error)
    # the fallback runs only after psd_feasible gave up; its time is feasibility too
    span(factorization, "_feasible_reflections", "factorization.feasible")
    span(factorization, "rank_reduce", "factorization.rank_reduce")


PER_LAYER_UNITS = {
    "tracking.track_s": "s",
    "tracking.paths": "count",
    "tracking.steps": "count",
    "tracking.step_us": "us",
    "tracking.failed_ratio": "ratio",
    "tracking.retrack_paths": "count",
    "tracking.polish_s": "s",
    "enumerator.minors_s": "s",
    "enumerator.solve_self_s": "s",
    "enumerator.classify_self_s": "s",
    "enumerator.useful_path_ratio": "ratio",
    "enumerator.junk_ratio": "ratio",
    "enumerator.second_sweeps": "count",
    "gram.build_s": "s",
    "exact_linalg.solve_affine_s": "s",
    "gram.project_fiber_calls": "count",
    "gram.project_fiber_s": "s",
    "gram.extract_s": "s",
    "gram.verify_s": "s",
    "gram.verify_calls": "count",
    "surfaces.genericity_s": "s",
    "surfaces.genericity_calls": "count",
    "sampling.generate_s": "s",
    "cones.enumerate_self_s": "s",
    "binary_sos.roots_s": "s",
    "binary_sos.census_s": "s",
    "binary_sos.two_squares_self_s": "s",
    "binary_sos.equivalent_calls": "count",
    "factorization.grid_s": "s",
    "factorization.evaluate_calls": "count",
    "factorization.embed_s": "s",
    "factorization.feasible_s": "s",
    "factorization.feas_iterations": "count",
    "factorization.feasible_fallbacks": "count",
    "factorization.reduce_s": "s",
    "factorization.stalled_ratio": "ratio",
}


def _ratio(num, den):
    """num / den, and 0 where the layer did no work (den = 0)."""
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer values of one traced pass, keyed as in PER_LAYER_UNITS."""
    total = total_times(tracer.spans)
    own = self_times(tracer.spans)
    calls = span_counts(tracer.spans)
    c = tracer.counts

    def t(name):
        return total.get(name, 0.0)

    values = {
        "tracking.track_s": t("tracking.track_all"),
        "tracking.paths": c.get("tracking.paths", 0),
        "tracking.steps": c.get("tracking.steps", 0),
        "tracking.step_us": 1e6 * _ratio(t("tracking.track_all"), c.get("tracking.steps", 0)),
        "tracking.failed_ratio": _ratio(c.get("tracking.failed", 0), c.get("tracking.paths", 0)),
        "tracking.retrack_paths": c.get("tracking.retrack_paths", 0),
        "tracking.polish_s": t("tracking.newton_polish"),
        "enumerator.minors_s": t("enumerator.minor_system"),
        "enumerator.solve_self_s": own.get("enumerator.solve", 0.0),
        "enumerator.classify_self_s": own.get("enumerator.classify", 0.0),
        "enumerator.useful_path_ratio": _ratio(
            c.get("enumerator.solutions", 0), c.get("enumerator.paths", 0)),
        "enumerator.junk_ratio": _ratio(c.get("enumerator.junk", 0), c.get("enumerator.paths", 0)),
        "enumerator.second_sweeps": c.get("enumerator.second_sweeps", 0),
        "gram.build_s": t("gram.build"),
        "exact_linalg.solve_affine_s": t("exact_linalg.solve_affine"),
        "gram.project_fiber_calls": calls.get("gram.project_fiber", 0),
        "gram.project_fiber_s": t("gram.project_fiber"),
        "gram.extract_s": t("gram.extract"),
        "gram.verify_s": t("gram.verify"),
        "gram.verify_calls": calls.get("gram.verify", 0),
        "surfaces.genericity_s": t("surfaces.genericity"),
        "surfaces.genericity_calls": calls.get("surfaces.genericity", 0),
        "sampling.generate_s": t("sampling.generate"),
        "cones.enumerate_self_s": own.get("cones.enumerate_cone", 0.0),
        "binary_sos.roots_s": t("binary_sos.roots"),
        "binary_sos.census_s": t("binary_sos.enumerate_rank_two"),
        "binary_sos.two_squares_self_s": own.get("binary_sos.enumerate_two_squares", 0.0),
        "binary_sos.equivalent_calls": c.get("binary_sos.equivalent_calls", 0),
        "factorization.grid_s": t("factorization.grid"),
        "factorization.evaluate_calls": c.get("factorization.evaluate_calls", 0),
        "factorization.embed_s": t("factorization.embed"),
        "factorization.feasible_s": t("factorization.feasible"),
        "factorization.feas_iterations": c.get("factorization.feas_iterations", 0),
        "factorization.feasible_fallbacks": c.get("factorization.feasible_fallbacks", 0),
        "factorization.reduce_s": t("factorization.rank_reduce"),
        "factorization.stalled_ratio": _ratio(
            c.get("factorization.stalled", 0), c.get("factorization.jobs", 0)),
    }
    return values
