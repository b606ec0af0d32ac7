"""Rank enumeration cross-checked against an exact determinant oracle.

For a one-parameter Gram family (scroll(1,1)) the rank-3 locus is the root
set of the quartic det G(theta), which an exact rational determinant plus
numpy's companion-matrix roots can produce with no homotopy involved.  The
enumerator must reproduce that root set point for point.
"""

from fractions import Fraction

import numpy as np
import pytest

from minsos import enumerator
from minsos.biform import TermPoly
from minsos.cones import enumerate_cone
from minsos.enumerator import (
    CLUSTER_RADIUS,
    RESIDUAL_TOL,
    CountReport,
    classify,
    enumerate_rank,
    minor_system,
    solve,
)
from minsos.errors import (
    DegreeMismatch,
    PathFailureBudgetExceeded,
    RankTooLarge,
    SystemTooLarge,
)
from minsos.gram import build_gram_space, extract_representation, verify_representation
from minsos.sampling import random_positive_form
from minsos.surfaces import (
    CONE_RNC,
    cone_rnc,
    expected_counts,
    genericity_check,
    scroll,
    veronese,
)
from minsos.tracking import (
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_FAILED,
    STATUS_STOPPED,
    track_all,
)


def _exact_det(M):
    """Fraction-exact determinant by Gaussian elimination."""
    M = [[Fraction(v) for v in row] for row in M]
    n = len(M)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if M[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            M[c], M[pivot] = M[pivot], M[c]
            det = -det
        det *= M[c][c]
        inv = Fraction(1) / M[c][c]
        for r in range(c + 1, n):
            factor = M[r][c] * inv
            if factor:
                M[r] = [a - factor * b for a, b in zip(M[r], M[c])]
    return det


def _interpolate(nodes, values):
    """Exact monomial coefficients of the polynomial through the points.

    Newton divided differences, then the Newton form expanded by Horner.
    """
    diffs = list(values)
    for j in range(1, len(nodes)):
        for i in range(len(nodes) - 1, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (nodes[i] - nodes[i - j])
    coeffs = [Fraction(0)] * len(nodes)
    for node, diff in zip(nodes[::-1], diffs[::-1]):
        # coeffs <- coeffs * (x - node) + diff
        coeffs = [diff] + coeffs[:-1]
        for p in range(len(coeffs) - 1):
            coeffs[p] -= node * coeffs[p + 1]
    return coeffs


def _det_poly_roots(space):
    """Roots of det G(theta) for a kdim-1 space, via exact interpolation.

    G(theta) = G0 + theta K is summed over the rationals from the exact
    matrices of the space's JSON report.
    """
    assert space.kdim == 1
    data = space.to_json()
    G0, K = (
        [[Fraction(v["num"], v["den"]) for v in row] for row in rows]
        for rows in (data["G0"], *data["kernel"])
    )
    deg = space.size  # det of an affine pencil has degree <= matrix size
    nodes = [Fraction(node) for node in range(-(deg // 2), deg - deg // 2 + 1)]
    values = [
        _exact_det([[g + node * k for g, k in zip(rg, rk)] for rg, rk in zip(G0, K)])
        for node in nodes
    ]
    coeffs = _interpolate(nodes, values)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return np.roots([float(c) for c in coeffs[::-1]])


def _g1_form():
    # nonnegative on the scroll: (t x)^2 + (s x)^2 + 2 (t y)^2
    #   + 2 s t y^2 + 2 (s y)^2, with rank-3 locus {+-1, +-sqrt(3)}
    return TermPoly(
        4,
        {
            (0, 2, 2, 0): 1,
            (2, 0, 2, 0): 1,
            (0, 2, 0, 2): 2,
            (1, 1, 0, 2): 2,
            (2, 0, 0, 2): 2,
        },
    )


# ------------------------------------------------------------ oracle match


def test_rank3_locus_matches_determinant_roots():
    space = build_gram_space(_g1_form(), scroll(1, 1))
    oracle = sorted(_det_poly_roots(space), key=lambda z: (z.real, z.imag))
    solutions = solve(minor_system(space, 3, seed=0), seed=0)
    got = sorted((p[0] for p in solutions.points), key=lambda z: (z.real, z.imag))
    assert len(got) == len(oracle)
    for a, b in zip(got, oracle):
        assert abs(a - b) < 1e-8


def test_rank3_locus_matches_oracle_random_form():
    f = random_positive_form(scroll(1, 1), seed=12)
    space = build_gram_space(f, scroll(1, 1))
    oracle = sorted(_det_poly_roots(space), key=lambda z: (z.real, z.imag))
    solutions = solve(minor_system(space, 3, seed=5), seed=5)
    got = sorted((p[0] for p in solutions.points), key=lambda z: (z.real, z.imag))
    assert len(got) == len(oracle)
    for a, b in zip(got, oracle):
        assert abs(a - b) < 1e-7


# ------------------------------------------------------- expected counts


def test_expected_counts_catalogue():
    assert expected_counts(scroll(1, 1)) == {
        "complex": 4, "real": 4, "psd": 2, "indefinite": 2,
    }
    assert expected_counts(scroll(2, 1)) == {
        "complex": 16, "real": 4, "psd": 4, "indefinite": 0,
    }
    assert expected_counts(scroll(2, 2)) == {
        "complex": 64, "real": 16, "psd": 8, "indefinite": 8,
    }
    assert expected_counts(cone_rnc(4)) == {
        "complex": 35, "real": 11, "psd": 8, "indefinite": 3,
    }
    assert expected_counts(veronese()) == {
        "complex": 63, "real": 15, "psd": 8, "indefinite": 7,
    }
    assert expected_counts(None) is None


# ------------------------------------------------------------- full pipeline


def test_enumerate_g1_fixture_counts_and_thetas():
    space = build_gram_space(_g1_form(), scroll(1, 1))
    report = enumerate_rank(space, seed=0)
    assert report.counts == {"complex": 4, "real": 4, "psd": 2, "indefinite": 2}
    assert report.warning is None
    thetas = sorted(float(e["theta"][0]) for e in report.entries)
    expected = sorted([-np.sqrt(3.0), -1.0, 1.0, np.sqrt(3.0)])
    assert np.max(np.abs(np.array(thetas) - np.array(expected))) < 1e-8


def test_enumerate_entries_are_verified_rank3():
    space = build_gram_space(_g1_form(), scroll(1, 1))
    report = enumerate_rank(space, seed=0)
    psd_entries = [entry for entry in report.entries if entry["psd"]]
    assert len(psd_entries) == 2
    for entry in psd_entries:
        assert entry["verify_residual"] <= 1e-8
        rep = entry["representation"]
        assert rep.nforms == 3
        assert rep.signs == [1, 1, 1]
        assert entry["inertia"][1] == 0  # no negative eigenvalues
        assert verify_representation(space.form, rep) <= 1e-7
    # indefinite entries carry signature but no certificate
    for entry in report.entries:
        if not entry["psd"]:
            assert entry["inertia"][1] > 0
            assert "representation" not in entry


def test_classify_labels_certifies_and_counts_the_given_classes():
    # theta = 1 is a psd rank-3 point of the g1 form, theta = sqrt(3) an
    # indefinite one; the psd class comes without a representation and the
    # indefinite one with its own, and so with its own Gram matrix
    space = build_gram_space(_g1_form(), scroll(1, 1))
    psd_theta, ind_theta = np.array([1.0]), np.array([np.sqrt(3.0)])
    given = extract_representation(space, space.gram_at(ind_theta))
    report = classify(
        space,
        [(psd_theta, space.gram_at(psd_theta), None), (ind_theta, given.gram(), given)],
        4,
        notes=["route note"],
    )
    assert report.counts == {"complex": 4, "real": 2, "psd": 1, "indefinite": 1}
    assert report.expected == expected_counts(scroll(1, 1))
    assert report.warning is None and report.notes[0] == "route note"
    assert report.path_stats == {}
    psd_entry, ind_entry = report.entries
    assert psd_entry["inertia"] == (3, 0, 1) and psd_entry["psd"]
    assert ind_entry["inertia"] == (2, 1, 1) and not ind_entry["psd"]
    assert ind_entry["representation"] is given
    assert ind_entry["verify_residual"] == verify_representation(space.form, given) <= 1e-8
    extracted = psd_entry["representation"]
    assert extracted.nforms == 3 and extracted.signs == [1, 1, 1]
    assert psd_entry["verify_residual"] == verify_representation(space.form, extracted) <= 1e-8


def _certified_report(spec, seed):
    """The form of spec at seed and its count report: the apex reduction on a
    cone, the homotopy over the Gram space otherwise."""
    form = random_positive_form(spec, seed=seed)
    if spec.kind == CONE_RNC:
        return form, enumerate_cone(form, spec)
    return form, enumerate_rank(build_gram_space(form, spec), seed=seed)


@pytest.mark.parametrize(
    "spec, seed",
    [(cone_rnc(d), seed) for d in range(3, 7) for seed in range(3)]
    + [(scroll(1, 1), seed) for seed in range(3)],
    ids=["cone%d-seed%d" % (d, seed) for d in range(3, 7) for seed in range(3)]
    + ["scroll11-seed%d" % seed for seed in range(3)],
)
def test_every_verify_residual_has_the_bits_of_its_representation_alone(spec, seed):
    # classify verifies every certificate in one stacked residual call, from
    # the cone's stacked Gram matrices or from gram() of an extracted rep
    form, report = _certified_report(spec, seed)
    certified = [entry for entry in report.entries if "representation" in entry]
    assert len(certified) == report.counts["real" if spec.kind == CONE_RNC else "psd"] > 0
    for entry in certified:
        want = verify_representation(form, entry["representation"])
        assert entry["verify_residual"].hex() == want.hex()


def test_enumerate_deterministic_per_seed():
    import json

    space = build_gram_space(_g1_form(), scroll(1, 1))
    r1 = enumerate_rank(space, seed=7)
    r2 = enumerate_rank(space, seed=7)
    assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(
        r2.to_json(), sort_keys=True
    )


def test_minor_system_residual_vanishes_at_solutions():
    space = build_gram_space(_g1_form(), scroll(1, 1))
    system = minor_system(space, 3, seed=0)
    resid = system.residuals(np.array([[1.0 + 0j], [0.5 + 0j]]))
    assert resid[0] < 1e-10
    assert resid[1] > 1e-4


def test_minor_system_rejects_bad_rank():
    space = build_gram_space(_g1_form(), scroll(1, 1))
    with pytest.raises(RankTooLarge):
        minor_system(space, 0)
    with pytest.raises(RankTooLarge):
        minor_system(space, 4)


def test_genus_four_scroll_is_refused_before_any_minor_is_expanded(monkeypatch):
    # k = 10: 4^10 start paths would need a ~16 GiB monomial table at once
    def unexpected(*args, **kwargs):
        raise AssertionError("minor_system ran")

    monkeypatch.setattr(enumerator, "minor_system", unexpected)
    space = build_gram_space(random_positive_form(scroll(3, 2), seed=0), scroll(3, 2))
    assert space.kdim == 10
    with pytest.raises(SystemTooLarge, match="1048576 start paths"):
        enumerate_rank(space, seed=0)


def test_path_stats_accounting():
    space = build_gram_space(_g1_form(), scroll(1, 1))
    report = enumerate_rank(space, seed=0)
    stats = report.path_stats
    assert stats["paths"] == len(report.solution_set.system.poly_system().start_points())
    assert stats["converged"] + stats["diverged"] + stats["failed"] == stats["paths"]
    assert stats["solutions"] == len(report.solution_set.points)


def test_report_json_and_summary_shapes():
    space = build_gram_space(_g1_form(), scroll(1, 1))
    report = enumerate_rank(space, seed=0)
    data = report.to_json()
    assert data["counts"]["complex"] == 4
    assert len(data["entries"]) == 4
    for entry in data["entries"]:
        assert set(entry) >= {"theta", "inertia", "psd", "verifyResidual"}
    lines = report.summary_lines()
    assert any(line.startswith("counts:") for line in lines)
    assert any("expected" in line for line in lines)


def _stub_tracker(monkeypatch, diverged, failed, converged):
    """Make every sweep of solve end with the given path statuses."""
    statuses = np.array(
        [STATUS_DIVERGED] * diverged + [STATUS_FAILED] * failed + [STATUS_CONVERGED] * converged
    )

    def track_all(psys, gamma, *, stop=None):
        return np.ones((len(statuses), 1), dtype=complex), statuses.copy(), 0

    monkeypatch.setattr(enumerator, "track_all", track_all)


def test_solve_raises_once_failures_exceed_the_budget(monkeypatch):
    # the budget counts the non-diverging paths: with 24 diverged and 40
    # tracked it allows 2 failures, where 5 % of all 64 paths would allow 3
    system = minor_system(build_gram_space(_g1_form(), scroll(1, 1)), 3, seed=0)
    diverged, tracked = 24, 40
    budget = enumerator.FAIL_BUDGET * tracked
    assert budget == 2
    _stub_tracker(monkeypatch, diverged, 2, tracked - 2)
    assert solve(system, seed=0).path_stats["failed"] == 2
    _stub_tracker(monkeypatch, diverged, 3, tracked - 3)
    with pytest.raises(PathFailureBudgetExceeded) as info:
        solve(system, seed=0)
    assert (info.value.failed, info.value.total) == (3, diverged + tracked)


# ------------------------------------------------------------- count gates


def test_path_jump_recovered_by_second_sweep():
    # the first sweep lands two paths on theta ~ -8.053 and loses the root
    # at theta ~ -4.293; the shortfall sends a sweep with another gamma
    f = random_positive_form(scroll(1, 1), seed=14637092758747473423)
    space = build_gram_space(f, scroll(1, 1))
    report = enumerate_rank(space, 3, 1652428569061059459)
    assert report.counts == expected_counts(scroll(1, 1))
    assert report.path_stats["secondSweep"]
    assert report.solution_set.cluster_sizes == [1, 1, 1, 1]


def test_unknown_count_runs_one_sweep(monkeypatch):
    # the path-jump form again: with no count to fall short of, its
    # collision sends no further sweep
    monkeypatch.setattr(enumerator, "expected_counts", lambda surface: None)
    sweeps = _recording_tracker(monkeypatch)
    f = random_positive_form(scroll(1, 1), seed=14637092758747473423)
    report = enumerate_rank(build_gram_space(f, scroll(1, 1)), 3, 1652428569061059459)
    assert len(sweeps) == 1
    assert not report.path_stats["secondSweep"]


@pytest.mark.parametrize(
    "form_seed, seed",
    [
        (4214653205159745395, 2103186909639634724),
        # two sweeps give 1 of the 2 psd classes
        (4076589911950817173, 2353658983457918124),
        (2773315512792522597, 6697241428850392926),
    ],
)
def test_scroll11_class_lost_by_two_sweeps_is_found_by_a_third(monkeypatch, form_seed, seed):
    # both of the first two sweeps land two of the 4 paths on one class, so
    # only the third holds the class they lost
    spec = scroll(1, 1)
    sweeps = _recording_tracker(monkeypatch)
    f = random_positive_form(spec, seed=form_seed)
    report = enumerate_rank(build_gram_space(f, spec), 3, seed)
    assert len(sweeps) == enumerator.SWEEPS == 3
    assert report.counts == expected_counts(spec)


def test_solution_lost_to_divergence_is_recovered_by_second_sweep(monkeypatch):
    # the first sweep's only path to one solution ends diverged: no path
    # fails and none collides, and the count shortfall sends a sweep
    spec = scroll(2, 1)
    space = build_gram_space(random_positive_form(spec, seed=0), spec)
    system = minor_system(space, 3, seed=0)
    sweeps = []

    def flipping(psys, gamma, *, stop=None):
        x, statuses, steps = track_all(psys, gamma, stop=stop)
        if not sweeps:
            resid = system.residuals(x)
            valid = (statuses == STATUS_CONVERGED) & (resid <= RESIDUAL_TOL)
            lost = np.nonzero(valid)[0][0]
            near = np.abs(x - x[lost]).max(axis=1) <= CLUSTER_RADIUS * max(
                1.0, np.abs(x[lost]).max()
            )
            assert near.sum() == 1
            statuses[lost] = STATUS_DIVERGED
        sweeps.append(statuses)
        return x, statuses, steps

    monkeypatch.setattr(enumerator, "track_all", flipping)
    solutions = solve(system, seed=0)
    stats = solutions.path_stats
    assert stats["failed"] == 0
    assert stats["secondSweep"]
    assert len(sweeps) == 2
    assert len(solutions) == expected_counts(spec)["complex"] == 16


def _recording_tracker(monkeypatch):
    """Patch solve's tracker to record the (x, statuses, steps) of each sweep."""
    sweeps = []

    def recording(psys, gamma, *, stop=None):
        sweeps.append(track_all(psys, gamma, stop=stop))
        return sweeps[-1]

    monkeypatch.setattr(enumerator, "track_all", recording)
    return sweeps


def _scroll21_seed0_space():
    spec = scroll(2, 1)
    return build_gram_space(random_positive_form(spec, seed=0), spec)


def test_sweep_stops_at_the_generic_count(monkeypatch):
    # the first sweep ends once its endpoints hold the 16 classes; the full
    # sweep takes 130 lockstep iterations on this form, the stopped one 70
    sweeps = _recording_tracker(monkeypatch)
    report = enumerate_rank(_scroll21_seed0_space(), 3, seed=0)
    assert len(sweeps) == 1
    _x, statuses, steps = sweeps[0]
    assert steps.max() <= 80
    stats = report.path_stats
    assert stats["stopped"] == np.sum(statuses == STATUS_STOPPED) > 0
    assert stats["converged"] + stats["diverged"] + stats["failed"] + stats["stopped"] == 64
    assert stats["failed"] == 0 and not stats["secondSweep"]
    assert report.counts == expected_counts(scroll(2, 1))


def test_stopped_and_full_sweeps_agree(monkeypatch):
    space = _scroll21_seed0_space()
    stopped = enumerate_rank(space, 3, seed=0)
    monkeypatch.setattr(enumerator, "expected_counts", lambda surface: None)
    full = enumerate_rank(space, 3, seed=0)
    assert stopped.path_stats["stopped"] > 0
    assert full.path_stats["stopped"] == 0
    assert stopped.counts == full.counts
    assert [e["inertia"] for e in stopped.entries] == [e["inertia"] for e in full.entries]
    for a, b in zip(stopped.entries, full.entries):
        assert np.abs(a["theta"] - b["theta"]).max() <= 1e-12 * np.abs(b["theta"]).max()


def test_sweep_short_of_the_count_runs_to_the_end(monkeypatch):
    # a count one above the 16 classes is never reached: every sweep tracks
    # every path, and the shortfall sends sweeps up to SWEEPS
    monkeypatch.setattr(
        enumerator, "expected_counts", lambda surface: {"complex": 17}
    )
    sweeps = _recording_tracker(monkeypatch)
    solutions = solve(minor_system(_scroll21_seed0_space(), 3, seed=0), seed=0)
    assert solutions.path_stats["stopped"] == 0
    assert solutions.path_stats["secondSweep"]
    assert len(sweeps) == 3
    assert not any((statuses == STATUS_STOPPED).any() for _x, statuses, _s in sweeps)
    assert len(solutions) == 16


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_genus_two_scroll_counts(seed):
    f = random_positive_form(scroll(2, 1), seed=seed)
    report = enumerate_rank(build_gram_space(f, scroll(2, 1)), 3, seed)
    assert report.counts == {"complex": 16, "real": 4, "psd": 4, "indefinite": 0}
    assert report.warning is None


@pytest.mark.slow
def test_genus_three_scroll_counts(monkeypatch):
    # one full sweep of 4096 paths (no count to stop at): every path that
    # fails here stalls on its way to infinity, which sends no second sweep
    spec = scroll(2, 2)
    f = random_positive_form(spec, seed=0)
    monkeypatch.setattr(enumerator, "expected_counts", lambda surface: None)
    report = enumerate_rank(build_gram_space(f, spec), 3, 0)
    assert report.counts == expected_counts(spec)
    assert report.warning is None
    stats = report.path_stats
    assert stats["failed"] == stats["stalledEscaping"] > 0
    assert not stats["secondSweep"]


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
def test_veronese_counts(seed):
    spec = veronese()
    f = random_positive_form(spec, seed=seed)
    report = enumerate_rank(build_gram_space(f, spec), 3, seed)
    assert report.counts == {"complex": 63, "real": 15, "psd": 8, "indefinite": 7}
    assert report.warning is None
    assert not report.path_stats["secondSweep"]


def test_genericity_failure_propagates(monkeypatch):
    # the diagnostics run on every classification; their errors are not
    # swallowed into a report without notes
    def broken(form, spec):
        raise DegreeMismatch("block structure violated")

    monkeypatch.setattr(enumerator, "genericity_check", broken)
    space = build_gram_space(random_positive_form(scroll(1, 1), seed=3), scroll(1, 1))
    with pytest.raises(DegreeMismatch):
        enumerate_rank(space, seed=5)


@pytest.mark.parametrize("spec", [scroll(2, 1), scroll(3, 1)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generic_scroll_reports_no_singular_curve(spec, seed):
    # the form's terms carry t^(2(d-e)) on every form of scroll(d, e); det M
    # of the prism matrix is free of it and says whether the curve is singular
    f = random_positive_form(spec, seed=seed)
    assert genericity_check(f, spec) == []
    report = classify(build_gram_space(f, spec), [], 0)
    assert not any("singular" in note for note in report.notes)
