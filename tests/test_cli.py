"""Command line round trips and exit codes."""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from minsos import cli, enumerator
from minsos.biform import BinaryForm, TermPoly
from minsos.errors import IterationBudgetExceeded, PathFailureBudgetExceeded
from minsos.enumerator import minor_system
from minsos.gram import build_gram_space, gram_residual
from minsos.sampling import random_dyad_matrix, random_nonneg_binary, random_positive_form
from minsos.surfaces import MonomialBasis, cone_rnc, expected_counts, scroll, veronese

from form_algebra import add, mul

# certificates emitted before every residual went through one coefficient map
DATA = Path(__file__).parent / "data"


def test_table_exits_ok_when_counts_match(capsys):
    assert cli.main(["table", "--surfaces", "scroll(1,1)"]) == cli.EXIT_OK
    assert "OK" in capsys.readouterr().out


def test_table_exits_verify_on_mismatch(monkeypatch, capsys):
    def wrong_counts(surface):
        return {"complex": 5, "real": 4, "psd": 2, "indefinite": 2}

    # the table compares against the report's expected counts, which
    # classify reads from expected_counts
    monkeypatch.setattr(enumerator, "expected_counts", wrong_counts)
    assert cli.main(["table", "--surfaces", "scroll(1,1)"]) == cli.EXIT_VERIFY
    assert "MISMATCH" in capsys.readouterr().out


def test_table_json_shows_which_row_failed_verification(tmp_path, monkeypatch):
    out = tmp_path / "table.json"
    argv = ["table", "--surfaces", "scroll(1,1)", "--json-out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    (row,) = json.loads(out.read_text())["rows"]
    assert row["verified"] is True and 0 <= row["worstResidual"] <= cli.VERIFY_TOL
    monkeypatch.setattr(enumerator, "gram_residual", lambda f, basis, G: np.ones(len(G)))
    assert cli.main(argv) == cli.EXIT_VERIFY
    (row,) = json.loads(out.read_text())["rows"]
    assert row["verified"] is False and row["worstResidual"] == 1.0


def test_enumerate_verify_round_trip_is_byte_identical(tmp_path):
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(random_positive_form(scroll(1, 1), seed=3).to_json()))
    outputs = []
    for run in range(2):
        out = tmp_path / ("enum%d.json" % run)
        argv = ["enumerate", str(form_path), "--surface", "scroll(1,1)",
                "--seed", "5", "--json-out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert cli.main(["verify", str(out)]) == cli.EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert set(report) == {"kind", "surface", "seed", "rank", "form", "report", "solutions"}
    assert report["report"]["counts"]["psd"] == 2


def test_gram_space_report_is_byte_identical_and_exact(tmp_path):
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(random_positive_form(scroll(1, 1), seed=3).to_json()))
    outputs = []
    for run in range(2):
        out = tmp_path / ("space%d.json" % run)
        argv = ["gram-space", str(form_path), "--surface", "scroll(1,1)", "--json-out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    space = json.loads(outputs[0])["space"]
    form = TermPoly.from_json(space["form"])
    monos = tuple(tuple(m) for m in space["basis"])
    basis = MonomialBasis(monos, len(space["varNames"]), tuple(space["varNames"]))

    def matrix(rows):
        return [[Fraction(v["num"], v["den"]) for v in row] for row in rows]

    G0 = matrix(space["G0"])
    assert gram_residual(form, basis, G0) == 0
    assert len(space["kernel"]) == space["k"] == 1
    for K in map(matrix, space["kernel"]):
        # K expands to zero, so G0 + K stays on the fiber, and K itself is not zero
        shifted = [[g + x for g, x in zip(rg, rk)] for rg, rk in zip(G0, K)]
        assert gram_residual(form, basis, shifted) == 0
        assert gram_residual(form, basis, [[2 * x for x in row] for row in K]) > 0


def test_gram_space_report_matches_the_checked_in_report(tmp_path):
    # the report was written by `minsos gram-space` when every GramSpace
    # still stored its exact G0 and kernel matrices
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(random_positive_form(scroll(2, 1), seed=3).to_json()))
    out = tmp_path / "space.json"
    argv = ["gram-space", str(form_path), "--surface", "scroll(2,1)", "--json-out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert out.read_bytes() == (DATA / "gram_space_scroll21.json").read_bytes()


def test_cone_enumeration_matches_the_checked_in_report(tmp_path):
    # the report was written by `minsos enumerate` when enumerate_cone still
    # labelled, verified and counted its classes itself, not through classify;
    # its floats were rewritten, within 4e-15, when roots first took the
    # conjugate pairs from the real eigen-solver
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(random_positive_form(cone_rnc(3), seed=3).to_json()))
    out = tmp_path / "enumeration.json"
    argv = ["enumerate", str(form_path), "--surface", "cone_rnc(3)", "--json-out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert out.read_bytes() == (DATA / "enumeration_cone3.json").read_bytes()


_CIRCLE = BinaryForm([1, 0, 1], 2)  # s^2 + t^2


@pytest.mark.parametrize(
    "name, g",
    [
        # (s^2 + t^2)^2 (s^2 + 4 t^2): a repeated conjugate pair, 5/3/3/0
        ("repeated_pair", mul(_CIRCLE, _CIRCLE, BinaryForm([4, 0, 1], 2))),
        # s^2 (s^2 + t^2)^2: a double real root, 4/2/2/0
        ("double_real", mul(BinaryForm([0, 0, 1], 2), _CIRCLE, _CIRCLE)),
        # t^2 (s^2 + s t + t^2)(s^2 + 2 t^2): a double root at infinity, 7/3/2/1
        ("double_inf",
         mul(BinaryForm([1, 0, 0], 2), BinaryForm([1, 1, 1], 2), BinaryForm([2, 0, 1], 2))),
    ],
)
def test_nongeneric_cone_enumeration_matches_the_checked_in_report(tmp_path, name, g):
    # f = y^2 (g + b^2) + 2 x y b + x^2 with b = s^3 + 2 s^2 t + t^3 reduces
    # to g on the base curve; the reports were written by `minsos enumerate`
    # when enumerate_cone still lifted one class at a time
    b = BinaryForm([1, 0, 2, 1], 3)
    f = cone_rnc(3).prism.form({(0, 0): add(g, mul(b, b)), (0, 1): b, (1, 1): BinaryForm([1], 0)})
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(f.to_json()))
    out = tmp_path / "enumeration.json"
    argv = ["enumerate", str(form_path), "--surface", "cone_rnc(3)", "--json-out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert out.read_bytes() == (DATA / ("enumeration_cone3_%s.json" % name)).read_bytes()


@pytest.mark.parametrize(
    "name", ["factor_n1", "factor_heights111", "factor_diag11", "factor_heights21_seed0"]
)
def test_factor_matches_the_checked_in_report(tmp_path, name):
    # factor_heights111 (random_dyad_matrix((1, 1, 1), seed=0)) was written
    # by `minsos factor` when each factor route still built its own columns
    # and residual; factor_diag11 (diag(s^2 + t^2, 2 s^2 + t^2)) and
    # factor_heights21_seed0 (random_dyad_matrix((2, 1), seed=0)) when the
    # square-free 2 x 2 inputs first took the branch route.  factor_n1,
    # factor_diag11 and factor_heights21_seed0 were rewritten, within 5e-14,
    # when roots first took the conjugate pairs from the real eigen-solver.
    # factor_stalled, the Gram route's four columns for that diagonal matrix,
    # only verifies
    report = DATA / (name + ".json")
    src = tmp_path / "matrix.json"
    src.write_text(json.dumps(json.loads(report.read_text())["matrix"]))
    out = tmp_path / "factor.json"
    assert cli.main(["factor", str(src), "--json-out", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == report.read_bytes()


@pytest.mark.parametrize(
    "name, route",
    [
        ("factor_diag11", r"route: branch \(root separation \S+, class residual \S+\)"),
        ("factor_heights111", r"route: gram \(\d+ feasibility rounds\)"),
        ("factor_n1", r"route: roots"),
    ],
)
def test_factor_prints_its_route(tmp_path, capsys, name, route):
    src = tmp_path / "matrix.json"
    src.write_text(json.dumps(json.loads((DATA / (name + ".json")).read_text())["matrix"]))
    assert cli.main(["factor", str(src)]) == cli.EXIT_OK
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("route:")]
    assert len(lines) == 1 and re.fullmatch(route, lines[0])


@pytest.mark.parametrize("name", ["two_squares_d6", "two_squares_nongeneric"])
def test_two_squares_matches_the_checked_in_report(tmp_path, name):
    # two_squares_d6 is random_nonneg_binary(6, seed=0), and
    # two_squares_nongeneric t^2 (s - t)^2 (s^2 + t^2)^2 (s^2 + 2 s t + 5 t^2),
    # a doubled root at infinity, real root and conjugate pair; both were
    # written by `minsos two-squares` when every root product was built from
    # scratch and every dedup trace came from Representation.gram, and their
    # floats rewritten, within 4e-12, when roots first took the conjugate
    # pairs from the real eigen-solver
    report = DATA / (name + ".json")
    src = tmp_path / "form.json"
    src.write_text(json.dumps(json.loads(report.read_text())["form"]))
    out = tmp_path / "two_squares.json"
    assert cli.main(["two-squares", str(src), "--json-out", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == report.read_bytes()


def test_nearly_meeting_conjugate_pairs_give_two_squares_and_a_factorization(tmp_path):
    # (10^8 s^2 + 10^8 t^2)((10^8 + 1) s^2 + 10^8 t^2) is square-free, but its
    # two pairs of roots lie 5e-9 apart
    form = mul(BinaryForm([10**8, 0, 10**8]), BinaryForm([10**8, 0, 10**8 + 1]))
    src = tmp_path / "form.json"
    src.write_text(json.dumps(form.to_json()))
    out = tmp_path / "two_squares.json"
    assert cli.main(["two-squares", str(src), "--json-out", str(out)]) == cli.EXIT_OK
    assert len(json.loads(out.read_text())["representations"]) == 2
    assert cli.main(["verify", str(out)]) == cli.EXIT_OK
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"n": 1, "entries": {"0,0": form.to_json()}}))
    out = tmp_path / "factor.json"
    assert cli.main(["factor", str(matrix), "--json-out", str(out)]) == cli.EXIT_OK
    assert cli.main(["verify", str(out)]) == cli.EXIT_OK


def _raises(exc):
    def run(*args, **kwargs):
        raise exc

    return run


def test_factor_solver_failure_exits_three(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "factor", _raises(IterationBudgetExceeded(20_000, 0.25)))
    src = tmp_path / "matrix.json"
    src.write_text(json.dumps(random_dyad_matrix((2, 1), seed=0)[0].to_json()))
    assert cli.main(["factor", str(src)]) == cli.EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver failure: ") and "20000 iterations" in err


def test_enumerate_solver_failure_exits_three(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "enumerate_rank", _raises(PathFailureBudgetExceeded(9, 64)))
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(random_positive_form(scroll(1, 1), seed=3).to_json()))
    assert cli.main(["enumerate", str(form_path), "--surface", "scroll(1,1)"]) == cli.EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver failure: ") and "9 of 64 paths failed" in err


def test_enumerate_on_a_genus_four_scroll_exits_three(tmp_path, capsys):
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(random_positive_form(scroll(3, 2), seed=0).to_json()))
    assert cli.main(["enumerate", str(form_path), "--surface", "scroll(3,2)"]) == cli.EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver failure: ") and "GiB monomial table" in err


def test_enumerate_and_table_exit_verify_on_a_large_residual(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(enumerator, "gram_residual", lambda f, basis, G: np.ones(len(G)))
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(random_positive_form(scroll(1, 1), seed=3).to_json()))
    argv = ["enumerate", str(form_path), "--surface", "scroll(1,1)"]
    assert cli.main(argv) == cli.EXIT_VERIFY
    assert "residual above bound" in capsys.readouterr().err
    assert cli.main(["table", "--surfaces", "scroll(1,1)"]) == cli.EXIT_VERIFY
    assert "scroll(1,1) residual above bound" in capsys.readouterr().err


def test_verify_takes_no_json_out(tmp_path):
    # verify writes no report; the flag it once accepted never wrote one
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", str(DATA / "factor_n1.json"), "--json-out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


def test_enumerate_on_a_cone_writes_a_certificate_that_verifies(tmp_path):
    # the cone path once passed an unset clustering radius to the root finder
    # and died with a TypeError unless the radius was given by hand
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(random_positive_form(cone_rnc(4), seed=3).to_json()))
    out = tmp_path / "cone.json"
    argv = ["enumerate", str(form_path), "--surface", "cone_rnc(4)", "--json-out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert cli.main(["verify", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text())
    assert report["rank"] == 3
    assert report["report"]["counts"] == expected_counts(cone_rnc(4))
    assert len(report["report"]["entries"]) == 11  # 8 psd and 3 indefinite


def test_verify_reads_reports_with_and_without_stopped_paths(tmp_path):
    # a sweep stopped at the generic count records its stopped paths; the
    # reports written before the stop have no such field
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(random_positive_form(scroll(2, 1), seed=0).to_json()))
    out = tmp_path / "enum.json"
    argv = ["enumerate", str(form_path), "--surface", "scroll(2,1)", "--json-out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert json.loads(out.read_text())["report"]["pathStats"]["stopped"] > 0
    assert cli.main(["verify", str(out)]) == cli.EXIT_OK
    old = DATA / "enumeration_scroll11.json"
    assert "stopped" not in json.loads(old.read_text())["report"]["pathStats"]
    assert cli.main(["verify", str(old)]) == cli.EXIT_OK


def test_verify_reads_reports_with_and_without_balancing_exponents(tmp_path):
    # the report records the powers of two that balance the tracked system,
    # and they rebuild its coefficients from the report's form and seed
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(random_positive_form(scroll(2, 1), seed=0).to_json()))
    out = tmp_path / "enum.json"
    argv = ["enumerate", str(form_path), "--surface", "scroll(2,1)", "--json-out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    data = json.loads(out.read_text())
    stats = data["report"]["pathStats"]
    r, s = np.array(stats["equationScale"]), np.array(stats["variableScale"])
    assert r.shape == s.shape == (3,) and s.any()
    assert cli.main(["verify", str(out)]) == cli.EXIT_OK
    space = build_gram_space(cli.form_from_json(data["form"]), cli.parse_surface(data["surface"]))
    ss = np.random.SeedSequence(data["seed"])
    combo_seed = int(ss.generate_state(2, np.uint64)[0])
    system = minor_system(space, data["rank"], seed=combo_seed)
    psys = system.poly_system()
    index = {tuple(e): j for j, e in enumerate(system.mono_exps.tolist())}
    cols = [index[tuple(e)] for e in psys.exps.tolist()]
    rebuilt = system.combos[:, cols] * 2.0 ** (r[:, None] + psys.exps @ s)
    tracked = psys._JF[psys.k :: psys.k + 1]
    live = tracked != 0
    assert live.sum() > 3 * len(cols) // 2
    np.testing.assert_array_equal(tracked[live], rebuilt[live])
    old = DATA / "enumeration_scroll11.json"
    assert "variableScale" not in json.loads(old.read_text())["report"]["pathStats"]
    assert cli.main(["verify", str(old)]) == cli.EXIT_OK


def _round_trip(tmp_path, command, payload):
    """Run command twice on the payload file; each report verifies, both are equal."""
    src = tmp_path / "input.json"
    src.write_text(json.dumps(payload))
    outputs = []
    for run in range(2):
        out = tmp_path / ("out%d.json" % run)
        assert cli.main([command, str(src), "--json-out", str(out)]) == cli.EXIT_OK
        assert cli.main(["verify", str(out)]) == cli.EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    return json.loads(outputs[0])


def _verify_edited(tmp_path, certificate):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(certificate))
    return cli.main(["verify", str(path)])


def test_factor_verify_round_trip_and_bumped_coefficient(tmp_path):
    A, _ = random_dyad_matrix((2, 1), seed=0)
    cert = _round_trip(tmp_path, "factor", A.to_json())
    assert cert["result"]["rank"] == 3
    cert["result"]["columns"][0][1]["coeffs"][0]["re"] += 1e-3
    assert _verify_edited(tmp_path, cert) == cli.EXIT_VERIFY


def test_two_squares_verify_round_trip_and_bumped_coefficient(tmp_path):
    cert = _round_trip(tmp_path, "two-squares", random_nonneg_binary(3, seed=9).to_json())
    assert cert["count"] == 4
    cert["representations"][2]["representation"]["vectors"][1][0] += 1e-3
    assert _verify_edited(tmp_path, cert) == cli.EXIT_VERIFY


@pytest.mark.parametrize("name", sorted(path.stem for path in DATA.glob("*.json")))
def test_certificates_from_earlier_releases_still_verify(name):
    # every file in tests/data, the gram-space report among them
    assert cli.main(["verify", str(DATA / (name + ".json"))]) == cli.EXIT_OK


def test_gram_space_verify_fails_on_a_bumped_entry(tmp_path, capsys):
    report = json.loads((DATA / "gram_space_scroll21.json").read_text())
    assert _verify_edited(tmp_path, report) == cli.EXIT_OK
    report["space"]["kernel"][1][0][0]["num"] += 1
    assert _verify_edited(tmp_path, report) == cli.EXIT_VERIFY
    out = capsys.readouterr().out
    assert "G0: residual 0  PASS" in out and re.search(r"G0 \+ K1: residual \S+  FAIL", out)
    report["space"]["G0"][0].pop()
    assert _verify_edited(tmp_path, report) == cli.EXIT_INPUT


def test_a_definite_form_with_roots_near_the_axis_has_two_squares(tmp_path, capsys):
    # s^2 + 1e-18 t^2: the roots +-1e-9 i lie within PAIR_TOL of the real
    # axis, and the exact real-root count of the part says they are a pair
    form = BinaryForm([Fraction(1e-18), 0, 1], 2)
    src, out = tmp_path / "form.json", tmp_path / "out.json"
    src.write_text(json.dumps(form.to_json()))
    assert cli.main(["two-squares", str(src), "--json-out", str(out)]) == cli.EXIT_OK
    assert cli.main(["verify", str(out)]) == cli.EXIT_OK
    assert json.loads(out.read_text())["count"] == 1
    src.write_text(json.dumps({"n": 1, "entries": {"0,0": form.to_json()}}))
    capsys.readouterr()
    assert cli.main(["factor", str(src)]) == cli.EXIT_OK
    assert "route: roots" in capsys.readouterr().out.splitlines()


def test_two_squares_on_a_triple_complex_root_writes_a_report_that_verifies(tmp_path):
    # (s^2 + t^2)^3: the multiplicity of +-i comes from the exact square-free
    # decomposition, and the two classes are the census's two psd classes
    src, out = tmp_path / "cube.json", tmp_path / "out.json"
    src.write_text(json.dumps(BinaryForm([1, 0, 3, 0, 3, 0, 1], 6).to_json()))
    assert cli.main(["two-squares", str(src), "--json-out", str(out)]) == cli.EXIT_OK
    assert cli.main(["verify", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text())
    assert len(report["representations"]) == report["census"]["counts"]["psd"] == 2


@pytest.mark.parametrize(
    "resize", [lambda v: v + [0.5], lambda v: v[:-1]], ids=["appended", "truncated"]
)
def test_verify_rejects_vectors_of_the_wrong_length(tmp_path, resize):
    cert = json.loads((DATA / "enumeration_scroll11.json").read_text())
    for entry in cert["report"]["entries"]:
        rep = entry["representation"]
        if rep is not None:
            rep["vectors"] = [resize(vec) for vec in rep["vectors"]]
    assert _verify_edited(tmp_path, cert) == cli.EXIT_INPUT


def test_verify_rejects_factor_columns_of_the_wrong_degree(tmp_path):
    cert = json.loads((DATA / "factor_heights21.json").read_text())
    form = cert["result"]["columns"][0][1]
    form["coeffs"].append({"re": 0.0, "im": 0.0})
    form["deg"] += 1
    assert _verify_edited(tmp_path, cert) == cli.EXIT_INPUT


def _zero_square_added(cert):
    """The certificate with one more zero square (or column) in every item."""
    kind = cert["kind"]
    if kind == "factorization":
        cert["result"]["columns"].append(
            [{"deg": d, "coeffs": [{"re": 0.0, "im": 0.0}] * (d + 1)}
             for d in cert["result"]["heights"]]
        )
        return cert
    for rep in _certificate_reps(cert):
        rep["vectors"].append([0.0] * len(rep["basis"]))
        rep["signs"].append(1)
    return cert


def _certificate_reps(cert):
    """The representations of an enumeration or two-squares certificate."""
    if cert["kind"] == "enumeration":
        return [e["representation"] for e in cert["report"]["entries"] if e["representation"]]
    return [item["representation"] for item in cert["representations"]]


@pytest.mark.parametrize(
    "name", ["enumeration_scroll11", "two_squares_d3", "factor_heights21"]
)
def test_verify_rejects_a_certificate_padded_with_a_zero_square(tmp_path, name, capsys):
    # the residual stays exact; only the count of squares is wrong
    cert = _zero_square_added(json.loads((DATA / (name + ".json")).read_text()))
    assert _verify_edited(tmp_path, cert) == cli.EXIT_VERIFY
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["two_squares_d3", "enumeration_cone3"])
def test_verify_fails_a_certificate_whose_vectors_are_nan(tmp_path, name, capsys):
    # every residual is NaN, which no bound admits
    cert = json.loads((DATA / (name + ".json")).read_text())
    for rep in _certificate_reps(cert):
        rep["vectors"] = [[math.nan] * len(vec) for vec in rep["vectors"]]
    assert _verify_edited(tmp_path, cert) == cli.EXIT_VERIFY
    out = capsys.readouterr().out
    assert "residual nan" in out and "PASS" not in out


def test_enumerate_and_table_exit_verify_on_one_nan_residual(tmp_path, monkeypatch, capsys):
    # max(1e-16, nan) is 1e-16: a NaN after a finite residual must still fail
    real = enumerator.gram_residual

    def last_nan(f, basis, G):
        resid = real(f, basis, G)
        assert len(resid) > 1
        resid[-1] = math.nan
        return resid

    monkeypatch.setattr(enumerator, "gram_residual", last_nan)
    for spec in (scroll(1, 1), cone_rnc(4)):
        form_path = tmp_path / "form.json"
        form_path.write_text(json.dumps(random_positive_form(spec, seed=3).to_json()))
        assert cli.main(["enumerate", str(form_path), "--surface", str(spec)]) == cli.EXIT_VERIFY
        assert "residual above bound" in capsys.readouterr().err
    out = tmp_path / "table.json"
    argv = ["table", "--surfaces", "scroll(1,1),cone_rnc(4)", "--json-out", str(out)]
    assert cli.main(argv) == cli.EXIT_VERIFY
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 2
    assert all(math.isnan(row["worstResidual"]) and row["verified"] is False for row in rows)


def test_two_squares_exits_verify_on_one_nan_residual(tmp_path, monkeypatch):
    residuals = iter([0.0, math.nan, 0.0, 0.0])
    monkeypatch.setattr(cli, "verify_representation", lambda form, rep: next(residuals))
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(random_nonneg_binary(3, seed=9).to_json()))
    assert cli.main(["two-squares", str(form_path)]) == cli.EXIT_VERIFY


def test_verify_lets_a_stalled_factorization_keep_its_extra_columns(tmp_path):
    cert = _zero_square_added(json.loads((DATA / "factor_heights21.json").read_text()))
    cert["result"]["warning"] = "rank reduction stalled at 4 (target 3); emitting extra columns"
    assert _verify_edited(tmp_path, cert) == cli.EXIT_OK


def _float_written(data):
    """data with every {"num", "den"} coefficient written as {"re", "im"} floats."""
    if isinstance(data, list):
        return [_float_written(v) for v in data]
    if not isinstance(data, dict):
        return data
    if "num" in data:
        rest = {k: v for k, v in data.items() if k not in ("num", "den")}
        return dict(rest, re=data["num"] / data.get("den", 1), im=0.0)
    return {k: _float_written(v) for k, v in data.items()}


@pytest.mark.parametrize(
    "command, payload, extra",
    [
        ("enumerate", lambda: random_positive_form(scroll(1, 1), seed=3).to_json(),
         ["--surface", "scroll(1,1)"]),
        ("enumerate", lambda: random_positive_form(cone_rnc(3), seed=3).to_json(),
         ["--surface", "cone_rnc(3)"]),
        ("factor", lambda: json.loads((DATA / "factor_heights21.json").read_text())["matrix"],
         []),
        ("two-squares", lambda: random_nonneg_binary(3, seed=9).to_json(), []),
    ],
    ids=["scroll11", "cone3", "factor", "two-squares"],
)
def test_float_written_input_gives_the_rational_report(tmp_path, command, payload, extra):
    # integers and eighths are exact in binary, so both files denote one input
    rational = payload()
    written = _float_written(rational)
    assert written != rational
    outputs = []
    for name, data in (("rational", rational), ("float", written)):
        src, out = tmp_path / (name + ".json"), tmp_path / (name + "_out.json")
        src.write_text(json.dumps(data))
        assert cli.main([command, str(src), "--json-out", str(out)] + extra) == cli.EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "command, payload, coeffs, extra",
    [
        ("enumerate", lambda: random_positive_form(scroll(1, 1), seed=3).to_json(),
         lambda data: data["terms"], ["--surface", "scroll(1,1)"]),
        ("factor", lambda: random_dyad_matrix((2, 1), seed=0)[0].to_json(),
         lambda data: data["entries"]["0,0"]["coeffs"], []),
        ("two-squares", lambda: random_nonneg_binary(3, seed=9).to_json(),
         lambda data: data["coeffs"], []),
    ],
    ids=["enumerate", "factor", "two-squares"],
)
def test_a_non_real_coefficient_exits_two(tmp_path, capsys, command, payload, coeffs, extra):
    data = payload()
    first = coeffs(data)
    first[0] = {k: v for k, v in first[0].items() if k not in ("num", "den")}
    first[0].update(re=1.0, im=0.5)
    src = tmp_path / "input.json"
    src.write_text(json.dumps(data))
    assert cli.main([command, str(src)] + extra) == cli.EXIT_INPUT
    assert "is not real" in capsys.readouterr().err


def _zero_den_form():
    return "two-squares", {"deg": 2, "coeffs": [{"num": 1, "den": 0}, 0, 1]}


def _zero_den_enumeration():
    cert = json.loads((DATA / "enumeration_scroll11.json").read_text())
    rep = next(e["representation"] for e in cert["report"]["entries"] if e["representation"])
    rep["vectors"][0][0] = {"num": 1, "den": 0}
    return "verify", cert


def _zero_den_gram_space():
    report = json.loads((DATA / "gram_space_scroll21.json").read_text())
    report["space"]["G0"][0][0]["den"] = 0
    return "verify", report


@pytest.mark.parametrize(
    "edited", [_zero_den_form, _zero_den_enumeration, _zero_den_gram_space],
    ids=["form", "enumeration", "gram-space"],
)
def test_a_zero_denominator_exits_two(tmp_path, capsys, edited):
    command, data = edited()
    src = tmp_path / "input.json"
    src.write_text(json.dumps(data))
    assert cli.main([command, str(src)]) == cli.EXIT_INPUT
    assert "zero denominator" in capsys.readouterr().err


def _binary(*coeffs):
    return {"deg": len(coeffs) - 1, "coeffs": list(coeffs)}


@pytest.mark.parametrize(
    "command, data, message",
    [
        ("two-squares", {"deg": 2, "coeffs": [1, 0, {"num": 1.5}]}, "1.5 is not an integer"),
        ("two-squares", {"deg": 2, "coeffs": [{"num": 3, "den": 2.9}, 0, 1]},
         "2.9 is not an integer"),
        ("two-squares", {"deg": 2, "coeffs": 5}, "coeffs 5 is not a list"),
        ("factor", {"n": 2, "entries": []}, "entries [] is not an object"),
        ("factor", {"n": 2, "entries": {"0,0": 5}}, "binary form 5 is not an object"),
        ("factor", [1, 2], "matrix [1, 2] is not an object"),
        ("two-squares", {"deg": 2, "coeffs": [{"re": None}, 0, 1]},
         "coefficient {'re': None} is not a number"),
        # JSON true is a bool, which Python counts as the int 1
        ("two-squares", {"deg": 2, "coeffs": [True, 0, 1]}, "coefficient True is not a number"),
        ("two-squares", {"deg": 2, "coeffs": [{"re": True}, 0, 1]},
         "coefficient {'re': True} is not a number"),
        ("enumerate --surface scroll(1,1)", {"nvars": 4, "terms": [5]},
         "terms [5] is not a list of objects"),
        ("enumerate --surface scroll(1,1)", {"nvars": 4, "terms": 5},
         "terms 5 is not a list of objects"),
        ("enumerate --surface scroll(1,1)", {"nvars": 4, "terms": [{"expo": 5, "num": 1}]},
         "expo 5 is not a list of integers"),
        ("enumerate --surface scroll(1,1)", {"nvars": None, "terms": []},
         "None is not an integer"),
        ("factor", {"n": None}, "None is not an integer"),
        ("two-squares", {"deg": None, "coeffs": [1, 0, 1]}, "None is not an integer"),
        ("two-squares", {"deg": 2.5, "coeffs": [1, 0, 1]}, "2.5 is not an integer"),
        ("two-squares", {"deg": "2", "coeffs": [1, 0, 1]}, "'2' is not an integer"),
        ("factor", {"n": 1, "entries": {"0,0": {"deg": None, "coeffs": [1, 0, 1]}}},
         "None is not an integer"),
        ("factor", {"n": 1, "entries": {"0,0": {"deg": 2.5, "coeffs": [1, 0, 1]}}},
         "2.5 is not an integer"),
        ("factor", {"n": 1, "entries": {"0,0": {"deg": "2", "coeffs": [1, 0, 1]}}},
         "'2' is not an integer"),
        # the degree rules run before the psd screen, so a matrix that breaks
        # one is named by its entry and never reported as not psd
        ("factor", {"n": 2, "entries": {"0,0": _binary(1, 0, 0, 1), "1,1": _binary(1, 0, 1)}},
         "diagonal entry (0,0) has odd degree 3"),
        ("factor", {"n": 2, "entries": {"0,1": _binary(1, 0), "1,1": _binary(1, 0, 1)}},
         "zero diagonal entry (0,0) with a nonzero row"),
        ("factor", {"n": 2, "entries": {"0,0": _binary(1, 0, 1), "0,1": _binary(1, 0, 0, 1),
                                        "1,1": _binary(1, 0, 1)}},
         "entry (0,1) has degree 3, expected 2"),
    ],
    ids=["fractional-num", "fractional-den", "coeffs-not-a-list", "entries-not-an-object",
         "entry-not-an-object", "matrix-not-an-object", "re-not-a-number",
         "coefficient-true", "re-true",
         "term-not-an-object", "terms-not-a-list", "expo-not-a-list", "nvars-not-an-integer",
         "n-not-an-integer", "deg-null", "deg-fractional", "deg-string", "entry-deg-null",
         "entry-deg-fractional", "entry-deg-string",
         "odd-diagonal", "zero-diagonal", "off-diagonal-degree"],
)
def test_a_malformed_input_exits_two(tmp_path, capsys, command, data, message):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(data))
    assert cli.main([*command.split(), str(src)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err


# the path from the certificate to the doctored value
_REP = ("representations", 0, "representation")


def _doctored(name, path, value):
    """The certificate tests/data/<name>.json with the value at path replaced."""
    cert = json.loads((DATA / (name + ".json")).read_text())
    *keys, last = path
    target = cert
    for key in keys:
        target = target[key]
    target[last] = value
    return cert


@pytest.mark.parametrize(
    "path, value, message",
    [
        (_REP + ("signs", 0), 1.5, "1.5 is not an integer"),
        (_REP + ("signs", 0), None, "None is not an integer"),
        (_REP + ("vectors", 0, 0), None, "vector entry None is not a number"),
        (_REP + ("vectors", 0, 0), "1", "vector entry '1' is not a number"),
        (_REP + ("vectors", 0, 0), True, "vector entry True is not a number"),
        (_REP + ("basis", 0, 0), None, "None is not an integer"),
        (_REP + ("basis", 0, 0), 0.5, "0.5 is not an integer"),
        (_REP + ("signs", 0), True, "True is not an integer"),
        (_REP + ("vectors",), [5, 5], "malformed certificate"),
        (_REP + ("basis", 0), 5, "malformed certificate"),
        (_REP + ("signs",), 5, "malformed certificate"),
        (_REP + ("varNames",), 5, "malformed certificate"),
        (("representations",), 5, "malformed certificate"),
        (("representations",), {}, "representations {} is not a list"),
        (("form",), 5, "malformed certificate"),
        (("count",), 32.5, "32.5 is not an integer"),
    ],
    ids=["sign-fractional", "sign-null", "entry-null", "entry-string", "entry-true",
         "exponent-null",
         "exponent-fractional", "sign-true", "vectors-numbers", "monomial-number",
         "signs-number", "var-names-number", "representations-number",
         "representations-object", "form-number", "count-fractional"],
)
def test_a_doctored_representation_exits_two(tmp_path, capsys, path, value, message):
    # a sign of 1.5 must not be read as int(1.5) == 1 and verify as +1, nor
    # true as 1; a number where the layout holds a list is an input error too
    cert = _doctored("two_squares_d6", path, value)
    assert _verify_edited(tmp_path, cert) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("rank",), True, "True is not an integer"),
        (("rank",), 3.9, "3.9 is not an integer"),
        (("rank",), "3", "'3' is not an integer"),
        (("report", "entries"), {}, "entries {} is not a list"),
        (("report", "counts", "psd"), None, "None is not an integer"),
    ],
    ids=["rank-true", "rank-fractional", "rank-string", "entries-object", "psd-count-null"],
)
def test_a_doctored_enumeration_report_exits_two(tmp_path, capsys, path, value, message):
    # rank 3.9 must not be read as int(3.9) == 3, nor true as 1
    cert = _doctored("enumeration_scroll11", path, value)
    assert _verify_edited(tmp_path, cert) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err


@pytest.mark.parametrize(
    "name, path, value",
    [
        ("two_squares_d6", ("count",), 33),
        ("enumeration_scroll11", ("report", "counts", "real"), 5),
        ("enumeration_scroll11", ("report", "counts", "psd"), 3),
        ("enumeration_scroll11", ("report", "counts", "indefinite"), 1),
        ("enumeration_cone3", ("report", "counts", "indefinite"), 1),
    ],
    ids=["two-squares-count", "real", "psd", "indefinite", "cone-indefinite"],
)
def test_a_count_that_differs_from_the_listed_items_fails(tmp_path, capsys, name, path, value):
    # scroll11 lists 2 psd and 2 indefinite entries, cone3 4 psd ones, and
    # two_squares_d6 32 representations
    assert _verify_edited(tmp_path, _doctored(name, path, value)) == cli.EXIT_VERIFY
    assert re.search(r"is %d, but \d+ are listed  FAIL" % value, capsys.readouterr().out)
