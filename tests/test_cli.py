"""Command line round trips and exit codes."""

import csv
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from minsos import cli, enumerator
from minsos.biform import BinaryForm, TermPoly
from minsos.errors import IterationBudgetExceeded, PathFailureBudgetExceeded
from minsos.gram import gram_residual
from minsos.sampling import random_dyad_matrix, random_nonneg_binary, random_positive_form
from minsos.surfaces import MonomialBasis, cone_rnc, expected_counts, scroll, veronese

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
    monkeypatch.setattr(enumerator, "verify_representation", lambda form, rep: 1.0)
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


def test_enumerate_and_table_exit_verify_on_a_large_residual(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(enumerator, "verify_representation", lambda form, rep: 1.0)
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


def test_enumerate_dumps_real_points_of_the_curve(tmp_path):
    # a x^2 + 2 b x y + c y^2 with a = s^2 + 2 t^2 > 0 and c = -s^2 + 2 s t - 5 t^2 < 0,
    # so b^2 - a c > 0 and both real branches exist over every s
    f = TermPoly(4, {
        (2, 0, 2, 0): 1, (0, 2, 2, 0): 2,
        (1, 1, 1, 1): 3, (0, 2, 1, 1): 1,
        (2, 0, 0, 2): -1, (1, 1, 0, 2): 2, (0, 2, 0, 2): -5,
    })
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(f.to_json()))
    samples = tmp_path / "curve.csv"
    argv = ["enumerate", str(form_path), "--surface", "scroll(1,1)",
            "--dump-curve-samples", str(samples)]
    assert cli.main(argv) == cli.EXIT_OK
    with open(samples, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["s", "branch", "x"]
    assert {branch for _, branch, _ in rows} == {"0", "1"}
    scale = max(1.0, float(f.max_abs_coeff()))
    for s, _, x in rows:
        assert abs(f.eval((float(s), 1.0, float(x), 1.0))) <= 1e-8 * scale


def test_curve_samples_need_a_scroll_or_cone(tmp_path):
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(random_positive_form(veronese(), seed=0).to_json()))
    argv = ["enumerate", str(form_path), "--surface", "veronese",
            "--dump-curve-samples", str(tmp_path / "curve.csv")]
    assert cli.main(argv) == cli.EXIT_INPUT


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


def test_two_squares_on_a_triple_complex_root_exits_three(tmp_path, capsys):
    # (s^2 + t^2)^3 is nonnegative, but np.roots scatters each triple root
    # by about 1e-5, beyond the clustering radius, and pairing fails
    src = tmp_path / "cube.json"
    src.write_text(json.dumps(BinaryForm([1, 0, 3, 0, 3, 0, 1], 6).to_json()))
    assert cli.main(["two-squares", str(src)]) == cli.EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver failure: ") and "cluster radius 1e-06" in err


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
