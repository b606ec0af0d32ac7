"""Command line round trips and exit codes."""

import json

from minsos import cli
from minsos.sampling import random_positive_form
from minsos.surfaces import scroll


def test_table_exits_ok_when_counts_match(capsys):
    assert cli.main(["table", "--surfaces", "scroll(1,1)"]) == cli.EXIT_OK
    assert "OK" in capsys.readouterr().out


def test_table_exits_verify_on_mismatch(monkeypatch, capsys):
    def wrong_counts(surface):
        return {"complex": 5, "real": 4, "psd": 2, "indefinite": 2}

    monkeypatch.setattr(cli, "expected_counts", wrong_counts)
    assert cli.main(["table", "--surfaces", "scroll(1,1)"]) == cli.EXIT_VERIFY
    assert "MISMATCH" in capsys.readouterr().out


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
