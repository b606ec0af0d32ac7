"""BENCHMARK.json names exactly the metrics the runner prints."""

import json
from pathlib import Path

from perfbench import run, workloads

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_the_runner():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END_UNITS


def test_per_layer_metrics_match_the_runner():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == dict(workloads.PER_LAYER_UNITS, trace_overhead_ratio="ratio")


def test_workloads_match_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
