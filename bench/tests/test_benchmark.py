"""BENCHMARK.json, the tracer and the reference files agree with each
other and with the package."""

import json
import os

import child
import run
import tracing
from krasner import suite

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def load(*parts):
    with open(os.path.join(*parts), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = load(ROOT, "BENCHMARK.json")
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [row[:3] for row in tracing.PER_LAYER]


def test_check_metric_names_follow_the_suite():
    assert tracing.CHECK_IDS == suite.CHECK_IDS


def test_traced_process_finds_every_target_and_matches_the_reference():
    result = run.run_child("gen4", 0, trace=True, full=False, timeout=120)
    assert result["missing"] == []
    ref = load(BENCH, "reference", "gen4.json")
    assert {row[0]: row[2] for row in result["items"]} == ref["items"]
    assert {name: result["layers"][name] for name in tracing.EXACT_COUNTS} == ref["counts"]


def test_reference_values_are_the_known_ones():
    gen4 = load(BENCH, "reference", "gen4.json")
    assert gen4["rings_per_order"] == [1, 4, 19, 139]
    assert gen4["hypergroups_per_order"] == [1, 2, 10, 97]
    assert gen4["fingerprint"] == \
        "95e8cb16b81dfda457236a8aaa5374a66302edb08ec81f39abd87e38e9e77d11"
    sweep4 = load(BENCH, "reference", "sweep4.json")
    assert sweep4["summary"] == {"pass": 4351, "fail": 0, "skip": 569, "info": 296}
    assert len(sweep4["items"]) == 163


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = list(range(1, 164))
    value, pct = run.tail(values)
    assert value == 153 and len([v for v in values if v > value]) == 10
    assert round(pct, 1) == 93.9
    assert run.tail([5.0]) == (5.0, 100.0)


def test_cli_digest_ignores_the_report_timestamp():
    a = json.dumps({"generated_at": "x", "summary": {"fail": 0}})
    b = json.dumps({"generated_at": "y", "summary": {"fail": 0}})
    assert child.describe_cli("check", 0, a, "") == child.describe_cli("check", 0, b, "")
    assert not child.describe_cli("check", 1, json.dumps(
        {"generated_at": "x", "summary": {"fail": 1}}), "")[1]
