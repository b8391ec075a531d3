"""Tests of the report comparison and of the metric definitions.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json

import pytest

import compare
import run

SPEC = {"end_to_end": [
    {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
]}


def report(**metrics):
    return {"workloads": {"w": {"metrics": metrics}}}


def timed(value, spread=0.02):
    return {"value": value, "q1": value * (1 - spread / 2),
            "q3": value * (1 + spread / 2)}


def verdicts(base, change):
    return [row[2:] for row in compare.compare(base, change, SPEC)]


def test_a_timed_metric_moves_only_beyond_its_bound():
    base = report(ops_per_s=timed(100.0))
    assert verdicts(base, report(ops_per_s=timed(95.0))) == [
        ("unchanged", "-5.0%")]
    assert verdicts(base, report(ops_per_s=timed(85.0))) == [
        ("regressed", "-15.0%")]
    assert verdicts(base, report(ops_per_s=timed(115.0))) == [
        ("improved", "+15.0%")]


def test_a_metric_without_a_usable_spread_or_bound_is_unresolved():
    noisy = report(ops_per_s=timed(100.0, spread=0.3))
    assert verdicts(noisy, report(ops_per_s=timed(50.0)))[0][0] == "unresolved"
    no_quartiles = report(ops_per_s={"value": 50.0, "q1": None, "q3": None})
    assert verdicts(report(ops_per_s=timed(100.0)), no_quartiles)[0][0] == (
        "unresolved")
    unbounded = report(upsert_p50_us=timed(10.0))
    assert verdicts(unbounded, report(upsert_p50_us=timed(99.0)))[0][0] == (
        "unresolved")


def test_any_difference_in_an_exact_metric_is_a_regression():
    base = report(rounds_per_op={"value": 1.2, "exact": True})
    same = report(rounds_per_op={"value": 1.2, "exact": True})
    lower = report(rounds_per_op={"value": 1.1, "exact": True})
    assert verdicts(base, same) == [("unchanged", "=")]
    assert verdicts(base, lower)[0][0] == "regressed"


def test_benchmark_json_is_the_only_definition_of_its_metrics(tmp_path):
    spec, units = run.load_spec()
    listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert listed.isdisjoint(run.REPORT_ONLY)
    assert set(units) == listed | set(run.REPORT_ONLY)
    spec["end_to_end"].append(
        {"name": "wrong_answers", "unit": "count", "better": "lower",
         "bound": 0.1})
    clashing = tmp_path / "BENCHMARK.json"
    clashing.write_text(json.dumps(spec))
    with pytest.raises(ValueError):
        run.load_spec(clashing)
