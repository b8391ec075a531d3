"""End-to-end tests: instrumented runs, the acceptance identities, the CLI."""

import json

from repro.core.basic_dict import BasicDictionary
from repro.core.dynamic_dict import DynamicDictionary
from repro.obs.cli import main
from repro.obs.harness import run_instrumented
from repro.pdm.iostats import OpCost, measure
from repro.pdm.spans import attach_spans

U = 1 << 16


class TestRootCostEqualsMeasure:
    """Acceptance: span-tree roots report exactly what the legacy
    ``measure()`` context reports over the same window."""

    def test_basic_dict_lookup(self, wide_machine):
        machine = wide_machine
        d = BasicDictionary(
            machine, universe_size=U, capacity=64, degree=16, seed=1
        )
        d.upsert(123, 7)
        recorder = attach_spans(machine)
        with measure(machine) as legacy:
            d.lookup(123)
            d.lookup(456)
        total = sum((r.cost for r in recorder.roots), OpCost.zero())
        assert total == legacy.cost

    def test_dynamic_dict_update(self, wide_machine):
        d = DynamicDictionary(
            wide_machine, universe_size=U, capacity=64, sigma=16, seed=3
        )
        recorder = attach_spans(wide_machine)
        with measure(wide_machine) as legacy:
            d.insert(99, 1234)
        (root,) = recorder.roots
        assert root.name == "dynamic_dict.insert"
        assert root.cost == legacy.cost

    def test_dynamic_effective_cost_equals_returned_opcost(self, wide_machine):
        """The span tree mirrors the OpCost parallel algebra: the root's
        effective cost is the cost the operation returns."""
        d = DynamicDictionary(
            wide_machine, universe_size=U, capacity=64, sigma=16, seed=3
        )
        recorder = attach_spans(wide_machine)
        returned = d.insert(7, 42)
        returned_overwrite = d.insert(7, 43)
        res = d.lookup(7)
        roots = recorder.roots
        assert roots[0].effective_cost == returned
        assert roots[1].effective_cost == returned_overwrite
        assert roots[2].effective_cost == res.cost


class TestRunInstrumented:
    def test_basic_report_ok(self):
        report = run_instrumented(
            "basic", num_disks=8, block_items=16, universe_size=U,
            capacity=64, operations=120, seed=5,
        )
        assert report.ok
        assert report.summary.operations == 120
        assert report.monitors.checks > 0
        assert report.monitors.violations == []
        assert report.recorder.roots
        # machine totals == sum of root span raw costs (spans cover all I/O)
        span_total = sum(
            r.cost.total_ios for r in report.recorder.roots
        )
        assert span_total == report.machine.stats.total_ios

    def test_dynamic_report_ok(self):
        report = run_instrumented(
            "dynamic", num_disks=32, block_items=32, universe_size=U,
            capacity=64, operations=100, sigma=16, seed=5,
        )
        assert report.ok
        assert report.monitors.violations == []
        data = report.to_dict()
        assert data["structure"] == "dynamic"
        assert data["monitors"]["ok"] is True
        # deterministic: same parameters, same report
        again = run_instrumented(
            "dynamic", num_disks=32, block_items=32, universe_size=U,
            capacity=64, operations=100, sigma=16, seed=5,
        )
        assert json.dumps(data, sort_keys=True) == json.dumps(
            again.to_dict(), sort_keys=True
        )

    def test_render_text_mentions_monitors(self):
        report = run_instrumented(
            "basic", num_disks=8, block_items=16, universe_size=U,
            capacity=32, operations=40, seed=2,
        )
        text = report.render_text()
        assert "bound monitors" in text
        assert "OK" in text


class TestCli:
    def test_smoke_writes_all_artifacts(self, tmp_path, capsys):
        jsonl = tmp_path / "events.jsonl"
        trace = tmp_path / "trace.json"
        out = tmp_path / "report.json"
        rc = main(
            [
                "--structure", "basic",
                "--disks", "8", "--block", "16",
                "--universe", str(U),
                "--capacity", "64", "--operations", "80",
                "--jsonl", str(jsonl),
                "--chrome-trace", str(trace),
                "--json", str(out),
            ]
        )
        assert rc == 0
        assert "bound monitors" in capsys.readouterr().out
        assert len(jsonl.read_text().splitlines()) > 0
        trace_data = json.loads(trace.read_text())
        assert trace_data["traceEvents"]
        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert report["runs"][0]["monitors"]["ok"] is True

    def test_both_structures_suffix_outputs(self, tmp_path):
        trace = tmp_path / "t.json"
        rc = main(
            [
                "--structure", "both", "--quiet",
                "--universe", str(U),
                "--capacity", "48", "--operations", "60",
                "--chrome-trace", str(trace),
            ]
        )
        assert rc == 0
        assert (tmp_path / "t-basic.json").exists()
        assert (tmp_path / "t-dynamic.json").exists()

    def test_operational_error_exits_two(self, tmp_path, capsys):
        # An unwritable report path is an operational failure: the run
        # produced no delivered verdict on the bounds, so exit 2, not 1.
        rc = main(
            [
                "--structure", "basic", "--quiet",
                "--disks", "8", "--block", "16",
                "--universe", str(U),
                "--capacity", "16", "--operations", "8",
                "--json", str(tmp_path / "missing_dir" / "report.json"),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_percentiles_prints_latency_and_utilization(self, capsys):
        rc = main(
            [
                "--structure", "basic",
                "--disks", "8", "--block", "16",
                "--universe", str(U),
                "--capacity", "64", "--operations", "80",
                "--wall",
            ]
        )
        assert rc == 0  # exit codes unchanged by the wall flag
        out = capsys.readouterr().out
        assert "wall latency" in out
        assert "p50" in out and "p99" in out
        assert "lookup" in out
        assert "utilization" in out

    def test_wall_flag_report_json_identical(self, tmp_path):
        def run(extra):
            out = tmp_path / f"r{len(extra)}.json"
            rc = main(
                [
                    "--structure", "basic", "--quiet",
                    "--disks", "8", "--block", "16",
                    "--universe", str(U),
                    "--capacity", "64", "--operations", "80",
                    "--json", str(out),
                ]
                + extra
            )
            assert rc == 0
            return out.read_text()

        # --wall changes stdout only; the machine-readable report (the
        # BENCH_smoke.json shape) stays byte-identical.
        assert run([]) == run(["--wall"])
