"""The exact gate and the trajectory appender over end-to-end reports.

``scripts/check_e2e_exact.py`` fails CI on any counted metric of the
end-to-end smoke run that differs from the committed baseline and
ignores wall metrics; ``scripts/append_trajectory.py`` appends full
reports to the committed trajectory in the shape ``compare.py`` reads.
Both run here on the committed baseline and copies doctored from it.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BASELINE = ROOT / "benchmarks" / "baselines" / "e2e_smoke.json"
TRAJECTORY = ROOT / "benchmarks" / "results" / "trajectory.json"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare = _load("e2e_compare", ROOT / "benchmarks" / "e2e" / "compare.py")
append_trajectory = _load(
    "append_trajectory", ROOT / "scripts" / "append_trajectory.py"
)


@pytest.fixture
def baseline():
    return json.loads(BASELINE.read_text())


def gate(tmp_path, change):
    path = tmp_path / "change.json"
    path.write_text(json.dumps(change))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_e2e_exact.py"),
         str(BASELINE), str(path)],
        capture_output=True, text=True,
    ).returncode


def metrics(report, workload):
    return report["workloads"][workload]["metrics"]


class TestExactGate:
    def test_baseline_against_itself_passes(self, tmp_path, baseline):
        assert gate(tmp_path, baseline) == 0

    def test_wall_metrics_are_ignored(self, tmp_path, baseline):
        for workload in baseline["workloads"].values():
            for metric in workload["metrics"].values():
                if metric.get("exact"):
                    continue
                for key in ("value", "q1", "q3"):
                    if metric.get(key) is not None:
                        metric[key] *= 1.5
        assert gate(tmp_path, baseline) == 0

    def test_memory_peak_one_word_up_fails(self, tmp_path, baseline):
        metrics(baseline, "single-key")["memory_words_peak"]["value"] += 1
        assert gate(tmp_path, baseline) == 1

    def test_failed_op_fraction_moving_fails(self, tmp_path, baseline):
        metrics(baseline, "degraded")["failed_op_fraction"]["value"] += 1e-6
        assert gate(tmp_path, baseline) == 1

    def test_missing_exact_metric_fails(self, tmp_path, baseline):
        del metrics(baseline, "read-hot")["rounds_per_op"]
        assert gate(tmp_path, baseline) == 1


class TestAppendTrajectory:
    @pytest.fixture
    def trajectory(self, tmp_path):
        path = tmp_path / "trajectory.json"
        path.write_text(TRAJECTORY.read_text())
        return path

    def report(self, tmp_path, baseline, smoke):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({**baseline, "smoke": smoke}))
        return path

    def test_appends_a_comparable_entry(self, tmp_path, trajectory, baseline):
        before = trajectory.read_text()
        report = self.report(tmp_path, baseline, smoke=False)
        append_trajectory.main(["--label", "prX", str(report)], trajectory)
        data = json.loads(trajectory.read_text())
        entry = data["entries"].pop()
        assert entry["label"] == "prX"
        assert append_trajectory._dump(data) == before
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        rows = compare.compare(baseline, entry, spec)
        exact = [row for row in rows
                 if metrics(baseline, row[0])[row[1]].get("exact")]
        assert exact and all(row[2] == "unchanged" for row in exact)

    def test_rejects_a_smoke_report(self, tmp_path, trajectory, baseline):
        before = trajectory.read_text()
        report = self.report(tmp_path, baseline, smoke=True)
        with pytest.raises(SystemExit, match="smoke"):
            append_trajectory.main(["--label", "prX", str(report)],
                                   trajectory)
        assert trajectory.read_text() == before

    def test_rejects_a_duplicate_label(self, tmp_path, trajectory, baseline):
        report = self.report(tmp_path, baseline, smoke=False)
        append_trajectory.main(["--label", "prX", str(report)], trajectory)
        before = trajectory.read_text()
        with pytest.raises(SystemExit, match="already"):
            append_trajectory.main(["--label", "prX", str(report)],
                                   trajectory)
        with pytest.raises(SystemExit, match="already"):
            append_trajectory.main(["--label", "pr7", str(report)],
                                   trajectory)
        assert trajectory.read_text() == before
