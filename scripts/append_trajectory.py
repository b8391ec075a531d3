#!/usr/bin/env python
"""Append one end-to-end benchmark report to the bench trajectory.

    python scripts/append_trajectory.py --label prN REPORT

``REPORT`` is a full (not ``--smoke``) ``benchmarks/e2e/run.py --out``
report.  The entry appended to ``benchmarks/results/trajectory.json``
keeps its seed, seconds, environment and per-workload ``metrics``, the
shape ``benchmarks/e2e/compare.py`` reads.  The file keeps its canonical
form, so earlier entries stay byte-identical.  Exit status 1 for a smoke
report or a label already in the trajectory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "benchmarks" / "results" / "trajectory.json"


def _dump(data: Any) -> str:
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def main(argv: Optional[Sequence[str]] = None,
         trajectory: Path = TRAJECTORY) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("report", type=Path)
    args = parser.parse_args(argv)
    report = json.loads(args.report.read_text())
    text = trajectory.read_text()
    data = json.loads(text)
    if report.get("smoke", True):
        sys.exit(f"error: {args.report} is a smoke report, not a full run")
    if any(entry["label"] == args.label for entry in data["entries"]):
        sys.exit(f"error: label {args.label!r} is already in {trajectory}")
    if _dump(data) != text:
        sys.exit(f"error: {trajectory} is not in canonical form")
    data["entries"].append({
        "label": args.label,
        **{key: report[key] for key in ("seed", "seconds", "environment")},
        "workloads": {
            name: {"metrics": workload["metrics"]}
            for name, workload in report["workloads"].items()
        },
    })
    trajectory.write_text(_dump(data))


if __name__ == "__main__":
    main()
