#!/usr/bin/env python
"""Fail when a counted metric of an end-to-end report moved.

    python scripts/check_e2e_exact.py BASE.json CHANGE.json

Both files are ``benchmarks/e2e/run.py --out`` reports.  The verdicts are
``benchmarks/e2e/compare.py``'s, but only rows whose base metric is exact
(read off the program's counters) are gated; a missing one fails too.
Wall rows are skipped: a one-pass smoke report has q1 == q3, so
``compare.py`` reads a spread of 0 and trusts any swing (two smoke runs
of one commit on one host: ``single-key`` ``ops_per_s`` -30.6% and
``lookup_p50_us`` +61.5%, with every exact row identical).

Exit status 1 when an exact row regressed or is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

import compare  # noqa: E402


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    change = json.loads(args.change.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    exact = {
        (workload, name)
        for workload, report in base["workloads"].items()
        for name, metric in report["metrics"].items() if metric.get("exact")
    }
    rows = [row for row in compare.compare(base, change, spec)
            if row[:2] in exact]
    failed = [row for row in rows if row[2] != "unchanged"]
    for workload, name, result, delta in failed:
        print(f"{workload:<16} {name:<20} {result:<11} {delta}")
    print(f"{len(failed)} of {len(rows)} exact rows regressed or missing")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
