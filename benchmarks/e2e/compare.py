"""Compare two end-to-end benchmark reports, metric by metric.

    python3 benchmarks/e2e/compare.py BASE.json CHANGE.json

``BASE.json`` and ``CHANGE.json`` are ``run.py --out`` reports.  One row
per (workload, end-to-end metric) says whether the change improved,
left unchanged, regressed, or could not resolve the metric:

* an exact metric (one ``run.py`` reads off the program's counters, which
  repeat exactly) regressed on any difference, and is otherwise
  unchanged;
* any other metric is *unresolved* when ``BENCHMARK.json`` gives it no
  bound, when either report lacks its quartiles across passes, or when
  either report's interquartile range, as a share of its median, is
  wider than the bound; otherwise it regressed or improved when it moved
  by more than the bound in the worse or better direction.

Bounds and directions come from ``BENCHMARK.json``.  Exit status 1 when
any row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def _spread(metric: Dict) -> Optional[float]:
    """Interquartile range across passes ÷ value, or ``None``."""
    if metric.get("q1") is None or not metric["value"]:
        return None
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def verdict(base: Dict, change: Dict, spec: Optional[Dict]) -> Tuple[str, str]:
    """``(verdict, relative change)`` for one metric of two reports;
    ``spec`` is the metric's ``BENCHMARK.json`` entry, if it has one."""
    a, b = base["value"], change["value"]
    if base.get("exact"):
        return ("unchanged" if a == b else "regressed"), (
            "=" if a == b else f"{b - a:+g}"
        )
    if a is None or b is None or not a:
        return "unresolved", "n/a"
    delta = (b - a) / a
    shown = f"{delta:+.1%}"
    spreads = (_spread(base), _spread(change))
    if spec is None or None in spreads or max(spreads) > spec["bound"]:
        return "unresolved", shown
    worse = delta if spec["better"] == "lower" else -delta
    if worse > spec["bound"]:
        return "regressed", shown
    if worse < -spec["bound"]:
        return "improved", shown
    return "unchanged", shown


def compare(base: Dict, change: Dict, spec: Dict) -> List[Tuple[str, ...]]:
    specs = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    for workload, report in base["workloads"].items():
        other = change["workloads"].get(workload)
        for name, metric in report["metrics"].items():
            theirs = (other or {}).get("metrics", {}).get(name)
            if theirs is None:
                rows.append((workload, name, "unresolved", "missing"))
                continue
            rows.append(
                (workload, name, *verdict(metric, theirs, specs.get(name)))
            )
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    change = json.loads(args.change.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(base, change, spec)
    for workload, name, result, delta in rows:
        print(f"{workload:<16} {name:<20} {result:<11} {delta}")
    regressed = sum(1 for row in rows if row[2] == "regressed")
    print(f"{regressed} regressed, "
          f"{sum(1 for row in rows if row[2] == 'unresolved')} unresolved, "
          f"{len(rows)} compared")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
