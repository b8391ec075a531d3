"""The wall/charged duality contract: timing a run with the layer tracer
(``repro.obs.layers``, ``--wall``) changes NOTHING deterministic.

Every test runs the same workload twice — untimed, then timed — and
asserts the deterministic outputs are *equal as serialized bytes*:
IOStats, every span's raw cost and ``to_dict`` tree, the metrics
registry, the monitor verdicts, the report payload (``BENCH_smoke.json``
shape), and the exporter outputs.  Healthy, cached, batched and
fault-injected runs are all covered, on both executors; this is the
property the detlint DET004 wall-clock ban defends at the static level.
"""

import dataclasses
import json

import pytest

from repro.core.basic_dict import BasicDictionary
from repro.obs.export import chrome_trace, span_events
from repro.obs.harness import run_instrumented
from repro.obs.layers import LayerTracer
from repro.pdm.faults import StragglerWindow, TransientWindow, attach_faults
from repro.pdm.machine import ParallelDiskMachine
from repro.pdm.spans import attach_spans, span

U = 1 << 16


def stats_dict(stats):
    return {
        "read_ios": stats.read_ios,
        "write_ios": stats.write_ios,
        "blocks_read": stats.blocks_read,
        "blocks_written": stats.blocks_written,
        "retry_ios": stats.retry_ios,
        "repair_ios": stats.repair_ios,
    }


def span_costs(recorder):
    """Every span's deterministic fields, flattened."""
    return [
        (s.name, s.index, s.mode, dataclasses.astuple(s.cost),
         dataclasses.astuple(s.effective_cost), sorted(s.attrs))
        for s in recorder.iter_spans()
    ]


def deterministic_record(report):
    """Everything a run writes or verdicts on, serialized."""
    return {
        "report": json.dumps(report.to_dict(), sort_keys=True),
        "trees": [json.dumps(r.to_dict(), sort_keys=True)
                  for r in report.recorder.roots],
        "stats": stats_dict(report.machine.stats),
        "spans": span_costs(report.recorder),
        "monitors": report.monitors.summary(),
        "io": [(e.kind, e.addrs, e.rounds) for e in report.tracer.events],
        "events": span_events(report.recorder),
        "chrome": json.dumps(
            chrome_trace(report.recorder, report.tracer,
                         num_disks=report.machine.num_disks),
            sort_keys=True,
        ),
    }


def timed_and_untimed(structure, tmp_path, **kwargs):
    records = []
    for wall in (False, True):
        report = run_instrumented(
            structure, operations=160, capacity=128, trace=True, wall=wall,
            executor_dir=str(tmp_path / f"disks-{wall}"), **kwargs,
        )
        try:
            records.append(deterministic_record(report))
            timed = report.layers
        finally:
            report.machine.close()
    # the timed run did actually measure something
    assert timed is not None and timed.spans
    return records


SCENARIOS = {
    "healthy": {},
    "cached": {"cache_blocks": 64},
    "batched": {"batch": 16},
    "cached_batched": {"cache_blocks": 64, "batch": 16},
    "dynamic": {"structure": "dynamic"},
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_wall_channel_changes_no_deterministic_output(name, tmp_path):
    kwargs = dict(SCENARIOS[name])
    structure = kwargs.pop("structure", "basic")
    off, on = timed_and_untimed(structure, tmp_path, **kwargs)
    assert on == off


@pytest.mark.parametrize("structure", ["basic", "dynamic"])
def test_wall_changes_nothing_on_the_file_executor(structure, tmp_path):
    off, on = timed_and_untimed(structure, tmp_path, executor="file")
    assert on == off


def _faulted_lookup_costs(wall):
    """One seeded fault schedule (straggler + healed transient), identical
    lookups, timed or not; returns the deterministic record."""
    machine = ParallelDiskMachine(8, 16, item_bits=64)
    d = BasicDictionary(
        machine, universe_size=U, capacity=64, degree=8, seed=5
    )
    for i in range(64):
        d.insert((i * 977) % U, None)
    recorder = attach_spans(machine)
    attach_faults(
        machine,
        [
            StragglerWindow(disk=0, start=0, end=1 << 30),
            TransientWindow(disk=1, start=0, end=2),
        ],
    )
    tracer = LayerTracer()
    if wall:
        tracer.install()
    try:
        for i in range(32):
            d.lookup((i * 977) % U)
    finally:
        tracer.uninstall()
    return stats_dict(machine.stats), span_costs(recorder), recorder, tracer


def test_fault_injected_run_unchanged_by_wall_channel():
    stats_off, costs_off, rec_off, _ = _faulted_lookup_costs(False)
    stats_on, costs_on, rec_on, tracer = _faulted_lookup_costs(True)
    assert stats_off == stats_on
    assert costs_off == costs_on
    # the fault schedule really charged recovery rounds (the scenario is
    # exercising the fault path, not a no-op)
    assert stats_on["retry_ios"] > 0
    assert span_events(rec_off) == span_events(rec_on)
    roots = [s for s in tracer.spans if s[4] is None]
    assert [s[1] for s in roots] == ["core.basic_dict.lookup"] * 32


def test_wall_fields_never_in_span_to_dict(machine):
    recorder = attach_spans(machine)
    with LayerTracer() as tracer:
        with span(machine, "op"):
            machine.read_blocks([(0, 0)])
    assert tracer.spans
    (root,) = recorder.roots
    flat = json.dumps(root.to_dict())
    assert "wall" not in flat and "lane" not in flat and "_ns" not in flat
