"""Tests for the exporters (repro.obs.export)."""

import json

from repro.obs.export import (
    US_PER_ROUND,
    chrome_trace,
    span_events,
    write_chrome_trace,
    write_jsonl,
    write_table_artifact,
)
from repro.obs.layers import LayerTracer
from repro.pdm.machine import ParallelDiskMachine
from repro.pdm.spans import attach_spans, span
from repro.pdm.trace import attach


def record_tree(machine):
    recorder = attach_spans(machine)
    record_tree_into(machine)
    return recorder


def record_tree_into(machine):
    with span(machine, "root", parallel=True):
        with span(machine, "a"):
            machine.read_blocks([(0, 0)])
        with span(machine, "b"):
            machine.read_blocks([(1, 0)])
    with span(machine, "tail"):
        machine.write_blocks([((2, 0), [1], 64)])


class TestSpanEvents:
    def test_flat_preorder_with_parent_links(self, machine):
        events = span_events(record_tree(machine))
        assert [e["name"] for e in events] == ["root", "a", "b", "tail"]
        assert [e["parent"] for e in events] == [None, 0, 0, None]
        assert [e["depth"] for e in events] == [0, 1, 1, 0]
        assert all(e["type"] == "span" for e in events)

    def test_write_jsonl_round_trips(self, machine, tmp_path):
        events = span_events(record_tree(machine))
        path = tmp_path / "spans.jsonl"
        count = write_jsonl(path, events)
        lines = path.read_text().splitlines()
        assert count == len(lines) == len(events)
        assert [json.loads(line)["name"] for line in lines] == [
            "root",
            "a",
            "b",
            "tail",
        ]


class TestChromeTrace:
    def test_valid_json_with_required_keys(self, machine, tmp_path):
        recorder = record_tree(machine)
        path = write_chrome_trace(tmp_path / "trace.json", recorder)
        data = json.loads(path.read_text())
        assert "traceEvents" in data
        slices = [e for e in data["traceEvents"] if e.get("ph") == "X"]
        assert slices, "no complete events emitted"
        for e in slices:
            for key in ("name", "pid", "tid", "ts", "dur"):
                assert key in e

    def test_parallel_children_overlap_sequential_advance(self, machine):
        recorder = record_tree(machine)
        events = chrome_trace(recorder)["traceEvents"]
        by_name = {e["name"]: e for e in events if e.get("ph") == "X"}
        # parallel children of "root" start together
        assert by_name["a"]["ts"] == by_name["b"]["ts"]
        # "tail" is a second top-level op: starts after "root" ends
        root = by_name["root"]
        assert by_name["tail"]["ts"] == root["ts"] + root["dur"]
        # root's effective cost is 1 round (parallel max), so 1 round wide
        assert root["dur"] == US_PER_ROUND

    def test_disk_tracks_from_tracer(self, machine):
        tracer = attach(machine)
        machine.read_blocks([(0, 0), (1, 0)])
        machine.write_blocks([((1, 1), [1], 64)])
        events = chrome_trace(None, tracer, num_disks=machine.D)["traceEvents"]
        io = [e for e in events if e.get("cat") == "io"]
        assert {e["tid"] for e in io} == {0, 1}
        # the write round starts after the read round on disk 1's track
        disk1 = [e for e in io if e["tid"] == 1]
        assert disk1[0]["name"] == "read" and disk1[1]["name"] == "write"
        assert disk1[1]["ts"] == disk1[0]["ts"] + US_PER_ROUND
        # one named thread per disk
        names = [e for e in events if e.get("name") == "thread_name"]
        assert len(names) == machine.D

    def test_deterministic_output(self, machine, wide_machine):
        def dump(m):
            recorder = record_tree(m)
            return json.dumps(chrome_trace(recorder), sort_keys=True)

        assert dump(machine) == dump(wide_machine)


#: The JSONL span-event schema: these keys, exactly, on every default
#: event.  Extending the deterministic schema is a reviewed, deliberate
#: act — update this snapshot in the same commit.
SPAN_EVENT_KEYS = {
    "name", "index", "mode", "cost", "effective", "attrs",
    "type", "parent", "depth",
}


class TestJsonlSchema:
    def test_default_event_keys_are_the_snapshot(self, machine):
        events = span_events(record_tree(machine))
        for event in events:
            assert set(event) == SPAN_EVENT_KEYS

    def test_wall_run_default_export_keeps_snapshot(self, machine):
        recorder = attach_spans(machine)
        with LayerTracer() as tracer:
            with span(machine, "op"):
                machine.read_blocks([(0, 0)])
        assert tracer.spans  # the machine call was timed
        for event in span_events(recorder):
            assert set(event) == SPAN_EVENT_KEYS


class TestWallTrackGroup:
    """The real-time track group (process 3) is gone: a trace written
    from a run timed by the layer tracer is the untimed trace."""

    def record(self, machine, timed):
        recorder = attach_spans(machine)
        tracer = attach(machine)
        if timed:
            with LayerTracer():
                record_tree_into(machine)
        else:
            record_tree_into(machine)
        return recorder, tracer

    def test_off_by_default_and_byte_identical(self):
        timed = chrome_trace(*self.record(ParallelDiskMachine(8, 16), True))
        untimed = chrome_trace(
            *self.record(ParallelDiskMachine(8, 16), False)
        )
        assert all(e["pid"] in (1, 2) for e in timed["traceEvents"])
        assert json.dumps(timed, sort_keys=True) == json.dumps(
            untimed, sort_keys=True
        )

    def test_round_trip_with_disks_and_wall(self, machine, tmp_path):
        recorder, tracer = self.record(machine, True)
        path = write_chrome_trace(
            tmp_path / "trace.json", recorder, tracer, num_disks=machine.D
        )
        data = json.loads(path.read_text())
        pids = {e["pid"] for e in data["traceEvents"]}
        assert pids == {1, 2}
        # every slice still has the Chrome trace-event required keys
        for e in data["traceEvents"]:
            if e.get("ph") == "X":
                for key in ("name", "pid", "tid", "ts", "dur"):
                    assert key in e


class TestTableArtifact:
    def test_writes_text_and_sidecar(self, tmp_path):
        path = write_table_artifact(tmp_path, "demo", "a | b\n1 | 2")
        assert path.read_text() == "a | b\n1 | 2\n"
        sidecar = json.loads((tmp_path / "demo.json").read_text())
        assert sidecar == {
            "kind": "table",
            "lines": ["a | b", "1 | 2"],
            "name": "demo",
        }

    def test_sidecar_optional(self, tmp_path):
        write_table_artifact(tmp_path, "plain", "x", sidecar=False)
        assert not (tmp_path / "plain.json").exists()
