"""Tests of the outside-in layer tracer.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

from importlib import import_module

import pytest

import layers
from repro.core.facade import ParallelDiskDictionary
from repro.pdm.executors import create_executor


def targets():
    """Every ``(owner class, name, function object)`` the tracer wraps."""
    out = []
    for _layer, module, cls_name, _label, functions in layers.TARGETS:
        cls = getattr(import_module(module), cls_name)
        for name in functions:
            owner = next(k for k in cls.__mro__ if name in k.__dict__)
            out.append((owner, name, owner.__dict__[name]))
    return out


def small_facade(**kwargs):
    facade = ParallelDiskDictionary(
        universe_size=1 << 16, capacity=256, degree=8, block_items=16,
        **kwargs,
    )
    facade.batch_insert({k: k for k in range(0, 512, 2)})
    return facade


def test_wrappers_are_gone_after_the_traced_pass():
    before = targets()
    facade = small_facade()
    tracer = layers.LayerTracer()
    with tracer:
        assert all(owner.__dict__[name] is not fn for owner, name, fn in before)
        facade.batch_lookup([2, 4, 6])
        facade.lookup(8)
        facade.insert(10, "x")
    assert all(owner.__dict__[name] is fn for owner, name, fn in before)
    recorded = len(tracer.spans)
    assert recorded
    facade.batch_lookup([2, 4, 6])
    facade.lookup(8)
    assert len(tracer.spans) == recorded  # untraced calls: originals ran


def test_uninstall_restores_even_when_the_pass_raises():
    before = targets()
    with pytest.raises(RuntimeError):
        with layers.LayerTracer():
            raise RuntimeError("pass failed")
    assert all(owner.__dict__[name] is fn for owner, name, fn in before)


def test_client_self_times_partition_each_facade_call():
    facade = small_facade()
    tracer = layers.LayerTracer()
    with tracer:
        facade.batch_lookup(list(range(0, 64, 2)))
        facade.lookup(8)
        facade.insert(10, "y")
    roots = [s for s in tracer.spans if s[4] is None]
    assert [s[1] for s in roots] == [
        "core.facade.batch_lookup", "core.facade.lookup",
        "core.facade.insert",
    ]
    assert [s[5] for s in roots] == [1, 2, 3]  # one call id per facade call
    for root in roots:
        call_spans = [s for s in tracer.spans if s[5] == root[5]]
        assert sum(s[7] for s in call_spans) == root[3] - root[2]
    names = set(tracer.totals())
    assert {"expanders.striped", "striping.read_buckets",
            "machine.read_blocks", "core.basic_dict.upsert"} <= names


def test_disk_lane_spans_count_as_busy_time(tmp_path):
    executor = create_executor("file", directory=str(tmp_path / "disks"))
    facade = small_facade(executor=executor)
    try:
        tracer = layers.LayerTracer()
        with tracer:
            facade.batch_lookup(list(range(0, 64, 2)))
    finally:
        facade.close()
    totals = tracer.totals()
    lane = totals["fs.read_block"]
    assert lane.calls and lane.busy_ns > 0 and lane.self_ns == 0
    by_id = {s[0]: s for s in tracer.spans}
    for span in tracer.spans:
        if span[1] == "fs.read_block":
            assert by_id[span[4]][1] == "executors.run_read"
