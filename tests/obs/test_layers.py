"""Tests of the outside-in layer tracer (repro.obs.layers).

The end-to-end benchmark keeps its own copy of the tracer
(``benchmarks/e2e/layers.py``); the parity tests pin the two together
until that copy becomes an import of this module.
"""

from __future__ import annotations

import importlib.util
from collections import Counter
from importlib import import_module
from pathlib import Path

import pytest

from repro.core.facade import ParallelDiskDictionary
from repro.obs import layers
from repro.pdm.executors import create_executor

E2E_LAYERS_PY = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "layers.py"
)


def e2e_layers():
    spec = importlib.util.spec_from_file_location("_e2e_layers", E2E_LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets():
    """Every ``(owner class, name, function object)`` the tracer wraps."""
    out = []
    for _layer, module, cls_name, _label, functions in layers.TARGETS:
        cls = getattr(import_module(module), cls_name)
        for name in functions:
            owner = next(k for k in cls.__mro__ if name in k.__dict__)
            out.append((owner, name, owner.__dict__[name]))
    return out


def span_names(table):
    """``{(module, class, function): span name}`` of one TARGETS table."""
    return {
        (module, cls_name, fn): ".".join(p for p in (layer, label, fn) if p)
        for layer, module, cls_name, label, functions in table
        for fn in functions
    }


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
    self_ns, busy_ns = layers.layer_totals(tracer)
    assert set(self_ns) == set(busy_ns) == set(layers.LAYERS)
    assert sum(self_ns.values()) == sum(r[3] - r[2] for r in roots)


def test_batch_column_build_and_pool_filter_are_attributed():
    # The batch lookup builds its key columns with store_columns and
    # filters through the pool with get_many; neither calls the
    # single-item store_column / get.
    facade = small_facade(cache_blocks=8)
    tracer = layers.LayerTracer()
    with tracer:
        facade.batch_lookup(list(range(0, 64, 2)))
    totals = tracer.totals()
    assert totals["kernels.store_columns"].calls > 0
    assert totals["cache.get_many"].calls > 0
    assert "kernels.store_column" not in totals
    assert "cache.get" not in totals


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
    _, busy_ns = layers.layer_totals(tracer)
    assert busy_ns["fs"] == lane.busy_ns


# -- parity with the benchmark's copy ------------------------------------------


def test_benchmark_table_is_contained_in_the_src_table():
    bench = span_names(e2e_layers().TARGETS)
    src = span_names(layers.TARGETS)
    missing = {key: name for key, name in bench.items()
               if src.get(key) != name}
    assert missing == {}


def facade_structure(tracer_cls, executor, tmp_path, kept):
    """``Counter`` of ``(name, parent name, call)`` for one small facade
    scenario, keeping only spans named in ``kept`` and re-parenting each
    to its nearest kept ancestor."""
    options = {}
    if executor == "file":
        options["executor"] = create_executor(
            "file", directory=str(tmp_path / tracer_cls.__module__)
        )
    facade = small_facade(**options)
    try:
        with tracer_cls() as tracer:
            facade.batch_lookup(list(range(0, 64, 2)))
            facade.lookup(8)
            facade.insert(10, "z")
    finally:
        facade.close()
    by_id = {s[0]: s for s in tracer.spans}

    def kept_parent(span):
        parent = span[4]
        while parent is not None and by_id[parent][1] not in kept:
            parent = by_id[parent][4]
        return None if parent is None else by_id[parent][1]

    return Counter(
        (s[1], kept_parent(s), s[5]) for s in tracer.spans if s[1] in kept
    )


@pytest.mark.parametrize("executor", ["simulated", "file"])
def test_both_tracers_record_the_same_span_structure(executor, tmp_path):
    bench = e2e_layers()
    kept = set(span_names(bench.TARGETS).values())
    ours = facade_structure(layers.LayerTracer, executor, tmp_path, kept)
    theirs = facade_structure(bench.LayerTracer, executor, tmp_path, kept)
    assert ours == theirs
    assert {name for name, _, _ in ours} >= {
        "core.facade.batch_lookup", "core.facade.lookup",
        "core.facade.insert", "machine.read_planned_blocks",
    }
