"""Tests of the workload streams and the per-call failure accounting.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import workloads
from repro.core.interface import DegradedLookupError, LookupResult
from repro.pdm.iostats import OpCost


class StubFacade:
    """Answers from a dict, or raises what it is told to."""

    def __init__(self, data, raises=None):
        self.data = data
        self.raises = raises

    def batch_lookup(self, keys):
        if self.raises is not None:
            raise self.raises
        return {
            k: LookupResult(k in self.data, self.data.get(k), OpCost())
            for k in keys
        }, OpCost()

    def batch_insert(self, items):
        if self.raises is not None:
            raise self.raises
        out = {k: (True, self.data[k]) for k in items}
        self.data.update(items)
        return out, OpCost()


def runner(name="mixed-file"):
    return workloads.Runner(workloads.BY_NAME[name], seed=1, scratch=".")


def build(facade, oracle):
    return workloads.Build(facade, None, dict(oracle), None)


def issue_and_check(r, b, call, tally):
    r._check(b, call, r._issue(b.facade, call), tally)


def test_streams_are_seeded_and_shared_by_name():
    keys = workloads.loaded_keys(3)
    assert keys == workloads.loaded_keys(3) != workloads.loaded_keys(4)
    hot = workloads.make_stream(workloads.BY_NAME["read-hot"], 3, keys, 50)
    cached = workloads.make_stream(
        workloads.BY_NAME["read-hot-cached"], 3, keys, 40
    )
    assert cached == hot[:40]
    assert all(len(c.keys) == 64 and c.op == "lookup" for c in hot)
    mixed = workloads.make_stream(workloads.BY_NAME["mixed-file"], 3, keys, 6)
    assert [c.op for c in mixed] == ["lookup", "upsert"] * 3
    assert all(v != k for c in mixed[1::2] for k, v in zip(c.keys, c.values))


def test_a_raising_call_counts_every_key_and_never_aborts():
    r = runner()
    b = build(StubFacade({1: 1, 2: 2}, raises=IndexError("stale row")), {
        1: 1, 2: 2,
    })
    tally = workloads.Tally()
    issue_and_check(r, b, workloads.Call("lookup", (1, 2)), tally)
    issue_and_check(r, b, workloads.Call("upsert", (1,), (9,)), tally)
    assert (tally.keys, tally.failed, tally.wrong) == (3, 3, 0)
    assert tally.failures == {"IndexError": 3}
    # The raised upsert left key 1 unknown: the next answer is adopted.
    b.facade.raises = None
    issue_and_check(r, b, workloads.Call("lookup", (1,)), tally)
    assert tally.wrong == 0 and b.oracle[1] == 1


def test_per_key_typed_errors_count_by_type():
    r = runner("degraded")
    error = DegradedLookupError("undecidable", key=5)

    class Degraded(StubFacade):
        def batch_lookup(self, keys):
            out, cost = super().batch_lookup(keys)
            out[5] = error
            return out, cost

    b = build(Degraded({4: 4, 5: 5}), {4: 4, 5: 5})
    tally = workloads.Tally()
    issue_and_check(r, b, workloads.Call("lookup", (4, 5)), tally)
    assert (tally.keys, tally.failed, tally.wrong) == (2, 1, 0)
    assert tally.failures == {"DegradedLookupError": 1}


def test_stale_or_missing_answers_are_wrong():
    r = runner()
    b = build(StubFacade({1: 1, 2: 2}), {1: 1, 2: 2})
    tally = workloads.Tally()
    issue_and_check(r, b, workloads.Call("upsert", (1,), (7,)), tally)
    assert tally.wrong == 0 and b.oracle[1] == 7
    b.facade.data[1] = 1  # the store lost the upsert
    del b.facade.data[2]
    issue_and_check(r, b, workloads.Call("lookup", (1, 2)), tally)
    assert tally.wrong == 2
