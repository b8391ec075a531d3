"""Differential suite: kernel backends change the clock, never the run.

Copies of the same dictionary on the pure-Python kernel and (when
importable) the numpy kernel replay identical workloads on identical
machines, and everything observable is held to literal digests of the
per-key neighborhood path the kernels replaced: per-key batch outcomes,
the charged :class:`~repro.pdm.iostats.IOStats`, the per-batch
``OpCost``, and the round-packing witnesses recorded on the batch spans.
The comparison runs healthy, under a ``kill_disks`` fault plan, with a
memory budget tiny enough to freeze the neighborhood memo and the
key-column cache, and across mutation (the column cache must never serve
stale rows).

The pipeline matrix below also holds every backend to literal snapshots
of the scalar batch body that the planned-read pipeline replaced, pooled
and uncached, healthy and under ``kill_disks``, on both executors.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.basic_dict import BasicDictionary
from repro.core.interface import DegradedLookupError, LookupResult
from repro.faults.plan import FaultPlan
from repro.kernels import KERNEL_ENV, create_kernel
from repro.pdm.executors import create_executor
from repro.pdm.faults import attach_faults
from repro.pdm.machine import ParallelDiskMachine
from repro.pdm.spans import attach_spans
from repro.workloads.access import zipf_accesses

U = 1 << 16
D = 8
B = 16
CAPACITY = 256
N_ITEMS = 96

KERNELS = ["python"]
try:
    create_kernel("numpy")
    KERNELS.append("numpy")
except ImportError:  # pragma: no cover - numpy is present in CI
    pass


def _build(kernel, *, memory_words=None, num_disks=D):
    machine = ParallelDiskMachine(num_disks, B, memory_words=memory_words)
    d = BasicDictionary(
        machine,
        universe_size=U,
        capacity=CAPACITY,
        degree=num_disks,
        seed=11,
        kernel=kernel,
    )
    items = {(13 + 101 * i) % U: f"v{i}" for i in range(N_ITEMS)}
    for k, v in sorted(items.items()):
        d.upsert(k, v)
    return machine, d, items


def _probes(items, extra_misses=20):
    present = sorted(items)
    stream = zipf_accesses(present, 48, s=1.2, seed=3)
    misses = [(k + 1) % U for k in present[:extra_misses]]
    return stream + misses + present[:8]


def _outcome_fingerprint(outcomes):
    """Per-key outcomes as comparable values (results and typed errors)."""
    fp = {}
    for key, res in outcomes.items():
        if isinstance(res, LookupResult):
            fp[key] = ("ok", res.found, res.value)
        elif isinstance(res, DegradedLookupError):
            fp[key] = ("degraded", res.membership)
        else:
            fp[key] = ("error", type(res).__name__)
    return fp


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _stats_fingerprint(machine):
    s = machine.stats
    return (s.read_ios, s.write_ios, s.blocks_read, s.blocks_written)


def _run_replay(kernel, *, faults=None, memory_words=None, batches=3):
    """One full replay under a backend; returns every observable."""
    machine, d, items = _build(kernel, memory_words=memory_words)
    recorder = attach_spans(machine)
    if faults is not None:
        attach_faults(
            machine,
            FaultPlan.kill_disks(faults, num_disks=machine.num_disks).events,
        )
    observed = []
    probes = _probes(items)
    for i in range(batches):
        outcomes, cost = d.batch_lookup(probes)
        observed.append(_outcome_fingerprint(outcomes))
        observed.append((cost.read_ios, cost.write_ios))
        if i == 0:  # mutate between batches: caches must not go stale
            victims = sorted(items)[:10]
            mutations = []
            for k in victims:
                try:  # deletes degrade (typed) when a bucket is unreadable
                    d.delete(k)
                    mutations.append(("del", k, "ok"))
                except Exception as exc:
                    mutations.append(("del", k, type(exc).__name__))
            for k in victims[:5]:
                try:
                    d.upsert(k, f"new{k}")
                    mutations.append(("up", k, "ok"))
                except Exception as exc:
                    mutations.append(("up", k, type(exc).__name__))
            observed.append(mutations)
    observed.append(_stats_fingerprint(machine))
    # Round-packing witnesses from the batch spans: the constructive
    # proof that vectorized planning charged the scalar schedule.
    witnesses = [
        {
            key: root.attrs[key]
            for key in (
                "rounds_batched",
                "rounds_sequential",
                "rounds_saved",
                "blocks_deduplicated",
            )
            if key in root.attrs
        }
        for root in recorder.roots
        if root.name == "basic_dict.batch_lookup"
    ]
    observed.append(witnesses)
    return observed


#: Digests of everything :func:`_run_replay` observes, captured from the
#: per-key neighborhood path (batch mutations evaluating one key at a
#: time) that the kernels replaced.  The tiny memory budget freezes the
#: neighborhood memo and the key-column cache without changing a single
#: observable, so it shares the healthy digest.
HEALTHY_DIGEST = "1ebfd6c12b755045"
KILL_DISKS_DIGEST = "cea178948f748491"


@pytest.mark.parametrize("kernel", KERNELS)
class TestKernelMatchesScalar:
    def test_healthy_replay(self, kernel):
        assert _digest(_run_replay(kernel)) == HEALTHY_DIGEST

    def test_under_kill_disks(self, kernel):
        assert _digest(_run_replay(kernel, faults=[0, 3])) == KILL_DISKS_DIGEST

    def test_memo_and_cache_frozen_under_tiny_memory(self, kernel):
        # A budget too small for the neighborhood memo and the key-column
        # cache: both freeze, and the frozen paths must stay identical.
        assert _digest(_run_replay(kernel, memory_words=512)) == HEALTHY_DIGEST

    def test_plan_matches_machine_charge(self, kernel):
        """``plan_unique_probe`` + ``rounds_for_counts`` equals the
        machine's own ``batch_rounds`` on the same address stream."""
        machine, d, items = _build(kernel)
        kern = create_kernel(kernel)
        buckets = d.buckets
        keys = sorted(items)[:40]
        flat = d._neighborhoods.batch_local_indices(keys, kernel=kern)
        unique, max_per_disk, inverse = buckets.probe_plan(flat, kern)
        assert machine.rounds_for_counts(
            len(unique), max_per_disk
        ) == machine.batch_rounds(unique)
        assert [unique[i] for i in inverse] == [
            a
            for key in keys
            for a in buckets.block_addrs(d._neighborhoods.striped(key))
        ]


def test_backends_disagreeing_would_be_caught():
    """The harness is sensitive: perturbing one observable fails."""
    a = _run_replay("python")
    b = _run_replay("python")
    assert a == b
    b[-1][0]["rounds_batched"] += 1
    assert a != b
    assert _digest(a) != _digest(b)


@pytest.mark.parametrize(
    "kernel, env",
    [("off", None), ("none", None),
     (None, "off"), (None, "none"), (None, "0"), (None, "disabled")],
)
def test_kernel_off_is_rejected(monkeypatch, kernel, env):
    """Every batch operation runs on a kernel: asking for none, by
    argument or through the environment, is an error, not a quiet
    fallback to the default backend."""
    if env is not None:
        monkeypatch.setenv(KERNEL_ENV, env)
    with pytest.raises(ValueError, match=r"'python', 'numpy'"):
        _build(kernel)


# -- the pipeline matrix ---------------------------------------------------------
#
# {uncached, pooled} x {healthy, kill_disks} x {simulated, file}, every
# backend against the observables of the scalar batch body it replaced.
# The pool holds fewer blocks than the structure has buckets, so fills
# evict (also inside one batch), hits are served from a churning LRU and
# batches mix resident and non-resident candidate blocks.

POOL_BLOCKS = 12
KILLED = [0, 3]
CHUNK = 16

CONFIGS = {
    "uncached-healthy": dict(cache_blocks=None, faults=None),
    "uncached-killed": dict(cache_blocks=None, faults=KILLED),
    "pooled-healthy": dict(cache_blocks=POOL_BLOCKS, faults=None),
    "pooled-killed": dict(cache_blocks=POOL_BLOCKS, faults=KILLED),
}
EXECUTORS = ["simulated", "file"]


def _observe(kernel, *, cache_blocks, faults, executor, directory):
    """One replay of chunked batch lookups with mutations in between;
    returns every observable (bulky ones digested)."""
    exe = (
        None if executor == "simulated"
        else create_executor("file", directory=directory)
    )
    machine = ParallelDiskMachine(
        D, B, cache_blocks=cache_blocks, executor=exe
    )
    try:
        d = BasicDictionary(
            machine, universe_size=U, capacity=CAPACITY, degree=D,
            seed=11, kernel=kernel,
        )
        items = {(13 + 101 * i) % U: f"v{i}" for i in range(N_ITEMS)}
        for k, v in sorted(items.items()):
            d.upsert(k, v)
        recorder = attach_spans(machine)
        if faults is not None:
            attach_faults(
                machine, FaultPlan.kill_disks(faults, num_disks=D).events
            )
        probes = _probes(items)
        chunks = [probes[i : i + CHUNK] for i in range(0, len(probes), CHUNK)]
        outcomes, costs, mutations = [], [], []
        for rnd in range(3):
            for chunk in chunks:
                out, cost = d.batch_lookup(chunk)
                outcomes.append(_outcome_fingerprint(out))
                costs.append((cost.read_ios, cost.blocks_read))
            if rnd == 0:
                for k in sorted(items)[:10]:
                    try:
                        d.delete(k) if k % 2 else d.upsert(k, f"new{k}")
                        mutations.append((k, "ok"))
                    except Exception as exc:
                        mutations.append((k, type(exc).__name__))
        witnesses = [
            root.attrs.get("rounds_batched")
            for root in recorder.roots
            if root.name == "basic_dict.batch_lookup"
        ]
        pool = machine.cache
        s = machine.stats
        return {
            "outcomes": _digest(outcomes),
            "costs": _digest(costs),
            "mutations": _digest(mutations),
            "io": (
                s.read_ios, s.write_ios, s.blocks_read, s.blocks_written,
                s.retry_ios,
            ),
            "witnesses": _digest(witnesses),
            "cache": None if pool is None else (
                {k: v for k, v in pool.stats.as_dict().items()
                 if k != "hit_rate"},
                _digest(pool.cached_addresses()),
            ),
            "peak_words": machine.memory.peak_words,
        }
    finally:
        machine.close()


#: What the scalar batch body (the per-bucket item-list scan that served
#: every pooled or fault-injected batch before the planned-read
#: pipeline) observed on each configuration, identical on both executors.
SCALAR_SNAPSHOTS = {
    "pooled-healthy": {
        "outcomes": "d0ec8593d4065a61",
        "costs": "3bd65f11650d2fdb",
        "mutations": "65c0d1ec041f9b77",
        "io": (155, 107, 840, 107, 0),
        "witnesses": "23097287b1da0282",
        "cache": (
            {"hits": 476, "misses": 840, "fills": 736, "evictions": 724,
             "flushed_blocks": 107, "invalidations": 0,
             "absorbed_writes": 107, "write_through_writes": 0},
            "e8c3a4df74a70811",
        ),
        "peak_words": 1236,
    },
    "pooled-killed": {
        "outcomes": "f678d708a76eafc6",
        "costs": "d1fd839680a70cd6",
        "mutations": "785d80a69dfbc1cd",
        "io": (166, 95, 711, 96, 0),
        "witnesses": "23097287b1da0282",
        "cache": (
            {"hits": 468, "misses": 848, "fills": 607, "evictions": 593,
             "flushed_blocks": 96, "invalidations": 2,
             "absorbed_writes": 96, "write_through_writes": 0},
            "4875015664e0abf7",
        ),
        "peak_words": 1236,
    },
    "uncached-healthy": {
        "outcomes": "d0ec8593d4065a61",
        "costs": "4ee1a6e414ffb9eb",
        "mutations": "65c0d1ec041f9b77",
        "io": (166, 106, 1316, 107, 0),
        "witnesses": "23097287b1da0282",
        "cache": None,
        "peak_words": 1044,
    },
    "uncached-killed": {
        "outcomes": "f678d708a76eafc6",
        "costs": "99311a145f4c06ed",
        "mutations": "785d80a69dfbc1cd",
        "io": (166, 96, 1179, 96, 0),
        "witnesses": "23097287b1da0282",
        "cache": None,
        "peak_words": 1044,
    },
}


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("kernel", KERNELS)
def test_pipeline_matches_scalar_snapshot(kernel, config, executor, tmp_path):
    got = _observe(
        kernel, executor=executor, directory=str(tmp_path / "k"),
        **CONFIGS[config],
    )
    want = dict(SCALAR_SNAPSHOTS[config])
    if config == "uncached-healthy":
        # Only the plain machine keeps key columns across batches, and it
        # charges them to internal memory: one (B + 1)-word column per
        # bucket of the structure here.
        assert got.pop("peak_words") - want.pop("peak_words") == 32 * (B + 1)
    assert got == want


@pytest.mark.parametrize("setting", ["file", "pooled"])
@pytest.mark.parametrize("kernel", KERNELS)
def test_column_store_resets_only_between_batches(kernel, setting, tmp_path):
    """A column-store bound far below one batch's bucket count.  The
    store may reset only before a batch: a reset between two blocks of
    one batch left the row handles already returned for that batch
    pointing into a fresh store (wrong rows, or an IndexError)."""
    exe = (
        create_executor("file", directory=str(tmp_path / "f"))
        if setting == "file" else None
    )
    machine = ParallelDiskMachine(
        D, B, executor=exe,
        cache_blocks=POOL_BLOCKS if setting == "pooled" else None,
    )
    try:
        d = BasicDictionary(
            machine, universe_size=U, capacity=CAPACITY, degree=D,
            seed=11, kernel=kernel,
        )
        items = {(13 + 101 * i) % U: f"v{i}" for i in range(N_ITEMS)}
        for k, v in sorted(items.items()):
            d.upsert(k, v)
        d._columns.max_entries = 4
        probes = _probes(items)
        want = {k: (k in items, items.get(k)) for k in probes}
        for _ in range(3):
            outcomes, _ = d.batch_lookup(probes)
            assert {
                k: (r.found, r.value) for k, r in outcomes.items()
            } == want
    finally:
        machine.close()
