"""Charge parity of the static and dynamic dictionaries, held to digests.

Seeded replays of every read-bearing operation — single and batched
lookups on both Theorem 6 layouts (case 'a', case 'b' standard and
replicated), the Theorem 7 dynamic dictionary's inserts, updates,
deletes and their batch forms, and the Section 6 recursive dictionary's
fragment lookups, inserts and updates — run healthy and under a
``FaultPlan.kill_disks`` plan.  Each replay digests:

* the per-op outcomes (values, typed errors);
* the per-op charged costs;
* the machine's final :class:`~repro.pdm.iostats.IOStats`;
* every recorded span tree (names, attributes such as ``degraded``,
  ``failed_fields`` and ``leaked_fields``, and per-span costs).

The literal digests were captured from the two-path field read (one
raising read for intact machines, one fault-collecting read under an
injector) that the single fault-aware read replaced: folding the paths
together must not move a charged round, a block or a span attribute.
The ``recursive`` digests were captured while records and fragments were
still bit-vector objects; carrying them as plain ints must not move them
either.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.basic_dict import BasicDictionary
from repro.core.dynamic_dict import DynamicDictionary
from repro.core.interface import (
    DegradedLookupError,
    DegradedModeError,
    LookupResult,
)
from repro.core.recursive_dict import RecursiveLoadBalancedDictionary
from repro.core.static_dict import StaticDictionary
from repro.faults.plan import FaultPlan
from repro.pdm.faults import attach_faults
from repro.pdm.machine import ParallelDiskMachine
from repro.pdm.spans import attach_spans

U = 1 << 16
SIGMA = 16


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _items(n):
    return {(7 + 97 * i) % U: (31 * i) % (1 << SIGMA) for i in range(n)}


def _cost(cost):
    return (
        cost.read_ios, cost.write_ios, cost.blocks_read, cost.blocks_written,
        cost.retry_ios, cost.repair_ios,
    )


def _outcome(res):
    if isinstance(res, LookupResult):
        return ("ok", res.found, res.value, _cost(res.cost))
    if isinstance(res, DegradedLookupError):
        return ("degraded", res.membership)
    if isinstance(res, Exception):
        return ("error", type(res).__name__)
    return ("value", res)


def _call(fn, *args):
    try:
        res = fn(*args)
    except Exception as exc:  # typed failures are part of the outcome
        return _outcome(exc)
    if isinstance(res, tuple) and len(res) == 2 and isinstance(res[0], dict):
        out, cost = res
        return ({k: _outcome(v) for k, v in out.items()}, _cost(cost))
    if isinstance(res, LookupResult):
        return _outcome(res)
    return ("cost", _cost(res))


def _absent(items, count):
    return [k for k in range(1, U, 89) if k not in items][:count]


def _attach(machine, killed):
    recorder = attach_spans(machine)
    if killed:
        attach_faults(
            machine,
            FaultPlan.kill_disks(killed, num_disks=machine.num_disks).events,
        )
    return recorder


def _seal(machine, recorder, observed):
    s = machine.stats
    return {
        "outcomes": _digest(observed),
        "stats": _digest((
            s.read_ios, s.write_ios, s.blocks_read, s.blocks_written,
            s.retry_ios, s.repair_ios,
        )),
        "spans": _digest([root.to_dict() for root in recorder.roots]),
    }


def _replay_static(case, redundancy, killed):
    machine = ParallelDiskMachine(16 if case == "a" else 8, 16, item_bits=64)
    items = _items(48)
    sd = StaticDictionary.build(
        machine, items, universe_size=U, sigma=SIGMA, case=case,
        redundancy=redundancy, degree=8, seed=3,
    )
    recorder = _attach(machine, killed)
    probes = sorted(items)[:16] + _absent(items, 8)
    random.Random(5).shuffle(probes)
    observed = [_call(sd.lookup, k) for k in probes]
    for i in range(0, len(probes), 6):
        observed.append(_call(sd.batch_lookup, probes[i:i + 6]))
    return _seal(machine, recorder, observed)


def _replay_dynamic(killed):
    machine = ParallelDiskMachine(16, 16, item_bits=64)
    d = DynamicDictionary(
        machine, universe_size=U, capacity=64, sigma=SIGMA, seed=9
    )
    items = _items(40)
    for k, v in sorted(items.items()):
        d.insert(k, v)
    recorder = _attach(machine, killed)
    present = sorted(items)
    fresh = _absent(items, 12)
    observed = [_call(d.lookup, k) for k in present[:10] + fresh[:4]]
    observed.append(_call(d.batch_lookup, present[10:20] + fresh[:3]))
    for k in fresh[4:7] + present[:4]:  # new keys, then updates
        observed.append(_call(d.insert, k, (k * 7) % (1 << SIGMA)))
    for k in present[4:8] + fresh[11:12]:
        observed.append(_call(d.delete, k))
    batch = {k: (k * 3) % (1 << SIGMA) for k in fresh[7:10] + present[8:12]}
    observed.append(_call(d.batch_insert, batch))
    observed.append(_call(d.batch_delete, present[12:16] + fresh[10:11]))
    observed.append(_call(d.batch_lookup, present + fresh))
    observed.append(d.level_occupancy())
    return _seal(machine, recorder, observed)


def _replay_recursive(killed):
    machine = ParallelDiskMachine(24, 16, item_bits=64)
    # Tight buckets spill records to level 1 and the brute-force area, so
    # all three storage shapes carry fragments or records.
    d = RecursiveLoadBalancedDictionary(
        machine, universe_size=U, capacity=64, sigma=SIGMA, degree=8,
        levels=2, stripe_slack=0.5, bucket_slots=2, seed=9,
    )
    items = _items(40)
    for k, v in sorted(items.items()):
        d.insert(k, v)
    recorder = _attach(machine, killed)
    present = sorted(items)
    fresh = _absent(items, 8)
    observed = [_call(d.lookup, k) for k in present[:12] + fresh[:4]]
    for k in fresh[4:8] + present[:6]:  # new keys, then updates
        observed.append(_call(d.insert, k, (k * 7) % (1 << SIGMA)))
    observed += [_call(d.lookup, k) for k in present + fresh]
    observed.append((sorted(d.stats.level_histogram.items()),
                     d.stats.brute_inserts))
    return _seal(machine, recorder, observed)


CONFIGS = {
    "static-a": lambda killed: _replay_static("a", "standard", killed),
    "static-b-standard": lambda killed: _replay_static(
        "b", "standard", killed
    ),
    "static-b-replicate": lambda killed: _replay_static(
        "b", "replicate", killed
    ),
    "dynamic": _replay_dynamic,
    "dynamic-spare-stripe": _replay_dynamic,
    "recursive": _replay_recursive,
}

#: Disks killed per structure: static case 'a' loses one membership disk
#: and one field-array disk, case 'b' one field stripe, the dynamic
#: dictionary one retrieval stripe (its membership group stays up, so
#: updates and deletes reach the chain clears).  First-fit packs chains
#: into the lowest free stripes: every chain crosses stripe 1 (disk 9),
#: and at this occupancy none crosses stripe 6 (disk 14), whose clears
#: see failed fields but leak nothing.  The recursive dictionary reads
#: every level and the brute-force area in one I/O, so its dead level-0
#: disk fails every operation with the same typed error.
KILLED = {
    "static-a": [2, 9],
    "static-b-standard": [3],
    "static-b-replicate": [3],
    "dynamic": [9],
    "dynamic-spare-stripe": [14],
    "recursive": [3],
}

SNAPSHOTS = {
    ("recursive", "healthy"): {
        "outcomes": "a75bd173432b906f",
        "stats": "aba2688e2c52f2c0",
        "spans": "e3dc75ef20f42b41",
    },
    ("recursive", "kill_disks"): {
        "outcomes": "7ab8b5b9c192695e",
        "stats": "47a825f135878334",
        "spans": "ca9c4511e9f52ea3",
    },
    ("dynamic", "healthy"): {
        "outcomes": "a7ecb669ee40241a",
        "stats": "66891a3ae67bb2a7",
        "spans": "566a731642932b23",
    },
    ("dynamic", "kill_disks"): {
        "outcomes": "4bfd1a6e04ce073b",
        "stats": "98a9862454431c56",
        "spans": "f0f832995be19ea8",
    },
    ("dynamic-spare-stripe", "healthy"): {
        "outcomes": "a7ecb669ee40241a",
        "stats": "66891a3ae67bb2a7",
        "spans": "566a731642932b23",
    },
    ("dynamic-spare-stripe", "kill_disks"): {
        "outcomes": "798d167d85cc1faa",
        "stats": "6cd8f7c6459f3fed",
        "spans": "6871c61f0b13ff00",
    },
    ("static-a", "healthy"): {
        "outcomes": "5fa6ebe0e20f6bed",
        "stats": "2466267e1f999019",
        "spans": "4b9b559a8c188e2f",
    },
    ("static-a", "kill_disks"): {
        "outcomes": "64886f83f1627dff",
        "stats": "6aa46cc208c733cb",
        "spans": "a08eee892049cc17",
    },
    ("static-b-replicate", "healthy"): {
        "outcomes": "817e21d353216cf3",
        "stats": "21aab3ed8a2df211",
        "spans": "17f973ac54ab767c",
    },
    ("static-b-replicate", "kill_disks"): {
        "outcomes": "5ed744402991fe4f",
        "stats": "b6edd25367af2832",
        "spans": "5a3aebea04ce169e",
    },
    ("static-b-standard", "healthy"): {
        "outcomes": "4d897ac39d3c45a6",
        "stats": "fb34229bd76b425d",
        "spans": "99a960b5ce477a55",
    },
    ("static-b-standard", "kill_disks"): {
        "outcomes": "fad534d8b948f6a4",
        "stats": "c5cad6d4e6ac2c7f",
        "spans": "296d9cfd81e27f33",
    },
}


@pytest.mark.parametrize("faults", ["healthy", "kill_disks"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_replay_matches_snapshot(config, faults):
    killed = KILLED[config] if faults == "kill_disks" else []
    assert CONFIGS[config](killed) == SNAPSHOTS[(config, faults)]


# -- the basic dictionary's batch mutations ----------------------------------
#
# Seeded, interleaved ``batch_insert`` (new keys, updates, same-value
# updates, keys repeated across batches), ``batch_delete`` (present,
# absent and repeated keys) and ``batch_lookup`` on the Section 4.1
# dictionary.  Besides outcomes, costs, IOStats and spans, each replay
# digests every bucket's contents, ``max_load_seen``, the memory peak,
# and — with a pool — the pool's counters and LRU order, so the greedy
# placements and the dirty-bucket write order are pinned too.  The
# digests were captured from the per-key copy-and-rescan placement loop
# over ``read_buckets``/``read_buckets_degraded`` that the planned-read
# batch mutations replaced.

#: four storage shapes plus ``k = 2`` satellite fragments (over a pool,
#: whose LRU order pins the dirty-bucket write order of multi-bucket keys)
BASIC_CONFIGS = ("healthy", "kill_disks", "pool", "multi-block", "fragments")
BASIC_DISKS = 8
BASIC_B = 8


def _basic_outcome(res):
    if isinstance(res, DegradedLookupError):
        return ("degraded", res.membership, list(res.failures))
    if isinstance(res, DegradedModeError):
        return (
            "refused", res.op, str(res),
            [(loc, type(f).__name__) for loc, f in res.failures.items()],
        )
    if isinstance(res, Exception):
        return ("error", type(res).__name__, str(res))
    return _outcome(res)


def _basic_call(fn, *args):
    try:
        out, cost = fn(*args)
    except Exception as exc:  # a raised error is part of the outcome
        return _basic_outcome(exc)
    return ({k: _basic_outcome(v) for k, v in out.items()}, _cost(cost))


def _replay_basic(config):
    machine = ParallelDiskMachine(
        BASIC_DISKS, BASIC_B, item_bits=64,
        cache_blocks=10 if config in ("pool", "fragments") else None,
    )
    d = BasicDictionary(
        machine, universe_size=U, capacity=96, seed=4, load_slack=1.0,
        bucket_capacity=2 * BASIC_B if config == "multi-block" else None,
        k_fragments=2 if config == "fragments" else 1,
    )
    recorder = attach_spans(machine)
    if config == "kill_disks":
        # Disk 3 is down for a window in the middle of the replay, so
        # batches before, across and after it all run.
        attach_faults(
            machine,
            FaultPlan.kill_disks(
                [3], num_disks=BASIC_DISKS, start=40, end=70
            ).events,
        )
    rng = random.Random(11)
    keys = [(7 + 97 * i) % U for i in range(150)]

    def value(key, variant):
        v = (key * 7 + variant) % (1 << SIGMA)
        return f"v{v:05d}" if config == "fragments" else v

    pool = machine.cache
    observed = []
    lru = []  # the pool's LRU order after every op

    def call(fn, *args):
        observed.append(_basic_call(fn, *args))
        if pool is not None:
            lru.append(pool.cached_addresses())

    for r in range(10):
        batch = {k: value(k, rng.randrange(2)) for k in rng.sample(keys, 28)}
        call(d.batch_insert, batch)
        doomed = rng.sample(keys, 6)
        call(d.batch_delete, doomed + doomed[:2])
        call(d.batch_lookup, rng.sample(keys, 16))
    call(d.batch_lookup, keys)
    sealed = _seal(machine, recorder, observed)
    buckets = d.buckets
    sealed["buckets"] = _digest([
        buckets.peek((s, i))
        for s in range(buckets.stripes)
        for i in range(buckets.stripe_size)
    ])
    sealed["loads"] = _digest(
        (d.size, d.max_load_seen, machine.memory.peak_words)
    )
    if pool is not None:
        sealed["pool"] = _digest((
            sorted(pool.stats.as_dict().items()), lru, pool.dirty_addresses(),
        ))
    return sealed


BASIC_SNAPSHOTS = {
    "healthy": {
        "outcomes": "7329c08d4b41d31f",
        "stats": "499843dcf32173fd",
        "spans": "f32ed78f16853d2c",
        "buckets": "7dadc378125f9a2c",
        "loads": "0bf68a2c9151673d",
    },
    "kill_disks": {
        "outcomes": "d87e79efc63208a4",
        "stats": "f53dc25a95e8176d",
        "spans": "6460ea0f7d21a8cb",
        "buckets": "a3f6293d43e59aad",
        "loads": "3cfbcfd7e970f6d5",
    },
    "pool": {
        "outcomes": "3a75498613afd72a",
        "stats": "3949155b513c3e82",
        "spans": "55edd3b117816151",
        "buckets": "7dadc378125f9a2c",
        "loads": "9894527b5e18a844",
        "pool": "9204f0a674229e18",
    },
    "multi-block": {
        "outcomes": "546b0f7198665795",
        "stats": "b243b1f278fe742c",
        "spans": "ba279e0ffaa3902f",
        "buckets": "dd514e81961f3a37",
        "loads": "9e6e04b2b79be589",
    },
    "fragments": {
        "outcomes": "685829b60e672d72",
        "stats": "68f87c4225627b25",
        "spans": "66efe034e3bf0695",
        "buckets": "ac3335b43b66e5f8",
        "loads": "ecef584ae477792b",
        "pool": "cd2f4c8abf7a2f90",
    },
}


@pytest.mark.parametrize("config", BASIC_CONFIGS)
def test_basic_batch_mutations_match_snapshot(config):
    assert _replay_basic(config) == BASIC_SNAPSHOTS[config]
