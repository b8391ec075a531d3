"""The five end-to-end workloads and the pass that runs one of them.

Every workload drives :class:`repro.core.facade.ParallelDiskDictionary`
from one client thread in a closed loop with zero think time: the next
call is issued as soon as the previous one returns.  All inputs (the
loaded keys, the call stream, the upsert values) come from the seed;
the facade only ever sees the generated calls.

A pass builds a fresh facade and bulk-loads it (timed: ``setup_s``),
replays the first ``warm_calls`` calls of the stream untimed, then times
each of the next ``calls`` calls.  Every pass replays the same stream on
an identically built facade, so its charged I/O repeats exactly.  Every
answer is checked against a Python dict between calls, outside the
timed interval.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random
import shutil
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.facade import ParallelDiskDictionary
from repro.faults.plan import FaultPlan
from repro.pdm.executors import create_executor
from repro.pdm.faults import attach_faults

UNIVERSE = 1 << 20
KEYS = 20_000
DEGREE = 16  # the facade runs D = degree disks in "basic" mode
BLOCK_ITEMS = 32
LOAD_CHUNK = 512
ZIPF_S = 1.1
KILLED_DISKS = (15,)


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the configuration it runs against."""

    name: str
    why: str
    executor: str  # "simulated" or "file"
    api: str  # "single" (lookup/insert) or "batch" (batch_lookup/_insert)
    call_keys: int
    skew: float  # Zipf exponent over the keys; 0 means uniform
    upserts: str  # "none", "share" (20% of calls) or "alternate"
    warm_calls: int
    calls: int  # timed calls per pass
    trace_calls: int  # calls timed by the traced pass
    cache_blocks: Optional[int] = None
    faults: bool = False
    #: streams with the same name and seed are identical call by call
    stream: str = ""

    def scaled(self, divisor: int) -> "Workload":
        """The same workload with every call count divided (``--smoke``)."""
        return replace(
            self,
            warm_calls=max(1, self.warm_calls // divisor),
            calls=max(1, self.calls // divisor),
            trace_calls=max(1, self.trace_calls // divisor),
        )


# Latency percentiles pool the calls of every pass, so a pass need not
# hold 1,000 lookups on its own.  mixed-file makes at most 420 calls per
# facade: on file-backed reads every probed block adds a row to the
# kernel column store, and a facade that passes 2 x 65,536 rows (about
# call 618 with 32-key calls) resets the store in the middle of a batch
# and raises IndexError (see README.md).
WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "read-hot",
        "64-key Zipf batch lookups on the simulated disks: the vectorized "
        "kernel path (neighborhoods, probe plan, planned read, key match)",
        executor="simulated", api="batch", call_keys=64, skew=ZIPF_S,
        upserts="none", warm_calls=200, calls=2000, trace_calls=300,
        stream="zipf64",
    ),
    Workload(
        "read-hot-cached",
        "the read-hot stream with a 1,024-block pool (81% of 1,264 "
        "buckets): the cache filter and the scalar batch body",
        executor="simulated", api="batch", call_keys=64, skew=ZIPF_S,
        upserts="none", warm_calls=200, calls=2000, trace_calls=150,
        cache_blocks=1024, stream="zipf64",
    ),
    Workload(
        "single-key",
        "one lookup (80%) or upsert (20%) per call, uniform: the per-key "
        "reference path with no kernels",
        executor="simulated", api="single", call_keys=1, skew=0.0,
        upserts="share", warm_calls=2000, calls=50000, trace_calls=4000,
        stream="single",
    ),
    Workload(
        "mixed-file",
        "32-key calls alternating batch lookups and batch upserts on the "
        "file executor: writes beside reads through real files",
        executor="file", api="batch", call_keys=32, skew=0.0,
        upserts="alternate", warm_calls=20, calls=400, trace_calls=100,
        stream="mixed32",
    ),
    Workload(
        "degraded",
        "8-key Zipf batch lookups with disk 15 killed: fault triage, "
        "checksum verification and per-key degraded settling",
        executor="simulated", api="batch", call_keys=8, skew=ZIPF_S,
        upserts="none", warm_calls=10, calls=200, trace_calls=40,
        faults=True, stream="zipf8",
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Call:
    op: str  # "lookup" or "upsert"
    keys: Tuple[int, ...]
    values: Tuple[int, ...] = ()


_UNKNOWN = object()  # oracle value of a key whose upsert call raised


def loaded_keys(seed: int) -> List[int]:
    return random.Random(seed).sample(range(UNIVERSE), KEYS)


def make_stream(
    workload: Workload, seed: int, candidates: Sequence[int], length: int
) -> List[Call]:
    """The seeded call stream.  ``candidates`` are the keys calls draw
    from, in load order; Zipf ranks map onto a seeded permutation."""
    rng = random.Random(f"e2e:{seed}:{workload.stream}")
    pool = list(candidates)
    rng.shuffle(pool)
    if workload.skew:
        weights = list(itertools.accumulate(
            1.0 / (rank + 1) ** workload.skew for rank in range(len(pool))
        ))
        total = weights[-1]

        def draw(n: int) -> Tuple[int, ...]:
            return tuple(
                pool[bisect.bisect_left(weights, rng.random() * total)]
                for _ in range(n)
            )
    else:

        def draw(n: int) -> Tuple[int, ...]:
            return tuple(rng.sample(pool, n))

    stream: List[Call] = []
    for i in range(length):
        keys = draw(workload.call_keys)
        if workload.upserts == "alternate":
            upsert = i % 2 == 1
        elif workload.upserts == "share":
            upsert = rng.random() < 0.2
        else:
            upsert = False
        if upsert:
            # Unique per call and key, never a key's loaded value.
            values = tuple(key + (i + 1) * UNIVERSE for key in keys)
            stream.append(Call("upsert", keys, values))
        else:
            stream.append(Call("lookup", keys))
    return stream


@dataclass
class Tally:
    """Outcomes of the calls of one segment of a pass."""

    keys: int = 0
    failed: int = 0
    wrong: int = 0
    failures: Counter = field(default_factory=Counter)

    def fail(self, exc: BaseException, keys: int = 1) -> None:
        self.failed += keys
        self.failures[type(exc).__name__] += keys


@dataclass
class PassResult:
    tally: Tally
    call_ns: List[int]  # per timed call, in stream order
    lookup_ns: List[int]
    upsert_ns: List[int]
    io: Tuple[int, int, int, int]  # read rounds, write rounds, blocks r/w
    memory_peak: int

    @property
    def total_ns(self) -> int:
        return sum(self.call_ns)


@dataclass
class Build:
    facade: ParallelDiskDictionary
    executor: Any
    oracle: Dict[int, Any]
    directory: Optional[str]

    @property
    def machine(self):
        return self.executor.machine


class Runner:
    """Builds facades and replays one workload's stream on them."""

    def __init__(self, workload: Workload, seed: int, scratch: str):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.keys = loaded_keys(seed)
        self._stream: Optional[List[Call]] = None
        self._builds = 0
        self._reported: set = set()  # exception types already printed
        #: wrong answers seen while warming up, over every build
        self.warm_wrong = 0
        #: loaded keys whose only copy sits on a killed disk; lookups of
        #: them are undecidable by design, so the stream leaves them out
        self.undecidable: Optional[int] = None

    # -- set-up -------------------------------------------------------------

    def setup(self) -> Build:
        w = self.workload
        directory = None
        if w.executor == "file":
            directory = os.path.join(self.scratch, f"build-{self._builds}")
            executor = create_executor("file", directory=directory)
        else:
            executor = create_executor("simulated")
        self._builds += 1
        facade = ParallelDiskDictionary(
            universe_size=UNIVERSE, capacity=KEYS, degree=DEGREE,
            block_items=BLOCK_ITEMS, cache_blocks=w.cache_blocks,
            executor=executor,
        )
        build = Build(facade, executor, {}, directory)
        try:
            keys = self.keys
            for start in range(0, len(keys), LOAD_CHUNK):
                chunk = {k: k for k in keys[start : start + LOAD_CHUNK]}
                out, _ = facade.batch_insert(chunk)
                bad = [k for k, r in out.items() if r != (False, None)]
                if bad:
                    raise RuntimeError(f"bulk load failed for key {bad[0]}")
                build.oracle.update(chunk)
            machine = build.machine
            if machine.cache is not None:
                # Measured passes must not pay the load's deferred writes.
                machine.cache.flush(machine)
            if w.faults:
                plan = FaultPlan.kill_disks(
                    KILLED_DISKS, num_disks=machine.num_disks
                )
                attach_faults(machine, plan.events)
        except BaseException:
            self.close(build)
            raise
        return build

    def close(self, build: Build) -> None:
        build.facade.close()
        if build.directory is not None:
            shutil.rmtree(build.directory, ignore_errors=True)

    def stream(self, build: Build) -> List[Call]:
        if self._stream is None:
            candidates = self.keys
            if self.workload.faults:
                lost = self._keys_on(build, KILLED_DISKS)
                self.undecidable = len(lost)
                candidates = [k for k in self.keys if k not in lost]
            w = self.workload
            length = w.warm_calls + max(w.calls, w.trace_calls)
            self._stream = make_stream(w, self.seed, candidates, length)
        return self._stream

    @staticmethod
    def _keys_on(build: Build, disks: Sequence[int]) -> set:
        """Keys stored on ``disks`` (an uncharged audit scan)."""
        machine = build.machine
        found = set()
        for disk, first, count in build.facade.recovery_extents():
            if disk not in disks:
                continue
            for index in range(first, first + count):
                block = machine.peek_at((disk, index))
                for item in (block.payload or ()) if block else ():
                    found.add(item[0])
        return found

    # -- passes --------------------------------------------------------------

    def warm(self, build: Build) -> None:
        tally = Tally()
        for call in self.stream(build)[: self.workload.warm_calls]:
            self._check(build, call, self._issue(build.facade, call), tally)
        self.warm_wrong += tally.wrong

    def measure(self, build: Build, calls: Optional[int] = None) -> PassResult:
        w = self.workload
        stream = self.stream(build)
        segment = stream[w.warm_calls : w.warm_calls + (calls or w.calls)]
        machine = build.machine
        before = machine.stats.snapshot()
        issue = self._issue
        check = self._check
        clock = time.perf_counter_ns
        facade = build.facade
        tally = Tally()
        call_ns: List[int] = []
        lookup_ns: List[int] = []
        upsert_ns: List[int] = []
        for call in segment:
            t0 = clock()
            out = issue(facade, call)
            elapsed = clock() - t0
            call_ns.append(elapsed)
            (lookup_ns if call.op == "lookup" else upsert_ns).append(elapsed)
            check(build, call, out, tally)
        cost = machine.stats.since(before)
        return PassResult(
            tally=tally,
            call_ns=call_ns,
            lookup_ns=lookup_ns,
            upsert_ns=upsert_ns,
            io=(cost.read_ios, cost.write_ios, cost.blocks_read,
                cost.blocks_written),
            memory_peak=machine.memory.peak_words,
        )

    # -- one call --------------------------------------------------------------

    def _issue(self, facade: ParallelDiskDictionary, call: Call) -> Any:
        """Issue one call; an exception it raises is returned, not raised,
        so a failing call never aborts the run."""
        try:
            if self.workload.api == "single":
                key = call.keys[0]
                if call.op == "lookup":
                    return facade.lookup(key)
                return facade.insert(key, call.values[0])
            if call.op == "lookup":
                return facade.batch_lookup(call.keys)
            return facade.batch_insert(dict(zip(call.keys, call.values)))
        except Exception as exc:  # counted per key by _check
            return exc

    def _check(self, build: Build, call: Call, out: Any, tally: Tally) -> None:
        oracle = build.oracle
        n = len(call.keys)
        tally.keys += n
        if isinstance(out, Exception):
            tally.fail(out, n)
            if type(out) not in self._reported:
                self._reported.add(type(out))
                traceback.print_exception(out, file=sys.stderr)
            if call.op == "upsert":
                for key in call.keys:
                    oracle[key] = _UNKNOWN
            return
        if self.workload.api == "single":
            key = call.keys[0]
            if call.op == "lookup":
                self._check_lookup(oracle, key, out, tally)
            else:
                oracle[key] = call.values[0]
            return
        results, _cost = out
        for i, key in enumerate(call.keys):
            result = results.get(key)
            if isinstance(result, Exception):
                tally.fail(result)
            elif call.op == "lookup":
                self._check_lookup(oracle, key, result, tally)
            else:
                old = oracle[key]
                if old is not _UNKNOWN and result != (True, old):
                    tally.wrong += 1
                oracle[key] = call.values[i]

    @staticmethod
    def _check_lookup(oracle, key, result, tally: Tally) -> None:
        expected = oracle[key]
        if result is None or not result.found:
            tally.wrong += 1
        elif expected is _UNKNOWN:
            oracle[key] = result.value
        elif result.value != expected:
            tally.wrong += 1
