"""Parallel disk model (PDM) simulator.

The parallel disk model of Vitter and Shriver [19] has ``D`` storage devices,
each an array of blocks with capacity for ``B`` data items.  One *parallel
I/O* retrieves (or writes) at most one block from (or to) **each** of the
``D`` devices.  The performance of an algorithm is the number of parallel
I/Os it performs.

This package provides:

* :class:`~repro.pdm.machine.ParallelDiskMachine` — the PDM proper.  A batch
  of block requests touching several blocks on the *same* disk is serialised
  into multiple rounds; the charged cost is the maximum per-disk multiplicity.
* :class:`~repro.pdm.machine.ParallelDiskHeadMachine` — the strictly stronger
  parallel disk *head* model of Aggarwal and Vitter [1] (one disk with ``D``
  independent heads): any ``D`` blocks can be touched per I/O, so a batch of
  ``m`` blocks costs ``ceil(m / D)`` rounds.  Section 5 of the paper needs
  this model when the expander at hand is not striped.
* :class:`~repro.pdm.iostats.IOStats` / :class:`~repro.pdm.iostats.OpCost` —
  I/O accounting with snapshots, per-operation deltas and parallel-phase
  combination (sub-dictionaries living on disjoint disk groups execute their
  probes simultaneously, so their costs combine with ``max``, not ``+``).
* :func:`~repro.pdm.spans.span` / :class:`~repro.pdm.spans.SpanRecorder` —
  hierarchical operation spans: named, nestable ``measure`` windows whose
  trees make sequential/parallel composition explicit.  Off by default
  (one ``None`` check); the ``repro.obs`` layer consumes them for metrics,
  bound monitoring and trace export.
* :class:`~repro.pdm.memory.InternalMemory` — word-granular accounting of
  internal memory (the paper assumes capacity for ``O(log n)`` keys, and
  Section 5 trades ``O(N^beta)`` words of internal memory for explicitness).
* :class:`~repro.pdm.cache.BufferPool` — the M-bounded deterministic
  write-back block cache (``⌊M/B⌋`` blocks charged against
  :class:`~repro.pdm.memory.InternalMemory`): hits cost zero I/Os, misses
  fetch-and-fill, dirty blocks flush as ordinary charged writes.  Off by
  default (one ``None`` check); enable with ``cache_blocks=N`` on the
  machine or :func:`~repro.pdm.cache.attach_cache`.
* :class:`~repro.pdm.striping.StripedFieldArray` — an array of sub-block
  *fields* laid out in ``d`` stripes, one stripe per disk, so that reading
  one field per stripe is a single parallel I/O.  This is the storage layout
  beneath every dictionary in Section 4.
* :class:`~repro.pdm.superblocks.SuperblockArray` — the disks "considered
  as a single disk with block size BD" (Section 1.1): the layout beneath
  the hashing baselines, the pointer store and the B-tree.
* :mod:`~repro.pdm.executors` — the pluggable physical backend seam:
  round planning and charging stay in the machine, while a
  :class:`~repro.pdm.executors.base.RoundExecutor` moves the bytes — the
  default in-memory :class:`~repro.pdm.executors.base.SimulatedExecutor`
  or a thread-per-disk real-file backend, bit-identical in charged
  accounting (see ``docs/executors.md``).
* :mod:`~repro.pdm.faults` / :mod:`~repro.pdm.errors` — deterministic fault
  injection (disk outages, transient read errors, silent corruption,
  stragglers, all scheduled by logical round) plus the typed
  :class:`~repro.pdm.errors.IOFault` taxonomy and per-block checksums.
  Off by default (one ``None`` check); schedules come from the
  ``repro.faults`` package.
"""

from repro.pdm.block import Block, BlockOverflowError, payload_fingerprint
from repro.pdm.cache import (
    BufferPool,
    CacheStats,
    attach_cache,
    detach_cache,
    max_cache_blocks,
)
from repro.pdm.disk import Disk
from repro.pdm.errors import (
    BlockCorruption,
    DiskFailure,
    IOFault,
    TransientIOError,
)
from repro.pdm.executors import (
    EXECUTOR_NAMES,
    RoundExecutor,
    SimulatedExecutor,
    create_executor,
)
from repro.pdm.faults import (
    DiskOutage,
    FaultInjector,
    FaultyDisk,
    SilentCorruption,
    StragglerWindow,
    TransientWindow,
    attach_faults,
    detach_faults,
)
from repro.pdm.iostats import IOStats, OpCost, measure
from repro.pdm.machine import (
    AbstractDiskMachine,
    ParallelDiskMachine,
    ParallelDiskHeadMachine,
)
from repro.pdm.memory import InternalMemory, InternalMemoryExceeded
from repro.pdm.spans import (
    Span,
    SpanHandle,
    SpanRecorder,
    attach_spans,
    detach_spans,
    span,
)
from repro.pdm.striping import StripedFieldArray, StripedItemBuckets
from repro.pdm.superblocks import SuperblockArray

__all__ = [
    "Block",
    "BlockOverflowError",
    "payload_fingerprint",
    "Disk",
    "IOFault",
    "DiskFailure",
    "TransientIOError",
    "BlockCorruption",
    "DiskOutage",
    "TransientWindow",
    "SilentCorruption",
    "StragglerWindow",
    "FaultyDisk",
    "FaultInjector",
    "attach_faults",
    "detach_faults",
    "IOStats",
    "OpCost",
    "measure",
    "Span",
    "SpanHandle",
    "SpanRecorder",
    "span",
    "attach_spans",
    "detach_spans",
    "AbstractDiskMachine",
    "ParallelDiskMachine",
    "ParallelDiskHeadMachine",
    "EXECUTOR_NAMES",
    "RoundExecutor",
    "SimulatedExecutor",
    "create_executor",
    "InternalMemory",
    "InternalMemoryExceeded",
    "BufferPool",
    "CacheStats",
    "attach_cache",
    "detach_cache",
    "max_cache_blocks",
    "StripedFieldArray",
    "StripedItemBuckets",
    "SuperblockArray",
]
