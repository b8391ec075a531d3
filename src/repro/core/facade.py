"""User-facing facade: pick a mode, get a dictionary with sane defaults.

``ParallelDiskDictionary`` owns its machine(s) and wires together the
paper's constructions:

* ``mode="basic"`` — §4.1: O(1) worst-case lookups and updates, one-probe
  lookups when ``B = Omega(log N)`` (which the default geometry ensures);
* ``mode="full-bandwidth"`` — §4.3: ``sigma``-bit satellite records,
  unsuccessful searches in 1 I/O, successful in ``1 + ɛ`` average;
* ``unbounded=True`` — wraps the chosen structure in global rebuilding so
  the capacity grows as needed (each generation gets a fresh machine, the
  paper's constant-factor extra disks).

For the static one-probe structure use
:meth:`repro.core.static_dict.StaticDictionary.build` directly — it needs
the full key set up front.
"""

from __future__ import annotations

import math
from typing import Any, Optional

import os

from repro.core.basic_dict import BasicDictionary
from repro.core.dynamic_dict import DynamicDictionary
from repro.core.interface import Dictionary, LookupResult
from repro.core.rebuilding import RebuildingDictionary
from repro.pdm.executors import EXECUTOR_NAMES, create_executor
from repro.pdm.executors.base import RoundExecutor
from repro.pdm.iostats import IOStats, OpCost
from repro.pdm.machine import ParallelDiskMachine


class ParallelDiskDictionary(Dictionary):
    """Convenience wrapper with paper-faithful defaults."""

    MODES = ("basic", "full-bandwidth", "one-probe-recursive", "head-model")

    def __init__(
        self,
        *,
        universe_size: int,
        capacity: int = 1024,
        mode: str = "basic",
        sigma: int = 64,
        block_items: int = 64,
        degree: Optional[int] = None,
        unbounded: bool = False,
        seed: int = 0,
        cache_blocks: Optional[int] = None,
        executor: Any = None,
        executor_dir: Optional[str] = None,
        executor_options: Optional[dict] = None,
    ):
        """``executor`` selects the physical backend for every machine the
        facade creates (:mod:`repro.pdm.executors`): ``None`` for the
        in-memory simulator, an executor *name* (``"simulated"`` or
        ``"file"``; ``"file"`` puts per-machine subdirectories in the
        required ``executor_dir`` and passes ``executor_options``
        through), a zero/one-argument *factory* called per machine, or a
        ready ``RoundExecutor`` *instance* (single-machine facades only —
        executors bind once).
        File-backed facades must be :meth:`close`\\ d before their
        directory goes away.
        """
        if mode not in self.MODES:
            raise ValueError(
                f"mode must be one of {self.MODES}, got {mode!r}"
            )
        self.universe_size = universe_size
        self.mode = mode
        self.seed = seed
        #: buffer-pool size in blocks for every machine this facade creates
        #: (``None`` = uncached; see :mod:`repro.pdm.cache`)
        self.cache_blocks = cache_blocks
        # The paper's D = Omega(log u): default degree 2*ceil(log2 u),
        # at least 8.
        if degree is None:
            degree = max(8, 2 * math.ceil(math.log2(max(universe_size, 2))))
        self.degree = degree
        self.block_items = block_items
        self.sigma = sigma
        self._machines = []
        if isinstance(executor, str):
            if executor not in EXECUTOR_NAMES:
                raise ValueError(
                    f"unknown executor {executor!r}; choose from "
                    f"{EXECUTOR_NAMES}"
                )
            if executor != "simulated" and executor_dir is None:
                raise ValueError(
                    f"executor {executor!r} needs executor_dir"
                )
        elif executor_dir is not None or executor_options:
            raise ValueError(
                "executor_dir/executor_options only apply when executor "
                "is selected by name"
            )

        def new_executor() -> Optional[RoundExecutor]:
            if executor is None:
                return None
            if isinstance(executor, RoundExecutor):
                return executor  # binds once; rebuilds need a factory
            if isinstance(executor, str):
                if executor == "simulated":
                    return create_executor("simulated")
                # One subdirectory per machine: generations of an
                # unbounded dictionary each get a fresh physical image.
                sub = os.path.join(
                    str(executor_dir), f"m{len(self._machines):03d}"
                )
                return create_executor(
                    executor, directory=sub, **(executor_options or {})
                )
            return executor()  # factory

        def make(cap: int, generation: int) -> Dictionary:
            inner_seed = seed + 1000 * generation
            if mode == "basic":
                machine = ParallelDiskMachine(
                    degree, block_items, cache_blocks=cache_blocks,
                    executor=new_executor(),
                )
                self._machines.append(machine)
                return BasicDictionary(
                    machine,
                    universe_size=universe_size,
                    capacity=cap,
                    degree=degree,
                    seed=inner_seed,
                )
            if mode == "full-bandwidth":
                machine = ParallelDiskMachine(
                    2 * degree, block_items, cache_blocks=cache_blocks,
                    executor=new_executor(),
                )
                self._machines.append(machine)
                return DynamicDictionary(
                    machine,
                    universe_size=universe_size,
                    capacity=cap,
                    sigma=sigma,
                    degree=degree,
                    seed=inner_seed,
                )
            if mode == "one-probe-recursive":
                from repro.core.recursive_dict import (
                    RecursiveLoadBalancedDictionary,
                )

                levels = 2
                machine = ParallelDiskMachine(
                    (levels + 1) * degree, block_items,
                    cache_blocks=cache_blocks,
                    executor=new_executor(),
                )
                self._machines.append(machine)
                return RecursiveLoadBalancedDictionary(
                    machine,
                    universe_size=universe_size,
                    capacity=cap,
                    sigma=sigma,
                    degree=degree,
                    levels=levels,
                    seed=inner_seed,
                )
            # mode == "head-model"
            from repro.core.head_model_dict import HeadModelDictionary
            from repro.pdm.machine import ParallelDiskHeadMachine

            machine = ParallelDiskHeadMachine(
                degree, block_items, cache_blocks=cache_blocks,
                executor=new_executor(),
            )
            self._machines.append(machine)
            return HeadModelDictionary(
                machine,
                universe_size=universe_size,
                capacity=cap,
                degree=degree,
                seed=inner_seed,
            )

        if unbounded:
            self._inner: Dictionary = RebuildingDictionary(
                make, initial_capacity=capacity
            )
        else:
            self._inner = make(capacity, 0)

    # -- delegation -------------------------------------------------------------

    def lookup(self, key: int) -> LookupResult:
        return self._inner.lookup(key)

    def insert(self, key: int, value: Any = None) -> OpCost:
        return self._inner.insert(key, value)

    def delete(self, key: int) -> OpCost:
        return self._inner.delete(key)

    def batch_lookup(self, keys):
        return self._inner.batch_lookup(keys)

    def batch_insert(self, items):
        return self._inner.batch_insert(items)

    def batch_delete(self, keys):
        return self._inner.batch_delete(keys)

    def stored_keys(self):
        return self._inner.stored_keys()  # type: ignore[attr-defined]

    def recovery_extents(self):
        return self._inner.recovery_extents()

    def reconstruct_block(self, addr):
        return self._inner.reconstruct_block(addr)

    def reconstruct_round_bound(self):
        return self._inner.reconstruct_round_bound()

    def __len__(self) -> int:
        return len(self._inner)  # type: ignore[arg-type]

    def close(self) -> None:
        """Close every machine ever created (releasing executor-held
        threads and file descriptors).  A no-op for simulated backends;
        file-backed facades must be closed before their ``executor_dir``
        goes away.  Idempotent."""
        for machine in self._machines:
            machine.close()

    def __enter__(self) -> "ParallelDiskDictionary":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- accounting ---------------------------------------------------------------

    def io_stats(self) -> IOStats:
        """Aggregate cumulative I/O over every machine ever created."""
        total = IOStats()
        for machine in self._machines:
            s = machine.stats
            total.read_ios += s.read_ios
            total.write_ios += s.write_ios
            total.blocks_read += s.blocks_read
            total.blocks_written += s.blocks_written
        return total

    @property
    def num_disks(self) -> int:
        return sum(m.num_disks for m in self._machines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelDiskDictionary(mode={self.mode!r}, n={len(self)}, "
            f"d={self.degree}, disks={self.num_disks})"
        )
