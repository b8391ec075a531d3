"""Shared fixtures: machines and expanders at test-friendly sizes."""

from __future__ import annotations

import pytest

import repro.pdm.block as block_module
from repro.expanders.random_graph import SeededRandomExpander
from repro.pdm.machine import ParallelDiskHeadMachine, ParallelDiskMachine

UNIVERSE = 1 << 16


@pytest.fixture
def machine() -> ParallelDiskMachine:
    """8 disks x 16-item blocks x 64-bit items."""
    return ParallelDiskMachine(8, 16, item_bits=64)


@pytest.fixture
def wide_machine() -> ParallelDiskMachine:
    """32 disks x 32-item blocks (for two-group dictionary layouts)."""
    return ParallelDiskMachine(32, 32, item_bits=64)


@pytest.fixture
def head_machine() -> ParallelDiskHeadMachine:
    return ParallelDiskHeadMachine(8, 16, item_bits=64)


@pytest.fixture
def graph() -> SeededRandomExpander:
    """A 16-regular striped graph over a 2^16 universe."""
    return SeededRandomExpander(
        left_size=UNIVERSE, degree=16, stripe_size=128, seed=42
    )


@pytest.fixture
def small_graph() -> SeededRandomExpander:
    """Tiny graph for exhaustive checks."""
    return SeededRandomExpander(left_size=64, degree=6, stripe_size=8, seed=7)


@pytest.fixture
def fingerprints(monkeypatch):
    """Count the calls of ``repro.pdm.block.payload_fingerprint`` (the
    whole cost of a seal or a full verify): ``len(fingerprints)``."""
    calls = []
    real = block_module.payload_fingerprint

    def counting(payload, used_bits):
        calls.append(used_bits)
        return real(payload, used_bits)

    monkeypatch.setattr(block_module, "payload_fingerprint", counting)
    return calls
