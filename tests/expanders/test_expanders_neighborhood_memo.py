"""The charged neighborhood memo: the only cache of a striped graph's Γ.

Two properties:

* every dictionary that reads a striped graph pays for a cached
  neighborhood — a scalar lookup of a new key charges ``d + 1`` words of
  internal memory per graph it reads, on the static (case 'b'), dynamic
  and recursive dictionaries alike;
* the batch forms leave the memo exactly as per-key ``striped()`` calls
  would: the same contents, charged words, resets and freeze, also when
  the batch crosses a wholesale reset or runs out of memory.
"""

from __future__ import annotations

import pytest

from repro.core.dynamic_dict import DynamicDictionary
from repro.core.recursive_dict import RecursiveLoadBalancedDictionary
from repro.core.static_dict import StaticDictionary
from repro.expanders.neighborhoods import NeighborhoodMemo
from repro.expanders.random_graph import SeededRandomExpander
from repro.kernels import create_kernel
from repro.pdm import InternalMemory
from repro.pdm.machine import ParallelDiskMachine

U = 1 << 16
SIGMA = 16

KERNELS = ["python"]
try:
    create_kernel("numpy")
    KERNELS.append("numpy")
except ImportError:  # pragma: no cover - numpy is present in CI
    pass


def _items(n):
    return {(7 + 97 * i) % U: (31 * i) % (1 << SIGMA) for i in range(n)}


def _absent(items, count):
    return [k for k in range(1, U, 89) if k not in items][:count]


def _static_b():
    machine = ParallelDiskMachine(8, 16, item_bits=64)
    items = _items(48)
    sd = StaticDictionary.build(
        machine, items, universe_size=U, sigma=SIGMA, case="b", degree=8,
        seed=3,
    )
    return machine, sd, items, 1  # reads its one graph


def _dynamic():
    machine = ParallelDiskMachine(16, 16, item_bits=64)
    d = DynamicDictionary(
        machine, universe_size=U, capacity=64, sigma=SIGMA, seed=9
    )
    items = _items(40)
    for k, v in sorted(items.items()):
        d.insert(k, v)
    # An absent key reads the membership graph and the level-0 graph.
    return machine, d, items, 2


def _recursive():
    machine = ParallelDiskMachine(24, 16, item_bits=64)
    d = RecursiveLoadBalancedDictionary(
        machine, universe_size=U, capacity=64, sigma=SIGMA, degree=8,
        levels=2, seed=9,
    )
    items = _items(40)
    for k, v in sorted(items.items()):
        d.insert(k, v)
    return machine, d, items, 2  # reads both level graphs


@pytest.mark.parametrize(
    "build", [_static_b, _dynamic, _recursive],
    ids=["static-b", "dynamic", "recursive"],
)
def test_scalar_lookup_charges_every_graph_read(build):
    machine, d, items, graphs_read = build()
    assert machine.memory.capacity_words is None  # unbounded machine
    fresh = _absent(items, 6)
    before = machine.memory.used_words
    for key in fresh:
        assert not d.lookup(key).found
    charged = machine.memory.used_words - before
    assert charged == len(fresh) * graphs_read * (d.degree + 1)
    # A second lookup of the same keys is served from the memos.
    for key in fresh:
        d.lookup(key)
    assert machine.memory.used_words - before == charged


# -- batch forms against per-key striped() -------------------------------------

GRAPH = SeededRandomExpander(left_size=U, degree=6, stripe_size=97, seed=4)
WORDS = GRAPH.degree + 1
#: three batches with repeats inside and across them
BATCHES = [
    [5, 9, 5, 300, 77, 1000, 9],
    [77, 4242, 5, 60000, 12, 13, 14, 300],
    [1, 2, 3, 4242, 4, 5, 6, 7, 8],
]


def _memo(max_keys, memory_words):
    memory = InternalMemory(memory_words)
    return NeighborhoodMemo(GRAPH, memory=memory, max_keys=max_keys), memory


def _state(memo, memory):
    return (
        dict(memo._tuples),
        memo.charged_words,
        memo.resets,
        memo.frozen,
        memory.used_words,
        memory.peak_words,
    )


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "max_keys, memory_words, resets, frozen",
    [
        (None, None, False, False),  # everything fits
        (4, None, True, False),  # wholesale resets in mid-batch
        (64, 5 * WORDS + 3, False, True),  # memory runs out: it freezes
    ],
    ids=["roomy", "mid-batch-reset", "freeze"],
)
@pytest.mark.parametrize("form", ["batch_local_indices", "batch_striped"])
def test_batch_forms_match_per_key_calls(
    kernel, max_keys, memory_words, resets, frozen, form
):
    kern = create_kernel(kernel)
    scalar, scalar_memory = _memo(max_keys, memory_words)
    batched, batched_memory = _memo(max_keys, memory_words)
    for keys in BATCHES:
        expected = [scalar.striped(key) for key in keys]
        if form == "batch_local_indices":
            flat = batched.batch_local_indices(keys, kernel=kern)
            d = GRAPH.degree
            got = [
                tuple(enumerate(flat[p * d : (p + 1) * d]))
                for p in range(len(keys))
            ]
        else:
            out = batched.batch_striped(keys, kernel=kern)
            got = [out[key] for key in keys]
        assert got == expected
        assert _state(batched, batched_memory) == _state(
            scalar, scalar_memory
        )
    assert (scalar.resets > 0, scalar.frozen) == (resets, frozen)
