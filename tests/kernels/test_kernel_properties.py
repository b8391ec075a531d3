"""Property suite: every kernel backend equals the scalar path, element
for element.

The batch kernels (:mod:`repro.kernels`) are only allowed to change the
clock, never an answer — so each op is pinned here against the *scalar*
code it replaces (the seeded expander's neighbor formula, the batch
planner's ``dict.fromkeys`` dedup, the per-bucket key scan) under
Hypothesis-generated inputs, for every available backend.  The
differential suite (``test_kernel_differential.py``) covers the
dictionaries end to end; this file covers the ops in isolation, where
shrinking is sharpest.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits.stream import MixStream
from repro.expanders.random_graph import SeededRandomExpander
from repro.kernels import create_kernel

_MASK64 = (1 << 64) - 1

BACKENDS = [create_kernel("python")]
try:
    BACKENDS.append(create_kernel("numpy"))
except ImportError:  # pragma: no cover - numpy is present in CI
    pass


def pytest_generate_tests(metafunc):
    if "kernel" in metafunc.fixturenames:
        metafunc.parametrize(
            "kernel", BACKENDS, ids=[k.name for k in BACKENDS]
        )


u64 = st.integers(min_value=0, max_value=_MASK64)
small = st.integers(min_value=0, max_value=1 << 20)
#: left vertices of the 2^62-vertex test expanders
vertex = st.integers(min_value=0, max_value=(1 << 62) - 1)


# -- the workload stream -----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=u64,
    tag=u64,
    count=st.integers(min_value=0, max_value=100),
)
def test_mixstream_fill_matches_next64(seed, tag, count):
    filled = MixStream(seed, tag)
    stepped = MixStream(seed, tag)
    assert list(filled.fill(count)) == [
        stepped.next64() for _ in range(count)
    ]
    # The counter advanced identically: the streams stay in lockstep.
    assert filled.next64() == stepped.next64()


# -- expander neighborhoods ---------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=small,
    degree=st.integers(min_value=1, max_value=8),
    stripe_size=st.integers(min_value=1, max_value=1 << 16),
    keys=st.lists(vertex, max_size=40),
)
def test_stripe_local_indices_matches_expander(
    kernel, seed, degree, stripe_size, keys
):
    graph = SeededRandomExpander(
        left_size=1 << 62,
        degree=degree,
        stripe_size=stripe_size,
        seed=seed,
    )
    out = kernel.stripe_local_indices(
        graph._base, degree, stripe_size, keys
    )
    assert isinstance(out, array) and out.typecode == "I"
    expected = []
    for x in keys:
        expected.extend(j for _, j in graph.striped_neighbors(x))
    assert list(out) == expected


# -- probe planning -----------------------------------------------------------


@st.composite
def probe_plans(draw):
    stripes = draw(st.integers(min_value=1, max_value=8))
    nkeys = draw(st.integers(min_value=0, max_value=30))
    bases = draw(
        st.lists(
            st.integers(min_value=0, max_value=1 << 20),
            min_size=stripes, max_size=stripes,
        )
    )
    locals_flat = array("I", draw(
        st.lists(
            st.integers(min_value=0, max_value=1 << 12),
            min_size=nkeys * stripes, max_size=nkeys * stripes,
        )
    ))
    disk_offset = draw(st.integers(min_value=0, max_value=64))
    return locals_flat, stripes, bases, disk_offset


@settings(max_examples=80, deadline=None)
@given(plan=probe_plans())
def test_plan_unique_probe_matches_scalar_dedup(kernel, plan):
    locals_flat, stripes, bases, disk_offset = plan
    unique, max_per_disk, inverse = kernel.plan_unique_probe(
        locals_flat, stripes, bases, disk_offset
    )

    # The scalar path's address stream, in flat order.
    addrs = []
    for k in range(len(locals_flat) // stripes):
        for i in range(stripes):
            addrs.append(
                (disk_offset + i,
                 bases[i] + locals_flat[k * stripes + i])
            )

    assert unique == list(dict.fromkeys(addrs))
    per_disk: dict = {}
    for disk, _ in unique:
        per_disk[disk] = per_disk.get(disk, 0) + 1
    assert max_per_disk == max(per_disk.values(), default=0)
    # The inverse maps every flat position back to its own address.
    inv = list(inverse)
    assert len(inv) == len(addrs)
    assert [unique[i] for i in inv] == addrs


# -- batch key matching -------------------------------------------------------


@st.composite
def match_cases(draw):
    """A store of key columns plus queries with distinct candidate
    columns each — the striped-layout contract of ``match_candidates``."""
    width = draw(st.integers(min_value=1, max_value=6))
    ncols = draw(st.integers(min_value=1, max_value=10))
    key_pool = st.integers(min_value=0, max_value=(1 << 64) - 2)
    payloads = [
        [
            (draw(key_pool), draw(st.integers(0, 3)), None)
            for _ in range(draw(st.integers(min_value=0, max_value=width)))
        ]
        for _ in range(ncols)
    ]
    degree = draw(st.integers(min_value=1, max_value=min(4, ncols)))
    queries = draw(
        st.lists(key_pool, max_size=8, unique=True)
    )
    candidates = [
        draw(
            st.lists(
                st.integers(min_value=0, max_value=ncols - 1),
                min_size=degree, max_size=degree, unique=True,
            )
        )
        for _ in queries
    ]
    return width, payloads, queries, candidates


@settings(max_examples=80, deadline=None)
@given(case=match_cases())
def test_match_candidates_matches_brute_force(kernel, case):
    width, payloads, queries, candidates = case
    store = kernel.new_column_store(width)
    rows = [kernel.store_column(store, p) for p in payloads]
    inverse = [ci for cols in candidates for ci in cols]

    expected = []
    for qi, (key, cols) in enumerate(zip(queries, candidates)):
        for ci in cols:
            for slot, item in enumerate(payloads[ci]):
                if item[0] == key:
                    expected.append((qi, ci, slot))

    got = kernel.match_candidates(store, rows, inverse, queries)
    assert got == expected


def test_store_rows_are_stable_across_growth(kernel):
    """Row handles stay valid after the store grows past its initial
    allocation (the numpy matrix doubles; handles must not move)."""
    store = kernel.new_column_store(2)
    payloads = [[(k, 0, None)] for k in range(600)]
    rows = [kernel.store_column(store, p) for p in payloads]
    queries = [17, 421]
    matches = kernel.match_candidates(
        store, rows, [rows[17], rows[421]], queries
    )
    assert matches == [(0, 17, 0), (1, 421, 0)]


def test_empty_payload_columns_match_nothing(kernel):
    store = kernel.new_column_store(3)
    rows = [
        kernel.store_column(store, None),
        kernel.store_column(store, []),
        kernel.store_column(store, [(5, 1, None)]),
    ]
    assert kernel.match_candidates(store, rows, [0, 1, 2], [5]) == [
        (0, 2, 0)
    ]


@pytest.mark.skipif(len(BACKENDS) < 2, reason="numpy backend unavailable")
@settings(max_examples=40, deadline=None)
@given(plan=probe_plans())
def test_backends_agree_on_plan(plan):
    ref, vec = BACKENDS[0], BACKENDS[-1]
    a = ref.plan_unique_probe(*plan)
    b = vec.plan_unique_probe(*plan)
    assert a[0] == b[0]
    assert a[1] == b[1]
    assert list(a[2]) == list(b[2])


@settings(max_examples=80, deadline=None)
@given(case=match_cases(), cut=st.integers(min_value=0, max_value=12))
def test_store_columns_matches_store_column(kernel, case, cut):
    """Storing a batch of columns in one call (two here) gives the rows,
    and the matches, of one call per column."""
    width, payloads, queries, candidates = case
    single = kernel.new_column_store(width)
    rows = [kernel.store_column(single, p) for p in payloads]
    batched = kernel.new_column_store(width)
    cut = min(cut, len(payloads))
    batch_rows = list(kernel.store_columns(batched, payloads[:cut])) + list(
        kernel.store_columns(batched, payloads[cut:])
    )
    assert batch_rows == rows
    inverse = [ci for cols in candidates for ci in cols]
    assert kernel.match_candidates(
        batched, batch_rows, inverse, queries
    ) == kernel.match_candidates(single, rows, inverse, queries)


def test_store_columns_grows_past_the_initial_allocation(kernel):
    store = kernel.new_column_store(2)
    kernel.store_columns(store, [None, [], None])
    rows = kernel.store_columns(store, [[(k, 0, None)] for k in range(600)])
    assert list(rows) == list(range(3, 603))
    assert kernel.match_candidates(
        store, [rows[17], rows[421]], [0, 1], [17, 421]
    ) == [(0, 0, 0), (1, 1, 0)]
