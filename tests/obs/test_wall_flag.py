"""``--wall``: the tables a timed replay prints account for all of it.

That a timed run changes no deterministic output is
``tests/obs/test_wall_separation.py``.
"""

import pytest

from repro.obs.cli import main
from repro.obs.harness import run_instrumented

U = 1 << 16
SMALL = dict(num_disks=8, block_items=16, universe_size=U, capacity=64,
             operations=80)


@pytest.mark.parametrize(
    "structure, executor, options",
    [
        ("basic", "simulated", {}),
        ("basic", "file", {"cache_blocks": 32}),
        ("dynamic", "simulated", {"batch": 8}),
        ("dynamic", "file", {}),
    ],
)
def test_wall_layer_shares_and_unattributed_sum_to_one(
    structure, executor, options, tmp_path
):
    report = run_instrumented(
        structure, wall=True, executor=executor,
        executor_dir=str(tmp_path / "disks"), **options, **SMALL,
    )
    try:
        rows = report.layer_rows()
        assert rows[-1][0] == "unattributed"
        assert sum(share for _, _, share in rows) == pytest.approx(
            1.0, abs=1e-9
        )
        assert all(share >= 0 for _, _, share in rows)
        assert rows[0][0] == "core" and rows[0][2] > 0
        # one root call per replayed operation (or batch), by op class
        roots = {
            labels["op"]: h.total
            for _, labels, h in report.wall_registry.items()
        }
        if "batch" in options:
            assert set(roots) <= {"batch_lookup", "batch_insert",
                                  "batch_delete"}
            assert sum(roots.values()) == report.summary.batches
        else:
            assert set(roots) <= {"lookup", "insert", "delete"}
            assert sum(roots.values()) == report.summary.operations
    finally:
        report.machine.close()


@pytest.mark.parametrize("executor", ["simulated", "file"])
def test_wall_prints_op_and_layer_tables(executor, capsys):
    rc = main(
        [
            "--structure", "dynamic", "--executor", executor,
            "--disks", "8", "--block", "16",
            "--universe", str(U),
            "--capacity", "64", "--operations", "80",
            "--wall",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "wall latency per op" in out
    assert "wall time per layer" in out
    for label in ("core", "machine", "executors", "fs", "unattributed",
                  "per-disk utilization"):
        assert label in out
    # only the file executor has disk lanes whose busy time means anything
    assert ("fs lane busy share" in out) == (executor == "file")
