"""Checks of the benchmark's own machinery: python3 -m pytest perfbench -q"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_gate_counts_a_wrong_expected_output_as_failed():
    argv = ["count", "--monoid", "chain:1", "--n", "2"]
    code, stdout, _ = worker.run_query(argv)
    right = {workloads.key(argv): {"exit": 0, "sha256": worker.digest(stdout)}}
    wrong_digest = {workloads.key(argv): {"exit": 0, "sha256": worker.digest(stdout + " ")}}
    wrong_exit = {workloads.key(argv): {"exit": 2, "sha256": worker.digest(stdout)}}
    assert worker.check(right, argv, code, stdout) is None
    assert worker.check(wrong_digest, argv, code, stdout) is not None
    assert worker.check(wrong_exit, argv, code, stdout) is not None
    assert worker.check({}, argv, code, stdout) is not None


def test_every_pool_query_is_pinned_with_exit_code_zero():
    expected = worker.json.loads(worker.EXPECTED.read_text(encoding="utf-8"))
    pools = [workloads.key(argv) for name in workloads.BATCHES for argv in workloads.pool(name)]
    assert sorted(pools) == sorted(expected)
    assert all(entry["exit"] == 0 for entry in expected.values())


def test_batches_are_seeded_and_drawn_from_the_pool():
    for name in workloads.BATCHES:
        pool = {workloads.key(argv) for argv in workloads.pool(name)}
        assert workloads.batch(name, 7) == workloads.batch(name, 7)
        assert {workloads.key(argv) for argv in workloads.batch(name, 7)} <= pool


def test_self_times_partition_the_root_span():
    spans = [
        ["cli.main", 0.0, 10.0, None, 0],
        ["transfer.build_transfer_matrix", 1.0, 4.0, 0, 0],
        ["submonoids.enumerate_submonoids", 1.5, 2.0, 1, 0],
        ["trace", 4.0, 4.5, 0, 0],
        ["transfer.count_sequence", 5.0, 9.0, 0, 0],
    ]
    selfs = tracing.self_times(spans)
    assert selfs["cli.self_s"] == 10.0 - 3.0 - 0.5 - 4.0
    assert selfs["transfer.build_self_s"] == 2.5
    assert selfs["transfer.walk_s"] == 4.0
    assert sum(selfs.values()) == 10.0
