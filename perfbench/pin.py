"""Pin the expected exit code and stdout digest of every pool query.

Usage: python3 perfbench/pin.py

Runs every query that any seed of any workload can produce against the
checkout's ``src`` and writes ``perfbench/expected.json``.  The pinned
file was made from the seed commit's code; CLI output is meant to stay
byte-identical, so re-pinning is only for a deliberate output change.
"""

from __future__ import annotations

import json

import worker
import workloads


def main() -> None:
    expected = {}
    for workload in workloads.BATCHES:
        for argv in workloads.pool(workload):
            code, stdout, _ = worker.run_query(argv)
            expected[workloads.key(argv)] = {"exit": code, "sha256": worker.digest(stdout)}
    worker.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
