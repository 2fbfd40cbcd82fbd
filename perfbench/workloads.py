"""Query pools of the submon benchmark and their seeded batches.

A batch is the list of CLI argument vectors one worker sends to
``submon.cli.main``.  The seed fixes the order of the queries and picks
each query's ``--n`` from a pool within 2% of its centre, so every seed
asks for the same kinds of work in about the same amount and run times
stay comparable across seeds.  ``pool`` lists every query any seed can produce; the
expected outputs in ``expected.json`` are pinned for exactly that list.

The monoids are a trimmed version of the profile the benchmark was
designed around: each workload's batch takes a few seconds on a 2-CPU
machine, so a run repeats it several times and reports medians.
"""

from __future__ import annotations

import random
import shlex

# Idempotent lattices: the paper's closed-form job (spectrum, ogf, count).
# Mixes large automorphism groups (mk:9, mk:4 x chain:1, bool:3) with
# trivial ones (unequal chain products).
SPECTRA_LATTICES = (
    "chain:4 x chain:1",
    "mk:9",
    "chain:5 x chain:1",
    "mk:4 x chain:1",
    "bool:3",
)
SPECTRA_COUNT_N = (96, 98, 100, 102, 104)

# Non-idempotent monoids: exact big-integer walks are the only route.
# cyclic:3 x mk:4 has 18 elements, the enumeration nearest the budget.
WALK_MONOIDS = (
    "cyclic:2 x mk:5",
    "cyclic:2 x chain:3 x chain:1",
    "cyclic:2 x bool:3",
    "cyclic:2 x mk:6",
    "cyclic:3 x mk:4",
)
WALK_N = (196, 198, 200, 202, 204)

# Lattices for saturated transfer systems: one cold query, then two that
# the program's per-lattice caches answer.  Cold queries of similar size
# keep one query from dominating a batch's time.
ST_LATTICES = ("n5", "chain:2 x chain:1", "chain:1 x chain:2", "mk:4", "chain:4", "chain:5")
ST_N = (16, 18, 20, 22, 24)


def _spectra_batch(rng: random.Random) -> list[list[str]]:
    batch = []
    for spec in SPECTRA_LATTICES:
        batch.append(["spectrum", "--monoid", spec])
        batch.append(["ogf", "--monoid", spec])
        batch.append(["count", "--monoid", spec, "--n", str(rng.choice(SPECTRA_COUNT_N))])
    rng.shuffle(batch)
    return batch


def _walks_batch(rng: random.Random) -> list[list[str]]:
    batch = [
        ["count", "--monoid", spec, "--n", str(rng.choice(WALK_N))]
        for spec in WALK_MONOIDS
    ]
    rng.shuffle(batch)
    return batch


def _st_queries(spec: str, n: int) -> list[list[str]]:
    return [
        ["sattr", "--lattice", spec, "--n", str(n)],
        ["verify", "transfer-iso", "--monoid", spec],
        ["sattr", "--lattice", spec, "--list"],
    ]


def _st_batch(rng: random.Random) -> list[list[str]]:
    # Interleave the lattices at random while keeping each lattice's three
    # queries in order, so the cache working set varies with the seed.
    pending = [_st_queries(spec, rng.choice(ST_N)) for spec in ST_LATTICES]
    batch = []
    while pending:
        queue = rng.choice(pending)
        batch.append(queue.pop(0))
        if not queue:
            pending.remove(queue)
    return batch


BATCHES = {
    "lattice-spectra": _spectra_batch,
    "long-walks": _walks_batch,
    "transfer-systems": _st_batch,
}


def batch(workload: str, seed: int) -> list[list[str]]:
    """The queries of one batch of ``workload`` for ``seed``."""
    return BATCHES[workload](random.Random(seed))


def pool(workload: str) -> list[list[str]]:
    """Every query a batch of ``workload`` can contain, for any seed."""
    if workload == "lattice-spectra":
        queries = [
            argv
            for spec in SPECTRA_LATTICES
            for argv in (
                ["spectrum", "--monoid", spec],
                ["ogf", "--monoid", spec],
                *(["count", "--monoid", spec, "--n", str(n)] for n in SPECTRA_COUNT_N),
            )
        ]
    elif workload == "long-walks":
        queries = [
            ["count", "--monoid", spec, "--n", str(n)] for spec in WALK_MONOIDS for n in WALK_N
        ]
    else:
        queries = [
            argv for spec in ST_LATTICES for n in ST_N for argv in _st_queries(spec, n)
        ]
    return list({key(argv): argv for argv in queries}.values())


def key(argv: list[str]) -> str:
    """The shell form of a query, used as its key in ``expected.json``."""
    return shlex.join(argv)
