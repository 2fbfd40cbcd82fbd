"""The ladder: time and peak RSS of each stage of the count path, rung by rung.

Each rung is one monoid, run in a fresh interpreter that writes no
bytecode and pins itself (its own process only) to the allowed CPU on
which the calibration loop runs fastest at its start, with
``perfbench/run.py``'s ``pin_fastest_cpu``.  It times five stages
through the public API:

- ``build``: ``build_transfer_matrix``, the enumeration, Aut(M) and the
  orbits;
- ``quotient``: ``matrix.quotient``, the lumped quotient;
- ``count``: ``count_sequence(matrix, 30)``, what ``count --n 30`` runs;
- ``solve``: ``walk_counts(matrix, D)``, the solve to D;
- ``tail``: ``count_sequence(matrix, D + TAIL)``, once
  ``matrix.solved`` has been read untimed: the terms past D extended
  from the solved terms' seeds, what ``count --n N`` runs for N >= D.

After each stage it reads the peak RSS so far.  It also reports k, the
orbits, the classes, the quotient's nonzeros, D, and ``quotient_mb``,
the memory the kept quotient takes (``sys.getsizeof`` over its tuples,
arrays and ints, each object once), and the CPU it ran on.  Every time
is also given scaled to a reference CPU speed by ``perfbench/speed.py``'s
calibration loop, run before and after the stages; both perfbench files
are imported and not changed.

Each rung runs ``REPEATS`` times, the rungs taking turns, and the
output gives, per stage, the median and quartiles of the scaled times,
the median peak RSS and every run.  With ``--baseline DIR``, each run
of a rung is followed by one on the package of the checkout DIR, and
the output gives that tree's numbers under ``baseline``.  Run it from
the repository root::

    python tests/ladder.py --out BENCH_31.json --baseline ../parent-checkout

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RUNGS = (
    "chain:5 x chain:1",
    "bool:4",
    "chain:3 x chain:3",
    "chain:2 x chain:2 x chain:1",
    "chain:2 x chain:5",
    "chain:4 x chain:3",
    "chain:1 x chain:9",
    "mk:16",
    "chain:17",
)
STAGES = ("build", "quotient", "count", "solve", "tail")
# How far past D the tail stage counts.
TAIL = 200
REPEATS = 5


def _kept_bytes(obj, seen: set) -> int:
    """The bytes of ``obj`` and of every tuple, array and int inside it,
    each counted once; the ints that CPython shares are not counted."""
    if id(obj) in seen or type(obj) is int and -5 <= obj <= 256:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if type(obj) is tuple:
        size += sum(_kept_bytes(item, seen) for item in obj)
    return size


def _nonzeros(row) -> int:
    """A quotient row's nonzeros: its weights, the diagonal among them,
    or its pairs where a row is (column, weight) pairs, as it was before
    the quotient was stored in arrays; the ladder runs on both."""
    return len(row) if type(row[0]) is tuple else len(row[1])


def _rung(spec: str, src: Path) -> dict:
    """One run of one rung, in this process, on the package under ``src``."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from run import pin_fastest_cpu
    from speed import REFERENCE_S, calibrate

    cpu, _ = pin_fastest_cpu()

    from submon.monoid import from_spec
    from submon.transfer import build_transfer_matrix, count_sequence, walk_counts

    stages = {}

    def timed(stage, work):
        start = time.perf_counter()
        result = work()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        stages[stage] = {"s": time.perf_counter() - start, "peak_rss_mb": peak_mb}
        return result

    calibration = [calibrate() for _ in range(5)]
    monoid = from_spec(spec)
    matrix = timed("build", lambda: build_transfer_matrix(monoid))
    timed("quotient", lambda: matrix.quotient)
    timed("count", lambda: count_sequence(matrix, 30))
    timed("solve", lambda: walk_counts(matrix, len(matrix.roots)))
    matrix.solved  # built untimed, so the tail stage times only the extension
    timed("tail", lambda: count_sequence(matrix, len(matrix.roots) + TAIL))
    calibration += [calibrate() for _ in range(5)]
    factor = REFERENCE_S / statistics.median(calibration)
    for stage in stages.values():
        stage["scaled_s"] = stage["s"] * factor
    rows, sizes = matrix.quotient
    return {
        "k": matrix.size,
        "orbits": len(matrix.orbits.reps),
        "classes": len(rows),
        "nonzeros": sum(map(_nonzeros, rows)),
        "D": len(matrix.roots),
        "quotient_mb": _kept_bytes(matrix.quotient, set()) / 2**20,
        "scale": factor,
        "cpu": cpu,
        "stages": stages,
    }


def _quartiles(values) -> list[float]:
    """The first quartile, the median and the third quartile."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _summary(spec: str, runs: list[dict]) -> dict:
    first = runs[0]
    stages = {}
    for stage in STAGES:
        q1, median, q3 = _quartiles([run["stages"][stage]["scaled_s"] for run in runs])
        stages[stage] = {
            "scaled_s": median,
            "scaled_s_quartiles": [q1, q3],
            "peak_rss_mb": statistics.median(run["stages"][stage]["peak_rss_mb"] for run in runs),
        }
    counts = {key: first[key] for key in ("k", "orbits", "classes", "nonzeros", "D", "quotient_mb")}
    return {"spec": spec, **counts, "stages": stages, "runs": runs}


def _revision(root: Path) -> str | None:
    """The checkout's commit, with ``-dirty`` if its files differ from it."""
    command = ["git", "describe", "--always", "--dirty", "--abbrev=40"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def _tree(root: Path, runs: dict) -> dict:
    return {
        "revision": _revision(root),
        "rungs": [_summary(spec, spec_runs) for spec, spec_runs in runs.items()],
    }


def _cpu_name() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="the BENCH_<n>.json file to write")
    parser.add_argument(
        "--baseline", type=Path, help="another checkout to run each rung on too, in turn"
    )
    parser.add_argument("--rung", help=argparse.SUPPRESS)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.rung:
        print(json.dumps(_rung(args.rung, args.src)))
        return
    if not args.out:
        parser.error("--out is required")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    trees = [ROOT] + ([args.baseline.resolve()] if args.baseline else [])
    runs = {root: {spec: [] for spec in RUNGS} for root in trees}
    for repeat in range(REPEATS):
        for spec in RUNGS:
            for root in trees:
                done = subprocess.run(
                    [sys.executable, __file__, "--rung", spec, "--src", str(root / "src")],
                    env=env, capture_output=True, text=True, check=True,
                )
                runs[root][spec].append(json.loads(done.stdout))
            print(f"run {repeat + 1}/{REPEATS} {spec}", file=sys.stderr)
    report = {
        "python": platform.python_version(),
        "cpu": _cpu_name(),
        "repeats": REPEATS,
        "count_n": 30,
        "tail_past_D": TAIL,
        **_tree(ROOT, runs[ROOT]),
    }
    if args.baseline:
        report["baseline"] = _tree(trees[1], runs[trees[1]])
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
