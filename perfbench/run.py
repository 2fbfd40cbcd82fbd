"""The submon benchmark: seeded CLI workloads with checked outputs.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads are listed in BENCHMARK.json
and defined in ``workloads.py``.  The run pins itself to the fastest
allowed CPU, starts several set-up probes (a fresh interpreter that
imports ``submon.cli`` and generates the batch), then runs whole
batches, each in a fresh worker interpreter, one at a time, for about
``--seconds`` seconds.  Load is one client in a closed loop: each query
starts when the previous one returns.

With ``--trace 0`` it prints the end-to-end metrics: median set-up time,
batch wall time at the reference CPU speed (``speed.py``), median peak
RSS of a batch worker and the share of queries whose exit code and
stdout match the pinned ones.  With ``--trace 1`` it alternates
untraced and traced batches and prints the per-layer metrics of the
traced ones.  The last line of stdout is one JSON object; a record of
the run, one row per query, is written under ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from speed import REFERENCE_S, calibrate

HERE = Path(__file__).resolve().parent
RUNS = HERE / "runs"
SETUP_PROBES = 13
# No new batch starts after this many seconds, so a run ends well within
# three minutes even when a batch is slower than expected.
LAST_START_S = 100.0
WORKER_TIMEOUT_S = 60.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def run_worker(workload: str, seed: int, *flags: str) -> tuple[float, dict | None]:
    """Start a worker and wait for it; returns its set-up time and its
    report (None for a set-up probe)."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), *flags]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
    if first != "ready\n" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(cmd[1:])} failed with exit code {proc.returncode}")
    if "--setup-only" in flags:
        return setup, None
    return setup, json.loads(rest.splitlines()[-1])


def pin_fastest_cpu() -> tuple[int, dict[int, float]]:
    """Pin this process, and so every worker it starts, to the allowed CPU
    on which the calibration loop runs fastest now.  On a shared machine
    one CPU can run at half the speed of another; pinning keeps every
    query and its calibration samples on the same CPU."""
    speeds = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = statistics.median(calibrate() for _ in range(5))
    fastest = min(speeds, key=speeds.get)
    os.sched_setaffinity(0, {fastest})
    return fastest, speeds


def git_revision(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    return target.read_text(encoding="utf-8").strip() if target.is_file() else ref


def scale(report: dict) -> float:
    """The factor that scales a batch's times to the reference CPU speed,
    from the median of the calibration samples taken during the batch."""
    return REFERENCE_S / statistics.median(report["cal_s"])


def scaled_walls(report: dict) -> list[float]:
    factor = scale(report)
    return [q["wall_s"] * factor for q in report["queries"]]


def batch_wall(reports: list[dict]) -> float:
    """Wall time of one batch at the reference speed: the sum over its
    queries of each query's median scaled wall time across the given
    batches, which all ran the same queries."""
    per_query = zip(*(scaled_walls(report) for report in reports))
    return sum(statistics.median(walls) for walls in per_query)


def layer_metrics(traced: list[dict], untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: medians of self times over the traced batches,
    work counters of one batch (every batch runs the same queries)."""
    selfs = [
        {metric: t * scale(report) for metric, t in tracing.self_times(report["spans"]).items()}
        for report in traced
    ]
    walls = [sum(scaled_walls(report)) for report in traced]
    counters = traced[0]["counters"]
    errors = traced[0]["errors"]

    def med(metric: str) -> float:
        return statistics.median(s[metric] for s in selfs)

    walk_s = med("transfer.walk_s")
    k, cells = counters["submonoids.k"], counters["transfer.cells"]
    metrics = {
        "monoid.from_spec_s": (med("monoid.from_spec_s"), "s"),
        "submonoids.enumerate_s": (med("submonoids.enumerate_s"), "s"),
        "submonoids.k": (k, "count"),
        "submonoids.yield": (k / counters["submonoids.masks_scanned"] if k else 0.0, "ratio"),
        "transfer.build_self_s": (med("transfer.build_self_s"), "s"),
        "transfer.nnz": (counters["transfer.nnz"], "count"),
        "transfer.fill": (counters["transfer.nnz"] / cells if cells else 0.0, "ratio"),
        "transfer.walk_s": (walk_s, "s"),
        "transfer.walk_terms": (counters["transfer.walk_terms"], "count"),
        # Computed: multiply-adds the walks need, over the walk self time.
        "transfer.walk_madds_per_s": (
            counters["transfer.walk_madds"] / walk_s if walk_s else 0.0,
            "1/s",
        ),
        "transfer.max_count_bits": (counters["transfer.max_count_bits"], "bits"),
        "spectral.spectrum_self_s": (med("spectral.spectrum_self_s"), "s"),
        "spectral.solve_s": (med("spectral.solve_s"), "s"),
        "spectral.eigs": (counters["spectral.eigs"], "count"),
        "spectral.ogf_self_s": (med("spectral.ogf_self_s"), "s"),
        "transfersystems.st_count_s": (med("transfersystems.st_count_s"), "s"),
        "transfersystems.iso_self_s": (med("transfersystems.iso_self_s"), "s"),
        "transfersystems.list_s": (med("transfersystems.list_s"), "s"),
        "transfersystems.systems": (counters["transfersystems.systems"], "count"),
        "transfersystems.cylinder_systems": (
            counters["transfersystems.cylinder_systems"],
            "count",
        ),
        "cli.self_s": (med("cli.self_s"), "s"),
    }
    for layer in tracing.TRACED:
        metrics[f"{layer}.errors"] = (errors[layer], "count")
    metrics["trace.self_s"] = (med("trace.self_s"), "s")
    metrics["trace.overhead_s"] = (batch_wall(traced) - untraced_wall, "s")
    # What the query walls hold beyond every span's self time: wrapper
    # entry and exit.  Near zero when the self times partition wall_s.
    metrics["trace.unattributed_s"] = (
        statistics.median(w - sum(s.values()) for w, s in zip(walls, selfs)),
        "s",
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BATCHES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "git_revision": git_revision(HERE.parent),
        "loadavg": os.getloadavg(),
    }
    record["pinned_cpu"], record["cpu_cal_s"] = pin_fastest_cpu()
    # Each probe is scaled by the calibration samples just before and after it.
    setups, setup_cals = [], [calibrate()]
    for _ in range(SETUP_PROBES):
        setups.append(run_worker(args.workload, args.seed, "--setup-only")[0])
        setup_cals.append(calibrate())
    scaled_setups = [
        t * REFERENCE_S * 2 / (before + after)
        for t, before, after in zip(setups, setup_cals, setup_cals[1:])
    ]

    batches: list[tuple[bool, float, dict]] = []
    begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(batches) % 2 == 1
        flags = ["--trace"] if traced else []
        if not batches:
            flags.append("--crosscheck")
        started = time.perf_counter()
        report = run_worker(args.workload, args.seed, *flags)[1]
        batches.append((traced, time.perf_counter() - started, report))
        elapsed = time.perf_counter() - begin
        longest = max(b[1] for b in batches)
        if args.trace and len(batches) < 2 and elapsed < LAST_START_S:
            continue
        if elapsed + longest > args.seconds or elapsed > LAST_START_S:
            break

    rows = []
    for index, (traced, _, report) in enumerate(batches):
        for query in report["queries"]:
            rows.append({"batch": index, "traced": traced, **query})
    attempted = len(rows)
    failed = sum(1 for row in rows if row["failure"] is not None)
    checks = batches[0][2]["crosschecks"]
    untraced = [report for traced, _, report in batches if not traced]
    wall_s = batch_wall(untraced)
    if args.trace:
        traced_reports = [report for traced, _, report in batches if traced]
        metrics = layer_metrics(traced_reports, wall_s)
    else:
        rss = statistics.median(report["maxrss_kb"] for report in untraced) / 1024
        metrics = {
            "setup_s": (statistics.median(scaled_setups), "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (rss, "MB"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
    correct = failed == 0 and all(c["ok"] for c in checks)

    record.update(
        reference_s=REFERENCE_S,
        setup_s=setups,
        setup_cal_s=setup_cals,
        batch_walls_s=[sum(q["wall_s"] for q in r["queries"]) for _, _, r in batches],
        batch_scaled_walls_s=[sum(scaled_walls(r)) for _, _, r in batches],
        batch_cal_s=[r["cal_s"] for _, _, r in batches],
        queries=rows,
        crosschecks=checks,
        spans=[r.get("spans") for _, _, r in batches if "spans" in r],
        metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    )
    RUNS.mkdir(exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    out.write_text(json.dumps(record) + "\n", encoding="utf-8")

    for row in rows:
        if row["failure"] is not None:
            print(f"FAILED {workloads.key(row['argv'])}: {row['failure']}", file=sys.stderr)
    for c in checks:
        if not c["ok"]:
            print(f"CROSS-CHECK FAILED {c['check']}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
