"""One batch of benchmark queries in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED [--setup-only] [--trace] [--crosscheck]

The worker imports ``submon.cli`` from the checkout's ``src`` directory,
generates the batch for the seed and prints ``ready``; the parent times
set-up up to that line.  It then sends each query to ``submon.cli.main``
in-process, one after another, so the program's own caches persist
across the batch as in a library session.  A calibration loop runs
between queries, outside their timers, to gauge the CPU's speed.  After
the batch, outside the timed region, it checks every query's exit code
and stdout digest against ``expected.json`` and, with ``--crosscheck``,
compares outputs with independent computations.  It prints one JSON object as its last line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))

import submon.cli  # noqa: E402

import workloads  # noqa: E402
from speed import calibrate  # noqa: E402

if Path(submon.cli.__file__).resolve().parent.parent != SRC:
    sys.exit(f"submon imported from {submon.cli.__file__}, not from {SRC}")

EXPECTED = HERE / "expected.json"
# Calibration samples taken before the first query and after each one.
CAL_SAMPLES = 3


def run_query(argv: list[str]):
    """Send one query to the CLI; returns (exit code, stdout, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = submon.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        wall = time.perf_counter() - start
    return code, out.getvalue(), wall


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(expected: dict, argv: list[str], code, stdout: str) -> str | None:
    """None when the query's exit code and stdout match the pinned ones,
    else a one-line reason."""
    want = expected.get(workloads.key(argv))
    if want is None:
        return "no pinned output for this query"
    if code != want["exit"]:
        return f"exit code {code}, expected {want['exit']}"
    if digest(stdout) != want["sha256"]:
        return "stdout digest differs from the pinned one"
    return None


def _csv_values(stdout: str) -> list[int]:
    return [int(line.split(",")[1]) for line in stdout.splitlines()[1:]]


def crosschecks(outputs: list[tuple[list[str], str]]) -> list[dict]:
    """Independent checks of this batch's outputs; each returns a dict with
    the check's name, whether it held and what it compared."""
    from submon.monoid import from_spec, join_monoid, semilattice_order
    from submon.reference import load_reference_spectra
    from submon.spectral import Spectrum, closed_form_eval
    from submon.transfer import build_transfer_matrix, count_sequence

    reference = load_reference_spectra()
    spectra = {}
    results = []
    for argv, stdout in outputs:
        if argv[0] != "spectrum":
            continue
        spec = argv[2]
        rows = [line.split(",") for line in stdout.splitlines()[1:]]
        rows = [(int(v), Fraction(c), int(h)) for v, c, h in rows]
        spectra[spec] = Spectrum(
            eigenvalues=tuple(r[0] for r in rows),
            coefficients=tuple(r[1] for r in rows),
            normalized=tuple(r[2] for r in rows),
        )
        if spec in reference:
            results.append(
                {
                    "check": f"spectrum rows of {spec} against spectra_reference.csv",
                    "ok": rows == reference[spec],
                }
            )
    for argv, stdout in outputs:
        if argv[0] == "count" and argv[2] in spectra:
            spectrum = spectra[argv[2]]
            values = _csv_values(stdout)
            first = len(spectrum.eigenvalues)
            ok = all(closed_form_eval(spectrum, n) == values[n] for n in range(first, len(values)))
            results.append(
                {
                    "check": f"closed_form_eval of {argv[2]} against count terms {first}..{len(values) - 1}",
                    "ok": ok,
                }
            )
        elif argv[0] == "sattr" and "--n" in argv:
            spec = argv[2]
            values = _csv_values(stdout)
            monoid = join_monoid(semilattice_order(from_spec(spec)))
            walks = count_sequence(build_transfer_matrix(monoid), len(values) - 1).values
            results.append(
                {
                    "check": f"sattr counts of {spec} against count_sequence of its join monoid, n<={len(values) - 1}",
                    "ok": list(walks) == values,
                }
            )
    return results


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    queries = workloads.batch(workload, seed)
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0

    tracer = None
    if "--trace" in argv:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    rows, outputs = [], []
    cals = [calibrate() for _ in range(CAL_SAMPLES)]
    for index, query in enumerate(queries):
        if tracer is not None:
            tracer.query = index
        code, stdout, wall = run_query(query)
        cals += [calibrate() for _ in range(CAL_SAMPLES)]
        rows.append({"argv": query, "wall_s": wall, "exit": code})
        outputs.append((query, stdout))
    for row, (query, stdout) in zip(rows, outputs):
        row["failure"] = check(expected, query, row["exit"], stdout)
    report = {
        "queries": rows,
        "cal_s": cals,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if "--crosscheck" in argv:
        report["crosschecks"] = crosschecks(outputs)
    if tracer is not None:
        report["spans"] = tracer.spans
        report["counters"] = tracer.counters
        report["errors"] = tracer.errors
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
