"""Every line of ``src/submon`` that tier-1 never runs is allowed, with a reason.

Runs the tier-1 suite in this process under a ``sys.settrace`` hook,
set before ``submon`` is imported, so the package's import-time lines
count too.  The hook gives a line tracer only to frames whose file, its
path resolved, lies under ``src/submon``; every other frame, of pytest,
hypothesis or the standard library, gets none, so only its calls are
seen.  Exits nonzero if a test fails, if an executable line of the
package never ran and is not in ``ALLOWED``, or if an ``ALLOWED`` entry
matches no line that never ran (a stale entry hides nothing and goes).
The hook does not follow subprocesses, so a line that only a subprocess
test reaches counts as never run.  It takes about 3.5 times as long as
tier-1 alone, so pytest does not collect this file.  Run it, from the
repository root, as::

    PYTHONPATH=src python tests/check_coverage.py
"""

import dis
import sys
import types
from pathlib import Path

root = Path(__file__).resolve().parents[1]
package = root / "src" / "submon"

# (file under src/submon, stripped source line): why no tier-1 test runs it.
ALLOWED = {
    ("__main__.py", "from .cli import entrypoint"): "only python -m submon runs it: subprocess tests",
    ("__main__.py", "entrypoint()"): "only python -m submon runs it: subprocess tests",
    ("cli.py", "sys.exit(main())"): "the console-script entry point; tests call main in process",
    ("cli.py", "entrypoint()"): 'the if __name__ == "__main__" guard of cli.py run as a script',
}


def executable_lines(path: Path) -> set[int]:
    """The lines that start a bytecode instruction, in every code object
    of the module."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main() -> int:
    if "submon" in sys.modules:
        raise SystemExit("submon is already imported; its import-time lines would not count")
    import pytest

    # (file name, line) of every line event; per file name, whether it
    # lies under the package.
    events, inside = set(), {}

    def trace_lines(frame, event, arg):
        if event == "line":
            events.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        traced = inside.get(name)
        if traced is None:
            traced = inside[name] = Path(name).resolve().is_relative_to(package)
        return trace_lines if traced else None

    argv = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(root / "tests")]
    sys.settrace(trace_calls)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
    if status != 0:
        print(f"tier-1 failed under the line tracer (pytest exit {status})")
        return 1
    ran = {(Path(name).resolve(), line) for name, line in events}
    missed = []
    for path in sorted(package.rglob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path)):
            if (path, line) not in ran:
                missed.append((path.name, line, source[line - 1].strip()))
    unexplained = [m for m in missed if (m[0], m[2]) not in ALLOWED]
    stale = set(ALLOWED) - {(name, text) for name, _, text in missed}
    for name, line, text in unexplained:
        print(f"never run: src/submon/{name}:{line}: {text}")
    for name, text in sorted(stale):
        print(f"stale allowlist entry: src/submon/{name}: {text}")
    if unexplained or stale:
        return 1
    print(f"ok coverage: {len(missed)} lines never run, each allowed with a reason")
    return 0


if __name__ == "__main__":
    sys.exit(main())
