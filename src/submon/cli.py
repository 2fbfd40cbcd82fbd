"""Command-line front end.

Commands: count, spectrum, matrix, ogf, polybernoulli, sattr, verify.
Output is deterministic byte for byte for a fixed set of flags.  Exit
codes: 0 success, 1 verification failure, 2 parse or usage error,
3 enumeration budget exceeded, 4 domain error (not idempotent or not a
lattice).
"""

from __future__ import annotations

import sys
from functools import cache
from itertools import chain
from types import SimpleNamespace

from . import oracle, reference
from .closedforms import (
    abelian_group_count,
    chain_coefficient,
    chain_counts,
    chain_eigenvalues,
    ladder_eigenvalues,
    mk_eigenvalues,
    poly_bernoulli,
)
from .errors import (
    FormulaMismatch,
    MonoidSpecError,
    NotALattice,
    NotIdempotent,
    SizeLimitExceeded,
    SubmonError,
)
from .monoid import (
    DEFAULT_MAX_PRODUCT_SIZE, from_spec, is_group, is_idempotent, semilattice_order,
)
from .oracle import brute_force_submonoid_count
from .spectral import chain_eigenmatrix, eigenvalues, ogf, spectrum_of, verify_recurrence
from .submonoids import DEFAULT_MAX_MONOID_SIZE, enumerate_submonoids, inclusion_order
from .transfer import CountSequence, build_transfer_matrix, count_sequence, walk_counts
from .transfersystems import (
    DEFAULT_MAX_ST_SIZE,
    enumerate_saturated_transfer_systems,
    verify_graph_isomorphism,
)

# Default sweeps for the verify suites.
DEFAULT_MONOIDS = (
    "chain:0",
    "chain:1",
    "chain:2",
    "chain:3",
    "chain:1 x chain:1",
    "cyclic:2",
    "cyclic:3",
    "cyclic:4",
    "mk:2",
    "mk:3",
    "n5",
)
DEFAULT_LATTICES = (
    "chain:1",
    "chain:2",
    "chain:1 x chain:1",
    "chain:1 x chain:2",
    "mk:3",
)
GROUP_SPECS = ("cyclic:2", "cyclic:3", "cyclic:4", "cyclic:6", "cyclic:2 x cyclic:2")


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _output(args, payload: dict, lines) -> int:
    """``payload`` as JSON under ``--format json``, else the CSV
    ``lines``, an iterable read only when it is printed."""
    _emit(_dumps(payload) if args.format == "json" else "\n".join(lines))
    return 0


def _dumps(payload) -> str:
    """``json.dumps``: ``json``, with the ``re`` and ``enum`` it imports,
    loads only where JSON is written."""
    import json

    return json.dumps(payload)


def _counts(args, key: str, values) -> int:
    """``n,count`` CSV lines, or JSON naming the input ``args.<key>``."""
    lines = chain(["n,count"], (f"{n},{v}" for n, v in enumerate(values)))
    return _output(args, {key: getattr(args, key), "values": list(values)}, lines)


def _monoid(spec: str, args):
    """``spec`` under the enumeration budget: no larger table is built or validated."""
    return from_spec(spec, min(args.max_monoid_size, DEFAULT_MAX_PRODUCT_SIZE))


def _oracle_terms(monoid, values, budget):
    """``(n, values[n], brute-force count)`` for each n with (n + 1) * |M|
    within the oracle ``budget``; no larger product is brute-forced."""
    for n, value in enumerate(values[: budget // monoid.size]):
        yield n, value, brute_force_submonoid_count(monoid, n, max_size=budget)


def _refuse_unread(args, reads, query: str) -> None:
    """Raise ValueError if a flag in ``args.given``, the flags given that
    :data:`COMMANDS` marks ``given``, is not one that ``query`` ``reads``."""
    for flag in args.given:
        if flag not in reads:
            raise ValueError(f"{query} takes no {flag}")


def cmd_count(args) -> int:
    _refuse_unread(args, ("--max-oracle-size",) if args.oracle else (), "count without --oracle")
    monoid = _monoid(args.monoid, args)
    matrix = build_transfer_matrix(monoid, max_size=args.max_monoid_size)
    values = count_sequence(matrix, args.n).values
    if args.oracle:
        checked = 0
        for n, got, want in _oracle_terms(monoid, values, args.max_oracle_size):
            if got != want:
                return _fail(f"oracle mismatch at n={n}: pipeline {got}, brute force {want}", 1)
            checked += 1
        total = len(values)
        terms = f"n=0..{checked - 1}" if checked else "no terms"
        print(
            f"oracle checked {terms}; skipped {total - checked} of {total} "
            f"terms above --max-oracle-size {args.max_oracle_size}",
            file=sys.stderr,
        )
    return _counts(args, "monoid", values)


def cmd_spectrum(args) -> int:
    matrix = build_transfer_matrix(_monoid(args.monoid, args), max_size=args.max_monoid_size)
    spectrum = spectrum_of(matrix)
    rows = [
        {"eigenvalue": v, "coefficient": str(c), "normalized": h}
        for v, c, h in zip(spectrum.eigenvalues, spectrum.coefficients, spectrum.normalized)
    ]
    lines = chain(
        ["eigenvalue,coefficient,normalized"], (",".join(map(str, row.values())) for row in rows)
    )
    return _output(args, {"monoid": args.monoid, "rows": rows}, lines)


def _dense_rows(matrix):
    """Each row of W as ``row`` yields it, as the strings of its k cells,
    zeros filled in: one row of the k x k table is held at a time."""
    for i in range(matrix.size):
        cells = ["0"] * matrix.size
        for j, w in matrix.row(i):
            cells[j] = str(w)
        yield cells


def cmd_matrix(args) -> int:
    """W streamed row by row after the CSV header or the JSON payload's
    other fields, byte for byte as ``json.dumps`` of the whole payload."""
    matrix = build_transfer_matrix(_monoid(args.monoid, args), max_size=args.max_monoid_size)
    legend = [hex(m) for m in matrix.lattice.members]
    write = sys.stdout.write
    if args.format == "json":
        head = _dumps({"monoid": args.monoid, "size": matrix.size, "legend": legend, "rows": []})
        write(head[:-2])  # up to the rows' opening bracket
        for i, cells in enumerate(_dense_rows(matrix)):
            write((", [" if i else "[") + ", ".join(cells) + "]")
        write("]}\n")
    else:
        write("mask," + ",".join(legend) + "\n")
        for mask, cells in zip(legend, _dense_rows(matrix)):
            write(mask + "," + ",".join(cells) + "\n")
    return 0


def cmd_ogf(args) -> int:
    matrix = build_transfer_matrix(_monoid(args.monoid, args), max_size=args.max_monoid_size)
    result = ogf(matrix)
    fields = {
        "numerator": list(result.numerator), "denominator_roots": list(result.denominator_roots)
    }
    lines = (",".join(map(str, [name, *terms])) for name, terms in fields.items())
    return _output(args, {"monoid": args.monoid, **fields}, lines)


def cmd_polybernoulli(args) -> int:
    _emit(str(poly_bernoulli(args.m, args.n)))
    return 0


def cmd_sattr(args) -> int:
    if args.list:
        if args.format == "csv":
            raise ValueError("--list writes JSON only and takes no --format csv")
        _refuse_unread(args, ("--max-st-size",), "sattr --list")
        order = semilattice_order(from_spec(args.lattice, args.max_st_size))
        systems = enumerate_saturated_transfer_systems(order, max_size=args.max_st_size)
        _emit(_dumps({"lattice": args.lattice, "systems": [s.pairs() for s in systems]}))
        return 0
    # Systems on P x [n] correspond to submonoids of (P, join) x [n].  An
    # idempotent commutative monoid's table is the join of its own order,
    # so P is counted as parsed, as count counts it, under its budget.
    _refuse_unread(args, ("--max-monoid-size",), "sattr --n")
    lattice = _monoid(args.lattice, args)
    semilattice_order(lattice)  # raises NotIdempotent
    matrix = build_transfer_matrix(lattice, max_size=args.max_monoid_size)
    return _counts(args, "lattice", count_sequence(matrix, args.n or 0).values)


def _suite_triangular(args) -> int:
    """W row by row, keeping only the diagonal: each row ends with a
    diagonal of at least 2, has no column above it, and its nonzero
    columns are exactly the members inside its submonoid: their masks
    hold no element outside it, and they are the members that ``below``
    gives from the lattice alone.  So on an idempotent monoid the strict
    increase of the diagonal along inclusion is checked on each row's
    own columns."""
    for spec in [args.monoid] if args.monoid else DEFAULT_MONOIDS:
        matrix = build_transfer_matrix(_monoid(spec, args), max_size=args.max_monoid_size)
        lattice, diag = matrix.lattice, []
        members, idempotent = lattice.members, is_idempotent(lattice.monoid)
        for i in range(matrix.size):
            row = matrix.row(i)
            if not row or row[-1][0] != i or row[-1][1] < 2:
                return _fail(f"{spec}: diagonal entry {i} is {dict(row).get(i, 0)}", 1)
            columns, spanned = 0, 0
            for j, w in row:
                if j > i:
                    return _fail(f"{spec}: nonzero entry above diagonal at ({i},{j})", 1)
                if w:
                    columns |= 1 << j
                    spanned |= members[j]
            if spanned & ~members[i] or columns != lattice.below(i):
                return _fail(f"{spec}: row {i}'s nonzero columns are not the members inside it", 1)
            diag.append(row[-1][1])
            if idempotent:
                for j, _ in row[:-1]:
                    if diag[j] >= diag[i]:
                        return _fail(f"{spec}: diagonal not strictly increasing at ({j},{i})", 1)
        print(f"ok triangular {spec}")
        if not idempotent:
            print(f"skip triangular {spec} strict-increase: the monoid is not idempotent")
    return 0


def _suite_recurrence(args) -> int:
    for spec in [args.monoid] if args.monoid else DEFAULT_MONOIDS:
        matrix = build_transfer_matrix(_monoid(spec, args), max_size=args.max_monoid_size)
        roots = ogf(matrix).denominator_roots
        # Solved terms only: count_sequence extends past the first
        # len(roots) by the very recurrence checked here.
        seq = CountSequence(tuple(walk_counts(matrix, 2 * len(roots) - 1)))
        ok, witness = verify_recurrence(roots, seq)
        if not ok:
            return _fail(f"{spec}: recurrence fails at n={witness}", 1)
        print(f"ok recurrence {spec}")
    return 0


def _suite_oracle(args) -> int:
    budget = args.max_oracle_size
    top = args.n if args.n is not None else budget
    cases = []  # every spec is parsed before any line is printed
    for spec in [args.monoid] if args.monoid else DEFAULT_MONOIDS:
        monoid = _monoid(spec, args)
        # No larger n has (n + 1) * |M| within the oracle budget.
        cases.append((spec, monoid, min(top, budget // monoid.size - 1)))
    if all(last < 0 for _, _, last in cases):
        raise ValueError(f"no oracle case fits --max-oracle-size {budget}")
    for spec, monoid, last in cases:
        if last < 0:
            print(f"skip oracle {spec}: no term within --max-oracle-size {budget}")
            continue
        matrix = build_transfer_matrix(monoid, max_size=args.max_monoid_size)
        values = count_sequence(matrix, last).values
        for n, got, want in _oracle_terms(monoid, values, budget):
            if got != want:
                return _fail(f"{spec}: n={n} pipeline {got}, brute force {want}", 1)
            print(f"ok oracle {spec} n={n} count={got}")
        if args.n is not None and last < args.n:
            print(
                f"skip oracle {spec} n={last + 1}..{args.n}: "
                f"(n + 1)·|M| above --max-oracle-size {budget}"
            )
    return 0


def _suite_transfer_iso(args) -> int:
    for spec in [args.monoid] if args.monoid else DEFAULT_LATTICES:
        order = semilattice_order(from_spec(spec, args.max_st_size))
        ok, details = verify_graph_isomorphism(order, max_size=args.max_st_size)
        if not ok:
            return _fail(f"{spec}: {details}", 1)
        print(f"ok transfer-iso {spec}")
    return 0


def _suite_closed_forms(args) -> int:
    for m in range(1, 5):
        for n in range(1, 5):
            half = poly_bernoulli(m, n) // 2
            matrix = build_transfer_matrix(from_spec(f"chain:{m - 1}"))
            got = count_sequence(matrix, n - 1).values[n - 1]
            if half != got:
                return _fail(f"poly-Bernoulli mismatch at ({m},{n}): {half} != {got}", 1)
    print("ok closed-forms poly-bernoulli grid")
    for m in range(7):
        matrix = build_transfer_matrix(from_spec(f"chain:{m}"))
        spectrum = spectrum_of(matrix)
        for j, coefficient in zip(spectrum.eigenvalues, spectrum.coefficients):
            if chain_coefficient(m, j) != coefficient:
                return _fail(f"chain coefficient mismatch at m={m}, j={j}", 1)
    print("ok closed-forms chain coefficients")
    for spec in GROUP_SPECS:
        monoid = from_spec(spec)
        if not is_group(monoid):
            return _fail(f"{spec} is not a group", 1)
        chains = chain_counts(inclusion_order(enumerate_submonoids(monoid)))
        matrix = build_transfer_matrix(monoid)
        values = count_sequence(matrix, 10).values
        for n in range(11):
            if abelian_group_count(chains, n) != values[n]:
                return _fail(f"{spec}: group count mismatch at n={n}", 1)
    print("ok closed-forms abelian groups")
    for name, var, pattern, closed_form, sizes in (
        ("chain", "m", "chain:{}", chain_eigenvalues, range(7)),
        ("ladder", "m", "chain:{} x chain:1", ladder_eigenvalues, range(1, 5)),
        ("mk", "k", "mk:{}", mk_eigenvalues, range(1, 6)),
    ):
        for m in sizes:
            got = set(eigenvalues(build_transfer_matrix(from_spec(pattern.format(m)))))
            if got != closed_form(m):
                return _fail(f"{name} eigenvalue set mismatch at {var}={m}", 1)
    print("ok closed-forms eigenvalue sets")
    for m in range(7):
        try:
            chain_eigenmatrix(m)
        except FormulaMismatch as exc:
            return _fail(f"chain eigenmatrix mismatch at m={m}: {exc}", 1)
    print("ok closed-forms chain eigenmatrix")
    return 0


def _suite_appendix(args) -> int:
    problems = reference.compare_reference(reference.SPECS)
    if problems:
        return _fail("\n".join(problems), 1)
    for spec in reference.SPECS:
        print(f"ok appendix {spec}")
    return 0


# Each suite with the flags it reads.  Any other flag given exits 2, so
# none goes unread; a suite that reads none checks a fixed table.
SUITES = {
    "triangular": (_suite_triangular, ("--monoid", "--max-monoid-size")),
    "recurrence": (_suite_recurrence, ("--monoid", "--max-monoid-size")),
    "oracle": (_suite_oracle, ("--monoid", "--n", "--max-monoid-size", "--max-oracle-size")),
    "transfer-iso": (_suite_transfer_iso, ("--monoid", "--max-st-size")),
    "closed-forms": (_suite_closed_forms, ()),
    "appendix": (_suite_appendix, ()),
}


def _run_suite(args) -> int:
    """Run ``args.suite`` once every flag given is one it reads."""
    suite, reads = SUITES[args.suite]
    fixed = "" if reads else " checks a fixed table and"
    _refuse_unread(args, reads, f"verify {args.suite}{fixed}")
    return suite(args)


FORMATS = ("csv", "json")
_COMMON = {
    "--monoid": {"required": True, "help": "monoid spec string"},
    "--format": {"choices": FORMATS, "default": "csv"},
    "--max-monoid-size": {
        "type": int, "default": DEFAULT_MAX_MONOID_SIZE, "min": 1,
        "help": "submonoid enumeration budget",
    },
}

# Each command's grammar, in help order.  A flag's entry holds the
# keywords of its add_argument call, "given": True for a flag that
# args.given records, and an int flag's floor "min", below which main
# exits 2: 1 for a budget, below which no input fits or nothing is
# checked, and 0 for a chain length or an argument of B(m, n).  A
# command may take a suite positional before its flags and name flags
# that exclude each other.
COMMANDS = {
    "count": {
        "help": "counts of submonoids of monoid x chain",
        "func": cmd_count,
        "flags": {
            **_COMMON,
            "--n": {"type": int, "required": True, "min": 0, "help": "largest chain length"},
            "--oracle": {"action": "store_true", "help": "cross-check small cases"},
            "--max-oracle-size": {
                "type": int, "default": oracle.DEFAULT_MAX_ORACLE_SIZE, "min": 1, "given": True,
                "help": "largest product, in elements, that --oracle brute-forces",
            },
        },
    },
    "spectrum": {"help": "eigenvalues and exact coefficients", "func": cmd_spectrum, "flags": _COMMON},
    "matrix": {"help": "dump the transfer matrix", "func": cmd_matrix, "flags": _COMMON},
    "ogf": {"help": "generating function of the counts", "func": cmd_ogf, "flags": _COMMON},
    "polybernoulli": {
        "help": "poly-Bernoulli number B(m, n)",
        "func": cmd_polybernoulli,
        "flags": {
            "--m": {"type": int, "required": True, "min": 0},
            "--n": {"type": int, "required": True, "min": 0},
        },
    },
    "sattr": {
        "help": "saturated transfer systems on a lattice",
        "func": cmd_sattr,
        "flags": {
            "--lattice": {"required": True, "help": "monoid spec of a lattice"},
            # --n has no default: argparse lets a flag given its default
            # value join the other flag of the group (--n 0 --list).
            "--n": {"type": int, "min": 0, "help": "largest chain length (default 0)"},
            "--list": {"action": "store_true", "help": "dump the systems as JSON"},
            # No default, so that --list can refuse an explicit --format csv.
            "--format": {"choices": FORMATS, "help": "default csv; --list takes json"},
            "--max-st-size": {
                "type": int, "default": DEFAULT_MAX_ST_SIZE, "min": 1, "given": True,
                "help": "largest lattice, in elements, that --list accepts",
            },
            "--max-monoid-size": {
                "type": int, "default": DEFAULT_MAX_MONOID_SIZE, "min": 1, "given": True,
                "help": "largest lattice, in elements, that --n accepts",
            },
        },
        "exclusive": ("--n", "--list"),
    },
    "verify": {
        "help": "run a named invariant sweep",
        "func": _run_suite,
        "suite": {"choices": SUITES, "help": "the sweep to run"},
        "flags": {
            "--monoid": {"given": True, "help": "restrict the sweep to one monoid"},
            "--n": {
                "type": int, "min": 0, "given": True,
                "help": "largest chain length for the oracle suite",
            },
            "--max-monoid-size": {
                "type": int, "default": DEFAULT_MAX_MONOID_SIZE, "min": 1, "given": True
            },
            "--max-oracle-size": {
                "type": int, "default": oracle.DEFAULT_MAX_ORACLE_SIZE, "min": 1, "given": True
            },
            "--max-st-size": {"type": int, "default": DEFAULT_MAX_ST_SIZE, "min": 1, "given": True},
        },
    },
}


def read_argv(argv):
    """The namespace ``build_parser().parse_args(argv)`` gives, read from
    :data:`COMMANDS` without argparse, for an ``argv`` of the form
    ``COMMAND [SUITE] (--flag VALUE | --switch)*``: each flag spelled in
    full and given once, no value starting with ``-``, every int and
    choice valid, every required flag given and no two exclusive ones.
    None for any other ``argv``, which argparse then reads: help,
    abbreviations, ``--flag=value`` and every usage error."""
    if not argv or argv[0] not in COMMANDS:
        return None
    command = COMMANDS[argv[0]]
    args = {"command": argv[0], "func": command["func"], "given": ()}
    tokens = iter(argv[1:])
    if "suite" in command:
        suite = next(tokens, None)
        if suite not in command["suite"]["choices"]:
            return None
        args["suite"] = suite
    flags, seen = command["flags"], set()
    for flag in tokens:
        spec = flags.get(flag)
        if spec is None or flag in seen:
            return None
        seen.add(flag)
        value = True
        if "action" not in spec:
            # A missing value reads as "-", which declines too.
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            if spec.get("type") is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
            if "choices" in spec and value not in spec["choices"]:
                return None
        args[flag[2:].replace("-", "_")] = value
        if spec.get("given"):
            args["given"] += (flag,)
    if len(seen.intersection(command.get("exclusive", ()))) > 1:
        return None
    for flag, spec in flags.items():
        if flag not in seen:
            if spec.get("required"):
                return None
            args[flag[2:].replace("-", "_")] = False if "action" in spec else spec.get("default")
    return SimpleNamespace(**args)


def build_parser():
    """The argparse parser of :data:`COMMANDS`: it prints the help and
    the usage errors and reads every ``argv`` :func:`read_argv` declines.
    ``argparse`` is imported here, so a query that builds no parser never
    loads it, nor the ``gettext`` and ``locale`` it calls on."""
    import argparse

    class _Given(argparse.Action):
        """Store the flag's value and add the flag to ``args.given``."""

        def __call__(self, parser, namespace, values, option_string=None):
            setattr(namespace, self.dest, values)
            namespace.given += (self.option_strings[0],)

    parser = argparse.ArgumentParser(
        prog="submon",
        description="Exact submonoid and saturated transfer system enumeration",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command["help"])
        if "suite" in command:
            p.add_argument("suite", **command["suite"])
        exclusive = command.get("exclusive", ())
        group = p.add_mutually_exclusive_group() if exclusive else None
        for flag, spec in command["flags"].items():
            spec = dict(spec)
            spec.pop("min", None)
            if spec.pop("given", False):
                spec["action"] = _Given
            (group if flag in exclusive else p).add_argument(flag, **spec)
        p.set_defaults(func=command["func"], given=())
    return parser


@cache
def _parser():
    """The parser of :func:`main`, built the first time an ``argv`` is
    declined by :func:`read_argv`, and then kept: a build takes about
    2 ms, after ``import argparse``'s 2.7 ms, and its first message
    imports ``locale`` and ``shutil`` for 4.5 ms more; the parser holds
    hundreds of objects in reference cycles."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command line, ``argv`` or else ``sys.argv[1:]``, and return
    its exit code.  A well-formed ``argv`` is read by :func:`read_argv`;
    argparse reads every other one, printing help or a usage error and
    raising ``SystemExit`` where it does."""
    if argv is None:
        argv = sys.argv[1:]
    args = read_argv(argv)
    if args is None:
        args = _parser().parse_args(argv)
    for flag, spec in COMMANDS[args.command]["flags"].items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if "min" in spec and value is not None and value < spec["min"]:
            return _fail(f"error: {flag} must be at least {spec['min']}, got {value}", 2)
    try:
        return args.func(args)
    except (MonoidSpecError, ValueError) as exc:
        return _fail(f"error: {exc}", 2)
    except SizeLimitExceeded as exc:
        return _fail(f"error: {exc}", 3)
    except (NotIdempotent, NotALattice) as exc:
        return _fail(f"error: {exc}", 4)
    except SubmonError as exc:
        return _fail(f"error: {exc}", 1)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
