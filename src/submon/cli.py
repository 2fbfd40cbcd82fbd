"""Command-line front end.

Commands: count, spectrum, matrix, ogf, polybernoulli, sattr, verify.
Output is deterministic byte for byte for a fixed set of flags.  Exit
codes: 0 success, 1 verification failure, 2 parse or usage error,
3 enumeration budget exceeded, 4 domain error (not idempotent or not a
lattice).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

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
    DEFAULT_MAX_PRODUCT_SIZE, from_spec, is_group, is_idempotent, join_monoid, semilattice_order,
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

VERIFY_SUITES = (
    "triangular",
    "recurrence",
    "oracle",
    "transfer-iso",
    "closed-forms",
    "appendix",
)

# Budgets below 1 would refuse every input, or check nothing, so they exit 2.
BUDGET_FLAGS = ("--max-monoid-size", "--max-st-size", "--max-oracle-size")

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


def _print_counts(seq, key: str, fmt: str) -> None:
    """``n,count`` CSV lines, or JSON naming the input under ``key``."""
    if fmt == "json":
        _emit(json.dumps({key: seq.label, "values": list(seq.values)}))
    else:
        _emit("\n".join(["n,count"] + [f"{n},{v}" for n, v in enumerate(seq.values)]))


def _monoid(spec: str, args):
    """``spec`` under the enumeration budget: no larger table is built or validated."""
    return from_spec(spec, min(args.max_monoid_size, DEFAULT_MAX_PRODUCT_SIZE))


def _oracle_terms(monoid, values, budget):
    """``(n, values[n], brute-force count)`` for each n with (n + 1) * |M|
    within the oracle ``budget``; no larger product is brute-forced."""
    for n, value in enumerate(values[: budget // monoid.size]):
        yield n, value, brute_force_submonoid_count(monoid, n, max_size=budget)


def cmd_count(args) -> int:
    monoid = _monoid(args.monoid, args)
    matrix = build_transfer_matrix(monoid, max_size=args.max_monoid_size)
    seq = count_sequence(matrix, args.n, label=args.monoid)
    if args.oracle:
        checked = 0
        for n, got, want in _oracle_terms(monoid, seq.values, args.max_oracle_size):
            if got != want:
                return _fail(f"oracle mismatch at n={n}: pipeline {got}, brute force {want}", 1)
            checked += 1
        total = len(seq.values)
        terms = f"n=0..{checked - 1}" if checked else "no terms"
        print(
            f"oracle checked {terms}; skipped {total - checked} of {total} "
            f"terms above --max-oracle-size {args.max_oracle_size}",
            file=sys.stderr,
        )
    _print_counts(seq, "monoid", args.format)
    return 0


def cmd_spectrum(args) -> int:
    matrix = build_transfer_matrix(_monoid(args.monoid, args), max_size=args.max_monoid_size)
    spectrum = spectrum_of(matrix)
    rows = list(zip(spectrum.eigenvalues, spectrum.coefficients, spectrum.normalized))
    if args.format == "json":
        payload = {
            "monoid": args.monoid,
            "rows": [
                {
                    "eigenvalue": v,
                    "coefficient": reference.format_rational(c),
                    "normalized": h,
                }
                for v, c, h in rows
            ],
        }
        _emit(json.dumps(payload))
    else:
        lines = ["eigenvalue,coefficient,normalized"]
        lines += [
            f"{v},{reference.format_rational(c)},{h}" for v, c, h in rows
        ]
        _emit("\n".join(lines))
    return 0


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
        head = json.dumps({"monoid": args.monoid, "size": matrix.size, "legend": legend, "rows": []})
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
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "monoid": args.monoid,
                    "numerator": list(result.numerator),
                    "denominator_roots": list(result.denominator_roots),
                }
            )
        )
    else:
        lines = [
            "numerator," + ",".join(str(c) for c in result.numerator),
            "denominator_roots,"
            + ",".join(str(v) for v in result.denominator_roots),
        ]
        _emit("\n".join(lines))
    return 0


def cmd_polybernoulli(args) -> int:
    _emit(str(poly_bernoulli(args.m, args.n)))
    return 0


def cmd_sattr(args) -> int:
    if args.list:
        order = semilattice_order(from_spec(args.lattice, args.max_st_size))
        systems = enumerate_saturated_transfer_systems(order, max_size=args.max_st_size)
        payload = {
            "lattice": args.lattice,
            "systems": [system.pairs() for system in systems],
        }
        _emit(json.dumps(payload))
        return 0
    # Systems on P x [n] correspond to submonoids of (P, join) x [n], so
    # they are counted as count counts them, under its budget.
    order = semilattice_order(_monoid(args.lattice, args))
    matrix = build_transfer_matrix(join_monoid(order), max_size=args.max_monoid_size)
    seq = count_sequence(matrix, args.n or 0, label=args.lattice)
    _print_counts(seq, "lattice", args.format)
    return 0


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
            numeral, spanned = bytearray(b"0" * (i + 1)), 0
            for j, w in row:
                if j > i:
                    return _fail(f"{spec}: nonzero entry above diagonal at ({i},{j})", 1)
                if w:
                    numeral[i - j] = ord("1")
                    spanned |= members[j]
            if spanned & ~members[i] or int(numeral, 2) != lattice.below(i):
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
        seq = CountSequence(tuple(walk_counts(matrix, 2 * len(roots) - 1)), spec)
        ok, witness = verify_recurrence(roots, seq)
        if not ok:
            return _fail(f"{spec}: recurrence fails at n={witness}", 1)
        print(f"ok recurrence {spec}")
    return 0


def _suite_oracle(args) -> int:
    if args.n is not None and args.n < 0:
        raise ValueError(f"--n must be at least 0, got {args.n}")
    budget = args.max_oracle_size
    top = args.n if args.n is not None else budget
    cases = []  # every spec is parsed before any line is printed
    for spec in [args.monoid] if args.monoid else DEFAULT_MONOIDS:
        monoid = _monoid(spec, args)
        # No larger n has (n + 1) * |M| within the oracle budget.
        last = min(top, budget // monoid.size - 1)
        if last >= 0:
            cases.append((spec, monoid, last))
    if not cases:
        raise ValueError(f"no oracle case fits --max-oracle-size {budget}")
    for spec, monoid, last in cases:
        matrix = build_transfer_matrix(monoid, max_size=args.max_monoid_size)
        values = count_sequence(matrix, last).values
        for n, got, want in _oracle_terms(monoid, values, budget):
            if got != want:
                return _fail(f"{spec}: n={n} pipeline {got}, brute force {want}", 1)
            print(f"ok oracle {spec} n={n} count={got}")
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
    for m in range(7):
        got = set(eigenvalues(build_transfer_matrix(from_spec(f"chain:{m}"))))
        if got != chain_eigenvalues(m):
            return _fail(f"chain eigenvalue set mismatch at m={m}", 1)
    for m in range(1, 5):
        got = set(eigenvalues(build_transfer_matrix(from_spec(f"chain:{m} x chain:1"))))
        if got != ladder_eigenvalues(m):
            return _fail(f"ladder eigenvalue set mismatch at m={m}", 1)
    for k in range(1, 6):
        got = set(eigenvalues(build_transfer_matrix(from_spec(f"mk:{k}"))))
        if got != mk_eigenvalues(k):
            return _fail(f"mk eigenvalue set mismatch at k={k}", 1)
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


def cmd_verify(args) -> int:
    suites = {
        "triangular": _suite_triangular,
        "recurrence": _suite_recurrence,
        "oracle": _suite_oracle,
        "transfer-iso": _suite_transfer_iso,
        "closed-forms": _suite_closed_forms,
        "appendix": _suite_appendix,
    }
    if args.suite not in suites:
        return _fail(
            f"unknown suite {args.suite!r}; choose from {', '.join(VERIFY_SUITES)}", 2
        )
    return suites[args.suite](args)


def _add_common(parser, monoid_flag=True):
    if monoid_flag:
        parser.add_argument("--monoid", required=True, help="monoid spec string")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument(
        "--max-monoid-size",
        type=int,
        default=DEFAULT_MAX_MONOID_SIZE,
        help="submonoid enumeration budget",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submon",
        description="Exact submonoid and saturated transfer system enumeration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="counts of submonoids of monoid x chain")
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="largest chain length")
    p.add_argument("--oracle", action="store_true", help="cross-check small cases")
    p.add_argument("--max-oracle-size", type=int, default=oracle.DEFAULT_MAX_ORACLE_SIZE)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("spectrum", help="eigenvalues and exact coefficients")
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("matrix", help="dump the transfer matrix")
    _add_common(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("ogf", help="generating function of the counts")
    _add_common(p)
    p.set_defaults(func=cmd_ogf)

    p = sub.add_parser("polybernoulli", help="poly-Bernoulli number B(m, n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_polybernoulli)

    p = sub.add_parser("sattr", help="saturated transfer systems on a lattice")
    p.add_argument("--lattice", required=True, help="monoid spec of a lattice")
    # --n has no default: argparse lets a flag given its default value
    # join the other flag of a mutually exclusive group (--n 0 --list).
    query = p.add_mutually_exclusive_group()
    query.add_argument("--n", type=int, help="largest chain length (default 0)")
    query.add_argument("--list", action="store_true", help="dump the systems as JSON")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument(
        "--max-st-size", type=int, default=DEFAULT_MAX_ST_SIZE,
        help="largest lattice, in elements, that --list accepts",
    )
    p.add_argument(
        "--max-monoid-size", type=int, default=DEFAULT_MAX_MONOID_SIZE,
        help="largest lattice, in elements, that --n accepts",
    )
    p.set_defaults(func=cmd_sattr)

    p = sub.add_parser("verify", help="run a named invariant sweep")
    p.add_argument("suite", help=f"one of: {', '.join(VERIFY_SUITES)}")
    p.add_argument("--monoid", help="restrict the sweep to one monoid")
    p.add_argument("--n", type=int, help="largest chain length for the oracle suite")
    p.add_argument("--max-monoid-size", type=int, default=DEFAULT_MAX_MONOID_SIZE)
    p.add_argument("--max-oracle-size", type=int, default=oracle.DEFAULT_MAX_ORACLE_SIZE)
    p.add_argument("--max-st-size", type=int, default=DEFAULT_MAX_ST_SIZE)
    p.set_defaults(func=cmd_verify)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call, not at import,
    and then kept: a build takes about 2 ms and leaves hundreds of objects
    in reference cycles for the garbage collector."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    for flag in BUDGET_FLAGS:
        budget = getattr(args, flag.lstrip("-").replace("-", "_"), None)
        if budget is not None and budget < 1:
            return _fail(f"error: {flag} must be at least 1, got {budget}", 2)
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
