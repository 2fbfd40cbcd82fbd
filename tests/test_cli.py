import contextlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submon import cli, reference, transfersystems
from submon import monoid as monoid_module
from submon.errors import InvariantViolation
from submon.cli import DEFAULT_LATTICES, DEFAULT_MONOIDS, main
from submon.monoid import from_spec, join_monoid, make_chain, monoid_to_json, semilattice_order
from submon.transfer import TransferMatrix, build_transfer_matrix
from submon.transfersystems import st_count_sequence, verify_graph_isomorphism

from dense_table import dense


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_csv(capsys):
    code, out, err = run(capsys, "count", "--monoid", "chain:1 x chain:1", "--n", "2")
    assert code == 0 and err == ""
    assert out == "n,count\n0,7\n1,61\n2,449\n"


def test_count_is_deterministic(capsys):
    first = run(capsys, "count", "--monoid", "mk:3", "--n", "3")
    second = run(capsys, "count", "--monoid", "mk:3", "--n", "3")
    assert first == second


def test_count_json_with_oracle(capsys):
    code, out, _ = run(
        capsys, "count", "--monoid", "cyclic:2", "--n", "1",
        "--oracle", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"monoid": "cyclic:2", "values": [2, 5]}


def test_count_json(capsys):
    code, out, err = run(capsys, "count", "--monoid", "cyclic:2", "--n", "6", "--format", "json")
    assert (code, err) == (0, "")
    assert out == '{"monoid": "cyclic:2", "values": [2, 5, 12, 28, 64, 144, 320]}\n'


def test_count_oracle_reports_skipped_terms(capsys):
    # Only n = 0..2 fit the default 14-element oracle budget on |M| = 4.
    _, plain_out, plain_err = run(capsys, "count", "--monoid", "chain:3", "--n", "6")
    assert plain_err == ""
    code, out, err = run(capsys, "count", "--monoid", "chain:3", "--n", "6", "--oracle")
    assert code == 0 and out == plain_out
    assert err == (
        "oracle checked n=0..2; skipped 4 of 7 terms above --max-oracle-size 14\n"
    )
    code, out, err = run(
        capsys, "count", "--monoid", "chain:3", "--n", "1", "--oracle",
        "--max-oracle-size", "3",
    )
    assert code == 0 and out == "n,count\n0,8\n1,73\n"
    assert err == (
        "oracle checked no terms; skipped 2 of 2 terms above --max-oracle-size 3\n"
    )


def test_count_trivial_chain(capsys):
    code, out, _ = run(capsys, "count", "--monoid", "chain:0", "--n", "5")
    assert code == 0
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == [
        "1", "2", "4", "8", "16", "32",
    ]


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--monoid", "chain:1 x chain:1")
    assert code == 0
    assert out.splitlines() == [
        "eigenvalue,coefficient,normalized",
        "2,1/2,4",
        "3,1,-3",
        "4,-12,-48",
        "6,35/2,-420",
    ]


def test_spectrum_includes_vanishing_row(capsys):
    code, out, _ = run(capsys, "spectrum", "--monoid", "mk:3")
    assert code == 0
    assert "4,0,0" in out.splitlines()


def test_spectrum_n5_eigenvalues(capsys):
    code, out, _ = run(capsys, "spectrum", "--monoid", "n5", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["eigenvalue"] for r in rows] == [2, 3, 4, 5, 6, 8]


def test_matrix_json(capsys):
    code, out, _ = run(capsys, "matrix", "--monoid", "chain:1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["legend"] == ["0x1", "0x3"]
    assert payload["rows"] == [[2, 0], [2, 3]]


@pytest.mark.parametrize("spec", [*DEFAULT_MONOIDS, "cyclic:2 x mk:4"])
def test_matrix_prints_the_table_of_the_shipped_rows(capsys, spec):
    # The table is streamed row by row; the JSON is still json.dumps of the
    # whole payload, separators and final newline included.
    matrix = build_transfer_matrix(from_spec(spec))
    legend, table = [hex(m) for m in matrix.lattice.members], dense(matrix)
    csv = "".join(f"{mask},{','.join(map(str, row))}\n" for mask, row in zip(legend, table))
    assert run(capsys, "matrix", "--monoid", spec) == (0, f"mask,{','.join(legend)}\n{csv}", "")
    payload = {"monoid": spec, "size": matrix.size, "legend": legend, "rows": [list(row) for row in table]}
    assert run(capsys, "matrix", "--monoid", spec, "--format", "json") == (0, json.dumps(payload) + "\n", "")


def test_matrix_reads_each_row_once_and_never_entries(capsys, monkeypatch):
    spec = "cyclic:2 x mk:4"
    k, row, calls = build_transfer_matrix(from_spec(spec)).size, TransferMatrix.row, []

    def counted(self, i):
        calls.append(i)
        return row(self, i)

    def refuse(self):
        raise AssertionError("matrix read entries")

    monkeypatch.setattr(TransferMatrix, "row", counted)
    monkeypatch.setattr(TransferMatrix, "entries", property(refuse))
    for fmt in ("csv", "json"):
        calls.clear()
        code, out, err = run(capsys, "matrix", "--monoid", spec, "--format", fmt)
        assert (code, err) == (0, "") and out.endswith("\n")
        assert calls == list(range(k))


def test_ogf_output(capsys):
    code, out, _ = run(capsys, "ogf", "--monoid", "chain:1")
    assert code == 0
    assert out == "numerator,2,-3\ndenominator_roots,2,3\n"


@pytest.mark.parametrize(
    "spec, roots", [("chain:1", "[2, 3]"), ("cyclic:2", "[2, 2]")]
)
def test_ogf_json(capsys, spec, roots):
    code, out, err = run(capsys, "ogf", "--monoid", spec, "--format", "json")
    assert (code, err) == (0, "")
    assert out == (
        f'{{"monoid": "{spec}", "numerator": [2, -3], "denominator_roots": {roots}}}\n'
    )


def test_polybernoulli(capsys):
    code, out, _ = run(capsys, "polybernoulli", "--m", "9", "--n", "9")
    assert code == 0 and out.strip() == "44222780245622"


def test_polybernoulli_large_n(capsys):
    # Deep enough that a recursive Stirling triangle overflows the stack.
    code, out, _ = run(capsys, "polybernoulli", "--m", "2", "--n", "600")
    assert code == 0 and out.strip() == str(2 * 3**600 - 2**600)


def test_sattr_counts(capsys):
    code, out, _ = run(capsys, "sattr", "--lattice", "chain:1", "--n", "1")
    assert code == 0
    assert out == "n,count\n0,2\n1,7\n"


@pytest.mark.parametrize("spec", DEFAULT_LATTICES)
def test_sattr_counts_submonoids_of_the_join_monoid(capsys, spec):
    code, out, err = run(capsys, "sattr", "--lattice", spec, "--n", "6")
    assert (code, out, err) == run(capsys, "count", "--monoid", spec, "--n", "6")
    assert code == 0 and err == ""
    # The cylinder route, an independent count of the same systems.
    cylinder = st_count_sequence(semilattice_order(from_spec(spec)), 6).values
    assert [int(line.split(",")[1]) for line in out.splitlines()[1:]] == list(cylinder)


def test_sattr_counts_json(capsys):
    code, out, _ = run(capsys, "sattr", "--lattice", "chain:1", "--n", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"lattice": "chain:1", "values": [2, 7]}


def test_sattr_counts_budget(capsys):
    # --n parses and counts under --max-monoid-size, as count does.
    argv = ("sattr", "--lattice", "chain:8", "--n", "2")
    code, out, err = run(capsys, *argv, "--max-monoid-size", "8")
    refused = "error: atom 'chain:8' exceeds the product budget of 8 elements\n"
    assert (code, out, err) == (3, "", refused)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == run(capsys, "count", "--monoid", "chain:8", "--n", "2")
    assert code == 0


@pytest.mark.parametrize("spec", ["chain:2 x chain:2", "bool:4"])
def test_sattr_n_counts_lattices_over_the_st_budget(capsys, spec):
    # 9 and 16 elements: over --max-st-size, within the count budget.
    code, out, err = run(capsys, "sattr", "--lattice", spec, "--n", "3")
    assert (code, out, err) == run(capsys, "count", "--monoid", spec, "--n", "3")
    assert code == 0 and err == ""
    if spec == "chain:2 x chain:2":
        assert out == "n,count\n0,115\n1,6547\n2,234366\n3,6716329\n"


def test_sattr_n_refuses_an_atom_over_the_monoid_budget(capsys):
    # The spec is parsed under --max-monoid-size, so no larger lattice is counted.
    code, out, err = run(capsys, "sattr", "--lattice", "chain:20", "--n", "2")
    refused = "error: atom 'chain:20' exceeds the product budget of 20 elements\n"
    assert (code, out, err) == (3, "", refused)


def test_sattr_n_refuses_a_file_lattice_over_the_monoid_budget(capsys, tmp_path):
    path = tmp_path / "chain20.json"
    path.write_text(json.dumps(monoid_to_json(make_chain(20))))
    code, out, err = run(capsys, "sattr", "--lattice", f"file:{path}", "--n", "2")
    assert (code, out, err) == (3, "", "error: JSON monoid has 21 elements, budget 20\n")


def test_sattr_list_refuses_a_lattice_over_the_st_budget(capsys):
    # --list still enumerates under --max-st-size: 9 elements exit 3.
    code, out, err = run(capsys, "sattr", "--lattice", "chain:2 x chain:2", "--list")
    assert (code, out, err) == (3, "", "error: product has 9 elements, budget 8\n")


def test_sattr_n_and_transfer_iso_share_one_build(capsys):
    # Both build the join monoid's matrix under the default budget of
    # 20, so transfer-iso enumerates no submonoid again.
    build_transfer_matrix.cache_clear()
    assert run(capsys, "sattr", "--lattice", "chain:1 x chain:2", "--n", "3")[0] == 0
    misses = build_transfer_matrix.cache_info().misses
    assert run(capsys, "verify", "transfer-iso", "--monoid", "chain:1 x chain:2")[0] == 0
    assert build_transfer_matrix.cache_info().misses == misses


@pytest.mark.parametrize("n", ["0", "2"])
def test_sattr_refuses_n_with_list(capsys, n):
    # --list used to drop --n without a word and exit 0.
    for argv in (("--n", n, "--list"), ("--list", "--n", n)):
        code, out, err = _run_exiting(capsys, ("sattr", "--lattice", "chain:2", *argv))
        assert (code, out) == (2, "") and "not allowed with argument" in err


def test_sattr_list(capsys):
    code, out, _ = run(capsys, "sattr", "--lattice", "chain:1", "--list")
    assert code == 0
    assert json.loads(out) == {"lattice": "chain:1", "systems": [[], [[0, 1]]]}


def test_sattr_list_refuses_format_csv(capsys):
    # --list used to print its JSON under --format csv and exit 0.
    code, out, err = run(capsys, "sattr", "--lattice", "chain:1", "--list", "--format", "csv")
    assert (code, out) == (2, "") and "--list writes JSON only" in err
    listed = run(capsys, "sattr", "--lattice", "chain:1", "--list")
    assert run(capsys, "sattr", "--lattice", "chain:1", "--list", "--format", "json") == listed


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "count", "--monoid", "junk:1", "--n", "1")
    assert code == 2 and "junk" in err


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "count", "--monoid", "bool:5", "--n", "1")
    assert code == 3 and "budget" in err


def test_atom_over_budget_exits_before_its_table_is_built(capsys):
    # A 1501-element chain's table took about 0.9 s and 70 MB before the
    # budget check; now the spec is refused before anything is built,
    # under the command's own 20-element enumeration budget.
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "count", "--monoid", "chain:1500", "--n", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert err == "error: atom 'chain:1500' exceeds the product budget of 20 elements\n"
    assert peak < 1 << 20


def test_n5_is_refused_by_the_spec_budget(capsys, monkeypatch):
    # n5 was the one atom the spec budget missed: its table was built and
    # enumeration refused it, as "monoid has 5 elements, enumeration budget 3".
    def refuse():
        raise AssertionError("built n5 over the budget")

    monkeypatch.setattr(monoid_module, "make_n5", refuse)
    code, out, err = run(capsys, "count", "--monoid", "n5", "--n", "2", "--max-monoid-size", "3")
    assert (code, out, err) == (3, "", "error: atom 'n5' exceeds the product budget of 3 elements\n")


def test_file_atom_over_the_enumeration_budget_is_never_validated(capsys, tmp_path, monkeypatch):
    # The cubic validation of a 401-element table took 4.9 s before the
    # 20-element budget of count refused it.
    path = tmp_path / "chain400.json"
    path.write_text(json.dumps(monoid_to_json(make_chain(400))))

    def refuse(monoid):
        raise AssertionError("validated a table over the budget")

    monkeypatch.setattr(monoid_module, "validate", refuse)
    code, out, err = run(capsys, "count", "--monoid", f"file:{path}", "--n", "1")
    assert (code, out, err) == (3, "", "error: JSON monoid has 401 elements, budget 20\n")


def test_verify_recurrence_reads_walked_terms_only(capsys, monkeypatch):
    # count_sequence extends its terms past D by the recurrence the suite
    # checks, so terms taken from it would check the tail against itself.
    def refuse(*args, **kwargs):
        raise AssertionError("the recurrence suite read count_sequence")

    monkeypatch.setattr(cli, "count_sequence", refuse)
    code, out, err = run(capsys, "verify", "recurrence")
    assert code == 0, err
    assert out.count("ok recurrence") == len(cli.DEFAULT_MONOIDS)
    assert "ok recurrence cyclic:2\n" in out


@pytest.mark.parametrize("spec, n", [("chain:1", 1), ("chain:2", 2), ("mk:3", 4)])
def test_verify_recurrence_fails_with_a_root_dropped(capsys, monkeypatch, spec, n):
    generating_function = cli.ogf

    def dropped(matrix):
        return SimpleNamespace(denominator_roots=generating_function(matrix).denominator_roots[:-1])

    monkeypatch.setattr(cli, "ogf", dropped)
    assert run(capsys, "verify", "recurrence", "--monoid", spec) == (
        1, "", f"{spec}: recurrence fails at n={n}\n"
    )


def _drop_a_spec(table):
    del table["mk:3"]
    return ["mk:3: missing from the bundled table"]


def _drop_a_row(table):
    table["n5"].pop()
    return ["n5: 6 eigenvalues computed, 5 in the table"]


def _raise_a_coefficient(table):
    rows = table["bool:3"]
    got = rows[1]
    rows[1] = (got[0], got[1] + 1, got[2])
    return [f"bool:3: computed {got}, table has {rows[1]}"]


@pytest.mark.parametrize("tamper", [_drop_a_spec, _drop_a_row, _raise_a_coefficient])
def test_verify_appendix_names_each_kind_of_mismatch(capsys, monkeypatch, tamper):
    table = reference.load_reference_spectra()
    problems = tamper(table)
    monkeypatch.setattr(reference, "load_reference_spectra", lambda: table)
    assert run(capsys, "verify", "appendix") == (1, "", "\n".join(problems) + "\n")


def test_not_idempotent_exit_code(capsys):
    code, _, err = run(capsys, "spectrum", "--monoid", "cyclic:2")
    assert code == 4 and "idempotent" in err


def test_unknown_suite_exit_code(capsys):
    code, out, err = _run_exiting(capsys, ("verify", "bogus"))
    assert (code, out) == (2, "") and "invalid choice: 'bogus'" in err


def test_readme_lists_the_registered_suites():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listed = ": " + ", ".join(f"`{name}`" for name in cli.SUITES) + ".  "
    assert listed in readme.replace("\n", " ")


@pytest.mark.parametrize("suite", ["appendix", "closed-forms"])
def test_fixed_table_suites_refuse_a_monoid(capsys, suite):
    # The suite checks its own fixed table, so a --monoid would go unread.
    assert run(capsys, "verify", suite, "--monoid", "chain:1") == (
        2, "", f"error: verify {suite} checks a fixed table and takes no --monoid\n"
    )


# A value for each verify flag, each within its budget.
VERIFY_FLAG_VALUES = {
    "--monoid": "chain:1",
    "--n": "1",
    "--max-monoid-size": "20",
    "--max-oracle-size": "4",
    "--max-st-size": "8",
}


def test_every_suite_names_the_flags_it_reads():
    for _, flags in cli.SUITES.values():
        assert set(flags) <= set(VERIFY_FLAG_VALUES)


@pytest.mark.parametrize(
    "suite, flag",
    [
        (suite, flag)
        for suite, (_, reads) in cli.SUITES.items()
        for flag in VERIFY_FLAG_VALUES
        if flag not in reads
    ],
)
def test_verify_suites_refuse_flags_they_do_not_read(capsys, suite, flag):
    # Every suite used to accept every flag and ignore the ones it does
    # not read; a flag given at its default value is refused too.
    what = "takes" if cli.SUITES[suite][1] else "checks a fixed table and takes"
    assert run(capsys, "verify", suite, flag, VERIFY_FLAG_VALUES[flag]) == (
        2, "", f"error: verify {suite} {what} no {flag}\n"
    )


@pytest.mark.parametrize("suite", [suite for suite, (_, reads) in cli.SUITES.items() if reads])
def test_verify_suites_accept_every_flag_they_read(capsys, suite):
    argv = [arg for flag in cli.SUITES[suite][1] for arg in (flag, VERIFY_FLAG_VALUES[flag])]
    code, out, err = run(capsys, "verify", suite, *argv)
    assert (code, err) == (0, "") and out.startswith("ok ")


# Each sattr and count query with the budget flag it reads, and a budget
# flag it does not read.  sattr without --n counts n = 0, as --n does.
SATTR, COUNT = ("sattr", "--lattice", "chain:2"), ("count", "--monoid", "chain:2", "--n", "2")
BUDGET_QUERIES = [
    ((*SATTR, "--n", "2"), "sattr --n", "--max-monoid-size", "--max-st-size"),
    (SATTR, "sattr --n", "--max-monoid-size", "--max-st-size"),
    ((*SATTR, "--list"), "sattr --list", "--max-st-size", "--max-monoid-size"),
    ((*COUNT, "--oracle"), None, "--max-oracle-size", None),
    (COUNT, "count without --oracle", "--max-monoid-size", "--max-oracle-size"),
]


@pytest.mark.parametrize(
    "argv, query, unread", [(a, q, u) for a, q, _, u in BUDGET_QUERIES if u]
)
def test_queries_refuse_budget_flags_they_do_not_read(capsys, argv, query, unread):
    # These flags used to be accepted and ignored, even at a value that
    # would have refused the input.
    assert run(capsys, *argv, unread, "8") == (2, "", f"error: {query} takes no {unread}\n")


@pytest.mark.parametrize("argv, read", [(a, r) for a, _, r, _ in BUDGET_QUERIES])
def test_queries_accept_the_budget_flags_they_read(capsys, argv, read):
    code, out, err = run(capsys, *argv, read, "12")
    assert code == 0 and out == run(capsys, *argv)[1] and out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "triangular", "--monoid", "chain:2"),
        ("verify", "recurrence", "--monoid", "mk:2"),
        ("verify", "oracle", "--monoid", "chain:2", "--n", "2"),
        ("verify", "transfer-iso", "--monoid", "chain:1 x chain:1"),
        ("verify", "appendix",),
    ],
)
def test_verify_suites_pass(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert "ok" in out


CLOSED_FORMS = (
    "ok closed-forms poly-bernoulli grid\n"
    "ok closed-forms chain coefficients\n"
    "ok closed-forms abelian groups\n"
    "ok closed-forms eigenvalue sets\n"
)


def test_verify_closed_forms_prints_one_line_per_identity(capsys):
    assert run(capsys, "verify", "closed-forms") == (
        0, CLOSED_FORMS + "ok closed-forms chain eigenmatrix\n", ""
    )


def test_verify_closed_forms_fails_on_a_tampered_chain_row(capsys, monkeypatch):
    # Add 1 to the first weight of chain:3's top row.  Only the eigenmatrix
    # check reads row: the quotient calls ideal_row directly.
    row = TransferMatrix.row

    def tampered(self, i):
        (j, w), *rest = row(self, i)
        top = self.lattice.monoid.size == 4 and i == self.size - 1
        return ((j, w + top), *rest)

    monkeypatch.setattr(TransferMatrix, "row", tampered)
    code, out, err = run(capsys, "verify", "closed-forms")
    assert (code, out, err) == (
        1, CLOSED_FORMS, "chain eigenmatrix mismatch at m=3: eigenmatrix identity fails at (7, 0)\n"
    )


def test_verify_oracle_stops_at_the_oracle_budget(capsys):
    # chain:1 has 2 elements, so n = 0..6 fit the 14-element budget.
    code, out, _ = run(capsys, "verify", "oracle", "--monoid", "chain:1", "--n", "6")
    assert code == 0 and out.count("ok oracle") == 7 and "skip" not in out
    skip = "skip oracle chain:1 n=7..1000000000000: (n + 1)·|M| above --max-oracle-size 14\n"
    assert run(capsys, "verify", "oracle", "--monoid", "chain:1", "--n", "1000000000000") == (
        code, out + skip, ""
    )


def test_verify_oracle_names_the_specs_it_drops(capsys):
    # mk:3 and n5 have 5 elements: not even n = 0 fits a budget of 4.
    code, out, err = run(capsys, "verify", "oracle", "--max-oracle-size", "4")
    assert (code, err) == (0, "")
    assert [line for line in out.splitlines() if line.startswith("skip")] == [
        "skip oracle mk:3: no term within --max-oracle-size 4",
        "skip oracle n5: no term within --max-oracle-size 4",
    ]
    assert out.count("ok oracle") == 14


@pytest.mark.parametrize(
    "table, identity",
    [
        ([[0, 1.7], [1.2, 1]], 0),
        ([[False, True], [True, True]], 0),
        ([[0, 1], [1, 1]], 0.0),
        ([0, 1], 0),
        (5, 0),
        # Tables that break a monoid axiom are malformed input too.
        ([[0, 1], [0, 1]], 0),
        ([[0, 1, 2], [1, 2, 2], [2, 2, 1]], 0),
        ([[0, 1], [1, 1]], 1),
    ],
)
def test_json_table_rejects_non_integer_input(capsys, tmp_path, table, identity):
    path = tmp_path / "monoid.json"
    size = len(table) if isinstance(table, list) else 2
    path.write_text(json.dumps({"size": size, "identity": identity, "table": table}))
    code, out, err = run(capsys, "count", "--monoid", f"file:{path}", "--n", "1")
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "size, table",
    [(True, [[0]]), (2.0, [[0, 1], [1, 1]]), ("2", [[0, 1], [1, 1]])],
)
def test_json_size_must_be_an_integer(capsys, tmp_path, size, table):
    # A bool or float size used to compare equal to the row count and load.
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps({"size": size, "identity": 0, "table": table}))
    code, out, err = run(capsys, "count", "--monoid", f"file:{path}", "--n", "1")
    assert (code, out, err) == (2, "", "error: JSON monoid: size must be an integer\n")


def test_verify_triangular_reports_the_check_it_skips(capsys):
    code, out, err = run(capsys, "verify", "triangular", "--monoid", "cyclic:2")
    assert (code, err) == (0, "")
    assert out == (
        "ok triangular cyclic:2\n"
        "skip triangular cyclic:2 strict-increase: the monoid is not idempotent\n"
    )
    assert run(capsys, "verify", "triangular", "--monoid", "chain:2") == (0, "ok triangular chain:2\n", "")
    code, out, _ = run(capsys, "verify", "triangular")
    assert code == 0 and out.count("skip triangular") == 3


# Row 4 of the 2x2 grid's W is ((0, 2), (1, 3), (3, 2), (4, 4)): members
# 0, 1 and 3 lie inside member 4, and rows 1 and 3 have diagonal 3.
NOT_INSIDE = "row 4's nonzero columns are not the members inside it"


@pytest.mark.parametrize(
    "row4, message",
    [
        (((1, 3), (3, 2), (4, 4)), NOT_INSIDE),
        (((0, 0), (1, 3), (3, 2), (4, 4)), NOT_INSIDE),
        (((0, 2), (1, 3), (2, 1), (3, 2), (4, 4)), NOT_INSIDE),
        (((0, 2), (1, 3), (3, 2), (4, 3)), "diagonal not strictly increasing at (1,4)"),
        (((0, 2), (1, 3), (3, 2), (5, 1), (4, 4)), "nonzero entry above diagonal at (4,5)"),
        (((0, 2), (1, 3), (3, 2), (4, 1)), "diagonal entry 4 is 1"),
        (((0, 2), (1, 3), (3, 2)), "diagonal entry 4 is 0"),
    ],
)
def test_verify_triangular_rejects_a_tampered_row(capsys, monkeypatch, row4, message):
    row = TransferMatrix.row
    monkeypatch.setattr(TransferMatrix, "row", lambda self, i: row4 if i == 4 else row(self, i))
    code, out, err = run(capsys, "verify", "triangular", "--monoid", "chain:1 x chain:1")
    assert (code, out, err) == (1, "", f"chain:1 x chain:1: {message}\n")


def _plant_a_wrong_cylinder_weight(monkeypatch):
    """Raise the first weight of the last cylinder row by one."""
    keep = transfersystems._st_data

    def tampered(order):
        systems, rows = keep(order)
        (j, w), *rest = rows[-1]
        return systems, rows[:-1] + (((j, w + 1), *rest),)

    monkeypatch.setattr(transfersystems, "_st_data", tampered)


def _plant_a_non_bijective_chi(monkeypatch):
    """Map every system to the bottom element's submonoid."""
    monkeypatch.setattr(transfersystems, "_chi_masks", lambda order, systems: [1] * len(systems))


def test_graph_isomorphism_names_a_wrong_cylinder_weight(monkeypatch):
    _plant_a_wrong_cylinder_weight(monkeypatch)
    ok, details = verify_graph_isomorphism(semilattice_order(from_spec("chain:2")))
    label, r_pairs, q_pairs, st, w = details
    assert (ok, label, st) == (False, "weight mismatch", w + 1)
    assert r_pairs == [(0, 1), (0, 2), (1, 2)]


def test_graph_isomorphism_names_a_chi_that_is_no_bijection(monkeypatch):
    _plant_a_non_bijective_chi(monkeypatch)
    ok, details = verify_graph_isomorphism(semilattice_order(from_spec("chain:2")))
    assert (ok, details) == (False, ("chi is not a bijection onto the submonoids", [1] * 4))


@pytest.mark.parametrize(
    "plant, detail",
    [
        (_plant_a_wrong_cylinder_weight, "('weight mismatch', [(0, 1), (0, 2), (1, 2)], "),
        (_plant_a_non_bijective_chi, "('chi is not a bijection onto the submonoids', [1, 1, 1, 1])"),
    ],
)
def test_verify_transfer_iso_fails_on_a_planted_fault(capsys, monkeypatch, plant, detail):
    plant(monkeypatch)
    code, out, err = run(capsys, "verify", "transfer-iso", "--monoid", "chain:2")
    assert (code, out) == (1, "")
    assert err.startswith(f"chain:2: {detail}") and err.endswith("\n")


def test_main_maps_an_invariant_violation_to_exit_1(capsys, monkeypatch):
    def violated(*args):
        raise InvariantViolation("a planted violation")

    monkeypatch.setattr(cli, "count_sequence", violated)
    assert run(capsys, "count", "--monoid", "chain:1", "--n", "2") == (
        1, "", "error: a planted violation\n"
    )


def test_oracle_mismatches_exit_1_at_the_first_wrong_term(capsys, monkeypatch):
    # count --oracle and verify oracle check the same terms and say so
    # each in their own words.
    brute_force = cli.brute_force_submonoid_count
    monkeypatch.setattr(
        cli, "brute_force_submonoid_count",
        lambda monoid, n, max_size: brute_force(monoid, n, max_size=max_size) + (n == 1),
    )
    assert run(capsys, "count", "--monoid", "chain:1", "--n", "3", "--oracle") == (
        1, "", "oracle mismatch at n=1: pipeline 7, brute force 8\n"
    )
    assert run(capsys, "verify", "oracle", "--monoid", "chain:1") == (
        1, "ok oracle chain:1 n=0 count=2\n", "chain:1: n=1 pipeline 7, brute force 8\n"
    )


def test_verify_oracle_refuses_a_budget_that_fits_no_case(capsys):
    # chain:3 has 4 elements, so not even n = 0 fits 3.
    assert run(capsys, "verify", "oracle", "--monoid", "chain:3", "--max-oracle-size", "3") == (
        2, "", "error: no oracle case fits --max-oracle-size 3\n"
    )


def _plant_a_poly_bernoulli_fault(monkeypatch):
    poly_bernoulli = cli.poly_bernoulli
    monkeypatch.setattr(
        cli, "poly_bernoulli", lambda m, n: poly_bernoulli(m, n) + 2 * ((m, n) == (2, 3))
    )
    return "", "poly-Bernoulli mismatch at (2,3): 24 != 23"


def _plant_a_chain_coefficient_fault(monkeypatch):
    chain_coefficient = cli.chain_coefficient
    monkeypatch.setattr(
        cli, "chain_coefficient", lambda m, j: chain_coefficient(m, j) + ((m, j) == (2, 3))
    )
    return "ok closed-forms poly-bernoulli grid\n", "chain coefficient mismatch at m=2, j=3"


def _plant_a_group_that_is_not_one(monkeypatch):
    monkeypatch.setattr(cli, "is_group", lambda monoid: monoid.size != 4)
    return (
        "ok closed-forms poly-bernoulli grid\nok closed-forms chain coefficients\n",
        "cyclic:4 is not a group",
    )


def _plant_a_group_count_fault(monkeypatch):
    count = cli.abelian_group_count
    monkeypatch.setattr(cli, "abelian_group_count", lambda chains, n: count(chains, n) + (n == 5))
    return (
        "ok closed-forms poly-bernoulli grid\nok closed-forms chain coefficients\n",
        "cyclic:2: group count mismatch at n=5",
    )


def _plant_an_eigenvalue_set_fault(monkeypatch):
    monkeypatch.setattr(cli, "mk_eigenvalues", lambda k: {2} | {2**i + 2 for i in range(k)})
    return (
        "ok closed-forms poly-bernoulli grid\nok closed-forms chain coefficients\n"
        "ok closed-forms abelian groups\n",
        "mk eigenvalue set mismatch at k=1",
    )


@pytest.mark.parametrize(
    "plant",
    [
        _plant_a_poly_bernoulli_fault,
        _plant_a_chain_coefficient_fault,
        _plant_a_group_that_is_not_one,
        _plant_a_group_count_fault,
        _plant_an_eigenvalue_set_fault,
    ],
)
def test_verify_closed_forms_fails_on_a_planted_fault(capsys, monkeypatch, plant):
    out, message = plant(monkeypatch)
    assert run(capsys, "verify", "closed-forms") == (1, out, message + "\n")


def test_verify_oracle_takes_no_jobs_flag(capsys):
    # The sweep runs in this process: no flag starts a worker process.
    code, out, err = _run_exiting(capsys, ("verify", "oracle", "--monoid", "chain:1", "--jobs", "2"))
    assert (code, out) == (2, "") and "unrecognized arguments: --jobs 2" in err


def test_importing_the_cli_loads_no_process_pool():
    script = (
        "import sys, submon.cli\n"
        "sys.exit(sorted(m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))) or None)\n"
    )
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True
    )
    assert (done.returncode, done.stderr) == (0, "")


def test_a_cold_cli_import_loads_no_record_or_table_machinery():
    # -S keeps site's .pth files from preloading anything; the reference
    # table's readers load only when the table is read.
    script = (
        "import sys, submon.cli\n"
        "heavy = ('dataclasses', 'inspect', 'csv', 'importlib.resources', 'typing')\n"
        "sys.exit(sorted(set(heavy) & set(sys.modules)) or None)\n"
    )
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True
    )
    assert (done.returncode, done.stderr) == (0, "")


def test_well_formed_queries_load_no_argparse_or_fractions():
    # argparse, and the gettext and locale its first message pulls in,
    # load only for help and usage errors; fractions only where a
    # coefficient is made; json, and the re and enum it pulls in, only
    # for JSON output and file: specs.
    script = (
        "import sys, submon.cli as cli\n"
        "assert cli.main(['count', '--monoid', 'chain:1', '--n', '2']) == 0\n"
        "assert cli.main(['sattr', '--lattice', 'chain:1', '--n', '2']) == 0\n"
        "lazy = ('argparse', 'gettext', 'locale', 'fractions', 'decimal', 'json', 're', 'enum')\n"
        "sys.exit(sorted(set(lazy) & set(sys.modules)) or None)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "n,count\n0,2\n1,7\n2,23\n" * 2
    spectrum = [sys.executable, "-S", "-m", "submon", "spectrum", "--monoid", "chain:1 x chain:1"]
    done = subprocess.run(spectrum, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "eigenvalue,coefficient,normalized\n2,1/2,4\n3,1,-3\n4,-12,-48\n6,35/2,-420\n", ""
    )


def test_a_file_table_counts_as_its_spec_does_under_dash_o(tmp_path):
    # A file: table gets its automorphisms from the table, as its spec does.
    spec, path = "mk:4 x chain:1", tmp_path / "monoid.json"
    path.write_text(json.dumps(monoid_to_json(from_spec(spec))))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    file_out, spec_out = (
        subprocess.run(
            [sys.executable, "-O", "-m", "submon", "count", "--monoid", monoid, "--n", "30"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        for monoid in (f"file:{path}", spec)
    )
    assert file_out == spec_out and len(file_out.splitlines()) == 32


def test_verify_oracle_rejects_runs_that_check_nothing(capsys):
    code, out, err = run(capsys, "verify", "oracle", "--monoid", "chain:1", "--n", "-1")
    assert code == 2 and out == "" and "--n" in err
    code, out, err = run(
        capsys, "verify", "oracle", "--monoid", "chain:1", "--max-oracle-size", "-1"
    )
    assert code == 2 and out == "" and "--max-oracle-size" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("sattr", "--lattice", "chain:2", "--n", "2", "--max-st-size", "-5"), "--max-st-size"),
        (("sattr", "--lattice", "chain:2", "--list", "--max-st-size", "0"), "--max-st-size"),
        (
            ("count", "--monoid", "chain:2", "--n", "2", "--oracle", "--max-oracle-size", "-1"),
            "--max-oracle-size",
        ),
        (("count", "--monoid", "chain:2", "--n", "2", "--max-monoid-size", "0"), "--max-monoid-size"),
        (("spectrum", "--monoid", "chain:2", "--max-monoid-size", "-3"), "--max-monoid-size"),
        (("verify", "transfer-iso", "--max-st-size", "0"), "--max-st-size"),
        (("verify", "triangular", "--max-monoid-size", "-1"), "--max-monoid-size"),
        (("sattr", "--lattice", "chain:2", "--n", "2", "--max-monoid-size", "0"), "--max-monoid-size"),
    ],
)
def test_budgets_below_one_exit_2_naming_the_flag(capsys, argv, flag):
    # A budget below 1 refused every spec with exit 3, or, for the oracle,
    # checked no term and exited 0.
    code, out, err = run(capsys, *argv)
    budget = argv[argv.index(flag) + 1]
    assert (code, out, err) == (2, "", f"error: {flag} must be at least 1, got {budget}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--monoid", "chain:2", "--n", "-1"),
        ("sattr", "--lattice", "chain:2", "--n", "-1"),
        ("verify", "oracle", "--monoid", "chain:1", "--n", "-1"),
    ],
)
def test_a_negative_chain_length_exits_2_naming_the_flag(capsys, argv):
    # count and sattr named count_sequence's n_max, not the flag.
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: --n must be at least 0, got -1\n")


def _minimal_argv(name):
    """A valid argv of command ``name``: its first suite, if it takes
    one, and each required flag, an int at its floor and any other a
    spec."""
    command = cli.COMMANDS[name]
    argv = [name, *list(command.get("suite", {}).get("choices", ()))[:1]]
    for flag, spec in command["flags"].items():
        if spec.get("required"):
            argv += [flag, str(spec["min"]) if spec.get("type") is int else "chain:1"]
    return argv


INT_FLAGS = [
    (name, flag, spec)
    for name, command in cli.COMMANDS.items()
    for flag, spec in command["flags"].items()
    if spec.get("type") is int
]
INT_FLAG_IDS = [f"{name} {flag}" for name, flag, _ in INT_FLAGS]


@pytest.mark.parametrize("name, flag, spec", INT_FLAGS, ids=INT_FLAG_IDS)
def test_every_int_flag_has_a_floor(name, flag, spec):
    assert type(spec.get("min")) is int


@pytest.mark.parametrize("name, flag, spec", INT_FLAGS, ids=INT_FLAG_IDS)
def test_each_int_flag_below_its_floor_exits_2_naming_it(capsys, name, flag, spec):
    argv, low = _minimal_argv(name), str(spec["min"] - 1)
    if flag in argv:
        argv[argv.index(flag) + 1] = low
    else:
        argv += [flag, low]
    message = f"error: {flag} must be at least {spec['min']}, got {low}\n"
    assert run(capsys, *argv) == (2, "", message)


@pytest.mark.parametrize(
    "argv, message",
    [
        # The first flag out of range in help order is named: count's --n
        # comes before --max-oracle-size.
        (
            ("count", "--monoid", "chain:1", "--n", "-1", "--oracle", "--max-oracle-size", "0"),
            "--n must be at least 0, got -1",
        ),
        # B(m, n) used to refuse a negative argument without naming it.
        (("polybernoulli", "--m", "-1", "--n", "2"), "--m must be at least 0, got -1"),
    ],
)
def test_floor_messages_name_the_first_flag_out_of_range(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_budget_of_one_is_accepted(capsys):
    code, out, _ = run(capsys, "count", "--monoid", "chain:0", "--n", "1", "--max-monoid-size", "1")
    assert (code, out) == (0, "n,count\n0,1\n1,2\n")


@pytest.mark.parametrize("spec", ["mk:2 x chain:1", "chain:2 x chain:1"])
def test_cached_queries_print_the_same_in_any_order(capsys, spec):
    # The queries share one cached build per monoid; whichever runs first
    # builds it, and only matrix reads full rows.
    queries = [
        ("spectrum", "--monoid", spec),
        ("ogf", "--monoid", spec),
        ("count", "--monoid", spec, "--n", "12"),
        ("matrix", "--monoid", spec),
    ]
    fresh = []
    for argv in queries:
        build_transfer_matrix.cache_clear()
        fresh.append(run(capsys, *argv))
    assert all(code == 0 and out and err == "" for code, out, err in fresh)
    for order in permutations(range(len(queries))):
        build_transfer_matrix.cache_clear()
        for i in order + order:
            assert run(capsys, *queries[i]) == fresh[i]


# Every command, a usage error (exit 2), a budget below 1 (exit 2), an
# enumeration budget error (exit 3) and a domain error (exit 4).
MIXED_QUERIES = [
    ("count", "--monoid", "chain:2 x chain:1", "--n", "5"),
    ("count", "--monoid", "chain:1"),
    ("spectrum", "--monoid", "mk:3", "--format", "json"),
    ("count", "--monoid", "bool:5", "--n", "1"),
    ("matrix", "--monoid", "chain:1 x chain:1"),
    ("ogf", "--monoid", "chain:2"),
    ("spectrum", "--monoid", "cyclic:2"),
    ("polybernoulli", "--m", "3", "--n", "4"),
    ("sattr", "--lattice", "chain:1 x chain:1", "--n", "4"),
    ("sattr", "--lattice", "n5", "--list"),
    ("count", "--monoid", "mk:2", "--n", "2", "--max-monoid-size", "0"),
    ("verify", "recurrence", "--monoid", "chain:2"),
    ("verify", "no-such-suite"),
    ("frobnicate",),
    ("count", "--monoid", "chain:2 x chain:1", "--n", "5"),
]


def _run_exiting(capsys, argv):
    """``run``, with argparse's SystemExit read as the exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_appendix_checks_every_table_row(capsys):
    code, out, _ = run(capsys, "verify", "appendix")
    assert code == 0 and out.count("ok appendix") == 11
    code, out, err = _run_exiting(capsys, ("verify", "appendix", "--slow"))
    assert code == 2 and out == "" and "--slow" in err


def test_one_parser_per_process_prints_as_fresh_parsers(capsys, monkeypatch):
    # The reader and a fresh argparse parser per query print the same.
    kept = [_run_exiting(capsys, argv) for argv in MIXED_QUERIES]
    assert {code for code, _, _ in kept} == {0, 2, 3, 4}
    builds = []

    def fresh():
        builds.append(1)
        return cli.build_parser()

    monkeypatch.setattr(cli, "_parser", fresh)
    declined = [argv for argv in MIXED_QUERIES if cli.read_argv(argv) is None]
    assert [_run_exiting(capsys, argv) for argv in MIXED_QUERIES] == kept
    assert len(builds) == len(declined) == 3
    monkeypatch.setattr(cli, "read_argv", lambda argv: None)
    assert [_run_exiting(capsys, argv) for argv in MIXED_QUERIES] == kept
    assert len(builds) == len(declined) + len(MIXED_QUERIES)


def test_parser_is_built_on_first_use_only(capsys, monkeypatch):
    # A well-formed argv builds no parser; the first declined one builds
    # the one that every later declined argv reuses.
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for argv in (["polybernoulli", "--m", "1", "--n", "1"], ["count", "--monoid", "chain:0", "--n", "1"]):
        assert main(argv) == 0
    assert builds == []
    for argv in (["count", "--mon", "chain:0", "--n", "1"], ["count", "--monoid=chain:0", "--n", "1"]):
        assert main(argv) == 0
    assert len(builds) == 1
    assert _run_exiting(capsys, ("count", "--monoid", "chain:0"))[0] == 2
    assert len(builds) == 1
    # Importing the CLI builds no parser.
    script = "import submon.cli as cli; raise SystemExit(cli._parser.cache_info().currsize)"
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--monoid", "chain:1", "--n", "2", "--bogus"],
        ["count", "--mon", "chain:1", "--n", "2"],
        ["count", "-h"],
        ["count", "--monoid=chain:1", "--n", "2"],
        ["count", "--monoid", "chain:1", "--n", "2", "--n", "3"],
        ["count", "--monoid", "chain:1", "--n", "-1"],
        ["count", "--monoid", "chain:1", "--n", "two"],
        ["count", "--monoid", "chain:1", "--n", "2", "--format", "xml"],
        ["count", "--monoid", "chain:1"],
        ["sattr", "--lattice", "chain:1", "--n", "2", "--list"],
        ["verify", "--monoid", "chain:1", "triangular"],
    ],
)
def test_the_reader_declines_every_other_form(argv):
    assert cli.read_argv(argv) is None


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["submon", "polybernoulli", "--m", "2", "--n", "3"])
    assert main() == 0 and capsys.readouterr().out == "46\n"
    monkeypatch.setattr(sys, "argv", ["submon", "polybernoulli", "--m", "2"])
    with pytest.raises(SystemExit) as exit:
        main()
    assert exit.value.code == 2 and "required: --n" in capsys.readouterr().err


def _argparse_vars(argv):
    """``vars`` of the kept parser's namespace for ``argv``, or None
    where argparse exits: help and usage errors."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parser().parse_args(list(argv)))
        except SystemExit:
            return None


def _smoke_argvs():
    """The argv of every ``python ... -m submon`` line of the CI workflow."""
    ci = Path(__file__).parents[1] / ".github" / "workflows" / "ci.yml"
    return [
        shlex.split(line.split("-m submon", 1)[1].split("||")[0])
        for line in ci.read_text(encoding="utf-8").splitlines()
        if "-m submon" in line
    ]


def _benchmark_argvs():
    """Every query any seed of any benchmark workload can send, read from
    perfbench's ``workloads.pool``."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [argv for name in workloads.BATCHES for argv in workloads.pool(name)]


# CI lines that argparse takes but the reader declines: it takes flags
# spelled in full only, and no value starting with "-".
DECLINED = [
    ("count", "--mon", "chain:1", "--n", "2"),
    ("count", "--monoid", "chain:1", "--n", "-1"),
    ("polybernoulli", "--m", "-1", "--n", "2"),
]


def test_the_reader_reads_every_well_formed_query_as_argparse_does():
    queries = _benchmark_argvs()
    assert len(queries) == 102
    smoke = _smoke_argvs()
    assert ["--help"] in smoke and all(list(argv) in smoke for argv in DECLINED)
    read = 0
    for argv in map(tuple, queries + smoke + MIXED_QUERIES):
        want = _argparse_vars(argv)
        if want is None or argv in DECLINED:
            assert cli.read_argv(argv) is None, argv
        else:
            assert vars(cli.read_argv(argv)) == want, argv
            read += 1
    assert read > len(queries)


_FLAGS = sorted({flag for command in cli.COMMANDS.values() for flag in command["flags"]})
_VALUES = st.one_of(
    st.integers(-3, 30).map(str),
    st.sampled_from(["", "-x", "--", "chain:1 x chain:1", "csv", "json", "xml", " 3", "1.5", "oracle"]),
)
_TOKENS = st.one_of(_VALUES, st.sampled_from([*_FLAGS, "--bogus", "-h", "--help", "-n", "--m=1"]))


def _value(spec):
    """A value for a flag: most often one it takes, else any value."""
    if "choices" in spec:
        valid = st.sampled_from(spec["choices"])
    elif spec.get("type") is int:
        valid = st.integers(0, 30).map(str)
    else:
        valid = st.sampled_from(["chain:1", "chain:1 x chain:1"])
    return st.one_of(valid, valid, _VALUES)


@st.composite
def _token_argvs(draw):
    """A command's flags, the required ones more often, with their values,
    in any order; then a few edits: a token inserted, a flag repeated,
    abbreviated or ``=`` joined to its value, or a value dropped."""
    name = draw(st.sampled_from([*cli.COMMANDS, "frobnicate"]))
    command = cli.COMMANDS.get(name, cli.COMMANDS["count"])
    head = [name]
    if "suite" in command or draw(st.integers(0, 9)) == 0:
        head.append(draw(st.sampled_from([*cli.SUITES, "bogus"])))
    items = [
        [flag] if "action" in spec else [flag, draw(_value(spec))]
        for flag, spec in command["flags"].items()
        if draw(st.integers(0, 3)) < (3 if spec.get("required") else 1)
    ]
    items = draw(st.permutations(items))
    for edit in draw(st.lists(st.sampled_from("irajd"), max_size=2)):
        at = draw(st.integers(0, len(items)))
        if edit == "i":
            items.insert(at, draw(st.lists(_TOKENS, min_size=1, max_size=2)))
        elif items:
            item = items[at % len(items)]
            if edit == "r":
                items.insert(at, list(item))
            elif edit == "a":
                item[0] = item[0][: draw(st.integers(0, len(item[0])))]
            elif edit == "j":
                item[:] = ["=".join(item)]
            else:
                del item[1:]
    return head + [token for item in items for token in item]


@settings(max_examples=400, deadline=None)
@given(_token_argvs())
def test_the_reader_declines_or_reads_as_argparse_does(argv):
    reading = cli.read_argv(argv)
    if reading is not None:
        assert vars(reading) == _argparse_vars(argv)


def test_full_row_queries_keep_no_rows_in_the_cache(capsys):
    # matrix and the verify suites read every row of W for the call only.
    build_transfer_matrix.cache_clear()
    spec, lattice = "mk:2 x chain:1", "chain:1 x chain:1"
    for argv in [
        ("matrix", "--monoid", spec),
        ("verify", "triangular", "--monoid", spec),
        ("verify", "transfer-iso", "--monoid", lattice),
    ]:
        assert run(capsys, *argv)[0] == 0
    misses = build_transfer_matrix.cache_info().misses
    for monoid in (from_spec(spec), join_monoid(semilattice_order(from_spec(lattice)))):
        assert set(vars(build_transfer_matrix(monoid))) <= {"lattice", "orbits", "quotient"}
    assert build_transfer_matrix.cache_info().misses == misses
