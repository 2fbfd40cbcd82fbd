import json
import tracemalloc
from itertools import permutations

import pytest

from submon import cli
from submon import monoid as monoid_module
from submon.cli import DEFAULT_LATTICES, main
from submon.monoid import from_spec, join_monoid, make_chain, monoid_to_json, semilattice_order
from submon.transfer import build_transfer_matrix
from submon.transfersystems import st_count_sequence


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


def test_ogf_output(capsys):
    code, out, _ = run(capsys, "ogf", "--monoid", "chain:1")
    assert code == 0
    assert out == "numerator,2,-3\ndenominator_roots,2,3\n"


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
    argv = ("sattr", "--lattice", "chain:8", "--n", "2")
    code, out, err = run(capsys, *argv)
    refused = "error: atom 'chain:8' exceeds the product budget of 8 elements\n"
    assert (code, out, err) == (3, "", refused)
    code, out, err = run(capsys, *argv, "--max-st-size", "9")
    assert (code, out, err) == run(capsys, "count", "--monoid", "chain:8", "--n", "2")
    assert code == 0


def test_sattr_list(capsys):
    code, out, _ = run(capsys, "sattr", "--lattice", "chain:1", "--list")
    assert code == 0
    assert json.loads(out) == {"lattice": "chain:1", "systems": [[], [[0, 1]]]}


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
    assert out.count("ok recurrence") == 8


def test_not_idempotent_exit_code(capsys):
    code, _, err = run(capsys, "spectrum", "--monoid", "cyclic:2")
    assert code == 4 and "idempotent" in err


def test_unknown_suite_exit_code(capsys):
    code, _, err = run(capsys, "verify", "bogus")
    assert code == 2 and "unknown suite" in err


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


def test_verify_oracle_stops_at_the_oracle_budget(capsys):
    # chain:1 has 2 elements, so n = 0..6 fit the 14-element budget.
    code, out, _ = run(capsys, "verify", "oracle", "--monoid", "chain:1", "--n", "6")
    assert code == 0 and out.count("ok oracle") == 7
    assert run(capsys, "verify", "oracle", "--monoid", "chain:1", "--n", "1000000000000") == (
        code, out, ""
    )


def test_verify_oracle_parallel(capsys):
    code, out, _ = run(
        capsys, "verify", "oracle", "--monoid", "chain:1", "--n", "2", "--jobs", "2"
    )
    assert code == 0
    assert out.count("ok oracle") == 3


@pytest.mark.parametrize(
    "table, identity",
    [
        ([[0, 1.7], [1.2, 1]], 0),
        ([[False, True], [True, True]], 0),
        ([[0, 1], [1, 1]], 0.0),
        ([0, 1], 0),
        (5, 0),
    ],
)
def test_json_table_rejects_non_integer_input(capsys, tmp_path, table, identity):
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps({"size": 2, "identity": identity, "table": table}))
    code, out, err = run(capsys, "count", "--monoid", f"file:{path}", "--n", "1")
    assert code == 2 and out == "" and err.startswith("error:")


def test_verify_oracle_rejects_jobs_below_one(capsys):
    code, out, err = run(capsys, "verify", "oracle", "--monoid", "chain:1", "--jobs", "0")
    assert code == 2 and out == "" and "--jobs" in err


def test_verify_oracle_rejects_runs_that_check_nothing(capsys):
    code, out, err = run(capsys, "verify", "oracle", "--monoid", "chain:1", "--n", "-1")
    assert code == 2 and out == "" and "--n" in err
    code, out, err = run(
        capsys, "verify", "oracle", "--monoid", "chain:1", "--max-oracle-size", "-1"
    )
    assert code == 2 and out == "" and "--max-oracle-size" in err


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
