"""Acceptance checks, one test per criterion.

Each test prints one pass/fail line; run with ``pytest -s`` to see them
as they execute.  Expected values are exact; the timed criteria assert
their stated wall-clock budgets.
"""

import time
from fractions import Fraction

from submon.closedforms import (
    abelian_group_count,
    chain_coefficient,
    chain_counts,
    chain_eigenvalues,
    ladder_eigenvalues,
    mk_eigenvalues,
    poly_bernoulli,
)
from submon.errors import SubmonError
from submon.monoid import from_spec, is_idempotent, join_monoid, semilattice_order
from submon.oracle import brute_force_submonoid_count
from submon.reference import SPECS, compare_reference
from submon.spectral import (
    chain_eigenmatrix,
    eigenvalues,
    spectrum_of,
    verify_recurrence,
)
from submon.submonoids import enumerate_submonoids, inclusion_order
from submon.transfer import CountSequence, build_transfer_matrix, count_sequence, walk_counts
from submon.transfersystems import st_count_sequence, verify_graph_isomorphism

from dense_table import dense

# Reference adjacency matrix of the 2x2 grid, row and column order given
# by the legend of subset masks below (element encoding (x, y) -> 2x + y).
# The legend is symmetric in the two middle elements; either labeling
# yields the same matrix in canonical order.
REFERENCE_GRID_LEGEND = (0b0001, 0b0101, 0b1001, 0b0011, 0b1011, 0b1101, 0b1111)
REFERENCE_GRID_MATRIX = (
    (2, 0, 0, 0, 0, 0, 0),
    (2, 3, 0, 0, 0, 0, 0),
    (2, 0, 3, 0, 0, 0, 0),
    (2, 0, 0, 3, 0, 0, 0),
    (2, 0, 2, 3, 4, 0, 0),
    (2, 3, 2, 0, 0, 4, 0),
    (2, 3, 2, 3, 3, 3, 6),
)

ORACLE_SPECS = (
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
)

RECURRENCE_SPECS = (
    "chain:0",
    "chain:1",
    "chain:2",
    "chain:3",
    "chain:1 x chain:1",
    "chain:2 x chain:1",
    "chain:3 x chain:1",
    "bool:3",
    "mk:2",
    "mk:3",
    "mk:4",
    "n5",
)

ISO_LATTICE_SPECS = (
    "chain:1",
    "chain:2",
    "chain:1 x chain:1",
    "chain:1 x chain:2",
    "mk:3",
)

# Monoids whose second-largest eigenvalue is small enough relative to the
# largest for the n = 30 versus n = 40 window to settle within 1e-3.
ASYMPTOTIC_SPECS = (
    "chain:0",
    "chain:1",
    "chain:2",
    "chain:1 x chain:1",
    "chain:2 x chain:1",
    "bool:3",
    "mk:3",
    "mk:4",
    "mk:5",
    "n5",
)


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}: {status}{suffix}"


def test_criterion_1_reference_grid_matrix():
    start = time.perf_counter()
    matrix = build_transfer_matrix(from_spec("chain:1 x chain:1"))
    index = matrix.lattice.index_of
    table = dense(matrix)
    permutation = [index[mask] for mask in REFERENCE_GRID_LEGEND]
    ok = all(
        table[permutation[r]][permutation[c]]
        == REFERENCE_GRID_MATRIX[r][c]
        for r in range(7)
        for c in range(7)
    )
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (reference grid matrix)", ok and elapsed < 1.0, f"{elapsed:.3f}s"
    )


def test_criterion_2_reference_table():
    start = time.perf_counter()
    problems = compare_reference(SPECS)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2 (reference table)",
        not problems and elapsed < 600.0,
        "; ".join(problems) or f"{len(SPECS)} monoids, {elapsed:.2f}s",
    )


def test_criterion_3_vanishing_coefficient():
    spectrum = spectrum_of(build_transfer_matrix(from_spec("mk:3")))
    index = spectrum.eigenvalues.index(4)
    ok = spectrum.coefficients[index] == 0 and spectrum.normalized[index] == 0
    _report("criterion 3 (vanishing coefficient at 4)", ok)


def test_criterion_4_poly_bernoulli_anchor():
    start = time.perf_counter()
    value = poly_bernoulli(9, 9)
    elapsed = time.perf_counter() - start
    ok = value == 44222780245622 and value // 2 == 22111390122811
    _report("criterion 4 (poly-Bernoulli anchor)", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    failures = []
    checked = 0
    for spec in ORACLE_SPECS:
        monoid = from_spec(spec)
        matrix = build_transfer_matrix(monoid)
        top = 12 // monoid.size - 1
        values = count_sequence(matrix, max(top, 0)).values
        for n in range(top + 1):
            expected = brute_force_submonoid_count(monoid, n)
            checked += 1
            if values[n] != expected:
                failures.append((spec, n, values[n], expected))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 5 (oracle equivalence)",
        not failures and elapsed < 120.0,
        str(failures) if failures else f"{checked} cases, {elapsed:.2f}s",
    )


def test_criterion_6_closed_form_cross_checks():
    failures = []
    for m in range(1, 5):
        for n in range(1, 5):
            matrix = build_transfer_matrix(from_spec(f"chain:{m - 1}"))
            count = count_sequence(matrix, n - 1).values[n - 1]
            if poly_bernoulli(m, n) != 2 * count:
                failures.append(f"poly-Bernoulli at ({m},{n})")
    for m in range(7):
        spectrum = spectrum_of(build_transfer_matrix(from_spec(f"chain:{m}")))
        for j, coefficient in zip(spectrum.eigenvalues, spectrum.coefficients):
            if chain_coefficient(m, j) != coefficient:
                failures.append(f"chain coefficient at m={m}, j={j}")
    for spec in ["cyclic:2", "cyclic:3", "cyclic:4", "cyclic:6",
                 "cyclic:2 x cyclic:2"]:
        group = from_spec(spec)
        chains = chain_counts(inclusion_order(enumerate_submonoids(group)))
        values = count_sequence(build_transfer_matrix(group), 10).values
        for n in range(11):
            if abelian_group_count(chains, n) != values[n]:
                failures.append(f"group count {spec} at n={n}")
    for m in range(7):
        got = set(eigenvalues(build_transfer_matrix(from_spec(f"chain:{m}"))))
        if got != chain_eigenvalues(m):
            failures.append(f"chain eigenvalues at m={m}")
    for m in range(1, 5):
        got = set(
            eigenvalues(build_transfer_matrix(from_spec(f"chain:{m} x chain:1")))
        )
        if got != ladder_eigenvalues(m):
            failures.append(f"ladder eigenvalues at m={m}")
    for k in range(1, 6):
        got = set(eigenvalues(build_transfer_matrix(from_spec(f"mk:{k}"))))
        if got != mk_eigenvalues(k):
            failures.append(f"mk eigenvalues at k={k}")
    _report(
        "criterion 6 (closed-form cross-checks)",
        not failures,
        "; ".join(failures),
    )


def test_criterion_7_recurrence():
    failures = []
    for spec in RECURRENCE_SPECS:
        monoid = from_spec(spec)
        assert is_idempotent(monoid)
        matrix = build_transfer_matrix(monoid)
        eigs = eigenvalues(matrix)
        # Walked terms only: count_sequence extends past D by this recurrence.
        seq = CountSequence(tuple(walk_counts(matrix, 2 * len(eigs) - 1)))
        ok, witness = verify_recurrence(eigs, seq)
        if not ok:
            failures.append(f"{spec} at n={witness}")
    _report("criterion 7 (recurrence)", not failures, "; ".join(failures))


def test_criterion_8_transfer_system_isomorphism():
    start = time.perf_counter()
    failures = []
    for spec in ISO_LATTICE_SPECS:
        order = semilattice_order(from_spec(spec))
        ok, details = verify_graph_isomorphism(order)
        if not ok:
            failures.append(f"{spec}: {details}")
            continue
        st_values = st_count_sequence(order, 3).values
        tm_values = count_sequence(
            build_transfer_matrix(join_monoid(order)), 3
        ).values
        if st_values != tm_values:
            failures.append(f"{spec}: counts {st_values} != {tm_values}")
    elapsed = time.perf_counter() - start
    _report(
        "criterion 8 (transfer system isomorphism)",
        not failures and elapsed < 300.0,
        "; ".join(failures) or f"{elapsed:.2f}s",
    )


def test_criterion_9_asymptotic_ratio():
    tolerance = Fraction(1, 1000)
    failures = []
    for spec in ASYMPTOTIC_SPECS:
        matrix = build_transfer_matrix(from_spec(spec))
        spectrum = spectrum_of(matrix)
        base = spectrum.eigenvalues[-1]
        limit = spectrum.coefficients[-1]
        values = count_sequence(matrix, 40).values
        r30 = Fraction(values[30], base**30)
        r40 = Fraction(values[40], base**40)
        if abs(r40 - r30) >= tolerance * abs(r40):
            failures.append(f"{spec}: ratio drift {float(abs(r40 - r30) / r40):.2e}")
        if abs(r40 - limit) >= tolerance * abs(limit):
            failures.append(f"{spec}: limit off by {float(abs(r40 - limit) / limit):.2e}")
    _report("criterion 9 (asymptotic ratio)", not failures, "; ".join(failures))


def test_criterion_10_chain_eigenmatrix():
    # Diagonalization and inverse row sums are asserted inside the call.
    failures = []
    for m in range(6):
        try:
            chain_eigenmatrix(m)
        except SubmonError as exc:
            failures.append(f"m={m}: {exc}")
    _report("criterion 10 (chain eigenmatrix)", not failures, "; ".join(failures))
