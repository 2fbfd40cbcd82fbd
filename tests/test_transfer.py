import gc
import json
import os
import subprocess
import sys
import tracemalloc
from functools import cache, partial
from itertools import compress, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_oracle import small_commutative_monoids, union_closed_semilattices

from submon import submonoids, transfer
from submon.cli import DEFAULT_LATTICES, DEFAULT_MONOIDS
from submon.errors import InvariantViolation, SizeLimitExceeded
from submon.monoid import (
    CACHE_SIZE,
    from_spec,
    is_idempotent,
    join_monoid,
    make_chain,
    make_cyclic_group,
    make_product,
    monoid_to_json,
    semilattice_order,
)
from submon.oracle import brute_force_submonoid_count
from submon.spectral import eigenvalues, ogf, spectrum_of
from submon.submonoids import (
    DEFAULT_MAX_MONOID_SIZE,
    bits_of,
    enumerate_submonoids,
    ideal_row,
)
from submon.transfer import (
    Orbits,
    TransferMatrix,
    annihilator,
    build_transfer_matrix,
    count_sequence,
    walk,
    walk_counts,
    _automorphism_generators,
    _moves,
    _orbits,
    _packed_solve,
    _shape,
    _typed,
)

from check_swap import swap_checks
from dense_table import dense
from reference_counts import brute_force_projection_count
from reference_quotient import flat, paired, reference_row, shape_free, weight_row

GRID = make_product(make_chain(1), make_chain(1))

# The 2x2 grid matrix in the canonical (popcount, mask) order; derived by
# ideal counting on each submonoid and cross-checked against the brute
# force oracle below.
GRID_MATRIX = (
    (2, 0, 0, 0, 0, 0, 0),
    (2, 3, 0, 0, 0, 0, 0),
    (2, 0, 3, 0, 0, 0, 0),
    (2, 0, 0, 3, 0, 0, 0),
    (2, 3, 0, 2, 4, 0, 0),
    (2, 0, 3, 2, 0, 4, 0),
    (2, 3, 3, 2, 3, 3, 6),
)


def test_matrix_trivial_and_chain():
    assert dense(build_transfer_matrix(make_chain(0))) == ((2,),)
    assert dense(build_transfer_matrix(make_chain(1))) == ((2, 0), (2, 3))
    assert build_transfer_matrix(make_chain(1)).entries == (((0, 2),), ((0, 2), (1, 3)))


def test_matrix_grid():
    matrix = build_transfer_matrix(GRID)
    assert matrix.lattice.members == (1, 3, 5, 9, 11, 13, 15)
    assert dense(matrix) == GRID_MATRIX


def test_count_sequence_values():
    grid = build_transfer_matrix(GRID)
    assert count_sequence(grid, 2).values == (7, 61, 449)
    chain = build_transfer_matrix(make_chain(1))
    assert count_sequence(chain, 2).values == (2, 7, 23)
    trivial = build_transfer_matrix(make_chain(0))
    assert count_sequence(trivial, 5).values == (1, 2, 4, 8, 16, 32)


def test_count_sequence_matches_oracle():
    for spec in ["chain:2", "cyclic:2", "cyclic:4", "mk:2"]:
        m = from_spec(spec)
        matrix = build_transfer_matrix(m)
        values = count_sequence(matrix, 3).values
        for n in range(4):
            if (n + 1) * m.size <= 12:
                assert values[n] == brute_force_submonoid_count(m, n)


def _full_power(matrix, n, vector):
    """W^n v over every row of W."""
    for vector in walk(matrix.entries, vector, n):
        pass
    return vector


def _power_entry(matrix, n, row, col):
    """Entry (row, col) of W^n: submonoids of M x [n] whose top-layer
    projection is ``row``'s submonoid and whose next one is ``col``'s."""
    return _full_power(matrix, n, [int(j == col) for j in range(matrix.size)])[row]


def test_counts_by_projection_entries():
    grid = build_transfer_matrix(GRID)
    full = grid.lattice.index_of[0b1111]
    assert _power_entry(grid, 1, full, full) == 6
    assert _power_entry(grid, 1, 0, full) == 0

    chain = build_transfer_matrix(make_chain(1))
    assert _power_entry(chain, 2, 1, 1) == 9


def test_projection_counts_partition_the_total():
    m = make_chain(1)
    matrix = build_transfer_matrix(m)
    k = matrix.size
    for n in range(3):
        row_sums = _full_power(matrix, n, [1] * k)
        for a in range(k):
            mask = matrix.lattice.members[a]
            assert row_sums[a] == brute_force_projection_count(m, n, mask)
        assert sum(row_sums) == count_sequence(matrix, n).values[n]


def _growth(matrix):
    """Counts grow like n**(m - 1) * base**n: base is the largest root of
    the annihilator and m its multiplicity; also the number of
    submonoids whose diagonal is base."""
    rows, sizes = matrix.quotient
    roots = annihilator(rows)
    base = roots[-1]
    attaining = sum(s for (_, weights), s in zip(rows, sizes) if weights[-1] == base)
    return base, attaining, roots.count(base) - 1


def test_asymptotics_idempotent():
    assert _growth(build_transfer_matrix(GRID)) == (6, 1, 0)


def test_asymptotics_group():
    assert _growth(build_transfer_matrix(make_cyclic_group(2))) == (2, 2, 1)
    # Four nested subgroups, all with two ideals: a path of length three.
    assert _growth(build_transfer_matrix(make_cyclic_group(8))) == (2, 4, 3)


def test_asymptotics_multiplicity_one_for_idempotent():
    for spec in ["chain:3", "mk:3", "n5", "chain:2 x chain:1"]:
        assert _growth(build_transfer_matrix(from_spec(spec)))[1:] == (1, 0)


def test_count_sequence_rejects_decreasing_counts():
    # A zero weight on the trivial monoid's only entry would make
    # S_1 = 0 < S_0; the solve refuses it before any term is counted.
    lattice = enumerate_submonoids(make_chain(0))
    trivial = Orbits((0,), (0,))
    # Set on a fresh matrix: a built one is cached and shared.
    tampered = TransferMatrix(lattice=lattice, orbits=trivial)
    vars(tampered)["quotient"] = flat(shape_free((((0, 0),),).__getitem__, trivial))
    with pytest.raises(InvariantViolation, match="quotient row 0 has a weight or diagonal below 1"):
        count_sequence(tampered, 1)


def test_count_sequence_checks_every_term_is_nondecreasing(monkeypatch):
    # The walk itself rejects a weight below 1, so plant the fault in the
    # terms it returns.
    monkeypatch.setattr(transfer, "walk_counts", lambda matrix, steps: [2, 7, 5][: steps + 1])
    with pytest.raises(InvariantViolation, match="nondecreasing at n=2"):
        count_sequence(build_transfer_matrix(make_chain(2)), 2)


def test_count_sequence_rejects_a_negative_length():
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        count_sequence(build_transfer_matrix(make_chain(1)), -1)


@pytest.mark.parametrize(
    "entries, message",
    [
        ((((1, 2), (0, 2)), ((0, 2), (1, 3))), "not below"),  # row 0 points at row 1
        ((((0, 2),), ((1, 3), (0, 2))), "diagonal"),  # diagonal pair first, not last
        ((((0, 2),), ((0, 2),)), "diagonal"),  # row 1 lacks its diagonal
        ((((0, 2),), ()), "diagonal"),  # an empty row
    ],
)
def test_count_sequence_rejects_broken_row_contract(entries, message, monkeypatch):
    lattice = enumerate_submonoids(make_chain(1))
    # A fresh matrix lumps these rows in place of W's into its quotient,
    # by the reference lumping, which checks them.
    monkeypatch.setattr(
        transfer, "_lump", lambda lattice, orbits: flat(shape_free(entries.__getitem__, orbits))
    )
    tampered = TransferMatrix(lattice=lattice, orbits=Orbits((0, 1), (0, 1)))
    with pytest.raises(InvariantViolation, match=message):
        count_sequence(tampered, 1)


@cache
def _matrix(spec):
    return build_transfer_matrix(from_spec(spec))


def _reference_rows(lattice):
    """Every row of W by :func:`reference_row`, in the form of ``entries``."""
    return tuple(reference_row(lattice, i) for i in range(len(lattice)))


@cache
def _entries(spec):
    """Every reference row of W, built once per spec."""
    return _reference_rows(_matrix(spec).lattice)


def _trivial(k):
    ids = tuple(range(k))
    return Orbits(ids, ids)


# The monoids of the long-walk and spectrum jobs.
BENCHMARK_MONOIDS = (
    "cyclic:2 x mk:5",
    "cyclic:2 x chain:3 x chain:1",
    "cyclic:2 x bool:3",
    "cyclic:2 x mk:6",
    "cyclic:3 x mk:4",
    "chain:4 x chain:1",
    "mk:9",
    "chain:5 x chain:1",
    "mk:4 x chain:1",
    "bool:3",
)


# The lumped walk against the walk over every row of W: every default
# monoid, and the monoids and lattices of the long-walk and spectrum jobs.
@pytest.mark.parametrize(
    "spec, n",
    [(spec, 8) for spec in DEFAULT_MONOIDS] + [(spec, 4) for spec in BENCHMARK_MONOIDS],
)
def test_lumped_counts_match_full_walk(spec, n):
    matrix = _matrix(spec)
    full = walk(_entries(spec), [1] * matrix.size, n)
    assert list(count_sequence(matrix, n).values[1:]) == [sum(v) for v in full]


@pytest.mark.parametrize("spec, k, classes", [("mk:9", 522, 11), ("cyclic:2 x mk:6", 877, 44)])
def test_lumping_shrinks_symmetric_monoids(spec, k, classes):
    lumped = shape_free(_entries(spec).__getitem__, _trivial(k))
    rows, sizes = _matrix(spec).quotient
    assert (sum(sizes), len(rows)) == (k, classes)
    # Lumping the representatives' rows over their orbits gives the same classes.
    assert (rows, sizes) == flat(lumped)
    # The quotient keeps the row contract: columns ascending and below the
    # row, one weight more than columns, the diagonal last.
    # Each row's weights take the narrowest typecode that holds them.
    for c, (columns, weights) in enumerate(rows):
        assert list(columns) == sorted(set(columns)) and all(j < c for j in columns)
        assert len(weights) == len(columns) + 1
        assert columns.typecode == "I"
        assert 256 ** (weights.itemsize // 2) <= max(weights) < 256**weights.itemsize


@pytest.mark.parametrize(
    "values, width",
    [((1, 255), 1), ((256, 1), 2), ((2**16 - 1, 2**16), 4), ((2**32,), 8), ((2**64 - 1, 3), 8)],
)
def test_typed_weights_take_the_narrowest_typecode(values, width):
    assert (_typed(values).itemsize, list(_typed(values))) == (width, list(values))


def test_weights_past_64_bits_lump_into_tuples(monkeypatch):
    # No submonoid within the default budget has a weight of 2**64, so
    # every weight and diagonal is scaled by 2**64.  Signatures scale
    # alike, so the classes are those of the scaled reference rows, each
    # row's weights a tuple, and the annihilator and the solve read them.
    matrix = _matrix("chain:2 x chain:1")
    roots, keep = matrix.roots, transfer.ideal_row

    def scaled(lattice, i):
        diagonal, where, weights = keep(lattice, i)
        return diagonal << 64, where, [w << 64 for w in weights]

    monkeypatch.setattr(transfer, "ideal_row", scaled)
    big = TransferMatrix(matrix.lattice, matrix.orbits)
    rows, sizes = big.quotient
    reference = shape_free(
        lambda i: tuple((j, w << 64) for j, w in reference_row(matrix.lattice, i)), matrix.orbits
    )
    assert (rows, sizes) == flat(reference)
    assert all(type(weights) is tuple for _, weights in rows)
    assert big.roots == tuple(v << 64 for v in roots)
    assert walk_counts(big, 3) == _walked(big, 3)


def test_the_quotient_keeps_at_most_12_bytes_per_nonzero():
    # chain:3 x chain:3 lumps into 466 classes, past 256, the largest int
    # that CPython shares; kept as (column, weight) pairs, each with its
    # own int for a class id above 256, the quotient took 68 bytes per
    # nonzero, and as flat typed arrays it takes about 9.
    matrix = _matrix("chain:3 x chain:3")
    matrix.lattice.containing  # the lattice's cache, not the quotient's
    fresh = TransferMatrix(matrix.lattice, matrix.orbits)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rows, _ = fresh.quotient
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    nonzeros = sum(len(weights) for _, weights in rows)
    assert (len(rows), nonzeros) == (466, 31054)
    assert kept <= 12 * nonzeros


SYMMETRIC = [
    s for s in DEFAULT_MONOIDS + BENCHMARK_MONOIDS if _automorphism_generators(from_spec(s).table)
]


@pytest.mark.parametrize("spec", SYMMETRIC)
def test_orbit_rows_match_a_build_without_automorphisms(spec):
    matrix = _matrix(spec)
    # The reference keeps the lattice with one orbit per member, and its
    # quotient lumps every row of W; the rows are shared with the other
    # full-row tests instead of being built again.
    plain = TransferMatrix(matrix.lattice, _trivial(matrix.size))
    assert matrix.quotient == flat(shape_free(_entries(spec).__getitem__, plain.orbits))
    full = walk(_entries(spec), [1] * plain.size, 6)
    assert list(count_sequence(matrix, 6).values[1:]) == [sum(v) for v in full]


@pytest.mark.parametrize("spec", ["bool:4", "mk:12"])
def test_orbit_rows_match_plain_rows_on_large_groups(spec):
    # W(sA, sB) == W(A, B) for each generator s, by the row routine on both
    # sides: A the last member of each orbit and every 50th, B every 10th
    # subset of A among the members, and A itself.  Every row of W would
    # take seconds here.
    matrix = build_transfer_matrix(from_spec(spec))
    monoid, members = matrix.lattice.monoid, matrix.lattice.members
    last = {o: i for i, o in enumerate(matrix.orbits.orbit_of)}
    samples = {}
    for i in set(last.values()) | set(range(0, len(members), 50)):
        below = [j for j in range(i) if not members[j] & ~members[i]]
        columns = ((j, members[j]) for j in below[::10] + [i])
        samples[i] = tuple(weight_row(monoid, members[i], columns))
    needed = {j for row in samples.values() for j, _ in row}
    for g in _automorphism_generators(monoid.table):
        moved = {j: sum(1 << g[x] for x in bits_of(members[j])) for j in needed}
        for i, row in samples.items():
            assert moved[i] in matrix.lattice.index_of
            assert tuple(weight_row(monoid, moved[i], ((j, moved[j]) for j, _ in row))) == row


@pytest.mark.parametrize(
    "spec, k, orbits",
    [
        ("mk:9", 522, 12),
        ("cyclic:2 x mk:6", 877, 47),
        ("chain:5 x chain:1", 697, 697),
        # Symmetries that no single atom shows: equal atoms that are not
        # adjacent, and mk:2 == bool:2, whose square is bool:4.
        ("chain:1 x chain:2 x chain:1", 449, 259),
        ("mk:2 x mk:2", 2480, 184),
    ],
)
def test_orbit_counts(spec, k, orbits):
    matrix = _matrix(spec)
    assert (matrix.size, len(matrix.orbits.reps)) == (k, orbits)
    # Each representative is its orbit's first member.
    reps = matrix.orbits.reps
    assert all(reps[o] <= i for i, o in enumerate(matrix.orbits.orbit_of))


@pytest.mark.parametrize(
    "spec, budget",
    [
        ("bool:4", DEFAULT_MAX_MONOID_SIZE),
        ("mk:9", DEFAULT_MAX_MONOID_SIZE),
        ("cyclic:2 x mk:6", DEFAULT_MAX_MONOID_SIZE),
        # 36 and 72 elements: masks wider than 32 and than 64 bits.
        ("cyclic:2 x cyclic:18", 36),
        ("cyclic:2 x cyclic:36", 72),
    ],
)
def test_bulk_moves_match_the_per_member_map(spec, budget):
    # Each generator g moves member A to g(A) = {g[x] : x in A}, one bit
    # at a time: the bulk field moves must give the same member indices.
    monoid = from_spec(spec, budget)
    lattice = enumerate_submonoids(monoid, max_size=budget)
    generators = _automorphism_generators(monoid.table)
    index_of = lattice.index_of
    reference = [
        tuple(index_of[sum(1 << g[x] for x in bits_of(b))] for b in lattice.members)
        for g in generators
    ]
    assert _moves(lattice, generators) == reference
    matrix = build_transfer_matrix(monoid, max_size=budget)
    assert matrix.orbits == _orbits(reference, len(lattice))
    if spec == "cyclic:2 x cyclic:36":
        assert (matrix.size, len(matrix.orbits.reps)) == (24, 18)


@pytest.mark.parametrize(
    "spec", [s for s in DEFAULT_MONOIDS + BENCHMARK_MONOIDS if s not in SYMMETRIC]
)
def test_no_generators_keep_one_row_per_member(spec):
    # Without generators every member is its own orbit.
    matrix = _matrix(spec)
    assert matrix.orbits == _trivial(matrix.size)


def test_join_and_file_monoids_get_the_group_of_their_spec(tmp_path):
    path = tmp_path / "mk9.json"
    path.write_text(json.dumps(monoid_to_json(from_spec("mk:9"))))
    cases = [
        (join_monoid(semilattice_order(from_spec("mk:4"))), "mk:4", 21, 7),
        (from_spec(f"file:{path}"), "mk:9", 522, 12),
    ]
    for monoid, spec, k, orbits in cases:
        expected = _matrix(spec).orbits
        # A fresh build: the spec's equal table shares its cache entry.
        build_transfer_matrix.cache_clear()
        found = build_transfer_matrix(monoid).orbits
        assert (len(found.orbit_of), len(found.reps)) == (k, orbits)
        assert found == expected


def _full_group(monoid):
    """Every automorphism of ``monoid``, by trying every permutation."""
    n, table = monoid.size, monoid.table
    return [
        p for p in permutations(range(n))
        if all(p[table[x][y]] == table[p[x]][p[y]] for x in range(n) for y in range(n))
    ]


def _check_generators(monoid):
    """Each generator is a bijection that respects every product."""
    n, table = monoid.size, monoid.table
    for g in _automorphism_generators(table):
        assert sorted(g) == list(range(n))
        assert all(g[table[x][y]] == table[g[x]][g[y]] for x in range(n) for y in range(n))


@pytest.mark.parametrize("spec", DEFAULT_MONOIDS + BENCHMARK_MONOIDS + ("bool:4", "mk:12"))
def test_generators_are_automorphisms(spec):
    _check_generators(from_spec(spec))


def _check_against_the_full_group(monoid):
    _check_generators(monoid)
    # The generators' orbits on the submonoids are the full group's.
    matrix = build_transfer_matrix(monoid)
    members, index_of = matrix.lattice.members, matrix.lattice.index_of
    orbit_of = matrix.orbits.orbit_of
    group = _full_group(monoid)
    for i, a in enumerate(members):
        images = {index_of[sum(1 << g[x] for x in bits_of(a))] for g in group}
        assert images == {j for j, o in enumerate(orbit_of) if o == orbit_of[i]}


@pytest.mark.parametrize(
    "monoid",
    [from_spec(s) for s in DEFAULT_MONOIDS]
    + [join_monoid(semilattice_order(from_spec(s))) for s in DEFAULT_LATTICES],
)
def test_generators_give_the_orbits_of_the_full_group(monoid):
    assert monoid.size <= 7
    _check_against_the_full_group(monoid)


@settings(max_examples=20, deadline=None)
@given(small_commutative_monoids(max_size=7))
def test_generators_give_the_orbits_of_the_full_group_on_random_monoids(monoid):
    _check_against_the_full_group(monoid)


def test_build_is_cached_and_shared():
    monoid = from_spec("mk:3")
    assert build_transfer_matrix(monoid) is build_transfer_matrix(from_spec("mk:3"))
    # Keyed by (monoid, max_size), however the budget is passed.
    budget = DEFAULT_MAX_MONOID_SIZE
    assert build_transfer_matrix(monoid, budget) is build_transfer_matrix(monoid, max_size=budget)
    assert build_transfer_matrix(monoid, budget) is build_transfer_matrix(monoid)
    assert build_transfer_matrix.cache_info().maxsize == CACHE_SIZE


def test_cache_key_names_the_budget():
    monoid = from_spec("mk:3")
    build_transfer_matrix(monoid, max_size=30)
    with pytest.raises(SizeLimitExceeded):
        build_transfer_matrix(monoid, max_size=monoid.size - 1)


def _first_of_each_shape(matrix):
    """The representatives whose shape no earlier representative had."""
    table, members = matrix.lattice.monoid.table, matrix.lattice.members
    seen, firsts = set(), []
    for r in matrix.orbits.reps:
        key = _shape(table, members[r])
        if key not in seen:
            seen.add(key)
            firsts.append(r)
    return firsts


def _counting_rows(monkeypatch):
    """The members whose rows the quotient sums, in the order summed."""
    summed = []

    def counted(lattice, i):
        summed.append(lattice.members[i])
        return ideal_row(lattice, i)

    monkeypatch.setattr(transfer, "ideal_row", counted)
    return summed


@pytest.mark.parametrize("spec", ["chain:2 x chain:1", "mk:4", "chain:3 x chain:1", "bool:3"])
def test_counts_and_spectra_never_build_rows(spec, monkeypatch):
    # Together they sum one row per distinct shape among the
    # representatives, in representative order, and keep none; no row
    # of W is built.
    summed = _counting_rows(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("built or rebuilt rows")

    monkeypatch.setattr(TransferMatrix, "row", refuse)
    build_transfer_matrix.cache_clear()
    matrix = build_transfer_matrix(from_spec(spec))
    spectrum_of(matrix)
    ogf(matrix)
    firsts = _first_of_each_shape(matrix)
    assert summed == [matrix.lattice.members[r] for r in firsts]
    assert len(firsts) < len(matrix.orbits.reps)
    assert set(vars(matrix)) == {"lattice", "orbits", "quotient", "roots", "solved", "series"}

    # A second query on the cached monoid neither enumerates nor sums rows.
    monkeypatch.setattr(transfer, "enumerate_submonoids", refuse)
    monkeypatch.setattr(transfer, "ideal_row", refuse)
    again = build_transfer_matrix(from_spec(spec))
    assert again is matrix
    assert count_sequence(again, 3).values == count_sequence(matrix, 3).values


@pytest.mark.parametrize(
    "spec, orbits, rows, classes",
    [
        ("chain:5 x chain:1", 697, 106, 106),
        ("chain:4 x chain:1", 227, 48, 48),
        ("cyclic:2 x chain:3 x chain:1", 450, 172, 166),
        ("bool:4", 184, 143, 139),
    ],
)
def test_rows_built_per_shape(spec, orbits, rows, classes, monkeypatch):
    matrix = _matrix(spec)
    summed = _counting_rows(monkeypatch)
    quotient, _ = TransferMatrix(matrix.lattice, matrix.orbits).quotient
    assert (len(matrix.orbits.reps), len(summed), len(quotient)) == (orbits, rows, classes)


# The shape-keyed quotient, summed over ideals, against lumping every
# representative's reference row by its signature alone.
@pytest.mark.parametrize(
    "spec",
    DEFAULT_MONOIDS
    + BENCHMARK_MONOIDS
    + ("chain:3 x chain:1", "chain:3 x chain:3", "mk:12", "bool:4"),
)
def test_shape_keyed_quotient_matches_signature_lumping(spec):
    matrix = _matrix(spec)
    assert matrix.quotient == flat(shape_free(partial(reference_row, matrix.lattice), matrix.orbits))


# Every row summed over ideals against the reference row, built column
# by column.
@pytest.mark.parametrize("spec", DEFAULT_MONOIDS + ("mk:9", "cyclic:2 x mk:5", "bool:3"))
def test_ideal_rows_match_weight_rows(spec):
    assert _matrix(spec).entries == _entries(spec)


@settings(max_examples=30, deadline=None)
@given(small_commutative_monoids(max_size=10))
def test_ideal_rows_match_weight_rows_on_random_monoids(monoid):
    matrix = build_transfer_matrix(monoid)
    assert matrix.entries == _reference_rows(matrix.lattice)


def test_ideal_rows_carry_past_one_byte():
    # mk:9's top row has weights of 256 and more, which take a second
    # byte plane of the counters to decode.
    matrix = _matrix("mk:9")
    top = len(matrix.lattice) - 1
    row = matrix.row(top)
    assert max(w for _, w in row[:-1]) >= 256
    assert row == reference_row(matrix.lattice, top)


def _memo_reads(lattice, i):
    """Row i's ideal walk under ``sys.setprofile``: the row, and the free
    masks of the ``walk`` calls with no column and a nonempty ``free``
    that return without a nested call, each a subtree read from the
    walk's memo."""
    calls, reads = [], []

    def profile(frame, event, arg):
        code = frame.f_code
        if code.co_name != "walk" or code.co_filename != submonoids.__file__:
            return
        if event == "call":
            if calls:
                calls[-1][2] = True
            calls.append([frame.f_locals["free"], frame.f_locals["columns"], False])
        elif event == "return":
            free, columns, nested = calls.pop()
            if free and not columns and not nested:
                reads.append(free)

    sys.setprofile(profile)
    try:
        diagonal, where, weights = ideal_row(lattice, i)
    finally:
        sys.setprofile(None)
    return (*zip(compress(range(i), where), weights), (i, diagonal)), reads


def test_ideal_rows_read_subtrees_with_no_column_from_the_memo():
    # bool:4's top row: subtrees of its ideal walk that keep no column
    # while elements are still undecided recur with the same free
    # elements, and every one after the first is read from the memo.
    # bool:3's top row has no such repeat.
    lattice = enumerate_submonoids(from_spec("bool:4"))
    top = len(lattice) - 1
    row, reads = _memo_reads(lattice, top)
    assert reads
    assert row == reference_row(lattice, top)


def test_ideal_rows_leave_no_reference_cycle():
    # The ideal walk is a closure that calls itself; a row that left
    # that cycle behind would keep its tables until the cyclic collector
    # ran, so with the collector off, every row leaves nothing for it.
    lattice = _matrix("bool:3").lattice
    gc.collect()
    gc.disable()
    try:
        for i in range(len(lattice)):
            list(ideal_row(lattice, i)[2])
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "spec, coarse",
    [
        ("chain:2 x chain:1", lambda table, mask: mask.bit_count()),
        # The divisibility preorder alone fixes A's row but not its
        # columns' classes: it cannot tell the subgroups Z4 and Z2 x Z2 apart.
        ("cyclic:4 x cyclic:2", lambda table, mask: _preorder_shape(table, mask)),
    ],
)
def test_a_coarser_shape_lumps_a_different_quotient(spec, coarse, monkeypatch):
    matrix = _matrix(spec)
    monkeypatch.setattr(transfer, "_shape", coarse)
    coarsened = TransferMatrix(matrix.lattice, matrix.orbits).quotient
    assert coarsened != flat(shape_free(partial(reference_row, matrix.lattice), matrix.orbits))


def _preorder_shape(table, mask):
    """Which element divides which in the submonoid, relabelled in order."""
    elements = tuple(bits_of(mask))
    return tuple(
        tuple(any(table[x][a] == y for a in elements) for y in elements) for x in elements
    )


def test_shapes_of_large_submonoids():
    # Local labels above 255 need two bytes each: a one-byte key would
    # fail, or wrap 256 onto 0 and confuse the two tables below.
    table = from_spec("cyclic:257").table
    full = (1 << 257) - 1
    key = _shape(table, full)
    assert len(key) == 2 * 257 * 258 // 2
    changed = list(table)
    changed[1] = table[1][:255] + (0,) + table[1][256:]
    assert table[1][255] == 256
    assert _shape(changed, full) != key
    assert _shape(make_chain(256).table, full) != key
    # Exactly 256 elements still fit one byte per product.
    assert len(_shape(from_spec("cyclic:256").table, full >> 1)) == 256 * 257 // 2


def _quotients(monoid):
    """The quotient, streamed from the representatives' rows, and the
    lumping of every reference row of W with one orbit per member."""
    matrix = build_transfer_matrix(monoid)
    return matrix.quotient, flat(shape_free(partial(reference_row, matrix.lattice), _trivial(matrix.size)))


@pytest.mark.parametrize("spec", DEFAULT_MONOIDS)
def test_streamed_quotient_matches_eager_rows(spec):
    streamed, eager = _quotients(from_spec(spec))
    assert streamed == eager


@settings(max_examples=30, deadline=None)
@given(small_commutative_monoids(max_size=10))
def test_streamed_quotient_matches_eager_rows_on_random_monoids(monoid):
    streamed, eager = _quotients(monoid)
    assert streamed == eager


def _walked(matrix, n):
    """S_0..S_n by the plain walk of the quotient, with no recurrence."""
    rows, sizes = paired(matrix.quotient)
    vectors = walk(rows, [1] * len(rows), n)
    return [matrix.size] + [sum(s * u for s, u in zip(sizes, v)) for v in vectors]


def _order(matrix):
    """D, the order of the count recurrence."""
    return len(annihilator(matrix.quotient[0]))


@cache
def _walked_far(spec):
    """S_0..S_max(2D, 30) of ``spec`` by the plain walk, shared by the
    tests that check the packed solve and the recurrence tail."""
    matrix = _matrix(spec)
    return _walked(matrix, max(2 * _order(matrix), 30))


# The recurrence tail against the plain walk at every n up to max(2D, 30),
# and with n_max just below, at and just above D, where the tail starts.
@pytest.mark.parametrize("spec", DEFAULT_MONOIDS + BENCHMARK_MONOIDS)
def test_count_tail_matches_the_walk(spec):
    matrix = _matrix(spec)
    order = _order(matrix)
    walked = _walked_far(spec)
    assert list(count_sequence(matrix, len(walked) - 1).values) == walked
    for n in range(max(order - 1, 0), order + 2):
        assert list(count_sequence(matrix, n).values) == walked[: n + 1]


@settings(max_examples=40, deadline=None)
@given(small_commutative_monoids(max_size=10), st.integers(1, 12))
def test_count_tail_matches_the_walk_on_random_monoids(monoid, extra):
    matrix = build_transfer_matrix(monoid)
    top = _order(matrix) + extra
    assert list(count_sequence(matrix, top).values) == _walked(matrix, top)


# D runs from 1 (chain:0) to 80 (the long-walks monoid of this list).
TAIL_MONOIDS = (
    "chain:0",
    "cyclic:2",
    "cyclic:2 x chain:1",
    "mk:4 x chain:1",
    "cyclic:2 x chain:3 x chain:1",
)


def _tail_agrees(matrix):
    """Whether count_sequence equals RationalOGF.expand at n = D, D + 1
    and D + 40, and walk_counts at n = 0, 1, D - 1, D, D + 1 and D + 2."""
    order = len(matrix.roots)
    expanded = matrix.series.expand(order + 40)
    walked = walk_counts(matrix, order + 2)
    return all(
        list(count_sequence(matrix, n).values) == expanded[: n + 1]
        for n in (order, order + 1, order + 40)
    ) and all(
        list(count_sequence(matrix, n).values) == walked[: n + 1]
        for n in sorted({0, 1, order - 1, order, order + 1, order + 2})
    )


@pytest.mark.parametrize("spec", TAIL_MONOIDS)
def test_terms_past_d_from_the_seeds_equal_the_expansion_and_the_walk(spec):
    matrix = _matrix(spec)
    terms, seeds, _ = matrix.solved
    assert len(terms) == len(seeds) + 1 == len(matrix.roots) + 1
    assert _tail_agrees(matrix)


@pytest.mark.parametrize("spec", TAIL_MONOIDS)
def test_a_seed_off_by_one_fails_the_tail_check(spec):
    matrix = _matrix(spec)
    terms, seeds, numerator = matrix.solved
    for j in sorted({0, len(seeds) // 2, len(seeds) - 1}):
        planted = _unbuilt_series(matrix)
        vars(planted)["solved"] = terms, (*seeds[:j], seeds[j] + 1, *seeds[j + 1 :]), numerator
        assert not _tail_agrees(planted)


def _solve_steps(order):
    """The step counts at which the packed solve is held against the
    walk: the edges 0, 1 and 2, D, and 2D - 1, the most that
    ``verify recurrence`` solves."""
    return sorted({0, 1, 2, order, max(2 * order - 1, 0)})


# The packed solve against the plain walk of the quotient: every default
# monoid, and the monoids of the long-walk and spectrum jobs.
@pytest.mark.parametrize("spec", DEFAULT_MONOIDS + BENCHMARK_MONOIDS)
def test_packed_solve_matches_the_walk(spec):
    matrix, walked = _matrix(spec), _walked_far(spec)
    for steps in _solve_steps(_order(matrix)):
        assert walk_counts(matrix, steps) == walked[: steps + 1]


@settings(max_examples=40, deadline=None)
@given(small_commutative_monoids(max_size=10))
def test_packed_solve_matches_the_walk_on_random_monoids(monoid):
    matrix = build_transfer_matrix(monoid)
    steps = _solve_steps(_order(matrix))
    walked = _walked(matrix, steps[-1])
    for n in steps:
        assert walk_counts(matrix, n) == walked[: n + 1]


# A quotient whose first rows fit one-byte slots and whose last rows need
# far wider ones: a diagonal of 1000, then a weight of 10**40.
GROWING_ROWS = (
    ((0, 1),),
    ((0, 1), (1, 1)),
    ((0, 2), (1, 3), (2, 2)),
    ((1, 1), (2, 5), (3, 1000)),
    ((0, 1), (3, 10**40), (4, 7)),
)


def _relayout_problems(rows, sizes, roots, steps):
    """What is wrong with the packed solve of ``rows`` and its relayouts,
    as strings: empty when the solve equals the plain walk, at least two
    relayouts moved classes already solved, and each relayout starts from
    the widths the last one made and widens every slot.  Plain checks,
    not asserts, so that a ``python -O`` child runs them too."""
    relayouts, keep = [], transfer._relayout

    def recorded(packed, old, new):
        relayouts.append((len(packed), old, new))
        keep(packed, old, new)

    transfer._relayout = recorded
    try:
        solved = _packed_solve(*flat((rows, sizes)), roots, steps)
    finally:
        transfer._relayout = keep
    walked = [sum(sizes)] + [
        sum(s * u for s, u in zip(sizes, v)) for v in walk(rows, [1] * len(rows), steps)
    ]
    problems = [] if solved == walked else ["the solve differs from the walk"]
    if len([r for r in relayouts if r[0]]) < 2:
        problems.append(f"fewer than two relayouts moved solved classes: {relayouts}")
    for (_, _, last), (_, old, _) in zip(relayouts, relayouts[1:]):
        if old != last:
            problems.append(f"a relayout from {old} after one to {last}")
    for _, old, new in relayouts:
        if not all(map(int.__lt__, old, new)):
            problems.append(f"a relayout from {old} to {new} left a slot as narrow")
    return problems


def test_packed_solve_widens_a_narrow_start():
    # Roots of 1 guess slots of a few bytes each, so the diagonal of 1000
    # and then the weight of 10**40 each force relayouts.
    assert _relayout_problems(GROWING_ROWS, (1, 2, 3, 4, 5), (1,), 12) == []


def test_packed_solve_widens_a_narrow_start_under_dash_o():
    script = (
        "import sys\n"
        "from test_transfer import GROWING_ROWS, _relayout_problems\n"
        "if __debug__: sys.exit(2)\n"
        "sys.exit(bool(_relayout_problems(GROWING_ROWS, (1, 2, 3, 4, 5), (1,), 12)))\n"
    )
    path = os.pathsep.join([str(Path(transfer.__file__).parents[1]), str(Path(__file__).parent)])
    done = subprocess.run([sys.executable, "-O", "-c", script], env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0


def test_packed_solve_from_no_head_bits_matches_the_walk(monkeypatch):
    # Slots sized for the top root's growth alone are too narrow on most
    # quotients, and there a slot's sum carries into the next: the decoded
    # total falls short of the kept one, and the solve relays out.
    monkeypatch.setattr(transfer, "_HEAD_BITS", 0)
    relayouts, keep = [], transfer._relayout
    monkeypatch.setattr(transfer, "_relayout", lambda *a: (relayouts.append(a[1]), keep(*a)))
    for spec in DEFAULT_MONOIDS + BENCHMARK_MONOIDS:
        matrix, walked = _matrix(spec), _walked_far(spec)
        for steps in _solve_steps(_order(matrix)):
            assert walk_counts(matrix, steps) == walked[: steps + 1]
    assert relayouts


# Two classes whose rows fit one-byte slots, but whose sizes near 2**40
# make the totals row too wide: past the layout's end with the one root
# 1, and between slots with the roots (1, 2), whose slots widen to seven
# bytes by step 48 while S_0 = 2**40 + 1 carries out of slot 0.
TOTALS_CASES = {
    "past-the-layout": ((((0, 1),), ((0, 1), (1, 1))), (2**40, 2**40 - 1), (1,), 4),
    "between-slots": ((((0, 1),), ((0, 1), (1, 2))), (2**40, 1), (1, 2), 48),
}


def _relayouts_from_no_head(rows, sizes, roots, steps):
    """Whether the packed solve of ``rows`` from no head bits equals the
    plain walk, and how many classes were solved at each relayout: all of
    them at the totals row.  Plain checks, not asserts, so that a
    ``python -O`` child runs them too."""
    relayouts, keep, head = [], transfer._relayout, transfer._HEAD_BITS

    def recorded(packed, old, new):
        relayouts.append(len(packed))
        keep(packed, old, new)

    transfer._relayout, transfer._HEAD_BITS = recorded, 0
    try:
        solved = _packed_solve(*flat((rows, sizes)), roots, steps)
    finally:
        transfer._relayout, transfer._HEAD_BITS = keep, head
    walked = [sum(sizes)] + [
        sum(s * u for s, u in zip(sizes, v)) for v in walk(rows, [1] * len(rows), steps)
    ]
    return solved == walked, relayouts


@pytest.mark.parametrize("case", TOTALS_CASES)
def test_a_totals_row_too_wide_relays_out(case):
    rows, sizes, roots, steps = TOTALS_CASES[case]
    equal, relayouts = _relayouts_from_no_head(rows, sizes, roots, steps)
    assert equal
    assert relayouts and set(relayouts) == {len(rows)}


def test_a_totals_row_too_wide_relays_out_under_dash_o():
    script = (
        "import sys\n"
        "from test_transfer import TOTALS_CASES, _relayouts_from_no_head\n"
        "if __debug__: sys.exit(2)\n"
        "for rows, sizes, roots, steps in TOTALS_CASES.values():\n"
        "    equal, relayouts = _relayouts_from_no_head(rows, sizes, roots, steps)\n"
        "    if not equal or not relayouts or set(relayouts) != {len(rows)}:\n"
        "        sys.exit(1)\n"
    )
    path = os.pathsep.join([str(Path(transfer.__file__).parents[1]), str(Path(__file__).parent)])
    done = subprocess.run([sys.executable, "-O", "-c", script], env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0


def test_a_class_too_wide_for_its_slot_relays_out():
    # Every row sum fits one-byte slots, but F = 1, 301, 90301 of the
    # class with diagonal 300 does not: only its encoding overflows, and
    # the solve relays out once at that class, by the widest excess.
    rows = (((0, 1),), ((0, 1), (1, 300)))
    assert _relayouts_from_no_head(rows, (1, 1), (1,), 3) == (True, [1])


# No class row and no totals row of a benchmark solve relays out.
@pytest.mark.parametrize("spec", BENCHMARK_MONOIDS)
def test_benchmark_solves_need_no_relayout(spec, monkeypatch):
    relayouts, keep = [], transfer._relayout
    monkeypatch.setattr(transfer, "_relayout", lambda *a: (relayouts.append(a[1]), keep(*a)))
    matrix = _matrix(spec)
    assert walk_counts(matrix, _order(matrix)) == _walked_far(spec)[: _order(matrix) + 1]
    assert relayouts == []


def _spaced_relayout():
    """A faulty ``_relayout``: bytes.ljust pads with spaces unless told
    otherwise, so the classes relaid out grow.  It refuses a 41st call."""
    calls = []

    def spaced(packed, old, new):
        calls.append(new)
        if len(calls) > 40:
            raise RuntimeError("the solve kept widening")
        spans = transfer._spans(old)
        for i, value in enumerate(packed):
            data = value.to_bytes(sum(old), "little")
            packed[i] = int.from_bytes(
                b"".join(map(bytes.ljust, map(data.__getitem__, spans), new)), "little"
            )

    return spaced


def test_a_faulty_relayout_raises_and_stops(monkeypatch):
    # The classes relaid out grow, every later row's decoded total misses
    # its kept one, and the solve must stop once no slot can carry, not
    # widen on.
    monkeypatch.setattr(transfer, "_relayout", _spaced_relayout())
    with pytest.raises(InvariantViolation, match="carried out of slots as wide as its sum"):
        _packed_solve(*flat((GROWING_ROWS, (1, 2, 3, 4, 5))), (1,), 12)


def test_a_faulty_relayout_at_the_totals_row_raises_and_stops(monkeypatch):
    # From no head bits this problem first relays out at the totals row,
    # with every class solved: the totals row alone sees the grown
    # classes, and it too must stop once no slot can carry.
    monkeypatch.setattr(transfer, "_relayout", _spaced_relayout())
    monkeypatch.setattr(transfer, "_HEAD_BITS", 0)
    with pytest.raises(InvariantViolation, match="^the totals row carried out of slots"):
        rows, sizes, roots, steps = TOTALS_CASES["between-slots"]
        _packed_solve(*flat((rows, sizes)), roots, steps)


@settings(max_examples=30, deadline=None)
@given(union_closed_semilattices())
def test_the_swap_identity_holds_on_random_semilattices(monoid):
    # count(M x [a], n) == count(M x [n], a) for 0 <= a < n, wherever
    # M x [n] has at most 12 elements, as swap_checks(12) bounds the
    # named monoids; M x [0] is M itself, under another table.
    def count(a, n):
        product = make_product(monoid, make_chain(a))
        return count_sequence(build_transfer_matrix(product), n).values[n]

    for n in range(1, 12 // monoid.size):
        for a in range(n):
            assert count(a, n) == count(n, a)


@pytest.mark.parametrize(
    "rows",
    [
        (((0, 1),), ((0, 0), (1, 2))),  # a zero weight
        (((0, 1),), ((0, 1), (1, 0))),  # a zero diagonal
        (((0, 0),), ((0, 1), (1, 0))),  # every diagonal zero: a top root of 0
    ],
    ids=["zero-weight", "zero-diagonal", "zero-top-root"],
)
def test_packed_solve_rejects_broken_premises_under_dash_o(rows):
    script = (
        "import sys\n"
        "from submon.errors import InvariantViolation\n"
        "from submon.transfer import _packed_solve, annihilator\n"
        "from reference_quotient import flat\n"
        "if __debug__: sys.exit(2)\n"
        f"rows, sizes = flat(({rows!r}, (1, 1)))\n"
        "try:\n"
        "    _packed_solve(rows, sizes, annihilator(rows), 3)\n"
        "except InvariantViolation:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    path = os.pathsep.join([str(Path(transfer.__file__).parents[1]), str(Path(__file__).parent)])
    done = subprocess.run([sys.executable, "-O", "-c", script], env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0


def test_chain_swap_identity():
    # count(M x chain:a, n) == count(M x chain:n, a) and count(M x chain:n,
    # 0) == count(M, n): the two sides are different quotients with their
    # own roots and D, one often solved and the other expanded, so this
    # checks the solve and its totals row past the brute-force oracle.
    # tests/check_swap.py runs the same checks up to 16 elements.
    assert [label for label, left, right in swap_checks(12) if left != right] == []


@pytest.mark.parametrize(
    "spec, order",
    [
        ("cyclic:2 x mk:5", 35),
        ("cyclic:2 x chain:3 x chain:1", 80),
        ("cyclic:2 x bool:3", 62),
        ("cyclic:2 x mk:6", 44),
        ("cyclic:3 x mk:4", 27),
    ],
)
def test_order_of_the_long_walk_recurrences(spec, order):
    assert _order(_matrix(spec)) == order


@pytest.mark.parametrize(
    "spec", [s for s in DEFAULT_MONOIDS + BENCHMARK_MONOIDS if is_idempotent(from_spec(s))]
)
def test_idempotent_annihilators_have_the_eigenvalues_as_simple_roots(spec):
    matrix = _matrix(spec)
    assert list(annihilator(matrix.quotient[0])) == eigenvalues(matrix)


def _drop_root(monkeypatch, v):
    """Make a series use an annihilator with one root v removed."""
    keep = transfer.annihilator

    def dropped(rows):
        roots = list(keep(rows))
        roots.remove(v)
        return tuple(roots)

    monkeypatch.setattr(transfer, "annihilator", dropped)


def _unbuilt_series(matrix):
    """A matrix sharing ``matrix``'s quotient but not its series: the
    cached matrix may already hold the series of the full annihilator."""
    fresh = TransferMatrix(matrix.lattice, matrix.orbits)
    vars(fresh)["quotient"] = matrix.quotient
    return fresh


@pytest.mark.parametrize("spec", ["n5", "cyclic:2 x mk:5", "chain:4 x chain:1"])
def test_an_annihilator_missing_a_root_raises(spec, monkeypatch):
    matrix = _matrix(spec)
    for v in sorted(set(annihilator(matrix.quotient[0]))):
        with monkeypatch.context() as patch:
            _drop_root(patch, v)
            with pytest.raises(InvariantViolation, match="annihilator"):
                count_sequence(_unbuilt_series(matrix), 2 * _order(matrix) + 2)


def test_a_root_the_counts_do_not_need_may_be_dropped(monkeypatch):
    # mk:3's coefficient at eigenvalue 4 vanishes, so the recurrence holds
    # without that root: the S_D check passes exactly when the tail is right.
    matrix = _matrix("mk:3")
    _drop_root(monkeypatch, 4)
    fresh = _unbuilt_series(matrix)
    assert list(count_sequence(fresh, 20).values) == _walked(matrix, 20)
    assert len(fresh.series.denominator_roots) == 4


def test_an_annihilator_missing_a_root_raises_under_dash_o():
    script = (
        "import sys\n"
        "from submon import transfer\n"
        "from submon.errors import InvariantViolation\n"
        "from submon.monoid import from_spec\n"
        "if __debug__: sys.exit(2)\n"
        "keep = transfer.annihilator\n"
        "transfer.annihilator = lambda rows: keep(rows)[1:]\n"
        "matrix = transfer.build_transfer_matrix(from_spec('cyclic:2 x mk:5'))\n"
        "try:\n"
        "    transfer.count_sequence(matrix, 80)\n"
        "except InvariantViolation:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    src = str(Path(transfer.__file__).parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", script], env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0


def test_count_prints_the_walked_counts_under_dash_o():
    # count --n 300 extends the counts 220 terms past D = 80; a plain walk
    # of the quotient must print the same lines.
    script = (
        "import contextlib, io, sys\n"
        "from submon.cli import main\n"
        "from submon.monoid import from_spec\n"
        "from submon.transfer import build_transfer_matrix, walk\n"
        "from reference_quotient import paired\n"
        "if __debug__: sys.exit(2)\n"
        "spec = 'cyclic:2 x chain:3 x chain:1'\n"
        "printed = io.StringIO()\n"
        "with contextlib.redirect_stdout(printed):\n"
        "    code = main(['count', '--monoid', spec, '--n', '300'])\n"
        "matrix = build_transfer_matrix(from_spec(spec))\n"
        "rows, sizes = paired(matrix.quotient)\n"
        "walked = [matrix.size] + [sum(s * u for s, u in zip(sizes, v)) for v in walk(rows, [1] * len(rows), 300)]\n"
        "lines = ['n,count'] + [f'{n},{value}' for n, value in enumerate(walked)]\n"
        "sys.exit(code or printed.getvalue() != '\\n'.join(lines) + '\\n')\n"
    )
    path = os.pathsep.join([str(Path(transfer.__file__).parents[1]), str(Path(__file__).parent)])
    done = subprocess.run([sys.executable, "-O", "-c", script], env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0


def test_shape_keyed_counts_equal_the_full_w_walk_under_dash_o():
    # chain:6 x chain:1 has no nontrivial automorphism, and its quotient
    # builds one row per shape: 227 classes for 2,123 submonoids.  The
    # counts and the packed solve must both equal a walk over every
    # reference row of W.
    script = (
        "import sys\n"
        "from submon.monoid import from_spec\n"
        "from submon.transfer import build_transfer_matrix, count_sequence, walk, walk_counts\n"
        "from reference_quotient import reference_row\n"
        "if __debug__: sys.exit(2)\n"
        "matrix = build_transfer_matrix(from_spec('chain:6 x chain:1'))\n"
        "if (matrix.size, len(matrix.quotient[0])) != (2123, 227): sys.exit(3)\n"
        "rows = [reference_row(matrix.lattice, i) for i in range(matrix.size)]\n"
        "full = [matrix.size] + [sum(v) for v in walk(rows, [1] * matrix.size, 30)]\n"
        "sys.exit(list(count_sequence(matrix, 30).values) != full or walk_counts(matrix, 30) != full)\n"
    )
    path = os.pathsep.join([str(Path(transfer.__file__).parents[1]), str(Path(__file__).parent)])
    done = subprocess.run([sys.executable, "-O", "-c", script], env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0


def _annihilator_from_entries(entries):
    """The annihilator's roots from every row of W: each diagonal value v
    repeated as often as the longest chain of direct nonzero edges
    between members with diagonal v."""
    diag = [row[-1][1] for row in entries]
    longest, chains = [], {}
    for i, row in enumerate(entries):
        longest.append(1 + max((longest[j] for j, _ in row[:-1] if diag[j] == diag[i]), default=0))
        chains[diag[i]] = max(chains.get(diag[i], 0), longest[i])
    return tuple(v for v in sorted(chains) for _ in range(chains[v]))


# The annihilator, whose largest root and its multiplicity fix the
# counts' growth, against every row of W: an independent reference for
# annihilator on the quotient.
@pytest.mark.parametrize("spec", DEFAULT_MONOIDS + BENCHMARK_MONOIDS)
def test_asymptotics_match_every_row_of_w(spec):
    assert annihilator(_matrix(spec).quotient[0]) == _annihilator_from_entries(_entries(spec))


@settings(max_examples=30, deadline=None)
@given(small_commutative_monoids(max_size=10))
def test_asymptotics_match_every_row_of_w_on_random_monoids(monoid):
    matrix = build_transfer_matrix(monoid)
    assert annihilator(matrix.quotient[0]) == _annihilator_from_entries(_reference_rows(matrix.lattice))
