import json
import os
import subprocess
import sys
from functools import cache, partial
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_oracle import small_commutative_monoids

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
    _packed_solve,
    _shape,
)

from dense_table import dense
from reference_counts import brute_force_projection_count
from reference_quotient import reference_row, shape_free, weight_row

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
    attaining = sum(s for row, s in zip(rows, sizes) if row[-1][1] == base)
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
    # A zero weight on the trivial monoid's only entry makes S_1 = 0 < S_0.
    lattice = enumerate_submonoids(make_chain(0))
    trivial = Orbits((0,), (0,))
    # Set on a fresh matrix: a built one is cached and shared.
    tampered = TransferMatrix(lattice=lattice, orbits=trivial)
    vars(tampered)["quotient"] = shape_free((((0, 0),),).__getitem__, trivial)
    with pytest.raises(InvariantViolation):
        count_sequence(tampered, 1)


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
        transfer, "_lump", lambda lattice, orbits: shape_free(entries.__getitem__, orbits)
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
    rows, sizes = shape_free(_entries(spec).__getitem__, _trivial(k))
    assert (sum(sizes), len(rows)) == (k, classes)
    # Lumping the representatives' rows over their orbits gives the same classes.
    assert _matrix(spec).quotient == (rows, sizes)
    # The quotient keeps the row contract: columns below the row, diagonal last.
    for c, row in enumerate(rows):
        assert row[-1][0] == c
        assert all(j < c for j, _ in row[:-1])


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
    assert matrix.quotient == shape_free(_entries(spec).__getitem__, plain.orbits)
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
    assert set(vars(matrix)) == {"lattice", "orbits", "quotient", "roots", "series"}

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
    DEFAULT_MONOIDS + BENCHMARK_MONOIDS + ("chain:3 x chain:1", "chain:3 x chain:3", "mk:12"),
)
def test_shape_keyed_quotient_matches_signature_lumping(spec):
    matrix = _matrix(spec)
    assert matrix.quotient == shape_free(partial(reference_row, matrix.lattice), matrix.orbits)


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


def test_ideal_rows_prune_subtrees_with_no_column(monkeypatch):
    # bool:3's top row: one subtree of its ideal walk keeps no column
    # while an element is still undecided, so the memoised leaf count
    # gives its leaves.
    pruned = []
    count = submonoids._count_ideals

    def spied(free, *args):
        pruned.append(free)
        return count(free, *args)

    monkeypatch.setattr(submonoids, "_count_ideals", spied)
    matrix = _matrix("bool:3")
    top = matrix.size - 1
    row = matrix.row(top)
    assert any(pruned)
    assert row == reference_row(matrix.lattice, top)


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
    assert coarsened != shape_free(partial(reference_row, matrix.lattice), matrix.orbits)


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
    return matrix.quotient, shape_free(partial(reference_row, matrix.lattice), _trivial(matrix.size))


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
    rows, sizes = matrix.quotient
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


def test_packed_solve_widens_a_narrow_start(monkeypatch):
    widenings = []
    repack = transfer._repack

    def recorded(packed, slots, old, new):
        widenings.append((len(packed), old, new))
        repack(packed, slots, old, new)

    monkeypatch.setattr(transfer, "_repack", recorded)
    sizes, steps = (1, 2, 3, 4, 5), 12
    walked = [sum(sizes)] + [
        sum(s * u for s, u in zip(sizes, v)) for v in walk(GROWING_ROWS, [1] * 5, steps)
    ]
    assert _packed_solve(GROWING_ROWS, sizes, steps) == walked
    # At least two widenings repacked classes already solved, each to
    # wider slots than the one before.
    assert len([w for w in widenings if w[0]]) >= 2
    assert all(old < new for _, old, new in widenings)
    assert [old for _, old, _ in widenings[1:]] == [new for _, _, new in widenings[:-1]]


@pytest.mark.parametrize(
    "rows",
    [
        (((0, 1),), ((0, 0), (1, 2))),  # a zero weight
        (((0, 1),), ((0, 1), (1, 0))),  # a zero diagonal
    ],
    ids=["zero-weight", "zero-diagonal"],
)
def test_packed_solve_rejects_broken_premises_under_dash_o(rows):
    script = (
        "import sys\n"
        "from submon.errors import InvariantViolation\n"
        "from submon.transfer import _packed_solve\n"
        "if __debug__: sys.exit(2)\n"
        "try:\n"
        f"    _packed_solve({rows!r}, (1, 1), 3)\n"
        "except InvariantViolation:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    src = str(Path(transfer.__file__).parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", script], env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0


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
    # count --n 300 expands the series 220 terms past D = 80; a plain walk
    # of the quotient must print the same lines.
    script = (
        "import contextlib, io, sys\n"
        "from submon.cli import main\n"
        "from submon.monoid import from_spec\n"
        "from submon.transfer import build_transfer_matrix, walk\n"
        "if __debug__: sys.exit(2)\n"
        "spec = 'cyclic:2 x chain:3 x chain:1'\n"
        "printed = io.StringIO()\n"
        "with contextlib.redirect_stdout(printed):\n"
        "    code = main(['count', '--monoid', spec, '--n', '300'])\n"
        "matrix = build_transfer_matrix(from_spec(spec))\n"
        "rows, sizes = matrix.quotient\n"
        "walked = [matrix.size] + [sum(s * u for s, u in zip(sizes, v)) for v in walk(rows, [1] * len(rows), 300)]\n"
        "lines = ['n,count'] + [f'{n},{value}' for n, value in enumerate(walked)]\n"
        "sys.exit(code or printed.getvalue() != '\\n'.join(lines) + '\\n')\n"
    )
    src = str(Path(transfer.__file__).parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", script], env={**os.environ, "PYTHONPATH": src})
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
