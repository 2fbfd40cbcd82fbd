import json
import os
import subprocess
import sys
from functools import cache
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_oracle import small_commutative_monoids

from submon import transfer
from submon.cli import DEFAULT_LATTICES, DEFAULT_MONOIDS
from submon.errors import (
    IndexOutOfRange,
    InvariantViolation,
    SizeLimitExceeded,
)
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
from submon.oracle import brute_force_projection_count, brute_force_submonoid_count
from submon.spectral import eigenvalues, ogf, spectrum_of
from submon.submonoids import DEFAULT_MAX_MONOID_SIZE, bits_of, enumerate_submonoids, weight_row
from submon.transfer import (
    AsymptoticProfile,
    Orbits,
    TransferMatrix,
    annihilator,
    asymptotics,
    build_transfer_matrix,
    count_sequence,
    counts_by_projection,
    walk,
    _automorphism_generators,
    _lump,
)

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
    assert build_transfer_matrix(make_chain(0)).dense() == ((2,),)
    assert build_transfer_matrix(make_chain(1)).dense() == ((2, 0), (2, 3))
    assert build_transfer_matrix(make_chain(1)).entries == (((0, 2),), ((0, 2), (1, 3)))


def test_matrix_grid():
    matrix = build_transfer_matrix(GRID)
    assert matrix.lattice.members == (1, 3, 5, 9, 11, 13, 15)
    assert matrix.dense() == GRID_MATRIX


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


def test_counts_by_projection_entries():
    grid = build_transfer_matrix(GRID)
    full = grid.lattice.index_of[0b1111]
    assert counts_by_projection(grid, 1, full, full) == 6
    assert counts_by_projection(grid, 1, 0, full) == 0

    chain = build_transfer_matrix(make_chain(1))
    assert counts_by_projection(chain, 2, 1, 1) == 9
    with pytest.raises(IndexOutOfRange):
        counts_by_projection(chain, 1, 0, 5)


def test_projection_counts_partition_the_total():
    m = make_chain(1)
    matrix = build_transfer_matrix(m)
    k = matrix.size
    for n in range(3):
        row_sums = [
            sum(counts_by_projection(matrix, n, a, b) for b in range(k))
            for a in range(k)
        ]
        for a in range(k):
            mask = matrix.lattice.members[a]
            assert row_sums[a] == brute_force_projection_count(m, n, mask)
        assert sum(row_sums) == count_sequence(matrix, n).values[n]


def test_asymptotics_idempotent():
    grid = build_transfer_matrix(GRID)
    profile = asymptotics(grid)
    assert profile.base == 6
    assert profile.multiplicity == 1
    assert profile.degree_bound == 0


def test_asymptotics_group():
    c2 = build_transfer_matrix(make_cyclic_group(2))
    profile = asymptotics(c2)
    assert profile.base == 2
    assert profile.multiplicity == 2
    assert profile.degree_bound == 1

    c8 = build_transfer_matrix(make_cyclic_group(8))
    profile = asymptotics(c8)
    # Four nested subgroups, all with two ideals: a path of length three.
    assert (profile.base, profile.multiplicity, profile.degree_bound) == (2, 4, 3)


def test_asymptotics_multiplicity_one_for_idempotent():
    for spec in ["chain:3", "mk:3", "n5", "chain:2 x chain:1"]:
        profile = asymptotics(build_transfer_matrix(from_spec(spec)))
        assert profile.multiplicity == 1
        assert profile.degree_bound == 0


def test_count_sequence_rejects_decreasing_counts():
    # A zero weight on the trivial monoid's only entry makes S_1 = 0 < S_0.
    lattice = enumerate_submonoids(make_chain(0))
    trivial = Orbits((0,), (0,))
    # Set on a fresh matrix: a built one is cached and shared.
    tampered = TransferMatrix(lattice=lattice, orbits=trivial)
    vars(tampered)["quotient"] = _lump((((0, 0),),), trivial)
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
    # A fresh matrix lumps these rows in place of W's into its quotient.
    monkeypatch.setattr(
        transfer, "weight_row", lambda monoid, a, columns: entries[lattice.index_of[a]]
    )
    tampered = TransferMatrix(lattice=lattice, orbits=Orbits((0, 1), (0, 1)))
    with pytest.raises(InvariantViolation, match=message):
        count_sequence(tampered, 1)


@cache
def _matrix(spec):
    return build_transfer_matrix(from_spec(spec))


@cache
def _entries(spec):
    """Every row of W, which ``entries`` builds afresh on each read."""
    return _matrix(spec).entries


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
    rows, sizes = _lump(_entries(spec), _trivial(k))
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
    assert matrix.quotient == _lump(_entries(spec), plain.orbits)
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


@pytest.mark.parametrize("spec", ["chain:2 x chain:1", "mk:4"])
def test_counts_and_spectra_never_build_rows(spec, monkeypatch):
    # Together they build each representative's row once, and keep none.
    built = []

    def counted(monoid, a, columns):
        built.append(a)
        return weight_row(monoid, a, columns)

    monkeypatch.setattr(transfer, "weight_row", counted)
    build_transfer_matrix.cache_clear()
    matrix = build_transfer_matrix(from_spec(spec))
    spectrum = spectrum_of(matrix)
    ogf(matrix, spectrum, count_sequence(matrix, 2 * len(spectrum.eigenvalues)))
    assert built == [matrix.lattice.members[r] for r in matrix.orbits.reps]
    assert set(vars(matrix)) == {"lattice", "orbits", "quotient"}

    # A second query on the cached monoid neither enumerates nor builds rows.
    def refuse(*args, **kwargs):
        raise AssertionError("rebuilt a cached monoid")

    monkeypatch.setattr(transfer, "enumerate_submonoids", refuse)
    monkeypatch.setattr(transfer, "weight_row", refuse)
    again = build_transfer_matrix(from_spec(spec))
    assert again is matrix
    assert count_sequence(again, 3).values == count_sequence(matrix, 3).values


def _quotients(monoid):
    """The quotient, streamed from the representatives' rows, and the
    lumping of every row of W with one orbit per member."""
    matrix = build_transfer_matrix(monoid)
    return matrix.quotient, _lump(matrix.entries, _trivial(matrix.size))


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


# The recurrence tail against the plain walk at every n up to max(2D, 30),
# and with n_max just below, at and just above D, where the tail starts.
@pytest.mark.parametrize("spec", DEFAULT_MONOIDS + BENCHMARK_MONOIDS)
def test_count_tail_matches_the_walk(spec):
    matrix = _matrix(spec)
    order = _order(matrix)
    top = max(2 * order, 30)
    walked = _walked(matrix, top)
    assert list(count_sequence(matrix, top).values) == walked
    for n in range(max(order - 1, 0), order + 2):
        assert list(count_sequence(matrix, n).values) == walked[: n + 1]


@settings(max_examples=40, deadline=None)
@given(small_commutative_monoids(max_size=10), st.integers(1, 12))
def test_count_tail_matches_the_walk_on_random_monoids(monoid, extra):
    matrix = build_transfer_matrix(monoid)
    top = _order(matrix) + extra
    assert list(count_sequence(matrix, top).values) == _walked(matrix, top)


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
    """Make count_sequence use an annihilator with one root v removed."""
    keep = transfer.annihilator

    def dropped(rows):
        roots = list(keep(rows))
        roots.remove(v)
        return tuple(roots)

    monkeypatch.setattr(transfer, "annihilator", dropped)


@pytest.mark.parametrize("spec", ["n5", "cyclic:2 x mk:5", "chain:4 x chain:1"])
def test_an_annihilator_missing_a_root_raises(spec, monkeypatch):
    matrix = _matrix(spec)
    for v in sorted(set(annihilator(matrix.quotient[0]))):
        with monkeypatch.context() as patch:
            _drop_root(patch, v)
            with pytest.raises(InvariantViolation, match="annihilator"):
                count_sequence(matrix, 2 * _order(matrix) + 2)


def test_a_root_the_counts_do_not_need_may_be_dropped(monkeypatch):
    # mk:3's coefficient at eigenvalue 4 vanishes, so the recurrence holds
    # without that root: the S_D check passes exactly when the tail is right.
    matrix = _matrix("mk:3")
    _drop_root(monkeypatch, 4)
    assert list(count_sequence(matrix, 20).values) == _walked(matrix, 20)


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


def _asymptotics_from_entries(entries):
    """The growth profile from every row of W: the base is the largest
    diagonal, the multiplicity the members attaining it, and the degree
    bound the longest path among them."""
    diag = [row[-1][1] for row in entries]
    base = max(diag)
    attaining = [i for i, d in enumerate(diag) if d == base]
    longest = {}
    for i in attaining:
        longest[i] = max((longest[j] + 1 for j, _ in entries[i][:-1] if j in longest), default=0)
    return AsymptoticProfile(base, len(attaining), max(longest.values()))


@pytest.mark.parametrize("spec", DEFAULT_MONOIDS + BENCHMARK_MONOIDS)
def test_asymptotics_match_every_row_of_w(spec):
    assert asymptotics(_matrix(spec)) == _asymptotics_from_entries(_entries(spec))


@settings(max_examples=30, deadline=None)
@given(small_commutative_monoids(max_size=10))
def test_asymptotics_match_every_row_of_w_on_random_monoids(monoid):
    matrix = build_transfer_matrix(monoid)
    assert asymptotics(matrix) == _asymptotics_from_entries(matrix.entries)
