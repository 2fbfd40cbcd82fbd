from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submon import transfersystems
from submon.cli import DEFAULT_LATTICES
from submon.errors import InvariantViolation, NonUniqueMinimal, NotALattice, SizeLimitExceeded
from submon.monoid import (
    PartialOrder,
    from_spec,
    join_monoid,
    join_table,
    meet_table,
    semilattice_order,
)
from submon.submonoids import bits_of, enumerate_submonoids
from submon.transfer import build_transfer_matrix, count_sequence
from submon.transfersystems import (
    TransferRelation,
    chi,
    enumerate_saturated_transfer_systems,
    is_saturated_transfer_system,
    _st_data,
    st_count_sequence,
    verify_graph_isomorphism,
)

LATTICE_SPECS = ["chain:1", "chain:2", "chain:1 x chain:1", "chain:1 x chain:2", "mk:3"]


def _order(spec):
    return semilattice_order(from_spec(spec))


def _discrete(order):
    return TransferRelation.from_pairs(order, [])


def _strict_pairs(order):
    return [
        (x, y)
        for x in range(order.size)
        for y in bits_of(order.up[x] & ~(1 << x))
    ]


def _full(order):
    return TransferRelation.from_pairs(order, _strict_pairs(order))


def _refines(a, b):
    return all(r & ~s == 0 for r, s in zip(a.rows, b.rows))


def st_weight(order, top, bottom):
    """Cylinder systems on P x [1] with level-1 layer ``top`` and level-0
    layer ``bottom``, read off the rows of ``_st_data``."""
    systems, rows = _st_data(order)
    return dict(rows[systems.index(top.rows)]).get(systems.index(bottom.rows), 0)


def test_discrete_and_full_systems_are_valid():
    for spec in LATTICE_SPECS:
        order = _order(spec)
        ok, violation = is_saturated_transfer_system(order, _discrete(order).rows)
        assert ok, violation
        ok, violation = is_saturated_transfer_system(order, _full(order).rows)
        assert ok, violation


def test_violations_are_reported():
    chain = _order("chain:2")
    # A bare jump 0 R 2 already fails restriction along the middle element.
    jump = TransferRelation.from_pairs(chain, [(0, 2)])
    ok, violation = is_saturated_transfer_system(chain, jump.rows)
    assert not ok and violation.rule == "restriction"
    assert violation.elements == (0, 2, 1)

    # With 0 R 1 added, restriction holds but 1 R 2 is still missing.
    partial_chain = TransferRelation.from_pairs(chain, [(0, 1), (0, 2)])
    ok, violation = is_saturated_transfer_system(chain, partial_chain.rows)
    assert not ok and violation.rule == "saturation"
    assert violation.elements == (0, 1, 2)

    grid = _order("chain:1 x chain:1")
    # (0,1) R (1,1) alone breaks restriction along the other axis.
    partial = TransferRelation.from_pairs(grid, [(1, 3)])
    ok, violation = is_saturated_transfer_system(grid, partial.rows)
    assert not ok and violation.rule == "restriction"

    not_refining = TransferRelation.from_pairs(chain, [(2, 0)])
    ok, violation = is_saturated_transfer_system(chain, not_refining.rows)
    assert not ok and violation.rule == "refines-order"


def test_meets_are_required():
    antichain = PartialOrder(size=2, up=(0b01, 0b10))
    with pytest.raises(NotALattice):
        is_saturated_transfer_system(antichain, (0b01, 0b10))


def test_enumeration_counts_match_submonoid_counts():
    for spec in LATTICE_SPECS:
        order = _order(spec)
        systems = enumerate_saturated_transfer_systems(order)
        monoid = join_monoid(order)
        assert len(systems) == len(enumerate_submonoids(monoid))
        assert len(set(s.rows for s in systems)) == len(systems)


def test_enumeration_budget():
    with pytest.raises(SizeLimitExceeded):
        enumerate_saturated_transfer_systems(_order("bool:3"), max_size=4)


def test_chi_extremes():
    order = _order("chain:1 x chain:1")
    assert chi(order, _discrete(order)) == order.full_mask
    assert chi(order, _full(order)) == 0b0001


def test_chi_rejects_a_component_with_two_minima():
    # 1 R 3 and 2 R 3 join 1, 2 and 3 in one component, and nothing
    # relates to 1 or to 2: no transfer system has such a component.
    order = _order("mk:2")
    with pytest.raises(NonUniqueMinimal, match=r"component \[1, 2, 3\] has minima \[1, 2\]"):
        chi(order, TransferRelation(order, (1, 0b1010, 0b1100, 0b1000)))


def test_chi_is_an_order_reversing_bijection():
    for spec in LATTICE_SPECS:
        order = _order(spec)
        systems = enumerate_saturated_transfer_systems(order)
        masks = [chi(order, system) for system in systems]
        members = enumerate_submonoids(join_monoid(order)).members
        assert sorted(masks) == sorted(members)
        for a, mask_a in zip(systems, masks):
            for b, mask_b in zip(systems, masks):
                if _refines(a, b):
                    assert mask_b & ~mask_a == 0


def test_st_weight_positive_iff_refines():
    for spec in ["chain:1", "chain:2", "chain:1 x chain:1"]:
        order = _order(spec)
        systems = enumerate_saturated_transfer_systems(order)
        for top in systems:
            for bottom in systems:
                w = st_weight(order, top, bottom)
                assert (w > 0) == _refines(top, bottom)


def test_st_weights_total_to_cylinder_count():
    order = _order("chain:1 x chain:1")
    systems = enumerate_saturated_transfer_systems(order)
    total = sum(
        st_weight(order, top, bottom) for top in systems for bottom in systems
    )
    cylinder = count_sequence(build_transfer_matrix(join_monoid(order)), 1)
    assert total == cylinder.values[1] == 61


def test_st_weight_discrete_pair():
    order = _order("chain:1")
    systems = enumerate_saturated_transfer_systems(order)
    discrete = next(s for s in systems if not s.pairs())
    # Three cylinder systems keep both layers discrete: no relations, the
    # pillar over the bottom alone, and both pillars (the pillar over the
    # top forces the bottom one by restriction).  This matches the ideal
    # count of the two-element chain through the correspondence.
    assert st_weight(order, discrete, discrete) == 3


def test_graph_isomorphism_on_all_lattices():
    for spec in LATTICE_SPECS:
        ok, details = verify_graph_isomorphism(_order(spec))
        assert ok, (spec, details)


def test_st_count_sequence_matches_transfer_matrix():
    for spec in LATTICE_SPECS:
        order = _order(spec)
        st_values = st_count_sequence(order, 3).values
        tm_values = count_sequence(
            build_transfer_matrix(join_monoid(order)), 3
        ).values
        assert st_values == tm_values


@st.composite
def moore_lattices(draw, ground=6, max_size=7):
    """Lattices of at most ``max_size`` elements: Moore families of subsets
    of a ``ground``-element set (closed under intersection, with the whole
    set), ordered by inclusion.  Each drawn subset joins the family with
    its intersections unless that makes the family too large.  Six points
    suffice for every lattice of at most 7 elements."""
    full = (1 << ground) - 1
    family = {full}
    for mask in draw(st.lists(st.integers(0, full), max_size=8)):
        grown = family | {mask & f for f in family}
        if len(grown) <= max_size:
            family = grown
    sets = sorted(family, key=lambda m: (m.bit_count(), m))
    up = [sum(1 << j for j, b in enumerate(sets) if a & ~b == 0) for a in sets]
    return PartialOrder(size=len(sets), up=tuple(up))


# A 7-element lattice's cylinder takes about 0.4 s to enumerate, so the
# examples are few and fixed.
@settings(max_examples=10, deadline=None, derandomize=True)
@given(moore_lattices())
def test_random_lattices_agree_across_routes(order):
    walks = count_sequence(build_transfer_matrix(join_monoid(order)), 3).values
    assert st_count_sequence(order, 3).values == walks
    assert verify_graph_isomorphism(order) == (True, None)


def test_pairs_round_trip():
    order = _order("chain:2")
    for system in enumerate_saturated_transfer_systems(order):
        rebuilt = TransferRelation.from_pairs(order, system.pairs())
        assert rebuilt.rows == system.rows


def test_cube_lattice_agrees_across_routes():
    # The cube's cylinder has 16 elements and 2480 systems, so this one
    # exercises the enumeration at real scale; 2480 is the known count of
    # submonoids of the four-dimensional cube.
    order = _order("bool:3")
    st_values = st_count_sequence(order, 2).values
    tm_values = count_sequence(build_transfer_matrix(join_monoid(order)), 2).values
    assert st_values == tm_values == (61, 2480, 70780)


def test_enumeration_rejects_invalid_systems(monkeypatch):
    # Without closure, adding the covers 0<1 and 1<2 of the 3-chain one at
    # a time yields a relation that is not transitive.
    def add_pair_only(ctx, rows, cols, x, z):
        return (
            tuple(row | 1 << z if w == x else row for w, row in enumerate(rows)),
            tuple(col | 1 << x if c == z else col for c, col in enumerate(cols)),
        )

    monkeypatch.setattr(transfersystems, "_grow", add_pair_only)
    with pytest.raises(InvariantViolation, match="transitive"):
        transfersystems._saturated_rows.__wrapped__(_order("chain:2"))


def _lattice_or_cylinder(spec, cylinder):
    order = _order(spec)
    return transfersystems._cylinder_order(order) if cylinder else order


def _brute_force_systems(order):
    """Every subset of the strict order pairs that passes the validator,
    in the canonical (popcount, rows) order."""
    pairs = _strict_pairs(order)
    found = []
    for subset in range(1 << len(pairs)):
        rows = TransferRelation.from_pairs(
            order, [pairs[i] for i in bits_of(subset)]
        ).rows
        if is_saturated_transfer_system(order, rows)[0]:
            found.append(rows)
    return tuple(sorted(found, key=lambda r: (sum(v.bit_count() for v in r), r)))


# Every lattice here has at most 12 strict pairs, so at most 4096 subsets.
BRUTE_FORCE_ORDERS = [
    ("chain:1", False),
    ("chain:2", False),
    ("chain:3", False),
    ("chain:4", False),
    ("n5", False),
    ("mk:3", False),
    ("chain:1 x chain:1", False),
    ("chain:2", True),
]


@pytest.mark.parametrize("spec, cylinder", BRUTE_FORCE_ORDERS)
def test_enumeration_matches_brute_force(spec, cylinder):
    order = _lattice_or_cylinder(spec, cylinder)
    assert len(_strict_pairs(order)) <= 12
    expected = _brute_force_systems(order)
    assert transfersystems._saturated_rows.__wrapped__(order) == expected


def _transpose(rows):
    """Column masks of a relation: bit w of cols[c] is set iff w R c."""
    return tuple(
        sum(1 << w for w, row in enumerate(rows) if row >> c & 1) for c in range(len(rows))
    )


def _close(ctx, rows):
    """Reference closure: re-apply transitivity, restriction and saturation
    to the whole relation until nothing changes."""
    n = ctx.order.size
    rows = list(rows)
    meet = ctx.meet
    between = ctx.between
    changed = True
    while changed:
        changed = False
        for x in range(n):
            acc = rows[x]
            rest = acc
            while rest:
                y = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                acc |= rows[y]
            if acc != rows[x]:
                rows[x] = acc
                changed = True
        for x in range(n):
            meet_x = meet[x]
            for z in bits_of(rows[x] & ~(1 << x)):
                meet_z = meet[z]
                for y in range(n):
                    a, b = meet_x[y], meet_z[y]
                    if not rows[a] >> b & 1:
                        rows[a] |= 1 << b
                        changed = True
                mid = between[x][z] & ~(1 << x) & ~(1 << z)
                if mid:
                    if mid & ~rows[x]:
                        rows[x] |= mid
                        changed = True
                    z_bit = 1 << z
                    for y in bits_of(mid):
                        if not rows[y] & z_bit:
                            rows[y] |= z_bit
                            changed = True
    return tuple(rows)


@pytest.mark.parametrize(
    "spec, cylinder", [(spec, False) for spec in DEFAULT_LATTICES] + [("chain:2", True)]
)
def test_grow_matches_reference_closure(spec, cylinder):
    order = _lattice_or_cylinder(spec, cylinder)
    ctx = transfersystems._lattice_context(order)
    checked = 0
    for rows in transfersystems._saturated_rows(order):
        for x, z in ctx.covers:
            if rows[x] >> z & 1:
                continue
            grown = list(rows)
            grown[x] |= 1 << z
            got_rows, got_cols = transfersystems._grow(ctx, rows, _transpose(rows), x, z)
            assert got_rows == _close(ctx, grown)
            assert got_cols == _transpose(got_rows)
            checked += 1
    assert checked > 0


# The lattices of the transfer-systems benchmark workload.
BENCHMARK_LATTICES = ["n5", "chain:2 x chain:1", "chain:1 x chain:2", "mk:4", "chain:4", "chain:5"]


def _transitive_closure_only(ctx, rows, cols, x, z):
    """A broken ``_grow``: adds x R z and closes under transitivity only,
    with nothing that restriction or saturation forces."""
    rows = list(rows)
    rows[x] |= 1 << z
    changed = True
    while changed:
        changed = False
        for w in range(len(rows)):
            reach = rows[w]
            for y in bits_of(rows[w]):
                reach |= rows[y]
            if reach != rows[w]:
                rows[w] = reach
                changed = True
    return tuple(rows), _transpose(rows)


@pytest.mark.parametrize("spec", ["chain:1 x chain:1", "n5", "mk:3"])
def test_enumeration_rejects_systems_missing_required_pairs(monkeypatch, spec):
    monkeypatch.setattr(transfersystems, "_grow", _transitive_closure_only)
    with pytest.raises(InvariantViolation, match="restriction|saturation"):
        transfersystems._saturated_rows.__wrapped__(_order(spec))


def _single_bit_changes(rows):
    """Every relation that differs from ``rows`` in exactly one bit."""
    n = len(rows)
    for x in range(n):
        for y in range(n):
            changed = list(rows)
            changed[x] ^= 1 << y
            yield tuple(changed)


@pytest.mark.parametrize(
    "spec, cylinder",
    [(spec, False) for spec in BENCHMARK_LATTICES + ["bool:3", "mk:5"]] + [("n5", True)],
)
def test_requirement_table_agrees_with_the_clause_validator(spec, cylinder):
    order = _lattice_or_cylinder(spec, cylinder)
    ctx = transfersystems._lattice_context(order)
    systems = set(transfersystems._saturated_rows(order))
    for rows in systems:
        assert is_saturated_transfer_system(order, rows) == (True, None)
        block = [rows, *_single_bit_changes(rows)]
        invalid = transfersystems._invalid_systems(ctx, block)
        for s, changed in enumerate(block):
            expected = is_saturated_transfer_system(order, changed)[0]
            assert (not invalid >> s & 1) == expected, changed
            # and the enumeration missed no system next to one it found
            assert not expected or changed in systems


def _planted_faults():
    """One invalid relation on the 5-chain 0 < 1 < 2 < 3 < 4 per clause,
    each built from a valid system."""
    chain = _order("chain:4")
    discrete = _discrete(chain).rows
    full = _full(chain).rows
    yield "reflexive", (full[0] & ~1, *full[1:])
    yield "refines-order", (discrete[0], discrete[1] | 1, *discrete[2:])
    for position in (5, 7, 8, 63, 64, 100):
        yield "refines-order", (discrete[0] | 1 << position, *discrete[1:])
    # 0 R 1 and 1 R 2 without 0 R 2.
    yield "transitive", TransferRelation.from_pairs(chain, [(0, 1), (1, 2)]).rows
    # The full system less 1 R 2, which 0 R 2 requires through 1.
    yield "saturation", (full[0], full[1] & ~0b100, *full[2:])


@pytest.mark.parametrize("rule, fault", list(_planted_faults()))
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_invalid_systems_flags_exactly_a_planted_fault(rule, fault, where):
    order = _order("chain:4")
    assert is_saturated_transfer_system(order, fault)[1].rule == rule
    systems = list(transfersystems._saturated_rows(order))
    position = {"first": 0, "middle": len(systems) // 2, "last": len(systems)}[where]
    systems.insert(position, fault)
    ctx = transfersystems._lattice_context(order)
    assert transfersystems._invalid_systems(ctx, systems) == 1 << position


def test_invalid_systems_of_no_systems_is_empty():
    ctx = transfersystems._lattice_context(_order("chain:4"))
    assert transfersystems._invalid_systems(ctx, []) == 0


def test_enumeration_names_the_clause_of_a_stray_high_bit(monkeypatch):
    # Only systems grown through the cover 1 < 2 carry the stray bit, so
    # the first one flagged must be one of them: flagging every system
    # would blame the valid discrete one, which the validator passes.
    grow = transfersystems._grow

    def stray_bit(ctx, rows, cols, x, z):
        rows, cols = grow(ctx, rows, cols, x, z)
        if (x, z) == (1, 2):
            rows = (rows[0] | 1 << 9, *rows[1:])
        return rows, cols

    monkeypatch.setattr(transfersystems, "_grow", stray_bit)
    with pytest.raises(InvariantViolation, match="refines-order"):
        transfersystems._saturated_rows.__wrapped__(_order("chain:4"))


def _layer_bit_by_bit(cyl_rows, size, level):
    """A layer of a cylinder system, testing each of the size * size bit
    pairs: bit y of row x is bit 2 * y + level of row 2 * x + level."""
    rows = []
    for x in range(size):
        src = cyl_rows[2 * x + level]
        row = 0
        for y in range(size):
            if src >> (2 * y + level) & 1:
                row |= 1 << y
        rows.append(row)
    return tuple(rows)


@pytest.mark.parametrize("spec", sorted(set(DEFAULT_LATTICES) | set(BENCHMARK_LATTICES)))
def test_layer_matches_bit_by_bit_reference(spec):
    order = _order(spec)
    systems, rows = _st_data(order)
    index = {system: i for i, system in enumerate(systems)}
    counts = [Counter() for _ in systems]
    for cyl_rows in transfersystems._saturated_rows(transfersystems._cylinder_order(order)):
        top = _layer_bit_by_bit(cyl_rows, order.size, 1)
        bottom = _layer_bit_by_bit(cyl_rows, order.size, 0)
        counts[index[top]][index[bottom]] += 1
    assert rows == tuple(tuple(sorted(row.items())) for row in counts)


def test_grow_call_count_on_benchmark_lattices(monkeypatch):
    # Plain Close-by-One called _grow 13,034 times here for 2,630 systems;
    # the failed-test pruning leaves 2,937 calls.
    grow = transfersystems._grow
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return grow(*args)

    monkeypatch.setattr(transfersystems, "_grow", counted)
    systems = 0
    for spec in BENCHMARK_LATTICES:
        for cylinder in (False, True):
            order = _lattice_or_cylinder(spec, cylinder)
            systems += len(transfersystems._saturated_rows.__wrapped__(order))
    assert (calls, systems) == (2937, 2630)


def test_transfer_system_caches_are_bounded():
    for cached in (
        join_table,
        meet_table,
        transfersystems._lattice_context,
        transfersystems._saturated_rows,
        transfersystems._cylinder_order,
        transfersystems._st_data,
    ):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and maxsize >= 12
