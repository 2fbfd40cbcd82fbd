import random
from itertools import combinations, compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submon.cli import DEFAULT_MONOIDS
from submon.errors import SizeLimitExceeded
from submon.monoid import (
    from_spec,
    make_bool,
    make_chain,
    make_cyclic_group,
    make_product,
    semilattice_order,
)
from submon.oracle import _closed_masks
from submon.submonoids import (
    _add_element,
    bits_of,
    closed_sets,
    enumerate_submonoids,
    ideal_row,
    inclusion_order,
)
from submon.transfer import build_transfer_matrix
from test_oracle import closure_mismatches

from reference_counts import brute_force_weight
from reference_quotient import UpsetCounter, condense, divisibility_preorder
from relations import leq

GRID = make_product(make_chain(1), make_chain(1))

# Small monoids for the exhaustive weight-versus-oracle sweep.
SWEEP = [
    make_chain(2),
    make_chain(4),
    make_cyclic_group(4),
    make_cyclic_group(6),
    make_product(make_cyclic_group(2), make_cyclic_group(2)),
    GRID,
    from_spec("mk:2"),
    from_spec("n5"),
]


def closure(monoid, seed):
    """Smallest submonoid containing ``seed``: the identity, then the
    elements of ``seed`` added one at a time, as enumeration grows them."""
    mask = 1 << monoid.identity
    for x in bits_of(seed):
        mask = _add_element(monoid.table, mask, tuple(bits_of(mask)), x)
    return mask


def weight(monoid, a, b):
    """W(a, b) from the shipped row of the submonoid ``a``; zero when the
    submonoid ``b`` is not inside it."""
    matrix = build_transfer_matrix(monoid)
    index_of = matrix.lattice.index_of
    return dict(matrix.row(index_of[a])).get(index_of[b], 0)


def count_upsets_containing(cond, required):
    """Upsets of the condensed classes that contain the up-closed ``required``."""
    return UpsetCounter(cond.order).count(cond.order.full_mask & ~required)


def test_closure_examples():
    assert closure(make_chain(2), 0b100) == 0b101
    assert closure(make_cyclic_group(4), 0b0010) == 0b1111
    assert closure(GRID, 0b0110) == 0b1111


def test_closure_is_monotone_and_idempotent():
    m = from_spec("n5")
    for seed in range(1 << m.size):
        closed = closure(m, seed)
        assert seed | closed == closed
        assert closure(m, closed) == closed


# The closure through powers against the oracle, for every submonoid A
# and element x: the default monoids, a power cycle longer than 2, and a
# group factor whose powers cycle back to the identity.
@pytest.mark.parametrize("spec", DEFAULT_MONOIDS + ("cyclic:7", "cyclic:2 x chain:2"))
def test_add_element_is_the_least_submonoid_holding_both(spec):
    assert closure_mismatches(from_spec(spec)) == []


def test_enumerate_counts():
    assert len(enumerate_submonoids(make_chain(1))) == 2
    assert len(enumerate_submonoids(GRID)) == 7
    assert len(enumerate_submonoids(make_cyclic_group(6))) == 4
    assert len(enumerate_submonoids(make_bool(3))) == 61


def test_enumerate_matches_naive_filter():
    for m in SWEEP:
        assert sorted(enumerate_submonoids(m).members) == sorted(_closed_masks(m))


def test_enumeration_order_is_linear_extension():
    members = enumerate_submonoids(from_spec("chain:2 x chain:1")).members
    for i, a in enumerate(members):
        for j, b in enumerate(members):
            if a & ~b == 0 and a != b:
                assert i < j


def test_enumeration_budget():
    with pytest.raises(SizeLimitExceeded):
        enumerate_submonoids(make_bool(3), max_size=6)


def test_enumeration_above_default_budget():
    # Raising the budget past the default 20 elements enumerates larger
    # monoids; submonoids of a finite cyclic group are its subgroups, one
    # per divisor of the order.
    lattice = enumerate_submonoids(make_cyclic_group(24), max_size=24)
    assert len(lattice) == 8
    assert lattice.members[0] == 1
    for i, a in enumerate(lattice.members):
        for b in lattice.members[i + 1:]:
            assert b & ~a
    # 21 elements, one past the default budget: subgroups of orders 1, 3,
    # 7 and 21.
    lattice = enumerate_submonoids(make_cyclic_group(21), max_size=21)
    assert [m.bit_count() for m in lattice.members] == [1, 3, 7, 21]


def test_divisibility_classes():
    chain = make_chain(2)
    cond = condense(divisibility_preorder(chain, 0b111))
    assert len(cond.classes) == 3
    assert all(len(c) == 1 for c in cond.classes)

    group = make_cyclic_group(2)
    cond = condense(divisibility_preorder(group, 0b11))
    assert len(cond.classes) == 1

    cond = condense(divisibility_preorder(GRID, 0b1111))
    assert len(cond.classes) == 4


def test_divisibility_equals_order_for_idempotent():
    m = from_spec("n5")
    order = semilattice_order(m)
    pre = divisibility_preorder(m, (1 << m.size) - 1)
    assert pre.reach == order.up


def test_count_upsets_examples():
    chain_cond = condense(divisibility_preorder(make_chain(2), 0b111))
    assert count_upsets_containing(chain_cond, 0) == 4

    grid_cond = condense(divisibility_preorder(GRID, 0b1111))
    assert count_upsets_containing(grid_cond, 0) == 6


def test_count_upsets_with_forced_classes():
    # The hook {bottom, one middle, top} inside the grid: forcing the
    # middle's class and everything above leaves only the bottom free.
    cond = condense(divisibility_preorder(GRID, 0b1011))
    middle = next(i for i, cls in enumerate(cond.classes) if cls == (1,))
    required = cond.order.up[middle]
    assert count_upsets_containing(cond, required) == 2


def test_count_upsets_against_exhaustion():
    for m in SWEEP:
        for a in enumerate_submonoids(m).members:
            cond = condense(divisibility_preorder(m, a))
            k = len(cond.classes)
            naive = 0
            for pattern in range(1 << k):
                if all(
                    cond.order.up[c] & ~pattern == 0
                    for c in range(k)
                    if pattern >> c & 1
                ):
                    naive += 1
            assert count_upsets_containing(cond, 0) == naive


def test_enumerate_ideals_examples():
    # W(A, A) counts every ideal of A, the empty one included: two in C2,
    # three in the two-element chain, six in the grid.
    for m, a, ideals in [
        (make_cyclic_group(2), 0b11, 2),
        (make_chain(1), 0b11, 3),
        (GRID, 0b1111, 6),
    ]:
        assert weight(m, a, a) == brute_force_weight(m, a, a) == ideals


def test_ideal_count_matches_upset_count():
    for m in SWEEP:
        for a in enumerate_submonoids(m).members:
            cond = condense(divisibility_preorder(m, a))
            assert brute_force_weight(m, a, a) == count_upsets_containing(cond, 0)


def test_weight_examples():
    # Worked 2x2 grid example: the three-element hook against the diagonal.
    assert weight(GRID, 0b1011, 0b1001) == 2
    assert weight(GRID, 0b1111, 0b1111) == 6
    assert weight(make_chain(1), 0b01, 0b11) == 0


def test_weight_matches_brute_force_everywhere():
    for m in SWEEP:
        if m.size > 6:
            continue
        members = enumerate_submonoids(m).members
        for a in members:
            for b in members:
                assert weight(m, a, b) == brute_force_weight(m, a, b)


def test_ideal_rows_match_brute_force_weights():
    # Every row summed over ideals against brute-force ideal counting,
    # which shares nothing with either weight routine.
    for m in SWEEP:
        lattice = enumerate_submonoids(m)
        members = lattice.members
        for i, a in enumerate(members):
            diagonal, where, weights = ideal_row(lattice, i)
            inside = [j for j in range(i) if not members[j] & ~a]
            assert list(compress(range(i), where)) == inside
            assert list(weights) == [brute_force_weight(m, a, members[j]) for j in inside]
            assert diagonal == brute_force_weight(m, a, a)


@pytest.mark.parametrize("spec", DEFAULT_MONOIDS)
def test_ideal_row_selector_is_the_members_below(spec):
    # The selector is one byte of 0 or 1 per member below i, and it
    # selects exactly the members strictly inside member i.
    lattice = enumerate_submonoids(from_spec(spec))
    for i in range(len(lattice)):
        where = ideal_row(lattice, i)[1]
        assert len(where) == i and set(where) <= {0, 1}
        assert sum(b << j for j, b in enumerate(where)) == lattice.below(i) ^ 1 << i


@pytest.mark.parametrize("spec", DEFAULT_MONOIDS + ("bool:3", "mk:2 x chain:1"))
def test_member_bitsets(spec):
    lattice = enumerate_submonoids(from_spec(spec))
    members = lattice.members
    for x, bitset in enumerate(lattice.containing):
        assert bitset == sum(1 << j for j, b in enumerate(members) if b >> x & 1)
    up = inclusion_order(lattice).up
    for i, a in enumerate(members):
        assert lattice.below(i) == sum(1 << j for j, b in enumerate(members) if not b & ~a)
        assert up[i] == sum(1 << j for j, b in enumerate(members) if not a & ~b)


def _antichain_count(order, subset):
    elements = [x for x in range(order.size) if subset >> x & 1]
    count = 0
    for r in range(len(elements) + 1):
        for combo in combinations(elements, r):
            if all(
                not leq(order, x, y)
                for x in combo
                for y in combo
                if x != y
            ):
                count += 1
    return count


def test_idempotent_diagonal_counts_antichains():
    for spec in ["chain:1 x chain:1", "mk:3", "n5"]:
        m = from_spec(spec)
        order = semilattice_order(m)
        for a in enumerate_submonoids(m).members:
            assert weight(m, a, a) == _antichain_count(order, a)


def test_idempotent_diagonal_strictly_increases():
    for spec in ["chain:3", "chain:1 x chain:1", "mk:3", "n5"]:
        m = from_spec(spec)
        members = enumerate_submonoids(m).members
        for a in members:
            for b in members:
                if a != b and a & ~b == 0:
                    assert weight(m, a, a) < weight(m, b, b)


def test_group_weight_trichotomy():
    for m in [make_cyclic_group(2), make_cyclic_group(3), make_cyclic_group(4),
              make_cyclic_group(6),
              make_product(make_cyclic_group(2), make_cyclic_group(2))]:
        members = enumerate_submonoids(m).members
        for a in members:
            for b in members:
                w = weight(m, a, b)
                if a == b:
                    assert w == 2
                elif b & ~a == 0:
                    assert w == 1
                else:
                    assert w == 0


def test_inclusion_order_of_grid_lattice():
    lattice = enumerate_submonoids(GRID)
    order = inclusion_order(lattice)
    assert order.size == 7
    assert leq(order, 0, 6)
    assert not leq(order, 1, 2)


BOOL3_SUBMONOIDS = set(_closed_masks(make_bool(3)))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=255), extra=st.integers(0, 255))
def test_closure_properties_random(seed, extra):
    m = make_bool(3)
    seed &= (1 << m.size) - 1
    extra &= (1 << m.size) - 1
    closed = closure(m, seed)
    assert closed in BOOL3_SUBMONOIDS
    assert closure(m, seed | extra) | closed == closure(m, seed | extra)


@pytest.mark.parametrize("spec", DEFAULT_MONOIDS)
def test_enumeration_matches_oracle(spec):
    # Lists, not sets, so that a submonoid yielded twice fails.
    m = from_spec(spec)
    assert sorted(enumerate_submonoids(m).members) == sorted(_closed_masks(m))


def _close_by_one(bottom, bottom_gens, generators, extend):
    """Plain Close-by-One (Kuznetsov 1993): the unpruned reference loop
    for :func:`closed_sets`."""
    stack = [(bottom, bottom_gens, 0)]
    while stack:
        state, gens, start = stack.pop()
        yield state
        for i in range(start, generators):
            bit = 1 << i
            if gens & bit:
                continue
            child, child_gens = extend(state, i)
            if not (child_gens ^ gens) & (bit - 1):
                stack.append((child, child_gens, i + 1))


def _random_moore_family(rng, points):
    """A random family of subsets of ``points`` points that holds the whole
    set and is closed under intersection."""
    full = (1 << points) - 1
    family = {full}
    for _ in range(rng.randrange(4 * points)):
        density = rng.uniform(0.3, 1)
        mask = sum(1 << p for p in range(points) if rng.random() < density)
        family |= {mask & f for f in family}
    return family


def test_closed_sets_matches_plain_close_by_one():
    # Seeded random closure systems on at most 8 points: both loops must
    # yield exactly the family, each set once, and the pruned one may only
    # save closure calls.
    saved = 0
    for seed in range(60):
        rng = random.Random(seed)
        points = rng.randint(1, 8)
        family = _random_moore_family(rng, points)
        closure_of = []
        for subset in range(1 << points):
            closed = (1 << points) - 1
            for f in family:
                if not subset & ~f:
                    closed &= f
            closure_of.append(closed)
        calls = [0]

        def extend(state, i):
            calls[0] += 1
            grown = closure_of[state | 1 << i]
            return grown, grown

        bottom = closure_of[0]
        fast = list(closed_sets(bottom, bottom, points, extend))
        fast_calls, calls[0] = calls[0], 0
        plain = list(_close_by_one(bottom, bottom, points, extend))
        assert sorted(fast) == sorted(plain) == sorted(family), seed
        assert fast_calls <= calls[0], seed
        saved += calls[0] - fast_calls
    assert saved > 0
