from functools import partial
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submon.errors import SizeLimitExceeded
from submon.monoid import from_table, make_chain, make_cyclic_group, make_power, make_product
from submon.oracle import DEFAULT_MAX_ORACLE_SIZE, _closed_masks, brute_force_submonoid_count
from submon.submonoids import enumerate_submonoids
from submon.transfer import Orbits, TransferMatrix, build_transfer_matrix, count_sequence, walk

from dense_table import dense
from reference_counts import brute_force_projection_count, brute_force_weight
from reference_quotient import reference_row, shape_free

GRID = make_product(make_chain(1), make_chain(1))


def test_trivial_monoid_counts_subsets_with_bottom():
    trivial = make_chain(0)
    for n in range(6):
        assert brute_force_submonoid_count(trivial, n) == 2**n


def test_known_counts():
    assert brute_force_submonoid_count(make_chain(1), 1) == 7
    assert brute_force_submonoid_count(make_cyclic_group(2), 1) == 5


def test_budget():
    with pytest.raises(SizeLimitExceeded):
        brute_force_submonoid_count(make_chain(7), 1)


def test_weight_examples():
    assert brute_force_weight(GRID, 0b1011, 0b1001) == 2
    assert brute_force_weight(GRID, 0b1111, 0b1111) == 6


def test_weight_full_sweep_reproduces_grid_matrix():
    matrix = build_transfer_matrix(GRID)
    members = matrix.lattice.members
    for a, row in zip(members, dense(matrix)):
        assert [brute_force_weight(GRID, a, b) for b in members] == list(row)


def test_projection_count_base_case():
    for a in enumerate_submonoids(GRID).members:
        assert brute_force_projection_count(GRID, 0, a) == 1


def test_projection_counts_partition():
    chain = make_chain(1)
    for n in range(3):
        total = sum(
            brute_force_projection_count(chain, n, a)
            for a in enumerate_submonoids(chain).members
        )
        assert total == brute_force_submonoid_count(chain, n)


def test_projection_recursion():
    # One level of the projection recursion, recomputed directly.
    chain = make_chain(1)
    matrix = build_transfer_matrix(chain)
    members = matrix.lattice.members
    for n in range(2):
        for a, row in zip(members, dense(matrix)):
            recursed = sum(
                w * brute_force_projection_count(chain, n, b)
                for w, b in zip(row, members)
            )
            assert recursed == brute_force_projection_count(chain, n + 1, a)


def _monogenic(index, period):
    """<a | a^(index + period) = a^index>; element k is a^k."""
    n = index + period

    def power(k):
        return k if k < n else index + (k - index) % period

    return from_table([[power(x + y) for y in range(n)] for x in range(n)], 0)


def _null_with_identity(size):
    """The null semigroup on 0..size-1 (every product is 0) with an
    identity adjoined as element ``size``."""
    n = size + 1
    table = [
        [y if x == size else x if y == size else 0 for y in range(n)]
        for x in range(n)
    ]
    return from_table(table, size)


@st.composite
def small_commutative_monoids(draw, max_size=DEFAULT_MAX_ORACLE_SIZE):
    """Monogenic monoids and null semigroups with an identity, alone, times
    a second such atom, or the square of one of at most 3 elements, whose
    swap of factors is an automorphism; at most ``max_size`` elements."""

    def atom(limit):
        if draw(st.booleans()):
            index = draw(st.integers(0, limit - 1))
            return _monogenic(index, draw(st.integers(1, limit - index)))
        return _null_with_identity(draw(st.integers(1, limit - 1)))

    if draw(st.integers(0, 3)) == 0:
        return make_power(atom(min(3, isqrt(max_size))), 2)
    monoid = atom(max_size)
    if 2 * monoid.size <= max_size and draw(st.booleans()):
        monoid = make_product(monoid, atom(max_size // monoid.size))
    return monoid


@settings(max_examples=40, deadline=None)
@given(small_commutative_monoids())
def test_random_monoids_match_oracle(monoid):
    # Lists, not sets, so that a submonoid yielded twice fails.
    members = enumerate_submonoids(monoid).members
    assert sorted(members) == sorted(_closed_masks(monoid))
    matrix = build_transfer_matrix(monoid)
    counts = count_sequence(matrix, 3).values
    if 2 * monoid.size <= DEFAULT_MAX_ORACLE_SIZE:
        assert counts[1] == brute_force_submonoid_count(monoid, 1)
        # The lumped walk against the walk over every reference row of W.
        rows = [reference_row(matrix.lattice, i) for i in range(matrix.size)]
        full = walk(rows, [1] * matrix.size, 3)
        assert list(counts[1:]) == [sum(v) for v in full]
    # Three routes to one quotient: orbits and shapes, shapes over one
    # orbit per member, and orbits with every representative's
    # reference row lumped by its signature alone.
    ids = tuple(range(matrix.size))
    plain = TransferMatrix(matrix.lattice, Orbits(ids, ids))
    assert matrix.quotient == plain.quotient
    assert matrix.quotient == shape_free(partial(reference_row, matrix.lattice), matrix.orbits)
    assert counts == count_sequence(plain, 3).values
