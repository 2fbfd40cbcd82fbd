"""Readers of orders and relations that only the tests use.

:func:`leq` reads one entry of a ``PartialOrder``, and :func:`from_pairs`
builds a ``TransferRelation`` from its non-reflexive pairs, the inverse
of ``TransferRelation.pairs``.  :func:`union_find_chi` is the reference
that the bulk ``chi`` is held against.  pytest does not collect this
file.
"""

from submon.errors import NonUniqueMinimal
from submon.monoid import PartialOrder, bits_of
from submon.transfersystems import TransferRelation


def leq(order: PartialOrder, x: int, y: int) -> bool:
    return bool(order.up[x] >> y & 1)


def from_pairs(order: PartialOrder, pairs) -> TransferRelation:
    rows = [1 << x for x in range(order.size)]
    for x, y in pairs:
        rows[x] |= 1 << y
    return TransferRelation(order=order, rows=tuple(rows))


def union_find_chi(relation: TransferRelation) -> int:
    """Minimal element of each connected component of the relation, one
    component at a time: the components by union-find, then the elements
    of each that nothing else in it relates to."""
    n = relation.order.size
    rows = relation.rows
    incoming = [0] * n
    for x in range(n):
        for y in bits_of(rows[x] & ~(1 << x)):
            incoming[y] |= 1 << x
    component = list(range(n))

    def find(x):
        while component[x] != x:
            component[x] = component[component[x]]
            x = component[x]
        return x

    for x in range(n):
        for y in bits_of(rows[x]):
            component[find(x)] = find(y)
    members: dict[int, list[int]] = {}
    for x in range(n):
        members.setdefault(find(x), []).append(x)
    result = 0
    for group in members.values():
        group_mask = 0
        for x in group:
            group_mask |= 1 << x
        minima = [x for x in group if not incoming[x] & group_mask]
        if len(minima) != 1:
            raise NonUniqueMinimal(
                f"component {sorted(group)} has minima {minima}"
            )
        result |= 1 << minima[0]
    return result
