"""Readers of orders and relations that only the tests use.

:func:`leq` reads one entry of a ``PartialOrder``, and :func:`from_pairs`
builds a ``TransferRelation`` from its non-reflexive pairs, the inverse
of ``TransferRelation.pairs``.  pytest does not collect this file.
"""

from submon.monoid import PartialOrder
from submon.transfersystems import TransferRelation


def leq(order: PartialOrder, x: int, y: int) -> bool:
    return bool(order.up[x] >> y & 1)


def from_pairs(order: PartialOrder, pairs) -> TransferRelation:
    rows = [1 << x for x in range(order.size)]
    for x, y in pairs:
        rows[x] |= 1 << y
    return TransferRelation(order=order, rows=tuple(rows))
