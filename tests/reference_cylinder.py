"""The cylinder P x [1] and the reference tally of its systems by layer.

``_st_data`` counts the systems on the cylinder by their two layers
without enumerating any; :func:`cylinder_tally` enumerates them all with
the library's Fast Close-by-One engine and reads each one's layers bit
by bit, and the tests hold the two equal.  The cylinders also give the
engine and the requirement table larger orders to run on.  pytest does
not collect this file.
"""

from collections import Counter

from submon import transfersystems
from submon.monoid import PartialOrder, join_monoid, make_chain, make_product, semilattice_order


def cylinder_order(order: PartialOrder) -> PartialOrder:
    """The lattice order of (P x two-element chain); (x, level) sits at
    index 2 * x + level."""
    return semilattice_order(make_product(join_monoid(order), make_chain(1)))


def layer(cyl_rows, size: int, level: int) -> tuple[int, ...]:
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


def cylinder_tally(order: PartialOrder):
    """What ``_st_data(order)`` returns, from every system on the cylinder:
    P's canonical systems, and for each as the top layer the sorted
    (bottom layer index, count) pairs of the cylinder systems with those
    two layers."""
    systems = transfersystems._saturated_rows(order)
    index = {rows: i for i, rows in enumerate(systems)}
    counts = [Counter() for _ in systems]
    for cyl_rows in transfersystems._saturated_rows.__wrapped__(cylinder_order(order)):
        top = layer(cyl_rows, order.size, 1)
        bottom = layer(cyl_rows, order.size, 0)
        counts[index[top]][index[bottom]] += 1
    return systems, tuple(tuple(sorted(row.items())) for row in counts)
