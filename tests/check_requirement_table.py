"""The requirement table agrees with the clause validator on large cylinders.

Enumeration validates saturated transfer systems against the requirement
table.  For the cylinders of ``bool:3`` and ``mk:5`` this flips every
relation bit of every system (about 955k relations) and requires the
table and ``is_saturated_transfer_system`` to agree, and every valid
result to be an enumerated system.  The table is read by the bulk check,
one call per system on a block of the system and its single-bit changes.
It also requires the bulk ``chi`` of all the systems at once to equal the
union-find reference's on each.  It takes about 15 s, too slow for the
tier-1 suite, so pytest does not collect this file.  Run it, from the
repository root, as::

    PYTHONPATH=src python -O tests/check_requirement_table.py
"""

from submon import transfersystems as ts
from submon.monoid import from_spec, semilattice_order

from reference_cylinder import cylinder_order
from relations import union_find_chi

for spec in ("bool:3", "mk:5"):
    order = cylinder_order(semilattice_order(from_spec(spec)))
    ctx = ts._lattice_context(order)
    systems = set(ts._saturated_rows(order))
    checked = 0
    for rows in systems:
        block = [rows]
        for x in range(order.size):
            for y in range(order.size):
                changed = list(rows)
                changed[x] ^= 1 << y
                block.append(tuple(changed))
        invalid = ts._invalid_systems(ctx, block)
        for s, changed in enumerate(block):
            valid = ts.is_saturated_transfer_system(ts.TransferRelation(order, changed))[0]
            if (not invalid >> s & 1) != valid:
                raise SystemExit(f"{spec} cylinder: checks disagree on {changed}")
            if valid and changed not in systems:
                raise SystemExit(f"{spec} cylinder: missed system {changed}")
        checked += len(block) - 1
    print(f"{spec} cylinder: {len(systems)} systems, {checked} relations agree")
    ordered = sorted(systems)
    masks = ts._chi_masks(order, ordered)
    for rows, mask in zip(ordered, masks, strict=True):
        if mask != union_find_chi(ts.TransferRelation(order, rows)):
            raise SystemExit(f"{spec} cylinder: chi disagrees with the reference on {rows}")
    print(f"{spec} cylinder: chi agrees with the reference on {len(masks)} systems")
