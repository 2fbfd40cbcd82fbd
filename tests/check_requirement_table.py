"""The requirement table agrees with the clause validator on large cylinders.

Enumeration validates saturated transfer systems against the requirement
table.  For the cylinders of ``bool:3`` and ``mk:5`` this flips every
relation bit of every system (about 955k relations) and requires the
table and ``is_saturated_transfer_system`` to agree, and every valid
result to be an enumerated system.  It takes about 17 s, too slow for the
tier-1 suite, so pytest does not collect this file.  Run it, from the
repository root, as::

    PYTHONPATH=src python -O tests/check_requirement_table.py
"""

from submon import transfersystems as ts
from submon.monoid import from_spec, semilattice_order

for spec in ("bool:3", "mk:5"):
    order = ts._cylinder_order(semilattice_order(from_spec(spec)))
    ctx = ts._lattice_context(order)
    systems = set(ts._saturated_rows(order))
    checked = 0
    for rows in systems:
        for x in range(order.size):
            for y in range(order.size):
                changed = list(rows)
                changed[x] ^= 1 << y
                valid = ts.is_saturated_transfer_system(order, changed)[0]
                if ts._holds_requirements(ctx, changed) != valid:
                    raise SystemExit(f"{spec} cylinder: checks disagree on {changed}")
                if valid and tuple(changed) not in systems:
                    raise SystemExit(f"{spec} cylinder: missed system {changed}")
                checked += 1
    print(f"{spec} cylinder: {len(systems)} systems, {checked} relations agree")
