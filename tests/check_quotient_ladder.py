"""The quotient summed over ideals equals the reference lumping on two ladder rungs.

``TransferMatrix.quotient`` sums each row over the ideals of its
submonoid and lumps it through the member-to-class array.  On each rung
this requires it to equal the reference lumping, which builds the same
representatives' rows column by column with ``reference_row``, checks
their row contract, and lumps them by the same shapes:

- ``chain:2 x chain:5`` (k = 10,133, 1,847 rows summed), whose Aut(M) is
  trivial, so every member is its own orbit;
- ``mk:4 x chain:2`` (k = 10,249, 1,041 orbits), whose orbits hold
  members above later representatives, so the quotient reads classes of
  orbits whose representatives come before the row's.

Together they take about 9 s, too slow for the tier-1 suite, so pytest
does not collect this file.  Run it, from the repository root, as::

    PYTHONPATH=src python -O tests/check_quotient_ladder.py
"""

from functools import partial

from submon.monoid import from_spec
from submon.transfer import _shape, build_transfer_matrix

from reference_quotient import flat, lump, reference_row

for spec in ("chain:2 x chain:5", "mk:4 x chain:2"):
    matrix = build_transfer_matrix(from_spec(spec))
    table, members = matrix.lattice.monoid.table, matrix.lattice.members
    row = partial(reference_row, matrix.lattice)
    reference = lump(row, matrix.orbits, lambda i: _shape(table, members[i]))
    if matrix.quotient != flat(reference):
        raise SystemExit(f"{spec}: the quotient differs from the reference lumping")
    rows, sizes = reference
    print(
        f"ok quotient {spec}: k={sum(sizes)}, {len(matrix.orbits.reps)} orbits,"
        f" {len(rows)} classes equal the reference lumping"
    )
