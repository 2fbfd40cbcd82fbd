"""The quotient summed over ideals equals the reference lumping on a ladder rung.

``TransferMatrix.quotient`` sums each row over the ideals of its
submonoid.  On ``chain:2 x chain:5`` (k = 10,133, 1,847 rows summed)
this requires it to equal the reference lumping, which builds the same
representatives' rows column by column with ``reference_row``, checks
their row contract, and lumps them by the same shapes.  It takes about
8 s, too slow for the tier-1 suite, so pytest does not collect this
file.  Run it, from the repository root, as::

    PYTHONPATH=src python -O tests/check_quotient_ladder.py
"""

from functools import partial

from submon.monoid import from_spec
from submon.transfer import _shape, build_transfer_matrix

from reference_quotient import lump, reference_row

spec = "chain:2 x chain:5"
matrix = build_transfer_matrix(from_spec(spec))
table, members = matrix.lattice.monoid.table, matrix.lattice.members
row = partial(reference_row, matrix.lattice)
reference = lump(row, matrix.orbits, lambda i: _shape(table, members[i]))
if matrix.quotient != reference:
    raise SystemExit(f"{spec}: the quotient differs from the reference lumping")
rows, sizes = reference
print(f"ok quotient {spec}: k={sum(sizes)}, {len(rows)} classes equal the reference lumping")
