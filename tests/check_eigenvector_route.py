"""The eigenvector route gives the residue coefficients on four larger rungs.

``spectrum_of`` reads each b_v off the residues of the counts' generating
function, whose numerator comes from the solved counts.
``reference_spectrum.eigen_coefficients`` derives them from the lumped
quotient's eigenvectors and reads no count.  On each rung this requires
the two to agree at every eigenvalue, zero coefficients included:

- ``chain:3 x chain:3`` (466 classes), about 6.5 s;
- ``chain:6 x chain:1``, about 1.2 s;
- ``mk:16``, about 1 s;
- ``bool:4``, about 0.6 s.

The tier-1 suite runs the same comparison on smaller idempotent monoids.
Together these take about 10 s, too slow for tier-1, so pytest does not
collect this file.  Run it, from the repository root, as::

    PYTHONPATH=src python -O tests/check_eigenvector_route.py
"""

from submon.monoid import from_spec
from submon.spectral import spectrum_of
from submon.transfer import build_transfer_matrix

from reference_quotient import paired
from reference_spectrum import eigen_coefficients

for spec in ("chain:3 x chain:3", "chain:6 x chain:1", "mk:16", "bool:4"):
    matrix = build_transfer_matrix(from_spec(spec))
    spectrum = spectrum_of(matrix)
    expected = dict(zip(spectrum.eigenvalues, spectrum.coefficients))
    if eigen_coefficients(*paired(matrix.quotient)) != expected:
        raise SystemExit(f"{spec}: the eigenvector route differs from the residues")
    print(
        f"ok eigenvector route {spec}: {len(matrix.quotient[0])} classes,"
        f" {len(expected)} eigenvalues agree"
    )
