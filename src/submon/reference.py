"""Bundled reference spectra and the checks against them.

The CSV under ``data/`` records, for a selection of join-semilattices,
every eigenvalue with its exact coefficient and normalized coefficient.
The verify command and the acceptance tests recompute each monoid's
spectrum from scratch and compare row by row.
"""

from __future__ import annotations

from .monoid import from_spec
from .spectral import spectrum_of
from .transfer import build_transfer_matrix

# Every monoid of the bundled table, in the order ``verify appendix``
# checks them.
SPECS = (
    "chain:1 x chain:1",
    "chain:2 x chain:1",
    "chain:3 x chain:1",
    "bool:3",
    "mk:3",
    "mk:4",
    "mk:5",
    "n5",
    "chain:4 x chain:1",
    "mk:6",
    "mk:7",
)


def load_reference_spectra() -> dict[str, list[tuple[int, Fraction, int]]]:
    """The bundled table keyed by monoid spec string.  Its readers are
    imported here, so no query that never reads it loads them."""
    import csv
    from fractions import Fraction
    from importlib.resources import files

    table: dict[str, list[tuple[int, Fraction, int]]] = {}
    source = files("submon.data").joinpath("spectra_reference.csv")
    with source.open("r", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            table.setdefault(row["monoid"], []).append(
                (
                    int(row["eigenvalue"]),
                    Fraction(row["coefficient"]),
                    int(row["normalized"]),
                )
            )
    return table


def computed_spectrum_rows(spec: str) -> list[tuple[int, Fraction, int]]:
    """Recompute (eigenvalue, coefficient, normalized) rows for one monoid."""
    spectrum = spectrum_of(build_transfer_matrix(from_spec(spec)))
    return list(
        zip(spectrum.eigenvalues, spectrum.coefficients, spectrum.normalized)
    )


def compare_reference(specs) -> list[str]:
    """Mismatch descriptions between recomputed and bundled rows; empty
    when everything agrees exactly."""
    table = load_reference_spectra()
    problems = []
    for spec in specs:
        expected = table.get(spec)
        if expected is None:
            problems.append(f"{spec}: missing from the bundled table")
            continue
        actual = computed_spectrum_rows(spec)
        if len(actual) != len(expected):
            problems.append(
                f"{spec}: {len(actual)} eigenvalues computed, "
                f"{len(expected)} in the table"
            )
            continue
        for got, want in zip(actual, expected):
            if got != want:
                problems.append(f"{spec}: computed {got}, table has {want}")
    return problems
