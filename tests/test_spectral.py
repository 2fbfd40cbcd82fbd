from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_oracle import small_commutative_monoids, union_closed_semilattices

from submon import spectral
from submon.errors import (
    DegenerateSystem,
    FormulaMismatch,
    InvariantViolation,
    NonIntegerCount,
    NotIdempotent,
)
from submon.cli import DEFAULT_MONOIDS
from submon.monoid import from_spec, is_idempotent, make_chain, make_cyclic_group
from submon.spectral import (
    Spectrum,
    chain_eigenmatrix,
    closed_form_eval,
    eigenvalues,
    ogf,
    solve_coefficients,
    spectrum_of,
    verify_recurrence,
)
from submon.transfer import (
    CountSequence,
    Orbits,
    RationalOGF,
    TransferMatrix,
    build_transfer_matrix,
    count_sequence,
    times_annihilator,
    walk_counts,
)

from reference_quotient import flat, paired, reference_row, shape_free
from reference_spectrum import eigen_coefficients

IDEMPOTENT_SPECS = [
    "chain:0",
    "chain:1",
    "chain:2",
    "chain:3",
    "chain:1 x chain:1",
    "chain:2 x chain:1",
    "bool:3",
    "mk:2",
    "mk:3",
    "mk:4",
    "n5",
]


def _matrix(spec):
    return build_transfer_matrix(from_spec(spec))


def test_eigenvalues_of_chains():
    for m in range(6):
        assert eigenvalues(_matrix(f"chain:{m}")) == list(range(2, m + 3))


def test_eigenvalues_examples():
    assert eigenvalues(_matrix("chain:1 x chain:1")) == [2, 3, 4, 6]
    assert eigenvalues(_matrix("mk:3")) == [2, 3, 4, 6, 10]


def test_eigenvalues_rejects_non_idempotent():
    with pytest.raises(NotIdempotent):
        eigenvalues(build_transfer_matrix(make_cyclic_group(2)))


def test_solve_coefficients_small():
    # 2, 7, 23, ... = (2 - 3x) / ((1 - 2x)(1 - 3x)) = -1 * 2**n + 3 * 3**n.
    assert solve_coefficients(RationalOGF((2, -3), (2, 3))) == (Fraction(-1), Fraction(3))
    # The residues leave out the polynomial part of an improper fraction.
    with pytest.raises(ValueError):
        solve_coefficients(RationalOGF((2, -3, 1), (2, 3)))


def test_solve_coefficients_grid():
    series = ogf(_matrix("chain:1 x chain:1"))
    assert series.denominator_roots == (2, 3, 4, 6)
    assert solve_coefficients(series) == (
        Fraction(1, 2),
        Fraction(1),
        Fraction(-12),
        Fraction(35, 2),
    )


def test_solve_coefficients_rejects_duplicates():
    with pytest.raises(DegenerateSystem):
        solve_coefficients(RationalOGF((1, 2, 3), (2, 2, 3)))
    with pytest.raises(DegenerateSystem):
        solve_coefficients(ogf(_matrix("cyclic:2")))


def test_mk3_has_a_vanishing_coefficient():
    spectrum = spectrum_of(_matrix("mk:3"))
    index = spectrum.eigenvalues.index(4)
    assert spectrum.coefficients[index] == 0
    assert spectrum.normalized[index] == 0


def test_normalized_coefficients_grid():
    assert spectrum_of(_matrix("chain:1 x chain:1")).normalized == (4, -3, -48, -420)
    # The definition, c_v times the product of (u - v) over the other
    # eigenvalues u, against the residue numerators spectrum_of reads.
    for spec in IDEMPOTENT_SPECS:
        spectrum = spectrum_of(_matrix(spec))
        eigs = spectrum.eigenvalues
        assert spectrum.normalized == tuple(
            c * prod(u - v for u in eigs if u != v)
            for v, c in zip(eigs, spectrum.coefficients)
        )


def test_coefficients_sum_to_submonoid_count():
    for spec in IDEMPOTENT_SPECS:
        matrix = _matrix(spec)
        spectrum = spectrum_of(matrix)
        assert sum(spectrum.coefficients) == matrix.size


# The idempotent verify monoids and the lattice-spectra benchmark lattices.
EIGENVECTOR_SPECS = [spec for spec in DEFAULT_MONOIDS if is_idempotent(from_spec(spec))] + [
    "chain:4 x chain:1",
    "mk:9",
    "chain:5 x chain:1",
    "mk:4 x chain:1",
    "bool:3",
]


@pytest.mark.parametrize("spec", EIGENVECTOR_SPECS)
def test_coefficients_match_the_eigenvector_route(spec):
    # b_v from the eigenvectors of Q, and of W where k <= 100 so that
    # lumping is not trusted either, at every eigenvalue, zero included;
    # neither reads a count.
    matrix = _matrix(spec)
    spectrum = spectrum_of(matrix)
    expected = dict(zip(spectrum.eigenvalues, spectrum.coefficients))
    assert eigen_coefficients(*paired(matrix.quotient)) == expected
    if matrix.size <= 100:
        rows = [reference_row(matrix.lattice, i) for i in range(matrix.size)]
        assert eigen_coefficients(rows, (1,) * matrix.size) == expected


@settings(max_examples=30, deadline=None)
@given(union_closed_semilattices())
def test_coefficients_match_the_eigenvector_route_on_random_semilattices(monoid):
    matrix = build_transfer_matrix(monoid)
    spectrum = spectrum_of(matrix)
    expected = dict(zip(spectrum.eigenvalues, spectrum.coefficients))
    assert eigen_coefficients(*paired(matrix.quotient)) == expected
    if matrix.size <= 100:
        rows = [reference_row(matrix.lattice, i) for i in range(matrix.size)]
        assert eigen_coefficients(rows, (1,) * matrix.size) == expected


def test_eigenvector_route_rejects_a_chain_of_equal_diagonals():
    with pytest.raises(ValueError, match="classes 1 and 0 are comparable"):
        eigen_coefficients((((0, 2),), ((0, 1), (1, 2))), (1, 1))


def test_closed_form_examples():
    grid = spectrum_of(_matrix("chain:1 x chain:1"))
    assert closed_form_eval(grid, 0) == 7
    assert closed_form_eval(grid, 1) == 61
    chain = spectrum_of(_matrix("chain:1"))
    assert closed_form_eval(chain, 2) == 23


def test_closed_form_matches_counts_beyond_fitting_window():
    for spec in IDEMPOTENT_SPECS:
        matrix = _matrix(spec)
        spectrum = spectrum_of(matrix)
        horizon = 2 * len(spectrum.eigenvalues)
        values = count_sequence(matrix, horizon).values
        for n, value in enumerate(values):
            assert closed_form_eval(spectrum, n) == value


def test_verify_recurrence_true_case():
    matrix = _matrix("chain:1")
    seq = count_sequence(matrix, 4)
    assert seq.values[:3] == (2, 7, 23)
    assert verify_recurrence([2, 3], seq) == (True, None)


def test_verify_recurrence_false_case():
    bogus = CountSequence(values=(1, 1, 1))
    assert verify_recurrence([2], bogus) == (False, 1)


def test_verify_recurrence_needs_enough_terms():
    with pytest.raises(ValueError):
        verify_recurrence([2, 3], CountSequence(values=(2, 7)))


def test_recurrence_for_all_test_monoids():
    # Walked terms only: count_sequence extends past D by this recurrence.
    for spec in IDEMPOTENT_SPECS:
        matrix = _matrix(spec)
        eigs = eigenvalues(matrix)
        seq = CountSequence(tuple(walk_counts(matrix, 2 * len(eigs) - 1)))
        assert verify_recurrence(eigs, seq) == (True, None)


def test_ogf_chain():
    matrix = _matrix("chain:1")
    seq = count_sequence(matrix, 5)
    result = ogf(matrix)
    assert result.numerator == (2, -3)
    assert result.denominator_roots == (2, 3)
    assert result.expand(5) == list(seq.values)


def test_ogf_trivial_monoid():
    matrix = _matrix("chain:0")
    result = ogf(matrix)
    assert result.numerator == (1,)
    assert result.denominator_roots == (2,)


def test_ogf_grid_shape():
    matrix = _matrix("chain:1 x chain:1")
    result = ogf(matrix)
    assert len(result.numerator) == 4
    assert result.numerator[0] == 7


# The verify monoids, the lattices of the lattice-spectra benchmark
# workload, the groups and the monoids of the long-walks workload.
OGF_SPECS = list(DEFAULT_MONOIDS) + [
    "chain:4 x chain:1",
    "mk:9",
    "chain:5 x chain:1",
    "mk:4 x chain:1",
    "bool:3",
    "cyclic:6",
    "cyclic:2 x cyclic:2",
    "cyclic:2 x mk:5",
    "cyclic:2 x chain:3 x chain:1",
    "cyclic:2 x bool:3",
    "cyclic:2 x mk:6",
    "cyclic:3 x mk:4",
]


def _expands_to_walked_counts(matrix):
    # ogf checks its series against the walked S_0..S_D; walked terms up
    # to 3D check it past that, with no recurrence between the walk and
    # the series.
    result = ogf(matrix)
    top = 3 * len(result.denominator_roots)
    assert result.expand(top) == walk_counts(matrix, top)
    if is_idempotent(matrix.lattice.monoid):
        assert result.denominator_roots == tuple(eigenvalues(matrix))


@pytest.mark.parametrize("spec", OGF_SPECS)
def test_ogf_expands_to_walked_counts(spec):
    _expands_to_walked_counts(_matrix(spec))


@settings(max_examples=30, deadline=None)
@given(small_commutative_monoids(max_size=10))
def test_ogf_expands_to_walked_counts_on_random_monoids(monoid):
    _expands_to_walked_counts(build_transfer_matrix(monoid))


def test_ogf_of_a_non_idempotent_monoid():
    # Z2's subgroups {0} and Z2 both have diagonal 2, on one chain, so 2 is
    # a double root: S_n = (n + 4) * 2**(n - 1).
    result = ogf(_matrix("cyclic:2"))
    assert (result.numerator, result.denominator_roots) == ((2, -3), (2, 2))
    assert result.expand(5) == [(n + 4) * 2**n // 2 for n in range(6)]
    with pytest.raises(NotIdempotent):
        spectrum_of(_matrix("cyclic:2"))


def test_chain_eigenmatrix_small():
    assert chain_eigenmatrix(0) == ((1,),)
    assert chain_eigenmatrix(1) == ((1, 0), (-2, 1))


def test_chain_eigenmatrix_rejects_a_negative_length():
    with pytest.raises(ValueError, match="m must be >= 0"):
        chain_eigenmatrix(-1)


def test_chain_eigenmatrix_up_to_five():
    # The identities (diagonalization and inverse row sums) are checked
    # inside; the call completing is the test.
    for m in range(6):
        q = chain_eigenmatrix(m)
        assert len(q) == 1 << m
        assert all(q[i][i] == 1 for i in range(len(q)))


@settings(max_examples=100, deadline=None)
@given(
    eigs=st.lists(st.integers(2, 60), min_size=1, max_size=6, unique=True),
    data=st.data(),
)
def test_solve_round_trip_random(eigs, data):
    # A numerator shorter than the denominator reads as padded with zeros.
    size = data.draw(st.integers(0, len(eigs)))
    numerator = tuple(data.draw(st.integers(-1000, 1000)) for _ in range(size))
    series = RationalOGF(numerator, tuple(eigs))
    coefficients = solve_coefficients(series)
    for n, value in enumerate(series.expand(2 * len(eigs) + 3)):
        assert sum(c * v**n for c, v in zip(coefficients, eigs)) == value


@settings(max_examples=100, deadline=None)
@given(
    roots=st.lists(st.integers(0, 12), max_size=6),
    numerator=st.lists(st.integers(-1000, 1000), max_size=8),
    terms=st.lists(st.integers(-1000, 1000), max_size=12),
    n_max=st.integers(0, 20),
)
def test_times_annihilator_inverts_expand(roots, numerator, terms, n_max):
    # Repeated roots too, as a count annihilator has them.  The first
    # n_max + 1 terms of P/A times A are P, then zeros ...
    series = RationalOGF(tuple(numerator), tuple(roots))
    padded = (numerator + [0] * (n_max + 1))[: n_max + 1]
    assert times_annihilator(series.expand(n_max), roots) == padded
    # ... and (terms times A) / A expands to the terms.
    product = RationalOGF(tuple(times_annihilator(terms, roots)), tuple(roots))
    assert product.expand(len(terms) - 1) == terms


def test_inverse_row_sums_are_half_factorials():
    # Re-derive the identity checked inside chain_eigenmatrix one level up:
    # solve the linear system by hand for m == 2.
    q = chain_eigenmatrix(2)
    members = (1, 3, 5, 7)
    sums = [Fraction(factorial(m.bit_count() + 1), 2) for m in members]
    for i in range(4):
        assert sum(q[i][j] * sums[j] for j in range(4)) == 1


def test_equal_diagonal_certificate_rejects_tampered_block():
    grid = build_transfer_matrix(from_spec("chain:1 x chain:1"))
    # Rows 1 and 2 share the diagonal value 3; a weight between them
    # breaks diagonalizability.
    rows = list(grid.entries)
    assert rows[1][-1][1] == rows[2][-1][1] == 3
    rows[2] = ((0, 2), (1, 1), (2, 3))
    # Set on a fresh matrix: the built one is cached and shared.
    trivial = Orbits(tuple(range(7)), tuple(range(7)))
    tampered = TransferMatrix(lattice=grid.lattice, orbits=trivial)
    # Lumped by signatures alone: row 2 shares row 1's shape, which would
    # skip it.
    vars(tampered)["quotient"] = flat(shape_free(rows.__getitem__, trivial))
    with pytest.raises(InvariantViolation, match="equal-diagonal block"):
        eigenvalues(tampered)


def test_closed_form_rejects_a_fractional_count():
    with pytest.raises(NonIntegerCount, match="gave 1/2 at n=0"):
        closed_form_eval(Spectrum((2,), (Fraction(1, 2),), (1,)), 0)


def test_spectrum_rejects_coefficients_not_summing_to_s0(monkeypatch):
    residues = spectral._residues

    def off_by_one(series):
        (h, g), *rest = residues(series)
        return [(h + g, g), *rest]

    monkeypatch.setattr(spectral, "_residues", off_by_one)
    with pytest.raises(FormulaMismatch):
        spectrum_of(build_transfer_matrix(from_spec("chain:1")))


@pytest.mark.parametrize(
    "q, broken",
    [
        # Not an eigenvector matrix of W.
        (((1, 0), (-1, 1)), "eigenmatrix identity"),
        # Scaling keeps W q == q D but halves the inverse row sums.
        (((2, 0), (-4, 2)), "inverse row sum"),
    ],
)
def test_chain_eigenmatrix_checks_reject_tampered_q(q, broken):
    matrix = build_transfer_matrix(make_chain(1))
    with pytest.raises(FormulaMismatch, match=broken):
        spectral._check_chain_eigenmatrix(matrix, q)
