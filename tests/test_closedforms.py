from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

from submon import closedforms
from submon.closedforms import (
    abelian_group_count,
    chain_coefficient,
    chain_counts,
    chain_eigenvalues,
    ladder_eigenvalues,
    mk_eigenvalues,
    poly_bernoulli,
    stirling2,
)
from submon.errors import FormulaMismatch, IndexOutOfRange
from submon.monoid import (
    from_spec,
    make_cyclic_group,
    make_product,
    semilattice_order,
)
from submon.spectral import eigenvalues, spectrum_of
from submon.submonoids import bits_of, enumerate_submonoids, inclusion_order
from submon.transfer import build_transfer_matrix, count_sequence

from relations import leq


def _brute_force_chains(order):
    elements = range(order.size)
    counts = []
    length = 0
    while True:
        total = 0
        for combo in combinations(elements, length + 1):
            if all(
                leq(order, combo[i], combo[i + 1]) and combo[i] != combo[i + 1]
                for i in range(length)
            ):
                total += 1
        if total == 0:
            return counts
        counts.append(total)
        length += 1


def _subgroup_order(group):
    return inclusion_order(enumerate_submonoids(group))


def test_chain_counts_small_chains():
    two_chain = semilattice_order(from_spec("chain:1"))
    assert chain_counts(two_chain) == (2, 1)
    c4_poset = _subgroup_order(make_cyclic_group(4))
    assert chain_counts(c4_poset) == (3, 3, 1)


def test_chain_counts_klein_four_subgroups():
    klein = make_product(make_cyclic_group(2), make_cyclic_group(2))
    order = _subgroup_order(klein)
    assert chain_counts(order) == tuple(_brute_force_chains(order))


def test_chain_counts_match_brute_force():
    for spec in ["chain:3", "mk:3", "n5", "chain:1 x chain:1"]:
        order = semilattice_order(from_spec(spec))
        assert chain_counts(order) == tuple(_brute_force_chains(order))


def test_abelian_group_count_examples():
    c2 = chain_counts(_subgroup_order(make_cyclic_group(2)))
    assert abelian_group_count(c2, 0) == 2
    assert abelian_group_count(c2, 1) == 5
    c4 = chain_counts(_subgroup_order(make_cyclic_group(4)))
    assert abelian_group_count(c4, 2) == 25


def test_abelian_group_count_matches_pipeline():
    groups = {
        "cyclic:2": make_cyclic_group(2),
        "cyclic:3": make_cyclic_group(3),
        "cyclic:4": make_cyclic_group(4),
        "cyclic:6": make_cyclic_group(6),
        "klein": make_product(make_cyclic_group(2), make_cyclic_group(2)),
    }
    for group in groups.values():
        chains = chain_counts(_subgroup_order(group))
        values = count_sequence(build_transfer_matrix(group), 30).values
        for n in range(31):
            assert abelian_group_count(chains, n) == values[n]


def _brute_force_stirling(n, k):
    # Surjections onto k labeled blocks, then forget the labels.
    from math import factorial

    if n == 0:
        return 1 if k == 0 else 0
    surjections = 0
    for assignment in range(k**n):
        hit = [False] * k
        value = assignment
        for _ in range(n):
            hit[value % k] = True
            value //= k
        surjections += all(hit)
    assert surjections % factorial(k) == 0
    return surjections // factorial(k)


def test_stirling2_base_cases():
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(4, 2) == 7
    assert stirling2(4, 5) == 0


def test_stirling2_matches_brute_force():
    for n in range(7):
        for k in range(n + 2):
            assert stirling2(n, k) == _brute_force_stirling(n, k)


def test_stirling2_matches_explicit_sum():
    for n in range(31):
        for k in range(31):
            alternating = sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))
            assert stirling2(n, k) == alternating // factorial(k)
    with pytest.raises(ValueError):
        stirling2(3, -1)


def test_poly_bernoulli_values():
    assert poly_bernoulli(2, 2) == 14
    assert poly_bernoulli(9, 9) == 44222780245622


def test_poly_bernoulli_symmetry():
    for m in range(11):
        for n in range(11):
            assert poly_bernoulli(m, n) == poly_bernoulli(n, m)


def test_poly_bernoulli_counts_grid_submonoids():
    for m in range(1, 5):
        for n in range(1, 5):
            matrix = build_transfer_matrix(from_spec(f"chain:{m - 1}"))
            count = count_sequence(matrix, n - 1).values[n - 1]
            assert poly_bernoulli(m, n) == 2 * count


def test_chain_coefficient_values():
    assert chain_coefficient(1, 2) == Fraction(-1)
    assert chain_coefficient(1, 3) == Fraction(3)
    assert chain_coefficient(0, 2) == Fraction(1)
    with pytest.raises(IndexOutOfRange):
        chain_coefficient(1, 4)
    with pytest.raises(IndexOutOfRange):
        chain_coefficient(3, 1)


def test_chain_coefficient_matches_spectral_solve():
    for m in range(7):
        spectrum = spectrum_of(build_transfer_matrix(from_spec(f"chain:{m}")))
        for j, coefficient in zip(spectrum.eigenvalues, spectrum.coefficients):
            assert chain_coefficient(m, j) == coefficient


def test_eigenvalue_set_formulas():
    assert chain_eigenvalues(1) == {2, 3}
    assert ladder_eigenvalues(1) == {2, 3, 4, 6}
    assert mk_eigenvalues(4) == {2, 3, 4, 6, 10, 18}
    with pytest.raises(ValueError):
        ladder_eigenvalues(0)


def test_eigenvalue_sets_match_computation():
    for m in range(7):
        got = set(eigenvalues(build_transfer_matrix(from_spec(f"chain:{m}"))))
        assert got == chain_eigenvalues(m)
    for m in range(1, 5):
        got = set(
            eigenvalues(build_transfer_matrix(from_spec(f"chain:{m} x chain:1")))
        )
        assert got == ladder_eigenvalues(m)
    for k in range(1, 6):
        got = set(eigenvalues(build_transfer_matrix(from_spec(f"mk:{k}"))))
        assert got == mk_eigenvalues(k)


def _subsemigroup_count(monoid):
    """Subsets closed under the operation, the empty one included."""
    table = monoid.table
    return sum(
        all(mask >> table[x][y] & 1 for x in bits_of(mask) for y in bits_of(mask))
        for mask in range(1 << monoid.size)
    )


def test_subsemigroup_bridge():
    # A join-semilattice has twice as many subsemigroups as submonoids
    # (drop or keep the identity), and the chain products give B(2, n).
    for spec, submonoids, bernoulli in [
        ("chain:1 x chain:1", 7, poly_bernoulli(2, 2)),
        ("chain:1 x chain:2", 23, poly_bernoulli(2, 3)),
        ("chain:0", 1, 2),
    ]:
        monoid = from_spec(spec)
        assert len(enumerate_submonoids(monoid)) == submonoids
        assert _subsemigroup_count(monoid) == 2 * submonoids == bernoulli


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: abelian_group_count((1,), -1), "n must be >= 0"),
        (lambda: poly_bernoulli(-1, 2), "arguments must be >= 0"),
        (lambda: poly_bernoulli(2, -1), "arguments must be >= 0"),
        (lambda: chain_eigenvalues(-1), "m must be >= 0"),
        (lambda: mk_eigenvalues(0), "k must be >= 1"),
    ],
)
def test_closed_forms_reject_arguments_out_of_range(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_poly_bernoulli_checks_its_two_formulas_against_each_other(monkeypatch):
    # A wrong Stirling row S(1, .) reaches only the alternating sum at
    # (2, 1), which reads S(1, .); the symmetric sum reads S(2, .) and
    # S(3, .), and still gives B(2, 1) = 4.
    rows = closedforms._stirling_rows

    def tampered():
        for n, row in enumerate(rows()):
            yield [0, 2] if n == 1 else row

    monkeypatch.setattr(closedforms, "_stirling_rows", tampered)
    with pytest.raises(FormulaMismatch, match=r"disagree at \(2, 1\): 8 != 4"):
        poly_bernoulli(2, 1)
