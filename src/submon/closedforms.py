"""Closed formulas used to cross-validate the transfer-matrix pipeline.

Everything here is independent of the matrix machinery: chain counting in
a poset, the Abelian-group count, Stirling and poly-Bernoulli numbers, the
explicit chain coefficients, and the known eigenvalue sets for chains,
ladders, and the bottom/middles/top lattices.
"""

from __future__ import annotations

from itertools import islice
from math import comb, factorial

from .errors import FormulaMismatch, IndexOutOfRange
from .monoid import PartialOrder, bits_of


def chain_counts(order: PartialOrder) -> tuple[int, ...]:
    """Chain counts via powers of the strict-order adjacency matrix:
    entry m is the number of chains x_0 < x_1 < ... < x_m, so entry 0 is
    the element count, and the tuple stops at the poset height."""
    n = order.size
    strict = [order.up[x] & ~(1 << x) for x in range(n)]
    counts = [n]
    vector = [1] * n
    while True:
        nxt = [sum(map(vector.__getitem__, bits_of(row))) for row in strict]
        total = sum(nxt)
        if total == 0:
            return tuple(counts)
        counts.append(total)
        vector = nxt


def abelian_group_count(chains: tuple[int, ...], n: int) -> int:
    """Submonoid count of (group) x (chain of length n):

        sum over m of  chains[m] * 2**(n - m) * C(n, m),

    with C(n, m) == 0 once m exceeds n, keeping the sum exact for small n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    total = 0
    for m, c in enumerate(chains):
        if m > n:
            break
        total += c * 2 ** (n - m) * comb(n, m)
    return total


def _stirling_rows():
    """Yield the rows S(n, 0..n) of the Stirling triangle for n = 0, 1, ...,
    each from the last by S(n+1, k) = k S(n, k) + S(n, k-1)."""
    row = [1]
    while True:
        yield row
        row = [0] + [k * s + t for k, (s, t) in enumerate(zip(row[1:] + [0], row), 1)]


def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind by the triangle recurrence."""
    if n < 0 or k < 0:
        raise ValueError("arguments must be >= 0")
    row = next(islice(_stirling_rows(), n, None))
    return row[k] if k <= n else 0


def poly_bernoulli(m: int, n: int) -> int:
    """B(m, n) via both finite-sum formulas, which are checked equal:

        sum_k (-1)**(n+k) k! S(n, k) (k+1)**m
      = sum_k k!**2 S(m+1, k+1) S(n+1, k+1).

    Twice the submonoid count of the product of chains of lengths m-1, n-1.
    """
    if m < 0 or n < 0:
        raise ValueError("arguments must be >= 0")
    wanted = {n, n + 1, m + 1}
    s = {i: row for i, row in zip(range(max(wanted) + 1), _stirling_rows()) if i in wanted}
    alternating = sum(
        (-1) ** (n + k) * factorial(k) * s[n][k] * (k + 1) ** m for k in range(n + 1)
    )
    symmetric = sum(
        factorial(k) ** 2 * s[m + 1][k + 1] * s[n + 1][k + 1]
        for k in range(min(m, n) + 1)
    )
    if alternating != symmetric:
        raise FormulaMismatch(
            f"poly-Bernoulli formulas disagree at ({m}, {n}): "
            f"{alternating} != {symmetric}"
        )
    return alternating


def chain_coefficient(m: int, j: int) -> Fraction:
    """Exact spectral coefficient of eigenvalue j for the chain 0..m:

        (-1)**(m+j) * j! * S(m+1, j-1) / 2.
    """
    if not 2 <= j <= m + 2:
        raise IndexOutOfRange(f"j must lie in 2..{m + 2}, got {j}")
    from fractions import Fraction

    return Fraction((-1) ** (m + j) * factorial(j) * stirling2(m + 1, j - 1), 2)


def chain_eigenvalues(m: int) -> set[int]:
    """Eigenvalue set {2, ..., m+2} of the chain 0..m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return set(range(2, m + 3))


def ladder_eigenvalues(m: int) -> set[int]:
    """Eigenvalues of (chain 0..m) x (chain 0..1): all integers from 2 up to
    C(m+3, 2), except C(m+3, 2) - 1.

    Requires m >= 1.  At m == 0 the excluded value would be 2, yet 2 is an
    eigenvalue of every transfer matrix (the trivial submonoid has two
    ideals), so the closed form does not extend there.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    top = comb(m + 3, 2)
    return {v for v in range(2, top + 1) if v != top - 1}


def mk_eigenvalues(k: int) -> set[int]:
    """Eigenvalues {2} union {2**i + 2 : 0 <= i <= k} of the
    bottom/middles/top lattice with k middle elements."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return {2} | {2**i + 2 for i in range(k + 1)}
