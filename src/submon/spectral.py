"""Exact spectra of transfer matrices of idempotent monoids.

For an idempotent commutative monoid the transfer matrix is diagonalizable
with positive integer eigenvalues (the diagonal entries, which count
antichains of the submonoids), and the counts satisfy

    S_n = sum over distinct eigenvalues v of  c_v * v**n

for rational coefficients c_v.  The coefficients are recovered exactly
from the first terms of the sequence by a closed-form Vandermonde identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from .errors import (
    DegenerateSystem,
    FormulaMismatch,
    InvariantViolation,
    NonIntegerCount,
    NonIntegerNormalization,
    NotIdempotent,
    SeriesMismatch,
)
from .monoid import is_idempotent, make_chain
from .submonoids import bits_of
from .transfer import (
    CountSequence,
    TransferMatrix,
    build_transfer_matrix,
    count_sequence,
    diagonal_chains,
    recurrence_poly,
)


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues with their exact and normalized coefficients.

    ``normalized[i]`` is ``coefficients[i]`` times the product of
    (other eigenvalue - eigenvalues[i]) over the rest of the spectrum,
    which is always an integer.
    """

    eigenvalues: tuple[int, ...]
    coefficients: tuple[Fraction, ...]
    normalized: tuple[int, ...]


def eigenvalues(matrix: TransferMatrix) -> list[int]:
    """Distinct diagonal entries, ascending.

    Only valid for idempotent monoids, where the matrix is diagonalizable:
    submonoids sharing a diagonal value are incomparable, so the weight
    blocks between them vanish.  That certificate is checked here, on the
    lumped quotient, as m_v == 1 for every diagonal value v (see
    ``diagonal_chains``): a class holds no two comparable submonoids and
    the weights are positive, so W has a nonzero entry between two
    submonoids with equal diagonals exactly when the quotient has one
    between two classes.  Then the count annihilator has D distinct roots.
    """
    if not is_idempotent(matrix.lattice.monoid):
        raise NotIdempotent("spectral form requires an idempotent monoid")
    chains = diagonal_chains(matrix.quotient[0])
    for v, m in chains.items():
        if m > 1:
            raise InvariantViolation(
                f"equal-diagonal block is not diagonal: {m} chained classes have diagonal {v}"
            )
    return sorted(chains)


def solve_coefficients(eigs, prefix) -> tuple[Fraction, ...]:
    """Coefficients c with sum(c_j * eig_j**r) == prefix[r] for r < len(eigs).

    The system is Vandermonde in the eigenvalues, hence uniquely solvable
    when they are distinct.  With p_v(x) = prod over u != v of (x - u)
    = sum of a_r * x**r, which vanishes at every other eigenvalue,
    sum of a_r * prefix[r] = c_v * p_v(v).
    """
    eigs = list(eigs)
    if len(set(eigs)) != len(eigs):
        raise DegenerateSystem("eigenvalues must be distinct")
    if len(prefix) != len(eigs):
        raise ValueError("need exactly one sequence term per eigenvalue")
    # prod(x - u), highest power first, is prod(1 - u*x) lowest power first.
    full = recurrence_poly(eigs)
    out = []
    for v in eigs:
        # Synthetic division by (x - v) yields a_(k-1), a_(k-2), ..., a_0.
        acc = total = 0
        for c, s in zip(full, reversed(prefix)):
            acc = acc * v + c
            total += acc * s
        out.append(Fraction(total, prod(v - u for u in eigs if u != v)))
    return tuple(out)


def normalize_coefficients(eigs, coefficients) -> tuple[int, ...]:
    """Clear denominators: multiply each coefficient by the product of
    eigenvalue gaps (other - this).  The results are always integers."""
    out = []
    for i, v in enumerate(eigs):
        gap = 1
        for j, u in enumerate(eigs):
            if j != i:
                gap *= u - v
        value = Fraction(coefficients[i]) * gap
        if value.denominator != 1:
            raise NonIntegerNormalization(
                f"normalized coefficient at eigenvalue {v} is {value}"
            )
        out.append(int(value))
    return tuple(out)


def spectrum_of(matrix: TransferMatrix) -> Spectrum:
    """Full pipeline: eigenvalues, exact coefficients, normalized values.
    The coefficient sum always runs: k additions catch a wrong solve."""
    eigs = eigenvalues(matrix)
    prefix = count_sequence(matrix, len(eigs) - 1).values
    coefficients = solve_coefficients(eigs, prefix)
    if sum(coefficients) != matrix.size:
        raise FormulaMismatch(f"coefficients sum to {sum(coefficients)}, not S_0")
    return Spectrum(
        eigenvalues=tuple(eigs),
        coefficients=coefficients,
        normalized=normalize_coefficients(eigs, coefficients),
    )


def closed_form_eval(spectrum: Spectrum, n: int) -> int:
    """Evaluate sum(c_v * v**n); the rational parts always cancel."""
    total = sum(
        c * v**n for c, v in zip(spectrum.coefficients, spectrum.eigenvalues)
    )
    if total.denominator != 1:
        raise NonIntegerCount(f"closed form gave {total} at n={n}")
    return int(total)


def verify_recurrence(eigs, sequence: CountSequence):
    """Check the constant recurrence driven by prod(1 - v*x) over the
    eigenvalues.  Returns (True, None) or (False, first failing index)."""
    eigs = list(eigs)
    k = len(eigs)
    values = sequence.values
    if len(values) < 2 * k:
        raise ValueError(f"need at least {2 * k} terms, got {len(values)}")
    poly = recurrence_poly(eigs)
    for n in range(k, len(values)):
        acc = sum(poly[i] * values[n - i] for i in range(k + 1))
        if acc != 0:
            return False, n
    return True, None


@dataclass(frozen=True)
class RationalOGF:
    """Ordinary generating function as numerator over prod(1 - v*x)."""

    numerator: tuple[int, ...]
    denominator_roots: tuple[int, ...]

    def expand(self, n_max: int) -> list[int]:
        """First ``n_max + 1`` series coefficients, by exact long division."""
        den = recurrence_poly(self.denominator_roots)
        out = []
        for n in range(n_max + 1):
            value = self.numerator[n] if n < len(self.numerator) else 0
            value -= sum(
                den[i] * out[n - i] for i in range(1, min(n, len(den) - 1) + 1)
            )
            out.append(value)
        return out


def ogf(matrix: TransferMatrix) -> RationalOGF:
    """The generating function of the counts, verified by a series round trip.

    The denominator roots are :func:`eigenvalues`, so a non-idempotent
    monoid raises :class:`NotIdempotent`.  The numerator is the degree < k
    truncation of the series of ``count_sequence(matrix, 2k)`` times
    prod(1 - v*x) over the k eigenvalues; since the recurrence holds,
    higher product terms vanish, which is checked up to degree 2k.  The
    round trip always runs: it costs O(k^2) and checks the output.

    Only S_0..S_k are walked: for idempotent M the annihilator is
    prod(1 - v*x) over these k eigenvalues, so S_(k+1)..S_2k are extended
    by this same recurrence.  The degree-k product term is then the one
    decided by walked values alone, and the terms above it check the
    extension, not the walk.  ``verify recurrence`` and the tests check
    the recurrence against walked terms only.
    """
    eigs = tuple(eigenvalues(matrix))
    k = len(eigs)
    values = count_sequence(matrix, 2 * k).values
    den = recurrence_poly(eigs)
    product = [
        sum(den[i] * values[n - i] for i in range(min(n, k) + 1))
        for n in range(2 * k + 1)
    ]
    for n in range(k, 2 * k + 1):
        if product[n] != 0:
            raise SeriesMismatch(f"series product has degree-{n} term {product[n]}")
    result = RationalOGF(numerator=tuple(product[:k]), denominator_roots=eigs)
    if result.expand(2 * k) != list(values):
        raise SeriesMismatch("series expansion does not reproduce the counts")
    return result


def chain_eigenmatrix(m: int) -> tuple[tuple[int, ...], ...]:
    """Exact eigenmatrix of the transfer matrix of the chain 0..m.

    Rows and columns follow the canonical submonoid order.  The entry at
    (A, B) for B a subset of A is the signed product over a in A minus B of
    (1 + the number of elements of B at most a); other entries vanish.
    Verifies that conjugation diagonalizes the transfer matrix with
    eigenvalue popcount(B) + 1 and that the row sums of the inverse are
    (popcount(A) + 1)! / 2.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    monoid = make_chain(m)
    matrix = build_transfer_matrix(monoid)
    members = matrix.lattice.members
    q = []
    for a in members:
        row = []
        for b in members:
            if b & ~a:
                row.append(0)
                continue
            value = 1
            for elt in bits_of(a & ~b):
                below = (1 << elt + 1) - 1
                value *= 1 + (b & below).bit_count()
            if (a ^ b).bit_count() % 2:
                value = -value
            row.append(value)
        q.append(tuple(row))
    q = tuple(q)
    _check_chain_eigenmatrix(matrix, q)
    return q


def _check_chain_eigenmatrix(matrix: TransferMatrix, q) -> None:
    """The identities chain_eigenmatrix promises, checked for W and q.

    q is lower triangular, so q x = 1 is solved by forward substitution.
    They run on every call, since nothing else checks q's closed formula."""
    members = matrix.lattice.members
    for i, row in enumerate(matrix.entries):
        for j in range(len(members)):
            lhs = sum(w * q[t][j] for t, w in row)
            rhs = (members[j].bit_count() + 1) * q[i][j]
            if lhs != rhs:
                raise FormulaMismatch(f"eigenmatrix identity fails at ({i}, {j})")
    sums: list[Fraction] = []
    for i, q_row in enumerate(q):
        total = Fraction(1 - sum(v * x for v, x in zip(q_row, sums)), q_row[i])
        expected = Fraction(factorial(members[i].bit_count() + 1), 2)
        if total != expected:
            raise FormulaMismatch(f"inverse row sum at {i} is {total}, not {expected}")
        sums.append(total)
