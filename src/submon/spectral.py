"""Exact spectra of transfer matrices of idempotent monoids.

For an idempotent commutative monoid the transfer matrix is diagonalizable
with positive integer eigenvalues (the diagonal entries, which count
antichains of the submonoids), and the counts satisfy

    S_n = sum over distinct eigenvalues v of  c_v * v**n

for rational coefficients c_v.  The coefficients are the residues of the
counts' generating function, ``TransferMatrix.series``, which every
commutative monoid has.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .errors import (
    DegenerateSystem,
    FormulaMismatch,
    InvariantViolation,
    NonIntegerCount,
    NonIntegerNormalization,
    NotIdempotent,
)
from .monoid import is_idempotent, make_chain, record
from .submonoids import bits_of
from .transfer import (
    CountSequence,
    RationalOGF,
    TransferMatrix,
    build_transfer_matrix,
    recurrence_poly,
)


@record
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
    blocks between them vanish.  That certificate is checked here as "no
    repeated root" in ``matrix.roots``, the annihilator of the lumped
    quotient, where v is repeated m_v times: a class holds no two
    comparable submonoids and the weights are positive, so W has a nonzero
    entry between two submonoids with equal diagonals exactly when the
    quotient has one between two classes.  Then the count annihilator has
    D distinct roots.
    """
    if not is_idempotent(matrix.lattice.monoid):
        raise NotIdempotent("spectral form requires an idempotent monoid")
    roots = matrix.roots
    for v, u in zip(roots, roots[1:]):
        if v == u:
            raise InvariantViolation(
                f"equal-diagonal block is not diagonal: {roots.count(v)} chained classes have diagonal {v}"
            )
    return list(roots)


def solve_coefficients(series: RationalOGF) -> tuple[Fraction, ...]:
    """Coefficients c with sum(c_v * v**n) == ``series.expand(n)[n]`` for
    every n, one per root v, for distinct roots and a numerator of degree
    below their number D.

    They are the residues of the partial fractions,
    c_v = P(1/v) / prod over u != v of (1 - u/v)
        = v**(D-1) * P(1/v) / prod over u != v of (v - u),
    with v**(D-1) * P(1/v) one Horner pass over the numerator.
    """
    roots = series.denominator_roots
    if len(set(roots)) != len(roots):
        raise DegenerateSystem("denominator roots must be distinct")
    if len(series.numerator) > len(roots):
        raise ValueError("need a numerator of degree below the number of roots")
    numerator = series.numerator + (0,) * (len(roots) - len(series.numerator))
    out = []
    for v in roots:
        acc = 0
        for p in numerator:
            acc = acc * v + p
        out.append(Fraction(acc, prod(v - u for u in roots if u != v)))
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
    coefficients = solve_coefficients(ogf(matrix))
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


def ogf(matrix: TransferMatrix) -> RationalOGF:
    """The generating function of the counts, for every commutative
    monoid: ``matrix.series``, whose denominator is the count annihilator
    and whose solved S_D is checked when it is built.  For idempotent M
    its roots are the :func:`eigenvalues`, each once."""
    return matrix.series


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
    for i in range(matrix.size):
        row = matrix.row(i)
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
