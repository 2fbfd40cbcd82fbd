"""The coefficients b_v of S_n = sum of b_v * v**n, from eigenvectors.

``spectral.spectrum_of`` reads b_v off the residues of the counts'
generating function, whose numerator comes from the solved counts.  This
module derives them a second way, from the lumped quotient Q alone (or
W's rows, each submonoid its own class), and reads no count.

S_n = s^T Q^n 1, with s the vector of class sizes.  For idempotent M no
two comparable classes share a diagonal (the certificate
``spectral.eigenvalues`` checks), so the lower-triangular Q is
diagonalizable: for each class C, with v = d_C its diagonal, the right
eigenvector r_C lives on the classes above C and the left eigenvector
l_C on those below, each set to 1 at C, so l_C^T r_C = 1 and

    Q^n = sum over C of d_C**n * r_C l_C^T,
    b_v = sum over C with d_C = v of (s^T r_C) (l_C^T 1).

Both eigenvectors come by back-substitution over the triangular Q:

    r_C[X] = sum over B < X of Q[X][B] r_C[B] / (v - d_X), X above C;
    l_C[X] = sum over Y > X of l_C[Y] Q[Y][X] / (v - d_X), X below C.

pytest does not collect this file.
"""

from fractions import Fraction


def eigen_coefficients(rows, sizes) -> dict[int, Fraction]:
    """b_v for each diagonal value v of the lower-triangular ``rows``,
    ascending, zero included.  Each row is (column, weight) pairs with the
    columns below the row, the diagonal pair last, as
    ``reference_quotient.paired`` gives a quotient's rows; ``sizes`` are
    the class sizes.  Raises ``ValueError`` where two comparable classes
    share a diagonal, which leaves Q without an eigenbasis."""
    diagonal = [row[-1][1] for row in rows]
    out = dict.fromkeys(sorted(set(diagonal)), Fraction(0))
    for c, v in enumerate(diagonal):
        right = {c: Fraction(1)}
        for x in range(c + 1, len(rows)):
            total = sum(w * right[b] for b, w in rows[x][:-1] if b in right)
            if total:
                right[x] = _divide(total, v - diagonal[x], x, c)
        left, below = Fraction(1), dict(rows[c][:-1])
        for x in range(c - 1, -1, -1):
            total = below.pop(x, 0)
            if total:
                value = _divide(total, v - diagonal[x], x, c)
                left += value
                for b, w in rows[x][:-1]:
                    below[b] = below.get(b, 0) + value * w
        out[v] += sum(sizes[x] * value for x, value in right.items()) * left
    return out


def _divide(total, gap: int, x: int, c: int) -> Fraction:
    if not gap:
        raise ValueError(f"classes {x} and {c} are comparable and share a diagonal")
    return Fraction(total) / gap
