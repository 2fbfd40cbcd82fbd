"""Transfer matrices: weighted walk counting over the submonoid graph.

The matrix ``W`` has one row and column per submonoid in the canonical
lattice order, with entry (A, B) the number of ideals I of A satisfying
I union B == A.  Row sums of its n-th power count the submonoids of the
product of the monoid with a chain of length n.  All arithmetic is exact
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange, InvariantViolation
from .monoid import CayleyMonoid
from .submonoids import (
    DEFAULT_MAX_MONOID_SIZE,
    SubmonoidLattice,
    UpsetCounter,
    condense,
    divisibility_preorder,
    enumerate_submonoids,
    mask_of,
)


@dataclass
class TransferMatrix:
    """W as sparse rows: ``entries[i]`` holds row i's nonzero weights as
    (column, weight) pairs in ascending column order.  W(A, B) is nonzero
    exactly when B is a subset of A, so the rows are lower triangular and
    each ends with its diagonal pair."""

    lattice: SubmonoidLattice
    entries: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(row[-1][1] for row in self.entries)

    def dense(self) -> tuple[tuple[int, ...], ...]:
        """The full k x k table, zeros included; built on each call."""
        k = self.size
        return tuple(tuple(dict(row).get(j, 0) for j in range(k)) for row in self.entries)


@dataclass
class CountSequence:
    """Exact counts S_0..S_n for one monoid; always positive and nondecreasing."""

    values: tuple[int, ...]
    label: str = ""


def build_transfer_matrix(
    monoid: CayleyMonoid, max_size: int = DEFAULT_MAX_MONOID_SIZE
) -> TransferMatrix:
    """Build the weight matrix in the canonical lattice order."""
    lattice = enumerate_submonoids(monoid, max_size=max_size)
    members = lattice.members
    rows = []
    for i, a in enumerate(members):
        cond = condense(divisibility_preorder(monoid, a))
        counter = UpsetCounter(cond.order)
        class_masks = [mask_of(cls) for cls in cond.classes]
        row = []
        for j in range(i + 1):
            b = members[j]
            if b & ~a:
                continue
            forced = a & ~b
            required = 0
            for c, cls_mask in enumerate(class_masks):
                if forced & cls_mask:
                    required |= cond.order.up[c]
            row.append((j, counter.count(cond.order.full_mask & ~required)))
        rows.append(tuple(row))
    return TransferMatrix(lattice=lattice, entries=tuple(rows))


def walk(rows, vector, steps: int):
    """Yield W v, W^2 v, ..., W^steps v for W given as sparse rows of
    (column, weight) pairs.  The one walk-counting loop of the package."""
    for _ in range(steps):
        vector = [sum(w * vector[j] for j, w in row) for row in rows]
        yield vector


def _lump(entries):
    """Lump W's rows into classes on which every W^n 1 is constant.

    Rows are taken in index order.  A row's signature is its diagonal
    weight and the sorted (class, summed weight) pairs of its off-diagonal
    columns, whose classes are already known since those columns lie
    below the row; rows with equal signatures share a class.  (W v)[A]
    depends only on A's signature when v is constant on classes, so by
    induction W^n 1 is too.  A row's classes below it were all formed
    before its own, so the quotient (each class's signature with its
    diagonal pair appended last) keeps the row contract of ``entries``.
    Returns the quotient rows and the class sizes.
    """
    classes, sizes, rows, index = [], [], [], {}
    for i, row in enumerate(entries):
        if not row or row[-1][0] != i:
            raise InvariantViolation(f"row {i} does not end with its diagonal")
        sums = {}
        for j, w in row[:-1]:
            if not 0 <= j < i:
                raise InvariantViolation(f"row {i} has column {j} not below it")
            sums[classes[j]] = sums.get(classes[j], 0) + w
        diagonal, below = row[-1][1], tuple(sorted(sums.items()))
        c = index.setdefault((diagonal, below), len(rows))
        if c == len(rows):
            rows.append(below + ((c, diagonal),))
            sizes.append(0)
        sizes[c] += 1
        classes.append(c)
    return rows, sizes


def count_sequence(
    matrix: TransferMatrix, n_max: int, label: str = ""
) -> CountSequence:
    """S_n for n = 0..n_max by iterated matrix-vector products.

    The walk runs on the lumped quotient of W: S_n = sum over classes C
    of |C| * u_n[C].  Every intermediate term is kept, which the
    recurrence checks need.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    rows, sizes = _lump(matrix.entries)
    values = [matrix.size]
    values += [
        sum(s * u for s, u in zip(sizes, v)) for v in walk(rows, [1] * len(rows), n_max)
    ]
    for n, (prev, nxt) in enumerate(zip(values, values[1:])):
        if not 0 < prev <= nxt:
            raise InvariantViolation(f"counts not positive and nondecreasing at n={n + 1}")
    return CountSequence(values=tuple(values), label=label)


def counts_by_projection(matrix: TransferMatrix, n: int, row: int, col: int) -> int:
    """Entry (row, col) of the n-th power of the matrix.

    Counts submonoids of the n-fold chain product whose top-layer
    projection is ``row``'s submonoid and whose next projection is
    ``col``'s.
    """
    k = matrix.size
    if not 0 <= row < k or not 0 <= col < k:
        raise IndexOutOfRange(f"indices ({row}, {col}) outside 0..{k - 1}")
    if n < 0:
        raise IndexOutOfRange("power must be >= 0")
    vector = [0] * k
    vector[col] = 1
    for vector in walk(matrix.entries, vector, n):
        pass
    return vector[row]


@dataclass(frozen=True)
class AsymptoticProfile:
    """Growth data: counts grow like n**degree * base**n.

    ``base`` is the largest diagonal entry (the maximal ideal count over
    submonoids), ``multiplicity`` how many submonoids attain it, and
    ``degree_bound`` the longest path length within the attaining set,
    self-loops excluded.
    """

    base: int
    multiplicity: int
    degree_bound: int


def asymptotics(matrix: TransferMatrix) -> AsymptoticProfile:
    diag = matrix.diagonal()
    base = max(diag)
    attaining = [i for i, d in enumerate(diag) if d == base]
    attaining_set = set(attaining)
    longest = {}
    for i in attaining:
        best = 0
        for j, _ in matrix.entries[i][:-1]:
            if j in attaining_set:
                best = max(best, longest[j] + 1)
        longest[i] = best
    degree = max(longest.values()) if longest else 0
    return AsymptoticProfile(
        base=base, multiplicity=len(attaining), degree_bound=degree
    )
