"""Transfer matrices: weighted walk counting over the submonoid graph.

The matrix ``W`` has one row and column per submonoid in the canonical
lattice order, with entry (A, B) the number of ideals I of A satisfying
I union B == A.  Row sums of its n-th power count the submonoids of the
product of the monoid with a chain of length n.  All arithmetic is exact
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import IndexOutOfRange, InvariantViolation
from .monoid import CACHE_SIZE, CayleyMonoid, check_automorphisms
from .submonoids import (
    DEFAULT_MAX_MONOID_SIZE,
    SubmonoidLattice,
    enumerate_submonoids,
    weight_row,
)


@dataclass(frozen=True)
class Orbits:
    """Orbits of a monoid's automorphism generators on its submonoids.

    Orbit o is numbered by its first member ``reps[o]``, its
    representative, and ``orbit_of[i]`` is member i's orbit.  Generator g
    maps member i to member ``moves[g][i]``.  ``steps`` lists every other
    member once as (member, parent, g) with ``moves[g][parent] == member``,
    each parent a representative or listed earlier.
    """

    reps: tuple[int, ...]
    orbit_of: tuple[int, ...]
    moves: tuple[tuple[int, ...], ...]
    steps: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class TransferMatrix:
    """W as sparse rows of (column, weight) pairs in ascending column order.

    W(A, B) is nonzero exactly when B is a subset of A, so the rows are
    lower triangular and each ends with its diagonal pair.  Every
    automorphism s of the monoid gives W(sA, sB) == W(A, B), so with
    ``orbits`` set, ``rows`` holds only the rows of the orbit
    representatives, in orbit order; without, it holds every row.
    ``rows`` is built on first access and ``entries`` expands the full
    rows from it; ``quotient`` streams the rows instead when they are not
    built yet, so counts and spectra never hold W.
    """

    lattice: SubmonoidLattice
    orbits: Orbits | None = None

    @property
    def size(self) -> int:
        return len(self.lattice)

    def _row_stream(self):
        """The rows of ``rows``, each computed by :func:`weight_row` as it
        is consumed."""
        monoid, members = self.lattice.monoid, self.lattice.members
        reps = range(len(members)) if self.orbits is None else self.orbits.reps
        return (tuple(weight_row(monoid, members[i], zip(range(i + 1), members))) for i in reps)

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return tuple(self._row_stream())

    def diagonal(self) -> tuple[int, ...]:
        diagonal = tuple(row[-1][1] for row in self.rows)
        if self.orbits is None:
            return diagonal
        return tuple(diagonal[o] for o in self.orbits.orbit_of)

    @cached_property
    def entries(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Every row of W: each other member's row is its parent's row
        with the columns moved by the generator that reached it."""
        if self.orbits is None:
            return self.rows
        full = [()] * self.size
        for r, row in zip(self.orbits.reps, self.rows):
            full[r] = row
        for a, parent, g in self.orbits.steps:
            move = self.orbits.moves[g]
            full[a] = tuple(sorted((move[j], w) for j, w in full[parent]))
        return tuple(full)

    @cached_property
    def quotient(self):
        """W lumped by :func:`_lump`: the quotient rows and class sizes.

        The rows are read once, in order: from ``rows`` when built, else
        streamed.  With orbits, the lumping starts from the orbit
        quotient, whose entry (O, O') is the sum of W(rep O, B) over B in
        O'.  It keeps the row contract, since an orbit lies within one
        popcount.
        """
        rows = self.__dict__["rows"] if "rows" in self.__dict__ else self._row_stream()
        if self.orbits is None:
            return _lump(rows)
        orbit_of = self.orbits.orbit_of
        sizes = [0] * len(self.orbits.reps)
        for o in orbit_of:
            sizes[o] += 1

        def summed(row):
            sums = {}
            for j, w in row:
                sums[orbit_of[j]] = sums.get(orbit_of[j], 0) + w
            return tuple(sorted(sums.items()))

        return _lump(map(summed, rows), sizes)

    def dense(self) -> tuple[tuple[int, ...], ...]:
        """The full k x k table, zeros included; built on each call."""
        k = self.size
        return tuple(tuple(dict(row).get(j, 0) for j in range(k)) for row in self.entries)


@dataclass
class CountSequence:
    """Exact counts S_0..S_n for one monoid; always positive and nondecreasing."""

    values: tuple[int, ...]
    label: str = ""


def _shift_groups(g) -> tuple[tuple[int, int], ...]:
    """The permutation g as (shift, mask) pairs: the bits x with the same
    g[x] - x form one mask, shifted by that distance plus len(g) so that
    no shift is negative.  A mask b maps to
    sum((b & mask) << shift) >> len(g), with one term per distinct
    distance (three for a transposition) instead of one per bit."""
    groups = {}
    for x, gx in enumerate(g):
        shift = gx - x + len(g)
        groups[shift] = groups.get(shift, 0) | 1 << x
    return tuple(groups.items())


def _orbits(lattice: SubmonoidLattice) -> Orbits | None:
    """Orbits of the monoid's automorphism generators on the members, by a
    search from each orbit's first member that maps masks through the
    generators and looks them up in ``index_of``: k x generators work and
    no group search.  None when every orbit is one member."""
    monoid = lattice.monoid
    if not monoid.automorphisms:
        return None
    check_automorphisms(monoid)
    members, index_of, n = lattice.members, lattice.index_of, monoid.size
    moves = []
    for g in monoid.automorphisms:
        groups = _shift_groups(g)
        moves.append(
            tuple(index_of[sum((b & m) << s for s, m in groups) >> n] for b in members)
        )
    orbit_of = [-1] * len(members)
    reps, steps = [], []
    for i in range(len(members)):
        if orbit_of[i] >= 0:
            continue
        orbit_of[i] = len(reps)
        reps.append(i)
        queue = [i]
        for parent in queue:
            for g, move in enumerate(moves):
                j = move[parent]
                if orbit_of[j] < 0:
                    orbit_of[j] = orbit_of[i]
                    steps.append((j, parent, g))
                    queue.append(j)
    if len(reps) == len(members):
        return None
    return Orbits(tuple(reps), tuple(orbit_of), tuple(moves), tuple(steps))


def build_transfer_matrix(
    monoid: CayleyMonoid, max_size: int = DEFAULT_MAX_MONOID_SIZE
) -> TransferMatrix:
    """W of ``monoid`` over its submonoids in the canonical lattice order,
    with each automorphism generator checked against the table first.

    Results are cached per monoid, its generators and ``max_size``, and
    shared between callers; the generators are part of the key because
    monoid equality ignores them.  A build enumerates the submonoids and
    their orbits; the rows are built on first request.
    """
    return _build(monoid, monoid.automorphisms, max_size)


@lru_cache(maxsize=CACHE_SIZE)
def _build(monoid, automorphisms, max_size):
    lattice = enumerate_submonoids(monoid, max_size=max_size)
    return TransferMatrix(lattice=lattice, orbits=_orbits(lattice))


build_transfer_matrix.cache_info = _build.cache_info
build_transfer_matrix.cache_clear = _build.cache_clear


def walk(rows, vector, steps: int):
    """Yield W v, W^2 v, ..., W^steps v for W given as sparse rows of
    (column, weight) pairs.  The one walk-counting loop of the package."""
    for _ in range(steps):
        vector = [sum(w * vector[j] for j, w in row) for row in rows]
        yield vector


def _lump(entries, sizes=None):
    """Lump W's rows into classes on which every W^n 1 is constant.

    ``sizes`` gives the number of submonoids behind each row, one each by
    default; a row of a lumpable quotient of W stands for its class, as an
    orbit row does.  Rows are taken in index order.  A row's signature is its diagonal
    weight and the sorted (class, summed weight) pairs of its off-diagonal
    columns, whose classes are already known since those columns lie
    below the row; rows with equal signatures share a class.  (W v)[A]
    depends only on A's signature when v is constant on classes, so by
    induction W^n 1 is too.  A row's classes below it were all formed
    before its own, so the quotient (each class's signature with its
    diagonal pair appended last) keeps the row contract of ``entries``.
    Returns the quotient rows and the class sizes.
    """
    classes, class_sizes, rows, index = [], [], [], {}
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
            class_sizes.append(0)
        class_sizes[c] += 1 if sizes is None else sizes[i]
        classes.append(c)
    return tuple(rows), tuple(class_sizes)


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
    rows, sizes = matrix.quotient
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
