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
from .monoid import CACHE_SIZE, CayleyMonoid
from .submonoids import (
    DEFAULT_MAX_MONOID_SIZE,
    SubmonoidLattice,
    enumerate_submonoids,
    weight_row,
)


@dataclass(frozen=True)
class Orbits:
    """Orbits of a monoid's automorphism group on its submonoids.

    Orbit o is numbered by its first member ``reps[o]``, its
    representative, and ``orbit_of[i]`` is member i's orbit.
    """

    reps: tuple[int, ...]
    orbit_of: tuple[int, ...]


@dataclass(frozen=True)
class TransferMatrix:
    """W as sparse rows of (column, weight) pairs in ascending column order.

    W(A, B) is nonzero exactly when B is a subset of A, so the rows are
    lower triangular and each ends with its diagonal pair.  Every
    automorphism s of the monoid gives W(sA, sB) == W(A, B), so
    ``quotient`` streams only the rows of the orbit representatives and
    is the one piece of W a matrix keeps.  ``entries`` builds every row
    on each read.
    """

    lattice: SubmonoidLattice
    orbits: Orbits

    @property
    def size(self) -> int:
        return len(self.lattice)

    def _row(self, i: int) -> tuple[tuple[int, int], ...]:
        members = self.lattice.members
        return tuple(weight_row(self.lattice.monoid, members[i], zip(range(i + 1), members)))

    @property
    def entries(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Every row of W, built on each read and not kept."""
        return tuple(map(self._row, range(self.size)))

    @cached_property
    def quotient(self):
        """W lumped by :func:`_lump` from the representatives' rows, each
        built as it is consumed: the quotient rows and class sizes."""
        return _lump(map(self._row, self.orbits.reps), self.orbits)

    def dense(self) -> tuple[tuple[int, ...], ...]:
        """The full k x k table, zeros included; built on each call."""
        table = []
        for row in self.entries:
            dense = [0] * self.size
            for j, w in row:
                dense[j] = w
            table.append(tuple(dense))
        return tuple(table)


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


def _colours(table) -> list[int]:
    """Colour refinement: split x by its colour, x*x's colour and the
    multiset of (y's colour, x*y's colour, x*y == x, x*y == y) until no
    class splits.  Every automorphism keeps these colours, the ranks of
    sorted signatures, which do not depend on the element numbering."""
    colour = [0] * len(table)
    while True:
        signatures = [
            (colour[x], colour[row[x]], tuple(sorted(
                (colour[y], colour[xy], xy == x, xy == y) for y, xy in enumerate(row)
            )))
            for x, row in enumerate(table)
        ]
        ranks = {s: r for r, s in enumerate(sorted(set(signatures)))}
        if len(ranks) == len(set(colour)):
            return colour
        colour = [ranks[s] for s in signatures]


def _extend(table, colour, phi):
    """An automorphism extending the injective partial map ``phi`` (-1
    where unset), or None.  Each mapped pair forces phi(x*u) =
    phi(x)*phi(u), so a map that reaches every element respects every
    product; then a free element of the scarcest colour tries each image."""
    n, phi = len(table), list(phi)
    mapped = [x for x in range(n) if phi[x] >= 0]
    used = {phi[x] for x in mapped}
    for x in mapped:  # grows as images are forced
        row, image_row = table[x], table[phi[x]]
        for u in mapped:
            z, w = row[u], image_row[phi[u]]
            if phi[z] < 0 and w not in used and colour[w] == colour[z]:
                phi[z] = w
                used.add(w)
                mapped.append(z)
            elif phi[z] != w:
                return None
    if len(mapped) == n:
        return tuple(phi)
    free = [x for x in range(n) if phi[x] < 0]
    x = min(free, key=lambda v: sum(colour[z] == colour[v] for z in free))
    for w in range(n):
        if w not in used and colour[w] == colour[x]:
            phi[x] = w
            found = _extend(table, colour, phi)
            if found is not None:
                return found
    return None


def _automorphism_generators(table) -> list[tuple[int, ...]]:
    """Generators of Aut(M) from the Cayley table alone, down a stabilizer
    chain (Sims).  Base point i runs from the last element to the first,
    so every generator found so far fixes 0..i-1; one automorphism fixing
    0..i-1 is searched for per y of i's colour outside i's orbit.  They
    then generate the stabilizer of 0..i-1: at i = 0, the whole group."""
    n, colour = len(table), _colours(table)
    generators = []
    for i in reversed(range(n)):
        orbit_of = _orbits(generators, n).orbit_of
        for y in range(i + 1, n):
            if colour[y] == colour[i] and orbit_of[y] != orbit_of[i]:
                g = _extend(table, colour, [*range(i), y] + [-1] * (n - i - 1))
                if g is not None:
                    generators.append(g)
                    orbit_of = _orbits(generators, n).orbit_of
    return generators


def _orbits(moves, k: int) -> Orbits:
    """Orbits on 0..k-1 of the maps ``moves``, each a tuple of images, by
    a search from each orbit's first point."""
    orbit_of = [-1] * k
    reps = []
    for i in range(k):
        if orbit_of[i] >= 0:
            continue
        orbit_of[i] = len(reps)
        reps.append(i)
        queue = [i]
        for parent in queue:
            for move in moves:
                j = move[parent]
                if orbit_of[j] < 0:
                    orbit_of[j] = orbit_of[i]
                    queue.append(j)
    return Orbits(tuple(reps), tuple(orbit_of))


def build_transfer_matrix(
    monoid: CayleyMonoid, max_size: int = DEFAULT_MAX_MONOID_SIZE
) -> TransferMatrix:
    """W of ``monoid`` over its submonoids in the canonical lattice order.

    Results are cached per monoid and ``max_size``, and shared between
    callers; a positional and a keyword budget share one entry.  A build
    enumerates the submonoids and their orbits under Aut(M), each
    generator moving every member's mask, and builds no row of W.
    """
    return _build(monoid, max_size)


@lru_cache(maxsize=CACHE_SIZE)
def _build(monoid, max_size):
    lattice = enumerate_submonoids(monoid, max_size=max_size)
    members, index_of, n = lattice.members, lattice.index_of, monoid.size
    moves = []
    for g in _automorphism_generators(monoid.table):
        groups = _shift_groups(g)
        moves.append(
            tuple(index_of[sum((b & m) << s for s, m in groups) >> n] for b in members)
        )
    return TransferMatrix(lattice=lattice, orbits=_orbits(moves, len(lattice)))


build_transfer_matrix.cache_info = _build.cache_info
build_transfer_matrix.cache_clear = _build.cache_clear


def walk(rows, vector, steps: int):
    """Yield W v, W^2 v, ..., W^steps v for W given as sparse rows of
    (column, weight) pairs.  The one walk-counting loop of the package."""
    for _ in range(steps):
        vector = [sum(w * vector[j] for j, w in row) for row in rows]
        yield vector


def _lump(rows, orbits: Orbits):
    """Lump W's rows into classes on which every W^n 1 is constant.

    ``rows`` holds the row of each orbit representative, in orbit order;
    an automorphism keeps every weight, so a member's row is its
    representative's with the columns moved within their orbits.  A
    row's signature is its diagonal weight and the sorted (class, summed
    weight) pairs of its off-diagonal columns, whose orbits' classes are
    already known since those columns lie below the row; orbits with
    equal signatures share a class.  (W v)[A] depends only on A's
    signature when v is constant on classes, so by induction W^n 1 is
    too.  A row's classes below it were all formed before its own, so
    the quotient (each class's signature with its diagonal pair appended
    last) keeps the row contract of ``entries``.  Returns the quotient
    rows and the class sizes.

    Both row-contract checks always run, since a row that breaks them
    lumps into a wrong quotient without any error: a diagonal pair not
    last would be summed as an off-diagonal weight, and a column not
    below the row would read a class formed for another orbit, or none.
    """
    reps, orbit_of = orbits.reps, orbits.orbit_of
    classes, quotient, index = [], [], {}
    for o, row in enumerate(rows):
        if not row or row[-1][0] != reps[o]:
            raise InvariantViolation(f"row {reps[o]} does not end with its diagonal")
        sums = {}
        for j, w in row[:-1]:
            if not 0 <= j < reps[o]:
                raise InvariantViolation(f"row {reps[o]} has column {j} not below it")
            c = classes[orbit_of[j]]
            sums[c] = sums.get(c, 0) + w
        diagonal, below = row[-1][1], tuple(sorted(sums.items()))
        c = index.setdefault((diagonal, below), len(quotient))
        if c == len(quotient):
            quotient.append(below + ((c, diagonal),))
        classes.append(c)
    sizes = [0] * len(quotient)
    for o in orbit_of:
        sizes[classes[o]] += 1
    return tuple(quotient), tuple(sizes)


def count_sequence(
    matrix: TransferMatrix, n_max: int, label: str = ""
) -> CountSequence:
    """S_n for n = 0..n_max by iterated matrix-vector products.

    The walk runs on the lumped quotient of W: S_n = sum over classes C
    of |C| * u_n[C].  Every intermediate term is kept, which the
    recurrence checks need.

    The monotonicity check always runs: it costs one comparison per term
    next to a walk over the whole quotient, and it is the only check on
    the count path that catches a quotient whose walk shrinks, as a zero
    weight makes it.
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
    entries = matrix.entries
    diag = [row[-1][1] for row in entries]
    base = max(diag)
    attaining = [i for i, d in enumerate(diag) if d == base]
    attaining_set = set(attaining)
    longest = {}
    for i in attaining:
        best = 0
        for j, _ in entries[i][:-1]:
            if j in attaining_set:
                best = max(best, longest[j] + 1)
        longest[i] = best
    degree = max(longest.values()) if longest else 0
    return AsymptoticProfile(
        base=base, multiplicity=len(attaining), degree_bound=degree
    )
