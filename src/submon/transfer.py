"""Transfer matrices: weighted walk counting over the submonoid graph.

The matrix ``W`` has one row and column per submonoid in the canonical
lattice order, with entry (A, B) the number of ideals I of A satisfying
I union B == A.  Row sums of its n-th power count the submonoids of the
product of the monoid with a chain of length n.  All arithmetic is exact
integer arithmetic.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain, islice, repeat
from operator import add, mul

from .errors import InvariantViolation
from .monoid import CACHE_SIZE, CayleyMonoid
from .submonoids import (
    DEFAULT_MAX_MONOID_SIZE,
    SubmonoidLattice,
    bits_of,
    enumerate_submonoids,
    ideal_row,
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
    ``quotient`` sums, over their ideals, only the rows of the orbit
    representatives whose :func:`_shape` no earlier representative had,
    and is the one piece of W a matrix keeps; ``roots``, the count
    annihilator, and ``series``, the counts' generating function, are
    read off it.  ``row`` sums one row of W over its submonoid's
    ideals with :func:`ideal_row`, the one routine that computes a
    weight, and is how every reader outside the quotient sees W.
    """

    lattice: SubmonoidLattice
    orbits: Orbits

    @property
    def size(self) -> int:
        return len(self.lattice)

    def row(self, i: int) -> tuple[tuple[int, int], ...]:
        """Row i of W, built on each call: a (column, weight) pair for
        each member inside member i, ascending, the diagonal pair last."""
        diagonal, columns, weights = ideal_row(self.lattice, i)
        return (*zip(columns, weights), (i, diagonal))

    @property
    def entries(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Every row of W, built on each read and not kept.  No code in
        the package reads it; it stays only for perfbench's tracer
        (``perfbench/tracing.py``), which counts W's nonzeros through it."""
        return tuple(map(self.row, range(self.size)))

    @cached_property
    def quotient(self):
        """W lumped by :func:`_lump` over the orbits, keyed by shape: the
        quotient rows and class sizes.  Rows are summed only for
        representatives of a new shape, and none is kept."""
        return _lump(self.lattice, self.orbits)

    @cached_property
    def roots(self) -> tuple[int, ...]:
        """:func:`annihilator` of the quotient, read once and kept: D, the
        order of the count recurrence, is its length."""
        return annihilator(self.quotient[0])

    @cached_property
    def series(self) -> RationalOGF:
        """The counts' generating function P(x) / A(x), built from solved
        terms on first read and kept.

        Q, the lumped quotient of W, is lower triangular, so by the
        transfer-matrix method (Stanley, Enumerative Combinatorics I, 4.7)
        the counts have a generating function P(x) / A(x) with
        A = prod over diagonal values v of (1 - v*x)**m_v (``annihilator``)
        and deg P < D = sum of m_v.  S_0..S_D come from
        :func:`walk_counts`, and P is the degree < D part of A times that
        series.

        The solved S_D is checked through the x**D coefficient of A times
        the series, which vanishes for a valid A.  If A lacks one factor
        (1 - v*x), it is v**(D-1) * R(1/v) with R the polynomial that A
        times the series makes, and it is zero exactly when the shorter A
        is still valid.  So this one term catches any single missing root
        or multiplicity without solving past D; the tests compare every
        term of the expansion with the walk.
        """
        roots = self.roots
        den, values = recurrence_poly(roots), walk_counts(self, len(roots))
        product = [sum(map(mul, den, values[n::-1])) for n in range(len(values))]
        if product.pop():
            raise InvariantViolation(f"the annihilator's recurrence misses the walked S_{len(roots)}")
        return RationalOGF(numerator=tuple(product), denominator_roots=roots)


@dataclass
class CountSequence:
    """Exact counts S_0..S_n for one monoid; always positive and nondecreasing."""

    values: tuple[int, ...]
    label: str = ""


@dataclass(frozen=True)
class RationalOGF:
    """Ordinary generating function as numerator over prod(1 - v*x)."""

    numerator: tuple[int, ...]
    denominator_roots: tuple[int, ...]

    def expand(self, n_max: int) -> list[int]:
        """The first ``n_max + 1`` series coefficients: the numerator,
        followed by zeros, divided by one factor (1 - v*x) at a time.  Each
        division is the first-order pass y[n] = v*y[n-1] + p[n], which
        multiplies only by the small root v: the one routine that extends
        counts by a recurrence."""
        values = islice(chain(self.numerator, repeat(0)), n_max + 1)
        for v in self.denominator_roots:
            values = accumulate(values, lambda y, p, v=v: v * y + p)
        return list(values)


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


def walk_counts(matrix: TransferMatrix, steps: int) -> list[int]:
    """S_0..S_steps, S_n the sum over classes C of |C| * (Q^n 1)[C] for
    the lumped quotient Q, by :func:`_packed_solve`: one packed big-integer
    multiply-add per quotient nonzero and ``steps`` small steps per class,
    where a walk takes one multiply-add per nonzero per step.  :func:`walk`
    stays the reference that the tests hold it against."""
    return _packed_solve(*matrix.quotient, steps)


def _repack(packed: list[int], slots: int, old: int, new: int) -> None:
    """Widen every slot of the integers ``packed``, each ``slots``
    little-endian slots of ``old`` bytes, to ``new`` bytes in place: one
    slice copy per byte of the old width."""
    for i, value in enumerate(packed):
        narrow, wide = value.to_bytes(slots * old, "little"), bytearray(slots * new)
        for k in range(old):
            wide[k::new] = narrow[k::old]
        packed[i] = int.from_bytes(wide, "little")


def _packed_solve(rows, sizes, steps: int) -> list[int]:
    """S_0..S_steps for the lower-triangular quotient ``rows`` (sparse
    (column, weight) pairs, diagonal last) with class sizes ``sizes``.

    Class C's sequence F[n] = (Q^n 1)[C] starts at F[0] = 1 and obeys
    F[n+1] = d*F[n] + g[n], with d its diagonal and g[n] the sum of
    w * F_j[n] over its off-diagonal pairs (j, w), so it depends only on
    the classes below C; they are solved first, in row order.  A solved
    class keeps F[0..steps-1] as one integer with ``width``-byte slots,
    slot n holding F[n] (Kronecker substitution), so the sum of
    w * packed_j is one big-integer multiply-add per nonzero and, while
    no slot carries, its slots are g[0..steps-1].

    The width is checked, never estimated.  With weights and diagonals
    at least 1 every F_j is nondecreasing, so every slot of that sum is
    at most the sum of w * F_j[steps-1], which is checked against the
    width before the sum is taken; F[steps-1], the largest of the terms
    packed, is checked before they are.  A failed check widens the slots
    by at least a quarter, so that few widenings happen, and repacks the
    classes solved so far.  A row whose premises fail, a weight or a
    diagonal below 1, raises InvariantViolation.
    """
    if not steps:
        return [sum(sizes)]
    width, packed, tops, totals = 1, [], [], [0] * (steps + 1)

    def fit(bits):
        """Widen the slots, repacking the classes solved so far, unless
        values of ``bits`` bits already fit."""
        nonlocal width
        if bits > 8 * width:
            new = max(-(-bits // 8), width + width // 4)
            _repack(packed, steps, width, new)
            width = new

    for c, (row, size) in enumerate(zip(rows, sizes)):
        *below, (_, d) = row
        if d < 1 or any(w < 1 for _, w in below):
            raise InvariantViolation(f"quotient row {c} has a weight or diagonal below 1")
        fit(sum(w * tops[j] for j, w in below).bit_length())
        g = sum(w * packed[j] for j, w in below).to_bytes(steps * width, "little")
        slots = map(slice, range(0, len(g), width), range(width, len(g) + width, width))
        f = list(accumulate(
            map(int.from_bytes, map(g.__getitem__, slots), repeat("little")),
            lambda y, x: d * y + x,
            initial=1,
        ))
        fit(f[-2].bit_length())
        packed.append(int.from_bytes(b"".join(
            map(int.to_bytes, f[:-1], repeat(width), repeat("little"))
        ), "little"))
        tops.append(f[-2])
        totals = list(map(add, totals, map(mul, repeat(size), f)))
    return totals


def annihilator(rows) -> tuple[int, ...]:
    """The roots of prod over v of (1 - v*x)**m_v for the quotient
    ``rows``, ascending, each diagonal value v repeated m_v times.

    m_v is the most classes with diagonal v on one chain of direct nonzero
    edges, found in one bottom-up pass.  W(A, B) is nonzero for every B
    inside A, so the support of W, and of Q, is transitive: every path's
    classes with diagonal v are joined by direct edges, and m_v is also
    the most classes with diagonal v on any path."""
    diagonal = [row[-1][1] for row in rows]
    longest, chains = [], {}
    for row, v in zip(rows, diagonal):
        below = (longest[j] for j, w in row[:-1] if w and diagonal[j] == v)
        longest.append(1 + max(below, default=0))
        chains[v] = max(chains.get(v, 0), longest[-1])
    return tuple(v for v in sorted(chains) for _ in range(chains[v]))


def recurrence_poly(roots) -> list[int]:
    """The coefficients of prod(1 - v*x) over ``roots``, lowest power first."""
    coeffs = [1]
    for v in roots:
        nxt = coeffs + [0]
        for i, c in enumerate(coeffs):
            nxt[i + 1] -= v * c
        coeffs = nxt
    return coeffs


def _shape(table, mask: int) -> bytes:
    """The Cayley table of the submonoid ``mask``, its elements relabelled
    0..|A|-1 in ascending order, as a key: the products x*y for x <= y,
    row by row, which the commutative table determines.  One byte per
    product up to 256 elements and two bytes above (the product budget is
    1024 elements); the lengths of the two forms never meet, so equal
    keys mean equal tables."""
    elements = tuple(bits_of(mask))
    local = {x: i for i, x in enumerate(elements)}
    products = [local[table[x][y]] for i, x in enumerate(elements) for y in elements[i:]]
    return bytes(products) if len(elements) <= 256 else array("H", products).tobytes()


def _lump(lattice: SubmonoidLattice, orbits: Orbits):
    """Lump W's rows into classes on which every W^n 1 is constant, and
    return the quotient rows and the class sizes.

    Representatives are read in orbit order.  An automorphism keeps
    every weight, so a member's row is its representative's with the
    columns moved within their orbits.  A row's signature is its
    diagonal weight and the sorted (class, summed weight) pairs of its
    off-diagonal columns, whose orbits' classes are already known since
    those columns lie below the row; orbits with equal signatures share
    a class.  (W v)[A] depends only on A's signature when v is constant
    on classes, so by induction W^n 1 is too.  A row's classes below it
    were all formed before its own, so the quotient (each class's
    signature with its diagonal pair appended last) keeps the
    contract of ``row``.  The rows are summed by :func:`ideal_row`,
    over each representative's ideals, and lumped column by column.

    A representative whose :func:`_shape` an earlier one had takes that
    one's class, and its row is never summed.  This gives exactly the
    class its signature would.  Equal shapes make the order-preserving
    bijection phi: A -> A' an isomorphism, so the key is its own
    certificate, and W depends only on the abstract monoid A and B as a
    subset of it: W(A', phi(B)) == W(A, B).  phi restricted to a column
    B is again order-preserving and multiplicative, so B and phi(B) have
    equal shapes too, and by induction on |A| equal classes.  So A and
    A' have equal signatures, and the quotient is the one that lumping
    every representative's row gives.  Shapes need no isomorphism
    search, but they only see isomorphisms that keep the element order,
    so the orbits stay: bool:4 has 1,191 shapes among its 2,480 members,
    and 143 among its 184 orbit representatives.  A key that merged
    non-isomorphic submonoids would lump wrongly without any error, so
    the tests hold this quotient against signature-only lumping of the
    rows that ``tests/reference_quotient.py`` builds column by column.
    """
    table, members, orbit_of = lattice.monoid.table, lattice.members, orbits.orbit_of
    classes, quotient, index, class_of_shape = [], [], {}, {}
    for r in orbits.reps:
        key = _shape(table, members[r])
        c = class_of_shape.get(key)
        if c is None:
            diagonal, columns, weights = ideal_row(lattice, r)
            sums = {}
            for b, w in zip(map(classes.__getitem__, map(orbit_of.__getitem__, columns)), weights):
                sums[b] = sums.get(b, 0) + w
            below = tuple(sorted(sums.items()))
            c = class_of_shape[key] = index.setdefault((diagonal, below), len(quotient))
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
    """S_n for n = 0..n_max: solved by :func:`walk_counts` below D, else
    expanded from ``matrix.series``.

    S_n for n >= D is fixed by the D terms before it (see
    ``TransferMatrix.series``).  Below D the quotient is solved to n_max
    steps, at one packed multiply-add per quotient nonzero plus n_max
    small steps per class; from D on the series solves D steps once per
    matrix, and each later term costs D small steps.

    The monotonicity check always runs over every term: it costs one
    comparison per term, and it is the one check on the count path that
    holds the expanded terms, not only the solved ones, to the shape of
    every count sequence.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max < len(matrix.roots):
        values = walk_counts(matrix, n_max)
    else:
        values = matrix.series.expand(n_max)
    for n, (prev, nxt) in enumerate(zip(values, values[1:])):
        if not 0 < prev <= nxt:
            raise InvariantViolation(f"counts not positive and nondecreasing at n={n + 1}")
    return CountSequence(values=tuple(values), label=label)
