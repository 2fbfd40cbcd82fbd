"""Transfer matrices: weighted walk counting over the submonoid graph.

The matrix ``W`` has one row and column per submonoid in the canonical
lattice order, with entry (A, B) the number of ideals I of A satisfying
I union B == A.  Row sums of its n-th power count the submonoids of the
product of the monoid with a chain of length n.  All arithmetic is exact
integer arithmetic.
"""

from __future__ import annotations

import sys
from array import array
from functools import cached_property, lru_cache
from itertools import accumulate, chain, compress, islice, repeat
from math import log2
from operator import mul, sub

from .errors import InvariantViolation
from .monoid import CACHE_SIZE, CayleyMonoid, bits_of, record
from .submonoids import DEFAULT_MAX_MONOID_SIZE, SubmonoidLattice, enumerate_submonoids, ideal_row


@record
class Orbits:
    """Orbits of a monoid's automorphism group on its submonoids.

    Orbit o is numbered by its first member ``reps[o]``, its
    representative, and ``orbit_of[i]`` is member i's orbit.
    """

    reps: tuple[int, ...]
    orbit_of: tuple[int, ...]


@record
class TransferMatrix:
    """W over a lattice's submonoids, kept only as its lumped quotient.

    W(A, B) is nonzero exactly when B is a subset of A, so W is lower
    triangular.  Every automorphism s of the monoid gives W(sA, sB) ==
    W(A, B), so ``quotient`` sums, over their ideals, only the rows of
    the orbit representatives whose :func:`_shape` no earlier
    representative had, and is the one piece of W a matrix keeps.  Each
    of its rows is two flat arrays (see :func:`_lump`): the off-diagonal
    class ids, ascending, and their weights with the diagonal last.
    ``roots``, the count annihilator, ``solved``, the counts up to its
    degree D and the seeds that extend them, and ``series``, the counts'
    generating function, are read off it.  ``row`` sums one row of W
    over its submonoid's ideals with :func:`ideal_row`, the one routine
    that computes a weight, as (column, weight) pairs in ascending
    column order, the diagonal pair last; it is how every reader outside
    the quotient sees W.
    """

    lattice: SubmonoidLattice
    orbits: Orbits

    @property
    def size(self) -> int:
        return len(self.lattice)

    def row(self, i: int) -> tuple[tuple[int, int], ...]:
        """Row i of W, built on each call: a (column, weight) pair for
        each member inside member i, ascending, the diagonal pair last.
        The columns are ``range(i)`` compressed by :func:`ideal_row`'s
        selector."""
        diagonal, where, weights = ideal_row(self.lattice, i)
        return (*zip(compress(range(i), where), weights), (i, diagonal))

    @property
    def entries(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Every row of W, built on each read and not kept.  No code in
        the package reads it; it stays only for perfbench's tracer
        (``perfbench/tracing.py``), which counts W's nonzeros through it."""
        return tuple(map(self.row, range(self.size)))

    @cached_property
    def quotient(self):
        """W lumped by :func:`_lump` over the orbits, keyed by shape: the
        quotient rows, each a (columns, weights) pair of arrays, and the
        class sizes.  Rows of W are summed only for representatives of a
        new shape, and none is kept."""
        return _lump(self.lattice, self.orbits)

    @cached_property
    def roots(self) -> tuple[int, ...]:
        """:func:`annihilator` of the quotient, read once and kept: D, the
        order of the count recurrence, is its length."""
        return annihilator(self.quotient[0])

    @cached_property
    def solved(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """S_0..S_D, the seeds of the passes that extend them past D, and
        the numerator P of the counts' generating function P(x) / A(x):
        solved on first read and kept.

        Q, the lumped quotient of W, is lower triangular, so by the
        transfer-matrix method (Stanley, Enumerative Combinatorics I, 4.7)
        the counts have a generating function P(x) / A(x) with
        A = prod over diagonal values v of (1 - v*x)**m_v (``annihilator``)
        and deg P < D = sum of m_v.  S_0..S_D come from
        :func:`walk_counts`, and P is the first D terms of their product
        with A, one factor at a time by :func:`times_annihilator`.  Stage
        j of that product, the terms times the first j factors, is a
        series whose x**D term seeds the pass that undoes factor j + 1:
        from it, over stage j + 1's terms past D, y[n] = v*y[n-1] + p[n]
        gives stage j's.  P's terms past D - 1 are zeros, so
        :func:`over_annihilator` over zeros, the factors last to first
        with these seeds, gives S past D; the seeds are kept in that
        order.

        The solved S_D is checked through the product's last term, the
        x**D coefficient of A times the series, which vanishes for a valid
        A.  If A lacks one factor (1 - v*x), it is v**(D-1) * R(1/v) with R
        the polynomial that A times the series makes, and it is zero
        exactly when the shorter A is still valid.  So this one term catches any single missing root
        or multiplicity without solving past D; the tests compare every
        term past D with the walk.
        """
        roots, seeds = self.roots, []
        terms = walk_counts(self, len(roots))
        product = times_annihilator(terms, roots, seeds)
        if product.pop():
            raise InvariantViolation(f"the annihilator's recurrence misses the walked S_{len(roots)}")
        return tuple(terms), tuple(reversed(seeds)), tuple(product)

    @cached_property
    def series(self) -> RationalOGF:
        """The counts' generating function P(x) / A(x), with P from
        ``solved`` and A's roots from ``roots``, built on first read and
        kept."""
        return RationalOGF(numerator=self.solved[2], denominator_roots=self.roots)


@record
class CountSequence:
    """Exact counts S_0..S_n for one monoid; always positive and nondecreasing."""

    values: tuple[int, ...]


@record
class RationalOGF:
    """Ordinary generating function as numerator over prod(1 - v*x)."""

    numerator: tuple[int, ...]
    denominator_roots: tuple[int, ...]

    def expand(self, n_max: int) -> list[int]:
        """The first ``n_max + 1`` series coefficients: the numerator,
        followed by zeros, divided by the denominator with every seed 0
        by :func:`over_annihilator`."""
        values = islice(chain(self.numerator, repeat(0)), n_max + 1)
        return list(over_annihilator(values, self.denominator_roots, repeat(0)))


def times_annihilator(values, roots, seeds=None) -> list[int]:
    """The terms ``values`` times prod(1 - v*x) over ``roots``, cut to
    their length: one first-order pass y[n] = p[n] - v*p[n-1] per root,
    which undoes one division of :func:`over_annihilator`.  The one
    routine that multiplies counts by their annihilator.  Each stage's
    last term, before its root's pass, is appended to the list
    ``seeds`` if one is given."""
    values = list(values)
    for v in roots:
        if seeds is not None:
            seeds.append(values[-1])
        values = [p - v * q for p, q in zip(values, [0, *values])]
    return values


def over_annihilator(values, roots, seeds):
    """An iterator over the terms ``values`` divided by prod(1 - v*x)
    over ``roots``, one factor (1 - v*x) at a time, each paired with a
    seed: the first-order pass y[n] = v*y[n-1] + p[n] from y[-1] = seed,
    which multiplies only by the small root v.  With every seed 0 it is
    the series of a fraction; with seeds read off the stages of
    :func:`times_annihilator`, it continues a solved series (see
    ``TransferMatrix.solved``).  The one routine that extends counts by a
    recurrence."""
    for v, seed in zip(roots, seeds):
        values = accumulate(values, lambda y, p, v=v: v * y + p, initial=seed)
        next(values)  # the seed itself, y[-1]
    return values


def _shift_groups(g) -> tuple[tuple[int, int], ...]:
    """The permutation g as (shift, mask) pairs: the bits x with the same
    g[x] - x form one mask, shifted by that distance plus len(g) so that
    no shift is negative.  A mask b maps to
    sum((b & mask) << shift) >> len(g), with one term per distinct
    distance (three for a transposition) instead of one per bit, and
    so does every field of an integer of masks packed in fields at least
    len(g) bits wide, with the mask repeated in each (:func:`_moves`)."""
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


# The typecode of each array item size, in bytes.
_ARRAY_CODES = {array(code).itemsize: code for code in "BHILQ"}


def _moves(lattice: SubmonoidLattice, generators) -> list[tuple[int, ...]]:
    """Each automorphism in ``generators`` as the map of member indices it
    induces.  Every member's mask is one field of a packed integer, each
    field at least |M| bits wide, so each of :func:`_shift_groups`'s
    (shift, mask) pairs moves the bits of every member at once: one AND
    with the mask repeated in every field, one shift and one OR.  Images
    stay inside their fields, which are decoded in C loops: by one array
    where an array item is a field wide, else one slice per field."""
    members, n, k, order = lattice.members, lattice.monoid.size, len(lattice), sys.byteorder
    width = min((b for b in _ARRAY_CODES if 8 * b >= n), default=-(-n // 8))
    code = _ARRAY_CODES.get(width)
    masks = b"".join(map(int.to_bytes, members, repeat(width), repeat(order)))
    every = int.from_bytes(masks, order)
    ones = int.from_bytes((1).to_bytes(width, order) * k, order)
    moves = []
    for g in generators:
        image = 0
        for shift, mask in _shift_groups(g):
            image |= (every & mask * ones) << shift
        data = (image >> n).to_bytes(width * k, order)
        if code:
            fields = array(code, data)
        else:
            fields = map(int.from_bytes, map(data.__getitem__, _spans((width,) * k)), repeat(order))
        moves.append(tuple(map(lattice.index_of.__getitem__, fields)))
    return moves


def build_transfer_matrix(
    monoid: CayleyMonoid, max_size: int = DEFAULT_MAX_MONOID_SIZE
) -> TransferMatrix:
    """W of ``monoid`` over its submonoids in the canonical lattice order.

    Results are cached per monoid and ``max_size``, and shared between
    callers; a positional and a keyword budget share one entry.  A build
    enumerates the submonoids and their orbits under Aut(M), each
    generator moving every member's mask at once, and builds no row of W.
    """
    return _build(monoid, max_size)


@lru_cache(maxsize=CACHE_SIZE)
def _build(monoid, max_size):
    """The lattice and its Aut(M) orbits: every member's mask moved
    through each generator at once by :func:`_moves`."""
    lattice = enumerate_submonoids(monoid, max_size=max_size)
    moves = _moves(lattice, _automorphism_generators(monoid.table))
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
    multiply-add per quotient nonzero and per class for the totals, and
    ``steps`` small steps per class, where a walk takes one multiply-add
    per nonzero per step.  Q's annihilator roots size the packed slots.
    :func:`walk` stays the reference that the tests hold it against."""
    return _packed_solve(*matrix.quotient, matrix.roots, steps)


# The head bits of the first layout: each slot's room above the growth
# that the top root predicts, for the class sizes and weights.
_HEAD_BITS = 24


def _layout(roots, steps: int, head: int) -> tuple[int, ...]:
    """Byte widths of slots 0..steps-1: slot n holds more than
    (n+1)*log2 v + (m-1)*log2(n+2) + ``head`` bits, with v the top root
    and m its multiplicity, since the counts grow like n**(m-1) * v**n.
    8*j more head bits make every slot j bytes wider."""
    v = roots[-1] if roots else 1
    rate, power = log2(max(v, 1)), max(roots.count(v) - 1, 0)
    return tuple(
        1 + int(((n + 1) * rate + power * log2(n + 2) + head) // 8) for n in range(steps)
    )


def _spans(widths) -> list[slice]:
    """The byte slice of each slot of the layout ``widths``."""
    ends = list(accumulate(widths))
    return list(map(slice, [0, *ends[:-1]], ends))


def _relayout(packed: list[int], old, new) -> None:
    """Move every integer of ``packed`` from the slot widths ``old`` to
    the no narrower ``new`` in place, padding each slot with zero bytes."""
    spans, size = _spans(old), sum(old)
    for i, value in enumerate(packed):
        data = value.to_bytes(size, "little")
        packed[i] = int.from_bytes(
            b"".join(map(bytes.ljust, map(data.__getitem__, spans), new, repeat(b"\0"))),
            "little",
        )


def _packed_solve(rows, sizes, roots, steps: int) -> list[int]:
    """S_0..S_steps for the lower-triangular quotient ``rows`` with class
    sizes ``sizes`` and annihilator ``roots``.  Each row is read as
    :func:`_lump` stores it, the off-diagonal columns and the weights
    with the diagonal last, with no per-row copy: ``map`` over both
    stops at the columns' end.

    Class C's sequence F[n] = (Q^n 1)[C] starts at F[0] = 1 and obeys
    F[n+1] = d*F[n] + g[n], with d its diagonal and g[n] the sum of
    w * F_j[n] over its off-diagonal pairs (j, w), so it depends only on
    the classes below C; they are solved first, in row order.  A solved
    class keeps F[0..steps-1] as one integer, slot n holding F[n]
    (Kronecker substitution), so the sum of w * packed_j is one
    big-integer multiply-add per nonzero and, while no slot carries, its
    slots are g[0..steps-1].  After the last class, one more row, the sum
    of |C| * packed_C, holds S_0..S_steps-1 in its slots; S_steps is the
    sum of |C| * F_C[steps], kept as one integer.

    Each slot has its own width, guessed by :func:`_layout` from the top
    root, and every slot is checked, so a bad guess costs time but never
    changes a count.  A row's sum, the totals row's too, must fit the
    layout, and its decoded slots must add up to the sum of w * (F_j[0]
    + ... + F_j[steps-1]), which is kept as one integer per class: a
    carry c out of slot n lowers the decoded total by c * (2**(8*b_n) - 1)
    for its b_n bytes, and nothing raises it.  Each solved F[n] must fit
    its slot: ``int.to_bytes`` raises OverflowError exactly when it does
    not, and only then is the excess measured.  A failed check widens
    every slot by the excess in whole bytes, at least one, and the head
    bits by at least a quarter, relays out the classes solved so far and
    retries the row.  Once every slot is as wide as the whole sum, no
    slot can carry, so a failing check raises InvariantViolation instead
    of widening again; so does a row whose premises fail, a weight or a
    diagonal below 1.
    """
    if not steps:
        return [sum(sizes)]
    head, packed, sums, last = _HEAD_BITS, [], [], 0
    widths = _layout(roots, steps, head)
    spans = _spans(widths)
    for c in range(len(rows) + 1):
        if c < len(rows):
            columns, weights = rows[c]
            if min(weights) < 1:
                raise InvariantViolation(f"quotient row {c} has a weight or diagonal below 1")
            # The diagonal is the last weight; map stops at the columns' end.
            d = weights[-1]
        else:
            d, columns, weights = None, range(c), sizes
        whole = sum(map(mul, weights, map(sums.__getitem__, columns)))
        while True:
            row_sum = sum(map(mul, weights, map(packed.__getitem__, columns)))
            end = spans[-1].stop
            excess = row_sum.bit_length() - 8 * end
            if excess <= 0:
                data = row_sum.to_bytes(end, "little")
                g = list(map(int.from_bytes, map(data.__getitem__, spans), repeat("little")))
                excess = int(sum(g) != whole)
            if excess > 0:
                if 8 * min(widths) >= whole.bit_length():
                    name = "the totals row" if d is None else f"quotient row {c}"
                    raise InvariantViolation(f"{name} carried out of slots as wide as its sum")
            elif d is None:
                return g + [last]
            else:
                f = list(accumulate(g, lambda y, x: d * y + x, initial=1))
                try:
                    data = b"".join(map(int.to_bytes, f[:-1], widths, repeat("little")))
                    break
                except OverflowError:
                    room = map(mul, widths, repeat(8))
                    excess = max(map(sub, map(int.bit_length, f[:-1]), room))
            head += max(8 * -(-excess // 8), head // 4)
            new = _layout(roots, steps, head)
            _relayout(packed, widths, new)
            widths, spans = new, _spans(new)
        packed.append(int.from_bytes(data, "little"))
        sums.append(sum(f[:-1]))
        last += sizes[c] * f[-1]


def annihilator(rows) -> tuple[int, ...]:
    """The roots of prod over v of (1 - v*x)**m_v for the quotient
    ``rows`` (as :func:`_lump` stores them: each row's diagonal is its
    last weight), ascending, each diagonal value v repeated m_v times.

    m_v is the most classes with diagonal v on one chain of direct nonzero
    edges, found in one bottom-up pass.  W(A, B) is nonzero for every B
    inside A, so the support of W, and of Q, is transitive: every path's
    classes with diagonal v are joined by direct edges, and m_v is also
    the most classes with diagonal v on any path."""
    diagonal = [weights[-1] for _, weights in rows]
    longest, chains = [], {}
    for (columns, weights), v in zip(rows, diagonal):
        below = (longest[j] for j, w in zip(columns, weights) if w and diagonal[j] == v)
        longest.append(1 + max(below, default=0))
        chains[v] = max(chains.get(v, 0), longest[-1])
    return tuple(v for v in sorted(chains) for _ in range(chains[v]))


def _shape(table, mask: int) -> bytes:
    """The Cayley table of the submonoid ``mask``, its elements relabelled
    0..|A|-1 in ascending order, as a key: the products x*y for x <= y,
    row by row, which the commutative table determines.  One byte per
    product up to 256 elements and two bytes above (the product budget is
    1024 elements); the lengths of the two forms never meet, so equal
    keys mean equal tables."""
    elements, local = tuple(bits_of(mask)), [0] * len(table)
    for i, x in enumerate(elements):
        local[x] = i
    products = [local[table[x][y]] for i, x in enumerate(elements) for y in elements[i:]]
    return bytes(products) if len(elements) <= 256 else array("H", products).tobytes()


def _typed(values):
    """``values`` in an array of the narrowest typecode that holds the
    largest, so equal values give equal bytes, or in a tuple when no
    typecode does.  A quotient weight of A's row sums at most 2**|A|
    ideals over at most 2**|A| members, so a tuple needs a submonoid of
    32 elements or more, above the default size budget."""
    bits = max(values).bit_length()
    width = min((b for b in _ARRAY_CODES if 8 * b >= bits), default=0)
    return array(_ARRAY_CODES[width], values) if width else tuple(values)


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
    were all formed before its own, so every quotient row's columns lie
    below it.  The rows are summed by :func:`ideal_row`,
    over each representative's ideals.  ``member_class`` maps each
    member to its class: before a row is lumped it is extended up to
    the row's member through ``classes``, which holds every orbit of
    those members, since an orbit's representative is its first member.
    So ``compress`` with the row's selector gives each weight's class
    in one C loop, with no column index made.  The weights are summed
    into one list indexed by class, and ``compress`` reads off the
    classes with a nonzero sum in ascending order, with no sort: every
    weight is at least 1 (the ideal A itself), so they are exactly the
    classes of the row's columns.

    A quotient row is stored as it is lumped, in two flat arrays, with
    no (column, weight) pair and no int object per nonzero: the columns
    in an ``array('I')``, straight from ``compress``, and the summed
    weights with the diagonal last in one array of the narrowest
    typecode that holds them (:func:`_typed`).  That typecode is a
    function of the values, so the bytes of the two arrays are the
    signature's key: equal signatures give equal bytes, and the columns'
    length fixes the weights' length, so unequal ones never do.  On
    ``chain:3 x chain:3`` (466 classes) this keeps 9 bytes per nonzero.

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
    classes, member_class, quotient, index, class_of_shape = [], [], [], {}, {}
    for r in orbits.reps:
        key = _shape(table, members[r])
        c = class_of_shape.get(key)
        if c is None:
            diagonal, where, weights = ideal_row(lattice, r)
            member_class.extend(map(classes.__getitem__, orbit_of[len(member_class) : r]))
            sums = [0] * len(quotient)
            for b, w in zip(compress(member_class, where), weights):
                sums[b] += w
            columns = array("I", compress(range(len(sums)), sums))
            weights = _typed([*compress(sums, sums), diagonal])
            signature = columns.tobytes(), weights if type(weights) is tuple else weights.tobytes()
            c = class_of_shape[key] = index.setdefault(signature, len(quotient))
            if c == len(quotient):
                quotient.append((columns, weights))
        classes.append(c)
    sizes = [0] * len(quotient)
    for o in orbit_of:
        sizes[classes[o]] += 1
    return tuple(quotient), tuple(sizes)


def count_sequence(matrix: TransferMatrix, n_max: int) -> CountSequence:
    """S_n for n = 0..n_max: solved by :func:`walk_counts` below D, else
    the solved S_0..S_D of ``matrix.solved`` followed by terms extended
    from its seeds.

    S_n for n >= D is fixed by the D terms before it (see
    ``TransferMatrix.solved``).  Below D the quotient is solved to n_max
    steps, at one packed multiply-add per quotient nonzero plus n_max
    small steps per class, in slots sized from the top root; from D on
    ``solved`` solves D steps once per matrix, and each term past D
    costs D small steps of :func:`over_annihilator`.

    The monotonicity check always runs over every term: it costs one
    comparison per term, and it is the one check on the count path that
    holds the extended terms, not only the solved ones, to the shape of
    every count sequence.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    roots = matrix.roots
    if n_max < len(roots):
        values = walk_counts(matrix, n_max)
    else:
        terms, seeds, _ = matrix.solved
        values = [*terms, *over_annihilator(repeat(0, n_max - len(roots)), reversed(roots), seeds)]
    for n, (prev, nxt) in enumerate(zip(values, values[1:])):
        if not 0 < prev <= nxt:
            raise InvariantViolation(f"counts not positive and nondecreasing at n={n + 1}")
    return CountSequence(values=tuple(values))
