"""Submonoid enumeration, ideal counting, and the weighted submonoid graph.

Subsets of a monoid are plain integer bitmasks: bit ``i`` marks element
``i``.  Bits at positions >= the ambient size must be zero.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, repeat
from operator import add, mul

from .errors import SizeLimitExceeded
from .monoid import CayleyMonoid, PartialOrder, record

DEFAULT_MAX_MONOID_SIZE = 20


def bits_of(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def closed_sets(bottom, bottom_gens: int, generators: int, extend):
    """Yield each closed set once by Fast Close-by-One (Outrata and
    Vychodil 2012), the pruned form of Close-by-One (Kuznetsov 1993).

    A closed set is fixed by the mask of generators ``0..generators-1`` it
    contains; ``bottom`` is the least one.  ``extend(state, i)`` returns the
    closure of ``state`` plus generator ``i`` and its generator mask.  A
    child grown by ``i`` is kept only if it adds no generator below ``i``,
    so each closed set has one parent and no seen-set is needed.  A node
    skips generator ``i`` without calling ``extend`` while an ancestor's
    failed child grown by ``i`` holds a generator below ``i`` that the node
    lacks: closure is monotone, so that child would fail again.
    """
    stack = [(bottom, bottom_gens, 0, (0,) * generators)]
    while stack:
        state, gens, start, failed = stack.pop()
        yield state
        children = []
        fails = []
        for i in range(start, generators):
            bit = 1 << i
            if gens & bit or failed[i] & ~gens & (bit - 1):
                continue
            child, child_gens = extend(state, i)
            if (child_gens ^ gens) & (bit - 1):
                fails.append((i, child_gens))
            else:
                children.append((child, child_gens, i + 1))
        if fails and children:
            failed = list(failed)
            for i, child_gens in fails:
                failed[i] = child_gens
        stack.extend((*child, failed) for child in children)


def _add_element(table, mask: int, x: int) -> int:
    """Smallest submonoid containing the submonoid ``mask`` and element ``x``.

    ``mask`` must be a submonoid A.  Then the answer is the union of A and
    p*A over the powers p = x, x*x, ... of x, which is closed since
    x**i*a times x**j*b is x**(i+j)*(a*b).  The powers are taken in turn
    until one lies in the union so far, say x**i in x**j*A with j < i:
    then every later x**(i+m)*A lies inside x**(j+m)*A, and by induction
    in the union.  An idempotent x takes the one product x*A.
    """
    if mask >> x & 1:
        return mask
    grown, p = mask, x
    while not grown >> p & 1:
        row = table[p]
        for y in bits_of(mask):
            grown |= 1 << row[y]
        p = row[x]
    return grown


@record
class SubmonoidLattice:
    """All submonoids of a monoid in a fixed inclusion-respecting order.

    ``members`` is sorted by (popcount, mask value), which is a linear
    extension of inclusion and is part of the serialization contract.
    """

    monoid: CayleyMonoid
    members: tuple[int, ...]
    index_of: dict[int, int]

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def containing(self) -> tuple[int, ...]:
        """One bitset per element x of the monoid: bit j of
        ``containing[x]`` is set iff member j contains x.  Built from one
        string of the members' masks, one ``size``-digit binary numeral
        per member, whose strided slices are the bitsets' numerals: time
        and memory linear in k times the monoid's size, in C loops."""
        n = self.monoid.size
        numerals = "".join(map(format, reversed(self.members), repeat(f"0{n}b")))
        return tuple(int(numerals[n - 1 - x :: n], 2) for x in range(n))

    def below(self, i: int) -> int:
        """The members contained in member i, bit i included, as a bitset
        over member indices: the members up to i with no element outside
        it.  Every such member has index at most i, since the member
        order extends inclusion."""
        upto, outside = (2 << i) - 1, 0
        for x in bits_of(((1 << self.monoid.size) - 1) & ~self.members[i]):
            outside |= self.containing[x] & upto
        return upto ^ outside


def enumerate_submonoids(
    monoid: CayleyMonoid, max_size: int = DEFAULT_MAX_MONOID_SIZE
) -> SubmonoidLattice:
    """Enumerate every submonoid of ``monoid`` with :func:`closed_sets`,
    growing submonoids one element at a time.

    Raises :class:`SizeLimitExceeded` when ``monoid.size`` is over budget.
    """
    if monoid.size > max_size:
        raise SizeLimitExceeded(
            f"monoid has {monoid.size} elements, enumeration budget {max_size}"
        )

    def extend(mask, x):
        grown = _add_element(monoid.table, mask, x)
        return grown, grown

    bottom = 1 << monoid.identity
    members = list(closed_sets(bottom, bottom, monoid.size, extend))
    members.sort(key=lambda m: (m.bit_count(), m))
    return SubmonoidLattice(
        monoid=monoid,
        members=tuple(members),
        index_of={m: i for i, m in enumerate(members)},
    )


def inclusion_order(lattice: SubmonoidLattice) -> PartialOrder:
    """The containment order on the members of a submonoid lattice: the
    members containing member i are those containing each of its
    elements, the AND of their ``containing`` bitsets."""
    full, containing = (1 << len(lattice)) - 1, lattice.containing
    ups = []
    for a in lattice.members:
        row = full
        for x in bits_of(a):
            row &= containing[x]
        ups.append(row)
    return PartialOrder(size=len(lattice.members), up=tuple(ups))


# Maps the ASCII digits of a binary numeral to the byte values 0 and 1.
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _spread(bits: int, width: int) -> int:
    """``bits`` with bit j moved to the low bit of byte j, for j < width."""
    return int.from_bytes(format(bits, f"0{width}b").encode().translate(_DIGITS), "big")


def _count_ideals(free: int, multiples, divisors, memo: dict) -> int:
    """The leaves of the ideal walk below a node whose undecided elements
    are ``free``: the ways to put each in or out of the ideal, branching
    on the highest as :func:`ideal_row` does.  Memoised in ``memo``."""
    total = memo.get(free)
    if total is None:
        x = free.bit_length() - 1
        total = memo[free] = _count_ideals(
            free & ~multiples[x], multiples, divisors, memo
        ) + _count_ideals(free & ~divisors[x], multiples, divisors, memo)
    return total


def ideal_row(lattice: SubmonoidLattice, i: int):
    """Row i of W, summed over the ideals of A = ``members[i]``: its
    diagonal W(A, A), the selector ``where``, and the weights W(A, B_j)
    of the members B_j strictly inside A, in ascending order of j.
    ``where`` is i bytes, byte j 1 if B_j is inside A and 0 if not, so
    ``compress(range(i), where)`` gives the columns and ``compress`` of
    any per-member list gives its values at the columns, in the order of
    the weights.

    W(A, B) counts the ideals I of A with A minus I inside B.  A
    depth-first walk over A's ideals branches on a free element x: put x
    in I, which puts x*A in too, or leave x out, which leaves out every
    divisor of x in A and keeps only the columns that contain those
    divisors.  The columns are one bitset over member indices, starting
    from the members strictly inside A, so each leaf, one ideal, adds its
    column set to bit-sliced counters (plane p holds bit p of every
    column's count); the diagonal is the number of leaves.  A subtree
    whose column set is empty adds only its memoised leaf count.  Both
    branches of every node hold an ideal (all free elements in, or all
    out), so the walk visits fewer than twice as many nodes as A has
    ideals, however many columns the row has.  The counters are decoded
    eight planes at a time, one byte per member below A, and the bytes
    of the members inside A are picked out with ``compress`` by ``where``.
    """
    a, containing, table = lattice.members[i], lattice.containing, lattice.monoid.table
    start = lattice.below(i) ^ 1 << i
    elements = tuple(bits_of(a))
    multiples, divisors = [0] * lattice.monoid.size, [0] * lattice.monoid.size
    # The columns that leaving y out keeps: those holding its divisors.
    keeps = [start] * lattice.monoid.size
    for x in elements:
        for y in set(map(table[x].__getitem__, elements)):
            multiples[x] |= 1 << y
            divisors[y] |= 1 << x
            keeps[y] &= containing[x]
    planes, memo = [], {0: 1}

    def walk(free, columns):
        if not columns:
            return _count_ideals(free, multiples, divisors, memo)
        if not free:
            carry = columns
            for p, plane in enumerate(planes):
                planes[p] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                planes.append(carry)
            return 1
        x = free.bit_length() - 1
        return walk(free & ~multiples[x], columns) + walk(free & ~divisors[x], columns & keeps[x])

    diagonal = walk(a, start)
    where = _spread(start, i).to_bytes(i, "little")
    weights = ()
    for p in range(0, len(planes), 8):
        byte_plane = sum(_spread(plane, i) << s for s, plane in enumerate(planes[p : p + 8]))
        part = compress(byte_plane.to_bytes(i, "little"), where)
        weights = map(add, weights, map(mul, part, repeat(1 << p))) if p else part
    return diagonal, where, weights
