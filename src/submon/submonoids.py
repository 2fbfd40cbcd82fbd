"""Submonoid enumeration, ideal counting, and the weighted submonoid graph.

Subsets of a monoid are plain integer bitmasks: bit ``i`` marks element
``i``.  Bits at positions >= the ambient size must be zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from operator import add, mul

from .errors import SizeLimitExceeded
from .monoid import CayleyMonoid, PartialOrder, down_masks

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


def mask_of(elements) -> int:
    out = 0
    for x in elements:
        out |= 1 << x
    return out


def _add_element(table, mask: int, x: int) -> int:
    """Smallest submonoid containing the submonoid ``mask`` and element ``x``.

    Products of old elements are present already, so each new element is
    multiplied only by the elements present when it is taken up.
    """
    if mask >> x & 1:
        return mask
    mask |= 1 << x
    pending = [x]
    while pending:
        row = table[pending.pop()]
        for y in bits_of(mask):
            p = row[y]
            if not mask >> p & 1:
                mask |= 1 << p
                pending.append(p)
    return mask


@dataclass(frozen=True)
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
    """The containment order on the members of a submonoid lattice."""
    ups = []
    for a in lattice.members:
        row = 0
        for j, b in enumerate(lattice.members):
            if a & ~b == 0:
                row |= 1 << j
        ups.append(row)
    return PartialOrder(size=len(lattice.members), up=tuple(ups))


@dataclass(frozen=True)
class Preorder:
    """Divisibility preorder on the elements of a submonoid.

    ``elements`` lists the ambient indices in ascending order and
    ``reach[i]`` is a bitmask over local positions: bit ``j`` is set iff
    ``elements[j]`` lies in ``elements[i] * A``.
    """

    elements: tuple[int, ...]
    reach: tuple[int, ...]


def divisibility_preorder(monoid: CayleyMonoid, submonoid: int) -> Preorder:
    """x divides y within the submonoid A iff y == x*a for some a in A.

    Reflexive because e is in A; transitive because A is closed.  A subset
    I of A satisfies I*A == I exactly when I is upward closed for this
    preorder: since e is in A we always have I a subset of I*A, so the ideal
    condition reduces to absorption, which is upward closure here.
    """
    elements = tuple(bits_of(submonoid))
    local = {x: i for i, x in enumerate(elements)}
    reach = []
    for x in elements:
        row = 0
        table_x = monoid.table[x]
        for a in elements:
            row |= 1 << local[table_x[a]]
        reach.append(row)
    return Preorder(elements=elements, reach=tuple(reach))


@dataclass(frozen=True)
class CondensedPreorder:
    """Strongly connected classes of a divisibility preorder.

    ``classes`` holds ambient element indices per class and is listed in a
    linear extension of the induced class order, so the highest class index
    present in any subset is always maximal in it.
    """

    classes: tuple[tuple[int, ...], ...]
    order: PartialOrder


def condense(preorder: Preorder) -> CondensedPreorder:
    k = len(preorder.elements)
    assigned = [-1] * k
    raw_classes = []
    for i in range(k):
        if assigned[i] >= 0:
            continue
        cls = [
            j
            for j in bits_of(preorder.reach[i])
            if preorder.reach[j] >> i & 1
        ]
        for j in cls:
            assigned[j] = len(raw_classes)
        raw_classes.append(cls)
    # Strict reach sets shrink upward, so sorting by reach size descending
    # is a linear extension of the class order.
    reach_size = [preorder.reach[cls[0]].bit_count() for cls in raw_classes]
    ordering = sorted(
        range(len(raw_classes)), key=lambda c: (-reach_size[c], raw_classes[c][0])
    )
    position = {old: new for new, old in enumerate(ordering)}
    classes = tuple(
        tuple(preorder.elements[j] for j in raw_classes[old]) for old in ordering
    )
    ups = [0] * len(ordering)
    for new, old in enumerate(ordering):
        rep = raw_classes[old][0]
        row = 0
        for j in bits_of(preorder.reach[rep]):
            row |= 1 << position[assigned[j]]
        ups[new] = row
    return CondensedPreorder(
        classes=classes, order=PartialOrder(size=len(classes), up=tuple(ups))
    )


class UpsetCounter:
    """Counts up-closed subsets of a poset whose indexing is a linear
    extension, by branching on the maximal element of highest index.

    The memo table maps free-element masks to counts and lives on the
    instance, so independent computations never share state.
    """

    def __init__(self, order: PartialOrder):
        self._down = down_masks(order)
        self._memo = {0: 1}

    def count(self, free: int) -> int:
        memo = self._memo
        cached = memo.get(free)
        if cached is not None:
            return cached
        top = 1 << free.bit_length() - 1
        # Up-closed sets containing the top element, then those avoiding
        # it (which must also avoid everything below it).
        total = self.count(free ^ top) + self.count(
            free & ~self._down[free.bit_length() - 1]
        )
        memo[free] = total
        return total


def weight_row(monoid: CayleyMonoid, a: int, columns):
    """Yield (j, W(a, b)) for each (j, b) of ``columns`` with b a subset of
    the submonoid ``a``, in the order given; the one home of the weight.

    W(a, b) counts the ideals I of a with I union b == a.  Such an ideal
    must contain every class meeting a minus b together with everything
    above, and may add any up-closed set of the other classes.  Upset
    counts are memoized across the row.
    """
    cond = condense(divisibility_preorder(monoid, a))
    counter = UpsetCounter(cond.order)
    class_masks = [mask_of(cls) for cls in cond.classes]
    ups, full = cond.order.up, cond.order.full_mask
    for j, b in columns:
        if b & ~a:
            continue
        forced = a & ~b
        required = 0
        for c, cls_mask in enumerate(class_masks):
            if forced & cls_mask:
                required |= ups[c]
        yield j, counter.count(full & ~required)


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
    diagonal W(A, A), the indices j of the members B_j strictly inside A,
    ascending, and the weights W(A, B_j) in the same order.

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
    eight planes at a time, one byte per column, and the bytes of the
    members inside A are picked out with ``compress``.
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
    return diagonal, compress(range(i), where), weights
