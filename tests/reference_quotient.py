"""The reference weights and lumping: W's rows built column by column,
and its quotient lumped from rows of (column, weight) pairs.

``TransferMatrix.row`` sums each row of W over the ideals of its
submonoid (``submonoids.ideal_row``), and ``TransferMatrix.quotient``
lumps rows summed the same way.  The tests and
``check_quotient_ladder.py`` hold both against this module, which
shares no weight code with them: :func:`weight_row` computes each
weight W(A, B) on its own, from the condensed divisibility preorder of
A and a count of its upsets, and :func:`reference_row` gives its rows
in the form of ``TransferMatrix.entries``; :func:`lump` checks the row
contract of the rows it reads.  The reference lumping stays in pair
form; :func:`flat` puts a lumped quotient, or hand-built pair rows, in
the form of ``TransferMatrix.quotient``, and :func:`paired` undoes it.
pytest does not collect this file.
"""

from array import array
from dataclasses import dataclass

from submon.errors import InvariantViolation
from submon.monoid import CayleyMonoid, PartialOrder, down_masks
from submon.submonoids import SubmonoidLattice, bits_of


def mask_of(elements) -> int:
    out = 0
    for x in elements:
        out |= 1 << x
    return out


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
    the submonoid ``a``, in the order given.

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


def reference_row(lattice: SubmonoidLattice, i: int) -> tuple[tuple[int, int], ...]:
    """Row i of W by :func:`weight_row`, in the form of ``entries``: a
    (column, weight) pair for each member inside member i, ascending,
    the diagonal pair last."""
    members = lattice.members
    return tuple(weight_row(lattice.monoid, members[i], zip(range(i + 1), members)))


def lump(row, orbits, shape):
    """Lump W's rows into classes on which every W^n 1 is constant, and
    return the quotient rows and the class sizes.

    ``row(i)`` builds member i's row and ``shape(i)`` gives its key; both
    are read for orbit representatives only, in orbit order.  A row's
    signature is its diagonal weight and the sorted (class, summed
    weight) pairs of its off-diagonal columns, whose orbits' classes are
    already known since those columns lie below the row; orbits with
    equal signatures share a class, and so do representatives with equal
    keys, whose later rows are never built.  With ``lambda i: i`` every
    representative's row is lumped by its signature alone.

    Both row-contract checks run on every row built, since a row that
    breaks them lumps into a wrong quotient without any error: a
    diagonal pair not last would be summed as an off-diagonal weight,
    and a column not below the row would read a class formed for another
    orbit, or none.
    """
    orbit_of = orbits.orbit_of
    classes, quotient, index, class_of_shape = [], [], {}, {}
    for r in orbits.reps:
        key = shape(r)
        c = class_of_shape.get(key)
        if c is None:
            built = row(r)
            if not built or built[-1][0] != r:
                raise InvariantViolation(f"row {r} does not end with its diagonal")
            sums = {}
            for j, w in built[:-1]:
                if not 0 <= j < r:
                    raise InvariantViolation(f"row {r} has column {j} not below it")
                b = classes[orbit_of[j]]
                sums[b] = sums.get(b, 0) + w
            diagonal, below = built[-1][1], tuple(sorted(sums.items()))
            c = class_of_shape[key] = index.setdefault((diagonal, below), len(quotient))
            if c == len(quotient):
                quotient.append(below + ((c, diagonal),))
        classes.append(c)
    sizes = [0] * len(quotient)
    for o in orbit_of:
        sizes[classes[o]] += 1
    return tuple(quotient), tuple(sizes)


def shape_free(row, orbits):
    """Lumping by signatures alone: each representative is its own shape,
    so every representative's row is built and none is skipped."""
    return lump(row, orbits, lambda i: i)


def _weights(values):
    """A row's weights, the diagonal last: an array('Q'), or a tuple when
    one is 2**64 or more."""
    try:
        return array("Q", values)
    except OverflowError:
        return tuple(values)


def flat(quotient):
    """Quotient rows of (column, weight) pairs, the diagonal pair last,
    with their class sizes, in the form of ``TransferMatrix.quotient``:
    each row's off-diagonal columns in an array('I') and its weights, the
    diagonal last, in :func:`_weights`.  Arrays compare by value whatever
    their typecodes, so this equals a quotient whose weights have the
    narrowest typecode."""
    rows, sizes = quotient
    return tuple(
        (array("I", [j for j, _ in row[:-1]]), _weights([w for _, w in row])) for row in rows
    ), sizes


def paired(quotient):
    """``TransferMatrix.quotient`` in the form :func:`lump` returns, which
    ``transfer.walk`` reads: each row as (column, weight) pairs, the
    diagonal pair (c, d) last for row c."""
    rows, sizes = quotient
    return tuple(
        (*zip(columns, weights), (c, weights[-1])) for c, (columns, weights) in enumerate(rows)
    ), sizes
