"""Saturated transfer systems on finite lattices.

A saturated transfer system is a partial order R refining the lattice
order that is closed under restriction along meets and decomposes across
intermediate elements.  Relations are stored one bitmask row per element,
like orders, whose shape is checked, as an order's is, when built.  The
module enumerates all systems on a lattice and realizes the
order-reversing correspondence onto submonoids under join.  Systems on
P x [n] correspond to submonoids of (P, join) x [n], which ``sattr --n``
counts.  The cylinder weights count the systems on P x [1] by their two
layers, from the systems and the down-sets of P, without enumerating
any; ``verify transfer-iso`` compares them, through chi, with the weight
matrix, and :func:`st_count_sequence` walks them, an independent count
for the tests.  The lattice budget
(``--max-st-size``) bounds every enumeration of systems on P;
``sattr --n`` enumerates no system, and counts under the submonoid
budget (``--max-monoid-size``), as ``count`` does.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvariantViolation, NonUniqueMinimal, SizeLimitExceeded
from .monoid import (
    CACHE_SIZE,
    PartialOrder,
    bit_columns,
    bits_of,
    check_rows,
    down_masks,
    join_monoid,
    meet_table,
    record,
)
from .submonoids import closed_sets
from .transfer import CountSequence, build_transfer_matrix, walk

DEFAULT_MAX_ST_SIZE = 8


def _check_budget(order: PartialOrder, max_size: int) -> None:
    """The budget of every enumeration of systems on a lattice."""
    if order.size > max_size:
        raise SizeLimitExceeded(
            f"lattice has {order.size} elements, enumeration budget {max_size}"
        )


@record
class TransferRelation:
    """A relation on a lattice: bit y of rows[x] is set iff x R y.
    Construction checks the rows' shape, as :class:`PartialOrder` does."""

    order: PartialOrder
    rows: tuple[int, ...]

    def __post_init__(self):
        check_rows(self.order.size, self.rows)

    def pairs(self) -> list[tuple[int, int]]:
        """Non-reflexive related pairs, sorted; the serialization form."""
        out = []
        for x, row in enumerate(self.rows):
            for y in bits_of(row & ~(1 << x)):
                out.append((x, y))
        return out


@record
class Violation:
    rule: str
    elements: tuple[int, ...]


@record
class _LatticeContext:
    order: PartialOrder
    meet: tuple[tuple[int, ...], ...]
    covers: tuple[tuple[int, int], ...]
    between: tuple[tuple[int, ...], ...]
    # required[x][z]: the entries other than x R z itself and the diagonal
    # that restriction and saturation require once x R z holds, as
    # (row, column mask) pairs, one per row; empty unless x < z.
    required: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    # cover_bits[x][z]: the bit of the cover (x, z) in a system's cover
    # mask, or 0 if x < z is not a cover.
    cover_bits: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=CACHE_SIZE)
def _lattice_context(order: PartialOrder) -> _LatticeContext:
    n = order.size
    meet = meet_table(order)
    down = down_masks(order)
    covers = []
    for x in range(n):
        strict_up = order.up[x] & ~(1 << x)
        for z in bits_of(strict_up):
            if not strict_up & (down[z] & ~(1 << z)):
                covers.append((x, z))
    between = tuple(
        tuple(order.up[x] & down[z] for z in range(n)) for x in range(n)
    )
    required = [[() for _ in range(n)] for _ in range(n)]
    for x in range(n):
        for z in bits_of(order.up[x] & ~(1 << x)):
            masks = [0] * n
            for y in range(n):
                masks[meet[x][y]] |= 1 << meet[z][y]
            # Restriction along each y between x and z already gives x R y,
            # so saturation adds only y R z.
            for y in bits_of(between[x][z] & ~(1 << x) & ~(1 << z)):
                masks[y] |= 1 << z
            masks[x] &= ~(1 << z)
            required[x][z] = tuple(
                (r, mask & ~(1 << r)) for r, mask in enumerate(masks) if mask & ~(1 << r)
            )
    cover_bits = [[0] * n for _ in range(n)]
    for j, (x, z) in enumerate(covers):
        cover_bits[x][z] = 1 << j
    return _LatticeContext(
        order=order,
        meet=meet,
        covers=tuple(covers),
        between=between,
        required=tuple(map(tuple, required)),
        cover_bits=tuple(map(tuple, cover_bits)),
    )


def is_saturated_transfer_system(relation: TransferRelation) -> tuple[bool, Violation | None]:
    """Check all defining clauses; on failure report the first violation.

    Clauses: the relation refines the lattice order, is reflexive and
    transitive, is closed under restriction (x R z implies
    meet(x, y) R meet(z, y) for every y), and is saturated (x R z with
    x <= y <= z implies x R y and y R z).  Only y R z is checked as a
    saturation clause: x R y is restriction along y, since meet(x, y) = x
    and meet(z, y) = y, and the restriction loop has already checked it.

    This is the reference check: it reads each clause off the meet table,
    one system at a time.  Enumeration checks all its systems at once
    against the requirement table instead (:func:`_invalid_systems`),
    which is faster but is read by ``_grow`` too, so this stays: it names
    the clause of the first system that the bulk check rejects, and the
    tests hold the two checks equal on every enumerated system and every
    single-bit change of it.
    """
    order, rows = relation.order, relation.rows
    ctx = _lattice_context(order)
    n = order.size
    for x in range(n):
        if not rows[x] >> x & 1:
            return False, Violation("reflexive", (x,))
        if rows[x] & ~order.up[x]:
            y = next(bits_of(rows[x] & ~order.up[x]))
            return False, Violation("refines-order", (x, y))
    for x in range(n):
        for y in bits_of(rows[x]):
            if rows[y] & ~rows[x]:
                z = next(bits_of(rows[y] & ~rows[x]))
                return False, Violation("transitive", (x, y, z))
    for x in range(n):
        for z in bits_of(rows[x] & ~(1 << x)):
            for y in range(n):
                if not rows[ctx.meet[x][y]] >> ctx.meet[z][y] & 1:
                    return False, Violation("restriction", (x, z, y))
            for y in bits_of(ctx.between[x][z] & ~(1 << x) & ~(1 << z)):
                if not rows[y] >> z & 1:
                    return False, Violation("saturation", (x, y, z))
    return True, None


def _grow(ctx: _LatticeContext, rows, cols, gens: int, x: int, z: int):
    """The smallest saturated transfer system containing the closed system
    ``rows`` and the pair x R z, as its rows, its column masks (bit w of
    ``cols[c]`` is set iff w R c) and its cover mask (bit j is set iff it
    holds ``ctx.covers[j]``); ``cols`` and ``gens`` are those of ``rows``.

    Adding pairs (a, b) to a transitive relation relates everything that
    relates to a with everything each b relates to; each pair that is
    genuinely new sets its bit of ``ctx.cover_bits`` in the cover mask,
    and queues only the entries of ``ctx.required`` that it does not
    already hold, one column mask per row.  Most queued masks and most
    sets of new pairs in a row are single bits, which are read without a
    ``bits_of`` generator.
    """
    rows = list(rows)
    cols = list(cols)
    required = ctx.required
    cover_bits = ctx.cover_bits
    pending = [(x, 1 << z)]
    while pending:
        a, mask = pending.pop()
        mask &= ~rows[a]
        if not mask:
            continue
        if mask & (mask - 1):
            targets = 0
            for b in bits_of(mask):
                targets |= rows[b]
        else:
            targets = rows[mask.bit_length() - 1]
        for w in bits_of(cols[a]):
            new = targets & ~rows[w]
            if not new:
                continue
            rows[w] |= new
            w_bit = 1 << w
            required_w = required[w]
            cover_w = cover_bits[w]
            for c in bits_of(new) if new & (new - 1) else (new.bit_length() - 1,):
                cols[c] |= w_bit
                gens |= cover_w[c]
                for r, c_mask in required_w[c]:
                    if c_mask & ~rows[r]:
                        pending.append((r, c_mask))
    return tuple(rows), tuple(cols), gens


def _packed(systems, n: int) -> list[int]:
    """Each system as one integer, its row x masked to ``n`` bits at bits
    n * x up to n * x + n - 1."""
    field = (1 << n) - 1
    return [sum((row & field) << n * x for x, row in enumerate(rows)) for rows in systems]


def _invalid_systems(ctx: _LatticeContext, systems) -> int:
    """The relations in ``systems`` that are not saturated transfer systems,
    as a bitset over positions: bit s is set iff ``systems[s]`` is not
    reflexive, does not refine the order, is not transitive, or lacks an
    entry of ``ctx.required`` for a pair it holds.  This is what
    :func:`is_saturated_transfer_system` decides, read off the requirement
    table alone and without ``_grow``'s propagation.

    A system with a row bit at or above the lattice's size is flagged at
    once.  :func:`_packed` packs each system into one integer at ``size``
    bits per row, and :func:`bit_columns` transposes the packed systems
    into, for each entry (x, y), the bitset of the systems that relate x
    to y; each clause is then a big-integer operation that covers every
    system at once.
    """
    n = ctx.order.size
    field = (1 << n) - 1
    invalid = sum(1 << s for s, rows in enumerate(systems) if any(row >> n for row in rows))
    has = bit_columns(_packed(systems, n), n * n)
    every = (1 << len(systems)) - 1
    lacks = [every ^ holds for holds in has]
    up = ctx.order.up
    required = ctx.required
    for x in range(n):
        invalid |= lacks[x * n + x]
        for y in bits_of(~up[x] & field):
            invalid |= has[x * n + y]
        for z in bits_of(up[x] & ~(1 << x)):
            # Bit s: system s lacks an entry that x R z requires, by
            # transitivity or by the table.
            missing = 0
            for y in bits_of(up[z] & ~(1 << z)):
                missing |= has[z * n + y] & lacks[x * n + y]
            for r, mask in required[x][z]:
                for c in bits_of(mask):
                    missing |= lacks[r * n + c]
            invalid |= has[x * n + z] & missing
    return invalid


@lru_cache(maxsize=CACHE_SIZE)
def _saturated_rows(order: PartialOrder) -> tuple[tuple[int, ...], ...]:
    """Every saturated transfer system on the lattice, by (popcount, rows).

    Every system is the closure of its own cover pairs, so the systems are
    the closed sets of cover-pair masks: :func:`closed_sets` grows them
    from the discrete system one cover at a time by incremental closure,
    carrying each system's rows, column masks and cover mask.  ``_grow``
    sets the cover mask's bits as it adds pairs, so no step rescans the
    covers; a mask missing a bit would make Fast Close-by-One skip systems
    or yield some twice, and the tests hold it against a rescan of the
    grown rows at every step of every system.

    Every system is validated on every call.  Fast Close-by-One prunes on
    the assumption that ``_grow`` is a monotone closure; a ``_grow`` that
    misses a forced pair would return wrong systems without any error, and
    nothing else in the library would notice.  :func:`_invalid_systems`
    checks them all at once against the requirement table that ``_grow``
    also reads, but with none of its propagation; a wrong table is caught
    by the tests, which hold it against :func:`is_saturated_transfer_system`
    on every enumerated system and every single-bit change of it.  The
    first system that fails, in enumeration order, is passed to that
    clause validator, or to the relation's own row check, to name the fault.
    """
    ctx = _lattice_context(order)
    covers = ctx.covers

    def extend(state, i):
        grown = _grow(ctx, *state, *covers[i])
        return grown, grown[2]

    start = tuple(1 << x for x in range(order.size))
    systems = [rows for rows, _, _ in closed_sets((start, start, 0), 0, len(covers), extend)]
    invalid = _invalid_systems(ctx, systems)
    if invalid:
        rows = systems[next(bits_of(invalid))]
        try:
            violation = is_saturated_transfer_system(TransferRelation(order, rows))[1]
        except ValueError as error:
            violation = error
        raise InvariantViolation(
            "enumerated an invalid system: "
            f"{violation or 'the requirement table and the clause validator disagree'}"
        )
    return tuple(sorted(systems, key=lambda r: (sum(v.bit_count() for v in r), r)))


def enumerate_saturated_transfer_systems(
    order: PartialOrder, max_size: int = DEFAULT_MAX_ST_SIZE
) -> list[TransferRelation]:
    _check_budget(order, max_size)
    return [TransferRelation(order, rows) for rows in _saturated_rows(order)]


def chi(relation: TransferRelation) -> int:
    """Minimal element of each connected component of the relation.

    The result, as a subset mask, is a submonoid of the lattice under
    join, and the assignment reverses the refinement order.  The relation
    must be a partial order, as every transfer system is; this is
    :func:`_chi_masks` on one system.
    """
    return _chi_masks(relation.order, [relation.rows])[0]


def _chi_masks(order: PartialOrder, systems) -> list[int]:
    """:func:`chi` of every system in ``systems``, in order, all at once.

    The bitset ``minimal[m]`` holds the systems in which no other element
    relates to m.  In a partial order every element y lies above some
    minimal element, and each component has one minimum exactly when
    every y lies above exactly one: then that minimal element is the same
    for y and for everything related to y.  So a system passes when, for
    every y, one minimal m with m R y is seen and none twice; two
    bit-sliced counters per y check that for every system at once, from
    the :func:`bit_columns` transpose of the packed systems that
    :func:`_invalid_systems` also reads.  The masks are then the
    transpose of ``minimal``.  The first system that fails is scanned
    component by component to name a component without one minimum.
    """
    n = order.size
    has = bit_columns(_packed(systems, n), n * n)
    every = (1 << len(systems)) - 1
    minimal = []
    for m in range(n):
        related = 0
        for x in range(n):
            if x != m:
                related |= has[x * n + m]
        minimal.append(every & ~related)
    bad = 0
    for y in range(n):
        seen = twice = 0
        for m in range(n):
            above = minimal[m] & has[m * n + y]
            twice |= seen & above
            seen |= above
        bad |= (every & ~seen) | twice
    if bad:
        raise _non_unique_minimal(systems[next(bits_of(bad))])
    return list(bit_columns(minimal, len(systems)))


def _non_unique_minimal(rows) -> NonUniqueMinimal:
    """The error naming the first component of the relation ``rows``, by
    least element, that has no single element which nothing else relates
    to; such a component exists whenever ``rows`` is a partial order that
    :func:`_chi_masks` rejects."""
    n = len(rows)
    incoming = bit_columns([row & ~(1 << x) for x, row in enumerate(rows)], n)
    left = (1 << n) - 1
    while left:
        group, reach = 0, left & -left
        while reach != group:
            group = reach
            for x in bits_of(group):
                reach |= rows[x] | incoming[x]
        left &= ~group
        minima = [x for x in bits_of(group) if not incoming[x] & group]
        if len(minima) != 1:
            return NonUniqueMinimal(f"component {list(bits_of(group))} has minima {minima}")
    return NonUniqueMinimal("the relation is not a partial order")


@lru_cache(maxsize=CACHE_SIZE)
def _st_data(order: PartialOrder):
    """Canonical system list and the counts of cylinder systems by
    (top layer, bottom layer) as sparse (column, weight) rows.

    The counts come from a description of the systems on the cylinder
    P x [1], so none is enumerated.  Write (x, l) for the cylinder element
    at index 2 * x + l; order and meets are coordinatewise.  For a relation
    R on the cylinder, let T and B be its layers on P (x T y iff
    (x, 1) R (y, 1), x B y iff (x, 0) R (y, 0)), and V the set of x with
    (x, 0) R (x, 1).  Then R is a saturated transfer system exactly when

    (a) T and B are systems on P, and T is contained in B;
    (b) its cross pairs are exactly (x, 0) R (y, 1) for x in V and x T y,
        and no pair goes down a level;
    (c) V is a down-set of P, closed under T (x in V and x T y put y in V);
    (d) for every x in V, column x of B equals column x of T.

    Each clause is forced.  R refines the order, so no pair goes down a
    level.  The layers are R on two meet-closed levels, so they are
    systems, and restricting (x, 1) R (y, 1) along (top, 0) gives x B y.
    If (x, 0) R (y, 1), restricting along (x, 1) gives (x, 0) R (x, 1), so
    x is in V, and saturating through (x, 1) gives x T y; conversely
    (x, 0) R (x, 1) R (y, 1) composes.  For x in V and y <= x, restricting
    (x, 0) R (x, 1) along (y, 1) puts y in V.  For x in V and x T y,
    saturating the cross pair (x, 0) R (y, 1) through (y, 0) puts y in V.
    For x in V and a B x, the composite (a, 0) R (x, 0) R (x, 1) is a
    cross pair, so a T x by (b); T in B gives the converse.

    Conversely, let R be T on level 1, B on level 0 and the cross pairs
    of (b), for T, B and V meeting (a), (c) and (d).  R is reflexive and
    refines the order, since T and B do.  Transitivity: within a level it
    is that of T or B; (x, 0) R (y, 1) R (z, 1) gives x T z; and
    (x, 0) R (y, 0) R (z, 1) has y in V, so x T y by (d), x T z, and x in
    V since x <= y.  Restriction along (w, m): a level-0 pair restricts
    within B; a level-1 pair restricts within T, and onto level 0 within
    T, so within B; a cross pair (x, 0) R (y, 1) restricts to x meet w,
    in V since V is a down-set, and y meet w, related to it in T, so to a
    cross pair (m = 1) or a pair of B (m = 0).  Saturation of a cross pair
    (x, 0) R (y, 1) through (w, m), x <= w <= y: T is saturated, so x T w
    and w T y; for m = 1 that gives (x, 0) R (w, 1) R (y, 1), and for
    m = 0, x B w and w in V by (c), so (x, 0) R (w, 0) R (y, 1).  Within
    a level, saturation is that of T or B.

    So the systems with layers T and B are one for one with the sets V of
    (c) that miss every x whose column differs between B and T.  There
    are none unless T is contained in B, and then the empty V is one, so
    a row holds exactly the bottom layers that its top layer refines.
    The down-sets of P come once from :func:`closed_sets`, and sets of
    them are bitsets over that list: per element, those that hold it, and
    per top layer, those closed under it.
    """
    n = order.size
    systems = _saturated_rows(order)
    down = down_masks(order)
    downsets = list(closed_sets(0, 0, n, lambda v, i: (v | down[i],) * 2))
    # Bit k of holding[x] is set iff down-set k holds x.
    holding = bit_columns(downsets, n)
    every = (1 << len(downsets)) - 1
    packed = _packed(systems, n)
    field = (1 << n) - 1
    # The down-sets that hold an element of each column mask met so far:
    # at most one entry per mask of n bits.
    hits = {}
    st_rows = []
    for top, t in zip(systems, packed):
        closed = every
        for x, top_x in enumerate(top):
            for y in bits_of(top_x & ~(1 << x)):
                closed &= ~holding[x] | holding[y]
        row = []
        for j, b in enumerate(packed):
            if t & ~b:
                continue
            # The columns of the pairs of B outside T.
            extra, differ = b ^ t, 0
            while extra:
                differ |= extra & field
                extra >>= n
            hit = hits.get(differ)
            if hit is None:
                hit = 0
                for x in bits_of(differ):
                    hit |= holding[x]
                hits[differ] = hit
            row.append((j, (closed & ~hit).bit_count()))
        st_rows.append(tuple(row))
    return systems, tuple(st_rows)


def verify_graph_isomorphism(
    order: PartialOrder, max_size: int = DEFAULT_MAX_ST_SIZE
):
    """Check that mapping systems to submonoids matches cylinder counts
    against ideal-counting weights for every pair.

    Returns (True, None), or (False, details) where details carries the
    first mismatching pair of systems and the two weights.
    """
    _check_budget(order, max_size)
    systems, st_rows = _st_data(order)
    monoid = join_monoid(order)
    weights = build_transfer_matrix(monoid)
    lattice = weights.lattice
    masks = _chi_masks(order, systems)
    if sorted(masks) != sorted(lattice.members):
        return False, ("chi is not a bijection onto the submonoids", masks)
    columns = [lattice.index_of[mask] for mask in masks]
    for i, r_rows in enumerate(systems):
        # Both rows list exactly their nonzero entries, so equal rows are
        # equal lists; only a row that differs is read entry by entry.
        w_row = weights.row(columns[i])
        if sorted((columns[j], st) for j, st in st_rows[i]) == list(w_row):
            continue
        st_row, w_row = dict(st_rows[i]), dict(w_row)
        for j, q_rows in enumerate(systems):
            st = st_row.get(j, 0)
            w = w_row.get(columns[j], 0)
            if st != w:
                return False, (
                    "weight mismatch",
                    TransferRelation(order, r_rows).pairs(),
                    TransferRelation(order, q_rows).pairs(),
                    st,
                    w,
                )
    return True, None


def st_count_sequence(
    order: PartialOrder,
    n_max: int,
    max_size: int = DEFAULT_MAX_ST_SIZE,
) -> CountSequence:
    """Counts of saturated transfer systems on (lattice x chain of length n)
    for n = 0..n_max by walks over the cylinder weights: the independent
    route that the tests check ``sattr --n`` and the weight matrix against."""
    _check_budget(order, max_size)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    _, rows = _st_data(order)
    values = [len(rows)] + [sum(v) for v in walk(rows, [1] * len(rows), n_max)]
    return CountSequence(values=tuple(values))
