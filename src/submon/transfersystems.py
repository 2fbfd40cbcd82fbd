"""Saturated transfer systems on finite lattices.

A saturated transfer system is a partial order R refining the lattice
order that is closed under restriction along meets and decomposes across
intermediate elements.  Relations are stored one bitmask row per element,
like orders.  The module enumerates all systems on a lattice and realizes
the order-reversing correspondence onto submonoids under join.  Systems on
P x [n] correspond to submonoids of (P, join) x [n], which ``sattr --n``
counts.  The cylinder weights count the systems on P x [1] by their two
layers, from the systems and the down-sets of P, without enumerating
any; :func:`st_count_sequence` walks them, an independent count for
``verify transfer-iso`` and the tests.  The lattice budget
(``--max-st-size``) bounds every enumeration of systems on P;
``sattr --n`` enumerates no system, and counts under the submonoid
budget (``--max-monoid-size``), as ``count`` does.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import chain

from .errors import InvariantViolation, NonUniqueMinimal, SizeLimitExceeded
from .monoid import (
    CACHE_SIZE,
    PartialOrder,
    down_masks,
    join_monoid,
    meet_table,
    record,
)
from .submonoids import bits_of, closed_sets
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
    """A relation on a lattice: bit y of rows[x] is set iff x R y."""

    order: PartialOrder
    rows: tuple[int, ...]

    def pairs(self) -> list[tuple[int, int]]:
        """Non-reflexive related pairs, sorted; the serialization form."""
        out = []
        for x, row in enumerate(self.rows):
            for y in bits_of(row & ~(1 << x)):
                out.append((x, y))
        return out

    @classmethod
    def from_pairs(cls, order: PartialOrder, pairs) -> TransferRelation:
        rows = [1 << x for x in range(order.size)]
        for x, y in pairs:
            rows[x] |= 1 << y
        return cls(order=order, rows=tuple(rows))


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


def is_saturated_transfer_system(order: PartialOrder, rows) -> tuple[bool, Violation | None]:
    """Check all defining clauses; on failure report the first violation.

    Clauses: the relation refines the lattice order, is reflexive and
    transitive, is closed under restriction (x R z implies
    meet(x, y) R meet(z, y) for every y), and is saturated (x R z with
    x <= y <= z implies x R y and y R z).

    This is the reference check: it reads each clause off the meet table,
    one system at a time.  Enumeration checks all its systems at once
    against the requirement table instead (:func:`_invalid_systems`),
    which is faster but is read by ``_grow`` too, so this stays: it names
    the clause of the first system that the bulk check rejects, and the
    tests hold the two checks equal on every enumerated system and every
    single-bit change of it.
    """
    ctx = _lattice_context(order)
    n = order.size
    rows = tuple(rows)
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
                if not rows[x] >> y & 1:
                    return False, Violation("saturation", (x, y, z))
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


# Array typecodes by item size in bytes.
_TYPECODES = {array(code).itemsize: code for code in "QLIHB"}


def _invalid_systems(ctx: _LatticeContext, systems) -> int:
    """The relations in ``systems`` that are not saturated transfer systems,
    as a bitset over positions: bit s is set iff ``systems[s]`` is not
    reflexive, does not refine the order, is not transitive, or lacks an
    entry of ``ctx.required`` for a pair it holds.  This is what
    :func:`is_saturated_transfer_system` decides, read off the requirement
    table alone and without ``_grow``'s propagation.

    Every row of every system is packed into one integer at a fixed number
    of bits per row, which is written out once as a binary numeral.  The
    numeral sliced at the stride of one system gives, for each entry
    (x, y), the bitset of the systems that relate x to y; each clause is
    then a big-integer operation that covers every system at once.
    """
    if not systems:
        return 0
    n = ctx.order.size
    width = max(n, max(map(int.bit_length, chain.from_iterable(systems))))
    size = next((size for size in (1, 2, 4, 8) if 8 * size >= width), -(-width // 8))
    if size in _TYPECODES:
        packed = array(_TYPECODES[size], chain.from_iterable(systems))
        if sys.byteorder == "big":
            packed.byteswap()
        packed = packed.tobytes()
    else:
        # Rows this wide belong to lattices of over 64 elements, far above
        # the default budget; otherwise only a faulty enumeration gets here.
        packed = b"".join(row.to_bytes(size, "little") for row in chain.from_iterable(systems))
    numeral = format(int.from_bytes(packed, "little"), f"0{8 * len(packed)}b")
    bits = 8 * size
    stride = bits * n

    def holding(x: int, y: int) -> int:
        """Bit s is set iff bit y of row x of system s is set."""
        return int(numeral[stride - 1 - bits * x - y :: stride], 2)

    has = [holding(x, y) for x in range(n) for y in range(n)]
    every = (1 << len(systems)) - 1
    lacks = [every ^ holds for holds in has]
    up = ctx.order.up
    required = ctx.required
    invalid = 0
    for x in range(n):
        invalid |= lacks[x * n + x]
        for y in bits_of(~up[x] & ((1 << n) - 1)):
            invalid |= has[x * n + y]
        for y in range(n, width):
            invalid |= holding(x, y)
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


def _enumerate_rows(order: PartialOrder) -> list[tuple[int, ...]]:
    """Every saturated transfer system on the lattice, in enumeration order.

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
    clause validator to name the violated clause.
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
        rows = systems[(invalid & -invalid).bit_length() - 1]
        violation = is_saturated_transfer_system(order, rows)[1]
        raise InvariantViolation(
            "enumerated an invalid system: "
            f"{violation or 'the requirement table and the clause validator disagree'}"
        )
    return systems


@lru_cache(maxsize=CACHE_SIZE)
def _saturated_rows(order: PartialOrder) -> tuple[tuple[int, ...], ...]:
    """Every saturated transfer system on the lattice, enumerated and
    validated by :func:`_enumerate_rows`, canonically sorted by
    (popcount, rows) and cached."""
    systems = _enumerate_rows(order)
    return tuple(sorted(systems, key=lambda r: (sum(v.bit_count() for v in r), r)))


def enumerate_saturated_transfer_systems(
    order: PartialOrder, max_size: int = DEFAULT_MAX_ST_SIZE
) -> list[TransferRelation]:
    _check_budget(order, max_size)
    return [TransferRelation(order, rows) for rows in _saturated_rows(order)]


def chi(order: PartialOrder, relation: TransferRelation) -> int:
    """Minimal element of each connected component of the relation.

    The result, as a subset mask, is a submonoid of the lattice under
    join, and the assignment reverses the refinement order.
    """
    n = order.size
    rows = relation.rows
    incoming = [0] * n
    for x in range(n):
        for y in bits_of(rows[x] & ~(1 << x)):
            incoming[y] |= 1 << x
    component = list(range(n))

    def find(x):
        while component[x] != x:
            component[x] = component[component[x]]
            x = component[x]
        return x

    for x in range(n):
        for y in bits_of(rows[x]):
            component[find(x)] = find(y)
    members: dict[int, list[int]] = {}
    for x in range(n):
        members.setdefault(find(x), []).append(x)
    result = 0
    for group in members.values():
        group_mask = 0
        for x in group:
            group_mask |= 1 << x
        minima = [x for x in group if not incoming[x] & group_mask]
        if len(minima) != 1:
            raise NonUniqueMinimal(
                f"component {sorted(group)} has minima {minima}"
            )
        result |= 1 << minima[0]
    return result


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
    holding = [sum(1 << k for k, v in enumerate(downsets) if v >> x & 1) for x in range(n)]
    every = (1 << len(downsets)) - 1
    # Each system as one integer, row x at bits n * x up to n * x + n - 1.
    packed = [sum(row << n * x for x, row in enumerate(rows)) for rows in systems]
    field = (1 << n) - 1
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
            # The down-sets that hold one of those columns.
            hit = 0
            for x in bits_of(differ):
                hit |= holding[x]
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
    masks = [chi(order, TransferRelation(order, rows)) for rows in systems]
    if sorted(masks) != sorted(lattice.members):
        return False, ("chi is not a bijection onto the submonoids", masks)
    for i, r_rows in enumerate(systems):
        st_row = dict(st_rows[i])
        w_row = dict(weights.row(lattice.index_of[masks[i]]))
        for j, q_rows in enumerate(systems):
            st = st_row.get(j, 0)
            w = w_row.get(lattice.index_of[masks[j]], 0)
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
