"""Finite commutative monoids as explicit Cayley tables.

Elements are the integers ``0..size-1`` and the operation is stored as a
full ``size x size`` table, so every downstream computation is exact and
validation is a finite sweep.  All values are immutable after construction
and all operations here are pure.  The package's two bitset primitives,
:func:`bits_of` and :func:`bit_columns`, and its :func:`record` classes
live here, in the module every other one imports.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from itertools import repeat
from operator import attrgetter

from .errors import (
    AssociativityViolation,
    CommutativityViolation,
    IdentityViolation,
    MonoidSpecError,
    NotALattice,
    NotIdempotent,
    SizeLimitExceeded,
    TableValidationError,
)

# Product tables are materialized in full, so cap their size.
DEFAULT_MAX_PRODUCT_SIZE = 1024
# Entries kept per cache.  One batch of queries touches a handful of
# monoids and lattices, one entry each per cache.
CACHE_SIZE = 32


def _byte_bits(offset: int) -> tuple[bytes, ...]:
    """For each byte b, the set bit positions of b << ``offset``,
    ascending, one position per byte of a ``bytes``: the table of
    b < 2**(i+1) is that of b < 2**i, then the same entries each with
    bit i added.  A ``bytes`` entry takes half the memory of a tuple
    and is iterated as fast."""
    table = [b""]
    for i in range(offset, offset + 8):
        bit = bytes((i,))
        table += [bits + bit for bits in table]
    return tuple(table)


# _BYTE_BITS[k][b]: the set bit positions of a mask whose byte k is b
# and whose other bytes are zero, for the three low bytes.
_BYTE_BITS = tuple(map(_byte_bits, (0, 8, 16)))


def bits_of(mask: int):
    """An iterator over the set bit positions of ``mask``, ascending.  A
    mask below 2**24, as every element mask under the default budgets
    is, is read as the concatenated :data:`_BYTE_BITS` entries of its
    three bytes; a wider one by a loop that clears its lowest bit."""
    if mask >> 24:
        return _wide_bits_of(mask)
    low, middle, high = _BYTE_BITS
    return iter(low[mask & 255] + middle[mask >> 8 & 255] + high[mask >> 16])


def _wide_bits_of(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_columns(values, width: int) -> tuple[int, ...]:
    """The bit matrix with one row per value, transposed: bit j of
    column b is bit b of ``values[j]``, for b below ``width``.  Every
    value must be below ``2**width``.  Built from one string of the
    values, one ``width``-digit binary numeral per value, whose strided
    slices are the columns' numerals: time and memory linear in the
    number of values times ``width``, in C loops.  No values give
    ``width`` zero columns."""
    numerals = "".join(map(format, reversed(values), repeat(f"0{width}b")))
    return tuple(int(numerals[width - 1 - b :: width] or "0", 2) for b in range(width))


def check_rows(size: int, rows) -> None:
    """The shape check of every relation on ``0..size-1``: one bitmask row
    per element, and no bit beyond the range, or ``ValueError``."""
    if len(rows) != size:
        raise ValueError("rows must have one row per element")
    for x, row in enumerate(rows):
        if row >> size:
            raise ValueError(f"row {x} has bits beyond the element range")


def record(cls):
    """Make ``cls`` a record of the fields its body annotates, in order.

    Adds ``__init__`` taking each field positionally or by keyword, then
    calling ``__post_init__`` if the class has one; an ``__eq__`` true
    only for a record of the same class with equal fields; ``__hash__``
    of the fields; ``__repr__`` and ``__match_args__``.  Assignment and
    deletion raise ``AttributeError``.  Values live in the instance
    ``__dict__``, so ``cached_property`` works.  The methods are
    closures: nothing is compiled, and neither ``dataclasses`` nor
    ``inspect`` is imported.
    """
    names = tuple(cls.__annotations__)
    count, known = len(names), frozenset(names)
    field_values = attrgetter(*names)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        state = self.__dict__
        state.update(zip(names, args))
        if kwargs:
            state.update(kwargs)
        # As many values as fields, as many fields set, none unknown: so
        # none is missing or given twice.
        if len(args) + len(kwargs) != count or len(state) != count or kwargs and not known.issuperset(kwargs):
            raise TypeError(f"{cls.__name__}() takes exactly the fields {', '.join(names)}")
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return field_values(self) == field_values(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{cls.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(field_values(self))

    for method in (__init__, __eq__, __repr__, __setattr__, __delattr__, __hash__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


@record
class CayleyMonoid:
    """A finite commutative monoid: element count, operation table, identity.

    ``table[x][y]`` is the index of ``x * y``.  Instances built through the
    constructors in this module always satisfy commutativity, associativity,
    and the identity law; use :func:`from_table` to validate untrusted input.
    """

    size: int
    table: tuple[tuple[int, ...], ...]
    identity: int


@record
class PartialOrder:
    """A finite partial order on ``0..size-1``.

    The relation is stored one bitmask row per element: bit ``y`` of
    ``up[x]`` is set iff ``x <= y``.  Construction checks the rows with
    :func:`check_rows`, then reflexivity, antisymmetry, and transitivity.
    """

    size: int
    up: tuple[int, ...]

    def __post_init__(self):
        check_rows(self.size, self.up)
        for x, row in enumerate(self.up):
            if not row >> x & 1:
                raise ValueError(f"order is not reflexive at {x}")
        for x in range(self.size):
            for y in bits_of(self.up[x] & ~(1 << x)):
                if self.up[y] >> x & 1:
                    raise ValueError(f"order is not antisymmetric at ({x}, {y})")
                if self.up[y] & ~self.up[x]:
                    raise ValueError(f"order is not transitive at ({x}, {y})")

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1


def validate(monoid: CayleyMonoid) -> None:
    """Check the three monoid axioms exhaustively.

    Raises :class:`IdentityViolation`, :class:`CommutativityViolation`, or
    :class:`AssociativityViolation` with the first offending elements.
    The sweep is O(size^3); fine for the sizes this package targets.
    """
    n = monoid.size
    table = monoid.table
    e = monoid.identity
    for x in range(n):
        if table[e][x] != x:
            raise IdentityViolation(
                f"identity law fails: e*{x} == {table[e][x]}", (e, x)
            )
    for x in range(n):
        for y in range(x + 1, n):
            if table[x][y] != table[y][x]:
                raise CommutativityViolation(
                    f"{x}*{y} == {table[x][y]} but {y}*{x} == {table[y][x]}",
                    (x, y),
                )
    for x in range(n):
        for y in range(n):
            xy = table[x][y]
            row_x = table[x]
            for z in range(n):
                if table[xy][z] != row_x[table[y][z]]:
                    raise AssociativityViolation(
                        f"({x}*{y})*{z} == {table[xy][z]} but "
                        f"{x}*({y}*{z}) == {row_x[table[y][z]]}",
                        (x, y, z),
                    )


def from_table(table, identity: int) -> CayleyMonoid:
    """Build a validated monoid from a square table of int element indices."""
    rows = tuple(tuple(row) for row in table)
    if type(identity) is not int or any(type(v) is not int for row in rows for v in row):
        raise MonoidSpecError("table entries and the identity must be integers")
    n = len(rows)
    if n == 0:
        raise ValueError("a monoid needs at least one element")
    for row in rows:
        if len(row) != n:
            raise ValueError("table must be square")
        for v in row:
            if not 0 <= v < n:
                raise ValueError(f"table entry {v} out of range")
    if not 0 <= identity < n:
        raise ValueError(f"identity {identity} out of range")
    monoid = CayleyMonoid(size=n, table=rows, identity=identity)
    validate(monoid)
    return monoid


def make_chain(m: int) -> CayleyMonoid:
    """The chain 0 < 1 < ... < m under max, identity 0."""
    if m < 0:
        raise ValueError("m must be >= 0")
    n = m + 1
    table = tuple(tuple(max(x, y) for y in range(n)) for x in range(n))
    return CayleyMonoid(size=n, table=table, identity=0)


def make_product(
    a: CayleyMonoid, b: CayleyMonoid, max_size: int = DEFAULT_MAX_PRODUCT_SIZE
) -> CayleyMonoid:
    """Cartesian product with the componentwise operation.

    The pair (x, y) gets index ``x * b.size + y``.  This row-major encoding
    is part of the public contract so that subset masks and golden files
    round-trip across runs.
    """
    n = a.size * b.size
    if n > max_size:
        raise SizeLimitExceeded(f"product has {n} elements, budget {max_size}")
    nb = b.size
    table = []
    for x1 in range(a.size):
        for y1 in range(nb):
            row = []
            for x2 in range(a.size):
                base = a.table[x1][x2] * nb
                brow = b.table[y1]
                row.extend(base + brow[y2] for y2 in range(nb))
            table.append(tuple(row))
    return CayleyMonoid(size=n, table=tuple(table), identity=a.identity * nb + b.identity)


def make_power(
    atom: CayleyMonoid, k: int, max_size: int = DEFAULT_MAX_PRODUCT_SIZE
) -> CayleyMonoid:
    """The k-fold product of ``atom`` with itself; the trivial monoid
    when k == 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return reduce(partial(make_product, max_size=max_size), [atom] * k) if k else make_chain(0)


def make_bool(k: int, max_size: int = DEFAULT_MAX_PRODUCT_SIZE) -> CayleyMonoid:
    """The k-fold product of the two-element chain (subsets of a k-set under union)."""
    return make_power(make_chain(1), k, max_size=max_size)


def make_cyclic_group(m: int) -> CayleyMonoid:
    """The cyclic group of order m, written additively."""
    if m < 1:
        raise ValueError("m must be >= 1")
    table = tuple(tuple((x + y) % m for y in range(m)) for x in range(m))
    return CayleyMonoid(size=m, table=table, identity=0)


def make_mk(k: int) -> CayleyMonoid:
    """The join monoid of the lattice with bottom, top, and k pairwise
    incomparable middle elements, in the order (bottom, 1..k, top)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    top = 1 << k + 1
    up = (2 * top - 1, *(1 << x | top for x in range(1, k + 1)), top)
    return join_monoid(PartialOrder(size=k + 2, up=up))


def make_n5() -> CayleyMonoid:
    """The pentagon lattice under join.

    Elements in the fixed order (bottom, a, b, c, top) with
    bottom < a < c < top and bottom < b < top; b is incomparable to a and c.
    """
    up = (
        0b11111,  # bottom
        0b11010,  # a
        0b10100,  # b
        0b11000,  # c
        0b10000,  # top
    )
    return join_monoid(PartialOrder(size=5, up=up))


def is_idempotent(monoid: CayleyMonoid) -> bool:
    return all(monoid.table[x][x] == x for x in range(monoid.size))


def is_group(monoid: CayleyMonoid) -> bool:
    """True iff every element has an inverse."""
    e = monoid.identity
    return all(e in monoid.table[x] for x in range(monoid.size))


def semilattice_order(monoid: CayleyMonoid) -> PartialOrder:
    """The order x <= y iff x*y == y of an idempotent commutative monoid."""
    for x in range(monoid.size):
        if monoid.table[x][x] != x:
            raise NotIdempotent(f"{x}*{x} == {monoid.table[x][x]} != {x}")
    up = []
    for x in range(monoid.size):
        row = 0
        for y in range(monoid.size):
            if monoid.table[x][y] == y:
                row |= 1 << y
        up.append(row)
    return PartialOrder(size=monoid.size, up=tuple(up))


def down_masks(order: PartialOrder) -> tuple[int, ...]:
    """Bitmask rows of the opposite relation: bit y of row x iff y <= x,
    the :func:`bit_columns` transpose of the up rows."""
    return bit_columns(order.up, order.size)


@lru_cache(maxsize=CACHE_SIZE)
def join_table(order: PartialOrder) -> tuple[tuple[int, ...], ...]:
    """Least upper bounds of all pairs; raises NotALattice when one is missing."""
    return _bound_table(order, order.up, "join")


def meet_table(order: PartialOrder) -> tuple[tuple[int, ...], ...]:
    """Greatest lower bounds of all pairs; raises NotALattice when one is missing."""
    return _bound_table(order, down_masks(order), "meet")


def _bound_table(order, cones, kind):
    n = order.size
    table = []
    for x in range(n):
        row = []
        for y in range(n):
            common = cones[x] & cones[y]
            found = next((z for z in bits_of(common) if not common & ~cones[z]), None)
            if found is None:
                raise NotALattice(f"elements {x} and {y} have no {kind}")
            row.append(found)
        table.append(tuple(row))
    return tuple(table)


def bottom_of(order: PartialOrder) -> int:
    for x in range(order.size):
        if order.up[x] == order.full_mask:
            return x
    raise NotALattice("order has no bottom element")


def join_monoid(order: PartialOrder) -> CayleyMonoid:
    """The commutative idempotent monoid (P, join) of a lattice."""
    return CayleyMonoid(
        size=order.size, table=join_table(order), identity=bottom_of(order)
    )


def monoid_to_json(monoid: CayleyMonoid) -> dict:
    """Plain-dict form of the JSON Cayley-table format."""
    return {
        "size": monoid.size,
        "identity": monoid.identity,
        "table": [list(row) for row in monoid.table],
    }


def monoid_from_json(data: dict, max_size: int = DEFAULT_MAX_PRODUCT_SIZE) -> CayleyMonoid:
    """A validated monoid from the JSON Cayley-table format; a table of
    more than ``max_size`` elements is refused before its cubic
    validation."""
    try:
        table = data["table"]
        identity = data["identity"]
        size = data["size"]
    except (KeyError, TypeError) as exc:
        raise MonoidSpecError(f"JSON monoid is missing field {exc}") from exc
    if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
        raise MonoidSpecError("JSON monoid: table must be a list of row lists")
    if type(size) is not int:
        raise MonoidSpecError("JSON monoid: size must be an integer")
    if len(table) != size:
        raise MonoidSpecError("JSON monoid: size does not match the table")
    if size > max_size:
        raise SizeLimitExceeded(f"JSON monoid has {size} elements, budget {max_size}")
    try:
        return from_table(table, identity)
    except (ValueError, TableValidationError) as exc:
        raise MonoidSpecError(f"JSON monoid: {exc}") from exc


def from_spec(text: str, max_product_size: int = DEFAULT_MAX_PRODUCT_SIZE) -> CayleyMonoid:
    """Parse a monoid description string.

    Grammar: atoms ``chain:m``, ``mk:k``, ``n5``, ``cyclic:m``, ``bool:k``,
    and ``file:PATH`` (a JSON Cayley table), combined left to right with the
    infix product operator ``x``, e.g. ``"chain:1 x chain:1"``.
    """
    tokens = text.split()
    if not tokens or len(tokens) % 2 == 0:
        raise MonoidSpecError(f"malformed monoid spec: {text!r}")
    for i, tok in enumerate(tokens):
        if i % 2 == 1 and tok != "x":
            raise MonoidSpecError(f"expected 'x' between atoms, got {tok!r}")
    atoms = [_parse_atom(tok, max_product_size) for tok in tokens[::2]]
    return reduce(partial(make_product, max_size=max_product_size), atoms)


def _parse_atom(token: str, max_size: int) -> CayleyMonoid:
    head, sep, arg = token.partition(":")
    if head == "n5" and not sep:
        if max_size < 5:
            raise _over_budget(token, max_size)
        return make_n5()
    if head == "file" and sep:
        import json

        try:
            with open(arg, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise MonoidSpecError(f"cannot load monoid from {arg!r}: {exc}") from exc
        return monoid_from_json(data, max_size)
    # Each numeric atom's maker, and whether head:value has more elements
    # than the budget, decided before its table is built; 2**k is never formed.
    makers = {
        "chain": (make_chain, lambda m: m + 1 > max_size),
        "mk": (make_mk, lambda k: k + 2 > max_size),
        "cyclic": (make_cyclic_group, lambda m: m > max_size),
        "bool": (lambda k: make_bool(k, max_size), lambda k: k >= max_size.bit_length()),
    }
    if head in makers and sep:
        make, over_budget = makers[head]
        try:
            value = int(arg)
        except ValueError:
            raise MonoidSpecError(f"bad numeric argument in {token!r}") from None
        if over_budget(value):
            raise _over_budget(token, max_size)
        try:
            return make(value)
        except ValueError as exc:
            raise MonoidSpecError(f"bad atom {token!r}: {exc}") from exc
    raise MonoidSpecError(f"unknown monoid atom {token!r}")


def _over_budget(token: str, max_size: int) -> SizeLimitExceeded:
    return SizeLimitExceeded(f"atom {token!r} exceeds the product budget of {max_size} elements")
