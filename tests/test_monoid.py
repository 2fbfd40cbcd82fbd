import json
import random

import pytest

from submon.errors import (
    AssociativityViolation,
    CommutativityViolation,
    IdentityViolation,
    MonoidSpecError,
    NotALattice,
    NotIdempotent,
    SizeLimitExceeded,
)
from submon import monoid as monoid_module
from submon.monoid import (
    PartialOrder,
    bit_columns,
    bits_of,
    bottom_of,
    from_spec,
    from_table,
    is_group,
    is_idempotent,
    join_monoid,
    make_bool,
    make_chain,
    make_cyclic_group,
    make_mk,
    make_n5,
    make_power,
    make_product,
    monoid_from_json,
    monoid_to_json,
    semilattice_order,
    validate,
)
from submon.spectral import spectrum_of
from submon.submonoids import SubmonoidLattice, enumerate_submonoids
from submon.transfer import CountSequence, TransferMatrix, build_transfer_matrix, count_sequence
from submon.transfersystems import Violation, _lattice_context

from relations import from_pairs, leq


def test_from_table_accepts_small_monoids():
    assert from_table([[0]], 0).size == 1
    chain = from_table([[0, 1], [1, 1]], 0)
    assert chain.table[1][1] == 1
    group = from_table([[0, 1], [1, 0]], 0)
    assert is_group(group)


def test_from_table_identity_violation():
    with pytest.raises(IdentityViolation) as err:
        from_table([[1, 0], [0, 1]], 0)
    assert err.value.witness == (0, 0)


def test_from_table_commutativity_violation():
    with pytest.raises(CommutativityViolation) as err:
        from_table([[0, 1], [0, 0]], 0)
    assert err.value.witness == (0, 1)


def test_from_table_associativity_violation():
    # Commutative with identity, but (1*1)*2 == 0 while 1*(1*2) == 1.
    table = [[0, 1, 2], [1, 1, 0], [2, 0, 2]]
    with pytest.raises(AssociativityViolation) as err:
        from_table(table, 0)
    assert len(err.value.witness) == 3


def test_from_table_rejects_malformed_input():
    with pytest.raises(ValueError):
        from_table([[0, 1]], 0)
    with pytest.raises(ValueError):
        from_table([[0]], 3)
    with pytest.raises(ValueError):
        from_table([[5]], 0)


@pytest.mark.parametrize("maker", [make_chain(3), make_mk(3), make_n5(),
                                   make_cyclic_group(6), make_bool(2)])
def test_constructors_produce_valid_monoids(maker):
    validate(maker)


def test_make_chain_counts():
    assert enumerate_submonoids(make_chain(0)).members == (1,)
    assert len(enumerate_submonoids(make_chain(1))) == 2
    # Submonoids of a chain are the subsets containing the bottom.
    assert len(enumerate_submonoids(make_chain(2))) == 4
    assert is_idempotent(make_chain(5))


def test_make_product_encoding_is_row_major():
    grid = make_product(make_chain(1), make_chain(1))
    # (1, 0) has index 2 and (0, 1) has index 1; their product is (1, 1).
    assert grid.table[2][1] == 3
    assert grid.identity == 0


def test_product_with_trivial_is_identity():
    m = make_mk(2)
    assert make_product(m, make_chain(0)).table == m.table


def test_product_size_guard():
    with pytest.raises(SizeLimitExceeded):
        make_product(make_chain(9), make_chain(9), max_size=50)


def test_product_submonoid_counts_are_associative():
    a, b, c = make_chain(1), make_chain(1), make_chain(2)
    left = make_product(make_product(a, b), c)
    right = make_product(a, make_product(b, c))
    assert len(enumerate_submonoids(left)) == len(enumerate_submonoids(right))


def test_make_bool_matches_iterated_product():
    assert len(enumerate_submonoids(make_bool(2))) == 7
    assert len(enumerate_submonoids(make_bool(3))) == 61
    iterated = make_chain(0)
    for _ in range(3):
        iterated = make_product(iterated, make_chain(1))
    assert make_bool(3).table == iterated.table
    assert make_bool(0).size == 1
    with pytest.raises(ValueError):
        make_power(make_chain(1), -1)


def test_a_monoid_is_its_table():
    # No other field: monoids from a spec and from the same table are equal.
    assert set(vars(from_spec("mk:3 x mk:3"))) == {"size", "table", "identity"}
    spec = from_spec("mk:3 x mk:3")
    assert from_table(spec.table, spec.identity) == spec


def _records(spec):
    """One record of each of the package's 11 record classes, all built
    from the lattice ``spec``."""
    monoid = from_spec(spec)
    matrix = build_transfer_matrix(monoid)
    order = semilattice_order(monoid)
    return [
        monoid,
        order,
        matrix.lattice,
        matrix.orbits,
        matrix,
        count_sequence(matrix, 3),
        matrix.series,
        spectrum_of(matrix),
        from_pairs(order, []),
        Violation("reflexive", (order.size,)),
        _lattice_context(order),
    ]


def test_records_are_built_compared_hashed_and_frozen_by_their_fields():
    pairs = list(zip(_records("chain:2"), _records("mk:3")))
    assert len({type(a) for a, _ in pairs}) == 11
    for a, b in pairs:
        cls, names = type(a), type(a).__match_args__
        values = tuple(getattr(a, name) for name in names)
        positional, keyword = cls(*values), cls(**dict(zip(names, values)))
        assert positional == keyword == a != b
        assert a != values and values != a
        for bad_args, bad_kwargs in [
            (values[:-1], {}),
            ((*values, None), {}),
            (values[1:], {"other": values[0]}),
        ]:
            with pytest.raises(TypeError):
                cls(*bad_args, **bad_kwargs)
        if len(names) > 1:  # the first field given twice, the last missing
            with pytest.raises(TypeError):
                cls(*values[:-1], **{names[0]: values[0]})
        with pytest.raises(AttributeError):
            setattr(a, names[0], values[0])
        with pytest.raises(AttributeError):
            delattr(a, names[0])
        assert vars(positional) == dict(zip(names, values))
        if cls in (SubmonoidLattice, TransferMatrix):  # a field holds a dict
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(positional) == hash(keyword) == hash(a)
    assert repr(Violation("reflexive", (3,))) == "Violation(rule='reflexive', elements=(3,))"
    # Either way of construction runs PartialOrder's own checks.
    with pytest.raises(ValueError, match="antisymmetric"):
        PartialOrder(2, (0b11, 0b11))
    with pytest.raises(ValueError, match="one row per element"):
        PartialOrder(size=2, up=(0b01,))


@pytest.mark.parametrize("width", [1, 5, 8, 13, 64])
def test_bit_columns_transposes(width):
    full = (1 << width) - 1
    values = [0, full, 1, 1 << width - 1, full // 3, 0, full]
    columns = bit_columns(values, width)
    assert columns == tuple(
        sum((v >> b & 1) << j for j, v in enumerate(values)) for b in range(width)
    )
    assert bit_columns(columns, len(values)) == tuple(values)
    assert bit_columns([], width) == (0,) * width


def reference_bits_of(mask):
    """The set bit positions of ``mask``, ascending, one lowest bit
    cleared per step: the generator ``bits_of`` was before it read
    narrow masks from byte tables."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def test_bits_of_matches_the_reference_on_every_16_bit_mask():
    assert all(tuple(bits_of(m)) == tuple(reference_bits_of(m)) for m in range(1 << 16))


def test_bits_of_matches_the_reference_on_random_masks_up_to_1100_bits():
    rng = random.Random(37)
    edges = [(1 << 24) - 1, 1 << 24, (1 << 24) + 1, (1 << 24) | 1 << 23, (1 << 1100) - 1]
    masks = edges + [rng.getrandbits(rng.randrange(1, 1101)) for _ in range(2000)]
    for mask in masks:
        assert list(bits_of(mask)) == list(reference_bits_of(mask))
        # The first position alone, as callers read it with next(...).
        first = next(bits_of(mask), None)
        assert first == next(reference_bits_of(mask), None)
        assert first == ((mask & -mask).bit_length() - 1 if mask else None)
        it = bits_of(mask)
        assert iter(it) is it
    assert next(bits_of(0), None) is None and next(bits_of(1 << 1099)) == 1099


def test_make_mk_shape():
    m = make_mk(2)
    assert m.size == 4
    assert len(enumerate_submonoids(m)) == 7
    assert make_mk(3).size == 5
    with pytest.raises(ValueError):
        make_mk(0)


def test_make_n5_order():
    order = semilattice_order(make_n5())
    # bottom 0, a 1, b 2, c 3, top 4 with a < c and b incomparable to both
    assert leq(order, 0, 4) and leq(order, 1, 3)
    assert not leq(order, 2, 1) and not leq(order, 1, 2)
    assert not leq(order, 2, 3) and not leq(order, 3, 2)
    assert make_n5().table[1][2] == 4


def test_make_cyclic_group():
    assert make_cyclic_group(1).size == 1
    c4 = make_cyclic_group(4)
    assert is_group(c4)
    assert not is_idempotent(c4)
    assert c4.table[3][2] == 1
    with pytest.raises(ValueError):
        make_cyclic_group(0)


def test_is_group_on_non_groups():
    assert not is_group(make_chain(1))
    assert is_group(make_chain(0))


def test_semilattice_order_chain_is_total():
    order = semilattice_order(make_chain(2))
    assert all(leq(order, x, y) for x in range(3) for y in range(x, 3))


def test_semilattice_order_rejects_groups():
    with pytest.raises(NotIdempotent):
        semilattice_order(make_cyclic_group(2))


def test_semilattice_order_grid_is_componentwise():
    order = semilattice_order(make_product(make_chain(1), make_chain(1)))
    for x in range(4):
        for y in range(4):
            expected = x >> 1 <= y >> 1 and x & 1 <= y & 1
            assert leq(order, x, y) == expected


def test_join_monoid_round_trip():
    m = make_mk(3)
    assert join_monoid(semilattice_order(m)).table == m.table


def test_json_round_trip(tmp_path):
    m = make_mk(2)
    data = monoid_to_json(m)
    assert monoid_from_json(json.loads(json.dumps(data))).table == m.table
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps(data))
    assert from_spec(f"file:{path}").table == m.table


def test_from_spec_grammar():
    assert from_spec("chain:1 x chain:1").size == 4
    assert from_spec("bool:2").size == 4
    assert from_spec("n5").size == 5
    assert from_spec("cyclic:3 x chain:1").size == 6
    assert from_spec("chain:1 x chain:1 x chain:1").size == 8


@pytest.mark.parametrize(
    "spec, fits",
    [("chain:9", "chain:8"), ("mk:8", "mk:7"), ("cyclic:10", "cyclic:9"),
     ("bool:4", "bool:3"), ("bool:64", "bool:0"), ("chain:1 x chain:10", "chain:1 x chain:3")],
)
def test_from_spec_checks_each_atom_against_the_budget(spec, fits):
    # An atom over budget raises before its table is built, even alone.
    with pytest.raises(SizeLimitExceeded, match="exceeds the product budget of 9"):
        from_spec(spec, max_product_size=9)
    assert from_spec(fits, max_product_size=9).size <= 9


def test_bool_atom_folds_under_the_spec_budget(monkeypatch):
    # bool:11 passes the atom check under a 4096-element budget, so its
    # fold must run under that budget, not the 1024-element default.  The
    # stand-in records the budget instead of building 2,048 elements.
    calls = []

    def record(k, max_size=None):
        calls.append((k, max_size))
        return make_chain(0)

    monkeypatch.setattr(monoid_module, "make_bool", record)
    from_spec("bool:11", max_product_size=4096)
    assert calls == [(11, 4096)]


def test_file_atom_over_budget_is_refused_before_validation(tmp_path):
    # Five elements, and not associative: (1*1)*2 == 2*2 == 0 but
    # 1*(1*2) == 1*0 == 1.  The budget is checked first.
    table = [[0, 1, 2, 3, 4], [1, 2, 0, 0, 0], [2, 0, 0, 0, 0],
             [3, 0, 0, 0, 0], [4, 0, 0, 0, 0]]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"size": 5, "identity": 0, "table": table}))
    with pytest.raises(SizeLimitExceeded, match="5 elements, budget 4"):
        from_spec(f"file:{path}", max_product_size=4)
    # Within the budget the table is validated, and its violation is a
    # malformed spec.
    with pytest.raises(MonoidSpecError, match=r"JSON monoid: \(1\*1\)\*2 == 0") as err:
        from_spec(f"file:{path}", max_product_size=5)
    assert isinstance(err.value.__cause__, AssociativityViolation)


@pytest.mark.parametrize("bad", ["", "chain", "chain:x", "chain:1 y chain:1",
                                 "chain:1 x", "mk:0", "nope:1"])
def test_from_spec_rejects_garbage(bad):
    with pytest.raises(MonoidSpecError):
        from_spec(bad)


@pytest.mark.parametrize(
    "up, message",
    [
        ((0b111, 0b10), "row 0 has bits beyond the element range"),
        ((0b10, 0b10), "order is not reflexive at 0"),
        # 0 <= 1 and 1 <= 2 without 0 <= 2.
        ((0b011, 0b110, 0b100), r"order is not transitive at \(0, 1\)"),
    ],
)
def test_partial_order_rejects_a_relation_that_is_no_order(up, message):
    with pytest.raises(ValueError, match=message):
        PartialOrder(size=len(up), up=up)


def test_constructors_reject_empty_and_negative_sizes():
    with pytest.raises(ValueError, match="at least one element"):
        from_table([], 0)
    with pytest.raises(ValueError, match="m must be >= 0"):
        make_chain(-1)


def test_bottom_of_an_antichain():
    with pytest.raises(NotALattice, match="no bottom element"):
        bottom_of(PartialOrder(size=2, up=(0b01, 0b10)))


@pytest.mark.parametrize(
    "data, message",
    [
        ({"table": [[0]], "identity": 0}, "missing field 'size'"),
        ([[0]], "missing field"),
        ({"size": 2, "identity": 0, "table": [[0]]}, "size does not match the table"),
    ],
)
def test_monoid_from_json_rejects_a_malformed_document(data, message):
    with pytest.raises(MonoidSpecError, match=message):
        monoid_from_json(data)


def test_file_atom_that_cannot_be_read(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(MonoidSpecError, match="cannot load monoid from") as err:
        from_spec(f"file:{missing}")
    assert isinstance(err.value.__cause__, FileNotFoundError)
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{")
    with pytest.raises(MonoidSpecError, match="cannot load monoid from"):
        from_spec(f"file:{garbled}")
