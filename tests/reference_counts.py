"""Brute-force references that only the tests read.

:func:`brute_force_weight` counts one weight of W and
:func:`brute_force_projection_count` the submonoids of M x [n] over one
projection, each by testing every subset, as ``submon.oracle`` counts
submonoids.  The tests hold the weight matrix and its walks against
them.  pytest does not collect this file.
"""

from submon.monoid import CayleyMonoid
from submon.oracle import DEFAULT_MAX_ORACLE_SIZE, _chain_product, _closed_masks


def brute_force_weight(monoid: CayleyMonoid, a: int, b: int) -> int:
    """Count ideals of the submonoid a whose union with b is a, by testing
    all subsets of a."""
    els = [x for x in range(monoid.size) if a >> x & 1]
    table = monoid.table
    count = 0
    for pattern in range(1 << len(els)):
        ideal = 0
        for i, x in enumerate(els):
            if pattern >> i & 1:
                ideal |= 1 << x
        if ideal | b != a:
            continue
        absorbing = True
        for x in els:
            if not ideal >> x & 1:
                continue
            row = table[x]
            for y in els:
                if not ideal >> row[y] & 1:
                    absorbing = False
                    break
            if not absorbing:
                break
        if absorbing:
            count += 1
    return count


def brute_force_projection_count(
    monoid: CayleyMonoid, n: int, a: int, max_size: int = DEFAULT_MAX_ORACLE_SIZE
) -> int:
    """Count submonoids of monoid x (chain of length n) whose image under
    projection to the first factor is exactly the subset a."""
    product = _chain_product(monoid, n, max_size)
    width = n + 1
    count = 0
    for mask in _closed_masks(product):
        image = 0
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            image |= 1 << (low.bit_length() - 1) // width
        if image == a:
            count += 1
    return count
