"""Ground-truth enumerators by plain exhaustion.

These share no code with the fast paths beyond CayleyMonoid construction;
independence is the point.  They are only meant for desk-scale inputs.
"""

from __future__ import annotations

from .errors import SizeLimitExceeded
from .monoid import CayleyMonoid, make_chain, make_product

DEFAULT_MAX_ORACLE_SIZE = 14


def _closed_masks(monoid: CayleyMonoid):
    table = monoid.table
    e_bit = 1 << monoid.identity
    for mask in range(1 << monoid.size):
        if not mask & e_bit:
            continue
        els = [x for x in range(monoid.size) if mask >> x & 1]
        closed = True
        for x in els:
            row = table[x]
            for y in els:
                if not mask >> row[y] & 1:
                    closed = False
                    break
            if not closed:
                break
        if closed:
            yield mask


def _chain_product(monoid, n, max_size):
    total = (n + 1) * monoid.size
    if total > max_size:
        raise SizeLimitExceeded(f"oracle product has {total} elements, budget {max_size}")
    return make_product(monoid, make_chain(n))


def brute_force_submonoid_count(
    monoid: CayleyMonoid, n: int, max_size: int = DEFAULT_MAX_ORACLE_SIZE
) -> int:
    """Count submonoids of monoid x (chain of length n) by testing every
    identity-containing subset for closure."""
    product = _chain_product(monoid, n, max_size)
    return sum(1 for _ in _closed_masks(product))
