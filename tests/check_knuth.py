"""Knuth's ternary max-closed relations, counted as submonoids.

A relation R on {0..a} x {0..b} x {0..n} is max-closed when the
coordinatewise max of two of its tuples is in R.  Such an R that holds
the all-zero tuple is a submonoid of chain:a x chain:b x chain:n, so

    count(chain:a x chain:b, n)

counts them; the paper's closed form in n answers Knuth's question about
these relations.  This script checks those counts four ways:

- the diagonal count(chain:m x chain:m, m), the max-closed relations on
  {0..m}^3, pinned for m = 1, 2, 3;
- the S3 symmetry of count(chain:a x chain:b, n) in (a, b, n), for every
  a, b, n <= 3: the product is one monoid however its factors are
  ordered, but the three sides are different matrices;
- every a, b, n <= 2 against direct enumeration of the submonoids of
  chain:a x chain:b x chain:n;
- the submonoids of the Boolean lattice {0,1}^k under union, the
  union-closed families holding the empty set, which complementation
  maps one for one onto the Moore families on k points: OEIS A102896
  lists 2, 7, 61, 2480, 1385552 for k = 1..5.  Those terms are cited
  from the sequence, not computed here; the script reaches each both as
  count(bool:(k-1), 1) and by direct enumeration of bool:k.

It also checks, by brute force over every subset for a, b, n <= 1, that
the max-closed relations, the empty one included, number twice the
count: dropping the all-zero tuple from a submonoid leaves a max-closed
relation without it, and every such relation arises once.

Direct enumeration of bool:5 (1,385,552 submonoids) takes about 10 s and
250 MB, so pytest does not collect this file.  Run it, from the
repository root, as::

    PYTHONPATH=src python -O tests/check_knuth.py
"""

from itertools import permutations, product

from submon.monoid import bits_of, from_spec
from submon.submonoids import enumerate_submonoids
from submon.transfer import build_transfer_matrix, count_sequence

# count(chain:m x chain:m, m) for m = 1, 2, 3.
DIAGONAL = {1: 61, 2: 234_366, 3: 57_223_321_599}
# OEIS A102896, Moore families on k points, for k = 1..5.
MOORE_FAMILIES = {1: 2, 2: 7, 3: 61, 4: 2480, 5: 1_385_552}


def counts(spec: str, n_max: int) -> tuple[int, ...]:
    """S_0..S_n_max of ``spec``: the submonoids of spec x chain:n."""
    return count_sequence(build_transfer_matrix(from_spec(spec)), n_max).values


def enumerated(spec: str) -> int:
    """The submonoids of ``spec``, by direct enumeration."""
    monoid = from_spec(spec)
    return len(enumerate_submonoids(monoid, max_size=monoid.size).members)


def max_closed(a: int, b: int, n: int) -> int:
    """The max-closed subsets of {0..a} x {0..b} x {0..n}, the empty one
    included, by testing every subset."""
    tuples = list(product(range(a + 1), range(b + 1), range(n + 1)))
    index = {t: i for i, t in enumerate(tuples)}
    join = [[index[tuple(map(max, s, t))] for t in tuples] for s in tuples]
    found = 0
    for subset in range(1 << len(tuples)):
        members = list(bits_of(subset))
        found += all(subset >> join[s][t] & 1 for s in members for t in members)
    return found


def knuth_checks():
    """Yield (label, left, right) for each check; each pair must agree."""
    table = {(a, b): counts(f"chain:{a} x chain:{b}", 3) for a in range(4) for b in range(4)}
    for m, pinned in DIAGONAL.items():
        yield f"diagonal m={m}", table[m, m][m], pinned
    for a, b, n in product(range(4), repeat=3):
        for p, q, r in permutations((a, b, n)):
            yield f"symmetry ({a}, {b}, {n}) as ({p}, {q}, {r})", table[a, b][n], table[p, q][r]
    for a, b, n in product(range(3), repeat=3):
        direct = enumerated(f"chain:{a} x chain:{b} x chain:{n}")
        yield f"enumerated ({a}, {b}, {n})", table[a, b][n], direct
    for a, b, n in product(range(2), repeat=3):
        yield f"max-closed ({a}, {b}, {n})", max_closed(a, b, n), 2 * table[a, b][n]
    for k, cited in MOORE_FAMILIES.items():
        yield f"A102896 k={k} by count", counts(f"bool:{k - 1}", 1)[1], cited
        yield f"A102896 k={k} by enumeration", enumerated(f"bool:{k}"), cited


if __name__ == "__main__":
    checked = 0
    for label, left, right in knuth_checks():
        if left != right:
            raise SystemExit(f"knuth {label}: {left} != {right}")
        checked += 1
    print(f"ok knuth: {checked} checks")
