"""The chain-swap identity on products far past the brute-force oracle.

M x [a] x [n] is one monoid however its factors are grouped, so for every
commutative M:

- count(M x chain:a, n) == count(M x chain:n, a);
- count(M x chain:a, 0) == count(M, a), the submonoids of M x chain:a
  against the walk of M's own matrix.

The two sides of each check are different matrices, with their own
lattices, quotients, roots and D, and often one side's count is solved by
the packed solve while the other is extended past D from its seeds; a bug
must err the same way on both to pass.  :func:`swap_checks` yields the
checks over ``DEFAULT_MONOIDS`` for 0 < a < n <= 7, and the second form
for 0 < n <= 7, whose larger product M x chain:n has at most ``max_size``
elements.  The tier-1 suite runs it up to 12 elements; this script runs
it up to 16, which takes a few seconds, so pytest does not collect this
file.

:func:`tail_checks` then holds ``count_sequence`` up to n = 204, its
terms past D extended from the solved terms' seeds, against
``RationalOGF.expand``, which divides the series' numerator by its
denominator from zero seeds, on the five monoids of the benchmark's
``long-walks`` job and at its largest ``--n``.  Run it, from the
repository root, as::

    PYTHONPATH=src python -O tests/check_swap.py
"""

from submon.cli import DEFAULT_MONOIDS
from submon.monoid import from_spec
from submon.transfer import build_transfer_matrix, count_sequence


def count(spec: str, n: int) -> int:
    """S_n of ``spec``: the submonoids of spec x chain:n."""
    return count_sequence(build_transfer_matrix(from_spec(spec)), n).values[n]


# The monoids of the long-walks benchmark job, and its largest --n.
LONG_WALK_MONOIDS = (
    "cyclic:2 x mk:5",
    "cyclic:2 x chain:3 x chain:1",
    "cyclic:2 x bool:3",
    "cyclic:2 x mk:6",
    "cyclic:3 x mk:4",
)
TAIL_N = 204


def tail_checks():
    """Yield (label, counts, expansion) up to n = ``TAIL_N`` for each
    long-walks monoid."""
    for spec in LONG_WALK_MONOIDS:
        matrix = build_transfer_matrix(from_spec(spec))
        counts = list(count_sequence(matrix, TAIL_N).values)
        yield f"{spec} to n={TAIL_N}", counts, matrix.series.expand(TAIL_N)


def swap_checks(max_size: int):
    """Yield (label, left, right) for each check of the identity whose
    largest product has at most ``max_size`` elements."""
    for spec in DEFAULT_MONOIDS:
        size = from_spec(spec).size
        for n in range(1, 8):
            if size * (n + 1) > max_size:
                break
            yield f"{spec} x chain:{n}, 0", count(f"{spec} x chain:{n}", 0), count(spec, n)
            for a in range(1, n):
                yield (
                    f"{spec} x chain:{a}, {n}",
                    count(f"{spec} x chain:{a}", n),
                    count(f"{spec} x chain:{n}", a),
                )


if __name__ == "__main__":
    checked = 0
    for label, left, right in swap_checks(16):
        if left != right:
            raise SystemExit(f"swap {label}: {left} != {right}")
        checked += 1
    print(f"ok swap: {checked} checks up to 16 elements")
    for label, counts, expanded in tail_checks():
        if counts != expanded:
            raise SystemExit(f"tail {label}: counts differ from the expansion")
    print(f"ok tail: {len(LONG_WALK_MONOIDS)} monoids to n={TAIL_N}")
