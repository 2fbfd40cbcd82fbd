"""A fixed calibration loop that measures how fast this CPU runs now.

The machines the benchmark runs on are shared: on one 2-CPU virtual
machine one CPU ran the same code up to 1.6 times slower than the other,
and each CPU's speed changed from one minute to the next.  Query times are
therefore scaled to a reference speed: multiplied by ``REFERENCE_S``
over the median time ``calibrate`` took during their batch.  The loop
mixes what submon spends its time on: integer matrix-vector products
whose entries grow into big integers, and bit operations on small ints.
"""

from __future__ import annotations

import time

_SIZE = 48
_ROWS = tuple(
    tuple(sorted({((i * 7 + 5 * t) % _SIZE, 1 + (i + t) % 8) for t in range(12)}))
    for i in range(_SIZE)
)

# About what calibrate() takes on a shared 2-CPU virtual machine (Python 3.11.7) when no
# other tenant slows it; reported timings are scaled to this speed.
REFERENCE_S = 0.016


def calibrate() -> float:
    """Seconds this process takes for the fixed calibration work now."""
    start = time.perf_counter()
    vector = [1] * _SIZE
    for _ in range(80):
        vector = [sum(w * vector[j] for j, w in row) for row in _ROWS]
    mixed = 0
    for i in range(40_000):
        mixed |= (i * 2654435761) & 0xFFFF
        mixed ^= mixed >> 3
    return time.perf_counter() - start
