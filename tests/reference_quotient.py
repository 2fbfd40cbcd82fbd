"""The reference lumping: W's quotient from rows built by ``weight_row``.

``TransferMatrix.quotient`` sums each row over the ideals of its
submonoid (``submonoids.ideal_row``).  The tests and
``check_quotient_ladder.py`` hold it against this lumping, which reads
rows of (column, weight) pairs such as ``TransferMatrix._row`` builds
with ``weight_row``, one pair per column, and checks their row contract.
pytest does not collect this file.
"""

from submon.errors import InvariantViolation


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
