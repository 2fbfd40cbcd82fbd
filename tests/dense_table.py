"""W as a full k x k table, built from the shipped ``TransferMatrix.row``.

The package holds no such table: ``matrix`` streams it one row at a time.
Tests that compare W with a dense reference read it from here, so they
still check the rows the package ships.
"""


def dense(matrix) -> tuple[tuple[int, ...], ...]:
    """Every row of W with its zeros filled in, one tuple per row."""
    table = []
    for i in range(matrix.size):
        cells = [0] * matrix.size
        for j, w in matrix.row(i):
            cells[j] = w
        table.append(tuple(cells))
    return tuple(table)
