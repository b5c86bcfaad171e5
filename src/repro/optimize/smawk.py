"""SMAWK: row minima of totally monotone matrices in linear time.

The λ=1 special case of the hashing problem is a 1-D clustering problem whose
dynamic program can be accelerated from O(n²b) to O(nb) with the matrix
searching technique of Wu (1991) / Aggarwal et al. (1987).  The key primitive
is SMAWK: given an ``n × m`` *totally monotone* matrix (every 2×2 submatrix
is monotone — if the top row strictly prefers the right column, so does the
bottom row), it finds the column index of each row's minimum using only
O(n + m) matrix entry evaluations.

The matrix is supplied implicitly as a callable ``lookup(row, col)`` so the
DP never materializes the O(n²) cost matrix.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

__all__ = ["smawk_row_minima"]


def smawk_row_minima(
    num_rows: int,
    num_cols: int,
    lookup: Callable[[int, int], float],
    values: Optional[List[float]] = None,
) -> List[int]:
    """Return, for every row, the index of the leftmost minimal column.

    Parameters
    ----------
    num_rows, num_cols:
        Dimensions of the implicit matrix.
    lookup:
        Callable returning the matrix entry at ``(row, col)``.
    values:
        Optional list of length ``num_rows``; when given, ``values[row]``
        receives the minimal entry itself (the ``lookup`` value SMAWK
        already computed), so callers need not evaluate it again.

    The matrix must be totally monotone; otherwise the result is undefined.
    """
    if num_rows <= 0 or num_cols <= 0:
        raise ValueError("matrix dimensions must be positive")
    result = [0] * num_rows
    if values is None:
        values = [0.0] * num_rows
    elif len(values) != num_rows:
        raise ValueError("values must have one slot per row")
    _solve(list(range(num_rows)), list(range(num_cols)), lookup, result, values)
    return result


def _reduce(rows: Sequence[int], cols: Sequence[int], lookup, ) -> List[int]:
    """REDUCE step: prune columns that cannot hold any row minimum.

    Keeps at most ``len(rows)`` columns while preserving every row's leftmost
    minimum.
    """
    surviving: List[int] = []
    for col in cols:
        while surviving:
            row = rows[len(surviving) - 1]
            if lookup(row, surviving[-1]) <= lookup(row, col):
                break
            surviving.pop()
        if len(surviving) < len(rows):
            surviving.append(col)
    return surviving


def _solve(
    rows: List[int], cols: List[int], lookup, result: List[int], values: List[float]
) -> None:
    """Recursive SMAWK on the submatrix indexed by ``rows`` × ``cols``."""
    if not rows:
        return
    cols = _reduce(rows, cols, lookup)

    # Recurse on every other row (positions 1, 3, 5, ...).
    _solve(rows[1::2], cols, lookup, result, values)

    # Fill in the remaining rows (positions 0, 2, 4, ...) by scanning between
    # the neighbouring solved rows' minima (monotonicity bounds the window).
    col_positions = {col: position for position, col in enumerate(cols)}
    for index in range(0, len(rows), 2):
        row = rows[index]
        start_position = 0
        if index > 0:
            start_position = col_positions[result[rows[index - 1]]]
        if index + 1 < len(rows):
            end_position = col_positions[result[rows[index + 1]]]
        else:
            end_position = len(cols) - 1
        best_col = cols[start_position]
        best_value = lookup(row, best_col)
        for position in range(start_position + 1, end_position + 1):
            col = cols[position]
            value = lookup(row, col)
            if value < best_value:
                best_value = value
                best_col = col
        result[row] = best_col
        values[row] = best_value
