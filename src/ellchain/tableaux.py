"""Rectangular tableaux with strictly increasing rows and columns.

A filling of an (r+1) x (g-d+r) rectangle with distinct entries from
{1..g}, strictly increasing along each row and each column, indexes a limit
linear series of degree d and projective dimension r on a chain of g
elliptic components.  When the rectangle has exactly g cells these are the
standard Young tableaux of the rectangle.

Ranking the n entries a filling uses is a bijection onto those standard
tableaux, so ``count_tableaux`` is C(g, n) times the hook-length count
(Frame, Robinson & Thrall, 1954); ``enumerate_tableaux`` searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


class TableauError(ValueError):
    pass


@dataclass(frozen=True)
class Tableau:
    """A rectangular grid, stored row-major."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        widths = {len(row) for row in self.cells}
        if len(widths) > 1:
            raise TableauError("ragged tableau")


def _shape(g: int, r: int, d: int) -> tuple[int, int]:
    if r < 0:
        raise TableauError(f"need r >= 0, got {r}")
    cols = g - d + r
    if cols < 0:
        raise TableauError(f"shape ({r + 1}) x ({cols}) has negative width")
    return (r + 1, cols)


def count_tableaux(g: int, r: int, d: int) -> int:
    """Number of strict fillings of the (r+1) x (g-d+r) rectangle from {1..g}.

    Entries are distinct across the whole grid, strictly increasing along
    each row and each column.
    """
    nrows, ncols = _shape(g, r, d)
    n = nrows * ncols
    if n == 0:
        return 1
    if n > g:
        return 0
    # counted from the opposite corner, cell (i, j) has hook length i + j + 1
    hooks = math.prod(i + j + 1 for i in range(nrows) for j in range(ncols))
    return math.comb(g, n) * math.factorial(n) // hooks


def enumerate_tableaux(g: int, r: int, d: int) -> Iterator[Tableau]:
    """Yield every strict filling, column by column, in lexicographic order.

    Cells are filled in column-major order, each with an unused value above
    its left and upper neighbours, smallest first.  Every cell below and to
    the right of cell (i, j) must later take a larger unused value, so a
    cell's values stop as soon as fewer unused values lie above its value
    than there are such cells.
    """
    nrows, ncols = _shape(g, r, d)
    if ncols == 0:
        yield Tableau(())
        return
    grid = [[0] * ncols for _ in range(nrows)]
    used = [False] * (g + 1)
    cells = [(i, j) for j in range(ncols) for i in range(nrows)]

    def fill(c: int) -> Iterator[Tableau]:
        if c == len(cells):
            yield Tableau(tuple(map(tuple, grid)))
            return
        i, j = cells[c]
        dominated = (nrows - i) * (ncols - j) - 1
        low = max(grid[i - 1][j] if i else 0, grid[i][j - 1] if j else 0)
        free = used[low + 1:].count(False)  # unused values above low
        for v in range(low + 1, g + 1):
            if used[v]:
                continue
            free -= 1  # now the unused values above v
            if free < dominated:
                break
            used[v], grid[i][j] = True, v
            yield from fill(c + 1)
            used[v] = False

    yield from fill(0)
