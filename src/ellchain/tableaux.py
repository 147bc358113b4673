"""Rectangular tableaux with strictly increasing rows and columns.

A filling of an (r+1) x (g-d+r) rectangle with distinct entries from
{1..g}, strictly increasing along each row and each column, indexes a limit
linear series of degree d and projective dimension r on a chain of g
elliptic components.  When the rectangle has exactly g cells these are the
standard Young tableaux of the rectangle.

``count_tableaux`` counts by a column-by-column dynamic program.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
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
    if ncols == 0:
        return 1
    if nrows * ncols > g:
        return 0

    @lru_cache(maxsize=None)
    def extensions(prev: tuple[int, ...], used: int, cols_left: int) -> int:
        if cols_left == 0:
            return 1
        total = 0
        # strictly increasing down the column is built into combinations;
        # require strict growth against the previous column, cell by cell,
        # and global distinctness via the used-entry mask
        for col in combinations(range(1, g + 1), nrows):
            if all(col[i] > prev[i] for i in range(nrows)):
                mask = 0
                for v in col:
                    mask |= 1 << v
                if mask & used:
                    continue
                total += extensions(col, used | mask, cols_left - 1)
        return total

    zero = tuple([0] * nrows)
    return extensions(zero, 0, ncols)


def enumerate_tableaux(g: int, r: int, d: int) -> Iterator[Tableau]:
    """Yield every strict filling, column by column, in lexicographic order."""
    nrows, ncols = _shape(g, r, d)
    if ncols == 0:
        yield Tableau(())
        return

    def grow(prefix: list[tuple[int, ...]], used: set[int]) -> Iterator[Tableau]:
        if len(prefix) == ncols:
            rows = tuple(tuple(col[i] for col in prefix) for i in range(nrows))
            yield Tableau(rows)
            return
        prev = prefix[-1] if prefix else tuple([0] * nrows)
        for col in combinations(range(1, g + 1), nrows):
            if used.isdisjoint(col) and all(col[i] > prev[i] for i in range(nrows)):
                prefix.append(col)
                yield from grow(prefix, used | set(col))
                prefix.pop()

    yield from grow([], set())
