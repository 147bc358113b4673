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
    n = nrows * ncols
    if n == 0:
        return 1
    if n > g:
        return 0
    # counted from the opposite corner, cell (i, j) has hook length i + j + 1
    hooks = math.prod(i + j + 1 for i in range(nrows) for j in range(ncols))
    return math.comb(g, n) * math.factorial(n) // hooks


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
