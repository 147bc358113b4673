"""Tableau counting against brute force, enumeration and the hook-length formula."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellchain.tableaux import TableauError, count_tableaux, enumerate_tableaux
from reference import fillings_by_columns, is_standard_filling, rectangle_syt_count


def brute_force_count(g, r, d):
    """Independent oracle: place every g-permutation prefix into the grid."""
    nrows, ncols = r + 1, g - d + r
    n = nrows * ncols
    if ncols == 0:
        return 1
    if n > g:
        return 0
    count = 0
    for perm in permutations(range(1, g + 1), n):
        grid = [perm[i * ncols:(i + 1) * ncols] for i in range(nrows)]
        if any(row[j] >= row[j + 1] for row in grid for j in range(ncols - 1)):
            continue
        if any(grid[i][j] >= grid[i + 1][j] for i in range(nrows - 1) for j in range(ncols)):
            continue
        count += 1
    return count


def test_two_by_two():
    assert count_tableaux(4, 1, 3) == 2


def test_two_by_three():
    assert count_tableaux(6, 1, 4) == 5


def test_single_column_unique():
    for g in range(2, 21):
        assert count_tableaux(g, g - 1, 2 * g - 2) == 1


def test_empty_shape():
    assert count_tableaux(5, 2, 7) == 1


def test_negative_width_rejected():
    with pytest.raises(TableauError):
        count_tableaux(3, 1, 7)


@pytest.mark.parametrize(
    "g,r,d",
    [(4, 1, 3), (5, 1, 4), (6, 1, 4), (6, 2, 6), (7, 1, 5), (8, 3, 9), (5, 0, 3), (6, 1, 5)],
)
def test_against_brute_force(g, r, d):
    assert count_tableaux(g, r, d) == brute_force_count(g, r, d)


@pytest.mark.parametrize("g,r,d", [(4, 1, 3), (6, 1, 4), (6, 2, 6), (9, 2, 8)])
def test_hook_length_at_balanced_shapes(g, r, d):
    nrows, ncols = r + 1, g - d + r
    assert nrows * ncols == g  # balanced: the count is the plain tableau count
    assert count_tableaux(g, r, d) == rectangle_syt_count(nrows, ncols)


def test_enumerator_matches_count_and_is_valid():
    for (g, r, d) in [(4, 1, 3), (6, 1, 4), (5, 1, 4), (6, 2, 6)]:
        listed = list(enumerate_tableaux(g, r, d))
        assert len(listed) == count_tableaux(g, r, d)
        assert all(is_standard_filling(t, g) for t in listed)
        assert len(set(listed)) == len(listed)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.integers(min_value=2, max_value=9))
@settings(max_examples=60, deadline=None)
def test_monotone_in_ground_set(rows, cols, g):
    r, d = rows - 1, g + rows - 1 - cols
    if d < 0:
        return
    assert count_tableaux(g + 1, r, d + 1) >= count_tableaux(g, r, d)


def test_count_matches_enumeration_on_every_small_shape():
    # unbalanced, empty and n > g shapes included: 550 shapes in all
    shapes = [(g, r, d) for g in range(10) for r in range(g + 1) for d in range(2 * g + 1)
              if g - d + r >= 0]
    assert len(shapes) == 550
    for g, r, d in shapes:
        assert count_tableaux(g, r, d) == len(list(enumerate_tableaux(g, r, d))), (g, r, d)


def test_pruned_search_lists_what_the_column_search_lists():
    # the same fillings in the same order on every shape with g <= 8
    shapes = [(g, r, d) for g in range(9) for r in range(g + 1) for d in range(2 * g + 1)
              if g - d + r >= 0]
    for g, r, d in shapes:
        want = fillings_by_columns(g, r + 1, g - d + r)
        assert [t.cells for t in enumerate_tableaux(g, r, d)] == want, (g, r, d)


def test_empty_shape_counts_one_for_every_g():
    # the empty rectangle is tested before n > g, so a negative g still gives 1
    assert count_tableaux(-3, 0, -3) == 1
    assert count_tableaux(-3, 0, -10) == 0


@pytest.mark.parametrize("g,r,d,message", [
    (5, -1, 3, "need r >= 0, got -1"),
    (3, 1, 7, "shape (2) x (-3) has negative width"),
])
def test_bad_shapes_keep_their_messages(g, r, d, message):
    with pytest.raises(TableauError) as info:
        count_tableaux(g, r, d)
    assert str(info.value) == message
