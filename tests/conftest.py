"""Setup shared by every test module."""

import pytest

from ellchain.elliptic import clear_memos


@pytest.fixture(autouse=True)
def empty_memo_tables():
    """Start each test with empty memo tables, as the CLI starts each run.

    The tables hold pure value algebra only, so no result depends on this:
    it keeps each test's memory and cache counters its own.
    """
    clear_memos()
