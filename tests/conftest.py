"""Setup shared by every test module."""

import pytest

from ellchain.elliptic import clear_memos


@pytest.fixture(autouse=True)
def empty_memo_tables():
    """Start each test with empty memo tables, as the CLI starts each run.

    The tables outlive a call on purpose: an endo run hands every d of a
    (g, r, h) class the verdict its first d decided.  Without this, a test
    could be served a verdict an earlier test decided, perhaps under a
    patched builder or threshold rule.
    """
    clear_memos()
