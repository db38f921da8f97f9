"""Fixtures shared by every test module."""

import pytest

from tapbound import cover


@pytest.fixture(autouse=True)
def _empty_process_memo_tables():
    """Start each test with an empty level-1 normal table, so that no test
    passes only because an earlier test filled it."""
    cover._level1_lambda.cache_clear()
