"""Fixtures shared by every test module."""

import pytest

from tapbound import cover
from tapbound.harness import experiments


@pytest.fixture(autouse=True)
def _empty_process_memo_tables():
    """Start each test with empty process-level memo tables, so that no test
    passes only because an earlier test filled one."""
    cover._level1_lambda.cache_clear()
    experiments._disorder_streams.cache_clear()
