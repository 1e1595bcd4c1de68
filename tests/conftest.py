"""Fixtures shared by the test files."""

import pytest


def clear_caches():
    """Empty every process-wide cache of the package."""
    from qca._cache import clear

    clear()


@pytest.fixture
def cold_caches():
    """Start the test from empty caches, so that a count of builds does not
    depend on what ran before it in the same process; the test may call the
    returned function to empty them again."""
    clear_caches()
    return clear_caches
