"""Fixtures shared by the test files."""

import pytest


def clear_caches():
    """Empty every per-fixed-data cache of the package: the bundled
    fixtures, the tori, p* and the principal compatible pair, the exchange
    graph and the mutation steps."""
    from qca import duality, fixtures, mutation

    for made in fixtures.ALL.values():
        made.cache_clear()
    for cached in (mutation.x_torus, mutation.a_torus, mutation._step,
                   duality.p1_star, duality.principal_compatible_pair):
        cached.cache_clear()
    mutation._ROOTS.clear()
    mutation._CHILDREN.clear()


@pytest.fixture
def cold_caches():
    """Start the test from empty caches, so that a count of builds does not
    depend on what ran before it in the same process; the test may call the
    returned function to empty them again."""
    clear_caches()
    return clear_caches
