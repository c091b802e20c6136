import pytest

from smallsys import polyalg


@pytest.fixture
def fresh_mahler_caches():
    """Empty the process-wide Mahler caches, so that a test sees only the
    measures it computes itself, not those an earlier test left behind;
    returns the function that empties them, for a test to call again."""
    def clear():
        for cached in (polyalg.min_mahler_above_one, polyalg._enclosure,
                       polyalg._cyclotomics, polyalg._cyclotomic):
            cached.cache_clear()
    clear()
    return clear
