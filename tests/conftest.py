"""Fixtures shared by the test modules."""

import pytest

import weilparity.cli
import weilparity.enumerator


@pytest.fixture
def cold_caches():
    """Clear every ``functools`` cache of the enumerator and the CLI, before and after the test.

    The caches are found by their ``cache_clear``, not by name, so one that
    is added, renamed or moved between the two modules is still cleared.
    They are collected before the test runs, so a test may replace one.
    """
    caches = [
        obj
        for module in (weilparity.enumerator, weilparity.cli)
        for obj in vars(module).values()
        if hasattr(obj, "cache_clear")
    ]
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()
