"""The package namespace: every exported name resolves."""

import minsos


def test_every_name_in_all_resolves():
    assert [name for name in minsos.__all__ if not hasattr(minsos, name)] == []
    assert len(set(minsos.__all__)) == len(minsos.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from minsos import *", namespace)
    assert set(minsos.__all__) <= set(namespace)
