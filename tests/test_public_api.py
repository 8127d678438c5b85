"""The package's public names: every entry of __all__ must resolve, so a
removal cannot leave a stale name behind."""

import ebsmooth


def test_every_exported_name_resolves():
    missing = [name for name in ebsmooth.__all__ if not hasattr(ebsmooth, name)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from ebsmooth import *", namespace)
    assert set(ebsmooth.__all__) <= set(namespace)
