"""The package namespace: every advertised name is importable."""

import fasmon


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fasmon import *", namespace)
    assert [name for name in fasmon.__all__ if name not in namespace] == []
