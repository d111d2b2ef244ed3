"""The package's public names."""

import longshort


def test_every_name_in_all_resolves_on_the_package():
    assert len(set(longshort.__all__)) == len(longshort.__all__)
    assert [name for name in longshort.__all__ if not hasattr(longshort, name)] == []
    namespace = {}
    exec("from longshort import *", namespace)
    assert set(longshort.__all__) <= set(namespace)
