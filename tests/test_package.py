"""The package's public names."""

import hardymeans


def test_every_public_name_resolves():
    assert [n for n in hardymeans.__all__ if not hasattr(hardymeans, n)] == []


def test_star_import_works():
    namespace = {}
    exec("from hardymeans import *", namespace)
    assert set(hardymeans.__all__) <= set(namespace)
