import hypersimplex


def test_every_exported_name_resolves():
    assert [name for name in hypersimplex.__all__ if not hasattr(hypersimplex, name)] == []
    assert len(set(hypersimplex.__all__)) == len(hypersimplex.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from hypersimplex import *", namespace)
    assert set(hypersimplex.__all__) <= namespace.keys()
