import nsdarcy


def test_every_exported_name_resolves():
    assert len(set(nsdarcy.__all__)) == len(nsdarcy.__all__)
    missing = [name for name in nsdarcy.__all__
               if not hasattr(nsdarcy, name)]
    assert missing == []


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from nsdarcy import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(nsdarcy.__all__)
