import semest


def test_all_names_exist_once_and_star_import_works():
    names = semest.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(semest, name)]
    assert not missing
    namespace = {}
    exec("from semest import *", namespace)
    assert set(names) <= set(namespace)
