import inspect

import slvq


def test_package_binds_only_its_modules():
    # each name has one import path, its module; other tests import those
    # modules, which binds them here, so check each attribute's kind
    public = {name: value for name, value in vars(slvq).items() if not name.startswith("_")}
    assert all(inspect.ismodule(value) for value in public.values()), sorted(public)
