"""Package namespace."""

import types


def test_star_import_binds_no_module():
    namespace = {}
    exec("from sheetsde import *", namespace)
    modules = [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert modules == []
    assert "expand" in namespace and "__version__" not in namespace
