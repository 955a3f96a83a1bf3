"""Package namespace."""

import types


def test_star_import_binds_no_module():
    namespace = {}
    exec("from sheetsde import *", namespace)
    modules = [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert modules == []
    assert "expand" in namespace and "__version__" not in namespace


def test_all_is_the_sorted_public_namespace():
    import sheetsde

    assert sheetsde.__all__ == sorted(set(sheetsde.__all__))
    assert all(hasattr(sheetsde, name) for name in sheetsde.__all__)
    # every public name the package binds, submodules aside, and nothing else
    public = sorted(
        name for name, value in vars(sheetsde).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert sheetsde.__all__ == public
    assert len(public) == 86
