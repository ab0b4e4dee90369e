"""The package's public names: `femspde.__all__` and the names
`femspde/__init__.py` binds are one list, so a removed export cannot linger
in either place."""

import types

import femspde


def test_every_export_resolves():
    assert len(set(femspde.__all__)) == len(femspde.__all__)
    for name in femspde.__all__:
        assert hasattr(femspde, name), name


def test_exports_equal_public_names():
    # submodules are bound on the package by its imports; they are not exports
    public = {name for name, value in vars(femspde).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(femspde.__all__)
