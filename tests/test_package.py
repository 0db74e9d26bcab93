"""The package's public surface: ``activemc.__all__`` against what ``__init__`` imports."""

import types

import activemc


def test_every_export_resolves():
    missing = [name for name in activemc.__all__ if not hasattr(activemc, name)]
    assert missing == []


def test_exports_sorted_without_duplicates():
    assert activemc.__all__ == sorted(set(activemc.__all__))


def test_every_public_import_is_exported():
    # submodules are attributes of the package too, but not exports
    public = {name for name, value in vars(activemc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(activemc.__all__)) == []
