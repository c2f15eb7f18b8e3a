"""Package surface: every advertised export exists."""

import importlib
import pkgutil

import dialsql


def test_every_public_name_resolves():
    modules = [dialsql] + [importlib.import_module(info.name) for info in
                           pkgutil.walk_packages(dialsql.__path__, "dialsql.")]
    assert len(modules) > 10
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"
