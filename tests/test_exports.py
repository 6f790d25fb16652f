"""Each module's __all__ resolves, and the package namespace exports only listed names."""

import importlib
import inspect
import pkgutil

import pairrank

MODULES = [importlib.import_module(f"pairrank.{info.name}")
           for info in pkgutil.iter_modules(pairrank.__path__)]


def test_every_listed_name_resolves():
    missing = [(mod.__name__, name) for mod in MODULES
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_every_package_name_is_listed_by_its_module():
    listed = {name for mod in MODULES for name in getattr(mod, "__all__", ())}
    public = {name for name, value in vars(pairrank).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public - listed == set()
