"""The public surface: every exported name exists."""

import importlib
import pkgutil

import hankelsigma


def test_every_exported_name_resolves():
    # __main__ is left out: importing it runs the command line
    modules = [hankelsigma] + [importlib.import_module("hankelsigma." + m.name)
                               for m in pkgutil.iter_modules(hankelsigma.__path__)
                               if m.name != "__main__"]
    stale = [(mod.__name__, name) for mod in modules
             for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert stale == []
