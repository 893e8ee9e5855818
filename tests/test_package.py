"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import hardynum


def test_every_exported_name_resolves():
    modules = [hardynum] + [importlib.import_module(f"hardynum.{m.name}")
                            for m in pkgutil.iter_modules(hardynum.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
