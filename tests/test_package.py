"""Package surface: every exported name resolves, and the README's Python
examples run."""

import importlib
import pkgutil
import re
from pathlib import Path

import hardynum

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    modules = [hardynum] + [importlib.import_module(f"hardynum.{m.name}")
                            for m in pkgutil.iter_modules(hardynum.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_readme_python_examples_run():
    # the blocks build on each other, so they share one namespace
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
