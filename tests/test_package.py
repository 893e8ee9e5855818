"""Package surface: every exported name resolves, each public name is
declared once, in its module's __all__, the README's Python examples run,
the CLI imports numpy only, only geometry branches on the shape class, and
the benchmark tracer finds every name it patches."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import hardynum

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    modules = [hardynum] + [importlib.import_module(f"hardynum.{m.name}")
                            for m in pkgutil.iter_modules(hardynum.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def _modules_with_all():
    modules = [importlib.import_module(f"hardynum.{m.name}")
               for m in pkgutil.iter_modules(hardynum.__path__)]
    return [mod for mod in modules if hasattr(mod, "__all__")]


def test_package_exports_its_public_modules_lists():
    # hardynum re-exports the __all__ of every public module that has one,
    # plus its own __version__, and a name is declared in one module only
    public = [mod for mod in _modules_with_all() if not mod.__name__.split(".")[-1].startswith("_")]
    declared = [name for mod in public for name in mod.__all__]
    assert len(hardynum.__all__) == len(set(hardynum.__all__))
    assert sorted(hardynum.__all__) == sorted(declared + ["__version__"])


def test_every_exported_class_and_function_is_defined_in_its_module():
    misplaced = []
    for mod in _modules_with_all():
        for name in mod.__all__:
            obj = getattr(mod, name)
            if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ != mod.__name__:
                misplaced.append(f"{mod.__name__}.{name}")
    assert misplaced == []


def test_package_init_lists_no_public_name_by_hand():
    # a name written out in __init__.py is a second list that a new name
    # would have to join
    names = {name for mod in _modules_with_all() for name in mod.__all__}
    tree = ast.parse(Path(hardynum.__file__).read_text(encoding="utf-8"))
    literals = {node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert sorted(literals & names) == []


def test_readme_python_examples_run():
    # the blocks build on each other, so they share one namespace
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: this one has scipy loaded by the tests' references
    probe = "import sys, hardynum.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    paths = [str(Path(hardynum.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


SHAPE_CLASSES = {"HalfPlane", "Sector", "Disk", "DiskExterior", "_Round"}


def test_only_geometry_dispatches_on_shape():
    # each shape class carries its own closed forms, so a new shape edits
    # geometry alone; an isinstance test on a shape elsewhere is a second
    # dispatch that the new shape would have to extend
    found = []
    for path in sorted(Path(hardynum.__file__).parent.glob("*.py")):
        if path.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                # a class is a Name (Disk) or an Attribute (geometry.Disk)
                classes = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[-1])}
                if classes & SHAPE_CLASSES:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    # the tracer patches package names by module.__dict__, so deleting or
    # renaming one (cli.estimate_hm, identities.quad, ...) fails here
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    tracing = importlib.import_module("tracing")
    from hardynum import HalfPlane, WosConfig, cli, wos

    tracer = tracing.Tracer()
    with tracer.installed():
        cli.estimate_profile(HalfPlane(), [2.0, 4.0], WosConfig(n_samples=100))
        cli.estimate_hm(HalfPlane(), 2.0, WosConfig(n_samples=100))
    # one span per call: neither entry point reaches the other's traced name
    spans = [s for s in tracer.spans if s.layer == "wos"]
    assert [(s.name, s.work) for s in spans] == [("estimate_profile", 100), ("estimate_hm", 100)]
    assert [s.parent for s in spans] == [None, None]
    assert cli.estimate_hm is wos.estimate_hm  # the original is back
    assert cli.estimate_profile is wos.estimate_profile


def test_benchmark_tracer_counts_every_draw(monkeypatch):
    # the tracer counts draws as the keys passed to wos.uniforms; a kernel
    # that drew a block of steps per key would hide draws from it. Every
    # jump takes one draw, and a block wastes at most MAX_BLOCK_STEPS - 1
    # draws of a walk absorbed before its end
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    tracing = importlib.import_module("tracing")
    from hardynum import DiskExterior, WosConfig, wos

    walks = 200
    # one pool of all the walks, and a pool narrower than the walk count, whose
    # rows take new walks as theirs end
    for chunk in (wos.DEFAULT_CHUNK, 64):
        tracer = tracing.Tracer()
        cfg = WosConfig(n_samples=walks, max_steps=20_000, chunk_size=chunk)
        with tracer.installed():
            wos.estimate_hm(DiskExterior(1.0), 2.0, cfg)

        def work(layer, name):
            return sum(s.work for s in tracer.spans if s.layer == layer and s.name == name)

        jumps = work("geometry", "distances") - work("geometry", "projections")
        draws = work("rng", "uniforms")
        assert jumps <= draws <= jumps + (wos.MAX_BLOCK_STEPS - 1) * walks, chunk


def test_benchmark_tracer_sees_every_growth_probe(monkeypatch):
    # the tracer counts probes through the module names hardy_growth_profile
    # and bergman_growth_profile; a probe path that bypassed them would read
    # as zero probes. empirical_hb probes each side at P_MAX and P_MAX/2
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    tracing = importlib.import_module("tracing")
    from hardynum import HalfPlane, function_norms

    tracer = tracing.Tracer()
    with tracer.installed():
        function_norms.empirical_hb(HalfPlane())
    names = [s.name for s in tracer.spans if s.layer == "function_norms"]
    assert names.count("empirical_hb") == 1
    assert names.count("hardy_growth_profile") == 2
    assert names.count("bergman_growth_profile") == 2
