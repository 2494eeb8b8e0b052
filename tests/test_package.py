"""The package namespace: every advertised name is importable, every
top-level name is used, every name the benchmark's tracer patches exists,
and the import loads no module that fasmon does not use: no numpy
subpackage, and none of the network stack that xml.sax pulls in."""

import ast
import glob
import importlib
import os
import re
import subprocess
import sys

import fasmon


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fasmon import *", namespace)
    assert [name for name in fasmon.__all__ if name not in namespace] == []


_UNUSED_MODULES = ("numpy.polynomial", "xml.sax", "urllib.request",
                   "http.client", "ssl")


def test_import_does_not_load_numpy_polynomial():
    # nor the network stack (urllib, http, ssl) that xml.sax pulls in
    src = os.path.dirname(os.path.dirname(fasmon.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, fasmon\n"
         f"print([name for name in {_UNUSED_MODULES!r} if name in sys.modules])"],
        env=env, check=True, capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_every_top_level_name_is_used():
    # a top-level function, class or constant of the package that no module
    # loads, that __all__ does not export and that the benchmark does not
    # name is dead code
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    defined, loaded = [], set()
    for path in sorted(glob.glob(os.path.join(root, "src", "fasmon", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(os.path.basename(path), name) for name in names
                        if not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    named = set()
    for path in glob.glob(os.path.join(root, "perfbench", "*.py")):
        with open(path, encoding="utf-8") as fh:
            named.update(re.findall(r"\w+", fh.read()))
    unused = [f"{module}: {name}" for module, name in defined
              if name not in loaded | named | set(fasmon.__all__)]
    assert unused == []


def test_every_name_the_tracer_patches_exists():
    # perfbench/layertrace.py wraps <module>.<name> functions of fasmon in
    # Tracer.install; one that is renamed or deleted would otherwise show
    # only in a traced benchmark run
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "layertrace.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    tracer = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "Tracer")
    install = next(node for node in tracer.body
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    modules = {alias.asname or alias.name for node in ast.walk(install)
               if isinstance(node, ast.ImportFrom) and node.module == "fasmon"
               for alias in node.names}
    patched = {(node.value.id, node.attr) for node in ast.walk(install)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in modules}
    assert len(patched) >= 10
    missing = [f"{module}.{name}" for module, name in sorted(patched)
               if not hasattr(importlib.import_module(f"fasmon.{module}"), name)]
    assert missing == []
