"""The package namespace: every advertised name is importable, and the
import loads no numpy subpackage that fasmon does not use."""

import os
import subprocess
import sys

import fasmon


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fasmon import *", namespace)
    assert [name for name in fasmon.__all__ if name not in namespace] == []


def test_import_does_not_load_numpy_polynomial():
    src = os.path.dirname(os.path.dirname(fasmon.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, fasmon; print('numpy.polynomial' in sys.modules)"],
        env=env, check=True, capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == ["False"]
