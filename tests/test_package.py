"""The package namespace: every advertised name is importable, and the
import loads no module that fasmon does not use: no numpy subpackage, and
none of the network stack that xml.sax pulls in."""

import os
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
