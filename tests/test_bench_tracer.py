"""The benchmark's layer tracer still finds every name it wraps.

``bench/layers.install`` wraps functions and methods of ``qcontract`` by
name, and only a traced benchmark run calls it, so a rename in the library
would otherwise surface only as an AttributeError in that run.  The install
runs in a fresh interpreter, because it patches the modules in place."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path.insert(0, "bench")
import layers
layers.install(layers.Tracer())
from qcontract import quiver, uq
assert hasattr(uq.u_multiply, "__wrapped__") and hasattr(quiver.act, "__wrapped__")
"""


def test_layer_tracer_installs_on_this_tree():
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run([sys.executable, "-c", INSTALL], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
