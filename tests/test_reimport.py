"""A purged and re-imported bunred frees its old copy.

The benchmark imports bunred afresh several times in one process, deleting
every bunred entry of sys.modules first.  Nothing outside the package may
keep a reference to the old copy's classes: a typing.Union subscription of
them sat in typing's cache, and through the classes' methods and their
globals kept the whole old package alive.
"""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = """
import gc, importlib, sys, weakref

importlib.import_module("bunred.cli")
reduction = sys.modules["bunred.reduction"]
refs = [weakref.ref(reduction.BaseStep), weakref.ref(reduction.CompositeStep)]
del reduction
for name in [m for m in sys.modules if m == "bunred" or m.startswith("bunred.")]:
    del sys.modules[name]
importlib.import_module("bunred.cli")
gc.collect()
print(" ".join(str(ref() is None) for ref in refs))
"""


def test_reimported_package_frees_the_old_step_classes():
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.split() == ["True", "True"], "the first copy's BaseStep, CompositeStep"
