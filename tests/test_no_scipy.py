"""The package runs on numpy and the standard library alone.

Importing scipy costs a process ~70 MB of resident memory and ~1 s, and
every bench workload, forkserver and process replica pays it at import.
This test imports every module under ``repro`` in a fresh interpreter and
fails if any of them pulled in a ``scipy`` module.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import importlib, pkgutil, sys
import repro

names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print(len(names), *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_no_module_imports_scipy():
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        cwd=SRC,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    count, *scipy_modules = done.stdout.split()
    # A walk that imported nothing would pass vacuously.
    assert int(count) > 100
    assert not scipy_modules, f"scipy modules imported: {scipy_modules}"
