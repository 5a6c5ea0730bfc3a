import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncbinom

SRC = str(Path(ncbinom.__file__).resolve().parents[1])


@pytest.fixture
def verify_under_O():
    """Run `ncbinom verify <suite> [args]` in a `python -O` subprocess after
    the source in `plant` has patched a fault into the package."""
    def run(suite, plant, *args):
        script = (f"import runpy, sys\n{plant}"
                  f"sys.argv = ['ncbinom', 'verify', {suite!r}, *{args!r}]\n"
                  "runpy.run_module('ncbinom.cli', run_name='__main__')\n")
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, timeout=60)
    return run
