"""Run Python in a child process with one BLAS thread, for the tests' bit-for-bit checks.

The eigensolver's and some products' last digits change with the BLAS thread
count, so byte comparisons run where that count is fixed.
"""

import os
import subprocess
import sys
from pathlib import Path

import rclab


def run_python(argv, **kwargs):
    """``python argv`` with one BLAS thread and this checkout's ``rclab`` importable."""
    src = str(Path(rclab.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, **kwargs)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
