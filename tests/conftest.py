"""Fixtures shared by the test modules, and the BLAS thread count.

pytest loads this file before it imports any test module, so numpy has
not loaded yet: unless THREADS or one of the BLAS variables below is
set, BLAS runs on one thread, in this process and in the subprocesses
the tests start.  The lattice tests multiply many small matrices, which
the default thread pool stalls (see THREADS in the README).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(os.environ.get(name) for name in ("THREADS", *BLAS_THREAD_VARIABLES)):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))

TESTS = Path(__file__).resolve().parent


@pytest.fixture
def run_optimized():
    """Run one test of this directory, given as ``file::name``, in a fresh
    ``python -O`` interpreter, where assert statements are stripped, and
    require it to pass.  A check the library relies on must survive that."""

    def run(test_id: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(TESTS.parent / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", test_id],
            cwd=TESTS,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "1 passed" in proc.stdout

    return run
