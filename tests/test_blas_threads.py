"""The BLAS thread count of a process that imports ``cvpe``.

Importing ``cvpe`` runs numpy's OpenBLAS on one thread, and ``--jobs``
workers, forked from such a process, inherit it.  The check runs in a new
interpreter, with the thread variables removed, so that neither the test
process's own imports nor the environment decide the count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Finds numpy's OpenBLAS among the libraries mapped into the process and
# prints the thread count it reports after ``import cvpe``, then the count a
# ProcessPoolExecutor worker reports, or "skip" when no library or getter
# symbol is found.
_THREADS = """
import ctypes, sys
from concurrent.futures import ProcessPoolExecutor
import numpy
import cvpe

GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
           "openblas_get_num_threads")
try:
    with open("/proc/self/maps") as maps:
        paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
except OSError:
    paths = set()
libs = [ctypes.CDLL(p) for p in sorted(paths) if "openblas" in p.rsplit("/", 1)[-1]]
getters = [getattr(lib, name) for lib in libs for name in GETTERS if hasattr(lib, name)]
if not getters:
    print("skip")
    sys.exit(0)
get = getters[0]
get.restype = ctypes.c_int

def worker_threads():
    return get()

print(get())
with ProcessPoolExecutor(max_workers=1) as pool:
    print(pool.submit(worker_threads).result())
"""

_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS",
                     "MKL_NUM_THREADS")


def test_importing_cvpe_runs_numpys_openblas_on_one_thread():
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _THREADS], capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.split()
    if lines == ["skip"]:
        pytest.skip("no OpenBLAS thread-count symbol found in this numpy")
    assert lines == ["1", "1"], f"main process, pool worker: {lines}"
