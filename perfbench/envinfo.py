"""Record the environment a workload ran in and confirm the BLAS pin took.

``run.py`` sets ``OPENBLAS_NUM_THREADS=1`` before numpy is imported; this
module reads the thread count back through the bundled OpenBLAS libraries
of numpy and scipy (via ctypes), so a pin that silently failed shows up as
a failed check instead of a slow, noisy run.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

import numpy as np
import scipy

# (wheel library directory, file glob, symbol suffix) for the OpenBLAS
# builds bundled with the numpy and scipy wheels.
_BUNDLED_BLAS = (
    ("numpy.libs", "libscipy_openblas64_*.so*", "64_"),
    ("scipy.libs", "libscipy_openblas*.so*", ""),
)


def _blas_libraries() -> dict:
    """name -> (num_threads, config string) for each bundled OpenBLAS found."""
    site = Path(np.__file__).resolve().parent.parent
    found = {}
    for libdir, pattern, suffix in _BUNDLED_BLAS:
        for path in sorted(glob.glob(str(site / libdir / pattern))):
            lib = ctypes.CDLL(path)
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            get_config.argtypes = []
            get_config.restype = ctypes.c_char_p
            found[libdir] = (int(get_threads()), get_config().decode("ascii", "replace"))
    return found


def git_sha(root: Path) -> str | None:
    """HEAD commit read from the .git directory, or None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    blas = _blas_libraries()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": {name: cfg for name, (_, cfg) in blas.items()},
        "openblas_threads": {name: n for name, (n, _) in blas.items()},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
        "loadavg_start": list(os.getloadavg()),
    }


def blas_pinned(env: dict) -> bool:
    """True when at least one bundled OpenBLAS was found and all run 1 thread."""
    threads = env["openblas_threads"]
    return bool(threads) and all(n == 1 for n in threads.values())
