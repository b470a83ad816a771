"""What a benchmark result records about the machine and the code it ran on."""
from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None when it is not found.

    Loading the library again returns the handle numpy already holds, so this
    reads the live setting of the calling process.
    """
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas64_*.so"))
    if not libs:
        return None
    try:
        fn = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        return None
    fn.argtypes = []
    fn.restype = ctypes.c_int
    return int(fn())


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256(src: Path) -> str:
    """Hash of every .py file under the package sources, by relative path."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine(root: Path, src: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": git_commit(root),
        "source_sha256": source_sha256(src),
    }
