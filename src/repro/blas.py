"""OpenBLAS thread control for pool processes.

numpy's bundled OpenBLAS starts one thread per core in every process, so
a pool of N workers on an N-core host runs N x N BLAS threads and loses
more to oversubscription than the pool gains. Pool initializers call
:func:`pin_blas_threads` so that processes x threads stays within the
host. The library is found the way numpy loaded it — through the
process's memory map — and driven through ctypes; when no OpenBLAS
exporting the symbols is loaded, both functions do nothing.
"""

from __future__ import annotations

import ctypes
from typing import Optional, Sequence

import numpy  # noqa: F401  (loads the bundled OpenBLAS into the process)

__all__ = ["blas_threads", "pin_blas_threads"]

_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _openblas_function(names: Sequence[str]):
    """The first of ``names`` exported by an OpenBLAS this process loaded."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as handle:
            libraries = sorted(
                {
                    line.split()[-1]
                    for line in handle
                    if "openblas" in line.lower()
                }
            )
    except OSError:
        return None
    for path in libraries:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            function = getattr(library, name, None)
            if function is not None:
                return function
    return None


def blas_threads() -> Optional[int]:
    """This process's OpenBLAS thread count (``None`` without a getter)."""
    getter = _openblas_function(_GETTERS)
    if getter is None:
        return None
    getter.restype = ctypes.c_int
    getter.argtypes = []
    return int(getter())


def pin_blas_threads(count: int) -> None:
    """Run this process's OpenBLAS on ``count`` threads (no-op without a
    setter)."""
    setter = _openblas_function(_SETTERS)
    if setter is not None:
        setter.restype = None
        setter.argtypes = [ctypes.c_int]
        setter(int(count))
