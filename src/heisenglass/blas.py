"""One fixed BLAS thread count for every run of the package.

Every eigenstate sample is dense algebra on its spin blocks' (dim, d)
eigenvector arrays, and OpenBLAS sums in another order at another thread
count, so the count is part of what fixes the output bytes.  The package
sets it once at import, to the constant ``THREADS``, never to the host's
core count: ``cli.main``, library callers and worker processes (forked
ones inherit the setting, spawned ones import the package) then all
compute with it, whatever ``OPENBLAS_NUM_THREADS`` says.  One thread is
also the cheaper count here: a second OpenBLAS thread spins through the
single-threaded stages between BLAS calls, and with several worker
processes it oversubscribes the cores.  Use ``--workers`` for throughput.
"""

from __future__ import annotations

import ctypes

THREADS = 1

# OpenBLAS thread-count setters, in lookup order: numpy 2.x wheels
# (scipy-openblas, 64-bit ints), numpy 1.x wheels, then a plain OpenBLAS.
SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads")


def _numpy_library() -> ctypes.CDLL:
    """numpy's core extension; dlsym on its handle also searches the BLAS it links."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    return ctypes.CDLL(_multiarray_umath.__file__)


def pin_threads() -> int | None:
    """Set the thread count of the BLAS numpy loaded to ``THREADS``; return it, or None if it could not.

    The first of ``SETTERS`` that the library numpy loaded exports is
    called; no other BLAS library is loaded.  A numpy built on MKL or
    Accelerate exports none of them: then nothing is set, None is
    returned, and runs go on with that library's own thread count, so
    their output bytes may depend on the host.
    """
    try:
        lib = _numpy_library()
    except OSError:
        return None
    for name in SETTERS:
        try:
            setter = getattr(lib, name)
        except AttributeError:
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(THREADS)
        return THREADS
    return None
