"""Every OpenBLAS in the process on one thread for the length of a run, and the
one accessor of scipy's LAPACK.

A GEMM split across BLAS threads sums in another order, and so does a blocked
LAPACK routine built on it (``dsytrd``, ``dormqr``), so record bytes would
depend on the caller's thread settings.  numpy's and scipy's wheels each
bundle an OpenBLAS.  The copies loaded when a run first pins are found, by
their paths in ``/proc/self/maps`` and their thread-count functions, and
cached.

numpy's copy is always among them.  scipy's copy runs the tridiagonal
eigensolver of ``spectral`` (``dsytrd``, ``dsterf``, ``dstebz``, ``dstein``,
``dormqr``, ``dptsv``), which the library reaches only through
:func:`lapack`.  That accessor imports ``scipy.linalg.lapack`` on first use
and then scans ``/proc/self/maps`` once more, so scipy's copy joins the cached
ones whether that import or an earlier one (``scipy.special`` for ``kv``)
loaded it; inside a run it is pinned at once and restored when the run ends.
``kv``, ``gamma`` and ``quad``, the library's other scipy calls, make no BLAS
calls.  The thread count is process-wide, so runs in concurrent threads share
it.
"""

import ctypes
import functools
import os
import warnings
from contextlib import contextmanager

# (get, set) symbols of scipy-openblas wheels (numpy's with a 64_ suffix) and
# of a system OpenBLAS
_SYMBOLS = [
    (f"{name}_get_num_threads{suffix}", f"{name}_set_num_threads{suffix}")
    for name in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]

#: Path -> (get, set) pairs of every OpenBLAS found so far; None before the
#: first scan.
_found: dict | None = None

#: (set, count before the run) of each copy that the run in progress pinned;
#: None outside a run.
_pinned: list | None = None


def _scan(known) -> dict:
    """Path -> (get, set) thread-count functions of each OpenBLAS loaded now
    whose path is not in ``known``."""
    try:
        with open("/proc/self/maps") as fh:
            rows = [line.split(None, 5) for line in fh]
    except OSError:
        return {}
    paths = {row[5].strip() for row in rows if len(row) > 5 and "openblas" in row[5]}
    found = {}
    for path in sorted(paths - set(known)):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        pairs = [(getattr(lib, g), getattr(lib, s)) for g, s in _SYMBOLS if hasattr(lib, g)]
        if pairs:
            found[path] = pairs
    return found


def _openblas() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS found: those loaded
    at the first call, and those found when :func:`lapack` first ran."""
    global _found
    if _found is None:
        _found = _scan(())
    return tuple(pair for pairs in _found.values() for pair in pairs)


def _pin(libs) -> None:
    for get, set_threads in libs:
        _pinned.append((set_threads, get()))
        set_threads(1)


@functools.cache
def lapack():
    """``scipy.linalg.lapack``, imported on first use.  The OpenBLAS copies
    loaded by then that no earlier scan found are cached with the others,
    and pinned at once inside a run."""
    from scipy.linalg import lapack as module

    if _found is not None:
        new = _scan(_found)
        _found.update(new)
        if _pinned is not None:
            _pin(pair for pairs in new.values() for pair in pairs)
    return module


@contextmanager
def single_blas_thread():
    """Run the body with every OpenBLAS on one thread, then restore each count."""
    global _pinned
    libs = _openblas()
    if not libs:
        warnings.warn("no OpenBLAS found to pin to one thread; record bytes may "
                      "depend on the BLAS thread count", RuntimeWarning)
    outer, _pinned = _pinned, []
    try:
        _pin(libs)
        yield
    finally:
        for set_threads, count in reversed(_pinned):
            set_threads(count)
        _pinned = outer
