"""Every OpenBLAS in the process on one thread for the length of a run, and
the Gram's symmetric products through numpy's OpenBLAS ``dsymv``.

A GEMM split across BLAS threads sums in another order, and so does any
LAPACK routine built on it, so record bytes would depend on the caller's
thread settings.  numpy's and scipy's wheels each bundle an OpenBLAS.  The
copies loaded when a run first pins are found, by their paths in
``/proc/self/maps`` and their thread-count functions, and cached.

numpy's copy is always among them, and it makes every BLAS and LAPACK call of
the library.  scipy loads only for ``kv`` and ``gamma`` (``scipy.special``,
for a Matern smoothness without a closed form), which make no BLAS calls, so
a copy that scipy loads after the first pin needs none.  The thread count is
process-wide, so runs in concurrent threads share it, and so does the worker
thread of :func:`_overlap`, whose one caller is ``cli._run_sketch_regress``:
each BLAS call there still runs on one thread, in its caller's order, and
record bytes do not depend on which stage finishes first.

The same scan of the loaded copies finds numpy's ``cblas_dsymv``
(``scipy_cblas_dsymv64_`` in its ILP64 scipy-openblas wheel), looked up at
the first product and cached.  :func:`_symmetric_rows` multiplies rows by a
symmetric Gram through it, reading one triangle where a GEMV or GEMM reads
the whole matrix; ``spectral``'s Lanczos steps and deflated CG, which run
only above ``spectral.N_DENSE`` points, are its callers.  Where no loaded
OpenBLAS exports the routine (numpy on another BLAS, or no
``/proc/self/maps``), the product is ``rows @ g``.  The two branches sum in
another order, so records above N_DENSE points differ between them by
round-off.
"""

import ctypes
import functools
import os
import threading
import warnings
from contextlib import contextmanager

import numpy as np

# (get, set) symbols of scipy-openblas wheels (numpy's with a 64_ suffix) and
# of a system OpenBLAS
_SYMBOLS = [
    (f"{name}_get_num_threads{suffix}", f"{name}_set_num_threads{suffix}")
    for name in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]


@functools.cache
def _libraries() -> tuple:
    """Each OpenBLAS loaded at the first call, as a ``ctypes`` library."""
    try:
        with open("/proc/self/maps") as fh:
            rows = [line.split(None, 5) for line in fh]
    except OSError:
        return ()
    paths = {row[5].strip() for row in rows if len(row) > 5 and "openblas" in row[5]}
    libs = []
    for path in sorted(paths):
        try:
            libs.append(ctypes.CDLL(path, mode=os.RTLD_NOLOAD))
        except OSError:
            continue
    return tuple(libs)


@functools.cache
def _openblas() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS loaded at the first
    call."""
    return tuple(
        (getattr(lib, g), getattr(lib, s)) for lib in _libraries() for g, s in _SYMBOLS
        if hasattr(lib, g)
    )


#: cblas_dsymv of numpy's ILP64 scipy-openblas, and the CBLAS enums it takes
_DSYMV = "scipy_cblas_dsymv64_"
_ROW_MAJOR, _UPPER = 101, 121


@functools.cache
def _dsymv():
    """numpy's ``cblas_dsymv`` with its argument types declared, or None when
    no loaded OpenBLAS exports it (numpy on another BLAS, or no
    ``/proc/self/maps``)."""
    for lib in _libraries():
        if hasattr(lib, _DSYMV):
            symv = getattr(lib, _DSYMV)
            i64, ptr = ctypes.c_int64, ctypes.c_void_p
            symv.argtypes = [ctypes.c_int, ctypes.c_int, i64, ctypes.c_double, ptr, i64,
                             ptr, i64, ctypes.c_double, ptr, i64]
            symv.restype = None
            return symv
    return None


def _symmetric_rows(rows, g):
    """``rows @ g`` for the symmetric n x n Gram g (C-contiguous float64) and
    a 1-D or 2-D ``rows`` whose last dimension is n, by one Level-2 BLAS
    ``dsymv`` per row (Dongarra, Du Croz, Hammarling & Hanson 1988), which
    reads only g's upper triangle and uses each entry twice: on one OpenBLAS
    thread at n = 1,500 a product with one row took 0.37 against 0.63 ms for
    the GEMV, and three rows 1.1 against 1.5 ms for the GEMM.  It sums in
    another order than the GEMM, so it agrees with ``rows @ g`` to round-off;
    where numpy's OpenBLAS does not export the routine it is ``rows @ g``."""
    if not (g.ndim == 2 and g.shape[0] == g.shape[1] and g.dtype == np.float64
            and g.flags.c_contiguous):
        raise ValueError(f"need a square C-contiguous float64 matrix, got {g.dtype} {g.shape}")
    n = g.shape[0]
    x = np.ascontiguousarray(rows, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise ValueError(f"rows of shape {x.shape} do not match a Gram of {n} points")
    symv = _dsymv()
    if symv is None:
        return rows @ g
    out = np.empty(x.shape)
    a, xs, ys = g.ctypes.data, x.ctypes.data, out.ctypes.data  # x and out stay referenced
    for offset in range(0, x.nbytes, 8 * n):
        symv(_ROW_MAJOR, _UPPER, n, 1.0, a, n, xs + offset, 1, 0.0, ys + offset, 1)
    return out


@contextmanager
def single_blas_thread():
    """Run the body with every OpenBLAS on one thread, then restore each count."""
    libs = _openblas()
    if not libs:
        warnings.warn("no OpenBLAS found to pin to one thread; record bytes may "
                      "depend on the BLAS thread count", RuntimeWarning)
    pinned = []
    try:
        for get, set_threads in libs:
            pinned.append((set_threads, get()))
            set_threads(1)
        yield
    finally:
        for set_threads, count in reversed(pinned):
            set_threads(count)


def _overlap(first, second):
    """(first(), second()), with ``second`` on one worker thread while
    ``first`` runs on the caller; the worker is always joined.  Raises
    ``first``'s exception if it raised, else ``second``'s: for callables
    that touch no shared state, the error of ``first(); second()``.  numpy
    releases the GIL in BLAS and LAPACK, so two stages that each stream an
    n x n Gram can run on two cores at once.  Over 16 alternating rounds of
    8 ``sketch-squared-large`` instances (seeds 7000-7007, one BLAS thread,
    a 2-vCPU host) the median of the round medians was 105.7 ms against
    130.7 ms in sequence with a second core free (a two-GEMM-thread probe
    read 1.02-1.55) and 121.1 against 119.6 ms with none (2.01-2.16);
    records were byte-equal and the tracemalloc peak 22.94 MB either way."""
    outcome = {}

    def work():
        try:
            outcome["value"] = second()
        except BaseException as exc:  # re-raised on the caller
            outcome["error"] = exc

    worker = threading.Thread(target=work, name="opbounds-overlap")
    worker.start()
    try:
        head = first()
    finally:
        worker.join()
    if "error" in outcome:
        raise outcome.pop("error")
    return head, outcome["value"]
