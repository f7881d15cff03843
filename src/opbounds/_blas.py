"""Every OpenBLAS in the process on one thread for the length of a run.

A GEMM split across BLAS threads sums in another order, and so does any
LAPACK routine built on it, so record bytes would depend on the caller's
thread settings.  numpy's and scipy's wheels each bundle an OpenBLAS.  The
copies loaded when a run first pins are found, by their paths in
``/proc/self/maps`` and their thread-count functions, and cached.

numpy's copy is always among them, and it makes every BLAS and LAPACK call of
the library.  scipy loads only for ``kv`` and ``gamma`` (``scipy.special``,
for a Matern smoothness without a closed form), which make no BLAS calls, so
a copy that scipy loads after the first pin needs none.  The thread count is
process-wide, so runs in concurrent threads share it, and so does the one
worker thread of :func:`_overlap`: each BLAS call it makes still runs on one
thread, in the order of its own caller, and record bytes do not depend on
which stage finishes first.

:func:`_overlap` has two callers, each for a Gram of more than
``spectral.N_DENSE`` points: ``spectral.eigendecompose_scaled_gram`` runs the
PSD verdict beside the first Lanczos run, and ``cli._run_sketch_regress`` the
sketched fit beside the full fit.  Neither calls the other inside a stage, so
at most one worker is alive at a time.
"""

import ctypes
import functools
import os
import threading
import warnings
from contextlib import contextmanager

# (get, set) symbols of scipy-openblas wheels (numpy's with a 64_ suffix) and
# of a system OpenBLAS
_SYMBOLS = [
    (f"{name}_get_num_threads{suffix}", f"{name}_set_num_threads{suffix}")
    for name in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]


@functools.cache
def _openblas() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS loaded at the first
    call."""
    try:
        with open("/proc/self/maps") as fh:
            rows = [line.split(None, 5) for line in fh]
    except OSError:
        return ()
    paths = {row[5].strip() for row in rows if len(row) > 5 and "openblas" in row[5]}
    pairs = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        pairs += [(getattr(lib, g), getattr(lib, s)) for g, s in _SYMBOLS if hasattr(lib, g)]
    return tuple(pairs)


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
    n x n Gram can run on two cores at once."""
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
