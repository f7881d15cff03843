"""Benchmark of the opbounds CLI; run ``python3 perfbench/run.py --help``."""

#: Thread-count variables pinned to 1 before numpy is first imported.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
