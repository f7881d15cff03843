"""Console entry point.

BLAS pools are pinned to one thread before numpy loads, over any caller
setting, so that results are bitwise identical regardless of OPBOUNDS_THREADS
(the variable is an upper cap on parallelism; all reductions in the library
are fixed-order, and level-3 BLAS is conservatively kept single-threaded
during result computation).
"""

import os
import sys


def _pin_threads() -> None:
    cap = os.environ.get("OPBOUNDS_THREADS", "").strip()
    if cap:
        try:
            if int(cap) < 0:
                raise ValueError
        except ValueError:
            print("OPBOUNDS_THREADS must be a nonnegative integer", file=sys.stderr)
            raise SystemExit(2) from None
    for var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = "1"


def main(argv=None) -> int:
    _pin_threads()
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
