"""Benchmark of the opbounds CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sketch-pinball --seed 1 --seconds 15 --trace 0

BLAS is pinned to one thread here, before numpy is imported, and the
checkout's ``src`` is put first on ``sys.path``; the work is in ``bench.py``.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    if not (ROOT / "src" / "opbounds" / "__init__.py").is_file():
        print(f"perfbench: no src/opbounds in {ROOT}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import BLAS_VARS

    for var in BLAS_VARS:
        os.environ[var] = "1"
    from perfbench import bench

    return bench.main(argv, ROOT)


if __name__ == "__main__":
    raise SystemExit(main())
