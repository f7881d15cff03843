"""Let the tests run from a checkout without installing the package.

``pyproject.toml`` puts ``src`` on the test process's own import path; the
tests that start ``python -m opbounds`` or ``python -c`` subprocesses need it
in ``PYTHONPATH`` as well, so it is prepended here.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
)
