"""Let the tests run from a checkout without installing the package, and
fail a test that leaves a worker thread of ``_blas._overlap`` alive.

``pyproject.toml`` puts ``src`` on the test process's own import path; the
tests that start ``python -m opbounds`` or ``python -c`` subprocesses need it
in ``PYTHONPATH`` as well, so it is prepended here.
"""

import os
import threading
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
)


@pytest.fixture(autouse=True)
def no_overlap_thread_left():
    """``_overlap`` joins its worker before it returns or raises, so none may
    outlive the test that started it."""
    yield
    alive = [t for t in threading.enumerate() if t.name == "opbounds-overlap"]
    if alive:
        pytest.fail(f"{len(alive)} opbounds-overlap thread(s) left alive")
