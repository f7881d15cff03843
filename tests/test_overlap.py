"""``_blas._overlap``: two stages at once on one worker thread, with the
errors and the results of running them one after the other.

Above ``spectral.N_DENSE`` points ``sketch-regress`` runs the sketched fit
beside the full fit.  Every BLAS call still runs on one thread, so a record
is the same bytes as with the stages run in sequence, and no thread outlives
a run, whether it succeeds or fails.  ``spectral-report`` starts no thread.
"""

import json
import sys
import threading

import pytest

from opbounds import _blas, cli
from opbounds._blas import _overlap
from opbounds.errors import NumericError
from opbounds.spectral import N_DENSE

#: Every module that calls ``_overlap``, by the name it imported.
SITES = [
    module for name, module in sorted(sys.modules.items())
    if name.startswith("opbounds.") and getattr(module, "_overlap", None) is _overlap
    and name != "opbounds._blas"
]


def _sequential(first, second):
    return first(), second()


def _fail(message):
    def stage():
        raise ValueError(message)

    return stage


def test_overlap_returns_both_results():
    before = threading.active_count()
    assert _overlap(lambda: 1, lambda: "two") == (1, "two")
    assert threading.active_count() == before


def test_overlap_runs_second_on_another_thread():
    caller = threading.get_ident()
    first, second = _overlap(threading.get_ident, threading.get_ident)
    assert first == caller != second


@pytest.mark.parametrize("first, second, message", [
    (_fail("first"), _fail("second"), "first"),
    (lambda: None, _fail("second"), "second"),
    (_fail("first"), lambda: None, "first"),
])
def test_overlap_raises_the_sequential_error(first, second, message):
    before = threading.active_count()
    with pytest.raises(ValueError, match=f"^{message}$"):
        _overlap(first, second)
    assert threading.active_count() == before


def test_overlap_joins_second_before_raising_first():
    # the caller's error waits for the worker: nothing runs on after it
    done = threading.Event()

    def slow():
        done.wait(0.05)
        done.set()

    with pytest.raises(ValueError):
        _overlap(_fail("first"), slow)
    assert done.is_set()


def _sketch_regress(loss):
    config = {
        "seed": 5,
        "dataset": {"kind": "synthetic", "n": 300, "d": 2, "m": 2, "noise": 0.1},
        "kernel": {"family": "matern", "bandwidth": 1.0, "smoothness": 1.5},
        "loss": {"family": "squared"},
        "fit": {"lambda_n": 0.05},
        "sketch": {"rows": 40, "p": 0.5, "dist": "rademacher"},
        "emit_coefficients": True,
    }
    if loss == "pinball":
        config["loss"] = {"family": "pinball", "quantiles": [0.25, 0.75]}
        config["fit"] = {"lambda_n": 0.05, "max_iters": 5}
    return config


SPECTRAL_300 = {
    "seed": 7,
    "dataset": {"kind": "synthetic", "n": 300, "d": 2},
    "kernel": {"family": "matern", "bandwidth": 1.0, "smoothness": 1.5},
    "sketch": {"rows": 40, "p": 0.5, "dist": "rademacher"},
}


def test_every_overlap_site_is_patched():
    assert {module.__name__ for module in SITES} == {"opbounds.cli"}


# one overlap per run: the sketched fit beside the full fit
@pytest.mark.parametrize("loss", ["squared", "pinball"])
def test_records_match_the_sequential_run(loss, monkeypatch, tmp_path):
    config, calls = _sketch_regress(loss), []

    def counted(first, second):
        calls.append(first)
        return _overlap(first, second)

    before = threading.active_count()
    records = []
    for overlap in (counted, _sequential):
        for module in SITES:
            monkeypatch.setattr(module, "_overlap", overlap)
        records.append(cli.render_record(cli.run("sketch-regress", config, None, tmp_path), "json"))
    assert len(calls) == 1
    assert threading.active_count() == before
    assert records[0] == records[1]


def test_spectral_report_above_n_dense_starts_no_thread(monkeypatch, tmp_path):
    assert SPECTRAL_300["dataset"]["n"] > N_DENSE
    calls, starts, start = [], [], threading.Thread.start

    def counted(first, second):
        calls.append(first)
        return _overlap(first, second)

    def counted_start(thread):
        starts.append(thread.name)
        return start(thread)

    for module in [_blas, *SITES]:
        monkeypatch.setattr(module, "_overlap", counted)
    monkeypatch.setattr(threading.Thread, "start", counted_start)
    before = threading.active_count()
    cli.run("spectral-report", SPECTRAL_300, None, tmp_path)
    assert calls == [] and starts == []
    assert threading.active_count() == before


def test_failing_sketched_fit_writes_nothing_and_leaves_no_thread(monkeypatch, tmp_path):
    # the sketched fit fails on the worker while the full fit succeeds on the
    # caller: the run reports the worker's error and writes no record
    def failing_fit(*args, **kwargs):
        raise NumericError("sketched fit failed")

    monkeypatch.setattr(cli, "fit_sketched", failing_fit)
    path, out = tmp_path / "config.json", tmp_path / "out.json"
    path.write_text(json.dumps(_sketch_regress("squared")))
    before = threading.active_count()
    assert cli.main(["sketch-regress", "--config", str(path), "--out", str(out)]) == 2
    assert threading.active_count() == before
    assert not out.exists()
