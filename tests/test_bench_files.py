"""Consistency of the benchmark trajectory files ``BENCH_<pr>.json``.

Each file at the root of the repository records alternating parent/change
runs of ``perfbench/run.py`` on every workload that ``BENCHMARK.json``
declares.  Here every file is checked against itself and against that
declaration: the workload names, the seeds of its pairs, the alternation of
the side that ran first, the verdict of every run, and the medians it reports.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))
METRICS = ("run_cal", "run_s", "cal_s", "setup_s", "peak_mem_mb")
SIDES = ("parent", "change")


def _declared_workloads() -> set[str]:
    return {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}


def test_trajectory_files_exist():
    assert FILES, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_trajectory_file_is_consistent(path):
    bench = json.loads(path.read_text())
    workloads = bench["workloads"]
    assert set(workloads) == _declared_workloads()
    for name, entry in workloads.items():
        pairs = entry["pairs"]
        assert pairs, name
        assert entry["seeds"] == [pair["seed"] for pair in pairs], name
        firsts = [pair["first"] for pair in pairs]
        assert set(firsts) <= set(SIDES), (name, firsts)
        assert all(a != b for a, b in zip(firsts, firsts[1:])), (name, firsts)
        for pair in pairs:
            for side in SIDES:
                run = pair[side]
                assert run["correct"] is True and run["failed"] == 0, (name, pair["seed"], side)
        for side in SIDES:
            for metric in METRICS:
                values = [pair[side][metric] for pair in pairs]
                assert entry["medians"][side][metric] == statistics.median(values), (
                    name, side, metric,
                )
