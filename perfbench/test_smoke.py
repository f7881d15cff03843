"""Smoke test of the benchmark: every workload at toy sizes, both modes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import opbounds
from opbounds import cli
from perfbench import layers, workloads
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = {"setup_s": "s", "run_cal": "cal", "peak_mem_mb": "MB"}
#: Printed with the end-to-end metrics, not part of the JSON result.
RAW = {"run_s": "s", "cal_s": "s"}


def _bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    lines, result = _bench(workload, trace)
    want = layers.METRICS if trace else END_TO_END
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in (want if trace else {**want, **RAW}).items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines), name
    frac = next(line.split() for line in lines if line.split()[:1] == ["fail_frac"])
    assert float(frac[1]) == 0.0


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workloads.WHY[name]["why"] for name in workloads.NAMES
    }
    for name in workloads.NAMES:
        assert set(workloads.WHY[name]["moves"]) <= set(layers.METRICS), name


def test_tracer_restores_every_wrapped_function():
    name = "sketch-pinball"
    cfg = workloads.config(name, workloads.REFERENCE_SEED, tiny=True)
    before = Tracer.snapshot(opbounds)
    tracer = Tracer()
    tracer.install(opbounds)
    try:
        assert Tracer.snapshot(opbounds) != before
        text = cli.render_record(cli.run(workloads.subcommand(name), cfg, None, ROOT), "json")
    finally:
        tracer.uninstall()
    assert Tracer.snapshot(opbounds) == before
    assert tracer.calls()["losses.loss_value"] > 0 and tracer.spans
    plain = cli.render_record(cli.run(workloads.subcommand(name), cfg, None, ROOT), "json")
    assert plain == text
