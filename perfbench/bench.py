"""Benchmark runner: times the opbounds CLI in process and checks its records.

Import this only through ``run.py``, which pins BLAS to one thread before
numpy is loaded and puts the checkout's ``src`` first on ``sys.path``.

One run measures one workload (see ``workloads.py``):

``--trace 0``
    ``setup_s``: median over fresh interpreters of the time to import
    ``opbounds.cli``.  ``run_cal``: median over a panel of instances, whose
    master seeds derive from ``--seed``, of the wall time of ``cli.run`` plus
    ``render_record`` divided by the mean time of the :class:`Calibration`
    run just before and just after it; the panel is timed for ``--seconds``
    after a warm-up run.  ``run_s``, the median wall time itself, is printed
    too but is not a metric of the JSON result: on a shared host it moves with
    the neighbours' load.  ``peak_mem_mb``: tracemalloc peak of the untimed
    reference run.
``--trace 1``
    Instance 0 is run alternately untraced and traced for ``--seconds``; the
    per-layer metrics of ``layers.py`` are medians over the traced passes, and
    ``trace.overhead_s`` is the traced minus the untraced median.  The spans
    of the last traced pass are written to ``perfbench/out/``.

Every run also runs the reference instance in process and once through
``python -m opbounds``, and checks both records (see ``checks.py``).  Runs
that raise or fail a check count in ``failed``; ``fail_frac`` is
``failed / attempted``.  It is printed with the other metrics but is not a
metric of the JSON result, which carries ``attempted`` and ``failed`` instead
(its metrics must never be 0).  The last line of standard output is the JSON
result; a fuller record of the run goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

import opbounds
from opbounds import cli

from . import BLAS_VARS, checks, layers, workloads
from .tracer import Tracer

END_TO_END = {"setup_s": "s", "run_cal": "cal", "peak_mem_mb": "MB"}
#: Printed with the end-to-end metrics but not part of the JSON result.
END_TO_END_RAW = {"run_s": "s", "cal_s": "s"}

#: Fresh interpreters timed for ``setup_s`` before and again after the panel
#: (full size, tiny size), so that the median samples two moments of the run.
SETUP_REPS = (2, 1)

_SUBPROCESS_TIMEOUT = 150.0

_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import opbounds.cli; "
    "print(time.perf_counter() - t)"
)


class Tally:
    """Runs attempted and failed, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, what: str, errors: list[str]) -> bool:
        """Count one run; it fails if ``errors`` is nonempty."""
        self.attempted += 1
        if errors:
            self.failures.append(f"{what}: " + "; ".join(errors))
            print(f"perfbench: FAILED {what}: {errors}", file=sys.stderr)
        return not errors

    def crashed(self, what: str) -> None:
        self.attempted += 1
        self.failures.append(f"{what}: raised")
        print(f"perfbench: FAILED {what}:\n{traceback.format_exc()}", file=sys.stderr)


class Calibration:
    """A fixed computation owned by the benchmark, timed around every run.

    The host this benchmark was built on has slow phases lasting tens of
    seconds in which everything runs up to twice as slow.  They move the wall
    time of a run but hardly its ratio to this computation timed next to it:
    interpreter bytecode, a pass over an 8 MB array, and small BLAS products,
    about 15 ms on that host.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._big = rng.standard_normal(1_000_000)
        self._buf = np.empty_like(self._big)
        self._mat = rng.standard_normal((250, 250))

    def __call__(self) -> float:
        gc.collect()
        start = time.perf_counter()
        acc = 0
        for i in range(40_000):
            acc += i * i % 7
        for _ in range(3):
            np.exp(-self._big * self._big, out=self._buf)
        for _ in range(3):
            self._mat @ self._mat
        return time.perf_counter() - start


class Bench:
    def __init__(self, root: Path, workload: str, tiny: bool) -> None:
        self.root = root
        self.workload = workload
        self.tiny = tiny
        self.sub = workloads.subcommand(workload)
        self.out = root / "perfbench" / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.tally = Tally()
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    # -- one in-process run -------------------------------------------------

    def run_once(self, cfg: dict) -> tuple[str, float]:
        """Rendered record and wall seconds of ``cli.run`` + ``render_record``."""
        gc.collect()
        start = time.perf_counter()
        record = cli.run(self.sub, cfg, None, self.out)
        text = cli.render_record(record, "json")
        return text, time.perf_counter() - start

    def checked(self, what: str, cfg: dict, expect: str | None = None):
        """Run ``cfg`` once and count it; returns (text, seconds) or None."""
        try:
            text, seconds = self.run_once(cfg)
        except Exception:
            self.tally.crashed(what)
            return None
        errors = checks.invariants(json.loads(text))
        if expect is not None and text != expect:
            errors.append("record bytes differ from an earlier run of the same config")
        self.tally.check(what, errors)
        return text, seconds

    # -- subprocesses -------------------------------------------------------

    def _python(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=_SUBPROCESS_TIMEOUT,
            check=True,
        )

    def setup_seconds(self) -> list[float]:
        reps = SETUP_REPS[1] if self.tiny else SETUP_REPS[0]
        return [float(self._python(["-c", _IMPORT_TIMER]).stdout) for _ in range(reps)]

    def import_scipy_seconds(self) -> float:
        """Self time of every scipy module in ``-X importtime`` of the CLI."""
        err = self._python(["-X", "importtime", "-c", "import opbounds.cli"]).stderr
        micros = 0
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                name = parts[2].strip()
                if name == "scipy" or name.startswith("scipy."):
                    micros += int(parts[0].split(":")[1])
        return micros / 1e6

    def reference_check(self) -> tuple[str | None, float]:
        """Warm-up and checks on the reference instance, none of it timed.

        A tiny instance warms the code paths first.  Then the reference
        instance runs in process under tracemalloc while ``python -m
        opbounds`` runs it in a subprocess.  Returns the in-process record
        (None if it failed) and its tracemalloc peak in MB.
        """
        self.checked("warm-up", workloads.config(self.workload, workloads.REFERENCE_SEED, True))
        cfg = workloads.config(self.workload, workloads.REFERENCE_SEED, self.tiny)
        tag = f"{self.workload}-{os.getpid()}"
        cfg_path, out_path = self.out / f"cli-{tag}.config.json", self.out / f"cli-{tag}.out.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path.unlink(missing_ok=True)
        proc = subprocess.Popen(
            [sys.executable, "-m", "opbounds", self.sub,
             "--config", str(cfg_path), "--out", str(out_path)],
            cwd=self.root, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            tracemalloc.start()
            try:
                done = self.checked("reference instance", cfg)
                peak = tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()
            text = None
            if done is not None:
                text = done[0]
                want = checks.load_reference()["tiny" if self.tiny else "full"][self.workload]
                errors = checks.against_reference(json.loads(text), want)
                self.tally.check("reference values", errors)
            _, err = proc.communicate(timeout=_SUBPROCESS_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        errors = []
        if proc.returncode != 0:
            errors.append(f"exit code {proc.returncode}: {err.strip()[-500:]}")
        elif not out_path.is_file() or out_path.read_text() != text:
            errors.append("record of python -m opbounds differs from the in-process record")
        self.tally.check("python -m opbounds on the reference instance", errors)
        cfg_path.unlink(missing_ok=True)
        out_path.unlink(missing_ok=True)
        return text, peak

    # -- the two modes ------------------------------------------------------

    def end_to_end(self, seed: int, seconds: float) -> tuple[dict, dict]:
        setup = self.setup_seconds()
        text, peak_mb = self.reference_check()
        calibrate = Calibration()
        times, cals, ratios = [], [], []
        before = calibrate()
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            cfg = workloads.config(self.workload, workloads.instance_seed(seed, index), self.tiny)
            done = self.checked(f"panel instance {index}", cfg)
            after = calibrate()
            if done is not None:
                times.append(done[1])
                cals.append(after)
                ratios.append(done[1] / (0.5 * (before + after)))
            before = after
            index += 1
            if time.perf_counter() >= deadline or index >= workloads.PANEL_STRIDE:
                break
        setup += self.setup_seconds()
        metrics = {
            "setup_s": statistics.median(setup),
            "run_cal": statistics.median(ratios) if ratios else 0.0,
            "peak_mem_mb": peak_mb if text is not None else 0.0,
            "run_s": statistics.median(times) if times else 0.0,
            "cal_s": statistics.median(cals) if cals else 0.0,
        }
        return metrics, {"setup_s": setup, "run_cal": ratios, "run_s": times, "cal_s": cals}

    def per_layer(self, seed: int, seconds: float) -> tuple[dict, dict]:
        scipy_s = self.import_scipy_seconds()
        self.reference_check()
        cfg = workloads.config(self.workload, workloads.instance_seed(seed, 0), self.tiny)
        plain, traced, runs = [], [], []
        first_text = None
        last_ok = None
        deadline = time.perf_counter() + seconds
        while True:
            done = self.checked("untraced instance 0", cfg, expect=first_text)
            if done is not None:
                first_text = first_text or done[0]
                plain.append(done[1])
            tracer = Tracer()
            before = Tracer.snapshot(opbounds)
            try:
                tracer.install(opbounds)
                try:
                    text, elapsed = self.run_once(cfg)
                finally:
                    tracer.uninstall()
            except Exception:
                self.tally.crashed("traced instance 0")
            else:
                values = layers.layer_metrics(tracer, elapsed)
                errors = checks.invariants(json.loads(text))
                if first_text is not None and text != first_text:
                    errors.append("tracing changed the record bytes")
                if Tracer.snapshot(opbounds) != before:
                    errors.append("tracer left wrapped functions in place")
                if runs and any(values[k] != runs[0][k] for k in layers.COUNTS):
                    errors.append("per-layer counts differ between traced passes")
                if self.tally.check("traced instance 0", errors):
                    traced.append(elapsed)
                    runs.append(values)
                    last_ok = tracer
            if time.perf_counter() >= deadline:
                break
        metrics = {}
        for name in layers.METRICS:
            if name not in layers.FROM_RUNNER:
                metrics[name] = statistics.median(r[name] for r in runs) if runs else 0.0
        metrics["cli.import_scipy_s"] = scipy_s
        metrics["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(plain) if traced and plain else 0.0
        )
        samples = {"untraced_s": plain, "traced_s": traced}
        if last_ok is not None:
            last_ok.dump(
                self.out / f"trace-{self.workload}-seed{seed}.json",
                {"workload": self.workload, "seed": seed, "metrics": metrics,
                 "seconds": layers.group_seconds(last_ok)},
            )
        return metrics, samples


def metadata() -> dict:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 prints its config and takes no mode
        blas = {}
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "threads": {var: os.environ.get(var) for var in (*BLAS_VARS, "OPBOUNDS_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="toy sizes, for the smoke test")
    parser.add_argument(
        "--write-reference", action="store_true",
        help="recompute perfbench/reference.json from the reference instances and exit",
    )
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    return args


def write_reference(root: Path) -> int:
    payload = {}
    for size, tiny in (("full", False), ("tiny", True)):
        payload[size] = {}
        for name in workloads.NAMES:
            bench = Bench(root, name, tiny)
            text, _ = bench.run_once(workloads.config(name, workloads.REFERENCE_SEED, tiny))
            payload[size][name] = checks.reference_values(json.loads(text))
    checks.REFERENCE_FILE.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {checks.REFERENCE_FILE}")
    return 0


def main(argv, root: Path) -> int:
    args = _parse(argv)
    src = (root / "src").resolve()
    if src not in Path(opbounds.__file__).resolve().parents:
        print(f"perfbench: opbounds imported from {opbounds.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference(root)
    bench = Bench(root, args.workload, args.tiny)
    if args.trace:
        metrics, samples = bench.per_layer(args.seed, args.seconds)
        units, printed = layers.METRICS, layers.METRICS
    else:
        metrics, samples = bench.end_to_end(args.seed, args.seconds)
        units, printed = END_TO_END, {**END_TO_END, **END_TO_END_RAW}
    tally = bench.tally
    meta = metadata()
    fail_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{meta['nproc']} CPUs, BLAS threads {meta['threads']['OPENBLAS_NUM_THREADS']}, "
          f"{meta['blas']}, numpy {meta['numpy']}, scipy {meta['scipy']}")
    for name, unit in printed.items():
        line = f"  {name:<30} {metrics[name]:.6g} {unit}"
        runs = samples.get(name)
        if runs:
            q = statistics.quantiles(runs, n=4) if len(runs) > 1 else [runs[0]] * 3
            line += f"  (median of {len(runs)}, quartiles {q[0]:.4g}..{q[2]:.4g}"
            if len(runs) >= 20:
                # highest percentile with at least ten samples above it
                k = int(100 * (1 - 10 / len(runs)))
                line += f", p{k} {statistics.quantiles(runs, n=100)[k - 1]:.4g}"
            line += ")"
        print(line)
    print(f"  {'fail_frac':<30} {fail_frac:.6g} 1  ({tally.failed} of {tally.attempted} runs)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny, "fail_frac": fail_frac, "samples": samples,
              "expected": workloads.WHY[args.workload],
              "failures": tally.failures, "metadata": meta}
    suffix = "-tiny" if args.tiny else ""
    (bench.out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1
