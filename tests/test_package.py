import importlib
import inspect
import json
import pkgutil
import sys
from functools import cached_property

import numpy as np

import opbounds
from opbounds import cli


def test_every_exported_name_resolves():
    # names load lazily, so a stale export fails only when someone reads it
    for name in opbounds.__all__:
        obj = getattr(opbounds, name)
        assert obj.__module__ == f"opbounds.{opbounds._MODULE_OF[name]}", name


#: Public names that no run reaches, each kept for a reason of its own.
UNREACHED = {
    "spectral.pencil_max": "the benchmark's tracer times it as the pencil layer",
    "kernels.KernelExpansion.norm": "the one-shot RKHS norm the cached top norm is tested against",
    "data.write_csv": "writes the dataset CSV that read_csv reads; no run writes a dataset",
}


def _code(member):
    """The code object a call of ``member`` enters, or None for a non-function."""
    if isinstance(member, property):
        member = member.fget
    elif isinstance(member, cached_property):
        member = member.func
    elif isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    member = inspect.unwrap(member)
    return member.__code__ if inspect.isfunction(member) else None


def _cache_calls(member) -> int:
    """Calls so far of a ``functools.cache`` function, whose code only its
    first call in the process enters; 0 for any other member."""
    info = getattr(member, "cache_info", None)
    return info().hits + info().misses if info else 0


def _public_functions() -> dict:
    """Name -> member of every public module-level function and public method
    (properties included) defined under ``opbounds``."""
    found = {}
    for info in pkgutil.iter_modules(opbounds.__path__, "opbounds."):
        if info.name == "opbounds.__main__":
            continue
        mod = importlib.import_module(info.name)
        short = info.name.removeprefix("opbounds.")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and _code(member) is not None:
                        found[f"{short}.{name}.{attr}"] = member
            elif _code(obj) is not None:
                found[f"{short}.{name}"] = obj
    return found


def _configs(tmp_path) -> list:
    """(subcommand, config, format) of small runs of every subcommand: each
    loss family, a CSV dataset, both gradient modes, a checkpoint written and
    read back, sweeps and a refinement."""
    rng = np.random.default_rng(0)
    rows = np.hstack([rng.uniform(-1, 1, (10, 2)), rng.standard_normal((10, 2))])
    (tmp_path / "points.csv").write_text(
        "x1,x2,y1,y2\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist())
    )
    csv = {"kind": "csv", "path": "points.csv", "d": 2, "m": 2}
    synth = {"kind": "synthetic", "n": 8, "d": 2, "m": 2, "noise": 0.1}
    bound = {
        "dataset": {"kind": "synthetic", "n": 8, "d": 2, "m": 2},
        "kernel": {"family": "gaussian", "bandwidth": 1.0},
        "mc": {"draws": 64},
        "network": {
            "g_norm": 1.0,
            "output_dim": 2,
            "layers": [
                {"weights": [[1.0, 0.2], [0.1, 0.9]], "activation_koopman_norm": 1.5,
                 "sobolev_order_in": 2.5},
                {"weights": [[0.8, 0.0], [0.3, 1.1]], "sobolev_order_in": 2.5},
            ],
        },
        "split": 1,
        "split_bound": {"l_prime": 1, "surrogates": 2},
    }
    sketch = {
        "kernel": {"family": "matern", "bandwidth": 1.0, "smoothness": 1.5},
        "fit": {"lambda_n": 0.05, "max_iters": 5},
        "sketch": {"rows": 4, "p": 0.5, "dist": "rademacher"},
    }
    losses = (
        {"family": "pinball", "quantiles": [0.25, 0.75]},
        {"family": "huber", "huber_delta": 0.5},
    )
    train = {"lambda1": 0.1, "lambda2": 0.1, "step": 0.3, "iters": 3}
    deep = {
        "bandwidths": [1.0, 1.0, 1.0],
        "output_dims": [2, 2, 2],
        "train": {**train, "grad_mode": "finite-diff"},
        "lambda1_sweep": [0.0, 0.1],
        "refine": {"direction": "shrink", "scale": 0.5},
        "checkpoint_out": "model.json",
    }
    return [
        ("bound-compare", bound, "csv"),
        *(("sketch-regress", {**sketch, "dataset": csv, "loss": loss}, "json") for loss in losses),
        ("sketch-regress", {
            "dataset": synth, "kernel": {"family": "gaussian", "bandwidth": 1.0},
            "loss": {"family": "squared"}, "fit": {"lambda_n": 0.05},
            "sketch": {"rows": 8, "dist": "identity"}, "emit_coefficients": True,
        }, "json"),
        ("deep-vvrkhs", {"dataset": synth, "deep_model": deep}, "json"),
        ("deep-vvrkhs", {"dataset": synth, "deep_model": {
            **deep, "train": train, "lambda1_sweep": [0.2], "checkpoint_in": "model.json",
        }}, "csv"),
        ("spectral-report", {
            "dataset": {"kind": "synthetic", "n": 12, "d": 2},
            "kernel": {"family": "matern", "bandwidth": 1.0, "smoothness": 1.2},
            "sketch": {"rows": 4, "p": 0.5},
        }, "json"),
    ]


def test_every_public_function_is_reached_by_a_run(tmp_path):
    # a public name that only tests call is a test oracle, not library API:
    # it belongs in tests/oracles.py
    public = _public_functions()
    assert set(UNREACHED) <= set(public), set(UNREACHED) - set(public)
    runs = _configs(tmp_path)
    before = {name: _cache_calls(member) for name, member in public.items()}
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = []
        for i, (subcommand, config, fmt) in enumerate(runs):
            path = tmp_path / f"config{i}.json"
            path.write_text(json.dumps(config))
            args = [subcommand, "--config", str(path), "--out", str(tmp_path / f"out{i}")]
            codes.append(cli.main([*args, "--format", fmt]))
    finally:
        sys.setprofile(outer)
    assert codes == [0] * len(runs)
    missed = {
        name for name, member in public.items()
        if _code(member) not in entered and _cache_calls(member) == before[name]
    }
    assert missed == set(UNREACHED), sorted(missed ^ set(UNREACHED))
