import importlib
import inspect
import json
import pkgutil
import sys
import threading
from functools import cached_property
from unittest import mock

import numpy as np
import pytest

import opbounds
from opbounds import cli
from opbounds.spectral import N_DENSE


def test_every_exported_name_resolves():
    # names load lazily, so a stale export fails only when someone reads it
    for name in opbounds.__all__:
        obj = getattr(opbounds, name)
        assert obj.__module__ == f"opbounds.{opbounds._MODULE_OF[name]}", name


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
    """Name -> member of every public module-level function, public method
    (properties included) and hand-written ``__init__`` of a public class
    defined under ``opbounds``.  A dataclass's generated ``__init__`` is
    compiled from no source file of the package, so it is left out."""
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
                    code = _code(member)
                    if code is None:
                        continue
                    if not attr.startswith("_") or (
                        attr == "__init__" and code.co_filename == mod.__file__
                    ):
                        found[f"{short}.{name}.{attr}"] = member
            elif _code(obj) is not None:
                found[f"{short}.{name}"] = obj
    return found


def _defaults(member) -> dict:
    """Name -> default of each parameter of ``member`` that has one."""
    if isinstance(member, (property, cached_property)):
        return {}
    if isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    params = inspect.signature(inspect.unwrap(member)).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


def _default_params(public) -> set:
    """"module.function(parameter)" of every parameter with a default."""
    return {f"{name}({p})" for name, member in public.items() for p in _defaults(member)}


def _left_in_place(value, default) -> bool:
    """Whether a call's ``value`` of a parameter is its ``default``: the
    object itself, or an equal one of the same type."""
    return value is default or (type(value) is type(default) and value == default)


def _configs(tmp_path) -> list:
    """(subcommand, config, format) of small runs of every subcommand: each loss
    family, a CSV dataset, Grams above N_DENSE points with and without an error
    bound that settles their PSD verdict, both gradient modes, a checkpoint
    written and read back, sweeps and a refinement."""
    rng = np.random.default_rng(0)
    rows = np.hstack([rng.uniform(-1, 1, (10, 2)), rng.standard_normal((10, 2))])
    (tmp_path / "points.csv").write_text(
        "x1,x2,y1,y2\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist())
    )
    csv = {"kind": "csv", "path": "points.csv"}
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
            "sketch": {"dist": "identity"}, "emit_coefficients": True,
        }, "json"),
        ("sketch-regress", {
            **sketch, "dataset": {**synth, "n": N_DENSE + 44}, "loss": {"family": "squared"},
            "fit": {"lambda_n": 0.05},
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
        # nu = 0.5 has no error bound, so the Cholesky verdict runs
        ("spectral-report", {
            "dataset": {"kind": "synthetic", "n": N_DENSE + 44, "d": 2},
            "kernel": {"family": "matern", "bandwidth": 1.0, "smoothness": 0.5},
        }, "json"),
    ]


@pytest.fixture(scope="module")
def profiled(tmp_path_factory):
    """(public members, codes entered, set default parameters, default
    parameters left in place, calls of each ``functools.cache`` member) over
    the runs of ``_configs``.  A parameter counts as left in place when a call
    enters its function with its default for it (``_left_in_place``), and as
    set otherwise.  The last run calls ``cli.main()`` on a patched
    ``sys.argv``, as the ``opbounds`` console script does."""
    tmp_path = tmp_path_factory.mktemp("runs")
    public = _public_functions()
    watched = {_code(m): (name, _defaults(m)) for name, m in public.items()}
    runs = _configs(tmp_path)
    before = {name: _cache_calls(member) for name, member in public.items()}
    entered, set_params, default_params = set(), set(), set()

    def profile(frame, event, arg):
        if event != "call":
            return
        entered.add(frame.f_code)
        name, defaults = watched.get(frame.f_code, (None, {}))
        if defaults:
            local = frame.f_locals
            for p, default in defaults.items():
                kept = _left_in_place(local[p], default)
                (default_params if kept else set_params).add(f"{name}({p})")

    # sys.setprofile holds for the calling thread only; threading.setprofile
    # covers the worker thread a run above N_DENSE points starts
    outer, outer_threads = sys.getprofile(), threading.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        codes = []
        for i, (subcommand, config, fmt) in enumerate(runs):
            path = tmp_path / f"config{i}.json"
            path.write_text(json.dumps(config))
            args = [subcommand, "--config", str(path), "--out", str(tmp_path / f"out{i}")]
            if i < len(runs) - 1:
                codes.append(cli.main([*args, "--format", fmt]))
                continue
            with mock.patch.object(sys, "argv", ["opbounds", *args, "--format", fmt]):
                codes.append(cli.main())
    finally:
        sys.setprofile(outer)
        threading.setprofile(outer_threads)
    assert codes == [0] * len(runs)
    calls = {name: _cache_calls(member) - before[name] for name, member in public.items()}
    return public, entered, set_params, default_params, calls


def test_every_public_function_is_reached_by_a_run(profiled):
    # a public name that only tests call is a test oracle, not library API:
    # it belongs in tests/oracles.py
    public, entered, _, _, calls = profiled
    missed = {
        name for name, member in public.items()
        if _code(member) not in entered and calls[name] == 0
    }
    assert missed == set(), sorted(missed)


def test_every_default_parameter_is_set_by_a_run(profiled):
    # a parameter that no run sets is a second way in that only tests use:
    # the function should take its one way in
    params = _default_params(profiled[0])
    assert params, "no parameter with a default found"
    assert params - profiled[2] == set(), sorted(params - profiled[2])


def test_every_default_is_left_in_place_by_a_run(profiled):
    # the converse: a default that every run overrides is a branch that only
    # tests take; the parameter should be required
    params = _default_params(profiled[0])
    assert params - profiled[3] == set(), sorted(params - profiled[3])
