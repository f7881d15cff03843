import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from opbounds import _blas, cli, deepvv
from opbounds.cli import main, render_record, run, validate_config
from opbounds.complexity import McConfig, trace_bound
from opbounds.data import GeneratorConfig
from opbounds.deepvv import TrainConfig
from opbounds.erm import FitConfig, excess_risk_bound_rhs
from opbounds.errors import ConfigError, InputError, OpboundsError, UnboundedLossError
from opbounds.kernels import ScalarKernelSpec
from opbounds.koopman import LayerSpec
from opbounds.losses import LossSpec
from opbounds.sketching import SketchSpec

BOUND_COMPARE = {
    "seed": 11,
    "dataset": {"kind": "synthetic", "n": 16, "d": 2, "m": 2, "noise": 0.1},
    "kernel": {"family": "gaussian", "bandwidth": 1.0, "output_matrix": "identity"},
    "mc": {"draws": 400},
    "network": {
        "g_norm": 1.0,
        "output_dim": 2,
        "layers": [
            {"weights": [[1.0, 0.0], [0.0, 1.0]], "sobolev_order_in": 2.0}
        ],
    },
    "split": 0,
    "split_bound": {"l_prime": 1, "surrogates": 2},
}

SKETCH_REGRESS = {
    "seed": 5,
    "dataset": {"kind": "synthetic", "n": 20, "d": 2, "m": 2, "noise": 0.05},
    "kernel": {"family": "gaussian", "bandwidth": 1.0},
    "loss": {"family": "pinball", "quantiles": [0.25, 0.75]},
    "fit": {"lambda_n": 0.05, "max_iters": 60, "step_size": 0.5, "tol": 1e-7},
    "sketch": {"rows": 8, "p": 1.0, "dist": "gaussian"},
}

DEEP = {
    "seed": 3,
    "dataset": {"kind": "synthetic", "n": 10, "d": 2, "m": 2, "noise": 0.1},
    "deep_model": {
        "bandwidths": [1.0, 1.0, 5.0],
        "output_dims": [2, 2, 2],
        "train": {"lambda1": 0.1, "lambda2": 0.1, "step": 0.5, "iters": 40},
        "lambda1_sweep": [0.0, 0.1, 1.0],
        "refine": {"direction": "shrink", "scale": 0.5},
    },
}

SPECTRAL = {
    "seed": 7,
    "dataset": {"kind": "synthetic", "n": 24, "d": 2},
    "kernel": {"family": "gaussian", "bandwidth": 1.0},
    "sketch": {"rows": 12, "p": 0.5, "dist": "rademacher"},
}

ALL_CONFIGS = {
    "bound-compare": BOUND_COMPARE,
    "sketch-regress": SKETCH_REGRESS,
    "deep-vvrkhs": DEEP,
    "spectral-report": SPECTRAL,
}


def test_unknown_keys_rejected():
    bad = dict(BOUND_COMPARE)
    bad["surprise"] = 1
    with pytest.raises(ConfigError):
        validate_config("bound-compare", bad)
    nested = json.loads(json.dumps(BOUND_COMPARE))
    nested["kernel"]["shape"] = "round"
    with pytest.raises(ConfigError):
        validate_config("bound-compare", nested)


def test_schema_type_errors_reported_with_path():
    bad = json.loads(json.dumps(SKETCH_REGRESS))
    bad["fit"]["lambda_n"] = -1.0
    with pytest.raises(ConfigError, match="fit/lambda_n"):
        validate_config("sketch-regress", bad)


_CSV_DATASET = {"kind": "csv", "path": "points.csv"}
_MATRIX_KERNEL = {"family": "gaussian", "bandwidth": 1.0, "output_matrix": np.eye(2).tolist()}
_EVALUATE_ONLY = {
    "bandwidths": [1.0, 1.0, 5.0],
    "output_dims": [2, 2, 2],
    "evaluate_only": True,
    "train": {"lambda1": 0.1, "lambda2": 0.1, "seed": 4},
}
_CHECKPOINT = {"checkpoint_in": "model.json", "train": {"lambda1": 0.1, "step": 0.5}}
_SQUARED = {"loss": {"family": "squared"}, "fit": {"lambda_n": 0.05}}

# (subcommand, sections replacing those of its config, section path, key,
# value): each key that its section's variant does not read
UNREAD_KEYS = [
    ("sketch-regress", {}, ("fit",), "seed", 1),
    *[
        ("spectral-report", {"dataset": _CSV_DATASET}, ("dataset",), key, value)
        for key, value in [
            ("n", 30), ("noise", 7.0), ("teacher_anchors", 4), ("teacher_bandwidth", 2.0),
            ("seed", 3),
        ]
    ],
    ("spectral-report", {}, ("dataset",), "path", "points.csv"),
    *[
        ("sketch-regress", {"sketch": {"dist": "identity"}}, ("sketch",), key, value)
        for key, value in [("rows", 20), ("seed", 4), ("p", 0.5)]
    ],
    ("sketch-regress", {"loss": {"family": "huber"}}, ("loss",), "quantiles", [0.25, 0.75]),
    ("sketch-regress", {}, ("loss",), "huber_delta", 1.0),
    ("sketch-regress", {}, ("kernel",), "smoothness", 1.5),
    ("bound-compare", {"kernel": _MATRIX_KERNEL}, ("kernel",), "output_dim", 2),
    *[
        ("spectral-report", {}, ("kernel",), key, value)
        for key, value in [("output_matrix", "identity"), ("output_dim", 1), ("kappa", 1.0)]
    ],
    *[
        ("deep-vvrkhs", {"deep_model": _EVALUATE_ONLY}, ("deep_model", "train"), key, value)
        for key, value in [("step", 0.5), ("iters", 40), ("grad_mode", "finite-diff"),
                           ("tol", 1e-6)]
    ],
    *[
        ("bound-compare", {}, ("dataset",), key, value)
        for key, value in [("teacher_anchors", 3), ("teacher_bandwidth", 2.0)]
    ],
    ("bound-compare", {}, ("network",), "injectivity_class", {"C": 0.001, "D": 1e6}),
    ("bound-compare", {}, ("network", "layers", 0), "bias", [0.1, -0.2]),
    ("bound-compare", {}, ("network", "layers", 0), "sobolev_order_out", 2.0),
    *[
        ("spectral-report", {}, ("dataset",), key, value)
        for key, value in [("m", 2), ("noise", 7.0), ("teacher_anchors", 4),
                           ("teacher_bandwidth", 2.0)]
    ],
    # the header of a csv dataset gives d and m
    *[
        ("spectral-report", {"dataset": _CSV_DATASET}, ("dataset",), key, value)
        for key, value in [("d", 2), ("m", 1)]
    ],
    *[
        ("sketch-regress", _SQUARED, ("fit",), key, value)
        for key, value in [("max_iters", 1), ("step_size", 9.0), ("tol", 0.3)]
    ],
    ("sketch-regress", _SQUARED, (), "conf_delta", 0.2),
    ("deep-vvrkhs", {"deep_model": _CHECKPOINT}, ("deep_model", "train"), "seed", 4),
    *[
        ("deep-vvrkhs", {"deep_model": _CHECKPOINT}, ("deep_model",), key, value)
        for key, value in [("bandwidths", [1.0, 1.0, 5.0]), ("output_dims", [2, 2, 2])]
    ],
    ("deep-vvrkhs", {"deep_model": _EVALUATE_ONLY}, ("deep_model",), "lambda1_sweep", []),
    # kappa is a fact of the kernel and the sketch scaling is fixed: no
    # subcommand takes either
    *[
        (subcommand, {}, ("kernel",), "kappa", 1.0)
        for subcommand in ("bound-compare", "sketch-regress")
    ],
    *[
        (subcommand, {}, ("sketch",), "scale", 0.9)
        for subcommand in ("sketch-regress", "spectral-report")
    ],
]


def _unread_ids(rows):
    """``<subcommand>-<path>.<key>``; a key rejected for a second dataset
    kind also names that kind."""
    ids = []
    for sub, sections, path, key, _ in rows:
        name = f"{sub}-{'.'.join(map(str, (*path, key)))}"
        if name in ids:
            name += "-" + {**ALL_CONFIGS[sub], **sections}["dataset"]["kind"]
        ids.append(name)
    return ids


@pytest.mark.parametrize(
    "subcommand, sections, path, key, value", UNREAD_KEYS, ids=_unread_ids(UNREAD_KEYS)
)
def test_keys_the_section_variant_does_not_read_are_rejected(
    subcommand, sections, path, key, value
):
    config = json.loads(json.dumps({**ALL_CONFIGS[subcommand], **sections}))
    validate_config(subcommand, config)  # valid without the key
    section = config
    for name in path:
        section = section[name]
    section[key] = value
    # the key ends the path, or, where no variant of the section has it, is unexpected
    at = "/".join(map(str, path))
    full = "/".join(map(str, (*path, key)))
    named = rf"at ({full}: |{at}: .*'{key}' was unexpected)"
    with pytest.raises(ConfigError, match=named):
        validate_config(subcommand, config)


def _main_error(tmp_path, capsys, subcommand, config):
    """The error record of ``main`` on ``config``, which must exit 2 and
    write no output."""
    cfg_path, out_path = tmp_path / "c.json", tmp_path / "r.json"
    cfg_path.write_text(json.dumps(config))
    assert main([subcommand, "--config", str(cfg_path), "--out", str(out_path)]) == 2
    assert not out_path.exists()
    return json.loads(capsys.readouterr().err.splitlines()[0])


@pytest.mark.parametrize(
    "subcommand, section, key",
    [("sketch-regress", "fit", "seed"),
     ("bound-compare", "kernel", "kappa"), ("sketch-regress", "kernel", "kappa"),
     ("sketch-regress", "sketch", "scale"), ("spectral-report", "sketch", "scale")],
)
def test_unread_key_exits_2_and_writes_no_output(subcommand, section, key, tmp_path, capsys):
    cfg = json.loads(json.dumps(ALL_CONFIGS[subcommand]))
    cfg[section][key] = 1
    err = _main_error(tmp_path, capsys, subcommand, cfg)
    assert err["error"] == "config" and f"'{key}'" in err["message"]


def test_train_seed_after_a_checkpoint_exits_2_and_writes_no_output(tmp_path, capsys):
    # no fresh model is built, so the seed would seed nothing
    cfg = {**DEEP, "deep_model": {**_CHECKPOINT, "train": {"seed": 4}}}
    err = _main_error(tmp_path, capsys, "deep-vvrkhs", cfg)
    assert err["error"] == "config"
    assert err["message"].startswith("config invalid at deep_model/train/seed: ")


def test_last_layer_activation_norm_exits_2_and_writes_no_output(tmp_path, capsys):
    # the last layer has no activation, so no bound would read its norm
    cfg = json.loads(json.dumps(BOUND_COMPARE))
    cfg["network"]["layers"].append(
        {"weights": np.eye(2).tolist(), "activation_koopman_norm": 1.5}
    )
    err = _main_error(tmp_path, capsys, "bound-compare", cfg)
    assert err["error"] == "config"
    assert err["message"].startswith(
        "config invalid at network/layers/1/activation_koopman_norm: "
    )


def _declared_paths(schema, prefix=()):
    """Every property path that ``schema`` declares, nested sections, layer
    items (``[]``) and a matrix's ``{"csv": path}`` form included.  The
    ``then``/``else`` rules only reject keys declared here, so they are not
    walked."""
    for key, sub in schema.get("properties", {}).items():
        path = (*prefix, key)
        yield path
        yield from _declared_paths(sub, path)
        yield from _declared_paths(sub.get("items", {}), (*path, "[]"))
        for alternative in sub.get("oneOf", ()):
            yield from _declared_paths(alternative, path)


def _dotted(path):
    return ".".join(path).replace(".[]", "[]")


_SWEEP_NET = {
    "g_norm": 1.0,
    "output_dim": 2,
    "layers": [
        {"weights": [[1.5, 0.2], [0.1, 0.9], [0.3, -0.4]], "activation_koopman_norm": 1.5},
        {"weights": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.5]]},
    ],
}
_SWEEP_SYNTH = {"kind": "synthetic", "n": 10, "d": 2, "m": 2, "noise": 0.1}
_SWEEP_POINTS = {"kind": "synthetic", "n": 10, "d": 2}
_SWEEP_CSV = {"kind": "csv", "path": "points_a.csv"}
_SWEEP_MATERN = {"family": "matern", "bandwidth": 1.0, "smoothness": 1.5}
_SWEEP_DEEP = {"bandwidths": [1.0, 2.0], "output_dims": [2, 2]}
_SWEEP_TRAIN = {"lambda1": 0.1, "lambda2": 0.1, "step": 0.5, "iters": 3}

# (name, subcommand, config): small configs covering each loss family, each
# sketch dist, synthetic and CSV datasets, gaussian and matern kernels, and
# evaluate-only and checkpoint deep runs.  Each draws something, so each
# reads the master seed; a run that draws nothing (a csv dataset with an
# identity sketch, say) reads none.
SWEEP_BASES = [
    ("bound-synthetic", "bound-compare", {
        "dataset": _SWEEP_SYNTH,
        "kernel": {"family": "gaussian", "bandwidth": 1.0,
                   "output_matrix": [[1.0, 0.3], [0.3, 1.0]]},
        "mc": {"draws": 64},
        "network": _SWEEP_NET,
        "split": 1,
        "split_bound": {"l_prime": 1, "surrogates": 2},
    }),
    ("bound-csv-matern", "bound-compare", {
        "dataset": _SWEEP_CSV,
        "kernel": _SWEEP_MATERN,
        "mc": {"draws": 64},
        "network": _SWEEP_NET,
    }),
    ("sketch-pinball", "sketch-regress", {
        "dataset": _SWEEP_SYNTH,
        "kernel": {"family": "gaussian", "bandwidth": 1.0},
        "loss": {"family": "pinball", "quantiles": [0.25, 0.75]},
        "fit": {"lambda_n": 0.05, "max_iters": 5, "step_size": 0.5, "tol": 1e-7},
        "sketch": {"rows": 4, "p": 0.5, "dist": "gaussian"},
    }),
    ("sketch-huber-csv-matern", "sketch-regress", {
        "dataset": _SWEEP_CSV,
        "kernel": _SWEEP_MATERN,
        "loss": {"family": "huber"},
        "fit": {"lambda_n": 0.05, "max_iters": 5},
        "sketch": {"rows": 4, "dist": "rademacher"},
    }),
    ("sketch-squared-identity", "sketch-regress", {
        "dataset": _SWEEP_SYNTH,
        "kernel": {"family": "gaussian", "bandwidth": 1.0},
        "loss": {"family": "squared"},
        "fit": {"lambda_n": 0.05},
        "sketch": {"dist": "identity"},
    }),
    ("deep-fresh", "deep-vvrkhs", {
        "dataset": _SWEEP_SYNTH,
        "deep_model": {**_SWEEP_DEEP, "train": _SWEEP_TRAIN, "lambda1_sweep": [0.0],
                       "refine": {"direction": "shrink", "scale": 0.5}},
    }),
    ("deep-evaluate-only", "deep-vvrkhs", {
        "dataset": _SWEEP_SYNTH,
        "deep_model": {**_SWEEP_DEEP, "evaluate_only": True,
                       "train": {"lambda1": 0.1, "lambda2": 0.1}},
    }),
    ("deep-checkpoint", "deep-vvrkhs", {
        "dataset": _SWEEP_SYNTH,
        "deep_model": {"checkpoint_in": "model_a.json", "train": _SWEEP_TRAIN},
    }),
    ("deep-checkpoint-sweep", "deep-vvrkhs", {
        "dataset": _SWEEP_SYNTH,
        "deep_model": {**_SWEEP_DEEP, "checkpoint_in": "model_a.json", "evaluate_only": True,
                       "train": {"lambda1": 0.1, "iters": 2}, "lambda1_sweep": [0.2]},
    }),
    ("spectral-synthetic", "spectral-report", {
        "dataset": _SWEEP_POINTS,
        "kernel": {"family": "gaussian", "bandwidth": 1.0},
        "sketch": {"rows": 5, "p": 0.5, "dist": "rademacher"},
    }),
    ("spectral-csv-matern", "spectral-report", {
        "dataset": _SWEEP_CSV,
        "kernel": _SWEEP_MATERN,
        "sketch": {"rows": 5},
    }),
    ("spectral-identity", "spectral-report", {
        "dataset": _SWEEP_POINTS,
        "kernel": {"family": "gaussian", "bandwidth": 2.0},
        "sketch": {"dist": "identity"},
    }),
]

# values the sweep sets at each declared path; each differs from the library
# or CLI default, so setting it on a config without the key changes the run.
# A layer key is set on the first layer; the last one, which has no
# activation, rejects activation_koopman_norm at run time.
SWEEP_VALUES = {
    "seed": [12345],
    "dataset": [{"kind": "synthetic", "n": 9, "d": 2, "m": 2}],
    "dataset.kind": ["csv", "synthetic"],
    "dataset.n": [7],
    "dataset.d": [3],
    "dataset.m": [3],
    "dataset.noise": [0.3],
    "dataset.teacher_anchors": [3],
    "dataset.teacher_bandwidth": [0.4],
    "dataset.seed": [4242],
    "dataset.path": ["points_b.csv"],
    "kernel": [{"family": "gaussian", "bandwidth": 0.7}],
    "kernel.family": ["matern", "sobolev-radial"],
    "kernel.bandwidth": [0.6],
    "kernel.smoothness": [2.5],
    "kernel.output_matrix": [[[2.0, 0.5], [0.5, 1.0]]],
    "loss": [{"family": "huber", "huber_delta": 0.1}],
    "loss.family": ["squared", "huber"],
    "loss.huber_delta": [0.05],
    "loss.quantiles": [[0.4, 0.9]],
    "fit": [{"lambda_n": 0.3}],
    "fit.lambda_n": [0.3],
    "fit.max_iters": [2],
    "fit.step_size": [0.05],
    "fit.tol": [10.0],
    "sketch": [{"rows": 3, "p": 0.8}],
    "sketch.rows": [3],
    "sketch.p": [0.8],
    "sketch.dist": ["rademacher", "identity"],
    "sketch.seed": [77],
    "conf_delta": [0.2],
    "emit_coefficients": [True],
    "mc": [{"draws": 32}],
    "mc.draws": [32],
    "mc.seed": [99],
    "network": [{"g_norm": 2.0, "output_dim": 2, "layers": [{"weights": [[2.0, 0.0],
                                                                        [0.0, 1.0]]}]}],
    "network.g_norm": [2.0],
    "network.output_dim": [3],
    "network.layers": [[{"weights": [[2.0, 0.0], [0.0, 1.0]]}]],
    "network.layers[].weights": [[[1.2, 0.0], [0.0, 0.8], [0.5, 0.5]]],
    "network.layers[].weights.csv": ["w.csv"],
    "network.layers[].activation_koopman_norm": [2.5],
    "network.layers[].sobolev_order_in": [3.0],
    "network.layers[].ratio_G": [1.7],
    "split": [2],
    "split_bound": [{"surrogates": 4}],
    "split_bound.l_prime": [1],
    "split_bound.surrogates": [4],
    "deep_model": [{**_SWEEP_DEEP, "bandwidths": [0.5, 1.0], "train": {"iters": 2}}],
    "deep_model.bandwidths": [[0.5, 1.0]],
    "deep_model.output_dims": [[3, 2]],
    "deep_model.train": [{"lambda1": 0.4, "iters": 2}],
    "deep_model.train.lambda1": [0.4],
    "deep_model.train.lambda2": [0.4],
    "deep_model.train.step": [0.05],
    "deep_model.train.iters": [1],
    "deep_model.train.grad_mode": ["finite-diff"],
    "deep_model.train.seed": [31],
    "deep_model.train.tol": [10.0],
    "deep_model.lambda1_sweep": [[0.3]],
    "deep_model.refine": [{"direction": "enlarge", "scale": 2.0}],
    "deep_model.refine.direction": ["enlarge"],
    "deep_model.refine.scale": [0.25],
    "deep_model.checkpoint_in": ["model_b.json"],
    "deep_model.checkpoint_out": ["out.json"],
    "deep_model.evaluate_only": [True],
}

# (subcommand, path, why): accepted keys that change neither the metrics nor
# the resolved seeds of any sweep config
ACCEPTED_NO_OPS = [
    ("bound-compare", "dataset.noise",
     "labels are unread; the bound-split benchmark config carries it"),
    ("bound-compare", "network.output_dim",
     "no bound reads it; the bound-split benchmark config carries it"),
]


def _sweep_files(tmp_path):
    """The CSV datasets, weights and checkpoints that the sweep configs name."""
    from oracles import write_csv

    rng = np.random.default_rng(13)
    for name in ("points_a.csv", "points_b.csv"):
        write_csv(tmp_path / name, rng.uniform(-1, 1, (8, 2)), rng.standard_normal((8, 2)))
    (tmp_path / "w.csv").write_text("1.0,0.4\n0.2,1.3\n0.0,0.6\n")
    for name, train_seed in (("model_a.json", 1), ("model_b.json", 2)):
        deep = {**_SWEEP_DEEP, "train": {**_SWEEP_TRAIN, "seed": train_seed},
                "checkpoint_out": name}
        run("deep-vvrkhs", {"dataset": _SWEEP_SYNTH, "deep_model": deep}, 8, tmp_path)


def _outcome(subcommand, config, tmp_path):
    """The metrics and resolved seeds of a run, or None when it raises."""
    try:
        record = run(subcommand, config, None, tmp_path)
    except OpboundsError:
        return None
    return cli._jsonify([record["metrics"], record["resolved_seeds"]])


def _set_path(config, path, value):
    """``value`` set at ``path``: on the first item of a list, and in a new
    section where the config has none (or a matrix in place of its
    ``{"csv": path}`` form)."""
    node = config
    for key, nxt in zip(path, path[1:]):
        if key == "[]":
            node = node[0]
            continue
        if nxt != "[]" and not isinstance(node.get(key), dict):
            node[key] = {}
        node = node[key]
    node[path[-1]] = value


@pytest.mark.filterwarnings("ignore")
def test_every_accepted_key_changes_the_record(tmp_path):
    # each key that a config section accepts must change the metrics or the
    # resolved seeds of a run, or make it raise a typed error
    started = time.process_time()
    _sweep_files(tmp_path)
    no_ops, failed = set(), set()
    for label, subcommand, base in SWEEP_BASES:
        expected = _outcome(subcommand, base, tmp_path)
        if expected is None:
            failed.add(label)
            continue
        for path in dict.fromkeys(_declared_paths(cli._SCHEMAS[subcommand])):
            for value in SWEEP_VALUES.get(_dotted(path), ()):
                config = json.loads(json.dumps(base))
                _set_path(config, path, value)
                if config == base:
                    continue
                try:
                    validate_config(subcommand, config)
                except ConfigError:
                    continue  # the key is rejected here
                if _outcome(subcommand, config, tmp_path) == expected:
                    no_ops.add((subcommand, _dotted(path)))
    declared = {_dotted(p) for schema in cli._SCHEMAS.values() for p in _declared_paths(schema)}
    allowed = {(sub, name) for sub, name, _ in ACCEPTED_NO_OPS}
    problems = {
        "sweep configs that raise": failed,
        "declared keys without sweep values": declared - set(SWEEP_VALUES),
        "sweep values of no declared key": set(SWEEP_VALUES) - declared,
        "accepted keys that change nothing": no_ops - allowed,
        "listed no-ops that now change the record": allowed - no_ops,
    }
    assert not any(problems.values()), {k: sorted(v) for k, v in problems.items() if v}
    assert time.process_time() - started <= 15.0


@pytest.mark.parametrize("kind, key", [("csv", "path"), ("synthetic", "n")])
def test_dataset_kind_requires_its_keys(kind, key):
    cfg = json.loads(json.dumps(SPECTRAL))
    cfg["dataset"] = {**(_CSV_DATASET if kind == "csv" else SPECTRAL["dataset"])}
    del cfg["dataset"][key]
    with pytest.raises(ConfigError, match=f"at dataset: '{key}' is a required property"):
        validate_config("spectral-report", cfg)


@pytest.mark.parametrize("key", ["network/layers/0/weights", "kernel/output_matrix"])
def test_jagged_matrix_is_a_config_error(key, tmp_path, capsys):
    cfg = json.loads(json.dumps(BOUND_COMPARE))
    jagged = [[1.0], [2.0, 3.0]]
    if key == "kernel/output_matrix":
        cfg["kernel"]["output_matrix"] = jagged
    else:
        cfg["network"]["layers"][0]["weights"] = jagged
    err = _main_error(tmp_path, capsys, "bound-compare", cfg)
    assert err["error"] == "config" and key in err["message"]


@pytest.mark.parametrize("subcommand, path, value", [
    ("sketch-regress", ("dataset", "noise"), math.nan),
    ("bound-compare", ("network", "layers", 0, "sobolev_order_in"), math.nan),
    ("sketch-regress", ("fit", "lambda_n"), math.inf),
    ("bound-compare", ("kernel", "output_matrix", 1, 0), -math.inf),
])
def test_non_finite_config_number_is_a_config_error(subcommand, path, value, tmp_path, capsys):
    # json.load reads NaN and Infinity, and NaN passes every schema bound
    cfg = json.loads(json.dumps(BOUND_COMPARE if subcommand == "bound-compare" else SKETCH_REGRESS))
    if path[:2] == ("kernel", "output_matrix"):
        cfg["kernel"]["output_matrix"] = np.eye(2).tolist()
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    err = _main_error(tmp_path, capsys, subcommand, cfg)
    assert err["error"] == "config"
    assert f"at {'/'.join(map(str, path))}: not a finite number" in err["message"]


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_csv_cell_is_a_config_error(cell, tmp_path, capsys):
    from oracles import write_csv

    rng = np.random.default_rng(4)
    write_csv(tmp_path / "points.csv", rng.uniform(-1, 1, (20, 2)), rng.standard_normal((20, 2)))
    lines = (tmp_path / "points.csv").read_text().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:-1] + [cell])  # a label cell
    (tmp_path / "points.csv").write_text("\n".join(lines) + "\n")
    cfg = json.loads(json.dumps(SKETCH_REGRESS))
    cfg["dataset"] = {"kind": "csv", "path": "points.csv"}
    err = _main_error(tmp_path, capsys, "sketch-regress", cfg)
    assert err["error"] == "config"
    assert "points.csv: the cell in data row 3, column 4 is not finite" in err["message"]


def test_first_layer_must_take_the_data_dimension(monkeypatch, tmp_path):
    # three input columns on d = 2 data: a typed error before any Gram
    cfg = json.loads(json.dumps(BOUND_COMPARE))
    cfg["network"]["layers"] = [{"weights": np.eye(3).tolist(), "sobolev_order_in": 2.0}]

    def refuse(*args, **kwargs):
        raise AssertionError("Gram assembled before the width check")

    monkeypatch.setattr(cli, "gram_scalar", refuse)
    with pytest.raises(InputError, match="takes 3 inputs; the data has d = 2"):
        run("bound-compare", cfg, None, tmp_path)


def test_readme_configs_are_valid():
    # each ```json block of the README is a config of the subcommand named in
    # the sentence before it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = list(re.finditer(r"```json\n(.*?)```", readme, re.DOTALL))
    assert len(blocks) >= 2
    for block in blocks:
        paragraph = readme[: block.start()].rstrip().split("\n\n")[-1]
        before = re.split(r"(?<=\.)\s", paragraph)[-1]
        named = [name for name in cli.SUBCOMMANDS if f"`{name}`" in before]
        assert len(named) == 1, before
        validate_config(named[0], json.loads(block.group(1)))


def test_bound_compare_identity_network(tmp_path):
    record = run("bound-compare", BOUND_COMPARE, None, tmp_path)
    metrics = record["metrics"]
    assert metrics["product"]["total"] == pytest.approx(metrics["trace_bound"], rel=1e-12)
    assert metrics["rademacher_ball"]["estimate"] <= metrics["trace_bound"] + 3 * (
        metrics["rademacher_ball"]["stderr"] + 1e-12
    )
    assert metrics["peeled"]["value"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert metrics["split"]["extras"]["eta_product"] == pytest.approx(1.0)
    assert record["library_version"]


def test_bound_compare_never_builds_the_dense_operator_gram(monkeypatch, tmp_path):
    # G_k (x) M is never materialized: with np.kron disabled, the run still
    # produces the same record bytes
    expected = render_record(run("bound-compare", BOUND_COMPARE, None, tmp_path), "json")

    def refuse(*args, **kwargs):
        raise AssertionError("dense operator Gram built on the bound-compare path")

    monkeypatch.setattr(np, "kron", refuse)
    record = run("bound-compare", BOUND_COMPARE, None, tmp_path)
    assert render_record(record, "json") == expected


def test_bound_compare_assembles_each_scalar_gram_once(monkeypatch, tmp_path):
    # the data Gram serves the ball estimate and the approximation term; the
    # mid Gram the surrogate norms, the class predictions and the
    # approximation term
    from opbounds import kernels

    n = 20
    cfg = json.loads(json.dumps(BOUND_COMPARE))
    cfg["dataset"]["n"] = n
    cfg["split_bound"]["surrogates"] = 4
    profiles = []
    profile = kernels._radial_profile

    def counted_profile(spec, sq_dist):
        profiles.append(np.shape(sq_dist))
        return profile(spec, sq_dist)

    monkeypatch.setattr(kernels, "_radial_profile", counted_profile)
    run("bound-compare", cfg, None, tmp_path)
    assert profiles.count((n, n)) == 2


def test_bound_compare_draws_each_sign_block_once(monkeypatch, tmp_path):
    # n=20 and 1,100 draws: blocks of 512, 512 and 76 draws.  Each is drawn
    # once and read by one quadratic form on the data Gram and one on the mid
    # Gram, shared by the ball, class and approximation estimates
    from opbounds import complexity, koopman

    n, m, draws = 20, 2, 1100
    cfg = json.loads(json.dumps(BOUND_COMPARE))
    cfg["dataset"]["n"] = n
    cfg["mc"]["draws"] = draws
    streams, grams, forms = [], [], []
    substream, gram, quad_forms = complexity.substream, cli.gram_scalar, complexity._quad_forms

    def counted_substream(seed, counter):
        streams.append(counter)
        return substream(seed, counter)

    def counted_gram(*args, **kwargs):
        grams.append(gram(*args, **kwargs))
        return grams[-1]

    def counted_forms(rows, g, out, *work):
        if rows.shape == (512, n * m) or rows.shape == (76, n * m):
            forms.append((rows, g))  # keeps each block alive, so ids stay unique
        return quad_forms(rows, g, out, *work)

    monkeypatch.setattr(complexity, "substream", counted_substream)
    monkeypatch.setattr(cli, "gram_scalar", counted_gram)
    monkeypatch.setattr(complexity, "_quad_forms", counted_forms)
    monkeypatch.setattr(koopman, "_quad_forms", counted_forms)
    run("bound-compare", cfg, None, tmp_path)
    assert streams == [0, 1, 2]
    g_data, g_mid = grams
    blocks = {id(rows): rows for rows, _ in forms}
    assert sorted(len(b) for b in blocks.values()) == [76, 512, 512]
    for key in blocks:
        read = sorted(id(g) for rows, g in forms if id(rows) == key)
        assert read == sorted([id(g_data), id(g_mid)])


@pytest.mark.parametrize(
    "case", ["n=1", "m=1", "duplicate points", "rank-one M", "identical inputs"]
)
def test_bound_compare_degenerate_inputs(case, tmp_path):
    cfg = json.loads(json.dumps(BOUND_COMPARE))
    rng = np.random.default_rng(7)
    if case == "n=1":
        cfg["dataset"]["n"] = 1
    elif case == "m=1":
        cfg["dataset"]["m"] = 1
        cfg["network"]["output_dim"] = 1
    elif case == "duplicate points":
        x = np.repeat(rng.uniform(-1, 1, (4, 2)), 4, axis=0)
        cfg["dataset"] = _csv_dataset(tmp_path, x, rng.standard_normal((16, 2)))
    elif case == "rank-one M":
        cfg["kernel"]["output_matrix"] = [[1.0, 1.0], [1.0, 1.0]]
    else:
        x = np.tile([[0.3, -0.2]], (6, 1))
        cfg["dataset"] = _csv_dataset(tmp_path, x, rng.standard_normal((6, 2)))
    record = run("bound-compare", cfg, None, tmp_path)
    numbers = []
    cli._flatten("", record["metrics"], numbers)
    values = [v for _, v in numbers if isinstance(v, float)]
    assert values and all(math.isfinite(v) for v in values)


def test_sketch_regress_metrics(tmp_path):
    record = run("sketch-regress", SKETCH_REGRESS, None, tmp_path)
    metrics = record["metrics"]
    assert metrics["risk_full"] >= 0
    assert metrics["risk_sketched"] >= 0
    assert "satisfiability" in metrics
    assert metrics["excess_risk_bound"]["value"] > 0
    assert "risk_teacher" in metrics


def test_sketch_regress_identity_equivalence(tmp_path):
    cfg = json.loads(json.dumps(SKETCH_REGRESS))
    cfg["loss"] = {"family": "squared"}
    cfg["fit"] = {"lambda_n": cfg["fit"]["lambda_n"]}
    cfg["sketch"] = {"dist": "identity"}
    record = run("sketch-regress", cfg, None, tmp_path)
    metrics = record["metrics"]
    assert metrics["risk_full"] == pytest.approx(metrics["risk_sketched"], abs=1e-8)
    # the entry is the library's own unbounded-loss error, category and message
    with pytest.raises(UnboundedLossError) as exc:
        excess_risk_bound_rhs(math.inf, 1.0, 0.1, 1.0, 0.1, 1.0, 2.0, 10, 0.05)
    assert metrics["excess_risk_bound"] == {"error": "unbounded-loss", "message": str(exc.value)}


@pytest.mark.parametrize("n, loss", [(300, "squared"), (90, "pinball")])
def test_sketch_regress_one_gram_and_one_decomposition(n, loss, monkeypatch, tmp_path):
    # the n x n Gram is assembled once and decomposed once, shared by both
    # fits, both training risks and the spectral report, and so in a
    # spectral-report: above N_DENSE by one Lanczos run and no n x n eigh, up
    # to it by one n x n eigh, which the pinball fit's proximal map reuses.
    # The Gram is assembled in row blocks, so the kernel profile sees its n
    # rows of n columns once, in as many calls as there are blocks
    from opbounds import kernels, spectral

    cfg = json.loads(json.dumps(SKETCH_REGRESS))
    cfg["dataset"]["n"] = n
    if loss == "squared":
        cfg["loss"] = {"family": "squared"}
        cfg["fit"] = {"lambda_n": cfg["fit"]["lambda_n"]}
    profiles, eighs, lanczos_runs = [], [], []
    profile, eigh, lanczos = kernels._radial_profile, np.linalg.eigh, spectral._lanczos

    def counted_profile(spec, sq_dist):
        profiles.append(np.shape(sq_dist))
        return profile(spec, sq_dist)

    def counted_eigh(a, *args, **kwargs):
        eighs.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def counted_lanczos(a, k):
        lanczos_runs.append(np.shape(a))
        return lanczos(a, k)

    monkeypatch.setattr(kernels, "_radial_profile", counted_profile)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(spectral, "_lanczos", counted_lanczos)
    report = json.loads(json.dumps(SPECTRAL))
    report["dataset"]["n"] = n
    for subcommand, config in [("sketch-regress", cfg), ("spectral-report", report)]:
        del profiles[:], eighs[:], lanczos_runs[:]
        run(subcommand, config, None, tmp_path)
        assert sum(rows for rows, cols in profiles if cols == n) == n
        if n > spectral.N_DENSE:
            assert lanczos_runs == [(n, n)]
            assert (n, n) not in eighs
        else:
            assert lanczos_runs == []
            assert eighs.count((n, n)) == 1


def _csv_dataset(tmp_path, x, y):
    from oracles import write_csv

    write_csv(tmp_path / "points.csv", x, y)
    return {"kind": "csv", "path": "points.csv"}


@pytest.mark.parametrize("case", ["n=1", "m=1", "duplicate points", "s>n"])
@pytest.mark.parametrize("family", ["squared", "pinball"])
def test_sketch_regress_degenerate_inputs(case, family, tmp_path):
    cfg = json.loads(json.dumps(SKETCH_REGRESS))
    if family == "squared":
        cfg["loss"] = {"family": "squared"}
        cfg["fit"] = {"lambda_n": cfg["fit"]["lambda_n"]}
    if case == "n=1":
        cfg["dataset"]["n"] = 1
        cfg["sketch"]["rows"] = 1
    elif case == "m=1":
        cfg["dataset"]["m"] = 1
        if family == "pinball":
            cfg["loss"]["quantiles"] = [0.5]
    elif case == "duplicate points":
        rng = np.random.default_rng(4)
        x = np.repeat(rng.uniform(-1, 1, (5, 2)), 4, axis=0)
        cfg["dataset"] = _csv_dataset(tmp_path, x, rng.standard_normal((20, 2)))
    else:
        cfg["sketch"]["rows"] = cfg["dataset"]["n"] + 7
    record = run("sketch-regress", cfg, None, tmp_path)
    numbers = []
    cli._flatten("", record["metrics"], numbers)
    values = [v for _, v in numbers if isinstance(v, float)]
    assert values and all(math.isfinite(v) for v in values)
    n = 20 if case == "duplicate points" else cfg["dataset"]["n"]
    assert 1 <= record["metrics"]["satisfiability"]["d_n"] <= n


@pytest.mark.filterwarnings("ignore:top pencil eigenvalue")
@pytest.mark.parametrize(
    "case",
    ["n=1", "n=2", "m=1", "duplicate points", "zero labels", "identical inputs"],
)
def test_deep_vvrkhs_degenerate_inputs(case, tmp_path):
    cfg = json.loads(json.dumps(DEEP))
    cfg["deep_model"]["train"]["iters"] = 10
    rng = np.random.default_rng(6)
    if case in ("n=1", "n=2"):
        cfg["dataset"]["n"] = int(case[-1])
    elif case == "m=1":
        cfg["dataset"]["m"] = 1
        cfg["deep_model"]["output_dims"] = [1, 1, 1]
    elif case == "duplicate points":
        x = np.repeat(rng.uniform(-1, 1, (3, 2)), 3, axis=0)
        cfg["dataset"] = _csv_dataset(tmp_path, x, rng.standard_normal((9, 2)))
    elif case == "zero labels":
        cfg["dataset"] = _csv_dataset(tmp_path, rng.uniform(-1, 1, (8, 2)), np.zeros((8, 2)))
    else:
        x = np.tile([[0.3, -0.2]], (6, 1))
        cfg["dataset"] = _csv_dataset(tmp_path, x, rng.standard_normal((6, 2)))
    record = run("deep-vvrkhs", cfg, None, tmp_path)
    numbers = []
    cli._flatten("", record["metrics"], numbers)
    values = [v for _, v in numbers if isinstance(v, float)]
    assert values and all(math.isfinite(v) for v in values)


def test_deep_subcommand_contracts(tmp_path):
    record = run("deep-vvrkhs", DEEP, None, tmp_path)
    metrics = record["metrics"]
    objs = [e["objective"] for e in metrics["epochs"]]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
    # the pf bound is the product of its listed factors, at the end and per
    # epoch, and its trace root is trace_bound(kappa, Tr M1, n) with kappa = 1,
    # Tr M1 = 2 and n = 10; the last epoch matches the final report
    pf_rep = metrics["pf_bound"]
    root = pf_rep["trace_root"]
    assert root == trace_bound(1.0, 2.0, 10)
    assert pf_rep["total"] == pf_rep["pf_norm"] * pf_rep["top_norm"] * root
    for epoch in metrics["epochs"]:
        assert epoch["pf_bound"] == epoch["pf_norm"] * epoch["top_norm"] * root
    last = metrics["epochs"][-1]
    assert last["pf_bound"] == pf_rep["total"]
    assert last["separable_printed"] == metrics["separable"]["printed"]
    sweep = metrics["lambda1_sweep"]
    assert [s["lambda1"] for s in sweep] == [0.0, 0.1, 1.0]
    pf = [s["final_pf_norm"] for s in sweep]
    assert pf[1] <= pf[0] + 1e-9 and pf[2] <= pf[1] + 1e-9
    ref = metrics["refinement"]
    assert ref["accepted"] is True
    assert ref["pf_bound_after_frozen_factors"] == pytest.approx(
        pf_rep["total"] / math.sqrt(2.0), rel=1e-10
    )


def test_sketch_regress_emits_coefficients(tmp_path):
    cfg = json.loads(json.dumps(SKETCH_REGRESS))
    cfg["emit_coefficients"] = True
    record = run("sketch-regress", cfg, None, tmp_path)
    coeffs = record["metrics"]["coefficients"]
    assert len(coeffs["full"]) == cfg["dataset"]["n"]
    assert len(coeffs["sketched"]) == cfg["sketch"]["rows"]
    plain = run("sketch-regress", SKETCH_REGRESS, None, tmp_path)
    assert "coefficients" not in plain["metrics"]


def test_deep_checkpoint_roundtrip_through_cli(tmp_path):
    cfg = json.loads(json.dumps(DEEP))
    del cfg["deep_model"]["lambda1_sweep"]
    del cfg["deep_model"]["refine"]
    cfg["deep_model"]["checkpoint_out"] = "model.json"
    record = run("deep-vvrkhs", cfg, None, tmp_path)
    assert (tmp_path / "model.json").exists()
    # reload the checkpoint for bound evaluation only; bounds must agree
    cfg2 = json.loads(json.dumps(cfg))
    del cfg2["deep_model"]["checkpoint_out"]
    cfg2["deep_model"]["checkpoint_in"] = "model.json"
    cfg2["deep_model"]["evaluate_only"] = True
    # an evaluate-only run trains nothing, so its train section takes no step or iters,
    # and after a checkpoint it builds no fresh model, so it takes no layer widths
    trained = cfg["deep_model"]["train"]
    cfg2["deep_model"]["train"] = {k: trained[k] for k in ("lambda1", "lambda2")}
    del cfg2["deep_model"]["bandwidths"], cfg2["deep_model"]["output_dims"]
    record2 = run("deep-vvrkhs", cfg2, None, tmp_path)
    assert record2["metrics"]["pf_bound"]["total"] == pytest.approx(
        record["metrics"]["pf_bound"]["total"], rel=1e-12
    )
    assert record2["metrics"]["epochs"] == []


def _independent_sweep_pf(cfg, lam1):
    """The transfer-product norm, from a fresh objective, of the model that
    train() gives from a fresh model at ``lam1``."""
    from opbounds.data import GeneratorConfig, synth_dataset
    from opbounds.deepvv import DeepObjective, TrainConfig, init_layered_model, train
    from opbounds.kernels import ScalarKernelSpec

    data, deep = cfg["dataset"], cfg["deep_model"]
    ds = synth_dataset(GeneratorConfig(
        n=data["n"], d=data["d"], m=data["m"], noise=data["noise"], seed=data["seed"]
    ))
    dims_in = [data["d"]] + deep["output_dims"][:-1]
    kernels = [ScalarKernelSpec("gaussian", bw, dimension=d)
               for bw, d in zip(deep["bandwidths"], dims_in)]
    outputs = [np.eye(d) for d in deep["output_dims"]]
    t = {k: v for k, v in deep["train"].items() if k != "seed"}
    model = init_layered_model(ds.x, kernels, outputs, seed=deep["train"]["seed"])
    trained = train(DeepObjective(model, ds.x, ds.y), TrainConfig(**{**t, "lambda1": lam1})).model
    fresh = DeepObjective(trained, ds.x, ds.y)
    return fresh.pf_norm(fresh.forward(trained.coeffs))


@pytest.mark.parametrize("variant, trains", [
    ("fresh", 2), ("checkpoint_in", 3), ("evaluate_only", 2),
])
def test_deep_sweep_reuses_the_trained_config(monkeypatch, tmp_path, variant, trains):
    # the sweep entry at the run's own lambda1 is the run itself when the run
    # trained a fresh model; after a checkpoint or without training, every
    # entry trains its own fresh model
    cfg = json.loads(json.dumps(DEEP))
    cfg["dataset"]["seed"] = 17
    deep = cfg["deep_model"]
    deep["train"].update(seed=23, iters=8)
    deep["lambda1_sweep"] = [0.0, 0.1]
    del deep["refine"]
    if variant == "checkpoint_in":
        ckpt = json.loads(json.dumps(cfg))
        ckpt["deep_model"]["train"]["seed"] = 29
        ckpt["deep_model"]["checkpoint_out"] = "model.json"
        run("deep-vvrkhs", ckpt, None, tmp_path)
        deep["checkpoint_in"] = "model.json"
    elif variant == "evaluate_only":
        deep["evaluate_only"] = True
    calls = []
    train = cli.train
    monkeypatch.setattr(cli, "train", lambda *a, **k: calls.append(a) or train(*a, **k))
    metrics = run("deep-vvrkhs", cfg, None, tmp_path)["metrics"]
    assert len(calls) == trains
    sweep = metrics["lambda1_sweep"]
    assert [s["lambda1"] for s in sweep] == [0.0, 0.1]
    for entry in sweep:
        assert entry["final_pf_norm"] == _independent_sweep_pf(cfg, entry["lambda1"])
    if variant == "fresh":
        assert sweep[1]["final_pf_norm"] == metrics["pf_bound"]["pf_norm"]
    else:
        assert sweep[1]["final_pf_norm"] != metrics["pf_bound"]["pf_norm"]


def test_deep_sweep_entries_match_separately_trained_models(monkeypatch, tmp_path):
    # a sweep entry at another lambda1 keeps only its final transfer norm, so
    # it trains without a trajectory and computes no norm during training at
    # lambda1 = 0; its final norm is that of a separately trained model
    cfg = json.loads(json.dumps(DEEP))
    cfg["dataset"]["seed"] = 19
    deep = cfg["deep_model"]
    deep["train"].update(seed=31, iters=8)
    deep["lambda1_sweep"] = [0.0, 0.3]
    del deep["refine"]
    eigensolve, train = deepvv._top_eigenvalue, cli.train
    solves, sweeps = [], []

    def recorded_train(objective, t_cfg, trajectory=True):
        before = len(solves)
        out = train(objective, t_cfg, trajectory)
        if not trajectory:
            sweeps.append((t_cfg.lambda1, out.trajectory, len(solves) - before))
        return out

    monkeypatch.setattr(deepvv, "_top_eigenvalue", lambda s: solves.append(1) or eigensolve(s))
    monkeypatch.setattr(cli, "train", recorded_train)
    metrics = run("deep-vvrkhs", cfg, None, tmp_path)["metrics"]
    assert [(lam, traj) for lam, traj, _ in sweeps] == [(0.0, []), (0.3, [])]
    assert sweeps[0][2] == 0
    sweep = metrics["lambda1_sweep"]
    assert [entry["lambda1"] for entry in sweep] == [0.0, 0.3]
    for entry in sweep:
        assert entry["final_pf_norm"] == _independent_sweep_pf(cfg, entry["lambda1"])


def test_spectral_subcommand(tmp_path):
    record = run("spectral-report", SPECTRAL, None, tmp_path)
    metrics = record["metrics"]
    assert metrics["delta_sq"] > 0
    assert 1 <= metrics["d_n"] <= 24
    assert len(metrics["eigenvalues_top"]) == 24
    assert "satisfiability" in metrics


def test_weights_loaded_from_csv(tmp_path):
    w_path = tmp_path / "w.csv"
    w_path.write_text("1.0,0.0\n0.0,1.0\n")
    cfg = json.loads(json.dumps(BOUND_COMPARE))
    cfg["network"]["layers"][0]["weights"] = {"csv": "w.csv"}
    record = run("bound-compare", cfg, None, tmp_path)
    assert record["metrics"]["product"]["total"] == pytest.approx(
        record["metrics"]["trace_bound"], rel=1e-12
    )


def test_csv_dataset_ingestion(tmp_path):
    from opbounds.data import GeneratorConfig, synth_dataset
    from oracles import write_csv

    ds = synth_dataset(GeneratorConfig(n=24, d=2, m=1, noise=0.0, seed=7))
    csv_path = tmp_path / "points.csv"
    write_csv(csv_path, ds.x, ds.y)
    cfg = json.loads(json.dumps(SPECTRAL))
    cfg["dataset"] = {"kind": "csv", "path": "points.csv"}
    record = run("spectral-report", cfg, None, tmp_path)
    baseline_cfg = json.loads(json.dumps(SPECTRAL))
    baseline_cfg["dataset"]["seed"] = 7  # same points as the CSV snapshot
    baseline = run("spectral-report", baseline_cfg, None, tmp_path)
    assert record["metrics"]["delta_sq"] == pytest.approx(
        baseline["metrics"]["delta_sq"], rel=1e-12
    )


def _cli(tmp_path, name, config, extra_env=None, fmt="json", out_name="out"):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / f"{out_name}.{fmt}"
    env = {**os.environ, **(extra_env or {})}
    proc = subprocess.run(
        [sys.executable, "-m", "opbounds", name, "--config", str(cfg_path),
         "--out", str(out_path), "--format", fmt],
        capture_output=True, env=env, text=True,
    )
    return proc, out_path


def test_cli_end_to_end_json(tmp_path):
    proc, out = _cli(tmp_path, "spectral-report", SPECTRAL)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["subcommand"] == "spectral-report"
    assert record["config"] == SPECTRAL
    assert "metrics" in record


def test_cli_csv_format(tmp_path):
    proc, out = _cli(tmp_path, "spectral-report", SPECTRAL, fmt="csv")
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "metric,value"
    assert any(line.startswith("delta_sq,") for line in lines)


def test_cli_error_leaves_no_output(tmp_path):
    bad = json.loads(json.dumps(SPECTRAL))
    bad["kernel"]["family"] = "sinc"
    proc, out = _cli(tmp_path, "spectral-report", bad)
    assert proc.returncode == 2
    assert not out.exists()
    err = json.loads(proc.stderr.splitlines()[0])
    assert err["error"] == "config"


@pytest.mark.parametrize(
    "payload",
    [
        {"layers": [{"kernel": {"family": "gaussian"}}]},
        {"layers": [{"kernel": {"family": "gaussian", "bandwidth": 1.0, "dimension": 2,
                                "width": 3}}]},
        {"layers": [{"kernel": {"family": "gaussian", "bandwidth": 1.0, "dimension": 2}}]},
        {"model": []},
        [],
    ],
    ids=["missing-kernel-key", "unknown-kernel-key", "missing-layer-key", "no-layers", "list"],
)
def test_malformed_checkpoint_is_a_categorized_error(tmp_path, payload):
    (tmp_path / "model.json").write_text(json.dumps(payload))
    cfg = json.loads(json.dumps(DEEP))
    cfg["deep_model"]["checkpoint_in"] = "model.json"
    with pytest.raises(InputError, match="malformed checkpoint"):
        run("deep-vvrkhs", cfg, None, tmp_path)
    proc, out = _cli(tmp_path, "deep-vvrkhs", cfg)
    assert proc.returncode == 2, proc.stderr
    assert not out.exists()
    assert json.loads(proc.stderr.splitlines()[0])["error"] == "input"


@pytest.mark.parametrize("layer", [0, 1, 2])
def test_non_finite_checkpoint_coeffs_exit_2_and_write_no_output(tmp_path, capsys, layer):
    # a NaN coefficient is rejected where the layer is built, whichever
    # layer carries it, before any bound is evaluated
    cfg = {
        "seed": 3,
        "dataset": {"kind": "synthetic", "n": 8, "d": 2, "m": 2, "noise": 0.1},
        "deep_model": {
            "bandwidths": [1.0, 1.0, 1.0], "output_dims": [2, 2, 2],
            "train": {"lambda1": 0.1, "lambda2": 0.1, "step": 0.5, "iters": 2},
            "checkpoint_out": "model.json",
        },
    }
    run("deep-vvrkhs", cfg, None, tmp_path)
    ckpt = json.loads((tmp_path / "model.json").read_text())
    ckpt["layers"][layer]["coeffs"][0][0] = math.nan
    (tmp_path / "model.json").write_text(json.dumps(ckpt))
    cfg["deep_model"] = {
        "checkpoint_in": "model.json", "evaluate_only": True,
        "train": {"lambda1": 0.1, "lambda2": 0.1},
    }
    err = _main_error(tmp_path, capsys, "deep-vvrkhs", cfg)
    assert err["error"] == "input" and "coeffs contain non-finite" in err["message"]


def test_non_numeric_dataset_cell_is_a_config_error(tmp_path):
    (tmp_path / "points.csv").write_text("x1,x2,y1\n0.1,0.2,0.3\n0.4,abc,0.6\n")
    cfg = json.loads(json.dumps(SPECTRAL))
    cfg["dataset"] = {"kind": "csv", "path": "points.csv"}
    proc, out = _cli(tmp_path, "spectral-report", cfg)
    assert proc.returncode == 2, proc.stderr
    assert not out.exists()
    err = json.loads(proc.stderr.splitlines()[0])
    assert err["error"] == "config" and "points.csv" in err["message"]


def test_non_numeric_weights_cell_is_a_config_error(tmp_path):
    (tmp_path / "w.csv").write_text("1.0,0.0\n0.0,one\n")
    cfg = json.loads(json.dumps(BOUND_COMPARE))
    cfg["network"]["layers"][0]["weights"] = {"csv": "w.csv"}
    proc, out = _cli(tmp_path, "bound-compare", cfg)
    assert proc.returncode == 2, proc.stderr
    assert not out.exists()
    err = json.loads(proc.stderr.splitlines()[0])
    assert err["error"] == "config" and "w.csv" in err["message"]


_DATASET = {"kind": "synthetic", "n": 12, "d": 1, "m": 2}

# configs with only the keys that have no default
MINIMAL_CONFIGS = {
    "bound-compare": {
        "dataset": _DATASET,
        "kernel": {"family": "gaussian", "bandwidth": 1.0},
        "mc": {"draws": 300},
        "network": {"g_norm": 1.0, "output_dim": 2,
                    "layers": [{"weights": [[1.0]]}, {"weights": [[1.0], [0.5]]}]},
    },
    "sketch-regress": {
        "dataset": _DATASET,
        "kernel": {"family": "gaussian", "bandwidth": 1.0},
        "loss": {"family": "huber"},
        "fit": {"lambda_n": 0.1},
        "sketch": {"rows": 5},
    },
    "deep-vvrkhs": {
        "dataset": _DATASET,
        "deep_model": {"bandwidths": [1.0, 1.0, 1.0], "output_dims": [2, 2, 2], "train": {}},
    },
    "spectral-report": {
        "dataset": {"kind": "synthetic", "n": 12, "d": 1},
        "kernel": {"family": "gaussian", "bandwidth": 1.0},
        "sketch": {"rows": 5},
    },
}

# (path to a config section, the library dataclass it configures)
_SECTIONS = {
    "dataset": (("dataset",), GeneratorConfig),
    "kernel": (("kernel",), ScalarKernelSpec),
    "mc": (("mc",), McConfig),
    "layer": (("network", "layers", 0), LayerSpec),
    "loss": (("loss",), LossSpec),
    "fit": (("fit",), FitConfig),
    "sketch": (("sketch",), SketchSpec),
    "train": (("deep_model", "train"), TrainConfig),
}


def _spelled_out(subcommand, config):
    """config with every omitted key of each library section set to its
    dataclass default; seeds (derived from the master seed), None defaults and
    keys that the section's variant rejects (a gaussian kernel's smoothness,
    say) stay omitted."""
    full = json.loads(json.dumps(config))
    added = 0
    for path, cls in _SECTIONS.values():
        section, schema = full, cli._SCHEMAS[subcommand]
        try:
            for key in path:
                section = section[key]
                schema = schema["items"] if isinstance(key, int) else schema["properties"][key]
        except (KeyError, IndexError):
            continue  # the subcommand has no such section
        defaults = {
            f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING and f.default is not None
        }
        for key in schema["properties"]:
            name = cli._RENAMED.get(cls, {}).get(key, key)
            if key != "seed" and key not in section and name in defaults:
                default = defaults[name]
                section[key] = list(default) if isinstance(default, tuple) else default
                try:
                    validate_config(subcommand, full)
                except ConfigError as exc:  # a key this variant does not read
                    assert f"/{key}: " in str(exc)
                    del section[key]
                    continue
                added += 1
    return full, added


@pytest.mark.filterwarnings("ignore:Sobolev order")
@pytest.mark.parametrize("subcommand", sorted(MINIMAL_CONFIGS))
def test_omitted_keys_take_the_library_defaults(subcommand, tmp_path):
    minimal = MINIMAL_CONFIGS[subcommand]
    full, added = _spelled_out(subcommand, minimal)
    # a spectral-report dataset takes no label keys, so only the sketch's p
    # and dist have defaults there
    assert added >= (2 if subcommand == "spectral-report" else 3)
    echoed = json.loads(json.dumps(minimal))
    record = run(subcommand, minimal, 21, tmp_path)
    assert minimal == echoed  # the echoed config is never mutated
    spelled = run(subcommand, full, 21, tmp_path)
    assert record["config"] == minimal and spelled["config"] == full
    assert record["metrics"] == spelled["metrics"]
    assert record["resolved_seeds"] == spelled["resolved_seeds"]


def test_cli_seed_flag_overrides(tmp_path):
    cfg = {k: v for k, v in SPECTRAL.items() if k != "seed"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for seed in ("1", "2"):
        out_path = tmp_path / f"out{seed}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "opbounds", "spectral-report", "--config",
             str(cfg_path), "--out", str(out_path), "--seed", seed],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(out_path.read_text()))
    assert outs[0]["seed"] == 1 and outs[1]["seed"] == 2
    assert outs[0]["metrics"]["delta_sq"] != outs[1]["metrics"]["delta_sq"]


@pytest.mark.parametrize("name", list(ALL_CONFIGS))
def test_cli_byte_identical_across_runs_and_threads(name, tmp_path):
    config = ALL_CONFIGS[name]
    payloads = []
    # the last run asks OpenBLAS for two threads; the CLI must override a
    # caller's BLAS thread count, not only fill in a missing one
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "2")):
        proc, out = _cli(
            tmp_path, name, config, extra_env={"OPENBLAS_NUM_THREADS": threads},
            out_name=f"out_{tag}",
        )
        assert proc.returncode == 0, proc.stderr
        payloads.append(out.read_bytes())
    assert all(payload == payloads[0] for payload in payloads[1:])


def test_cli_bytes_independent_of_callers_blas_threads(tmp_path):
    # GEMMs this wide split across two OpenBLAS threads sum in another order,
    # so this record differs in the last bits unless the CLI really runs BLAS
    # on one thread whatever OPENBLAS_NUM_THREADS the caller set
    payloads = []
    for threads in ("1", "2"):
        proc, out = _cli(
            tmp_path, "bound-compare", _wide_bound_compare(),
            extra_env={"OPENBLAS_NUM_THREADS": threads}, out_name=f"out_{threads}",
        )
        assert proc.returncode == 0, proc.stderr
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]


def _wide_bound_compare():
    config = json.loads(json.dumps(BOUND_COMPARE))
    config["dataset"].update(n=200, m=3)
    config["mc"]["draws"] = 512
    return config


_RUN_IN_PROCESS = """
import json, sys
from pathlib import Path
from opbounds.cli import render_record, run
record = run(sys.argv[1], json.loads(sys.argv[2]), None, Path("."))
sys.stdout.write(render_record(record, "json"))
"""


def _library_run_per_blas_threads(subcommand, config):
    """Records of a library caller whose numpy loaded with one, then two
    OpenBLAS threads and no other BLAS setting."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    payloads = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_IN_PROCESS, subcommand, json.dumps(config)],
            capture_output=True, text=True,
            env={**env, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        payloads.append(proc.stdout)
    return payloads


def test_library_run_bytes_independent_of_blas_threads():
    # cli.run itself must pin BLAS to one thread
    payloads = _library_run_per_blas_threads("bound-compare", _wide_bound_compare())
    assert payloads[0] == payloads[1]


def _matern_sketch_regress(nu, n):
    """A squared-loss sketch-regress config with a Matern kernel."""
    cfg = json.loads(json.dumps(SKETCH_REGRESS))
    cfg["dataset"]["n"] = n
    cfg["kernel"] = {"family": "matern", "bandwidth": 1.0, "smoothness": nu}
    cfg["loss"] = {"family": "squared"}
    cfg["fit"] = {"lambda_n": cfg["fit"]["lambda_n"]}
    return cfg


def test_matern_run_bytes_independent_of_blas_threads():
    # scipy first loads inside this run (nu = 1.2 needs kv), after the BLAS
    # pin has cached the OpenBLAS copies loaded so far, so scipy's own copy
    # keeps two threads; the record must not depend on it.  Unpinned, an
    # n=300 Matern record differs in the last bits between one and two threads.
    cfg = _matern_sketch_regress(1.2, 300)
    cfg["sketch"]["rows"] = 40
    payloads = _library_run_per_blas_threads("sketch-regress", cfg)
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("subcommand", ["sketch-regress", "spectral-report"])
def test_lapack_run_bytes_independent_of_blas_threads(subcommand, monkeypatch, tmp_path):
    # at n = 300 > N_DENSE the spectrum comes from Lanczos, the PSD verdict
    # from a blocked Cholesky and the squared fit from deflated CG, whose
    # GEMVs and GEMMs the pin must hold to one thread
    from opbounds import spectral

    if subcommand == "sketch-regress":
        cfg = _matern_sketch_regress(1.5, 300)
        cfg["sketch"]["rows"] = 40
    else:
        cfg = {
            "seed": 7,
            "dataset": {"kind": "synthetic", "n": 300, "d": 2},
            "kernel": {"family": "matern", "bandwidth": 1.0, "smoothness": 1.5},
            "sketch": {"rows": 40, "p": 0.5, "dist": "rademacher"},
        }
    lanczos, runs = spectral._lanczos, []

    def counted_lanczos(a, k):
        runs.append(np.shape(a))
        return lanczos(a, k)

    monkeypatch.setattr(spectral, "_lanczos", counted_lanczos)
    run(subcommand, cfg, None, tmp_path)
    assert runs == [(300, 300)]
    payloads = _library_run_per_blas_threads(subcommand, cfg)
    assert payloads[0] == payloads[1]


def _sketch_regress_40_rows(n, loss):
    """A Matern nu = 1.5 sketch-regress config on n points with a 40-row
    sketch, with the squared loss or the pinball loss of SKETCH_REGRESS."""
    cfg = _matern_sketch_regress(1.5, n)
    cfg["sketch"]["rows"] = 40
    if loss == "pinball":
        cfg["loss"], cfg["fit"] = SKETCH_REGRESS["loss"], SKETCH_REGRESS["fit"]
    return cfg


@pytest.mark.parametrize("n, loss", [(300, "squared"), (40, "pinball")])
def test_sketch_regress_forms_s_g_st_once(n, loss, monkeypatch, tmp_path):
    # the sketched fit and the satisfiability report read one S G S^T, and
    # the report's norm2 is that of a fresh (S G) S^T within 1e-14 relative
    from opbounds import spectral

    cfg = _sketch_regress_40_rows(n, loss)
    fits, reports = [], []
    fit_sketched, check = cli.fit_sketched, cli.check_satisfiability

    def spied_fit(kernel, y, loss, cfg, sk, sketched):
        fits.append(sketched)
        return fit_sketched(kernel, y, loss, cfg, sk, sketched)

    def spied_check(sk, dec, c, sgs):
        reports.append((sk, dec, c, sgs))
        return check(sk, dec, c, sgs)

    monkeypatch.setattr(cli, "fit_sketched", spied_fit)
    monkeypatch.setattr(cli, "check_satisfiability", spied_check)
    norm2 = run("sketch-regress", cfg, None, tmp_path)["metrics"]["satisfiability"]["norm2"]
    (sketched,), ((sk, dec, c, sgs),) = fits, reports
    assert sgs is sketched[1] and dec.d_n < n
    fresh = (sk.matrix @ dec.gram) @ sk.matrix.T
    want = spectral.check_satisfiability(sk, dec, c, fresh).norm2
    assert norm2 > 0 and abs(norm2 - want) <= 1e-14 * want


@pytest.mark.parametrize("n, loss", [(300, "squared"), (40, "pinball")])
def test_sketch_regress_checks_the_gram_once(n, loss, monkeypatch, tmp_path):
    # the spectrum's Gram is checked finite when it is decomposed; the fits
    # check it only for kappa, once, in fit_full, and fit_sketched checks the
    # n x s and s x s products it solves on, not the n x n Gram
    from opbounds import erm

    cfg, rows = _sketch_regress_40_rows(n, loss), 40
    check_kappa, finite_matrix = erm.check_kappa, erm.finite_matrix
    kappa_checks, finite_checks = [], []

    def counted_kappa(spec, g):
        kappa_checks.append(g.shape)
        check_kappa(spec, g)

    def counted_finite(a, *args, **kwargs):
        finite_checks.append(np.shape(a))
        return finite_matrix(a, *args, **kwargs)

    monkeypatch.setattr(erm, "check_kappa", counted_kappa)
    monkeypatch.setattr(erm, "finite_matrix", counted_finite)
    run("sketch-regress", cfg, None, tmp_path)
    assert kappa_checks == [(n, n)]
    assert finite_checks == [(n, rows), (rows, rows)]


_SCIPY_MODULES = """
import json, sys
from pathlib import Path
import opbounds.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

after_import = scipy_modules()
opbounds.cli.run(sys.argv[1], json.loads(sys.argv[2]), None, Path("."))
print(json.dumps([after_import, scipy_modules()]))
"""


_SCIPY_PARTS = ("scipy.linalg", "scipy.sparse", "scipy.special")


@pytest.mark.parametrize(
    "subcommand, config, loads",
    [("bound-compare", BOUND_COMPARE, []),
     ("sketch-regress", _matern_sketch_regress(1.5, 20), []),
     ("sketch-regress", _matern_sketch_regress(1.2, 20), ["scipy.special"]),
     ("sketch-regress", _matern_sketch_regress(1.5, 300), [])],
    ids=["gaussian", "matern-1.5", "matern-1.2", "matern-1.5-lanczos"],
)
def test_scipy_loads_only_for_kv(subcommand, config, loads):
    # scipy is most of the package's import time: importing the CLI loads
    # none of it, nor does the spectrum of a Gram below or above N_DENSE
    # points, and only Matern/Sobolev kernels of non-half-integer smoothness
    # load scipy.special (for kv)
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_MODULES, subcommand, json.dumps(config)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    after_import, after_run = json.loads(proc.stdout)
    assert after_import == []
    assert [m for m in _SCIPY_PARTS if m in after_run] == loads


_JSONSCHEMA_LOADS = """
import sys
import opbounds.cli
from opbounds.errors import ConfigError

print("jsonschema" in sys.modules)
try:
    opbounds.cli.validate_config("bound-compare", {"surprise": 1})
except ConfigError:
    print("ConfigError")
print("jsonschema" in sys.modules)
"""


def test_cli_import_loads_no_jsonschema():
    # jsonschema loads on the first validation, not with the module
    proc = subprocess.run(
        [sys.executable, "-c", _JSONSCHEMA_LOADS], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "ConfigError", "True"]


def test_run_pins_blas_and_restores_thread_counts(monkeypatch, tmp_path):
    libs = _blas._openblas()
    assert libs, "no OpenBLAS found in a process that loaded numpy"
    seen = []

    def counts():
        return [get() for get, _ in libs]

    runner = cli._RUNNERS["spectral-report"]

    def spy(*args):
        seen.append(counts())
        return runner(*args)

    monkeypatch.setitem(cli._RUNNERS, "spectral-report", spy)
    before = counts()
    for _, set_threads in libs:
        set_threads(2)
    try:
        run("spectral-report", SPECTRAL, None, tmp_path)
        assert counts() == [2] * len(libs)
        bad = json.loads(json.dumps(SPECTRAL))
        bad["kernel"] = {"family": "sobolev-radial", "bandwidth": 1.0, "smoothness": 1.0}
        with pytest.raises(OpboundsError, match="needs order s > d/2"):
            run("spectral-report", bad, None, tmp_path)
        assert counts() == [2] * len(libs)
    finally:
        for (_, set_threads), count in zip(libs, before):
            set_threads(count)
    assert seen == [[1] * len(libs)] * 2


def test_run_warns_and_returns_without_openblas(monkeypatch, tmp_path):
    monkeypatch.setattr(_blas, "_openblas", lambda: ())
    with pytest.warns(RuntimeWarning, match="no OpenBLAS"):
        record = run("spectral-report", SPECTRAL, None, tmp_path)
    assert record["metrics"]["delta_sq"] > 0


def test_main_in_process(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(SPECTRAL))
    out_path = tmp_path / "r.json"
    code = main(["spectral-report", "--config", str(cfg_path), "--out", str(out_path)])
    assert code == 0
    assert out_path.exists()


def test_unwritable_out_is_an_io_error(tmp_path, capsys):
    # the output is opened inside the handled block, as the config is
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(SPECTRAL))
    out_path = tmp_path / "missing_dir" / "out.json"
    code = main(["spectral-report", "--config", str(cfg_path), "--out", str(out_path)])
    assert code == 2
    assert not out_path.parent.exists()
    err = json.loads(capsys.readouterr().err.splitlines()[0])
    assert err["error"] == "io" and "missing_dir" in err["message"]


def test_render_record_handles_numpy_types():
    record = {
        "subcommand": "x", "metrics": {"a": np.float64(1.5), "b": np.int64(2),
                                       "c": [np.bool_(True)], "d": False},
    }
    text = render_record(record, "json")
    back = json.loads(text)
    assert back["metrics"] == {"a": 1.5, "b": 2, "c": [True], "d": False}
    assert '"d": false' in text  # bools must not degrade to 0/1
