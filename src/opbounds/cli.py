"""Experiment harness: config validation, orchestration, report emission.

Configs are JSON documents validated against per-subcommand schemas before
any computation; unknown keys are rejected, and so is each key that the run
does not read for its subcommand and its sections' variants (dataset kind,
sketch dist, loss or kernel family, evaluate-only or checkpoint model).
Records echo the config and all
resolved seeds, so re-running a record's config reproduces its metrics
bit-for-bit.  Timing is printed to stderr only, keeping the output file a
pure function of (config, seed).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from ._blas import _overlap, single_blas_thread
from ._rng import derive_seed, substream
from .complexity import BallMc, McConfig, run_mc, trace_bound
from .data import Dataset, GeneratorConfig, _read_numbers, read_csv, synth_dataset
from .deepvv import (
    DeepObjective,
    TrainConfig,
    TrainResult,
    init_layered_model,
    model_from_dict,
    model_to_dict,
    refine_kernel,
    separable_bound,
    train,
)
from .erm import FitConfig, empirical_risk, excess_risk_bound_rhs, fit_full, fit_sketched
from .errors import (
    ConfigError, InputError, OpboundsError, RefinementOrderError, UnboundedLossError,
)
from .kernels import DecomposableKernel, ScalarKernelSpec, _expansion_norm, gram_scalar
from .koopman import LayerSpec, NetworkSpec, SplitMc, product_bound, peeled_bound
from .losses import LossSpec, lipschitz_constant
from .sketching import SketchSpec, make_p_sparsified, satisfiability_constant
from .spectral import (
    LANCZOS_START, N_DENSE, check_satisfiability, kernel_spectrum, sketched_gram,
)

SUBCOMMANDS = ("bound-compare", "sketch-regress", "deep-vvrkhs", "spectral-report")

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_POSINT = {"type": "integer", "minimum": 1}


def _unread(*keys: str, why: str) -> dict:
    """The ``then`` of a Draft-7 ``if``: the section variant that the ``if``
    selects rejects ``keys``, which it does not read, with ``why`` as the
    error message."""
    return {"properties": {k: {"not": {}, "description": why} for k in keys}}


def _dataset_schema(*unread: str, why: str = "") -> dict:
    """A dataset section; a synthetic one also rejects ``unread``, the label
    keys that its subcommand does not read (``why`` says so).  A csv one
    reads only its path: the file gives n, d and m."""
    return {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "kind": {"enum": ["synthetic", "csv"]},
            "n": _POSINT,
            "d": _POSINT,
            "m": _POSINT,
            "noise": {"type": "number", "minimum": 0},
            "teacher_anchors": _POSINT,
            "teacher_bandwidth": _POS,
            "seed": {"type": "integer"},
            "path": {"type": "string"},
        },
        "required": ["kind"],
        "if": {"properties": {"kind": {"const": "csv"}}},
        "then": {
            **_unread(
                "n", "d", "m", "noise", "teacher_anchors", "teacher_bandwidth", "seed",
                why="a csv dataset reads only its path: its rows give n, its header d and m",
            ),
            "required": ["path"],
        },
        "else": {
            "properties": {
                **_unread("path", why="a synthetic dataset reads no path")["properties"],
                **_unread(*unread, why=why)["properties"],
            },
            "required": [k for k in ("n", "d", "m") if k not in unread],
        },
    }


_MATRIX = {
    "oneOf": [
        {"type": "array", "items": {"type": "array", "items": _NUM}},
        {
            "type": "object",
            "additionalProperties": False,
            "properties": {"csv": {"type": "string"}},
            "required": ["csv"],
        },
    ]
}

# spectral-report reads only the scalar kernel: its spectrum is that of G_k / n
_SCALAR_KERNEL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "family": {"enum": ["gaussian", "matern", "sobolev-radial"]},
        "bandwidth": _POS,
        "smoothness": {"type": "number", "minimum": 0},
    },
    "required": ["family", "bandwidth"],
    "if": {"properties": {"family": {"const": "gaussian"}}},
    "then": _unread("smoothness", why="a gaussian kernel reads no smoothness"),
}

_KERNEL_SCHEMA = {
    **_SCALAR_KERNEL_SCHEMA,
    "properties": {
        **_SCALAR_KERNEL_SCHEMA["properties"],
        "output_matrix": {"oneOf": [{"enum": ["identity"]}, _MATRIX["oneOf"][0]]},
    },
}

_LOSS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "family": {"enum": ["squared", "huber", "pinball"]},
        "huber_delta": _POS,
        "quantiles": {"type": "array", "items": {"type": "number"}},
    },
    "required": ["family"],
    "allOf": [
        {
            "if": {"properties": {"family": {"const": "pinball"}}},
            "else": _unread("quantiles", why="only a pinball loss reads quantiles"),
        },
        {
            "if": {"properties": {"family": {"const": "huber"}}},
            "else": _unread("huber_delta", why="only a huber loss reads huber_delta"),
        },
    ],
}

# "identity" is a harness convenience (the n x n identity) for reproducing the
# full-vs-sketched equivalence scenario; random sketches come from the library
_SKETCH_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "rows": _POSINT,
        "p": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "dist": {"enum": ["rademacher", "gaussian", "identity"]},
        "seed": {"type": "integer"},
    },
    "if": {"properties": {"dist": {"const": "identity"}}, "required": ["dist"]},
    "then": _unread(
        "rows", "seed", "p",
        why="an identity sketch has n rows and draws no entries, so it reads no rows, seed or p",
    ),
    "else": {"required": ["rows"]},
}

_FIT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "lambda_n": _POS,
        "max_iters": _POSINT,
        "step_size": _POS,
        "tol": _POS,
    },
    "required": ["lambda_n"],
}

_MC_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {"draws": _POSINT, "seed": {"type": "integer"}},
    "required": ["draws"],
}

_LAYER_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "weights": _MATRIX,
        "activation_koopman_norm": _POS,
        "sobolev_order_in": _POS,
        "ratio_G": _POS,
    },
    "required": ["weights"],
}

_NETWORK_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "g_norm": _POS,
        "output_dim": _POSINT,
        "layers": {"type": "array", "items": _LAYER_SCHEMA, "minItems": 1},
    },
    "required": ["g_norm", "output_dim", "layers"],
}

_TRAIN_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "lambda1": {"type": "number", "minimum": 0},
        "lambda2": {"type": "number", "minimum": 0},
        "step": _POS,
        "iters": _POSINT,
        "grad_mode": {"enum": ["analytic", "finite-diff"]},
        "seed": {"type": "integer"},
        "tol": _POS,
    },
}

_NO_FRESH_MODEL = "checkpoint_in without a lambda1_sweep builds no fresh model"

_DEEP_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "bandwidths": {"type": "array", "items": _POS, "minItems": 1},
        "output_dims": {"type": "array", "items": _POSINT, "minItems": 1},
        "train": _TRAIN_SCHEMA,
        "lambda1_sweep": {
            "type": "array", "items": {"type": "number", "minimum": 0}, "minItems": 1
        },
        "refine": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "direction": {"enum": ["shrink", "enlarge"]},
                "scale": _POS,
            },
            "required": ["direction", "scale"],
        },
        "checkpoint_in": {"type": "string"},
        "checkpoint_out": {"type": "string"},
        "evaluate_only": {"type": "boolean"},
    },
    "required": ["train"],
    "allOf": [
        # a lambda1 sweep trains, with the train settings, even when the run does not
        {
            "if": {
                "properties": {"evaluate_only": {"const": True}},
                "required": ["evaluate_only"],
                "not": {"required": ["lambda1_sweep"]},
            },
            "then": {
                "properties": {
                    "train": _unread(
                        "step", "iters", "grad_mode", "tol",
                        why="evaluate_only without a lambda1_sweep trains nothing",
                    )
                }
            },
        },
        # only a sweep builds a fresh model after a checkpoint
        {
            "if": {"required": ["checkpoint_in"], "not": {"required": ["lambda1_sweep"]}},
            "then": {
                "properties": {
                    **_unread("bandwidths", "output_dims", why=_NO_FRESH_MODEL)["properties"],
                    "train": _unread("seed", why=_NO_FRESH_MODEL),
                }
            },
            "else": {"required": ["bandwidths", "output_dims"]},
        },
    ],
}

_SPLIT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {"l_prime": _POSINT, "surrogates": _POSINT},
}

_NO_BOUND = "a squared-loss run has no excess-risk bound"

_SCHEMAS = {
    "bound-compare": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "seed": {"type": "integer"},
            "dataset": _dataset_schema(
                "teacher_anchors", "teacher_bandwidth", why="bound-compare reads no labels"
            ),
            "kernel": _KERNEL_SCHEMA,
            "mc": _MC_SCHEMA,
            "network": _NETWORK_SCHEMA,
            "split": {"type": "integer", "minimum": 0},
            "split_bound": _SPLIT_SCHEMA,
        },
        "required": ["dataset", "kernel", "mc", "network"],
    },
    "sketch-regress": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "seed": {"type": "integer"},
            "dataset": _dataset_schema(),
            "kernel": _KERNEL_SCHEMA,
            "loss": _LOSS_SCHEMA,
            "fit": _FIT_SCHEMA,
            "sketch": _SKETCH_SCHEMA,
            "conf_delta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            "emit_coefficients": {"type": "boolean"},
        },
        "required": ["dataset", "kernel", "loss", "fit", "sketch"],
        # both squared-loss fits are closed-form, and its bound entry is
        # "unbounded-loss", so conf_delta is unread
        "if": {
            "properties": {"loss": {"properties": {"family": {"const": "squared"}}}},
            "required": ["loss"],
        },
        "then": {
            "properties": {
                "fit": _unread(
                    "max_iters", "step_size", "tol", why="a squared-loss fit is closed-form"
                ),
                **_unread("conf_delta", why=_NO_BOUND)["properties"],
            }
        },
    },
    "deep-vvrkhs": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "seed": {"type": "integer"},
            "dataset": _dataset_schema(),
            "deep_model": _DEEP_SCHEMA,
        },
        "required": ["dataset", "deep_model"],
    },
    "spectral-report": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "seed": {"type": "integer"},
            "dataset": _dataset_schema(
                "m", "noise", "teacher_anchors", "teacher_bandwidth",
                why="spectral-report reads only the points",
            ),
            "kernel": _SCALAR_KERNEL_SCHEMA,
            "sketch": _SKETCH_SCHEMA,
        },
        "required": ["dataset", "kernel"],
    },
}


def _non_finite(value, path: tuple = ()):
    """The paths of the NaNs and infinities in a JSON value: ``json.load``
    reads them, and NaN passes every schema bound."""
    if isinstance(value, float) and not np.isfinite(value):
        yield path
    elif isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _non_finite(item, (*path, key))


def validate_config(subcommand: str, config: dict) -> None:
    # jsonschema loads here, not at import: it is the largest share of the
    # time to import this module that the package controls
    from jsonschema import Draft7Validator

    if subcommand not in _SCHEMAS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    for bad in _non_finite(config):
        raise ConfigError(f"config invalid at {'/'.join(map(str, bad))}: not a finite number")
    errors = sorted(
        Draft7Validator(_SCHEMAS[subcommand]).iter_errors(config),
        key=lambda e: list(e.absolute_path),
    )
    if errors:
        first = errors[0]
        path = "/".join(str(p) for p in first.absolute_path) or "<root>"
        # a key that its section's variant does not read fails a schema of _unread
        why = first.schema.get("description", first.message)
        raise ConfigError(f"config invalid at {path}: {why}")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):  # before int: bool subclasses int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if not np.isfinite(v):
            return repr(v)
        return v
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


#: Config keys whose library field has another name, by the dataclass built
_RENAMED = {SketchSpec: {"rows": "s"}, LayerSpec: {"ratio_G": "ratio_g"}}


def _build(cls, section: dict, **resolved):
    """``cls`` from a config section: every key that names one of its fields
    (after ``_RENAMED``), overridden by the values the CLI resolves.  Omitted
    keys take the dataclass defaults."""
    names = {f.name for f in fields(cls)}
    renamed = _RENAMED.get(cls, {})
    kwargs = {renamed.get(k, k): v for k, v in section.items()}
    kwargs = {k: v for k, v in kwargs.items() if k in names}
    return cls(**{**kwargs, **resolved})


def _resolve(path: str, base_dir: Path) -> Path:
    """A config path; relative ones resolve against the config directory."""
    return base_dir / path  # an absolute path replaces base_dir


def _load_matrix(value, key: str, base_dir: Path) -> np.ndarray:
    """The matrix config key ``key`` holds: inline rows, or ``{"csv": path}``."""
    if isinstance(value, dict):
        return _read_numbers(_resolve(value["csv"], base_dir))
    if len({len(row) for row in value}) > 1:
        raise ConfigError(f"{key}: matrix rows differ in length")
    return np.asarray(value, dtype=float)


def _build_dataset(cfg: dict, seed: int, base_dir: Path) -> tuple[Dataset, dict]:
    if cfg["kind"] == "csv":
        return read_csv(_resolve(cfg["path"], base_dir)), {"dataset": None}
    used = cfg.get("seed", seed)
    return synth_dataset(_build(GeneratorConfig, cfg, seed=used)), {"dataset": used}


def _build_kernel(cfg: dict, ds: Dataset, base_dir: Path) -> DecomposableKernel:
    """The kernel section's kernel on the d inputs and m outputs of ``ds``."""
    spec = _build(ScalarKernelSpec, cfg, dimension=ds.x.shape[1])
    out = cfg.get("output_matrix", "identity")
    if isinstance(out, str):
        m_mat = np.eye(ds.y.shape[1])
    else:
        m_mat = _load_matrix(out, "kernel/output_matrix", base_dir)
    return DecomposableKernel(spec, m_mat)


def _build_network(cfg: dict, base_dir: Path) -> NetworkSpec:
    # Draft-7 cannot select the last item of an array, so this rule is checked here
    last = len(cfg["layers"]) - 1
    if "activation_koopman_norm" in cfg["layers"][last]:
        raise ConfigError(
            f"config invalid at network/layers/{last}/activation_koopman_norm: the last "
            "layer has no activation, so no bound reads it"
        )
    layers = tuple(
        _build(
            LayerSpec,
            layer,
            weights=_load_matrix(layer["weights"], f"network/layers/{i}/weights", base_dir),
        )
        for i, layer in enumerate(cfg["layers"])
    )
    return _build(NetworkSpec, cfg, layers=layers)


def _build_sketch(cfg: dict, n: int, seed: int) -> tuple[Callable[[], np.ndarray], float, dict]:
    """A function that draws the s x n sketch matrix S, the satisfiability
    constant c of its keep-probability, and its resolved seed (``seed``
    unless the section sets one).  The spec is built and checked here; the
    draw is left to the caller, and S is a plain array from the draw on.
    The identity sketch is ``np.eye(n)``: it draws nothing and keeps every
    entry, so it has no seed and the default p = 1."""
    if cfg.get("dist") == "identity":
        return lambda: np.eye(n), satisfiability_constant(SketchSpec.p), {}
    spec = _build(SketchSpec, cfg, n=n, seed=cfg.get("seed", seed))
    c = satisfiability_constant(spec.p)
    return lambda: make_p_sparsified(spec).matrix, c, {"sketch": spec.seed}


#: Leading eigenvalues of G_k / n that a spectral-report prints.
_REPORTED_EIGENVALUES = 32


def _identity_pushforward(net: NetworkSpec, x: np.ndarray, upto: int) -> np.ndarray:
    """Push data through the first layers with identity activations; the
    harness convention for producing mid-space points.  The CLI takes no
    layer bias: it would shift every mid point alike, which the radial mid
    kernel does not see."""
    u = x
    for layer in net.layers[:upto]:
        u = u @ layer.weights.T
    return u


def _run_bound_compare(config: dict, ds: Dataset, seed: int, base_dir: Path) -> dict:
    kernel = _build_kernel(config["kernel"], ds, base_dir)
    net = _build_network(config["network"], base_dir)
    d, m = ds.x.shape[1], ds.y.shape[1]
    if net.layers[0].d_in != d:
        raise InputError(f"first layer takes {net.layers[0].d_in} inputs; the data has d = {d}")
    if kernel.output_dim != m:
        raise ConfigError(f"kernel output dim is {kernel.output_dim}; the data has m = {m}")
    mc_seed = config["mc"].get("seed", derive_seed(seed, 4))
    cfg_mc = _build(McConfig, config["mc"], seed=mc_seed)

    # every check runs before the one Monte-Carlo pass below; the data Gram
    # serves the ball estimate and the approximation term, the mid Gram the
    # surrogate norms, the class predictions and the approximation term
    g_k = gram_scalar(kernel.scalar, ds.x)
    ball = BallMc(g_k, kernel.output, ds.n)
    kappa, tr_m = kernel.scalar.kappa, kernel.trace_m()
    product = product_bound(net, kappa, tr_m, ds.n)
    split_at = config.get("split", 0)
    peeled = peeled_bound(net, split_at)

    sb_cfg = config.get("split_bound", {})
    l_prime = sb_cfg.get("l_prime", net.depth)
    n_sur = sb_cfg.get("surrogates", 3)
    mid = _identity_pushforward(net, ds.x, l_prime)
    spec_mid = ScalarKernelSpec("gaussian", kernel.scalar.bandwidth, dimension=mid.shape[1])
    g_mid = gram_scalar(spec_mid, mid)
    coeffs = np.empty((n_sur, ds.n, kernel.output_dim))
    for i in range(n_sur):
        raw = substream(mc_seed, 1000 + i).standard_normal((ds.n, kernel.output_dim))
        norm = _expansion_norm(g_mid, raw, kernel.output)
        target = net.g_norm * (i + 1) / n_sur
        scale = target / norm if norm > 0 else 0.0
        coeffs[i] = raw * scale
    split = SplitMc(net, l_prime, coeffs, kernel, g_k, g_mid)
    ball_est, *split_results = run_mc([ball, *split.estimators], cfg_mc)
    split_rep = split.report(*split_results)

    metrics = {
        "trace_bound": trace_bound(kappa, tr_m, ds.n),
        "rademacher_ball": {"estimate": ball_est.estimate, "stderr": ball_est.stderr},
        "product": product.to_dict(),
        "split": split_rep.to_dict(),
        "peeled": {"split": split_at, "value": peeled},
        "notes": "mid points use identity-activation pushforward",
    }
    return {"metrics": metrics, "resolved_seeds": {"mc": mc_seed}}


def _run_sketch_regress(config: dict, ds: Dataset, seed: int, base_dir: Path) -> dict:
    kernel = _build_kernel(config["kernel"], ds, base_dir)
    loss = _build(LossSpec, config["loss"])
    fit_cfg = _build(FitConfig, config["fit"])
    draw_sketch, c_val, sk_seeds = _build_sketch(config["sketch"], ds.n, derive_seed(seed, 2))

    # one Gram and one spectral decomposition serve both fits and the
    # spectral report, and one S G S^T the sketched fit and the report
    dec = kernel_spectrum(kernel.scalar, ds.x, LANCZOS_START)
    g_k = dec.gram

    def fit():
        return fit_full(kernel, ds.y, loss, fit_cfg, dec)

    def fit_on_sketch():
        sketch = draw_sketch()
        products = sketched_gram(sketch, g_k)
        sketched = fit_sketched(kernel, ds.y, loss, fit_cfg, products)
        return sketched, check_satisfiability(sketch, dec, c_val, products[1])

    # above N_DENSE both fits stream the n x n Gram through BLAS, so the
    # sketched one and the satisfiability test run on a worker thread, its
    # sketch drawn there too; below, the Lipschitz fits are Python-bound and
    # contend for the GIL (overlapped, a pinball run at n = 64 took about
    # 20% longer)
    if ds.n > N_DENSE:
        full, (sketched, report) = _overlap(fit, fit_on_sketch)
    else:
        full, (sketched, report) = fit(), fit_on_sketch()
    # each fit's K theta M, its predictions at the training points
    risk_full = empirical_risk(full.train_predictions, ds.y, loss)
    risk_sketched = empirical_risk(sketched.train_predictions, ds.y, loss)

    try:
        bound_entry = asdict(excess_risk_bound_rhs(
            j_l=lipschitz_constant(loss, kernel.output_dim),
            c=c_val,
            lambda_n=fit_cfg.lambda_n,
            m_opnorm=float(np.linalg.norm(kernel.output, 2)),
            delta_sq=dec.delta_sq,
            kappa=kernel.scalar.kappa,
            tr_m=kernel.trace_m(),
            n=ds.n,
            conf_delta=config.get("conf_delta", 0.05),
        ))
    except UnboundedLossError as exc:
        bound_entry = {"error": exc.category, "message": str(exc)}

    metrics = {
        "risk_full": risk_full,
        "risk_sketched": risk_sketched,
        "diagnostics_full": asdict(full.diagnostics),
        "diagnostics_sketched": asdict(sketched.diagnostics),
        "satisfiability": asdict(report),
        "excess_risk_bound": bound_entry,
    }
    if ds.teacher is not None:
        metrics["risk_teacher"] = empirical_risk(ds.teacher.at(ds.x), ds.y, loss)
    if config.get("emit_coefficients", False):
        metrics["coefficients"] = {
            "full": full.coeffs.tolist(),
            "sketched": sketched.coeffs.tolist(),
        }
    return {"metrics": metrics, "resolved_seeds": sk_seeds}


def _objective_entry(terms: tuple[float, float, float]) -> dict:
    return {"data": terms[0], "pf": terms[1], "top": terms[2], "total": sum(terms)}


def _fresh_model(deep: dict, ds: Dataset, seed: int):
    """The initial model of the deep section's layer bandwidths and widths on
    the d inputs and m outputs of ``ds``, and its resolved train seed."""
    if deep["output_dims"][-1] != ds.y.shape[1]:
        raise ConfigError("last output dim must equal the dataset output dim")
    if len(deep["bandwidths"]) != len(deep["output_dims"]):
        raise ConfigError("bandwidths and output_dims must have equal length")
    dims_in = [ds.x.shape[1]] + list(deep["output_dims"][:-1])
    kernels = [
        ScalarKernelSpec("gaussian", bw, dimension=d_in)
        for bw, d_in in zip(deep["bandwidths"], dims_in)
    ]
    outputs = [np.eye(dim) for dim in deep["output_dims"]]
    train_seed = deep["train"].get("seed", derive_seed(seed, 5))
    return init_layered_model(ds.x, kernels, outputs, seed=train_seed), train_seed


def _run_deep(config: dict, ds: Dataset, seed: int, base_dir: Path) -> dict:
    deep, seeds = config["deep_model"], {}
    # after a checkpoint only a sweep trains a fresh model
    if "checkpoint_in" not in deep or "lambda1_sweep" in deep:
        fresh_model, seeds["train"] = _fresh_model(deep, ds, seed)
    t_cfg = _build(TrainConfig, deep["train"])
    if "checkpoint_in" in deep:
        with open(_resolve(deep["checkpoint_in"], base_dir)) as fh:
            model = model_from_dict(json.load(fh))
    else:
        model = fresh_model
    # one objective per trained model: G_bottom is whitened once for the
    # initial and final terms, the training and the bound
    objective = DeepObjective(model, ds.x, ds.y)
    if deep.get("evaluate_only", False):
        point = objective.forward(model.coeffs)
        result = TrainResult(model, point, point)
    else:
        result = train(objective, t_cfg)
    init_terms = objective.terms(result.first, t_cfg.lambda1, t_cfg.lambda2)
    final_terms = objective.terms(result.last, t_cfg.lambda1, t_cfg.lambda2)
    result.last.drop_grams()  # its norms are set; what follows needs at most its levels

    kappa = result.model.layers[0].kernel.kappa
    tr_m1 = float(np.trace(result.model.layers[0].output))
    pf_rep = objective.pf_bound(result.last)
    pf, top = pf_rep["pf_norm"], pf_rep["top_norm"]
    epochs = [
        {
            "iteration": entry["iteration"],
            "objective": entry["objective"],
            "pf_bound": objective.pf_total(entry["pf_norm"], entry["top_norm"]),
            "separable_printed": separable_bound(
                kappa, tr_m1, ds.n, entry["pf_norm"], entry["top_norm"]
            ),
            "pf_norm": entry["pf_norm"],
            "top_norm": entry["top_norm"],
        }
        for entry in result.trajectory
    ]

    metrics = {
        "initial_objective": _objective_entry(init_terms),
        "final_objective": _objective_entry(final_terms),
        "iterations": result.iterations,
        "forward_passes": result.forward_passes,
        "eigh_fallbacks": result.eigh_fallbacks,
        "converged": result.converged,
        "epochs": epochs,
        "pf_bound": pf_rep,
        "separable": {"printed": separable_bound(kappa, tr_m1, ds.n, pf, top)},
    }

    if "refine" in deep:
        direction = deep["refine"]["direction"]
        scale = deep["refine"]["scale"]
        a_mat = scale * result.model.layers[-1].output
        try:
            refined = refine_kernel(result.model, a_mat, direction)
            tr_a = float(np.trace(refined.layers[0].output))
            metrics["refinement"] = {
                "direction": direction,
                "scale": scale,
                "accepted": True,
                "pf_bound_after_frozen_factors": trace_bound(kappa, tr_a, ds.n) * pf * top,
            }
        except RefinementOrderError as exc:
            metrics["refinement"] = {
                "direction": direction,
                "scale": scale,
                "accepted": False,
                "reason": str(exc),
            }

    if "lambda1_sweep" in deep:
        # the entry of the config just trained from a fresh model is that run
        trained_fresh = "checkpoint_in" not in deep and not deep.get("evaluate_only", False)
        # without a checkpoint the run's model is the fresh one
        fresh = DeepObjective(fresh_model, ds.x, ds.y) if "checkpoint_in" in deep else objective
        sweep = []
        for lam1 in deep["lambda1_sweep"]:
            if trained_fresh and lam1 == t_cfg.lambda1:
                final_pf = pf
            else:
                # only the final norm is kept, so no trajectory is recorded
                swept = train(fresh, replace(t_cfg, lambda1=lam1), trajectory=False)
                final_pf = fresh.pf_norm(swept.last)
            sweep.append({"lambda1": lam1, "final_pf_norm": final_pf})
        metrics["lambda1_sweep"] = sweep

    if "checkpoint_out" in deep:
        # written last, after every metric computed, so failures leave nothing
        with open(_resolve(deep["checkpoint_out"], base_dir), "w") as fh:
            json.dump(_jsonify(model_to_dict(result.model)), fh, indent=2)
        metrics["checkpoint"] = deep["checkpoint_out"]

    return {"metrics": metrics, "resolved_seeds": seeds}


def _run_spectral(config: dict, ds: Dataset, seed: int, base_dir: Path) -> dict:
    spec = _build(ScalarKernelSpec, config["kernel"], dimension=ds.x.shape[1])
    dec = kernel_spectrum(spec, ds.x, _REPORTED_EIGENVALUES)
    metrics = {
        "delta_sq": dec.delta_sq,
        "d_n": dec.d_n,
        "eigenvalues_top": dec.mu[:_REPORTED_EIGENVALUES].tolist(),
    }
    seeds = {}
    if "sketch" in config:
        draw_sketch, c_val, seeds = _build_sketch(config["sketch"], ds.n, derive_seed(seed, 2))
        sketch = draw_sketch()
        sgs = sketched_gram(sketch, dec.gram)[1]
        metrics["satisfiability"] = asdict(check_satisfiability(sketch, dec, c_val, sgs))
    return {"metrics": metrics, "resolved_seeds": seeds}


_RUNNERS = {
    "bound-compare": _run_bound_compare,
    "sketch-regress": _run_sketch_regress,
    "deep-vvrkhs": _run_deep,
    "spectral-report": _run_spectral,
}


def run(subcommand: str, config: dict, seed: int | None, base_dir: Path) -> dict:
    """Validate, build the dataset, run the subcommand on it, and assemble a
    result record (not yet serialized)."""
    validate_config(subcommand, config)
    master = seed if seed is not None else config.get("seed", 0)
    with single_blas_thread():
        ds, seeds = _build_dataset(config["dataset"], derive_seed(master, 1), base_dir)
        outcome = _RUNNERS[subcommand](config, ds, master, base_dir)
    return {
        "subcommand": subcommand,
        "library_version": __version__,
        "seed": master,
        "resolved_seeds": {**seeds, **outcome["resolved_seeds"]},
        "config": config,
        "metrics": outcome["metrics"],
    }


def _flatten(prefix: str, obj, out: list) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out.append((prefix, obj))


def render_record(record: dict, fmt: str) -> str:
    record = _jsonify(record)
    if fmt == "json":
        return json.dumps(record, indent=2) + "\n"
    rows: list = []
    _flatten("", record["metrics"], rows)
    lines = ["metric,value"]
    lines += [f"{k},{v}" for k, v in rows]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="opbounds",
        description="Generalization-bound experiment harness",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    args = parser.parse_args(argv)

    config_path = Path(args.config)
    started = time.perf_counter()
    try:
        with open(config_path, encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigError("config root must be a JSON object")
        record = run(args.subcommand, config, args.seed, config_path.parent)
        payload = render_record(record, args.format)
        # output is written only after the whole run succeeded
        with open(args.out, "w") as fh:
            fh.write(payload)
    except OpboundsError as exc:
        err = {"error": exc.category, "message": str(exc)}
        print(json.dumps(err), file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    print(f"{args.subcommand}: wrote {args.out} in {elapsed:.3f}s", file=sys.stderr)
    return 0
