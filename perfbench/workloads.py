"""The four benchmark workloads: CLI configs, sizes and why each was chosen.

Every workload is one ``opbounds`` subcommand with a synthetic dataset.  A run
times a panel of instances whose master seeds come from the benchmark's
``--seed`` (see :func:`instance_seed`); the correctness reference is one extra
instance per workload at the fixed :data:`REFERENCE_SEED`.

``tiny=True`` gives the same code paths at toy sizes, for the smoke test.
This module imports nothing heavy, so ``run.py`` can pin BLAS threads before
numpy is loaded.
"""

from __future__ import annotations

import copy

#: Master seed of the committed reference instance (the README example's seed).
REFERENCE_SEED = 5

#: Panel instances per benchmark seed; instance j of seed s has master seed
#: s * PANEL_STRIDE + j.
PANEL_STRIDE = 1000

_NETWORK = {
    "g_norm": 1.0,
    "output_dim": 3,
    "layers": [
        {
            "weights": [[1.0, 0.2], [0.1, 0.9], [0.3, -0.4]],
            "activation_koopman_norm": 1.5,
        },
        {
            "weights": [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [0.5, 0.5, 0.5],
            ]
        },
    ],
}

_CONFIGS = {
    # The README sketch-regress example with max_iters 40 instead of 200: at
    # 200 iterations the number of objective evaluations varies by 32% (CV)
    # between seeds, at 40 by 10%, so a 40-iteration panel is steady in a run.
    "sketch-pinball": (
        "sketch-regress",
        {
            "dataset": {"kind": "synthetic", "n": 64, "d": 2, "m": 2, "noise": 0.1},
            "kernel": {"family": "gaussian", "bandwidth": 1.0, "output_matrix": "identity"},
            "loss": {"family": "pinball", "quantiles": [0.1, 0.9]},
            "fit": {"lambda_n": 0.05, "max_iters": 40, "step_size": 0.5, "tol": 1e-7},
            "sketch": {"rows": 16, "p": 0.25, "dist": "rademacher"},
            "emit_coefficients": False,
        },
    ),
    "sketch-squared-large": (
        "sketch-regress",
        {
            "dataset": {"kind": "synthetic", "n": 1500, "d": 3, "m": 3, "noise": 0.1},
            "kernel": {
                "family": "matern",
                "bandwidth": 0.5,
                "smoothness": 1.5,
                "output_matrix": [[1.0, 0.3, 0.0], [0.3, 1.0, 0.3], [0.0, 0.3, 1.0]],
            },
            "loss": {"family": "squared"},
            "fit": {"lambda_n": 0.01},
            "sketch": {"rows": 150, "p": 0.1, "dist": "rademacher"},
        },
    ),
    "bound-split": (
        "bound-compare",
        {
            "dataset": {"kind": "synthetic", "n": 200, "d": 2, "m": 3, "noise": 0.1},
            "kernel": {"family": "gaussian", "bandwidth": 1.0, "output_matrix": "identity"},
            "mc": {"draws": 4096},
            "network": _NETWORK,
            "split": 1,
            "split_bound": {"l_prime": 1, "surrogates": 4},
        },
    ),
    "deep-train": (
        "deep-vvrkhs",
        {
            "dataset": {"kind": "synthetic", "n": 96, "d": 2, "m": 2, "noise": 0.1},
            "deep_model": {
                "bandwidths": [1.0, 1.0, 1.0],
                "output_dims": [2, 2, 2],
                "train": {
                    "lambda1": 0.1,
                    "lambda2": 0.1,
                    "step": 0.3,
                    "iters": 50,
                    "grad_mode": "analytic",
                },
                "lambda1_sweep": [0.0, 0.1],
                "refine": {"direction": "shrink", "scale": 0.5},
            },
        },
    ),
}

# (path into the config, tiny value) pairs; everything else stays as above
_TINY = {
    "sketch-pinball": [
        (("dataset", "n"), 16),
        (("fit", "max_iters"), 5),
        (("sketch", "rows"), 4),
    ],
    "sketch-squared-large": [
        (("dataset", "n"), 60),
        (("sketch", "rows"), 12),
    ],
    "bound-split": [
        (("dataset", "n"), 20),
        (("mc", "draws"), 256),
    ],
    "deep-train": [
        (("dataset", "n"), 12),
        (("deep_model", "train", "iters"), 3),
    ],
}

#: Why each workload exists, which per-layer metrics it should move and which
#: end-to-end metrics an optimisation of its layers must leave unchanged on the
#: other workloads.
WHY = {
    "sketch-pinball": {
        "why": (
            "README pinball sketch-regress (40 iterations): ~90% of run time is "
            "per-row loss_value calls inside ERM objective evaluations; Grams are 64x64"
        ),
        "moves": [
            "losses.value_calls", "losses.subgrad_calls", "erm.objective_evals",
            "erm.objective_pct", "erm.fit_pct", "erm.iterations", "erm.accept_ratio",
        ],
        "unchanged": "run_cal on sketch-squared-large, bound-split and deep-train",
    },
    "sketch-squared-large": {
        "why": (
            "n=1500 Matern squared-loss sketch-regress: closed-form ERM, time split "
            "between Gram assembly and eigh; sparse-COO sketch branch (p=0.1)"
        ),
        "moves": [
            "kernels.gram_calls", "kernels.gram_s", "kernels.gram_mb",
            "spectral.eig_calls", "spectral.eig_s", "spectral.eigendecompose_pct",
            "spectral.satisfiability_pct", "sketching.sketch_pct",
            "sketching.sketch_entries",
        ],
        "unchanged": "run_cal on sketch-pinball (loss vectorisation must not move it)",
    },
    "bound-split": {
        "why": (
            "bound-compare with a layer split, 4096 draws over 600-wide sign blocks: "
            "Monte-Carlo einsums, dense Kronecker Gram PSD check, per-row expansion calls"
        ),
        "moves": [
            "complexity.ball_mc_pct", "complexity.class_mc_pct", "complexity.draws",
            "complexity.draws_per_s", "kernels.expansion_calls",
            "koopman.approx_mc_pct", "koopman.split_pct", "koopman.rejected_draws",
        ],
        "unchanged": "run_cal on sketch-pinball, sketch-squared-large and deep-train",
    },
    "deep-train": {
        "why": (
            "3-layer deep-vvrkhs training, 50 iterations plus a lambda1 sweep: "
            "pencil_max eigensolves on a fixed G_bottom; the only workload using deepvv"
        ),
        "moves": [
            "deepvv.train_pct", "deepvv.objective_evals", "deepvv.gradient_calls",
            "deepvv.gradient_pct", "deepvv.pf_norm_calls", "deepvv.pf_norm_pct",
            "deepvv.accept_ratio", "deepvv.fd_fallbacks", "spectral.pencil_calls",
            "spectral.pencil_pct",
        ],
        "unchanged": "run_cal on sketch-pinball, sketch-squared-large and bound-split",
    },
}

NAMES = tuple(_CONFIGS)


def subcommand(name: str) -> str:
    return _CONFIGS[name][0]


def config(name: str, master_seed: int, tiny: bool = False) -> dict:
    """The CLI config of one instance; a fresh dict on every call."""
    cfg = copy.deepcopy(_CONFIGS[name][1])
    cfg["seed"] = int(master_seed)
    if tiny:
        for path, value in _TINY[name]:
            node = cfg
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
    return cfg


def instance_seed(bench_seed: int, index: int) -> int:
    """Master seed of panel instance ``index`` for benchmark seed ``bench_seed``."""
    if not 0 <= index < PANEL_STRIDE:
        raise ValueError(f"panel index {index} outside [0, {PANEL_STRIDE})")
    return int(bench_seed) * PANEL_STRIDE + index
