"""The exact bytes of small records and of a deep checkpoint, pinned by SHA-256.

Records are meant to be a pure function of (config, seed), down to the byte.
Each config below is small and runs one subcommand at master seed 5; the test
renders its record in process (``cli.run`` pins BLAS to one thread) and
compares the digest with the pinned one.  A change that moves record bytes on
purpose (a new summation order, a closed-form kernel) updates the digests here
and lists the moved fields in CHANGES.md; any other change must leave them
alone.  The digests belong to one numpy/OpenBLAS build: a different build can
round GEMM results differently in the last bit.
"""

import hashlib

import pytest

from opbounds.cli import render_record, run

SEED = 5

BOUND_COMPARE = {
    "dataset": {"kind": "synthetic", "n": 20, "d": 2, "m": 3},
    "kernel": {"family": "gaussian", "bandwidth": 1.0},
    "mc": {"draws": 600},
    "network": {
        "g_norm": 1.0,
        "output_dim": 3,
        "layers": [
            {"weights": [[1.0, 0.2], [0.1, 0.9], [0.3, -0.4]], "activation_koopman_norm": 1.5,
             "sobolev_order_in": 2.0},
            {"weights": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                         [0.5, 0.5, 0.5]], "sobolev_order_in": 2.0},
        ],
    },
    "split": 1,
    "split_bound": {"l_prime": 1, "surrogates": 3},
}

SKETCH_REGRESS = {
    "dataset": {"kind": "synthetic", "n": 16, "d": 2, "m": 2, "noise": 0.1},
    "kernel": {"family": "gaussian", "bandwidth": 1.0},
    "loss": {"family": "pinball", "quantiles": [0.1, 0.9]},
    "fit": {"lambda_n": 0.05, "max_iters": 8, "step_size": 0.5, "tol": 1e-7},
    "sketch": {"rows": 4, "p": 0.25, "dist": "rademacher"},
    "emit_coefficients": True,
}

SPECTRAL = {
    "dataset": {"kind": "synthetic", "n": 24, "d": 3},
    "kernel": {"family": "matern", "bandwidth": 0.5, "smoothness": 1.5},
    "sketch": {"rows": 8, "p": 0.5, "dist": "rademacher"},
}

DEEP = {
    "dataset": {"kind": "synthetic", "n": 12, "d": 2, "m": 2, "noise": 0.1},
    "deep_model": {
        "bandwidths": [1.0, 1.0, 1.0],
        "output_dims": [2, 2, 2],
        "train": {"lambda1": 0.1, "lambda2": 0.1, "step": 0.3, "iters": 4},
        "lambda1_sweep": [0.0, 0.1],
        "refine": {"direction": "shrink", "scale": 0.5},
        "checkpoint_out": "model.json",
    },
}

# an evaluate-only run on the checkpoint that DEEP writes
RELOAD = {
    "dataset": DEEP["dataset"],
    "deep_model": {"checkpoint_in": "model.json", "evaluate_only": True,
                   "train": {"lambda1": 0.1, "lambda2": 0.1}},
}

DIGESTS = {
    "bound-compare": "351e797196b49b8160107b79cb1b5b38b2ad1c7a115526db332612b4a5c10c9f",
    "sketch-regress": "37493425a1a023366d4d8f89e1069d6883cfbb7f0c45f972438f952ad40073e7",
    "spectral-report": "2cf4b9f060f58aa3b8fc2d71ffd9aa3bd9744aa87a3d2cdef57358b99d61c0bf",
    "deep-vvrkhs": "24e1e3f8fde506b99e5acba1bcc14abdf457f1be42c91990b34c5abf1d8e9339",
    "checkpoint": "9b23b4a562fc5a214725fc123247cc6a9b4aac3642ae948ddc609104c161e8cd",
    "checkpoint-reload": "8ad6444d2c8f87fcb6663316ae5a5b18ab7051330dbd6fa2d9304861a0e576e3",
}


def _sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _record_digest(subcommand, config, base_dir) -> str:
    return _sha256(render_record(run(subcommand, config, SEED, base_dir), "json"))


@pytest.mark.parametrize(
    "subcommand, config",
    [("bound-compare", BOUND_COMPARE), ("sketch-regress", SKETCH_REGRESS),
     ("spectral-report", SPECTRAL)],
)
def test_record_bytes(subcommand, config, tmp_path):
    assert _record_digest(subcommand, config, tmp_path) == DIGESTS[subcommand]


def test_deep_record_checkpoint_and_reload_bytes(tmp_path):
    assert _record_digest("deep-vvrkhs", DEEP, tmp_path) == DIGESTS["deep-vvrkhs"]
    assert _sha256((tmp_path / "model.json").read_bytes()) == DIGESTS["checkpoint"]
    assert _record_digest("deep-vvrkhs", RELOAD, tmp_path) == DIGESTS["checkpoint-reload"]
