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

from opbounds import deepvv
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

# the same run under a non-identity (tridiagonal) output matrix, so the
# Monte-Carlo forms apply M rather than skip it
BOUND_COMPARE_M = {
    **BOUND_COMPARE,
    "kernel": {**BOUND_COMPARE["kernel"],
               "output_matrix": [[1.0, 0.3, 0.0], [0.3, 1.0, 0.3], [0.0, 0.3, 1.0]]},
}

SKETCH_REGRESS = {
    "dataset": {"kind": "synthetic", "n": 16, "d": 2, "m": 2, "noise": 0.1},
    "kernel": {"family": "gaussian", "bandwidth": 1.0},
    "loss": {"family": "pinball", "quantiles": [0.1, 0.9]},
    "fit": {"lambda_n": 0.05, "max_iters": 8, "step_size": 0.5, "tol": 1e-7},
    "sketch": {"rows": 4, "p": 0.25, "dist": "rademacher"},
    "emit_coefficients": True,
}

# the Lipschitz fits under a Huber loss and the tridiagonal M, so the data
# term, its subgradient and the proximal map all apply M
SKETCH_REGRESS_HUBER_M = {
    **SKETCH_REGRESS,
    "dataset": {**SKETCH_REGRESS["dataset"], "m": 3},
    "kernel": BOUND_COMPARE_M["kernel"],
    "loss": {"family": "huber", "huber_delta": 0.5},
}

SPECTRAL = {
    "dataset": {"kind": "synthetic", "n": 24, "d": 3},
    "kernel": {"family": "matern", "bandwidth": 0.5, "smoothness": 1.5},
    "sketch": {"rows": 8, "p": 0.5, "dist": "rademacher"},
}

# above N_DENSE points: a certified Gram (Matern nu = 1.5) through Lanczos,
# the deflated CG and the two fits on two threads, and an uncertified one
# (nu = 0.5) through the Cholesky PSD verdict
SKETCH_REGRESS_LARGE = {
    "dataset": {"kind": "synthetic", "n": 300, "d": 3, "m": 2, "noise": 0.1},
    "kernel": {"family": "matern", "bandwidth": 0.5, "smoothness": 1.5},
    "loss": {"family": "squared"},
    "fit": {"lambda_n": 0.01},
    "sketch": {"rows": 40, "p": 0.1, "dist": "rademacher"},
}

SPECTRAL_LARGE = {
    "dataset": {"kind": "synthetic", "n": 300, "d": 3},
    "kernel": {"family": "matern", "bandwidth": 0.5, "smoothness": 0.5},
    "sketch": {"rows": 40, "p": 0.5, "dist": "rademacher"},
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
    "bound-compare-m": "3f99c58264682ededfdbfaf075756d4b34f9bddb3eb47333e545fac0a67b39f4",
    "sketch-regress": "7334d79c500b8edc0b1c0d3156db408c11e5f975307420441e2267774b3fa360",
    "sketch-regress-huber-m": "66519ab30e7bc12f2fdefc7973a0172807ea6a4e41de0a8d62c8c06edf7517a8",
    "spectral-report": "31dcaa46daeafecbab90cc8146e7235de93c2c0d45eb86893e07a5329d027021",
    "sketch-regress-large": "265aec4a819fd5b0e49e19f99bfca6f11c9cde2b9c0279ba26cf877745b0b497",
    "spectral-report-large": "8e8f22edb02c276923cd7559e3aeb2168124b0dbdd5d86445ebd652f8a0fed67",
    "deep-vvrkhs": "15ffc68aed88e49f9c43f3454b5e4ca75e134f7fe30ced2cc1fab45651966f7f",
    "checkpoint": "7854538e1478c5b2e5e703362a9d0fe975a46f85c1a6dab400b8302f6ad230b3",
    "checkpoint-reload": "712df4c0744a7cf7fb984f2db3974e101bfeee56547c2a0e32eba93aad0db5e3",
    # every gradient's eigenvector from eigh; the record without eigh_fallbacks
    "deep-vvrkhs-eigh": "26b854b3a36b180a8b31234a701388ff9fe6f33c49b4b5431f040241fd069c8e",
    "checkpoint-eigh": "9b23b4a562fc5a214725fc123247cc6a9b4aac3642ae948ddc609104c161e8cd",
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


@pytest.mark.parametrize(
    "subcommand, config",
    [("sketch-regress", SKETCH_REGRESS_LARGE), ("spectral-report", SPECTRAL_LARGE)],
)
def test_record_bytes_above_n_dense(subcommand, config, tmp_path):
    assert _record_digest(subcommand, config, tmp_path) == DIGESTS[f"{subcommand}-large"]


def test_bound_compare_record_bytes_under_tridiagonal_m(tmp_path):
    digest = _record_digest("bound-compare", BOUND_COMPARE_M, tmp_path)
    assert digest == DIGESTS["bound-compare-m"]


def test_sketch_regress_record_bytes_under_huber_loss_and_tridiagonal_m(tmp_path):
    digest = _record_digest("sketch-regress", SKETCH_REGRESS_HUBER_M, tmp_path)
    assert digest == DIGESTS["sketch-regress-huber-m"]


def test_deep_record_checkpoint_and_reload_bytes(tmp_path):
    assert _record_digest("deep-vvrkhs", DEEP, tmp_path) == DIGESTS["deep-vvrkhs"]
    assert _sha256((tmp_path / "model.json").read_bytes()) == DIGESTS["checkpoint"]
    assert _record_digest("deep-vvrkhs", RELOAD, tmp_path) == DIGESTS["checkpoint-reload"]


def test_deep_record_with_every_eigenvector_from_eigh(monkeypatch, tmp_path):
    # when inverse iteration gives no vector, every gradient takes eigh's
    # eigenpair, with its own rho, and counts one eigh_fallback; the
    # record less that count and the checkpoint have the eigh-only bytes
    monkeypatch.setattr(deepvv, "_top_eigenvector", lambda s, rho: None)
    record = run("deep-vvrkhs", DEEP, SEED, tmp_path)
    assert record["metrics"].pop("eigh_fallbacks") == DEEP["deep_model"]["train"]["iters"]
    assert _sha256(render_record(record, "json")) == DIGESTS["deep-vvrkhs-eigh"]
    assert _sha256((tmp_path / "model.json").read_bytes()) == DIGESTS["checkpoint-eigh"]
