"""Monte-Carlo estimation of empirical vector-valued Rademacher complexity.

For the unit ball of a vvRKHS the inner supremum has the closed form
``sup_{||f|| <= 1} |sum_i <sigma_i, f(x_i)>| = sqrt(sigma^T G_K sigma)`` by
the reproducing property, so the estimate reduces to quadratic forms in the
operator Gram.  Sign draws come in fixed-size blocks, each from its own
counter-based substream, and are reduced in block order: results are
deterministic and schedule-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from ._rng import substream
from .errors import InputError, NotPsdError
from .kernels import as_points

_BLOCK = 512


@dataclass(frozen=True)
class McConfig:
    draws: int
    seed: int = 0

    def __post_init__(self):
        if self.draws < 1:
            raise InputError("draws must be >= 1")


class McEstimate(NamedTuple):
    estimate: float
    stderr: float


def sign_blocks(total: int, width: int, seed: int) -> Iterator[np.ndarray]:
    """Blocks of +-1 draws of shape (block, width); block c uses substream c."""
    for c, start in enumerate(range(0, total, _BLOCK)):
        g = substream(seed, c)
        count = min(_BLOCK, total - start)
        yield g.integers(0, 2, size=(count, width)) * 2.0 - 1.0


def _check_psd(g: np.ndarray) -> None:
    vals = np.linalg.eigvalsh(0.5 * (g + g.T))
    scale = max(abs(vals[-1]), 1.0) if vals.size else 1.0
    if vals.size and vals[0] < -1e-10 * scale:
        raise NotPsdError(f"Gram has eigenvalue {vals[0]}, not PSD")


def _quad_forms(rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sigma^T G sigma for every row sigma of ``rows``: one GEMM, then a
    row-wise dot product (a three-operand einsum would skip BLAS)."""
    return np.einsum("ij,ij->i", rows @ g, rows)


def _mean_stderr(block_vals: Iterator[np.ndarray], cfg: McConfig, n: int) -> McEstimate:
    """Mean of ``cfg.draws`` values, given block by block, and its standard
    error, both divided by n."""
    total = 0.0
    total_sq = 0.0
    for vals in block_vals:
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    mean = total / cfg.draws
    var = max(total_sq / cfg.draws - mean * mean, 0.0)
    se = np.sqrt(var / cfg.draws)
    return McEstimate(estimate=mean / n, stderr=float(se) / n)


def rademacher_ball_mc(g_op: np.ndarray, n: int, cfg: McConfig) -> McEstimate:
    """(1/n) E sqrt(sigma^T G_K sigma) over Rademacher sigma, with its
    Monte-Carlo standard error."""
    g = np.asarray(g_op, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise InputError(f"operator Gram must be square, got {g.shape}")
    _check_psd(g)
    blocks = sign_blocks(cfg.draws, g.shape[0], cfg.seed)
    vals = (np.sqrt(np.maximum(_quad_forms(b, g), 0.0)) for b in blocks)
    return _mean_stderr(vals, cfg, n)


def rademacher_ball_exact(g_op: np.ndarray, n: int) -> float:
    """Exact expectation by enumerating all sign patterns; nm <= 16 only."""
    g = np.asarray(g_op, dtype=float)
    width = g.shape[0]
    if width > 16:
        raise InputError(f"exact enumeration limited to width 16, got {width}")
    codes = np.arange(1 << width, dtype=np.uint32)
    bits = (codes[:, None] >> np.arange(width)[None, :]) & 1
    signs = bits * 2.0 - 1.0
    quad = np.maximum(_quad_forms(signs, g), 0.0)
    return float(np.mean(np.sqrt(quad))) / n


def trace_bound(kappa: float, tr_m: float, n: int) -> float:
    """sqrt(kappa * Tr(M) / n), the Jensen bound on the unit-ball complexity."""
    if kappa < 0 or tr_m < 0 or n < 1:
        raise InputError("trace bound needs nonnegative kappa, Tr(M) and n >= 1")
    return float(np.sqrt(kappa * tr_m / n))


def rademacher_class_mc(
    predictors: Sequence[Callable],
    data,
    m: int,
    cfg: McConfig,
) -> McEstimate:
    """(1/n) E max_f |sum_i <sigma_i, f(x_i)>| over a finite class.

    Lower-bounds the complexity of any class containing the listed functions.
    """
    if not predictors:
        raise InputError("predictor list must be nonempty")
    x = as_points(data)
    n = x.shape[0]
    evals = np.stack(
        [
            np.asarray([np.asarray(f(x[i : i + 1]), dtype=float).ravel() for i in range(n)])
            for f in predictors
        ]
    )  # (n_pred, n, m)
    if evals.shape[2] != m:
        raise InputError(f"predictors return dimension {evals.shape[2]}, expected {m}")
    flat = evals.reshape(len(predictors), n * m)
    blocks = sign_blocks(cfg.draws, n * m, cfg.seed)
    return _mean_stderr((np.abs(b @ flat.T).max(axis=1) for b in blocks), cfg, n)
