"""Monte-Carlo estimation of empirical vector-valued Rademacher complexity.

For the unit ball of a vvRKHS the inner supremum has the closed form
``sup_{||f|| <= 1} |sum_i <sigma_i, f(x_i)>| = sqrt(sigma^T G_K sigma)`` by
the reproducing property, so the estimate reduces to quadratic forms in the
operator Gram.  For a decomposable kernel ``G_K = G_k (x) M`` is never
assembled: the forms are computed from the factors as
``sigma^T (G_k (x) M) sigma = <Sigma, G_k Sigma M>`` with ``Sigma`` the
(n, m) reshape of ``sigma``, and a dense nm x nm Gram is the case
``M = [[1.0]]``.  Sign draws come in fixed-size blocks, each from its own
counter-based substream, and are reduced in block order: results are
deterministic and schedule-independent.

Each estimator (:class:`BallMc`, :class:`ClassMc`, and the split bound's
``koopman.ApproxMc``) is a per-block accumulator whose checks all run when it
is built, before any draw.  One loop, :func:`run_mc`, draws every block once
and feeds it to all the estimators of a pass, and a form on a Gram that
several of them read is computed once per block; so estimators that share a
pass read the same signs and give the same values as when run one by one.
A single estimate is ``(est,) = run_mc([BallMc(g, out, n)], cfg)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ._rng import substream
from .errors import InputError, NumericError
from .kernels import finite_matrix, require_psd

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


def _check_psd(g: np.ndarray, out: np.ndarray) -> None:
    """Raise NotPsdError unless G (x) M is PSD; its eigenvalues are the
    pairwise products of the factors' eigenvalues."""
    vals = np.outer(
        np.linalg.eigvalsh(0.5 * (g + g.T)), np.linalg.eigvalsh(0.5 * (out + out.T))
    )
    require_psd(vals, "Gram")


def _quad_forms(rows: np.ndarray, g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sigma^T (G (x) M) sigma = <Sigma, G Sigma M^T> for every row sigma of
    ``rows``, read as the row-major (n, m) matrix Sigma (the index order of
    ``np.kron(g, out)``).

    All rows go through one (n x n) @ (n x mc) GEMM; M is then applied along
    the m axis and each form finished by a dot product.  A three-operand
    einsum would skip BLAS, and a batched ``G @ Sigma`` is slower than one
    GEMM on the dense Gram.  Column-major ``rows`` are read without a copy."""
    n, m = g.shape[0], out.shape[0]
    c = rows.shape[0]
    w = np.ascontiguousarray(rows.T).reshape(n, m, c)
    gw = (g @ w.reshape(n, m * c)).reshape(n, m, c)
    return np.einsum("iar,iar->r", w, np.matmul(out, gw))


class SignBlock:
    """One sign block and the quadratic forms read from it: each (Gram, M)
    pair is computed once, however many estimators read it.  Pairs are told
    apart by identity, so estimators that share a Gram must hold the same
    array object (they keep it alive for the whole pass)."""

    __slots__ = ("signs", "_signs_f", "_forms")

    def __init__(self, signs: np.ndarray):
        self.signs = signs
        # column-major copy, made for the first form: its transpose is the
        # C-ordered layout _quad_forms works on, so each block is laid out once
        self._signs_f = None
        self._forms: dict = {}

    def forms(self, g: np.ndarray, out: np.ndarray) -> np.ndarray:
        """max(sigma^T (g (x) out) sigma, 0) for every draw of the block;
        shared between readers, so never modify it in place."""
        key = (id(g), id(out))
        q = self._forms.get(key)
        if q is None:
            if self._signs_f is None:
                self._signs_f = np.asfortranarray(self.signs)
            q = self._forms[key] = np.maximum(_quad_forms(self._signs_f, g, out), 0.0)
        return q


def run_mc(estimators: Sequence, cfg: McConfig) -> list:
    """The one Monte-Carlo loop: draw every sign block of ``cfg`` once, hand
    it to each estimator's ``add``, and return each estimator's ``result()``
    in order.  One block is alive at a time; the estimators share one sign
    width, their ``width`` attribute."""
    for signs in sign_blocks(cfg.draws, estimators[0].width, cfg.seed):
        block = SignBlock(signs)
        for est in estimators:
            est.add(block)
        del block  # freed before the next block is drawn
    return [est.result() for est in estimators]


class _MeanMc:
    """Per-draw values summed block by block; ``result`` is their mean and
    standard error, both divided by n."""

    def __init__(self, n: int, width: int):
        self.n, self.width = n, width
        self.draws = 0
        self.total = 0.0
        self.total_sq = 0.0

    def _add_values(self, vals: np.ndarray) -> None:
        self.draws += vals.shape[0]
        self.total += float(vals.sum())
        self.total_sq += float((vals * vals).sum())

    def result(self) -> McEstimate:
        mean = self.total / self.draws
        var = max(self.total_sq / self.draws - mean * mean, 0.0)
        se = np.sqrt(var / self.draws)
        return McEstimate(estimate=mean / self.n, stderr=float(se) / self.n)


class BallMc(_MeanMc):
    """(1/n) E sqrt(sigma^T (G (x) M) sigma) over Rademacher sigma, with its
    Monte-Carlo standard error.

    ``g`` is the scalar Gram G_k and ``out`` the output matrix M of a
    decomposable kernel; pass a dense operator Gram as ``g`` with
    ``out = [[1.0]]``.  Every check runs here, before any draw."""

    def __init__(self, g, out, n: int):
        g, out = finite_matrix(g, "Gram"), finite_matrix(out, "output matrix")
        if n < 1:
            raise InputError(f"sample size n must be >= 1, got {n}")
        _check_psd(g, out)
        super().__init__(n, g.shape[0] * out.shape[0])
        self.g, self.out = g, out

    def add(self, block: SignBlock) -> None:
        self._add_values(np.sqrt(block.forms(self.g, self.out)))


def trace_bound(kappa: float, tr_m: float, n: int) -> float:
    """sqrt(kappa * Tr(M) / n), the Jensen bound on the unit-ball complexity."""
    if kappa < 0 or tr_m < 0 or n < 1:
        raise InputError("trace bound needs nonnegative kappa, Tr(M) and n >= 1")
    return float(np.sqrt(kappa * tr_m / n))


class ClassMc(_MeanMc):
    """(1/n) E max_f |sum_i <sigma_i, f(x_i)>| over a finite class, with its
    Monte-Carlo standard error.

    Lower-bounds the complexity of any class containing the listed functions.
    ``predictions`` holds, per function, its n predictions as an (n, m) array
    (row i is f(x_i)): ``KernelExpansion.at(x)``, or ``G c M`` for an
    expansion with coefficients c anchored at the points themselves, as the
    split bound's surrogates are.  It is read once, here, and checked before
    any draw."""

    def __init__(self, predictions: Iterable, n: int, m: int):
        rows = []
        for vals in predictions:
            vals = np.asarray(vals, dtype=float)
            if vals.shape != (n, m):
                raise InputError(
                    f"predictions of shape {vals.shape}, expected {(n, m)}"
                )
            if not np.all(np.isfinite(vals)):
                raise NumericError("predictions contain non-finite values")
            rows.append(vals.ravel())
        if not rows:
            raise InputError("the class must be nonempty")
        super().__init__(n, n * m)
        self.flat = np.array(rows)

    def add(self, block: SignBlock) -> None:
        self._add_values(np.abs(block.signs @ self.flat.T).max(axis=1))
