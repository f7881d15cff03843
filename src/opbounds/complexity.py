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
deterministic and schedule-independent.  A block's signs are read from the
raw bits of its generator (``_rng.rademacher``), bit for bit the values of
an integer draw.

Each estimator (:class:`BallMc`, :class:`ClassMc`, and the split bound's
``koopman.ApproxMc``) is a per-block accumulator whose checks all run when it
is built, before any draw.  One loop, :func:`run_mc`, draws every block once
and reduces it to the sign products and quadratic forms its estimators read,
each computed once per block however many of them read it; so estimators
that share a pass read the same signs and give the same values as when run
one by one.  A pass allocates two arrays of block size (draws x n*m floats)
and reuses them for every block: the signs are drawn into the row-major
one and read for the products, copied into the column-major one for the
forms, and each form's ``G Sigma`` is written over the row-major signs; no
other array of that size is made.  A single estimate is
``(est,) = run_mc([BallMc(g, out, n)], cfg)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ._rng import rademacher, substream
from .errors import InputError, NumericError
from .kernels import _is_identity, finite_matrix, require_psd

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
    """Blocks of +-1 draws of shape (block, width); block c uses substream c.
    Every block is written into the one row-major array allocated here, so a
    yielded block is overwritten by the next: read it before drawing on."""
    buf = np.empty(min(total, _BLOCK) * width)
    for c, start in enumerate(range(0, total, _BLOCK)):
        count = min(_BLOCK, total - start)
        yield rademacher(substream(seed, c), buf[: count * width].reshape(count, width))


def _check_psd(g: np.ndarray, out: np.ndarray) -> None:
    """Raise NotPsdError unless G (x) M is PSD; its eigenvalues are the
    pairwise products of the factors' eigenvalues."""
    vals = np.outer(
        np.linalg.eigvalsh(0.5 * (g + g.T)), np.linalg.eigvalsh(0.5 * (out + out.T))
    )
    require_psd(vals, "Gram")


def _quad_forms(rows: np.ndarray, g: np.ndarray, out: np.ndarray, work=None) -> np.ndarray:
    """sigma^T (G (x) M) sigma = <Sigma, G Sigma M^T> for every row sigma of
    ``rows``, read as the row-major (n, m) matrix Sigma (the index order of
    ``np.kron(g, out)``).

    All rows go through one (n x n) @ (n x mc) GEMM, written into ``work``
    (a C-contiguous array of ``rows.size`` floats) when given; M is then
    applied along the m axis in place, 16 points at a time, unless M is
    exactly the identity, whose product changes no value.  So ``G Sigma`` is
    the one array of the size of ``rows`` made here, none when ``work`` is
    given, and each form is finished by a dot product.  A three-operand
    einsum would skip BLAS, and a batched ``G @ Sigma`` is slower than one
    GEMM on the dense Gram.  Column-major ``rows`` are read without a copy."""
    n, m = g.shape[0], out.shape[0]
    c = rows.shape[0]
    w = np.ascontiguousarray(rows.T).reshape(n, m, c)
    if work is not None:
        work = work.reshape(n, m * c)
    gw = np.matmul(g, w.reshape(n, m * c), out=work).reshape(n, m, c)
    if not _is_identity(out):
        for i in range(0, n, 16):
            gw[i : i + 16] = np.matmul(out, gw[i : i + 16])
    return np.einsum("iar,iar->r", w, gw)


class SignBlock:
    """What the estimators of a pass read from one sign block: the sign
    products ``signs @ mat.T`` and the quadratic forms
    ``max(sigma^T (g (x) out) sigma, 0)``, each computed once however many
    estimators read it.  Matrices are told apart by identity, so estimators
    that share one must hold the same array object (they keep it alive for
    the whole pass).  The values are shared between readers, so never modify
    them in place."""

    __slots__ = ("draws", "_products", "_forms")

    def __init__(self, draws: int, products: dict, forms: dict):
        self.draws = draws
        self._products = products
        self._forms = forms

    def product(self, mat: np.ndarray) -> np.ndarray:
        """(draws, K) products of the signs with the K rows of ``mat``."""
        return self._products[id(mat)]

    def forms(self, g: np.ndarray, out: np.ndarray) -> np.ndarray:
        """max(sigma^T (g (x) out) sigma, 0) for every draw of the block."""
        return self._forms[id(g), id(out)]


def _sign_block_reads(estimators: Sequence, cfg: McConfig) -> Iterator[SignBlock]:
    """Every sign block of ``cfg``, reduced to what ``estimators`` read.

    Two arrays of block size serve the whole pass: the row-major one that
    :func:`sign_blocks` draws into and one column-major array allocated
    here.  The products are read from the row-major signs, which are then
    copied to the column-major array for the forms and overwritten by each
    form's ``G Sigma``; a yielded block holds neither."""
    mats = {id(mat): mat for est in estimators for mat in est.products}
    pairs = {(id(g), id(out)): (g, out) for est in estimators for g, out in est.pairs}
    width = estimators[0].width
    cols = np.empty(min(cfg.draws, _BLOCK) * width)
    for signs in sign_blocks(cfg.draws, width, cfg.seed):
        draws = signs.shape[0]
        products = {key: signs @ mat.T for key, mat in mats.items()}
        # the transpose of a column-major array is the C-ordered layout
        # _quad_forms works on
        signs_f = cols[: signs.size].reshape(width, draws).T
        signs_f[...] = signs
        forms = {
            key: np.maximum(_quad_forms(signs_f, g, out, signs), 0.0)
            for key, (g, out) in pairs.items()
        }
        yield SignBlock(draws, products, forms)


def run_mc(estimators: Sequence, cfg: McConfig) -> list:
    """The one Monte-Carlo loop: draw every sign block of ``cfg`` once, hand
    it to each estimator's ``add``, and return each estimator's ``result()``
    in order.  The estimators share one sign width, their ``width``
    attribute, and name what they read from a block in their ``products``
    (matrices) and ``pairs`` ((Gram, M) pairs) attributes.  The pass holds
    two arrays of block size, reused by every block (see
    :func:`_sign_block_reads`)."""
    for block in _sign_block_reads(estimators, cfg):
        for est in estimators:
            est.add(block)
    return [est.result() for est in estimators]


class _MeanMc:
    """Per-draw values summed block by block; ``result`` is their mean and
    standard error, both divided by n."""

    products: tuple = ()
    pairs: tuple = ()

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
        self.pairs = ((g, out),)

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
    split bound's surrogates are; n and m are read from the first.  It is
    read once, here, and checked before any draw."""

    def __init__(self, predictions: Iterable):
        rows, shape = [], None
        for vals in predictions:
            vals = np.asarray(vals, dtype=float)
            shape = vals.shape if shape is None else shape
            if vals.ndim != 2 or vals.size == 0 or vals.shape != shape:
                raise InputError(
                    f"predictions of shape {vals.shape}, expected a nonempty (n, m) "
                    f"array of the first one's shape {shape}"
                )
            if not np.all(np.isfinite(vals)):
                raise NumericError("predictions contain non-finite values")
            rows.append(vals.ravel())
        if not rows:
            raise InputError("the class must be nonempty")
        n, m = shape
        super().__init__(n, n * m)
        self.flat = np.array(rows)

    @property
    def products(self) -> tuple:
        return (self.flat,)

    def add(self, block: SignBlock) -> None:
        self._add_values(np.abs(block.product(self.flat)).max(axis=1))
