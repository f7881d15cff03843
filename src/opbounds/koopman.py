"""Composition-operator generalization bounds for multi-output networks.

A network is described layer by layer (weights, bias, a user-supplied norm for
the activation's composition operator, Sobolev orders, and a restriction-norm
ratio defaulting to 1).  Three calculators are provided:

* :func:`product_bound` — product-form complexity bound for injective weights,
  evaluated at the given weights (a member of the weight class, hence a lower
  bound on the class supremum; reports carry the per-layer factors so totals
  are auditable).
* :func:`split_complexity_bound` — splits the network after ``l_prime``
  layers, combining the product factor of the lower block with a Monte-Carlo
  complexity estimate of a finite surrogate class for the upper block plus an
  approximation term.
* :func:`peeled_bound` — the norm-product form ``prod Frobenius * prod
  spectral`` with the universal constant fixed to 1.

The supremum of ``(1 + ||W^T w||^2) / (1 + ||w||^2)`` over the range of ``W``
equals ``max(1, sigma_max(W)^2)``: the ratio is a weighted mediant between 1
(at w = 0) and ``sigma_max^2`` (along the top left singular direction as
``||w|| -> inf``), so it is resolved by SVD instead of numeric search.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .complexity import (
    McConfig,
    McEstimate,
    _ClassMc,
    _matrix,
    _quad_forms,
    _run_mc,
    trace_bound,
)
from .errors import DegenerateInputError, InputError, NonInjectiveError
from .kernels import (
    DecomposableKernel,
    KernelExpansion,
    as_points,
    check_kappa,
    gram_scalar,
)

_INJ_TOL = 1e-12


@dataclass(frozen=True)
class LayerSpec:
    """One affine layer with activation metadata.

    ``activation_koopman_norm`` is the operator norm of composition with the
    layer's activation, supplied by the user (1 for identity).
    ``ratio_g`` is the restriction-norm ratio, also user-supplied (default 1);
    both appear verbatim in bound reports.
    """

    weights: np.ndarray
    bias: np.ndarray | None = None
    activation_koopman_norm: float = 1.0
    sobolev_order_in: float = 1.0
    sobolev_order_out: float = 1.0
    ratio_g: float = 1.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2:
            raise InputError("layer weights must be a matrix")
        if not np.all(np.isfinite(w)):
            raise InputError("layer weights contain non-finite entries")
        object.__setattr__(self, "weights", w)
        if self.bias is not None:
            b = np.asarray(self.bias, dtype=float).ravel()
            if b.size != w.shape[0]:
                raise InputError(
                    f"bias length {b.size} does not match layer width {w.shape[0]}"
                )
            object.__setattr__(self, "bias", b)
        if not self.activation_koopman_norm > 0:
            raise InputError("activation_koopman_norm must be positive")
        if not self.ratio_g > 0:
            raise InputError("ratio_G must be positive")
        d_in, d_out = w.shape[1], w.shape[0]
        if self.sobolev_order_in <= d_in / 2 or self.sobolev_order_out <= d_out / 2:
            warnings.warn(
                "Sobolev order at or below d/2; the layer function space is "
                "not reproducing there",
                stacklevel=3,
            )

    @property
    def d_in(self) -> int:
        return self.weights.shape[1]

    @property
    def d_out(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple[LayerSpec, ...]
    g_norm: float
    output_dim: int

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise InputError("network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.d_in != prev.d_out:
                raise InputError(
                    f"layer dimensions do not chain: {prev.d_out} -> {nxt.d_in}"
                )
        object.__setattr__(self, "layers", layers)
        if not self.g_norm > 0:
            raise InputError("g_norm must be positive")
        if self.output_dim < 1:
            raise InputError("output_dim must be a positive integer")

    @property
    def depth(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class LayerFactors:
    ratio_g: float
    spectral_factor: float
    det_root: float
    koopman_norm: float | None  # None when the layer has no activation

    def product(self) -> float:
        k = 1.0 if self.koopman_norm is None else self.koopman_norm
        return self.ratio_g * self.spectral_factor * k / self.det_root


def _factor_product(factors) -> float:
    """prod_l of the layers' factor products, multiplied in layer order."""
    prod = 1.0
    for f in factors:
        prod *= f.product()
    return prod


@dataclass(frozen=True)
class BoundReport:
    family: str
    total: float
    per_layer: tuple[LayerFactors, ...] = ()
    extras: dict = field(default_factory=dict)

    def recompute_total(self) -> float:
        prod = _factor_product(self.per_layer)
        if self.family == "product":
            return self.extras["g_norm"] * self.extras["trace_root"] * prod
        if self.family == "split":
            return prod * (
                self.extras["class_estimate"]
                + self.extras["trace_root"] * self.extras["approximation_term"]
            )
        return self.total

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "total": self.total,
            "per_layer": [
                {
                    "ratio_G": f.ratio_g,
                    "spectral_factor": f.spectral_factor,
                    "det_root": f.det_root,
                    "koopman_norm": f.koopman_norm,
                }
                for f in self.per_layer
            ],
            "extras": dict(self.extras),
        }


def spectral_ratio_factor(w: np.ndarray, s_in: float) -> float:
    """max(1, sigma_max(W))^s_in; warns and returns 1 for the zero matrix."""
    w = np.asarray(w, dtype=float)
    smax = float(np.linalg.norm(w, 2)) if w.size else 0.0
    if smax == 0.0:
        warnings.warn("zero weight matrix has a degenerate range", stacklevel=2)
        return 1.0
    return float(max(1.0, smax) ** s_in)


def det_quarter_root(w: np.ndarray) -> float:
    """det(W^T W)^(1/4) via singular values, with an injectivity check."""
    w = np.asarray(w, dtype=float)
    if w.shape[0] < w.shape[1]:
        raise NonInjectiveError(
            f"matrix of shape {w.shape} cannot be injective"
        )
    svals = np.linalg.svd(w, compute_uv=False)
    if svals[-1] <= _INJ_TOL * svals[0]:  # "at", so the zero matrix fails too
        raise NonInjectiveError(
            f"smallest singular value {svals[-1]} is at or below the injectivity "
            f"threshold {_INJ_TOL * svals[0]}"
        )
    return float(np.prod(np.sqrt(svals)))


@dataclass(frozen=True)
class LayerInjectivity:
    dimension_ok: bool
    norm_ok: bool
    det_ok: bool

    @property
    def ok(self) -> bool:
        return self.dimension_ok and self.norm_ok and self.det_ok


def check_injectivity_class(
    net: NetworkSpec, c_max: float, d_min: float
) -> tuple[list[LayerInjectivity], bool]:
    """Per-layer membership in the weight class {d_out >= d_in, ||W|| <= C,
    det(W^T W)^(1/2) >= D} with C = ``c_max`` and D = ``d_min``, plus the
    overall verdict."""
    verdicts = []
    for layer in net.layers:
        w = layer.weights
        dim_ok = w.shape[0] >= w.shape[1]
        norm_ok = float(np.linalg.norm(w, 2)) <= c_max
        if dim_ok:
            svals = np.linalg.svd(w, compute_uv=False)
            det_ok = float(np.prod(svals)) >= d_min
        else:
            det_ok = False
        verdicts.append(LayerInjectivity(dim_ok, norm_ok, det_ok))
    return verdicts, all(v.ok for v in verdicts)


def _layer_factors(net: NetworkSpec, upto: int) -> list[LayerFactors]:
    """Factors for layers 1..upto; the final network layer carries no
    activation norm (there is no activation between it and the output map)."""
    out = []
    for idx in range(upto):
        layer = net.layers[idx]
        has_activation = idx < net.depth - 1
        out.append(
            LayerFactors(
                ratio_g=layer.ratio_g,
                spectral_factor=spectral_ratio_factor(layer.weights, layer.sobolev_order_in),
                det_root=det_quarter_root(layer.weights),
                koopman_norm=layer.activation_koopman_norm if has_activation else None,
            )
        )
    return out


def product_bound(net: NetworkSpec, kappa: float, tr_m: float, n: int) -> BoundReport:
    """Product-form complexity bound

        ||g|| * sqrt(kappa Tr(M) / n)
             * prod_l ratio_G * spectral_factor / det_root
             * prod_{l < L} activation norms,

    evaluated at the given weights."""
    factors = _layer_factors(net, net.depth)
    root = trace_bound(kappa, tr_m, n)
    total = net.g_norm * root * _factor_product(factors)
    return BoundReport(
        family="product",
        total=total,
        per_layer=tuple(factors),
        extras={
            "g_norm": net.g_norm,
            "trace_root": root,
            "note": "factors evaluated at the given weights",
        },
    )


def peeled_bound(net: NetworkSpec, split: int) -> float:
    """prod_{j > split} ||W_j||_F * prod_{j <= split} ||W_j||_2, constant 1."""
    if not (0 <= split <= net.depth):
        raise InputError(f"split {split} outside [0, {net.depth}]")
    total = 1.0
    for idx, layer in enumerate(net.layers, start=1):
        if idx <= split:
            total *= float(np.linalg.norm(layer.weights, 2))
        else:
            total *= float(np.linalg.norm(layer.weights, "fro"))
    return total


class _ApproxMc:
    """Estimator of :func:`approximation_term_mc`, fed one sign block at a
    time; every check and the loop-invariant surrogate terms are done when it
    is built, before any draw."""

    def __init__(self, upper_class: list[KernelExpansion], g_in, g_mid, out):
        if not upper_class:
            raise InputError("upper class must be nonempty")
        g_in, g_mid = _matrix(g_in, "input Gram"), _matrix(g_mid, "mid Gram")
        out = _matrix(out, "output matrix")
        if g_in.shape != g_mid.shape:
            raise InputError("input and mid Grams must have equal shape")
        n, m = g_mid.shape[0], out.shape[0]
        self.width = n * m
        self.g_in, self.g_mid, self.out = g_in, g_mid, out
        coeff_mat = np.empty((len(upper_class), self.width))
        self.coeff_g = np.empty_like(coeff_mat)  # loop-invariant half of <h', u~_n>
        for k, h in enumerate(upper_class):
            if h.coeffs.size != self.width:
                raise InputError(
                    "surrogate coefficients must align with the mid Gram blocks"
                )
            c = h.coeffs.reshape(n, m)
            coeff_mat[k] = c.ravel()
            self.coeff_g[k] = (g_mid @ c @ out).ravel()
        self.norms_sq = _quad_forms(coeff_mat, g_mid, out)
        # beta_h for every h in the class
        self.norms = np.sqrt(np.maximum(self.norms_sq, 0.0))
        self.q_floor = self.width * np.finfo(float).eps * np.trace(g_mid) * np.trace(out)
        self.sum_sup = np.zeros(len(upper_class))
        self.draws = 0
        self.rejected = 0
        self.gammas: list[np.ndarray] = []

    def add(self, block) -> None:
        self.draws += block.signs.shape[0]
        q_in = block.forms(self.g_in, self.out)
        q_mid = block.forms(self.g_mid, self.out)
        ok = q_mid > self.q_floor
        self.rejected += int((~ok).sum())
        if not np.any(ok):
            return
        q_in, q_mid = q_in[ok], q_mid[ok]
        gamma = np.sqrt(q_in / q_mid)
        self.gammas.append(gamma)
        t = gamma / np.sqrt(q_mid)  # gamma / ||u~_n||
        # (n_class, draws): <h', u~_n>.  compress keeps it C-ordered, unlike a
        # boolean index; the layout sets the order of the sum over draws below
        inner = (self.coeff_g @ block.signs.T).compress(ok, axis=1)
        norms = self.norms
        # sup over h'' of ||h'||^2 - 2 t beta <h', u~> + gamma^2 beta^2
        quad = (
            self.norms_sq[:, None, None]
            - 2.0 * t[None, :, None] * inner[:, :, None] * norms[None, None, :]
            + (gamma**2)[None, :, None] * (norms**2)[None, None, :]
        )
        self.sum_sup += quad.max(axis=2).sum(axis=1)

    def result(self) -> tuple[float, int, np.ndarray]:
        used = self.draws - self.rejected
        if used == 0:
            raise DegenerateInputError("all draws rejected: mid Gram is degenerate")
        value = float(np.sqrt(np.maximum(self.sum_sup / used, 0.0).min()))
        return value, self.rejected, np.concatenate(self.gammas)


def approximation_term_mc(
    upper_class: list[KernelExpansion],
    g_in,
    g_mid,
    out,
    cfg: McConfig,
) -> tuple[float, int, np.ndarray]:
    """Monte-Carlo approximation term of the split bound.

    The operator Grams are ``g_in (x) out`` over the data and
    ``g_mid (x) out`` over the mid points, given by their factors: the
    n x n scalar Grams ``g_in``, ``g_mid`` and the m x m output matrix
    ``out`` (dense nm x nm Grams are the case ``out = [[1.0]]``).  Sign
    draws have width n*m; every quadratic form is ``<Sigma, G Sigma M>``.

    Per sign draw, with u_n and u~_n the sign-weighted kernel sums in the
    input and mid spaces, gamma = ||u_n|| / ||u~_n||; for each candidate h'
    the inner supremum over h'' of

        ||h' - (gamma ||h''|| / ||u~_n||) u~_n||^2

    is expanded through Gram inner products; the result is the minimum over
    h' of the root-mean over draws.  Draws with ||u~_n||^2 at or below the
    round-off floor ``width * eps * trace(g_mid) * trace(out)`` (float64 eps;
    an exactly degenerate draw can round to ~1e-16 and give gamma ~ 1e8) are
    rejected and counted.  Returns (value, rejected_draws, per-draw gammas).
    """
    approx = _ApproxMc(upper_class, g_in, g_mid, out)
    _run_mc([approx], cfg)
    return approx.result()


class _SplitMc:
    """The split bound of :func:`split_complexity_bound` up to its draws:
    every check done, the lower-layer factors computed and the class and
    approximation estimators built.  Run ``estimators`` through one
    Monte-Carlo pass, then read :meth:`report`.

    ``g_in`` and ``g_mid`` must be the scalar Grams of ``kernel_in`` at
    ``data`` and of ``kernel_mid`` at ``mid_points``.  The class predictions
    are the approximation term's ``g_mid @ c @ M`` per surrogate, since the
    surrogates are anchored at the mid points."""

    def __init__(
        self,
        net: NetworkSpec,
        l_prime: int,
        upper_class: list[KernelExpansion],
        data,
        kernel_in: DecomposableKernel,
        mid_points,
        kernel_mid: DecomposableKernel,
        g_in: np.ndarray,
        g_mid: np.ndarray,
    ):
        if not (1 <= l_prime <= net.depth):
            raise InputError(f"l_prime={l_prime} outside [1, {net.depth}]")
        if not upper_class:
            raise InputError("upper class must be nonempty")
        x = as_points(data, kernel_in.scalar.dimension)
        mid = as_points(mid_points, kernel_mid.scalar.dimension)
        if mid.shape[0] != x.shape[0]:
            raise InputError("mid points must pair one-to-one with the data")
        if not np.array_equal(kernel_in.output, kernel_mid.output):
            raise InputError("input and mid kernels must share the output matrix M")
        for h in upper_class:
            if h.kernel is not kernel_mid and not (
                h.kernel.scalar == kernel_mid.scalar
                and np.array_equal(h.kernel.output, kernel_mid.output)
            ):
                raise InputError("surrogates must use the mid-space kernel")
            if h.anchors.shape != mid.shape or not np.allclose(h.anchors, mid):
                raise InputError("surrogates must be anchored at the mid points")

        self.factors = _layer_factors(net, l_prime)
        self.eta = _factor_product(self.factors)

        check_kappa(kernel_in, g_in)
        check_kappa(kernel_mid, g_mid)
        self.approx_mc = _ApproxMc(upper_class, g_in, g_mid, kernel_mid.output)
        n, m = mid.shape[0], kernel_in.output_dim
        self.class_mc = _ClassMc((row.reshape(n, m) for row in self.approx_mc.coeff_g), n, m)
        self.estimators = (self.class_mc, self.approx_mc)
        self.kernel_in, self.n = kernel_in, x.shape[0]

    def report(self) -> BoundReport:
        class_est: McEstimate = self.class_mc.result()
        approx, rejected, gammas = self.approx_mc.result()
        root = trace_bound(self.kernel_in.kappa, self.kernel_in.trace_m(), self.n)
        total = self.eta * (class_est.estimate + root * approx)
        return BoundReport(
            family="split",
            total=total,
            per_layer=tuple(self.factors),
            extras={
                "eta_product": self.eta,
                "class_estimate": class_est.estimate,
                "class_stderr": class_est.stderr,
                "approximation_term": approx,
                "approximation_rejected_draws": rejected,
                "trace_root": root,
                "gamma_mean": float(gammas.mean()),
                "note": (
                    "upper class is a finite surrogate kernel-expansion family; "
                    "lower-layer factors evaluated at the given weights"
                ),
            },
        )


def split_complexity_bound(
    net: NetworkSpec,
    l_prime: int,
    upper_class: list[KernelExpansion],
    data,
    kernel_in: DecomposableKernel,
    mid_points,
    kernel_mid: DecomposableKernel,
    cfg: McConfig,
) -> BoundReport:
    """Layer-split bound: prod_{l <= l'} eta_l * (class complexity of the
    upper surrogate family + trace root * approximation term).

    The upper class is a finite surrogate family of kernel expansions anchored
    at ``mid_points`` under ``kernel_mid``; this surrogacy is declared in the
    report.  The input-space Gram at ``data`` and the mid-space Gram at
    ``mid_points`` drive the coupled sign draws of the approximation term; the
    class estimate reads the same draws, all in one Monte-Carlo pass.
    """
    g_in, g_mid = gram_scalar(kernel_in.scalar, data), gram_scalar(kernel_mid.scalar, mid_points)
    split = _SplitMc(
        net, l_prime, upper_class, data, kernel_in, mid_points, kernel_mid, g_in, g_mid
    )
    _run_mc(split.estimators, cfg)
    return split.report()
