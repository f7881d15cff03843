"""Composition-operator generalization bounds for multi-output networks.

A network is described layer by layer (weights, a user-supplied norm for the
activation's composition operator, Sobolev orders, and a restriction-norm
ratio defaulting to 1).  Three calculators are provided:

* :func:`product_bound` — product-form complexity bound for injective weights,
  evaluated at the given weights (a member of the weight class, hence a lower
  bound on the class supremum; reports carry the per-layer factors so totals
  are auditable).
* :class:`SplitMc` — splits the network after ``l_prime`` layers, combining
  the product factor of the lower block with a Monte-Carlo complexity
  estimate of a finite surrogate class for the upper block plus an
  approximation term (:class:`ApproxMc`), from one ``complexity.run_mc``
  pass.  The surrogates are kernel expansions anchored at the mid points,
  passed as one (K, n, m) coefficient stack.
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

from .complexity import ClassMc, McEstimate, _quad_forms, trace_bound
from .errors import DegenerateInputError, InputError, NonInjectiveError, NumericError
from .kernels import DecomposableKernel, check_kappa, finite_matrix

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
    activation_koopman_norm: float = 1.0
    sobolev_order_in: float = 1.0
    ratio_g: float = 1.0

    def __post_init__(self):
        w = finite_matrix(self.weights, "layer weights", square=False)
        object.__setattr__(self, "weights", w)
        if not self.activation_koopman_norm > 0:
            raise InputError("activation_koopman_norm must be positive")
        if not self.ratio_g > 0:
            raise InputError("ratio_G must be positive")
        if self.sobolev_order_in <= w.shape[1] / 2:
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
    """max(1, sigma_max(W))^s_in."""
    smax = float(np.linalg.norm(finite_matrix(w, "weights", square=False), 2))
    return float(max(1.0, smax) ** s_in)


def det_quarter_root(w: np.ndarray) -> float:
    """det(W^T W)^(1/4) via singular values, with an injectivity check."""
    w = finite_matrix(w, "weights", square=False)
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


class ApproxMc:
    """Monte-Carlo approximation term of the split bound, fed one sign block
    at a time by ``complexity.run_mc``; every check and the loop-invariant
    surrogate terms are done when it is built, before any draw.

    The operator Grams are ``g_in (x) out`` over the data and
    ``g_mid (x) out`` over the mid points, given by their factors: the
    n x n scalar Grams ``g_in``, ``g_mid`` and the m x m output matrix
    ``out`` (dense nm x nm Grams are the case ``out = [[1.0]]``).  Sign
    draws have width n*m; every quadratic form is ``<Sigma, G Sigma M>``.
    The surrogate class is the (K, n, m) stack ``coeffs``: surrogate k is
    the kernel expansion over the mid points with coefficients
    ``coeffs[k]``, so its RKHS norm is ``sqrt(<c, g_mid c out>)``.

    Per sign draw, with u_n and u~_n the sign-weighted kernel sums in the
    input and mid spaces, gamma = ||u_n|| / ||u~_n||; for each candidate h'
    the inner supremum over h'' of

        ||h' - (gamma ||h''|| / ||u~_n||) u~_n||^2

    is expanded through Gram inner products; the result is the minimum over
    h' of the root-mean over draws.  Draws with ||u~_n||^2 at or below the
    round-off floor ``width * eps * trace(g_mid) * trace(out)`` (float64 eps;
    an exactly degenerate draw can round to ~1e-16 and give gamma ~ 1e8) are
    rejected and counted.  ``result()`` is (value, rejected_draws, per-draw
    gammas).
    """

    def __init__(self, coeffs, g_in, g_mid, out):
        g_in, g_mid = finite_matrix(g_in, "input Gram"), finite_matrix(g_mid, "mid Gram")
        out = finite_matrix(out, "output matrix")
        if g_in.shape != g_mid.shape:
            raise InputError("input and mid Grams must have equal shape")
        n, m = g_mid.shape[0], out.shape[0]
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 3 or coeffs.shape[0] < 1 or coeffs.shape[1:] != (n, m):
            raise InputError(
                f"surrogate coefficients must be a nonempty (K, {n}, {m}) stack over "
                f"the mid Gram blocks, got shape {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise NumericError("surrogate coefficients contain non-finite entries")
        self.width = n * m
        self.g_in, self.g_mid, self.out = g_in, g_mid, out
        self.pairs = ((g_in, out), (g_mid, out))
        coeff_mat = coeffs.reshape(coeffs.shape[0], self.width)
        # loop-invariant half of <h', u~_n>
        self.coeff_g = (g_mid @ coeffs @ out).reshape(coeff_mat.shape)
        self.products = (self.coeff_g,)
        self.norms_sq = _quad_forms(coeff_mat, g_mid, out)
        if not (np.all(np.isfinite(self.coeff_g)) and np.all(np.isfinite(self.norms_sq))):
            raise NumericError("surrogate Gram products or norms overflow to non-finite values")
        # beta_h for every h in the class
        self.norms = np.sqrt(np.maximum(self.norms_sq, 0.0))
        self.q_floor = self.width * np.finfo(float).eps * np.trace(g_mid) * np.trace(out)
        self.sum_sup = np.zeros(coeffs.shape[0])
        self.draws = 0
        self.rejected = 0
        self.gammas: list[np.ndarray] = []

    def add(self, block) -> None:
        self._add_draws(
            block.draws,
            block.forms(self.g_in, self.out),
            block.forms(self.g_mid, self.out),
            block.product(self.coeff_g).T,
        )

    def _add_draws(self, draws: int, q_in, q_mid, inner) -> None:
        """Accumulate a block from its data and mid forms and the (K, draws)
        inner products ``inner`` of the surrogates' ``coeff_g`` rows with its
        signs."""
        self.draws += draws
        ok = q_mid > self.q_floor
        self.rejected += int((~ok).sum())
        if not np.any(ok):
            return
        q_in, q_mid = q_in[ok], q_mid[ok]
        gamma = np.sqrt(q_in / q_mid)
        self.gammas.append(gamma)
        t = gamma / np.sqrt(q_mid)  # gamma / ||u~_n||
        # (n_class, draws): <h', u~_n>.  compress makes it C-ordered, unlike a
        # boolean index; the layout sets the order of the sum over draws below
        inner = inner.compress(ok, axis=1)
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


class SplitMc:
    """Layer-split bound: prod_{l <= l'} eta_l * (class complexity of the
    upper surrogate family + trace root * approximation term).

    The upper class is a finite surrogate family of kernel expansions
    h_k = sum_i k_mid(., mid_i) M c_ki anchored at the mid points, given as
    the (K, n, m) stack ``coeffs`` of their coefficients; this surrogacy is
    declared in the report.  ``g_in`` and ``g_mid`` are the n x n scalar
    Grams of the data and of the mid points, paired one-to-one; they drive
    the coupled sign draws of the approximation term.  ``kernel`` is the data
    kernel: its output matrix M serves both spaces and its kappa bounds both
    Grams.  The class predictions are the approximation term's ``g_mid @ c @
    M`` per surrogate, since the surrogates are anchored at the mid points,
    so the class estimate reads the same draws and the same sign products.

    Building it does every check and computes the lower-layer factors and
    the trace root; then ``split.report(*run_mc(split.estimators, cfg))``
    runs the class and approximation estimators through one Monte-Carlo
    pass, which may also carry other estimators of the same sign width."""

    def __init__(
        self,
        net: NetworkSpec,
        l_prime: int,
        coeffs,
        kernel: DecomposableKernel,
        g_in: np.ndarray,
        g_mid: np.ndarray,
    ):
        if not (1 <= l_prime <= net.depth):
            raise InputError(f"l_prime={l_prime} outside [1, {net.depth}]")
        self.factors = _layer_factors(net, l_prime)
        self.eta = _factor_product(self.factors)

        approx_mc = ApproxMc(coeffs, g_in, g_mid, kernel.output)
        check_kappa(kernel.scalar, approx_mc.g_in)
        check_kappa(kernel.scalar, approx_mc.g_mid)
        n, m = approx_mc.g_mid.shape[0], kernel.output_dim
        class_mc = ClassMc(row.reshape(n, m) for row in approx_mc.coeff_g)
        # equal values; one array object, so each sign block computes the one
        # product that both estimators read
        class_mc.flat = approx_mc.coeff_g
        self.estimators = (class_mc, approx_mc)
        self.root = trace_bound(kernel.scalar.kappa, kernel.trace_m(), n)

    def report(self, class_est: McEstimate, approx_result: tuple) -> BoundReport:
        """The bound from the ``result()`` of each of ``estimators``, in order."""
        approx, rejected, gammas = approx_result
        total = self.eta * (class_est.estimate + self.root * approx)
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
                "trace_root": self.root,
                "gamma_mean": float(gammas.mean()),
                "note": (
                    "upper class is a finite surrogate kernel-expansion family; "
                    "lower-layer factors evaluated at the given weights"
                ),
            },
        )
