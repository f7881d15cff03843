"""Deep vector-valued RKHS models with transfer-operator regularization.

A model is a stack of kernel-expansion layers f_j(x) = sum_i k_j(x, z_i) M_j
c_i with fixed anchors and trainable coefficients, so every RKHS norm stays
Gram-computable.  The product of the layer transfer operators, restricted to
the span of the probe features, has norm sqrt(pencil_max(G_top, G_bottom))
with

    G_bottom[i, j] = k_1(x_i, x_j) * y_i^T M~ y_j
    G_top[i, j]    = k_L(h(x_i), h(x_j)) * y_i^T M~ y_j

where h composes all layers but the last and M~ is the output-space matrix
(the last layer's M; in the uniform-M setting all coincide).  Training is
plain gradient descent with backtracking on

    (1/n) sum ||f(x_i) - y_i||^2 + lambda_1 * pf_norm + lambda_2 * top_norm.

Kernels, output matrices and anchors stay fixed; training moves only the
coefficient arrays, one per layer, and builds a model from them once, at the
end.  G_bottom and the last layer's anchor Gram do not depend on the
coefficients, so one ``train()`` call whitens the first and assembles the
second once, and reuses both for every objective, gradient and trajectory
norm.  The analytic gradient differentiates the top pencil eigenvalue through
the simple-eigenvalue formula d rho = a^T dG_top a (the whitening basis is
fixed) and falls back to finite differences when the top eigenvalue gap
degenerates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ._rng import substream
from .errors import InputError, NumericError, RefinementOrderError
from .kernels import (
    ScalarKernelSpec,
    _expansion_norm,
    as_points,
    gram_scalar,
    gram_scalar_cross,
    make_output_matrix,
)
from .spectral import _pencil_basis, _pencil_value, _pencil_vector

_EIG_GAP_TOL = 1e-8
_FD_STEP = 1e-5
_ARMIJO = 1e-4
_MIN_STEP = 1e-14


@dataclass(frozen=True)
class VVLayer:
    """One kernel-expansion layer: x -> sum_i k(x, z_i) M c_i."""

    kernel: ScalarKernelSpec
    output: np.ndarray
    anchors: np.ndarray
    coeffs: np.ndarray
    capacity: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "output", make_output_matrix(self.output))
        object.__setattr__(
            self, "anchors", as_points(self.anchors, self.kernel.dimension)
        )
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.anchors.shape[0], self.output.shape[0]):
            raise InputError(
                f"coeffs shape {c.shape} incompatible with "
                f"{self.anchors.shape[0]} anchors and output dim {self.output.shape[0]}"
            )
        object.__setattr__(self, "coeffs", c)
        if self.capacity is not None and not self.capacity > 0:
            raise InputError("capacity must be positive when set")

    @property
    def out_dim(self) -> int:
        return self.output.shape[0]

    def apply(self, u: np.ndarray) -> np.ndarray:
        return _apply(self, u, self.coeffs)

    def rkhs_norm(self) -> float:
        g = gram_scalar(self.kernel, self.anchors)
        return _expansion_norm(g, self.coeffs, self.output)


def _apply(layer: VVLayer, u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The layer's map at coefficients ``c``."""
    return gram_scalar_cross(layer.kernel, u, layer.anchors) @ c @ layer.output


@dataclass(frozen=True)
class LayeredModel:
    layers: tuple[VVLayer, ...]

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise InputError("model needs at least one layer")
        if len(layers) < 3:
            warnings.warn(
                f"model has {len(layers)} layers; the architecture is meant "
                "for depth >= 3",
                stacklevel=3,
            )
        for j, (prev, nxt) in enumerate(zip(layers, layers[1:]), start=1):
            if nxt.kernel.dimension != prev.out_dim:
                raise InputError(
                    f"layer {j} outputs R^{prev.out_dim} but layer {j + 1} "
                    f"expects R^{nxt.kernel.dimension}"
                )
        object.__setattr__(self, "layers", layers)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].kernel.dimension

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def coeffs(self) -> list[np.ndarray]:
        """Coefficient arrays, one per layer; the inverse of ``with_coeffs``."""
        return [layer.coeffs for layer in self.layers]

    def with_coeffs(self, coeffs: list[np.ndarray]) -> "LayeredModel":
        return LayeredModel(
            tuple(replace(l, coeffs=c) for l, c in zip(self.layers, coeffs))
        )


def init_layered_model(
    x,
    kernels: list[ScalarKernelSpec],
    outputs: list[np.ndarray],
    seed: int = 0,
    capacities: list[float | None] | None = None,
) -> LayeredModel:
    """Build a model anchored at the training inputs propagated layer-wise,
    with coefficients i.i.d. uniform in [-0.1, 0.1] from the seed."""
    pts = as_points(x, kernels[0].dimension)
    if len(kernels) != len(outputs):
        raise InputError("kernels and output matrices must pair up")
    caps = capacities if capacities is not None else [None] * len(kernels)
    layers = []
    u = pts
    for j, (spec, m_mat) in enumerate(zip(kernels, outputs)):
        g = substream(seed, j)
        m_mat = make_output_matrix(m_mat)
        c = g.uniform(-0.1, 0.1, size=(u.shape[0], m_mat.shape[0]))
        layer = VVLayer(spec, m_mat, u, c, capacity=caps[j])
        layers.append(layer)
        u = layer.apply(u)
    return LayeredModel(tuple(layers))


def forward(model: LayeredModel, x) -> np.ndarray:
    """Evaluate the composition on a batch; rows are outputs."""
    return _forward_trace(model, x, model.coeffs)[-1]


def _forward_trace(model: LayeredModel, x, coeffs: list[np.ndarray]) -> list[np.ndarray]:
    """Per-level inputs at the given coefficients: levels[j] feeds layer j;
    levels[L] is the output."""
    levels = [as_points(x, model.input_dim)]
    for layer, c in zip(model.layers, coeffs):
        levels.append(_apply(layer, levels[-1], c))
    return levels


def _columns(a) -> np.ndarray:
    """Float array of labels or probes, a 1-D input read as one column."""
    a = np.asarray(a, dtype=float)
    return a[:, None] if a.ndim == 1 else a


def default_probes(y, m: int) -> np.ndarray:
    """Data labels as probe vectors, with canonical-basis rows replacing any
    zero labels so the probe span never degenerates."""
    probes = _columns(y).copy()
    zero = np.linalg.norm(probes, axis=1) == 0.0
    for i in np.flatnonzero(zero):
        probes[i] = 0.0
        probes[i, i % m] = 1.0
    return probes


def _pf_bottom(model: LayeredModel, x: np.ndarray, probes: np.ndarray):
    """(probe bilinear matrix, whitening basis of G_bottom)."""
    m_tilde = model.layers[-1].output
    if probes.shape[1] != m_tilde.shape[0]:
        raise InputError(
            f"probes live in R^{probes.shape[1]} but the output space is "
            f"R^{m_tilde.shape[0]}"
        )
    probe_bilinear = probes @ m_tilde @ probes.T
    g_bottom = gram_scalar(model.layers[0].kernel, x) * probe_bilinear
    return probe_bilinear, _pencil_basis(g_bottom)


def _pf_top(model: LayeredModel, mids: np.ndarray, probe_bilinear: np.ndarray):
    """(G_top, last-layer kernel Gram) from the last layer's inputs."""
    k_top = gram_scalar(model.layers[-1].kernel, mids)
    return k_top * probe_bilinear, k_top


def pf_product_norm(model: LayeredModel, xs, probes) -> float:
    """Norm of the transfer-operator product restricted to the probe span."""
    return _Objective(model, xs, probes=probes).pf_norm(model.coeffs)


def top_layer_norm(model: LayeredModel) -> float:
    """RKHS norm of the last layer."""
    return model.layers[-1].rkhs_norm()


def pf_complexity_bound(model: LayeredModel, xs, probes) -> dict:
    """(1/n) * pf_norm * top_norm * sqrt(sum_i Tr K_1(x_i, x_i)), with all
    factors reported; evaluated at the given model."""
    x = as_points(xs, model.input_dim)
    n = x.shape[0]
    first = model.layers[0]
    diag = np.diag(gram_scalar(first.kernel, x))
    trace_root = float(np.sqrt(np.sum(diag) * np.trace(first.output)))
    pf = pf_product_norm(model, x, probes)
    top = top_layer_norm(model)
    return {
        "total": pf * top * trace_root / n,
        "pf_norm": pf,
        "top_norm": top,
        "trace_root": trace_root,
        "n": n,
        "note": "evaluated at the given model",
    }


def separable_bound(
    kappa: float, tr_m1: float, n: int, mode: str, pf_norm: float, top_norm: float
) -> float:
    """Separable-kernel complexity bound in two conventions, from its
    transfer-product and top-layer factors.

    ``printed`` uses sqrt(kappa Tr(M1)) / n; ``consistent`` uses
    sqrt(kappa Tr(M1) / n), the specialization of the general product bound.
    """
    if mode not in ("printed", "consistent"):
        raise InputError(f"unknown mode {mode!r}")
    if mode == "printed":
        lead = np.sqrt(kappa * tr_m1) / n
    else:
        lead = np.sqrt(kappa * tr_m1 / n)
    return float(lead * pf_norm * top_norm)


@dataclass(frozen=True)
class TrainConfig:
    lambda1: float = 0.0
    lambda2: float = 0.0
    step: float = 0.1
    iters: int = 100
    grad_mode: str = "analytic"
    tol: float = 1e-10  # gradient-norm stop

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise InputError("regularization weights must be nonnegative")
        if self.grad_mode not in ("analytic", "finite-diff"):
            raise InputError(f"unknown grad_mode {self.grad_mode!r}")
        if self.iters < 1 or not self.step > 0:
            raise InputError("iters must be >= 1 and step positive")


class _Objective:
    """Training objective of one model's fixed layers on fixed inputs, labels
    and probes.  Its methods take a list of coefficient arrays, one per layer;
    G_bottom is whitened and the last layer's anchor Gram assembled on first
    use."""

    def __init__(self, model: LayeredModel, xs, ys=None, probes=None):
        self.x = as_points(xs, model.input_dim)
        self.y = None if ys is None else _columns(ys)
        if probes is None:
            probes = default_probes(self.y, model.output_dim)
        self.probes = _columns(probes)
        self.model = model

    @cached_property
    def bottom(self) -> tuple[np.ndarray, np.ndarray]:
        """(probe bilinear matrix, whitening basis of G_bottom)."""
        if self.probes.shape[0] != self.x.shape[0]:
            raise InputError("one probe vector per point is required")
        if np.any(np.linalg.norm(self.probes, axis=1) == 0.0):
            raise InputError("probe vectors must be nonzero")
        return _pf_bottom(self.model, self.x, self.probes)

    @cached_property
    def top_gram(self) -> np.ndarray:
        """Kernel Gram of the last layer's anchors."""
        last = self.model.layers[-1]
        return gram_scalar(last.kernel, last.anchors)

    def top_norm(self, coeffs) -> float:
        """RKHS norm of the last layer."""
        return _expansion_norm(self.top_gram, coeffs[-1], self.model.layers[-1].output)

    def pf_norm(self, coeffs, mids=None) -> float:
        """Transfer-product norm; ``mids`` are the last layer's inputs."""
        if mids is None:
            mids = _forward_trace(self.model, self.x, coeffs)[-2]
        probe_bilinear, basis = self.bottom
        g_top, _ = _pf_top(self.model, mids, probe_bilinear)
        return float(np.sqrt(_pencil_value(g_top, basis)))

    def terms(self, coeffs, lambda1, lambda2) -> tuple[float, float, float]:
        levels = _forward_trace(self.model, self.x, coeffs)
        data = float(np.sum((levels[-1] - self.y) ** 2)) / self.x.shape[0]
        pf_term = lambda1 * self.pf_norm(coeffs, levels[-2]) if lambda1 > 0 else 0.0
        top_term = lambda2 * self.top_norm(coeffs) if lambda2 > 0 else 0.0
        return data, pf_term, top_term

    def gradient(self, coeffs, lambda1, lambda2, mode) -> list[np.ndarray]:
        if mode == "finite-diff":
            return _fd_gradient(self, coeffs, lambda1, lambda2)
        if mode != "analytic":
            raise InputError(f"unknown gradient mode {mode!r}")
        model = self.model
        _require_gaussian(model)

        levels = _forward_trace(model, self.x, coeffs)
        kmats = [
            gram_scalar_cross(layer.kernel, levels[j], layer.anchors)
            for j, layer in enumerate(model.layers)
        ]
        grads = [np.zeros_like(c) for c in coeffs]

        # seed at the output: data term
        seeds = {model.depth: (2.0 / self.x.shape[0]) * (levels[-1] - self.y)}

        if lambda1 > 0:
            mids = levels[-2]
            probe_bilinear, basis = self.bottom
            g_top, k_top = _pf_top(model, mids, probe_bilinear)
            rho, a_vec, gap = _pencil_vector(g_top, basis)
            if rho > 0 and np.isfinite(gap) and gap < _EIG_GAP_TOL * rho:
                warnings.warn(
                    "top pencil eigenvalue nearly degenerate; falling back to "
                    "finite-difference gradients",
                    stacklevel=3,
                )
                return _fd_gradient(self, coeffs, lambda1, lambda2)
            if rho > 0:
                t_mat = np.outer(a_vec, a_vec) * probe_bilinear * k_top
                gamma_l = model.layers[-1].kernel.bandwidth
                d_rho_d_mid = -4.0 * gamma_l * (
                    t_mat.sum(axis=1)[:, None] * mids - t_mat @ mids
                )
                scale = lambda1 / (2.0 * np.sqrt(rho))
                seeds[model.depth - 1] = seeds.get(
                    model.depth - 1, np.zeros_like(mids)
                ) + scale * d_rho_d_mid

        if lambda2 > 0:
            top = self.top_norm(coeffs)
            if top > 0:
                m_top = model.layers[-1].output
                grads[-1] += lambda2 * (self.top_gram @ coeffs[-1] @ m_top) / top

        gbar = seeds[model.depth]
        for j in range(model.depth - 1, -1, -1):
            grad_c, grad_u = _backprop_layer(
                model.layers[j], coeffs[j], levels[j], kmats[j], gbar
            )
            grads[j] += grad_c
            gbar = grad_u
            if j in seeds:
                gbar = gbar + seeds[j]
        return grads


def objective_terms(
    model: LayeredModel, xs, ys, lambda1: float, lambda2: float, probes=None
) -> tuple[float, float, float]:
    """(data term, lambda1 * pf norm, lambda2 * top norm)."""
    return _Objective(model, xs, ys, probes).terms(model.coeffs, lambda1, lambda2)


def objective(
    model: LayeredModel, xs, ys, lambda1: float, lambda2: float, probes=None
) -> float:
    return sum(objective_terms(model, xs, ys, lambda1, lambda2, probes))


def _require_gaussian(model: LayeredModel) -> None:
    for j, layer in enumerate(model.layers, start=1):
        if layer.kernel.family != "gaussian":
            raise InputError(
                f"analytic gradients need gaussian layer kernels; layer {j} "
                f"is {layer.kernel.family}"
            )


def _backprop_layer(
    layer: VVLayer, c: np.ndarray, u: np.ndarray, kmat: np.ndarray, gbar: np.ndarray
):
    """Given d obj / d out for one layer at coefficients ``c``, return
    (d obj / d C, d obj / d u)."""
    grad_c = kmat.T @ gbar @ layer.output
    w = (gbar @ (c @ layer.output).T) * kmat  # (n, q)
    gamma = layer.kernel.bandwidth
    grad_u = -2.0 * gamma * (w.sum(axis=1)[:, None] * u - w @ layer.anchors)
    return grad_c, grad_u


def gradient(
    model: LayeredModel,
    xs,
    ys,
    lambda1: float,
    lambda2: float,
    mode: str = "analytic",
    probes=None,
) -> list[np.ndarray]:
    """Gradient of the training objective with respect to every coefficient
    matrix.

    Notes
    -----
    The transfer-product term differentiates rho, the top pencil eigenvalue,
    as d rho = a^T dG_top a with a the G_bottom-normalized eigenvector; this
    is the simple-eigenvalue perturbation formula and is exact to first order
    because the whitening basis depends only on G_bottom.  When the top
    eigenvalue gap falls below 1e-8 relative, the whole gradient falls back to
    central finite differences (step 1e-5 * (1 + |parameter|)) with a warning.
    """
    return _Objective(model, xs, ys, probes).gradient(model.coeffs, lambda1, lambda2, mode)


def _fd_gradient(problem: _Objective, coeffs: list[np.ndarray], lambda1, lambda2):
    grads = []
    for j, c in enumerate(coeffs):
        g = np.zeros_like(c)
        it = np.nditer(c, flags=["multi_index"])
        for val in it:
            idx = it.multi_index
            h = _FD_STEP * (1.0 + abs(float(val)))
            for sign in (+1.0, -1.0):
                bumped = coeffs[:j] + [c.copy()] + coeffs[j + 1 :]
                bumped[j][idx] += sign * h
                obj = sum(problem.terms(bumped, lambda1, lambda2))
                g[idx] += sign * obj / (2.0 * h)
        grads.append(g)
    return grads


@dataclass
class TrainResult:
    model: LayeredModel
    trajectory: list[dict] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    warning: str | None = None


def train(model: LayeredModel, xs, ys, cfg: TrainConfig, probes=None) -> TrainResult:
    """Gradient descent with backtracking on the coefficient arrays of the
    model's fixed layers; the objective never increases across accepted steps
    and the trajectory records objective, transfer-product norm, and top-layer
    norm per accepted iteration."""
    problem = _Objective(model, xs, ys, probes)

    def full_obj(coeffs):
        return sum(problem.terms(coeffs, cfg.lambda1, cfg.lambda2))

    coeffs = model.coeffs
    obj = full_obj(coeffs)
    if not np.isfinite(obj):
        raise NumericError(f"objective is non-finite at the start ({obj})")
    result = TrainResult(model=model)
    for it in range(1, cfg.iters + 1):
        grads = problem.gradient(coeffs, cfg.lambda1, cfg.lambda2, cfg.grad_mode)
        gnorm = float(np.sqrt(sum(np.sum(g * g) for g in grads)))
        if gnorm <= cfg.tol:
            result.converged = True
            result.iterations = it - 1
            break
        step = cfg.step
        accepted = False
        while step >= _MIN_STEP:
            cand = [c - step * g for c, g in zip(coeffs, grads)]
            cand_obj = full_obj(cand)
            if not np.isfinite(cand_obj):
                step *= 0.5
                continue
            if cand_obj <= obj - _ARMIJO * step * gnorm * gnorm:
                coeffs, obj = cand, cand_obj
                accepted = True
                break
            step *= 0.5
        if not accepted:
            result.warning = "line search stalled"
            result.iterations = it - 1
            break
        pf = problem.pf_norm(coeffs)
        top = problem.top_norm(coeffs)
        result.trajectory.append(
            {"iteration": it, "objective": obj, "pf_norm": pf, "top_norm": top,
             "step": step}
        )
        result.iterations = it
    result.model = model.with_coeffs(coeffs)
    return result


def capacity_diagnostics(model: LayeredModel) -> list[dict]:
    """Per-layer capacity report.  Capacities are advisory: the last layer's
    bound applies to its RKHS norm, and `within` is None when no capacity is
    set."""
    out = []
    for j, layer in enumerate(model.layers):
        norm = layer.rkhs_norm()
        entry = {"layer": j + 1, "capacity": layer.capacity, "rkhs_norm": norm}
        if layer.capacity is None:
            entry["within"] = None
        else:
            entry["within"] = bool(norm <= layer.capacity)
        out.append(entry)
    return out


def project_top_capacity(model: LayeredModel) -> LayeredModel:
    """Rescale the last layer's coefficients onto its capacity ball when the
    top-layer norm exceeds it; otherwise return the model unchanged."""
    last = model.layers[-1]
    if last.capacity is None:
        return model
    norm = last.rkhs_norm()
    if norm <= last.capacity:
        return model
    scaled = replace(last, coeffs=last.coeffs * (last.capacity / norm))
    return LayeredModel(tuple(model.layers[:-1]) + (scaled,))


def model_to_dict(model: LayeredModel) -> dict:
    """JSON-ready checkpoint: kernels, output matrices, anchors, coefficients."""
    layers = []
    for layer in model.layers:
        layers.append(
            {
                "kernel": {
                    "family": layer.kernel.family,
                    "bandwidth": layer.kernel.bandwidth,
                    "smoothness": layer.kernel.smoothness,
                    "dimension": layer.kernel.dimension,
                },
                "output": layer.output.tolist(),
                "anchors": layer.anchors.tolist(),
                "coeffs": layer.coeffs.tolist(),
                "capacity": layer.capacity,
            }
        )
    return {"layers": layers}


def model_from_dict(payload: dict) -> LayeredModel:
    layers = []
    for entry in payload["layers"]:
        k = entry["kernel"]
        spec = ScalarKernelSpec(
            family=k["family"],
            bandwidth=k["bandwidth"],
            smoothness=k.get("smoothness", 0.0),
            dimension=k["dimension"],
        )
        layers.append(
            VVLayer(
                spec,
                np.asarray(entry["output"], dtype=float),
                np.asarray(entry["anchors"], dtype=float),
                np.asarray(entry["coeffs"], dtype=float),
                capacity=entry.get("capacity"),
            )
        )
    return LayeredModel(tuple(layers))


def refine_kernel(model: LayeredModel, a_mat, direction: str) -> LayeredModel:
    """Replace every layer's output matrix by A, after verifying the
    eigenvalue ordering: shrink requires M_j - A PSD, enlarge requires
    A - M_j PSD (min eigenvalue >= -1e-10)."""
    if direction not in ("shrink", "enlarge"):
        raise InputError(f"unknown refinement direction {direction!r}")
    a_mat = make_output_matrix(a_mat)
    new_layers = []
    for j, layer in enumerate(model.layers, start=1):
        if layer.output.shape != a_mat.shape:
            raise InputError(
                f"layer {j} has output matrix of shape {layer.output.shape}, "
                f"refinement matrix has {a_mat.shape}"
            )
        diff = layer.output - a_mat if direction == "shrink" else a_mat - layer.output
        min_eig = float(np.linalg.eigvalsh(diff)[0])
        if min_eig < -1e-10:
            raise RefinementOrderError(
                f"refinement ordering violated at layer {j}: minimum "
                f"eigenvalue of the {direction} difference is {min_eig}"
            )
        new_layers.append(replace(layer, output=a_mat))
    return LayeredModel(tuple(new_layers))
