"""Deep vector-valued RKHS models with transfer-operator regularization.

A model is a stack of ``kernels.KernelExpansion`` layers f_j(x) = sum_i
k_j(x, z_i) M_j c_i with fixed anchors and trainable coefficients, so every
RKHS norm stays Gram-computable.  The product of the layer transfer
operators, restricted to the span of the probe features, has norm sqrt(rho),
rho the largest a^T G_top a / a^T G_bottom a over the range of G_bottom, with

    G_bottom[i, j] = k_1(x_i, x_j) * y_i^T M~ y_j
    G_top[i, j]    = k_L(h(x_i), h(x_j)) * y_i^T M~ y_j

where h composes all layers but the last and M~ is the output-space matrix
(the last layer's M; in the uniform-M setting all coincide).  Training is
gradient descent with an Armijo line search on

    (1/n) sum ||f(x_i) - y_i||^2 + lambda_1 * pf_norm + lambda_2 * top_norm.

Every trial step lies on the lattice step * 2^-j, with ``TrainConfig.step``
the first and largest trial step.  The first iteration tries that step and
halves.  Each later one starts at twice the last accepted step (at most
``step``; Nocedal & Wright 2006, *Numerical Optimization*, section 3.5),
doubles while the doubled step stays within ``step`` and is accepted, and,
when its first trial fails, tries ``step`` once before halving, since the
Armijo test is not monotone along the lattice.

Kernels, output matrices and anchors stay fixed; training moves only the
coefficient arrays, one per layer, and builds a model from them once, at the
end.  Four quantities do not depend on the coefficients, so one
:class:`DeepObjective` computes each once and reuses it for every objective,
gradient and norm of every ``train`` call on it: the whitening basis of
G_bottom, the first layer's cross Gram k_1(x, anchors_1), the last layer's
anchor Gram, and the squared norms and largest entry of every later layer's
anchors.  Each coefficient point gets one forward pass, which keeps every
layer's cross Gram and, from first use on, the last layer's kernel Gram and
G_top whitened (once per pass); the gradient backpropagates through those
Grams, and the accepted line-search candidate's pass, with its
transfer-product and top-layer norms and its whitened G_top, serves the
trajectory entry and the next gradient.  At most one candidate's Grams are
alive at a time: a candidate accepted below a doubled trial step gives its
Grams up, and takes its cross Grams back from a new forward pass at its
coefficients when the doubled step fails.  The analytic gradient
differentiates the top pencil eigenvalue through the simple-eigenvalue
formula d rho = a^T dG_top a (the whitening basis is fixed) and falls back to
finite differences when the top eigenvalue gap degenerates.  Its rho and gap
are the eigenvalues that ``pf_norm`` computed with ``eigvalsh``, and its
eigenvector comes from one inverse iteration shifted at that rho, so the
whitened G_top is decomposed once per point; ``eigh`` runs only when inverse
iteration gives no vector.

The Perron-Frobenius bound of a model is pf_norm * top_norm * trace_root, with
trace_root = sqrt(kappa_1 Tr M_1 / n) the ``complexity.trace_bound`` of the
first layer, the factor that ``koopman``'s product and split bounds call by
the same name.  ``separable_bound`` is the paper's printed convention,
sqrt(kappa_1 Tr M_1) / n in place of trace_root.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from ._rng import substream
from .complexity import trace_bound
from .errors import InputError, NumericError, RefinementOrderError
from .kernels import (
    KernelExpansion,
    ScalarKernelSpec,
    _CrossGram,
    _expansion_norm,
    as_labels,
    as_points,
    gram_scalar,
    gram_scalar_cross,
    make_output_matrix,
    require_psd,
)
from .spectral import (
    _pencil_basis,
    _rayleigh_floor,
    _top_eigenpair,
    _top_eigenvalue,
    _top_eigenvector,
    _whiten,
)

_EIG_GAP_TOL = 1e-8
_FD_STEP = 1e-5
_ARMIJO = 1e-4
_MIN_STEP = 1e-14


@dataclass(frozen=True)
class LayeredModel:
    layers: tuple[KernelExpansion, ...]

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
    seed: int,
) -> LayeredModel:
    """Build a model anchored at the training inputs propagated layer-wise,
    with coefficients i.i.d. uniform in [-0.1, 0.1] from the seed."""
    pts = as_points(x, kernels[0].dimension)
    if len(kernels) != len(outputs):
        raise InputError("kernels and output matrices must pair up")
    layers = []
    u = pts
    for j, (spec, m_mat) in enumerate(zip(kernels, outputs)):
        g = substream(seed, j)
        m_mat = make_output_matrix(m_mat)
        c = g.uniform(-0.1, 0.1, size=(u.shape[0], m_mat.shape[0]))
        layer = KernelExpansion(spec, m_mat, u, c)
        layers.append(layer)
        u = layer.at(u)
    return LayeredModel(tuple(layers))


def default_probes(y) -> np.ndarray:
    """Data labels as probe vectors, with canonical-basis rows replacing any
    zero labels so the probe span never degenerates."""
    probes = as_labels(y).copy()
    m = probes.shape[1]
    zero = np.linalg.norm(probes, axis=1) == 0.0
    for i in np.flatnonzero(zero):
        probes[i] = 0.0
        probes[i, i % m] = 1.0
    return probes


def separable_bound(
    kappa: float, tr_m1: float, n: int, pf_norm: float, top_norm: float
) -> float:
    """Separable-kernel complexity bound in the paper's printed convention,
    sqrt(kappa Tr(M1)) / n * pf_norm * top_norm.  The convention consistent
    with the general product bound, sqrt(kappa Tr(M1) / n) in place of the
    lead factor, is ``DeepObjective.pf_total``."""
    return float(np.sqrt(kappa * tr_m1) / n * pf_norm * top_norm)


@dataclass(frozen=True)
class TrainConfig:
    lambda1: float = 0.0
    lambda2: float = 0.0
    step: float = 0.1  # the first and largest trial step of every line search
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


@dataclass
class Pass:
    """One forward pass at a coefficient point, with what was computed on it.

    levels[j] feeds layer j through its cross Gram kmats[j]; ``k_top`` is the
    last layer's kernel Gram on levels[-2] and ``s`` is G_top = k_top *
    probe_bilinear whitened by G_bottom's basis, both set by
    ``DeepObjective._whitened`` on first use.  ``data``, ``pf`` and ``top``
    are the data term and the transfer-product and top-layer norms, set on
    first use, and ``vals`` the top two eigenvalues of ``s`` (ascending; one
    when ``s`` is 1 x 1), which ``pf`` comes from; ``w`` is the top
    eigenvector of ``s``, set by the analytic gradient."""

    coeffs: list[np.ndarray]
    levels: list[np.ndarray]
    kmats: list[np.ndarray] | None
    k_top: np.ndarray | None = None
    s: np.ndarray | None = None
    data: float | None = None
    pf: float | None = None
    top: float | None = None
    vals: np.ndarray | None = None
    w: np.ndarray | None = None

    def drop_grams(self) -> None:
        """Free ``kmats``, ``k_top`` and ``s``, the only code that does; the
        levels, norms, vals and w stay."""
        self.kmats = self.k_top = self.s = None


class DeepObjective:
    """Training objective (see the module docstring) of one model's fixed
    layers on fixed inputs and labels, with the labels' ``default_probes``
    as probes.  ``forward`` takes a list of coefficient arrays, one per layer
    (the model's own are ``model.coeffs``), and the other methods take its
    pass and keep what they compute on it.  G_bottom is whitened and the
    first layer's cross Gram and last layer's anchor Gram assembled once per
    objective, on first use.  ``forward_passes`` counts the ``forward``
    calls, and ``eigh_fallbacks`` the analytic gradients whose top whitened
    eigenvector came from ``eigh`` (``spectral._top_eigenpair``) because
    inverse iteration (``spectral._top_eigenvector``) gave none."""

    def __init__(self, model: LayeredModel, xs, ys):
        self.x = as_points(xs, model.input_dim)
        self.y = as_labels(ys)
        if self.y.shape != (self.x.shape[0], model.output_dim):
            raise InputError(
                f"labels of shape {self.y.shape} for {self.x.shape[0]} points and "
                f"{model.output_dim} model outputs"
            )
        self.probes = default_probes(self.y)
        self.model = model
        self.forward_passes = 0
        self.eigh_fallbacks = 0

    @cached_property
    def bottom(self) -> tuple[np.ndarray, np.ndarray]:
        """(probe bilinear matrix, whitening basis of G_bottom): one nonzero
        probe per point, in the last layer's output space."""
        probe_bilinear = self.probes @ self.model.layers[-1].output @ self.probes.T
        g_bottom = gram_scalar(self.model.layers[0].kernel, self.x) * probe_bilinear
        return probe_bilinear, _pencil_basis(g_bottom)

    @cached_property
    def first_gram(self) -> np.ndarray:
        """Cross Gram k_1(x, anchors_1) of the first layer."""
        first = self.model.layers[0]
        return gram_scalar_cross(first.kernel, self.x, first.anchors)

    @cached_property
    def top_gram(self) -> np.ndarray:
        """Kernel Gram of the last layer's anchors."""
        last = self.model.layers[-1]
        return gram_scalar(last.kernel, last.anchors)

    @cached_property
    def cross_grams(self) -> list[_CrossGram]:
        """Cross Grams against the anchors of every layer but the first."""
        return [_CrossGram(layer.kernel, layer.anchors) for layer in self.model.layers[1:]]

    def forward(self, coeffs) -> Pass:
        """The pass at the coefficients: levels[j] feeds layer j through its
        cross Gram kmats[j] = k_j(levels[j], anchors_j), and levels[L] is the
        output.  kmats[0] is ``first_gram``; the levels that feed the later
        layers are computed here, so their Grams skip ``as_points``."""
        self.forward_passes += 1
        layers = self.model.layers
        kmats = [self.first_gram]
        levels = [self.x, self.first_gram @ coeffs[0] @ layers[0].output]
        for layer, c, cross in zip(layers[1:], coeffs[1:], self.cross_grams):
            kmats.append(cross(levels[-1]))
            levels.append(kmats[-1] @ c @ layer.output)
        return Pass(coeffs, levels, kmats)

    def top_norm(self, fwd: Pass) -> float:
        """RKHS norm of the last layer."""
        if fwd.top is None:
            fwd.top = _expansion_norm(
                self.top_gram, fwd.coeffs[-1], self.model.layers[-1].output
            )
        return fwd.top

    def _whitened(self, fwd: Pass) -> np.ndarray:
        """The pass's ``s``: G_top = k_top * probe_bilinear whitened by
        G_bottom's basis, built with ``k_top`` on first use and kept."""
        if fwd.s is None:  # k_top is set and freed with s
            fwd.k_top = gram_scalar(self.model.layers[-1].kernel, fwd.levels[-2])
            fwd.s = _whiten(fwd.k_top * self.bottom[0], self.bottom[1])
        return fwd.s

    def pf_norm(self, fwd: Pass) -> float:
        """Transfer-product norm sqrt(rho); the top two eigenvalues of the
        whitened G_top, for the gradient's rho and gap, stay on the pass as
        ``vals``."""
        if fwd.pf is None:
            rho, vals = _top_eigenvalue(self._whitened(fwd))
            fwd.pf, fwd.vals = float(np.sqrt(rho)), vals[-2:].copy()
        return fwd.pf

    def data_term(self, fwd: Pass) -> float:
        if fwd.data is None:
            fwd.data = float(np.sum((fwd.levels[-1] - self.y) ** 2)) / self.x.shape[0]
        return fwd.data

    def terms(self, fwd: Pass, lambda1, lambda2) -> tuple[float, float, float]:
        data = self.data_term(fwd)
        pf_term = lambda1 * self.pf_norm(fwd) if lambda1 > 0 else 0.0
        top_term = lambda2 * self.top_norm(fwd) if lambda2 > 0 else 0.0
        return data, pf_term, top_term

    def exceeds(self, fwd: Pass, thresh, lambda1, lambda2, w=None) -> bool:
        """True when ``sum(terms(fwd, lambda1, lambda2)) > thresh`` is certain
        before the pencil eigensolve.  That sum is (data + pf_term) + top_term
        with pf_term >= 0, and rounded sums, products and square roots are
        monotone, so it is at least data + top_term, and at least the sum with
        rho replaced by any lower bound on its computed value.  Given a unit
        vector ``w`` (the top whitened eigenvector at the current point, set by
        the analytic gradient only when lambda1 > 0), that bound is the
        Rayleigh quotient of the whitened G_top S at w less a slack for
        rounding (``spectral._rayleigh_floor``); a NaN bound decides nothing.
        data and top_term are those of ``terms(fwd, 0, lambda2)``, and S is
        the pass's ``s`` (``_whitened``), which the norm and, once the pass is
        accepted, the gradient read.  When neither bound decides, the
        transfer-product norm is computed and kept for the full test."""
        data, _, top_term = self.terms(fwd, 0.0, lambda2)
        if data + top_term > thresh:
            return True
        if w is None:
            return False
        low = _rayleigh_floor(self._whitened(fwd), w)
        if (data + lambda1 * float(np.sqrt(max(low, 0.0)))) + top_term > thresh:
            return True
        self.pf_norm(fwd)
        return False

    @cached_property
    def trace_root(self) -> float:
        """``complexity.trace_bound`` of the first layer: sqrt(kappa_1 Tr M_1 / n)."""
        first = self.model.layers[0]
        return trace_bound(first.kernel.kappa, float(np.trace(first.output)), self.x.shape[0])

    def pf_total(self, pf: float, top: float) -> float:
        """``pf_bound``'s total from the transfer-product and top norms."""
        return pf * top * self.trace_root

    def pf_bound(self, fwd: Pass) -> dict:
        """pf_norm * top_norm * trace_root at the pass's coefficients, with
        all three factors reported."""
        pf, top = self.pf_norm(fwd), self.top_norm(fwd)
        return {
            "total": self.pf_total(pf, top),
            "pf_norm": pf,
            "top_norm": top,
            "trace_root": self.trace_root,
            "note": "evaluated at the given model",
        }

    def gradient(self, fwd: Pass, lambda1, lambda2, mode) -> list[np.ndarray]:
        """Gradient of the objective with respect to every coefficient array
        at the pass; ``mode`` is "analytic" (gaussian layer kernels only) or
        "finite-diff".

        Notes
        -----
        The transfer-product term differentiates rho, the top pencil
        eigenvalue, as d rho = a^T dG_top a with a the G_bottom-normalized
        eigenvector; this is the simple-eigenvalue perturbation formula and is
        exact to first order because the whitening basis depends only on
        G_bottom.  It reads the pass's whitened G_top ``s``; rho and the gap
        to the second eigenvalue are those of ``pf_norm``'s eigenvalues, so
        rho is the objective's, and the eigenvector comes from one inverse
        iteration shifted at rho
        (``spectral._top_eigenvector``), or from ``eigh`` with its own rho and
        gap when that gives none (counted in ``eigh_fallbacks``).  When the
        top eigenvalue gap falls below 1e-8 relative, the whole gradient falls
        back to central finite differences (step 1e-5 * (1 + |parameter|))
        with a warning.
        """
        if mode == "finite-diff":
            return _fd_gradient(self, fwd.coeffs, lambda1, lambda2)
        if mode != "analytic":
            raise InputError(f"unknown gradient mode {mode!r}")
        model, coeffs, levels = self.model, fwd.coeffs, fwd.levels
        _require_gaussian(model)
        grads = [np.zeros_like(c) for c in coeffs]

        # seed at the output: data term
        seeds = {model.depth: (2.0 / self.x.shape[0]) * (levels[-1] - self.y)}

        if lambda1 > 0:
            mids = levels[-2]
            probe_bilinear, basis = self.bottom
            s = self._whitened(fwd)
            self.pf_norm(fwd)  # sets vals
            vals, w = fwd.vals, _top_eigenvector(s, fwd.vals)
            if w is None:
                self.eigh_fallbacks += 1
                rho, a_vec, w, gap = _top_eigenpair(s, basis)
            else:  # a vector comes only with k >= 2 and vals[-1] > 0
                rho, a_vec, gap = float(vals[-1]), basis @ w, float(vals[-1] - vals[-2])
            fwd.w = w
            if rho > 0 and np.isfinite(gap) and gap < _EIG_GAP_TOL * rho:
                warnings.warn(
                    "top pencil eigenvalue nearly degenerate; falling back to "
                    "finite-difference gradients",
                    stacklevel=3,
                )
                return _fd_gradient(self, coeffs, lambda1, lambda2)
            if rho > 0:
                t_mat = np.outer(a_vec, a_vec) * probe_bilinear * fwd.k_top
                gamma_l = model.layers[-1].kernel.bandwidth
                d_rho_d_mid = -4.0 * gamma_l * (
                    t_mat.sum(axis=1)[:, None] * mids - t_mat @ mids
                )
                scale = lambda1 / (2.0 * np.sqrt(rho))
                seeds[model.depth - 1] = seeds.get(
                    model.depth - 1, np.zeros_like(mids)
                ) + scale * d_rho_d_mid

        if lambda2 > 0:
            top = self.top_norm(fwd)
            if top > 0:
                m_top = model.layers[-1].output
                grads[-1] += lambda2 * (self.top_gram @ coeffs[-1] @ m_top) / top

        gbar = seeds[model.depth]
        for j in range(model.depth - 1, -1, -1):
            layer, kmat = model.layers[j], fwd.kmats[j]
            grads[j] += kmat.T @ gbar @ layer.output
            if j == 0:  # the first layer's input gradient is read by nothing
                break
            gbar = _input_gradient(layer, coeffs[j], levels[j], kmat, gbar)
            if j in seeds:
                gbar = gbar + seeds[j]
        return grads


def _require_gaussian(model: LayeredModel) -> None:
    for j, layer in enumerate(model.layers, start=1):
        if layer.kernel.family != "gaussian":
            raise InputError(
                f"analytic gradients need gaussian layer kernels; layer {j} "
                f"is {layer.kernel.family}"
            )


def _input_gradient(
    layer: KernelExpansion, c: np.ndarray, u: np.ndarray, kmat: np.ndarray, gbar: np.ndarray
) -> np.ndarray:
    """Given d obj / d out for one layer at coefficients ``c``, return
    d obj / d u; d obj / d C is ``kmat.T @ gbar @ layer.output``."""
    w = (gbar @ (c @ layer.output).T) * kmat  # (n, q)
    gamma = layer.kernel.bandwidth
    return -2.0 * gamma * (w.sum(axis=1)[:, None] * u - w @ layer.anchors)


def _fd_gradient(problem: DeepObjective, coeffs: list[np.ndarray], lambda1, lambda2):
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
                obj = sum(problem.terms(problem.forward(bumped), lambda1, lambda2))
                g[idx] += sign * obj / (2.0 * h)
        grads.append(g)
    return grads


@dataclass
class TrainResult:
    """The trained model, the passes at the first and the last coefficient
    point, the per-iteration trajectory and the objective's ``forward``
    calls, which are the first point's one when nothing is trained, and its
    ``eigh_fallbacks``."""

    model: LayeredModel
    first: Pass
    last: Pass
    trajectory: list[dict] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    forward_passes: int = 1
    eigh_fallbacks: int = 0


def train(objective: DeepObjective, cfg: TrainConfig, trajectory: bool = True) -> TrainResult:
    """Gradient descent with an Armijo line search on the coefficient arrays
    of the objective's model, from the model's own coefficients; the
    objective never increases across accepted steps.  The trajectory records
    objective, transfer-product norm, top-layer norm and step per accepted
    iteration; without ``trajectory`` it stays empty and no per-iteration
    norm is computed for it.

    Notes
    -----
    ``cfg.step`` is the first and largest trial step, and every trial step
    is ``cfg.step * 2^-j``.  The first iteration tries ``cfg.step`` and
    halves until the Armijo test passes.  Each later iteration tries
    s0 = min(cfg.step, 2 * last accepted step) first.  When s0 passes, it
    tries 2s while 2s <= cfg.step and keeps the largest step of that
    accepted run.  When s0 fails, it tries ``cfg.step`` once (the Armijo
    test is not monotone along the lattice), then halves from s0 / 2.

    A line-search candidate is rejected before its pencil eigensolve when
    its data and top-layer terms alone, or those plus lambda_1 times a
    Rayleigh-quotient lower bound on its transfer-product norm, already
    exceed the Armijo threshold (see ``DeepObjective.exceeds``); the accept
    and reject decisions are those of the full objective."""
    model = objective.model
    lam1, lam2 = cfg.lambda1, cfg.lambda2
    passes, fallbacks = objective.forward_passes, objective.eigh_fallbacks
    point = objective.forward(model.coeffs)
    obj = sum(objective.terms(point, lam1, lam2))
    if not np.isfinite(obj):
        raise NumericError(f"objective is non-finite at the start ({obj})")
    result = TrainResult(model, point, point)
    last = None
    for it in range(1, cfg.iters + 1):
        grads = objective.gradient(point, lam1, lam2, cfg.grad_mode)
        # only one candidate's Grams are alive during the line search, which
        # keeps the peak memory of a step at that of its gradient
        point.drop_grams()
        gnorm = float(np.sqrt(sum(np.sum(g * g) for g in grads)))
        if gnorm <= cfg.tol:
            result.converged = True
            result.iterations = it - 1
            break
        found = _line_search(objective, cfg, point, obj, grads, gnorm, last)
        if found is None:  # the line search stalled
            result.iterations = it - 1
            break
        point, obj, last = found
        if trajectory:
            result.trajectory.append(
                {"iteration": it, "objective": obj, "pf_norm": objective.pf_norm(point),
                 "top_norm": objective.top_norm(point), "step": last}
            )
        result.iterations = it
    result.model, result.last = model.with_coeffs(point.coeffs), point
    result.forward_passes = objective.forward_passes - passes
    result.eigh_fallbacks = objective.eigh_fallbacks - fallbacks
    return result


def _line_search(objective, cfg, point, obj, grads, gnorm, last):
    """(pass, objective, step) of the step that ``train`` accepts from the
    point along -grads, ``last`` the previous accepted step (None at the
    first iteration); None when every step down to _MIN_STEP fails."""

    def trial(step):
        thresh = obj - _ARMIJO * step * gnorm * gnorm
        cand = objective.forward([c - step * g for c, g in zip(point.coeffs, grads)])
        if not objective.exceeds(cand, thresh, cfg.lambda1, cfg.lambda2, point.w):
            cand_obj = sum(objective.terms(cand, cfg.lambda1, cfg.lambda2))
            if np.isfinite(cand_obj) and cand_obj <= thresh:
                return cand, cand_obj
        cand.drop_grams()
        return None

    step = cfg.step if last is None else min(cfg.step, 2.0 * last)
    found = trial(step)
    if found is not None:
        while 2.0 * step <= cfg.step:
            lower = found[0]
            lower.drop_grams()  # one candidate's Grams at a time
            higher = trial(2.0 * step)
            if higher is None:  # the gradient needs the lower candidate's Grams again
                lower.kmats = objective.forward(lower.coeffs).kmats
                return *found, step
            found, step = higher, 2.0 * step
        return *found, step
    if step < cfg.step:
        found = trial(cfg.step)
        if found is not None:
            return *found, cfg.step
    step *= 0.5
    while step >= _MIN_STEP:
        found = trial(step)
        if found is not None:
            return *found, step
        step *= 0.5
    return None


def model_to_dict(model: LayeredModel) -> dict:
    """JSON-ready checkpoint: kernels, output matrices, anchors, coefficients."""
    layers = [
        {
            "kernel": asdict(layer.kernel),
            "output": layer.output.tolist(),
            "anchors": layer.anchors.tolist(),
            "coeffs": layer.coeffs.tolist(),
        }
        for layer in model.layers
    ]
    return {"layers": layers}


def model_from_dict(payload: dict) -> LayeredModel:
    """Inverse of model_to_dict; a kernel key that is omitted takes the
    ScalarKernelSpec default, and a malformed payload raises InputError.
    Older checkpoints carry a layer ``"capacity": null``, which loads; a set
    capacity raises InputError, since no model reads one any more."""
    try:
        layers = []
        for j, entry in enumerate(payload["layers"], start=1):
            if entry.get("capacity") is not None:
                raise InputError(
                    f"checkpoint layer {j} sets capacity {entry['capacity']!r}; "
                    "layer capacities are no longer supported"
                )
            layers.append(KernelExpansion(
                ScalarKernelSpec(**entry["kernel"]),
                np.asarray(entry["output"], dtype=float),
                np.asarray(entry["anchors"], dtype=float),
                np.asarray(entry["coeffs"], dtype=float),
            ))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"malformed checkpoint: {type(exc).__name__}: {exc}") from exc
    return LayeredModel(tuple(layers))


def refine_kernel(model: LayeredModel, a_mat, direction: str) -> LayeredModel:
    """Replace every layer's output matrix by A, after verifying the
    eigenvalue ordering: shrink requires M_j - A PSD, enlarge requires
    A - M_j PSD (``kernels.require_psd``)."""
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
        why = f"refinement ordering violated at layer {j}: the {direction} difference"
        require_psd(np.linalg.eigvalsh(diff), why, RefinementOrderError)
        new_layers.append(replace(layer, output=a_mat))
    return LayeredModel(tuple(new_layers))
