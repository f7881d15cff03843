"""Penalized empirical risk minimization, full and sketched.

The full program fits a coefficient matrix A (n x m):

    min_A  (1/n) sum_i loss([G A M]_i, y_i) + (lambda_n / 2) Tr(G A M A^T)

and sketching reparameterizes A = S^T Gamma with Gamma (s x m):

    min_G  (1/n) sum_i loss([G S^T Gamma M]_i, y_i)
           + (lambda_n / 2) Tr(S G S^T Gamma M Gamma^T)

For the squared loss both programs are quadratic and solved exactly through
the stationarity system.  Lipschitz losses use deterministic full-batch
proximal subgradient descent: a subgradient step on the data term followed by
the exact proximal map of the ridge term (a diagonal solve in the joint
eigenbases of the Gram and output matrices), with a backtracking line search,
so the objective is nonincreasing across accepted steps and runs are
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, UnboundedLossError
from .kernels import DecomposableKernel, as_points, check_kappa, gram_scalar, gram_scalar_cross
from .losses import UNBOUNDED, LossSpec, loss_subgradient, loss_value
from .sketching import SketchMatrix
from .spectral import SpectralDecomposition, eigendecompose_scaled_gram

_ARMIJO = 1e-4
_MIN_STEP = 1e-14


@dataclass(frozen=True)
class FitConfig:
    lambda_n: float
    max_iters: int = 500
    step_size: float = 1.0
    tol: float = 1e-8

    def __post_init__(self):
        if not self.lambda_n > 0:
            raise InputError("lambda_n must be positive")
        if self.max_iters < 1:
            raise InputError("max_iters must be >= 1")
        if not self.step_size > 0:
            raise InputError("step_size must be positive")
        if not self.tol > 0:
            raise InputError("tol must be positive")


@dataclass
class FitDiagnostics:
    objective: float
    grad_norm: float
    iterations: int
    converged: bool
    warning: str | None = None


@dataclass
class FittedModel:
    """Representer-form model: a full fit (``sketch`` is None) with
    coefficients A (n x m), or a sketched fit with Gamma (s x m) and A =
    S^T Gamma."""

    coeffs: np.ndarray
    kernel: DecomposableKernel
    anchors: np.ndarray
    diagnostics: FitDiagnostics
    sketch: SketchMatrix | None = None

    def effective_coeffs(self) -> np.ndarray:
        if self.sketch is None:
            return self.coeffs
        return self.sketch.matrix.T @ self.coeffs

    def predict(self, x, gram=None) -> np.ndarray:
        """Rows k(x, anchors) @ A @ M; ``gram`` is k(x, anchors) when at hand
        (the training Gram when x are the anchors)."""
        if gram is None:
            gram = gram_scalar_cross(self.kernel.scalar, x, self.anchors)
        elif np.shape(gram) != (as_points(x).shape[0], self.anchors.shape[0]):
            raise InputError(f"Gram shape {np.shape(gram)} does not match points x anchors")
        return gram @ self.effective_coeffs() @ self.kernel.output


def _prepare(kernel: DecomposableKernel, x, y, gram=None):
    pts = as_points(x, kernel.scalar.dimension)
    targets = np.asarray(y, dtype=float)
    if targets.ndim == 1:
        targets = targets[:, None]
    if targets.shape != (pts.shape[0], kernel.output_dim):
        raise InputError(
            f"targets shape {targets.shape} incompatible with "
            f"{pts.shape[0]} points and output dimension {kernel.output_dim}"
        )
    if pts.shape[0] == 0:
        raise InputError("data must be nonempty")
    if gram is None:
        g = gram_scalar(kernel.scalar, pts)
    else:
        g = np.asarray(gram, dtype=float)
        if g.shape != (pts.shape[0],) * 2:
            raise InputError(f"Gram shape {g.shape} does not match {pts.shape[0]} points")
        if not np.all(np.isfinite(g)):
            raise NumericError("Gram matrix contains non-finite entries")
        check_kappa(kernel.scalar, g)
    return pts, targets, g


def _require_invertible_m(m: np.ndarray) -> None:
    vals = np.linalg.eigvalsh(m)
    if vals[0] <= 1e-12 * max(vals[-1], 1.0):
        raise InputError("output matrix M must be strictly positive definite")


def _mean_loss(loss: LossSpec, preds: np.ndarray, y: np.ndarray) -> float:
    # builtin sum, not np.sum: pairwise summation would change the last bits
    return sum(loss_value(loss, preds, y).tolist()) / y.shape[0]


def objective_full(
    kernel: DecomposableKernel, g: np.ndarray, y: np.ndarray,
    loss: LossSpec, lambda_n: float, a: np.ndarray,
) -> float:
    ga = g @ a
    data = _mean_loss(loss, ga @ kernel.output, y)
    penalty = 0.5 * lambda_n * float(np.sum(ga * (a @ kernel.output)))
    return data + penalty


def objective_sketched(
    kernel: DecomposableKernel, g: np.ndarray, y: np.ndarray,
    loss: LossSpec, lambda_n: float, s_dense: np.ndarray, gamma: np.ndarray,
) -> float:
    k_sk = g @ s_dense.T
    return _objective_sketched(kernel.output, k_sk, s_dense @ k_sk, y, loss, lambda_n, gamma)


def _objective_sketched(m_mat, k_sk, sgs, y, loss, lambda_n, gamma) -> float:
    # objective_sketched on the loop-invariant k_sk = G S^T and sgs = S G S^T
    data = _mean_loss(loss, k_sk @ gamma @ m_mat, y)
    return data + 0.5 * lambda_n * float(np.sum((sgs @ gamma) * (gamma @ m_mat)))


def _solve_squared_full(spectrum, m_mat, y, lambda_n):
    # stationarity: G A M + (n lambda / 2) A = Y; in M's eigenbasis V each
    # column of A V solves a ridge system (mu_j G + (n lambda / 2) I) on G's
    # tridiagonal form
    m_vals, m_vecs = np.linalg.eigh(m_mat)
    c = 0.5 * spectrum.size * lambda_n
    return spectrum.ridge_solve(m_vals, c, y @ m_vecs) @ m_vecs.T


def _solve_squared_sketched(k_sk, sgs, m_mat, y, lambda_n):
    # per-column systems after right-multiplying stationarity by M^-1:
    #   [(2 mu_j / n) S G^2 S^T + lambda S G S^T] gamma_j = (2/n) (S G Y V)_j
    # on the fit's k_sk = G S^T and sgs = S G S^T; S G is k_sk^T, G symmetric
    n = k_sk.shape[0]
    m_vals, m_vecs = np.linalg.eigh(m_mat)
    sg = k_sk.T
    sg2s = sg @ k_sk
    rhs = (2.0 / n) * (sg @ y @ m_vecs)
    cols = []
    for j, mu in enumerate(m_vals):
        mat = (2.0 * mu / n) * sg2s + lambda_n * sgs
        sol, *_ = np.linalg.lstsq(mat, rhs[:, j], rcond=None)
        cols.append(sol)
    gamma_t = np.stack(cols, axis=1)
    return gamma_t @ m_vecs.T


def _diag_prox(a_eigh, m_mat: np.ndarray, lambda_n: float):
    """Proximal map of (lambda/2) Tr(A X M X^T): solves X + t*lambda*A X M = V
    through the eigenbases of A (``a_eigh = np.linalg.eigh(A)``) and M."""
    a_vals, a_vecs = a_eigh
    m_vals, m_vecs = np.linalg.eigh(m_mat)
    cross = lambda_n * np.outer(a_vals, m_vals)

    def prox(v: np.ndarray, t: float) -> np.ndarray:
        vt = a_vecs.T @ v @ m_vecs
        return a_vecs @ (vt / (1.0 + t * cross)) @ m_vecs.T

    return prox


def _descend(objective, loss_grad, prox, start, cfg):
    """Backtracking proximal subgradient descent; returns (coeffs, diagnostics).

    The reported gradient norm is the proximal-gradient residual at the base
    step size, which coincides with the plain gradient norm when the penalty
    vanishes.
    """
    coeffs = start.copy()
    obj = objective(coeffs)
    iters = 0
    warning = None
    residual = np.inf
    for iters in range(1, cfg.max_iters + 1):
        grad = loss_grad(coeffs)
        t0 = cfg.step_size
        mapped = prox(coeffs - t0 * grad, t0)
        residual = float(np.linalg.norm(coeffs - mapped)) / t0
        if residual <= cfg.tol:
            return coeffs, FitDiagnostics(obj, residual, iters - 1, True)
        step = t0
        cand = mapped
        accepted = False
        while step >= _MIN_STEP:
            if cand is None:
                cand = prox(coeffs - step * grad, step)
            cand_obj = objective(cand)
            move = float(np.linalg.norm(cand - coeffs))
            if cand_obj <= obj - (_ARMIJO / step) * move * move:
                coeffs, obj = cand, cand_obj
                accepted = True
                break
            step *= 0.5
            cand = None
        if not accepted:
            warning = "line search stalled before reaching tolerance"
            break
    converged = residual <= cfg.tol
    if not converged and warning is None:
        warning = "max_iters reached before gradient tolerance"
    return coeffs, FitDiagnostics(obj, residual, iters, converged, warning)


def fit_full(
    kernel: DecomposableKernel, x, y, loss: LossSpec, cfg: FitConfig,
    gram=None, spectrum: SpectralDecomposition | None = None,
) -> FittedModel:
    """Fit the full representer program.

    Parameters
    ----------
    kernel : decomposable kernel with strictly PD output matrix.
    x, y : training inputs (n, d) and targets (n, m).
    loss : squared (direct solve) or Lipschitz (proximal subgradient descent).
    cfg : ridge weight and solver controls.
    gram : the n x n scalar Gram k(x_i, x_j), reused instead of assembled; it
        is checked for shape, finite entries and the scalar kernel's kappa.
    spectrum : ``eigendecompose_scaled_gram`` of that Gram, whose Gram then
        serves as ``gram``; the squared solve reuses its tridiagonal form
        instead of reducing the Gram again.
    """
    if spectrum is not None:
        if gram is not None and gram is not spectrum.gram:
            raise InputError("spectrum decomposes another Gram than gram")
        gram = spectrum.gram
    pts, targets, g = _prepare(kernel, x, y, gram)
    _require_invertible_m(kernel.output)
    m_mat = kernel.output
    n = pts.shape[0]
    if loss.family == "squared":
        if spectrum is None:
            spectrum = eigendecompose_scaled_gram(g, n)
        a = _solve_squared_full(spectrum, m_mat, targets, cfg.lambda_n)
        obj = objective_full(kernel, g, targets, loss, cfg.lambda_n, a)
        resid = g @ ((2.0 / n) * (g @ a @ m_mat - targets) + cfg.lambda_n * a) @ m_mat
        diag = FitDiagnostics(obj, float(np.linalg.norm(resid)), 0, True)
        return FittedModel(a, kernel, pts, diag)

    def objective(a):
        return objective_full(kernel, g, targets, loss, cfg.lambda_n, a)

    def loss_grad(a):
        preds = g @ a @ m_mat
        xi = loss_subgradient(loss, preds, targets)
        return g @ (xi / n) @ m_mat

    prox = _diag_prox(np.linalg.eigh(g), m_mat, cfg.lambda_n)
    start = np.zeros_like(targets)
    coeffs, diag = _descend(objective, loss_grad, prox, start, cfg)
    return FittedModel(coeffs, kernel, pts, diag)


def fit_sketched(
    kernel: DecomposableKernel, x, y, loss: LossSpec, cfg: FitConfig, sk: SketchMatrix,
    gram=None,
) -> FittedModel:
    """Fit the sketched program on the Gamma parameterization.

    ``gram`` is the n x n scalar Gram k(x_i, x_j), reused instead of
    assembled and checked as in :func:`fit_full`.
    """
    pts, targets, g = _prepare(kernel, x, y, gram)
    _require_invertible_m(kernel.output)
    s_dense = sk.matrix
    if s_dense.shape[1] != pts.shape[0]:
        raise InputError(
            f"sketch has {s_dense.shape[1]} columns for {pts.shape[0]} points"
        )
    m_mat = kernel.output
    n = pts.shape[0]
    k_sk = g @ s_dense.T
    sgs = s_dense @ k_sk
    if loss.family == "squared":
        gamma = _solve_squared_sketched(k_sk, sgs, m_mat, targets, cfg.lambda_n)
        obj = _objective_sketched(m_mat, k_sk, sgs, targets, loss, cfg.lambda_n, gamma)
        resid = (
            k_sk.T @ ((2.0 / n) * (k_sk @ gamma @ m_mat - targets)) @ m_mat
            + cfg.lambda_n * sgs @ gamma @ m_mat
        )
        diag = FitDiagnostics(obj, float(np.linalg.norm(resid)), 0, True)
        return FittedModel(gamma, kernel, pts, diag, sketch=sk)

    def objective(gamma):
        return _objective_sketched(m_mat, k_sk, sgs, targets, loss, cfg.lambda_n, gamma)

    def loss_grad(gamma):
        preds = k_sk @ gamma @ m_mat
        xi = loss_subgradient(loss, preds, targets)
        return (k_sk.T @ xi / n) @ m_mat

    prox = _diag_prox(np.linalg.eigh(0.5 * (sgs + sgs.T)), m_mat, cfg.lambda_n)
    start = np.zeros((s_dense.shape[0], kernel.output_dim))
    coeffs, diag = _descend(objective, loss_grad, prox, start, cfg)
    return FittedModel(coeffs, kernel, pts, diag, sketch=sk)


def empirical_risk(model, x, y, loss: LossSpec, gram=None) -> float:
    """Mean loss of a FittedModel or row-wise predictor over a dataset;
    ``gram`` is k(x, anchors) for a FittedModel, as in ``predict``, and is
    rejected for a predictor."""
    pts = as_points(x)
    targets = np.asarray(y, dtype=float)
    if targets.ndim == 1:
        targets = targets[:, None]
    if pts.shape[0] == 0:
        raise InputError("data must be nonempty")
    if isinstance(model, FittedModel):
        preds = model.predict(pts, gram)
    elif gram is not None:
        raise InputError("gram applies only to a FittedModel")
    else:
        preds = np.asarray(model(pts), dtype=float)
    if preds.shape != targets.shape:
        raise InputError(f"predictions {preds.shape} vs targets {targets.shape}")
    return _mean_loss(loss, preds, targets)


@dataclass(frozen=True)
class ExcessRiskBound:
    value: float
    big_c: float
    terms: tuple[float, float, float, float]


def excess_risk_bound_rhs(
    j_l: float,
    c: float,
    lambda_n: float,
    m_opnorm: float,
    delta_sq: float,
    kappa: float,
    tr_m: float,
    n: int,
    conf_delta: float,
    l_lip: float | None = None,
) -> ExcessRiskBound:
    """High-probability excess-risk gap of the sketched estimator:

        J * C * sqrt(lambda_n + ||M|| delta_n^2) + lambda_n / 2
        + 8 L sqrt(kappa Tr(M) / n) + 2 sqrt(8 log(4/delta) / n),

    with C = 1 + sqrt(6) * c.  ``l_lip`` defaults to the loss constant J.
    """
    if not (0.0 < conf_delta < 1.0):
        raise InputError("confidence level conf_delta must be in (0, 1)")
    if j_l == UNBOUNDED or not math.isfinite(j_l):
        raise UnboundedLossError(
            "the squared loss has no global Lipschitz constant; "
            "the excess-risk bound applies to Lipschitz losses only"
        )
    for name, val in (
        ("j_l", j_l), ("c", c), ("lambda_n", lambda_n), ("m_opnorm", m_opnorm),
        ("kappa", kappa), ("tr_m", tr_m),
    ):
        if val < 0:
            raise InputError(f"{name} must be nonnegative, got {val}")
    if delta_sq < 0 or n < 1:
        raise InputError("delta_sq must be >= 0 and n >= 1")
    l_val = j_l if l_lip is None else l_lip
    big_c = 1.0 + math.sqrt(6.0) * c
    t1 = j_l * big_c * math.sqrt(lambda_n + m_opnorm * delta_sq)
    t2 = 0.5 * lambda_n
    t3 = 8.0 * l_val * math.sqrt(kappa * tr_m / n)
    t4 = 2.0 * math.sqrt(8.0 * math.log(4.0 / conf_delta) / n)
    return ExcessRiskBound(t1 + t2 + t3 + t4, big_c, (t1, t2, t3, t4))
