"""Penalized empirical risk minimization, full and sketched.

The full program fits a coefficient matrix A (n x m):

    min_A  (1/n) sum_i loss([G A M]_i, y_i) + (lambda_n / 2) Tr(G A M A^T)

and sketching reparameterizes A = S^T Gamma with Gamma (s x m):

    min_G  (1/n) sum_i loss([G S^T Gamma M]_i, y_i)
           + (lambda_n / 2) Tr(S G S^T Gamma M Gamma^T)

Both are one program in theta, (1/n) sum_i loss([K theta M]_i, y_i) +
(lambda_n / 2) Tr(P theta M theta^T): the full fit is (K, P) = (G, G) and the
sketched fit (G S^T, S G S^T).  For the squared loss it is quadratic and
solved through the stationarity system: the sketched program exactly, the
full one on the Gram's spectral decomposition (exact on its eigenvectors at
hand, by deflated conjugate gradients on the rest).  Lipschitz losses use
deterministic full-batch proximal subgradient descent from zero: a
subgradient step K^T (xi / n) M on the data term followed by the exact
proximal map of the ridge term (a diagonal solve in the joint eigenbases of P
and the output matrix), with a backtracking line search, so the objective is
nonincreasing across accepted steps and runs are reproducible.  Each fit
takes only the operands it solves on, and n from them.

Each fit builds its objective once (``_Objective`` of K, P, M, the targets,
the loss and lambda_n).  The build checks the operands through
``losses._residual``; an evaluation then only forms K theta (and P theta
unless P is K) and calls the loss formulas on the residual, so the line
search's trials repeat no conversion or check.  A product with an M that is
exactly the identity is skipped, in the objective, the subgradient and the
proximal map, because it changes no finite value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .complexity import trace_bound
from .errors import InputError, UnboundedLossError
from .kernels import DecomposableKernel, _is_identity, as_labels, check_kappa, finite_matrix
from .losses import UNBOUNDED, LossSpec, _residual, _residual_loss, loss_subgradient, loss_value
from .sketching import SketchMatrix
from .spectral import SpectralDecomposition

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
    S^T Gamma.  A full fit also keeps ``_gram_coeffs``, the G A it formed on
    its training Gram G, the bits of ``predict(G)`` before the product with
    M, so its training risk forms no second n x n x m product."""

    coeffs: np.ndarray
    kernel: DecomposableKernel
    diagnostics: FitDiagnostics
    sketch: SketchMatrix | None = None
    _gram_coeffs: np.ndarray | None = field(default=None, repr=False)

    def effective_coeffs(self) -> np.ndarray:
        if self.sketch is None:
            return self.coeffs
        return self.sketch.matrix.T @ self.coeffs

    def predict(self, gram) -> np.ndarray:
        """Rows k(x, anchors) @ A @ M at the points x whose cross Gram
        k(x, anchors) is ``gram`` (the training Gram when x are the anchors),
        one column per row of A."""
        a = self.effective_coeffs()
        if np.ndim(gram) != 2 or np.shape(gram)[1] != a.shape[0]:
            raise InputError(f"Gram shape {np.shape(gram)} does not match points x anchors")
        return gram @ a @ self.kernel.output


def _prepare(kernel: DecomposableKernel, y, n: int) -> np.ndarray:
    """The targets, checked to be n rows of the kernel's output dimension."""
    targets = as_labels(y)
    if targets.shape != (n, kernel.output_dim):
        raise InputError(
            f"targets shape {targets.shape} incompatible with "
            f"{n} points and output dimension {kernel.output_dim}"
        )
    return targets


def _require_invertible_m(m: np.ndarray) -> None:
    vals = np.linalg.eigvalsh(m)
    if vals[0] <= 1e-12 * max(vals[-1], 1.0):
        raise InputError("output matrix M must be strictly positive definite")


def _mean(rows: np.ndarray) -> float:
    # builtin sum, not np.sum: pairwise summation would change the last bits
    return sum(rows.tolist()) / rows.shape[0]


class _Objective:
    """theta -> (1/n) sum_i loss([K theta M]_i, y_i) + (lambda_n / 2) Tr(P theta M theta^T),
    the program of one fit: the full one at (K, P) = (G, G) and theta = A,
    the sketched one at (G S^T, S G S^T) and theta = Gamma.

    Built once per fit.  The build checks the operands once, through
    ``losses._residual`` and with its InputErrors: predictions of K's rows
    and M's order against the targets, and a pinball loss's quantile count.
    Products with M are skipped when M is exactly the identity."""

    def __init__(self, k, p, m_mat, y, loss: LossSpec, lambda_n: float):
        _residual(loss, np.zeros((k.shape[0], m_mat.shape[0])), y)
        self.k, self.p, self.m_mat = k, p, m_mat
        # C order, so every residual K theta M - y is C order as _residual's
        self.y = np.ascontiguousarray(y)
        self.loss, self.lambda_n = loss, lambda_n
        self._identity_m = _is_identity(m_mat)

    def times_m(self, a: np.ndarray) -> np.ndarray:
        """a M; a itself when M is exactly the identity."""
        return a if self._identity_m else a @ self.m_mat

    def __call__(self, theta: np.ndarray) -> float:
        """The objective at theta; ``k is p`` forms K theta once."""
        k_theta = self.k @ theta
        p_theta = k_theta if self.p is self.k else self.p @ theta
        return self.at(k_theta, p_theta, theta)

    def at(self, k_theta, p_theta, theta) -> float:
        """The objective at theta from the products K theta and P theta."""
        data = _mean(_residual_loss(self.loss, self.times_m(k_theta) - self.y))
        return data + 0.5 * self.lambda_n * float((p_theta * self.times_m(theta)).sum())


def _solve_squared_full(spectrum, m_mat, y, lambda_n):
    """(A, CG iterations): stationarity G A M + (n lambda / 2) A = Y; in M's
    eigenbasis V each column of A V solves a ridge system
    (mu_j G + (n lambda / 2) I) on G's spectral decomposition."""
    m_vals, m_vecs = np.linalg.eigh(m_mat)
    c = 0.5 * spectrum.size * lambda_n
    sol, iters = spectrum.ridge_solve(m_vals, c, y @ m_vecs)
    return sol @ m_vecs.T, iters


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
    a_vecs_t = a_vecs.T
    if _is_identity(m_vecs):

        def prox(v: np.ndarray, t: float) -> np.ndarray:
            return a_vecs @ ((a_vecs_t @ v) / (1.0 + t * cross))

        return prox
    m_vecs_t = m_vecs.T

    def prox(v: np.ndarray, t: float) -> np.ndarray:
        vt = a_vecs_t @ v @ m_vecs
        return a_vecs @ (vt / (1.0 + t * cross)) @ m_vecs_t

    return prox


def _norm(v: np.ndarray) -> float:
    """Frobenius norm, as ``np.linalg.norm`` forms it, without its dispatch."""
    flat = v.ravel()
    return math.sqrt(flat.dot(flat))


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
        residual = _norm(coeffs - mapped) / t0
        if residual <= cfg.tol:
            return coeffs, FitDiagnostics(obj, residual, iters - 1, True)
        step = t0
        cand = mapped
        accepted = False
        while step >= _MIN_STEP:
            if cand is None:
                cand = prox(coeffs - step * grad, step)
            cand_obj = objective(cand)
            move = _norm(cand - coeffs)
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


def _fit_lipschitz(objective: _Objective, kt, p_eigh, cfg: FitConfig):
    """(coeffs, diagnostics) of ``_descend`` from zero on ``objective``;
    ``kt`` is K^T, read by the data-term gradient K^T (xi / n) M, and
    ``p_eigh`` is ``np.linalg.eigh`` of P, read by the proximal map."""
    k, y, loss, times_m = objective.k, objective.y, objective.loss, objective.times_m
    n = y.shape[0]

    def loss_grad(theta):
        xi = loss_subgradient(loss, times_m(k @ theta), y)
        return times_m(kt @ (xi / n))

    prox = _diag_prox(p_eigh, objective.m_mat, cfg.lambda_n)
    start = np.zeros((k.shape[1], objective.m_mat.shape[0]))
    return _descend(objective, loss_grad, prox, start, cfg)


def fit_full(
    kernel: DecomposableKernel, y, loss: LossSpec, cfg: FitConfig,
    spectrum: SpectralDecomposition,
) -> FittedModel:
    """Fit the full representer program.

    Parameters
    ----------
    kernel : decomposable kernel with strictly PD output matrix.
    y : training targets (n, m).
    loss : squared (direct solve) or Lipschitz (proximal subgradient descent).
    cfg : ridge weight and solver controls.
    spectrum : ``spectral.kernel_spectrum(kernel.scalar, x, top)``, the
        decomposition of the n x n scalar Gram k(x_i, x_j) of the training
        inputs x, which fixes n.  Its Gram, finite by construction, is
        checked for the scalar kernel's kappa; its eigenpairs serve the
        squared solve, and the proximal map when they are the whole spectrum.
    """
    g, n = spectrum.gram, spectrum.size
    targets = _prepare(kernel, y, n)
    check_kappa(kernel.scalar, g)
    _require_invertible_m(kernel.output)
    m_mat = kernel.output
    objective = _Objective(g, g, m_mat, targets, loss, cfg.lambda_n)
    if loss.family == "squared":
        a, iters = _solve_squared_full(spectrum, m_mat, targets, cfg.lambda_n)
        ga = g @ a
        obj = objective.at(ga, ga, a)
        resid = g @ ((2.0 / n) * (ga @ m_mat - targets) + cfg.lambda_n * a) @ m_mat
        diag = FitDiagnostics(obj, float(np.linalg.norm(resid)), iters, True)
        return FittedModel(a, kernel, diag, _gram_coeffs=ga)
    if spectrum.vals.size == n:
        g_eigh = spectrum.vals, spectrum.vecs
    else:
        g_eigh = np.linalg.eigh(g)  # the Gram is exactly symmetric: no n x n copy
    coeffs, diag = _fit_lipschitz(objective, g, g_eigh, cfg)
    return FittedModel(coeffs, kernel, diag, _gram_coeffs=g @ coeffs)


def fit_sketched(
    kernel: DecomposableKernel, y, loss: LossSpec, cfg: FitConfig, sk: SketchMatrix,
    sketched: tuple[np.ndarray, np.ndarray],
) -> FittedModel:
    """Fit the sketched program on the Gamma parameterization.

    The s x n sketch ``sk`` fixes n, the rows of the targets ``y``, and
    ``sketched`` is ``spectral.sketched_gram(sk, gram)`` of the n x n scalar
    Gram k(x_i, x_j), the products (G S^T, S G S^T) on which the fit solves,
    checked to be finite and of the shapes (n, s) and (s, s).
    """
    rows, n = sk.matrix.shape
    targets = _prepare(kernel, y, n)
    _require_invertible_m(kernel.output)
    m_mat = kernel.output
    k_sk = finite_matrix(sketched[0], "sketched product G S^T", square=False)
    sgs = finite_matrix(sketched[1], "sketched product S G S^T", square=False)
    if k_sk.shape != (n, rows) or sgs.shape != (rows, rows):
        raise InputError(f"sketched products {k_sk.shape}, {sgs.shape} do not match S")
    objective = _Objective(k_sk, sgs, m_mat, targets, loss, cfg.lambda_n)
    if loss.family == "squared":
        gamma = _solve_squared_sketched(k_sk, sgs, m_mat, targets, cfg.lambda_n)
        obj = objective(gamma)
        resid = (
            k_sk.T @ ((2.0 / n) * (k_sk @ gamma @ m_mat - targets)) @ m_mat
            + cfg.lambda_n * sgs @ gamma @ m_mat
        )
        diag = FitDiagnostics(obj, float(np.linalg.norm(resid)), 0, True)
        return FittedModel(gamma, kernel, diag, sketch=sk)
    sgs_eigh = np.linalg.eigh(0.5 * (sgs + sgs.T))
    coeffs, diag = _fit_lipschitz(objective, k_sk.T, sgs_eigh, cfg)
    return FittedModel(coeffs, kernel, diag, sketch=sk)


def empirical_risk(preds, y, loss: LossSpec) -> float:
    """Mean loss of the predictions ``preds``, one row per point (such as
    ``FittedModel.predict(gram)`` or ``KernelExpansion.at(x)``), against the
    targets ``y``."""
    preds = np.asarray(preds, dtype=float)
    targets = as_labels(y)
    if preds.size == 0:
        raise InputError("predictions must be nonempty")
    if preds.shape != targets.shape:
        raise InputError(f"predictions {preds.shape} vs targets {targets.shape}")
    return _mean(loss_value(loss, preds, targets))


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
) -> ExcessRiskBound:
    """High-probability excess-risk gap of the sketched estimator:

        J * C * sqrt(lambda_n + ||M|| delta_n^2) + lambda_n / 2
        + 8 J sqrt(kappa Tr(M) / n) + 2 sqrt(8 log(4/delta) / n),

    with C = 1 + sqrt(6) * c.
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
    big_c = 1.0 + math.sqrt(6.0) * c
    t1 = j_l * big_c * math.sqrt(lambda_n + m_opnorm * delta_sq)
    t2 = 0.5 * lambda_n
    t3 = 8.0 * j_l * trace_bound(kappa, tr_m, n)
    t4 = 2.0 * math.sqrt(8.0 * math.log(4.0 / conf_delta) / n)
    return ExcessRiskBound(t1 + t2 + t3 + t4, big_c, (t1, t2, t3, t4))
