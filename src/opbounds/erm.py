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
the loss and lambda_n), the one owner of those operands: its build checks
the targets and takes M's one ``eigh``, which the solves and the proximal map
read.  An evaluation only forms K theta M (and P theta unless P is K), calls
the loss formulas on the residual and returns K theta M with the value, so
the line search repeats no conversion or check, and the subgradient at an
accepted point, the squared fits' gradient residuals and the training risks
(``FittedModel``) form no product with K or M.  A product with an M that is
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
    """What a fit computed: coefficients A (n x m) of the full program or
    Gamma (s x m) of the sketched one (A = S^T Gamma), diagnostics, and
    ``train_predictions``, the K theta M (G A M or G S^T Gamma M) of its last
    objective evaluation, so a training risk forms no product with the Gram."""

    coeffs: np.ndarray
    diagnostics: FitDiagnostics
    train_predictions: np.ndarray = field(repr=False)


def _mean(rows: np.ndarray) -> float:
    # builtin sum, not np.sum: pairwise summation would change the last bits
    return sum(rows.tolist()) / rows.shape[0]


class _Objective:
    """theta -> (1/n) sum_i loss([K theta M]_i, y_i) + (lambda_n / 2) Tr(P theta M theta^T),
    the program of one fit: the full one at (K, P) = (G, G) and theta = A,
    the sketched one at (G S^T, S G S^T) and theta = Gamma.

    Built once per fit, it owns the fit's operands and checks each once,
    with InputErrors, before any solve: the targets ``y`` (converted, a 1-D
    ``y`` read as one column) against K's rows and M's order; M, strictly
    positive definite at 1e-12 by its one ``np.linalg.eigh``, whose pair
    ``m_eigh`` the squared solves and the proximal map read; and a pinball
    loss's quantile count, through ``losses._residual``.  Products with M
    are skipped when M is exactly the identity."""

    def __init__(self, k, p, m_mat, y, loss: LossSpec, lambda_n: float):
        n, m = k.shape[0], m_mat.shape[0]
        targets = as_labels(y)
        if targets.shape != (n, m):
            raise InputError(
                f"targets shape {targets.shape} incompatible with "
                f"{n} points and output dimension {m}"
            )
        self.m_eigh = np.linalg.eigh(m_mat)
        m_vals = self.m_eigh[0]
        if m_vals[0] <= 1e-12 * max(m_vals[-1], 1.0):
            raise InputError("output matrix M must be strictly positive definite")
        _residual(loss, np.zeros((n, m)), targets)
        self.k, self.p, self.m_mat = k, p, m_mat
        # C order, so every residual K theta M - y is C order as _residual's
        self.y = np.ascontiguousarray(targets)
        self.loss, self.lambda_n = loss, lambda_n
        self._identity_m = _is_identity(m_mat)

    def times_m(self, a: np.ndarray) -> np.ndarray:
        """a M; a itself when M is exactly the identity."""
        return a if self._identity_m else a @ self.m_mat

    def __call__(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """(the objective at theta, the K theta M it formed); ``k is p``
        forms K theta once."""
        k_theta = self.k @ theta
        p_theta = k_theta if self.p is self.k else self.p @ theta
        ktm = self.times_m(k_theta)
        return self.at(ktm, p_theta, theta), ktm

    def at(self, ktm, p_theta, theta) -> float:
        """The objective at theta from the products K theta M and P theta."""
        data = _mean(_residual_loss(self.loss, ktm - self.y))
        return data + 0.5 * self.lambda_n * float((p_theta * self.times_m(theta)).sum())


def _solve_squared_full(spectrum, m_eigh, y, lambda_n):
    """(A, CG iterations): stationarity G A M + (n lambda / 2) A = Y; in M's
    eigenbasis V each column of A V solves a ridge system
    (mu_j G + (n lambda / 2) I) on G's spectral decomposition."""
    m_vals, m_vecs = m_eigh
    c = 0.5 * spectrum.size * lambda_n
    sol, iters = spectrum.ridge_solve(m_vals, c, y @ m_vecs)
    return sol @ m_vecs.T, iters


def _solve_squared_sketched(k_sk, sgs, m_eigh, y, lambda_n):
    # per-column systems after right-multiplying stationarity by M^-1:
    #   [(2 mu_j / n) S G^2 S^T + lambda S G S^T] gamma_j = (2/n) (S G Y V)_j
    # on the fit's k_sk = G S^T and sgs = S G S^T; S G is k_sk^T, G symmetric
    n = k_sk.shape[0]
    m_vals, m_vecs = m_eigh
    sg = k_sk.T
    sg2s = sg @ k_sk
    rhs = (2.0 / n) * (sg @ y @ m_vecs)
    cols = []
    for j, mu in enumerate(m_vals):
        # the bits of (2 mu / n) sg2s + lambda sgs with two s x s arrays
        # alive, not four: this is the sketched fit's memory peak
        mat = np.multiply(sg2s, 2.0 * mu / n)
        mat += lambda_n * sgs
        sol, *_ = np.linalg.lstsq(mat, rhs[:, j], rcond=None)
        cols.append(sol)
    gamma_t = np.stack(cols, axis=1)
    return gamma_t @ m_vecs.T


def _diag_prox(a_eigh, m_eigh, lambda_n: float):
    """Proximal map of (lambda/2) Tr(A X M X^T): solves X + t*lambda*A X M = V
    through the eigenbases of A and M (``a_eigh``, ``m_eigh``: their
    ``np.linalg.eigh`` pairs)."""
    a_vals, a_vecs = a_eigh
    m_vals, m_vecs = m_eigh
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


def _fit_lipschitz(objective: _Objective, kt, p_eigh, cfg: FitConfig):
    """Backtracking proximal subgradient descent from zero on ``objective``;
    returns (coeffs, their K theta M, diagnostics).

    ``kt`` is K^T, read by the data-term subgradient K^T (xi / n) M, and
    ``p_eigh`` is ``np.linalg.eigh`` of P, read by the proximal map.  K
    multiplies a point only inside an evaluation: each subgradient is taken
    at the K theta M that the evaluation accepting theta formed.  The reported
    gradient norm is the proximal-gradient residual at the base step size,
    which coincides with the plain gradient norm when the penalty vanishes.
    """
    y, times_m = objective.y, objective.times_m
    n = y.shape[0]
    prox = _diag_prox(p_eigh, objective.m_eigh, cfg.lambda_n)
    coeffs = np.zeros((kt.shape[0], y.shape[1]))
    obj, ktm = objective(coeffs)
    warning = None  # FitConfig's max_iters >= 1: the loop sets iters and residual
    for iters in range(1, cfg.max_iters + 1):
        xi = loss_subgradient(objective.loss, ktm, y)
        grad = times_m(kt @ (xi / n))
        t0 = cfg.step_size
        mapped = prox(coeffs - t0 * grad, t0)
        residual = _norm(coeffs - mapped) / t0
        if residual <= cfg.tol:
            return coeffs, ktm, FitDiagnostics(obj, residual, iters - 1, True)
        step, cand = t0, mapped
        while step >= _MIN_STEP:
            if cand is None:
                cand = prox(coeffs - step * grad, step)
            cand_obj, cand_ktm = objective(cand)
            move = _norm(cand - coeffs)
            if cand_obj <= obj - (_ARMIJO / step) * move * move:
                coeffs, obj, ktm = cand, cand_obj, cand_ktm
                break
            step *= 0.5
            cand = None
        else:
            warning = "line search stalled before reaching tolerance"
            break
    converged = residual <= cfg.tol
    if not converged and warning is None:
        warning = "max_iters reached before gradient tolerance"
    return coeffs, ktm, FitDiagnostics(obj, residual, iters, converged, warning)


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
    check_kappa(kernel.scalar, g)
    objective = _Objective(g, g, kernel.output, y, loss, cfg.lambda_n)
    m_mat, targets = kernel.output, objective.y
    if loss.family == "squared":
        # G A and the gradient residual's product with G as (A^T G)^T and
        # (R^T G)^T, G symmetric: the thin operand on the left, 1.6 against
        # 2.1 ms at n = 1,500 and m = 3 on one OpenBLAS thread
        a, iters = _solve_squared_full(spectrum, objective.m_eigh, targets, cfg.lambda_n)
        ga = (a.T @ g).T
        gam = objective.times_m(ga)
        obj = objective.at(gam, ga, a)
        resid = (((2.0 / n) * (gam - targets) + cfg.lambda_n * a).T @ g).T @ m_mat
        diag = FitDiagnostics(obj, float(np.linalg.norm(resid)), iters, True)
        return FittedModel(a, diag, gam)
    if spectrum.vals.size == n:
        g_eigh = spectrum.vals, spectrum.vecs
    else:
        g_eigh = np.linalg.eigh(g)  # the Gram is exactly symmetric: no n x n copy
    coeffs, preds, diag = _fit_lipschitz(objective, g, g_eigh, cfg)
    return FittedModel(coeffs, diag, preds)


def fit_sketched(
    kernel: DecomposableKernel, y, loss: LossSpec, cfg: FitConfig,
    sketched: tuple[np.ndarray, np.ndarray],
) -> FittedModel:
    """Fit the sketched program on the Gamma parameterization, solving on
    ``sketched``: ``spectral.sketched_gram(s, gram)`` of an s x n sketch S
    and the n x n scalar Gram, the products (G S^T, S G S^T), checked to be
    finite, G S^T n x s for the n rows of the targets ``y`` and S G S^T s x s.
    """
    k_sk = finite_matrix(sketched[0], "sketched product G S^T", square=False)
    sgs = finite_matrix(sketched[1], "sketched product S G S^T", square=False)
    n, rows = k_sk.shape
    if sgs.shape != (rows, rows):
        raise InputError(f"sketched products {k_sk.shape}, {sgs.shape} are not of one S")
    objective = _Objective(k_sk, sgs, kernel.output, y, loss, cfg.lambda_n)
    m_mat, targets = kernel.output, objective.y
    if loss.family == "squared":
        gamma = _solve_squared_sketched(k_sk, sgs, objective.m_eigh, targets, cfg.lambda_n)
        obj, preds = objective(gamma)
        resid = (
            k_sk.T @ ((2.0 / n) * (preds - targets)) @ m_mat
            + cfg.lambda_n * sgs @ gamma @ m_mat
        )
        diag = FitDiagnostics(obj, float(np.linalg.norm(resid)), 0, True)
        return FittedModel(gamma, diag, preds)
    sgs_eigh = np.linalg.eigh(0.5 * (sgs + sgs.T))
    coeffs, preds, diag = _fit_lipschitz(objective, k_sk.T, sgs_eigh, cfg)
    return FittedModel(coeffs, diag, preds)


def empirical_risk(preds, y, loss: LossSpec) -> float:
    """Mean loss of the predictions ``preds``, one row per point (such as a
    fit's predictions at its training points or ``KernelExpansion.at(x)``),
    against the targets ``y``."""
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
