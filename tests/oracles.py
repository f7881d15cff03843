"""Reference computations the tests check the library against.

None of these is library API: the library never assembles the Kronecker
operator Gram, assembles a Gram on two arrays of its size in one call,
evaluates one kernel pair at a time, computes a Gram in long double,
restates psi, takes half-integer Matern values from ``kv``, builds the full
eigenvector matrix of a Gram, bisects for the critical radius over a whole
spectrum, solves a ridge system densely or by CG deflated by the top
eigenvectors alone, stacks a sketch from a list of rows, enumerates every
sign pattern, integrates a Sobolev norm, chains a layered model outside a
training pass, forms the sketched objective's ``G S^T`` anew at each
evaluation, factors a sketch into its sub-Gaussian and sub-sampling parts,
sorts a network's layers into the injective weight class, draws signs as
integers and converts them to floats, keeps a sign block's row-major signs
while its forms are computed, recomputes a bound report's total from its
parts, maximizes a pencil's Rayleigh quotient apart from a deep objective,
takes an expansion's RKHS norm from its own anchor Gram, fits or predicts on
Grams assembled for that one call alone, predicts from a fit's effective
coefficients S^T Gamma, writes a dataset CSV, starts every line search of a
deep training at the configured step, takes the Matern exponential of a
negated argument or forms a Lanczos run's Ritz images as a product with the
Gram.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import gamma, kv

from opbounds._rng import rademacher, substream
from opbounds.complexity import _BLOCK, BallMc, ClassMc
from opbounds.deepvv import _ARMIJO, _MIN_STEP, TrainResult, _pencil_basis, _top_eigenvalue, _whiten
from opbounds.erm import _Objective, fit_full, fit_sketched
from opbounds.errors import InputError, NumericError
from opbounds.kernels import (
    _expansion_norm,
    _radial_profile,
    as_points,
    finite_matrix,
    gram_scalar,
    gram_scalar_cross,
    require_psd,
)
from opbounds.koopman import _factor_product
from opbounds.spectral import LANCZOS_START, kernel_spectrum, sketched_gram


def eval_scalar(spec, x, x_prime) -> float:
    """The scalar kernel at a single pair of points."""
    return float(gram_scalar_cross(spec, x, x_prime)[0, 0])


def gram_two_arrays(spec, x, z=None) -> np.ndarray:
    """The scalar Gram k(x, z), z = x when omitted, in one call on the whole
    point sets: the squared distances (|x_i|^2 + |z_j|^2) - 2 x_i.z_j,
    clipped at 0, from ``x z^T`` and one more array of its shape, then the
    kernel profile, with the validation and errors of ``gram_scalar`` and
    ``gram_scalar_cross`` (z is validated first).  The library builds the
    same entries in row blocks inside one array."""
    dim = spec.dimension
    if z is None:
        x = z = as_points(x, dim)
    else:
        z = as_points(z, dim)
        x = as_points(x, dim)
    x_extent, z_extent = float(np.abs(x).max(initial=0.0)), float(np.abs(z).max(initial=0.0))
    if not np.isfinite(2.0 * dim * (x_extent * z_extent)):
        raise NumericError("squared distances overflow: the points are too large")
    cross = x @ z.T
    cross *= 2.0
    sq = np.einsum("ij,ij->i", x, x)[:, None] + np.einsum("ij,ij->i", z, z)[None, :]
    sq -= cross
    return _radial_profile(spec, np.maximum(sq, 0.0, out=sq))


def matern_profile_kv(spec, sq_dist) -> np.ndarray:
    """Matern kernel values from squared distances through scipy's ``kv``,
    for any smoothness nu: the library's path for non-half-integer nu and the
    reference for its closed forms.  ``kv`` underflows to 0 for large
    arguments, which is the correct limit."""
    nu = spec.matern_nu
    r = np.sqrt(sq_dist) / spec.bandwidth
    arg = np.sqrt(2.0 * nu) * r
    out = np.ones_like(arg)
    pos = arg > 0
    a = arg[pos]
    # a**nu * kv may be 0 * inf, a NaN that the line below maps to 0
    with np.errstate(over="ignore", invalid="ignore"):
        out[pos] = (2.0 ** (1.0 - nu) / gamma(nu)) * (a**nu) * kv(nu, a)
    return np.where(np.isfinite(out), out, 0.0)


def half_integer_matern_negating(nu, bandwidth, sq_dist) -> np.ndarray:
    """The closed-form Matern profile (nu = 0.5, 1.5, 2.5) as the library
    formed it before it divided by -bandwidth: a = sqrt(2 nu) r / bandwidth,
    capped at 1e3, then e^(-a) by a separate negation pass, times 1 + a or
    1 + a (1 + a/3) by Horner.  Overwrites ``sq_dist``, like the library."""
    a = np.sqrt(sq_dist, out=sq_dist)
    a /= bandwidth
    a *= np.sqrt(2.0 * nu)
    np.minimum(a, 1e3, out=a)
    if nu == 0.5:
        return np.exp(np.negative(a, out=a), out=a)
    if nu == 1.5:
        poly = a + 1.0
    else:
        poly = a / 3.0
        poly += 1.0
        poly *= a
        poly += 1.0
    np.exp(np.negative(a, out=a), out=a)
    return np.multiply(a, poly, out=a)


def gram_long_double(spec, pts) -> np.ndarray:
    """The scalar Gram of the float points from direct-form squared distances
    sum_k (x_ik - x_jk)^2 and the closed-form profile (gaussian, Matern nu =
    1.5 or 2.5), all in ``np.longdouble``: 80-bit extended on x86_64, whose
    rounding (2^-64 relative) is far below that of ``gram_scalar``."""
    x = np.asarray(pts, dtype=np.longdouble)
    diff = x[:, None, :] - x[None, :, :]
    sq = (diff * diff).sum(axis=2)
    if spec.family == "gaussian":
        return np.exp(-np.longdouble(spec.bandwidth) * sq)
    nu = spec.matern_nu
    a = np.sqrt(np.longdouble(2.0 * nu) * sq) / np.longdouble(spec.bandwidth)
    poly = 1 + a if nu == 1.5 else 1 + a + a * a / 3
    return poly * np.exp(-a)


def gram_operator(kernel, pts) -> np.ndarray:
    """nm x nm operator-valued Gram: the exact Kronecker product G_k (x) M."""
    return np.kron(gram_scalar(kernel.scalar, pts), kernel.output)


def psi_value(delta: float, mu) -> float:
    """psi(delta) = sqrt(mean_j min(delta^2, mu_j)), the function whose fixed
    point delta^2 is the critical radius."""
    return math.sqrt(float(np.mean(np.minimum(delta * delta, np.asarray(mu, dtype=float)))))


def coefficient_norm(model, kernel, anchors) -> float:
    """Squared RKHS norm Tr(G A M A^T) of a full fit with the kernel at the
    anchors."""
    g = gram_scalar(kernel.scalar, anchors)
    a = model.coeffs
    return float(np.sum((g @ a) * (a @ kernel.output)))


def scaled_gram_eigh(g, n):
    """Descending eigenvalues of G / n and the matching orthonormal
    eigenvectors of G, from a dense ``eigh``."""
    vals, vecs = np.linalg.eigh(g)
    return vals[::-1] / float(n), vecs[:, ::-1]


def bisect_critical_radius(mu, n, tail):
    """delta_n^2 of the descending clipped eigenvalues ``mu`` of G / n, the
    rest of which sum to ``tail``: the bisection on delta of psi(delta) =
    sqrt((tail + sum_i min(delta^2, mu_i)) / n) <= delta^2 on the bracket
    [0, max(1, sqrt(mu_1))] to a width of 1e-10."""
    if mu.max() <= 0.0:
        return 0.0
    hi, lo = max(1.0, float(np.sqrt(mu[0]))), 0.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if float(np.sqrt((tail + np.minimum(mid * mid, mu).sum()) / n)) <= mid * mid:
            hi = mid
        else:
            lo = mid
    return hi * hi


def dense_critical_radius(g):
    """(delta_n^2, d_n) of a Gram over n points from its whole spectrum: the
    bisection on the clipped eigenvalues of G / n from ``eigvalsh``, and the
    first 1-based index j with mu_j <= delta_n^2 (n if none)."""
    n = g.shape[0]
    mu = np.maximum(np.linalg.eigvalsh(g)[::-1] / float(n), 0.0)
    delta_sq = bisect_critical_radius(mu, n, 0.0)
    below = np.flatnonzero(mu <= delta_sq)
    return delta_sq, int(below[0]) + 1 if below.size else n


def dense_ridge_solve(g, scales, shift, rhs):
    """Column j of (scales[j] G + shift I)^-1 rhs[:, j] by a dense LU solve."""
    eye = np.eye(g.shape[0])
    return np.stack(
        [np.linalg.solve(scale * g + shift * eye, rhs[:, j]) for j, scale in enumerate(scales)],
        axis=1,
    )


def ridge_solve_top_deflated(dec, scales, shift, rhs):
    """(x, iterations) of ``dec.ridge_solve`` on a Lanczos decomposition by
    CG deflated by the eigenvectors ``dec.vecs`` alone, each rotated with
    G times it so that the coarse systems are diagonal: the CG that the 2k
    Ritz rows must never need more iterations than."""
    g, scales = dec.gram, np.asarray(scales, dtype=float)
    w = dec.vecs.T
    gw = w @ g
    theta, rot = np.linalg.eigh(0.5 * (w @ gw.T + gw @ w.T))
    w, gw = rot.T @ w, rot.T @ gw
    coarse = np.outer(scales, theta) + shift
    scales = scales[:, None]

    def deflate(r):
        return r - (((r @ gw.T) * scales + shift * (r @ w.T)) / coarse) @ w

    b = np.ascontiguousarray(rhs.T)
    y = (b @ w.T) / coarse
    x = y @ w
    r = b - (y @ gw) * scales - shift * x
    p = deflate(r)
    rr = np.einsum("ij,ij->i", r, r)
    stop = 1e-26 * np.einsum("ij,ij->i", b, b)
    for it in range(dec.size):
        live = rr > stop
        if not live.any():
            return x.T, it
        q = (p @ g) * scales + shift * p
        alpha = np.divide(rr, np.einsum("ij,ij->i", p, q), out=np.zeros_like(rr), where=live)
        x += alpha[:, None] * p
        r -= alpha[:, None] * q
        rr, rr_old = np.einsum("ij,ij->i", r, r), rr
        beta = np.divide(rr, rr_old, out=np.zeros_like(rr), where=live)
        p = deflate(r) + beta[:, None] * p
    raise NumericError(f"deflated CG missed relative residual 1e-13 in {it + 1} steps")


def sketch_from_rows(spec) -> np.ndarray:
    """The p-sparsified sketch of ``spec`` as a list of rows, each drawn on
    its own and masked by ``np.where``, then stacked."""
    scale = 1.0 / math.sqrt(spec.s * spec.p)
    rows = []
    for i in range(spec.s):
        g = substream(spec.seed, i)
        if spec.dist == "rademacher":
            z = rademacher(g, np.empty(spec.n))
        else:
            z = g.standard_normal(spec.n)
        keep = g.random(spec.n) < spec.p
        rows.append(np.where(keep, z * scale, 0.0))
    return np.asarray(rows)


def solve_squared_full(g, m_mat, y, lambda_n):
    """Coefficients A of the full squared-loss fit from the stationarity
    G A M + (n lambda / 2) A = Y, solved in the dense eigenbases of G and M."""
    g_vals, g_vecs = np.linalg.eigh(g)
    c = 0.5 * g_vals.shape[0] * lambda_n
    m_vals, m_vecs = np.linalg.eigh(m_mat)
    y_t = g_vecs.T @ y @ m_vecs
    a_t = y_t / (np.outer(g_vals, m_vals) + c)
    return g_vecs @ a_t @ m_vecs.T


def satisfiability_norms(s_dense, g, n, d_n):
    """(norm1, norm2) of the sketch satisfiability test from the full
    eigenvector matrix: ``||(S U1)^T S U1 - I||`` and ``||S U2 D2^(1/2)||``
    with the tail block U2 formed explicitly."""
    mu, u = scaled_gram_eigh(g, n)
    su1 = s_dense @ u[:, :d_n]
    norm1 = float(np.linalg.norm(su1.T @ su1 - np.eye(d_n), 2))
    if d_n == u.shape[0]:
        return norm1, 0.0
    tail = (s_dense @ u[:, d_n:]) * np.sqrt(np.maximum(mu[d_n:], 0.0))[None, :]
    return norm1, float(np.linalg.norm(tail, 2))


def rademacher_ball_exact(g_op, n) -> float:
    """(1/n) E sqrt(sigma^T G sigma) for a dense operator Gram G, exactly:
    the mean over all 2^width sign patterns, so width <= 16."""
    g = np.asarray(g_op, dtype=float)
    width = g.shape[0]
    assert width <= 16, f"exact enumeration limited to width 16, got {width}"
    codes = np.arange(1 << width, dtype=np.uint32)
    signs = ((codes[:, None] >> np.arange(width)[None, :]) & 1) * 2.0 - 1.0
    quad = np.einsum("ri,ij,rj->r", signs, g, signs)
    return float(np.mean(np.sqrt(np.maximum(quad, 0.0)))) / n


def sobolev_norm_gaussian(d: int, s: float) -> float:
    """Sobolev norm of the Gaussian bump x -> exp(-||x||^2) on R^d: the
    square root of

        2^(-d) * S_{d-1} * int_0^inf (1 + r^2)^s exp(-r^2/2) r^(d-1) dr

    with S_{d-1} the unit-sphere surface area, by adaptive quadrature at
    relative tolerance 1e-9."""

    def integrand(r: float) -> float:
        return (1.0 + r * r) ** s * np.exp(-0.5 * r * r) * r ** (d - 1)

    value, err = integrate.quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-9, limit=200)
    assert np.isfinite(value) and err <= 1e-7 * value, (value, err)
    surface = 2.0 * np.pi ** (d / 2.0) / gamma(d / 2.0)
    return float(np.sqrt(2.0 ** (-d) * surface * value))


def forward(model, x) -> np.ndarray:
    """A layered model's outputs on a batch, each layer's ``at`` applied to
    the previous layer's values."""
    for layer in model.layers:
        x = layer.at(x)
    return x


def train_halving(objective, cfg, trajectory=True):
    """``deepvv.train`` with the line search that starts every iteration at
    ``cfg.step`` and halves until the Armijo test passes, with the same
    screen, result and ``forward_passes`` and ``eigh_fallbacks`` counts."""
    model = objective.model
    lam1, lam2 = cfg.lambda1, cfg.lambda2
    passes, fallbacks = objective.forward_passes, objective.eigh_fallbacks
    point = objective.forward(model.coeffs)
    obj = sum(objective.terms(point, lam1, lam2))
    result = TrainResult(model, point, point)
    for it in range(1, cfg.iters + 1):
        grads = objective.gradient(point, lam1, lam2, cfg.grad_mode)
        point.drop_grams()
        gnorm = float(np.sqrt(sum(np.sum(g * g) for g in grads)))
        if gnorm <= cfg.tol:
            result.converged = True
            result.iterations = it - 1
            break
        step = cfg.step
        while step >= _MIN_STEP:
            thresh = obj - _ARMIJO * step * gnorm * gnorm
            cand = objective.forward([c - step * g for c, g in zip(point.coeffs, grads)])
            if not objective.exceeds(cand, thresh, lam1, lam2, point.w):
                cand_obj = sum(objective.terms(cand, lam1, lam2))
                if np.isfinite(cand_obj) and cand_obj <= thresh:
                    point, obj = cand, cand_obj
                    break
            cand.drop_grams()
            step *= 0.5
        else:  # the line search stalled
            result.iterations = it - 1
            break
        if trajectory:
            result.trajectory.append(
                {"iteration": it, "objective": obj, "pf_norm": objective.pf_norm(point),
                 "top_norm": objective.top_norm(point), "step": step}
            )
        result.iterations = it
    result.model, result.last = model.with_coeffs(point.coeffs), point
    result.forward_passes = objective.forward_passes - passes
    result.eigh_fallbacks = objective.eigh_fallbacks - fallbacks
    return result


def objective_sketched(kernel, g, y, loss, lambda_n, s_dense, gamma_) -> float:
    """The sketched ERM objective at Gamma from the scalar Gram and the sketch,
    on G S^T and S G S^T formed from S G, as ``sketched_gram`` forms them."""
    sg = s_dense @ g
    return _Objective(sg.T, sg @ s_dense.T, kernel.output, y, loss, lambda_n)(gamma_)[0]


def fit_full_on(kernel, x, y, loss, cfg):
    """``fit_full`` on the spectrum ``kernel_spectrum`` forms from the points."""
    return fit_full(kernel, y, loss, cfg, kernel_spectrum(kernel.scalar, x, LANCZOS_START))


def fit_sketched_on(kernel, x, y, loss, cfg, sketch):
    """``fit_sketched`` on the sketched products of the sketch and the Gram
    of the points."""
    return fit_sketched(kernel, y, loss, cfg, sketched_gram(sketch, gram_scalar(kernel.scalar, x)))


def effective_coeffs(model, sketch=None) -> np.ndarray:
    """A of a fit: its coefficients when full, S^T Gamma when fitted on the
    sketch S."""
    if sketch is None:
        return model.coeffs
    return sketch.T @ model.coeffs


def predict(model, gram, output, sketch=None) -> np.ndarray:
    """Rows k(x, anchors) @ A @ M, for the output matrix M, at the points x
    whose cross Gram k(x, anchors) is ``gram`` (the training Gram when x are
    the anchors), with A the fit's coefficients on the sketch when one is
    given."""
    return gram @ effective_coeffs(model, sketch) @ output


def predict_at(model, kernel, x, anchors, sketch=None) -> np.ndarray:
    """Predictions at x of a model fitted with the kernel at the anchors, on
    the sketch when one is given, from the cross Gram k(x, anchors)."""
    return predict(model, gram_scalar_cross(kernel.scalar, x, anchors), kernel.output, sketch)


def decompose_sketch(s):
    """The sketch S written as (sub-Gaussian s x q) @ (sub-sampling q x n):
    the sub-sampling factor selects exactly the q columns of S that carry a
    nonzero, so the product reconstructs S entrywise.  Returns the two
    factors and the retained column indices."""
    retained = np.flatnonzero((s != 0.0).any(axis=0))
    subsample = np.zeros((retained.size, s.shape[1]))
    subsample[np.arange(retained.size), retained] = 1.0
    return s[:, retained].copy(), subsample, retained


def injectivity_class(net, c_max, d_min):
    """Per-layer (dimension_ok, norm_ok, det_ok) for the weight class
    {d_out >= d_in, ||W|| <= C, det(W^T W)^(1/2) >= D}, from a dense SVD."""
    verdicts = []
    for layer in net.layers:
        w = layer.weights
        svals = np.linalg.svd(w, compute_uv=False)
        dim_ok = w.shape[0] >= w.shape[1]
        det_ok = dim_ok and float(np.prod(svals)) >= d_min
        verdicts.append((dim_ok, float(svals[0]) <= c_max, det_ok))
    return verdicts


def recompute_total(report) -> float:
    """A product or split bound report's total from its per-layer factors and
    extras; any other family's stated total."""
    prod = _factor_product(report.per_layer)
    if report.family == "product":
        return report.extras["g_norm"] * report.extras["trace_root"] * prod
    if report.family == "split":
        return prod * (
            report.extras["class_estimate"]
            + report.extras["trace_root"] * report.extras["approximation_term"]
        )
    return report.total


def quad_forms_full(rows, g, out) -> np.ndarray:
    """sigma^T (G (x) M) sigma for every row of ``rows``, with M applied to
    the whole ``G Sigma`` at once, into a second array of its size."""
    n, m = g.shape[0], out.shape[0]
    c = rows.shape[0]
    w = np.ascontiguousarray(rows.T).reshape(n, m, c)
    gw = (g @ w.reshape(n, m * c)).reshape(n, m, c)
    return np.einsum("iar,iar->r", w, np.matmul(out, gw))


def rademacher_integers(g, shape) -> np.ndarray:
    """+-1 draws of shape ``shape`` as the library first drew them: integer
    draws of 0 or 1, converted to floats."""
    return g.integers(0, 2, size=shape) * 2.0 - 1.0


class SignBlockLazy:
    """One sign block that keeps its row-major signs and computes each
    (Gram, M) form on its first request, from a column-major copy made for
    the first form."""

    def __init__(self, signs):
        self.signs = signs
        self._signs_f = None
        self._forms = {}

    def forms(self, g, out):
        key = (id(g), id(out))
        if key not in self._forms:
            if self._signs_f is None:
                self._signs_f = np.asfortranarray(self.signs)
            self._forms[key] = np.maximum(quad_forms_full(self._signs_f, g, out), 0.0)
        return self._forms[key]


def run_mc_lazy(estimators, cfg) -> list:
    """The Monte-Carlo pass with every block alive in full while it is read:
    signs drawn by :func:`rademacher_integers`, forms made on request with M
    always applied, and the class and approximation terms each taking their
    own sign product (``signs @ flat.T`` and ``coeff_g @ signs.T``)."""
    for c, start in enumerate(range(0, cfg.draws, _BLOCK)):
        count = min(_BLOCK, cfg.draws - start)
        signs = rademacher_integers(substream(cfg.seed, c), (count, estimators[0].width))
        block = SignBlockLazy(signs)
        for est in estimators:
            if isinstance(est, BallMc):
                est._add_values(np.sqrt(block.forms(est.g, est.out)))
            elif isinstance(est, ClassMc):
                est._add_values(np.abs(block.signs @ est.flat.T).max(axis=1))
            else:
                est._add_draws(
                    count,
                    block.forms(est.g_in, est.out),
                    block.forms(est.g_mid, est.out),
                    est.coeff_g @ block.signs.T,
                )
    return [est.result() for est in estimators]


def pencil_max(g_top, g_bottom) -> float:
    """Largest generalized Rayleigh quotient a^T G_top a / a^T G_bottom a
    over the range of G_bottom, via whitening with a pseudo-inverse root:
    the pencil value a deep objective's transfer-product norm is the root of."""
    top = finite_matrix(g_top, "pencil top matrix")
    bot = finite_matrix(g_bottom, "pencil bottom matrix")
    if top.shape != bot.shape:
        raise InputError("pencil matrices must be of equal shape")
    basis = _pencil_basis(bot)
    require_psd(np.linalg.eigvalsh(0.5 * (top + top.T)), "pencil top matrix")
    return _top_eigenvalue(_whiten(top, basis))


def expansion_norm(expansion) -> float:
    """RKHS norm sqrt(sum_ij k(z_i, z_j) c_i^T M c_j) of a KernelExpansion,
    from the Gram of its anchors."""
    g = gram_scalar(expansion.kernel, expansion.anchors)
    return _expansion_norm(g, expansion.coeffs, expansion.output)


def write_csv(path, x, y) -> None:
    """The dataset CSV ``x1,...,xd,y1,...,ym`` that ``data.read_csv`` reads,
    every value in its shortest round-trip repr."""
    d, m = x.shape[1], y.shape[1]
    header = ",".join([f"x{i + 1}" for i in range(d)] + [f"y{j + 1}" for j in range(m)])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in np.hstack([x, y]).tolist():
            fh.write(",".join(map(repr, row)) + "\n")
