"""Reference computations the tests check the library against.

None of these is library API: the library never assembles the Kronecker
operator Gram, evaluates one kernel pair at a time, restates psi, takes
half-integer Matern values from ``kv`` or builds the full eigenvector matrix
of a Gram.
"""

import math

import numpy as np
from scipy.special import gamma, kv

from opbounds.kernels import gram_scalar, gram_scalar_cross


def eval_scalar(spec, x, x_prime) -> float:
    """The scalar kernel at a single pair of points."""
    return float(gram_scalar_cross(spec, x, x_prime)[0, 0])


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
    out[pos] = (2.0 ** (1.0 - nu) / gamma(nu)) * (a**nu) * kv(nu, a)
    return np.where(np.isfinite(out), out, 0.0)


def gram_operator(kernel, pts) -> np.ndarray:
    """nm x nm operator-valued Gram: the exact Kronecker product G_k (x) M."""
    return np.kron(gram_scalar(kernel.scalar, pts), kernel.output)


def psi_value(delta: float, mu) -> float:
    """psi(delta) = sqrt(mean_j min(delta^2, mu_j)), the function whose fixed
    point delta^2 is the critical radius."""
    return math.sqrt(float(np.mean(np.minimum(delta * delta, np.asarray(mu, dtype=float)))))


def coefficient_norm(model) -> float:
    """Squared RKHS norm Tr(G A M A^T) of a fitted model."""
    g = gram_scalar(model.kernel.scalar, model.anchors)
    a = model.effective_coeffs()
    return float(np.sum((g @ a) * (a @ model.kernel.output)))


def scaled_gram_eigh(g, n):
    """Descending eigenvalues of G / n and the matching orthonormal
    eigenvectors of G, from a dense ``eigh``."""
    vals, vecs = np.linalg.eigh(g)
    return vals[::-1] / float(n), vecs[:, ::-1]


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
