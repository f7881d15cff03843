"""Reference computations the tests check the library against.

None of these is library API: the library never assembles the Kronecker
operator Gram, evaluates one kernel pair at a time, restates psi or takes
half-integer Matern values from ``kv``.
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
