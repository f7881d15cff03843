"""Scalar and decomposable operator-valued kernels.

A decomposable kernel is ``K(x, x') = k(x, x') * M`` for a scalar radial
kernel ``k`` and a symmetric PSD matrix ``M``; its Gram over ``n`` points is
the Kronecker product ``G_K = G_k (x) M``.  Point sets are plain ``(n, d)``
float arrays, validated by :func:`as_points`.

Conventions:

* ``gaussian``: ``k(x, x') = exp(-bandwidth * ||x - x'||^2)`` — the bandwidth
  is the exponential rate, so ``k(x, x) = 1``.
* ``matern``: standard Matern kernel with smoothness ``nu`` and length-scale
  ``bandwidth``; ``k(x, x) = 1``.
* ``sobolev-radial``: Matern kernel with ``nu = s - d/2`` for Sobolev order
  ``s`` stored in ``smoothness``; requires ``s > d/2``.  Under this convention
  it is also normalized at zero distance, so norms and bounds computed with it
  are defined up to the usual kernel-normalization constant.

Gram assembly is vectorized and entrywise pure, so results are independent of
any evaluation schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotPsdError, NumericError

_FAMILIES = ("gaussian", "matern", "sobolev-radial")

#: Relative tolerance (times n) for PSD checks on assembled Gram matrices.
PSD_TOL = 1e-10


def as_points(x, dim: int | None = None) -> np.ndarray:
    """Validate and return a point set as an (n, d) float64 array."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.ndim != 2:
        raise InputError(f"point set must be 2-D, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InputError("point set contains non-finite entries")
    if dim is not None and pts.shape[1] != dim:
        raise InputError(f"points have dimension {pts.shape[1]}, expected {dim}")
    return pts


@dataclass(frozen=True)
class ScalarKernelSpec:
    """Radial scalar kernel: family, bandwidth, smoothness and input dimension."""

    family: str
    bandwidth: float
    smoothness: float = 0.0
    dimension: int = 1

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InputError(f"unknown kernel family {self.family!r}")
        if not (self.bandwidth > 0 and np.isfinite(self.bandwidth)):
            raise InputError("bandwidth must be a positive real")
        if self.smoothness < 0:
            raise InputError("smoothness must be nonnegative")
        if self.dimension < 1:
            raise InputError("dimension must be a positive integer")
        if self.family == "matern" and self.smoothness <= 0:
            raise InputError("matern kernel needs smoothness nu > 0")
        if self.family == "sobolev-radial" and self.smoothness <= self.dimension / 2:
            raise InputError(
                "sobolev-radial kernel needs order s > d/2 "
                f"(got s={self.smoothness}, d={self.dimension})"
            )

    @property
    def matern_nu(self) -> float:
        if self.family == "matern":
            return self.smoothness
        if self.family == "sobolev-radial":
            return self.smoothness - self.dimension / 2
        raise InputError(f"{self.family} kernel has no Matern smoothness")


def make_output_matrix(m: np.ndarray) -> np.ndarray:
    """Validate an output matrix: exactly symmetric, PSD up to tolerance."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"output matrix must be square, got shape {m.shape}")
    if not np.array_equal(m, m.T):
        raise InputError("output matrix must be exactly symmetric")
    if not np.all(np.isfinite(m)):
        raise InputError("output matrix contains non-finite entries")
    scale = np.linalg.norm(m, 2) if m.size else 0.0
    min_eig = np.linalg.eigvalsh(m)[0] if m.size else 0.0
    if min_eig < -PSD_TOL * max(scale, 1.0):
        raise NotPsdError(f"output matrix has eigenvalue {min_eig}, not PSD")
    return m


@dataclass(frozen=True)
class DecomposableKernel:
    """K = k * M with a stored uniform bound kappa on the scalar kernel.

    ``kappa`` is validated against the probed pairs on every Gram assembly
    rather than derived symbolically, so user-supplied values are honoured but
    never silently wrong.
    """

    scalar: ScalarKernelSpec
    output: np.ndarray
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "output", make_output_matrix(self.output))
        if not (self.kappa > 0 and np.isfinite(self.kappa)):
            raise InputError("kappa must be a positive real")

    @property
    def output_dim(self) -> int:
        return self.output.shape[0]

    def trace_m(self) -> float:
        return float(np.trace(self.output))


def _sq_dists(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Pairwise squared distances; exactly symmetric when x is z.  Computed
    in place: (|x|^2 + |z|^2) - 2 x.z, clipped at 0."""
    gram = x @ z.T
    gram *= 2.0
    nx = np.einsum("ij,ij->i", x, x)
    nz = np.einsum("ij,ij->i", z, z)
    d = nx[:, None] + nz[None, :]
    d -= gram
    return np.maximum(d, 0.0, out=d)


def _radial_profile(spec: ScalarKernelSpec, sq_dist: np.ndarray) -> np.ndarray:
    """Kernel values from squared distances; the gaussian family overwrites
    ``sq_dist`` with them."""
    if spec.family == "gaussian":
        sq_dist *= -spec.bandwidth
        return np.exp(sq_dist, out=sq_dist)
    # matern / sobolev-radial; scipy loads here, not at import, because it
    # makes up most of the time to import the package
    from scipy.special import gamma, kv

    nu = spec.matern_nu
    r = np.sqrt(sq_dist) / spec.bandwidth
    arg = np.sqrt(2.0 * nu) * r
    out = np.ones_like(arg)
    pos = arg > 0
    a = arg[pos]
    out[pos] = (2.0 ** (1.0 - nu) / gamma(nu)) * (a**nu) * kv(nu, a)
    # kv underflows to 0 for large arguments, which is the correct limit
    return np.where(np.isfinite(out), out, 0.0)


def eval_scalar(spec: ScalarKernelSpec, x, x_prime) -> float:
    """Evaluate the scalar kernel at a single pair of points."""
    xa = as_points(x, spec.dimension)
    xb = as_points(x_prime, spec.dimension)
    if xa.shape[0] != 1 or xb.shape[0] != 1:
        raise InputError("eval_scalar expects single points")
    return float(_radial_profile(spec, _sq_dists(xa, xb))[0, 0])


def gram_scalar(spec: ScalarKernelSpec, pts) -> np.ndarray:
    """n x n scalar Gram matrix; symmetric, PSD up to ``PSD_TOL * n``."""
    x = as_points(pts, spec.dimension)
    g = _radial_profile(spec, _sq_dists(x, x))
    if not np.all(np.isfinite(g)):
        raise NumericError("Gram matrix contains non-finite entries")
    return g


def gram_scalar_cross(spec: ScalarKernelSpec, x, z) -> np.ndarray:
    """Rectangular kernel matrix k(x_i, z_j)."""
    xa = as_points(x, spec.dimension)
    za = as_points(z, spec.dimension)
    return _radial_profile(spec, _sq_dists(xa, za))


def check_kappa(kernel: DecomposableKernel, g_scalar: np.ndarray) -> None:
    probed = float(g_scalar.max()) if g_scalar.size else 0.0
    if probed > kernel.kappa * (1.0 + 1e-12):
        raise InputError(
            f"kappa={kernel.kappa} is below a probed kernel value {probed}"
        )


def gram_operator(kernel: DecomposableKernel, pts) -> np.ndarray:
    """nm x nm operator-valued Gram: exact Kronecker product G_k (x) M."""
    g = gram_scalar(kernel.scalar, pts)
    check_kappa(kernel, g)
    return np.kron(g, kernel.output)


def predict_expansion(kernel: DecomposableKernel, anchors, coeffs, x) -> np.ndarray:
    """Evaluate the kernel expansion sum_j k(x, x_j) M alpha_j at one point."""
    z = as_points(anchors, kernel.scalar.dimension)
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 2 or c.shape[0] != z.shape[0]:
        raise InputError(
            f"coeffs shape {c.shape} does not match {z.shape[0]} anchors"
        )
    if c.shape[1] != kernel.output_dim:
        raise InputError("coeffs column count must equal the output dimension")
    kvec = gram_scalar_cross(kernel.scalar, x, z)[0]
    return kernel.output @ (c.T @ kvec)


def expansion_matrix(kernel: DecomposableKernel, anchors, coeffs, x) -> np.ndarray:
    """Evaluate the expansion at many points; rows are predictions."""
    z = as_points(anchors, kernel.scalar.dimension)
    c = np.asarray(coeffs, dtype=float)
    kmat = gram_scalar_cross(kernel.scalar, x, z)
    return kmat @ c @ kernel.output


def _expansion_norm(g: np.ndarray, coeffs: np.ndarray, output: np.ndarray) -> float:
    """RKHS norm sqrt(sum_ij g_ij c_i^T M c_j) of an expansion whose anchor
    Gram is ``g``."""
    quad = float(np.sum(g * (coeffs @ output @ coeffs.T)))
    return float(np.sqrt(max(quad, 0.0)))


@dataclass(frozen=True)
class KernelExpansion:
    """A finite kernel expansion f = sum_j k(., z_j) M c_j, the workhorse
    surrogate for functions whose RKHS norms must stay Gram-computable."""

    kernel: DecomposableKernel
    anchors: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "anchors", as_points(self.anchors, self.kernel.scalar.dimension)
        )
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.anchors.shape[0], self.kernel.output_dim):
            raise InputError(
                f"coeffs shape {c.shape} incompatible with "
                f"{self.anchors.shape[0]} anchors in R^{self.kernel.output_dim}"
            )
        object.__setattr__(self, "coeffs", c)

    def __call__(self, x) -> np.ndarray:
        return predict_expansion(self.kernel, self.anchors, self.coeffs, x)

    def at(self, x) -> np.ndarray:
        return expansion_matrix(self.kernel, self.anchors, self.coeffs, x)

    def norm(self) -> float:
        """RKHS norm sqrt(sum_ij k(z_i, z_j) c_i^T M c_j)."""
        g = gram_scalar(self.kernel.scalar, self.anchors)
        return _expansion_norm(g, self.coeffs, self.kernel.output)


def sobolev_norm_gaussian(d: int, s: float) -> float:
    """Sobolev norm of the Gaussian bump x -> exp(-||x||^2) on R^d.

    Computed as the square root of

        2^(-d) * S_{d-1} * int_0^inf (1 + r^2)^s exp(-r^2/2) r^(d-1) dr

    with S_{d-1} the unit-sphere surface area, by adaptive quadrature at
    relative tolerance 1e-9.
    """
    if d < 1:
        raise InputError("dimension must be a positive integer")
    if s < 0:
        raise InputError("Sobolev order must be nonnegative")
    from scipy import integrate
    from scipy.special import gamma

    def integrand(r: float) -> float:
        return (1.0 + r * r) ** s * np.exp(-0.5 * r * r) * r ** (d - 1)

    value, err = integrate.quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-9, limit=200)
    if not np.isfinite(value) or (value > 0 and err > 1e-7 * value):
        raise NumericError(
            f"radial quadrature did not converge (value={value}, abserr={err})"
        )
    surface = 2.0 * np.pi ** (d / 2.0) / gamma(d / 2.0)
    return float(np.sqrt(2.0 ** (-d) * surface * value))
