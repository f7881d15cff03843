"""Scalar and decomposable operator-valued kernels.

A decomposable kernel is ``K(x, x') = k(x, x') * M`` for a scalar radial
kernel ``k`` and a symmetric PSD matrix ``M``; its Gram over ``n`` points is
the Kronecker product ``G_K = G_k (x) M``.  Point sets are plain ``(n, d)``
float arrays, validated by :func:`as_points`, and labels ``(n, m)`` float
arrays, validated by :func:`as_labels`.  A finite expansion
``x -> sum_i k(x, z_i) M c_i`` is a :class:`KernelExpansion`.  The bound
``kappa = sup_x k(x, x)`` that the trace terms read is
:attr:`ScalarKernelSpec.kappa`, a fact of the kernel rather than a setting.

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
any evaluation schedule.  Every Gram, square or cross, is built by one
routine, ``_CrossGram``, inside the one array it returns, in row blocks.
Half-integer Matern smoothnesses (nu = 0.5, 1.5, 2.5, for ``sobolev-radial``
too) have closed forms and are computed in place on the squared distances;
every other nu goes through ``scipy.special.kv``, and only then does scipy
load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotPsdError, NumericError

_FAMILIES = ("gaussian", "matern", "sobolev-radial")

#: The one PSD tolerance: eigenvalues ``vals`` are those of a PSD matrix when
#: ``min(vals) >= -PSD_TOL * max(|max(vals)|, 1)`` (see :func:`require_psd`).
PSD_TOL = 1e-10

#: Rows per block of every Gram's assembly (``_CrossGram``).
_GRAM_BLOCK = 128


def as_points(x, dim: int) -> np.ndarray:
    """Validate and return a point set as an (n, dim) float64 array."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.ndim != 2:
        raise InputError(f"point set must be 2-D, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InputError("point set contains non-finite entries")
    if pts.shape[1] != dim:
        raise InputError(f"points have dimension {pts.shape[1]}, expected {dim}")
    return pts


def as_labels(y) -> np.ndarray:
    """Validate and return labels as an (n, m) float64 array; a 1-D input is
    read as one column."""
    labels = np.asarray(y, dtype=float)
    if labels.ndim == 1:
        labels = labels[:, None]
    if labels.ndim != 2:
        raise InputError(f"labels must be 1-D or 2-D, got shape {labels.shape}")
    if not np.all(np.isfinite(labels)):
        raise InputError("labels contain non-finite entries")
    return labels


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
        if not (self.smoothness >= 0 and np.isfinite(self.smoothness)):
            raise InputError("smoothness must be a finite nonnegative real")
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

    @property
    def kappa(self) -> float:
        """sup_x k(x, x).  Every family is normalized to 1 at zero distance
        and nonincreasing in distance, so it is 1 and no kernel value
        exceeds it."""
        return 1.0


def finite_matrix(a, name: str, square: bool = True) -> np.ndarray:
    """``a`` as a float array, checked to be a nonempty, finite matrix, and
    square unless ``square`` is False."""
    return _finite_range(a, name, square)[0]


def _finite_range(a, name: str, square: bool = True) -> tuple[np.ndarray, float, float]:
    """(a, min a, max a) for the ``finite_matrix`` checks of ``a``, whose one
    ``min`` and one ``max`` pass are also the finiteness test: NaN reaches
    both and an infinite entry one of them, so no mask of a's size is made."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0 or (square and a.shape[0] != a.shape[1]):
        shape = "square nonempty" if square else "nonempty"
        raise InputError(f"{name} must be a {shape} matrix, got shape {a.shape}")
    low, high = float(a.min()), float(a.max())
    if not (np.isfinite(low) and np.isfinite(high)):
        raise InputError(f"{name} contains non-finite entries")
    return a, low, high


def require_psd(vals, name: str, error=NotPsdError) -> None:
    """Raise ``error`` unless the eigenvalues ``vals`` of ``name`` are those of
    a PSD matrix up to round-off: ``min >= -PSD_TOL * max(|max|, 1)``."""
    vals = np.asarray(vals)
    low, high = float(vals.min()), float(vals.max())
    if not low >= -PSD_TOL * max(abs(high), 1.0):  # NaN fails too
        raise error(f"{name} has eigenvalue {low}, not PSD")


#: Block size of the Cholesky verdict, and the column chunk of its panel
#: solves.  At n = 1,500 on one BLAS thread (minimum of 9 runs) it took
#: 47.6 ms in blocks of 64 with chunks of 256 columns, against 46.7 and 47.1
#: ms with chunks of 128 and 512, 49.3 ms in blocks of 48, 52.6 ms in blocks
#: of 128, and 56.7 ms with the former LU panel solves in blocks of 64.
_CHOLESKY_BLOCK = 64
_CHOLESKY_CHUNK = 256


def require_psd_cholesky(a: np.ndarray, top: float, name: str, scale: float) -> None:
    """Raise NotPsdError unless the symmetric ``a / scale`` is PSD up to
    round-off, without its spectrum: ``a / scale + tau I`` must have a
    Cholesky factor, with ``tau = PSD_TOL * max(top, 1)`` and ``top`` the
    largest eigenvalue of ``a / scale``.  It has none when lambda_min <
    -tau, up to a rounding band of order n eps ||a / scale|| (Higham 2002,
    *Accuracy and Stability of Numerical Algorithms*, ch. 10), so this is the
    verdict of :func:`require_psd` unless lambda_min lies in [-2 tau,
    -tau / 2].  A ``top`` below the true one (a Rayleigh quotient, such as
    the largest Ritz value) only makes it stricter.

    ``a`` is left unchanged.  A blocked right-looking factorization A = U^T U
    works on the scaled upper triangle, held as row blocks: block j is
    ``a[j:j+64, j:] / scale`` with tau on its diagonal, dropped once it is
    factored and has updated the blocks below it.  So the verdict holds about
    n (n + 64) / 2 numbers, half of an n x n copy, and beyond them only the
    64-row Schur product and the temporaries of :func:`_solve_lower_in_place`,
    which forms each block's panel U12 = L^-1 A12, L its Cholesky factor."""
    tau = PSD_TOL * max(top, 1.0)
    n, b = a.shape[0], _CHOLESKY_BLOCK
    blocks = []
    for j in range(0, n, b):
        block = a[j : j + b, j:] / scale
        diag = np.arange(block.shape[0])
        block[diag, diag] += tau
        blocks.append(block)
    for j in range(0, n, b):
        panel = blocks.pop(0)
        e = j + panel.shape[0]
        try:
            lower = np.linalg.cholesky(panel[:, : e - j])
        except np.linalg.LinAlgError:
            raise NotPsdError(f"{name} plus {tau} I has no Cholesky factor, not PSD") from None
        _solve_lower_in_place(lower, panel[:, e - j :])
        for i, block in zip(range(e, n, b), blocks):
            block -= panel[:, i - j : i - j + block.shape[0]].T @ panel[:, i - j :]


def _solve_lower_in_place(lower: np.ndarray, panel: np.ndarray) -> None:
    """Overwrite ``panel`` with L^-1 ``panel`` for the lower-triangular L.
    numpy has no triangular solve, and ``np.linalg.solve`` is an LU with
    pivoting (2.8 ms for 64 x 1,436 at n = 1,500), so each chunk is a GEMM
    with the inverse of L (0.3 ms) and one refinement step, U += L^-1 (P -
    L U).  The inverse alone leaves an error of order cond(L) eps, and
    cond(L) reaches ~1e5 when the verdict's matrix has an eigenvalue near
    -tau; the step brings the residual back to that of a triangular solve.
    The residual is formed in the chunk itself, so the temporaries are two
    arrays of one chunk."""
    inv = np.linalg.inv(lower)
    for c in range(0, panel.shape[1], _CHOLESKY_CHUNK):
        chunk = panel[:, c : c + _CHOLESKY_CHUNK]
        u = inv @ chunk
        chunk -= lower @ u
        u += inv @ chunk
        chunk[...] = u


def make_output_matrix(m: np.ndarray) -> np.ndarray:
    """Validate an output matrix: exactly symmetric, PSD up to tolerance."""
    m = finite_matrix(m, "output matrix")
    if not np.array_equal(m, m.T):
        raise InputError("output matrix must be exactly symmetric")
    require_psd(np.linalg.eigvalsh(m), "output matrix")
    return m


def _is_identity(mat: np.ndarray) -> bool:
    """Whether ``mat`` is exactly the identity matrix.  A product with it
    changes no finite value, so callers skip it."""
    return np.array_equal(mat, np.eye(len(mat)))


@dataclass(frozen=True)
class DecomposableKernel:
    """K = k * M; its kappa is the scalar kernel's."""

    scalar: ScalarKernelSpec
    output: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "output", make_output_matrix(self.output))

    @property
    def output_dim(self) -> int:
        return self.output.shape[0]

    def trace_m(self) -> float:
        return float(np.trace(self.output))


def _extent(x: np.ndarray) -> float:
    """max |x_ik| as a Python float (0 for no entries)."""
    return float(np.abs(x).max(initial=0.0))


def _require_no_overflow(x_extent: float, z_extent: float, dim: int) -> None:
    """Raise NumericError unless 2 d max|x| max|z|, the bound on the cross
    term of a squared distance, is finite."""
    # Python floats: the product overflows to inf without a warning
    if not np.isfinite(2.0 * dim * (x_extent * z_extent)):
        raise NumericError("squared distances overflow: the points are too large")


class _CrossGram:
    """Cross Grams k(x, z) against fixed, valid anchors z, whose squared
    norms and max |z| are computed once, for points x that the caller
    computed and so need no ``as_points``.  This is the library's one Gram
    assembly: ``gram_scalar`` is the call with x the same array as z, and
    ``gram_scalar_cross`` the call on validated points."""

    def __init__(self, spec: ScalarKernelSpec, z: np.ndarray):
        self.spec, self.z = spec, z
        self.z_sq, self.z_extent = np.einsum("ij,ij->i", z, z), _extent(z)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """k(x, z), built inside the one array it returns: ``x @ z.T`` (numpy's
        symmetric product when x is z), then each block of ``_GRAM_BLOCK``
        rows becomes squared distances (|x|^2 + |z|^2) - 2 x.z, clipped at 0,
        and kernel values in place.  A block allocates one temporary of its
        size, and the Matern polynomial one more.

        One max |x| pass raises InputError on a non-finite entry, and then
        NumericError unless 2 d max|x| max|z|, the bound on the cross term,
        is finite.  So no distance is NaN: an overflow can only give +inf,
        which every family maps to 0, and every entry is finite.  When x is
        z, its max |x| and squared norms are the anchors' own."""
        square = x is self.z
        x_extent = self.z_extent if square else _extent(x)
        if not np.isfinite(x_extent):
            raise InputError("point set contains non-finite entries")
        _require_no_overflow(x_extent, self.z_extent, x.shape[1])
        g = x @ self.z.T
        x_sq = self.z_sq if square else np.einsum("ij,ij->i", x, x)
        for i in range(0, g.shape[0], _GRAM_BLOCK):
            block = g[i : i + _GRAM_BLOCK]
            block *= 2.0
            np.subtract(x_sq[i : i + block.shape[0], None] + self.z_sq[None, :], block, out=block)
            np.maximum(block, 0.0, out=block)
            values = _radial_profile(self.spec, block)
            if values is not block:  # the kv family returns a new array
                block[...] = values
        return g


def _radial_profile(spec: ScalarKernelSpec, sq_dist: np.ndarray) -> np.ndarray:
    """Kernel values from squared distances.  The gaussian family and the
    half-integer Matern smoothnesses overwrite ``sq_dist`` with them."""
    if spec.family == "gaussian":
        sq_dist *= -spec.bandwidth
        return np.exp(sq_dist, out=sq_dist)
    nu = spec.matern_nu
    if nu in (0.5, 1.5, 2.5):
        return _half_integer_matern(nu, spec.bandwidth, sq_dist)
    # other smoothnesses need kv; scipy loads here, not at import, because it
    # makes up most of the time to import the package
    from scipy.special import gamma, kv

    r = np.sqrt(sq_dist) / spec.bandwidth
    arg = np.sqrt(2.0 * nu) * r
    out = np.ones_like(arg)
    pos = arg > 0
    a = arg[pos]
    with np.errstate(over="ignore", invalid="ignore"):
        out[pos] = (2.0 ** (1.0 - nu) / gamma(nu)) * (a**nu) * kv(nu, a)
    # a non-finite product is a limit: at tiny arguments a**nu underflows and
    # kv overflows (the value tends to 1), at huge ones kv underflows (to 0)
    bad = ~np.isfinite(out)
    out[bad] = np.where(arg[bad] < 1.0, 1.0, 0.0)
    return out


def _half_integer_matern(nu: float, bandwidth: float, sq_dist: np.ndarray) -> np.ndarray:
    """Matern values for nu in (0.5, 1.5, 2.5) in closed form,
    ``e^(-a)``, ``(1 + a) e^(-a)`` and ``(1 + a + a^2/3) e^(-a)`` with
    ``a = sqrt(2 nu) r / bandwidth`` (Rasmussen & Williams 2006, sec. 4.2).
    Overwrites ``sq_dist`` with them and allocates at most one more array.
    It holds b = -a, from the division by -bandwidth, so the exponential
    needs no negation pass; negation is exact, so every value has the bits
    of the same formulas in a."""
    b = np.sqrt(sq_dist, out=sq_dist)
    b /= -bandwidth
    b *= np.sqrt(2.0 * nu)
    # e^(-a) is exactly 0 from a ~ 745 on; capping a there keeps the
    # polynomial finite (an infinite a would make inf * 0 = nan)
    np.maximum(b, -1e3, out=b)
    if nu == 0.5:
        return np.exp(b, out=b)
    if nu == 1.5:
        poly = 1.0 - b
    else:  # 1 + a (1 + a/3), by Horner: 1 - b (1 + b/-3)
        poly = b / -3.0
        poly += 1.0
        poly *= b
        np.subtract(1.0, poly, out=poly)
    np.exp(b, out=b)
    return np.multiply(b, poly, out=b)


def gram_scalar(spec: ScalarKernelSpec, pts) -> np.ndarray:
    """n x n scalar Gram matrix; exactly symmetric, PSD up to ``PSD_TOL * n``,
    with finite entries.  It is ``_CrossGram`` with the points as their own
    anchors, built in row blocks inside the one n x n array it returns."""
    x = as_points(pts, spec.dimension)
    return _CrossGram(spec, x)(x)


def gram_error_bound(spec: ScalarKernelSpec, pts) -> float:
    """Bound on max |``gram_scalar(spec, pts)`` - G|, G the exact Gram of the
    float points: L_k c(d) u 2R^2 + c' u with u = 2^-53, R^2 = max |x_i|^2,
    c(d) = 2d + 4, c' = 16 and L_k = sup |dk/d(r^2)|: the bandwidth of the
    gaussian, 3 / (2 l^2) and 5 / (6 l^2) for Matern nu = 1.5 and 2.5 (l the
    bandwidth); inf for any other nu (nu = 0.5 has no finite L_k, and the
    ``kv`` path is not analysed).

    c(d): x_i . x_j and |x_i|^2 err by at most gamma_d R^2 (Cauchy-Schwarz;
    Higham 2002, *Accuracy and Stability of Numerical Algorithms*, ch. 3), the
    sum |x_i|^2 + |x_j|^2 by 2u R^2 and the difference by u s <= 4u R^2: a
    squared-distance error of (4d + 6) u R^2 to first order, and the last
    2u R^2 covers the rest for d below 10^6.  k moves by at most L_k times it.
    c': numpy's exp within 4 ulps gives the gaussian (1/e + 4) u; the Matern
    argument's relative error 4u moves k by at most max(a^2, a^2 (1 + a) / 3)
    e^-a 4u < 2.5u, and its polynomial, exp and product add at most 9u."""
    x = as_points(pts, spec.dimension)
    if spec.family == "gaussian":
        lip = spec.bandwidth
    else:
        scale = {1.5: 1.5, 2.5: 5.0 / 6.0}.get(spec.matern_nu, np.inf)
        lip = scale / spec.bandwidth / spec.bandwidth
    u, r_sq = 2.0**-53, float(np.einsum("ij,ij->i", x, x).max())
    if not lip * r_sq < np.inf:  # L_k or R^2 infinite or overflowed; inf * 0 too
        return np.inf
    return lip * (2 * x.shape[1] + 4) * u * 2.0 * r_sq + 16 * u


def gram_scalar_cross(spec: ScalarKernelSpec, x, z) -> np.ndarray:
    """Rectangular kernel matrix k(x_i, z_j)."""
    d = spec.dimension
    return _CrossGram(spec, as_points(z, d))(as_points(x, d))


def check_kappa(spec: ScalarKernelSpec, g_scalar: np.ndarray) -> None:
    """Reject a caller's Gram with an entry above ``spec.kappa``: it is no
    Gram of that kernel."""
    probed = float(g_scalar.max()) if g_scalar.size else 0.0
    if probed > spec.kappa * (1.0 + 1e-12):
        raise InputError(
            f"Gram entry {probed} exceeds the kernel's kappa={spec.kappa}"
        )


def _expansion_norm(g: np.ndarray, coeffs: np.ndarray, output: np.ndarray) -> float:
    """RKHS norm sqrt(sum_ij g_ij c_i^T M c_j) of an expansion whose anchor
    Gram is ``g``."""
    quad = float(np.sum(g * (coeffs @ output @ coeffs.T)))
    return float(np.sqrt(max(quad, 0.0)))


@dataclass(frozen=True)
class KernelExpansion:
    """A finite kernel expansion x -> sum_i k(x, z_i) M c_i, such as a deep
    vvRKHS layer or the synthetic teacher; its RKHS norm is Gram-computable."""

    kernel: ScalarKernelSpec
    output: np.ndarray
    anchors: np.ndarray
    coeffs: np.ndarray

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
        if not np.all(np.isfinite(c)):
            raise InputError("expansion coeffs contain non-finite entries")
        object.__setattr__(self, "coeffs", c)

    @property
    def out_dim(self) -> int:
        return self.output.shape[0]

    def at(self, x) -> np.ndarray:
        """Values at a batch of points; rows are predictions."""
        return gram_scalar_cross(self.kernel, x, self.anchors) @ self.coeffs @ self.output
