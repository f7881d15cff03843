"""Spectra of scaled Gram matrices: critical radius, statistical dimension,
sketch satisfiability, and the symmetric pencil maximizer.

The critical radius delta_n^2 is the minimal delta^2 >= 0 with

    psi(delta) = ((1/n) * sum_i min(delta^2, mu_i))^(1/2) <= delta^2,

where mu are the eigenvalues of G_k / n.  Since psi(delta)/delta is
nonincreasing while delta is increasing, the satisfying set is an interval
[delta*, inf) and bisection on delta is exact.

The Gram is reduced once to Householder tridiagonal form G_k = Q T Q^T
(Golub & Van Loan, Matrix Computations, sec. 8.3), and its spectrum, its top
eigenvectors and its ridge solves are all read from that form: no n x n
eigenvector matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import lapack
from .errors import DegenerateInputError, InputError, NumericError
from .kernels import finite_matrix, require_psd
from .sketching import SketchMatrix

#: Bracket width at which the critical-radius bisection stops.
_RADIUS_TOL = 1e-10


def _lapack(name: str, *args, **kwargs):
    """Outputs of scipy's LAPACK routine ``name`` (one array, or a list)
    without the trailing ``info``, which must be 0."""
    *out, info = getattr(lapack(), name)(*args, **kwargs)
    if info != 0:
        raise NumericError(f"LAPACK {name} failed with info = {info}")
    return out[0] if len(out) == 1 else out


def _compact_reflectors(a: np.ndarray) -> np.ndarray:
    """The block a[1:, :-1] of a square F-ordered ``a``, moved to the front of
    a's own buffer as an F-ordered array: the reflectors that ``dsytrd``
    (lower) leaves in ``a``, in the layout that ``dormqr`` reads."""
    size = a.shape[0]
    k = size - 1
    flat = a.reshape(-1, order="F")
    # column j moves back by j + 1 entries, so no column overwrites a later one
    for j in range(k):
        flat[j * k : j * k + k] = flat[j * size + 1 : j * size + size]
    return flat[: k * k].reshape((k, k), order="F")


@dataclass(frozen=True)
class SpectralDecomposition:
    """G_k = Q T Q^T in Householder tridiagonal form, and the descending,
    zero-clipped eigenvalues ``mu`` of G_k / n.

    ``gram`` is G_k itself (held, not copied).  T has diagonal ``diag`` and
    off-diagonal ``off``; ``off`` holds one unread 0 when G_k is 1 x 1, since
    scipy's wrappers of the tridiagonal routines take no empty array.  Q is
    the product of the Householder reflectors ``reflectors`` and ``tau``, in
    the layout of LAPACK ``dormqr`` acting on rows 2..n.
    """

    gram: np.ndarray
    mu: np.ndarray
    n: int
    diag: np.ndarray
    off: np.ndarray
    reflectors: np.ndarray
    tau: np.ndarray

    @property
    def size(self) -> int:
        """Number of points of the Gram."""
        return self.diag.size

    def _apply_q(self, c: np.ndarray, trans: bytes) -> np.ndarray:
        """Q c (``trans`` b"N") or Q^T c (b"T") for c of shape (size, k)."""
        out = np.array(c, dtype=float, order="F")
        if self.size > 1:
            rows = np.asfortranarray(out[1:])
            args = (b"L", trans, self.reflectors, self.tau, rows)
            lwork = int(_lapack("dormqr", *args, -1)[1][0])
            out[1:] = _lapack("dormqr", *args, lwork, overwrite_c=1)[0]
        return out

    def top_vectors(self, k: int) -> np.ndarray:
        """Orthonormal eigenvectors of the k largest eigenvalues of G_k as
        columns, in descending eigenvalue order: bisection and inverse
        iteration on T (``dstebz``, ``dstein``), then Q."""
        size = self.size
        if not 1 <= k <= size:
            raise InputError(f"k={k} outside [1, {size}]")
        found, w, block, split = _lapack(
            "dstebz", self.diag, self.off, 2, 0.0, 0.0, size - k + 1, size, 0.0, b"B"
        )
        if found != k:
            raise NumericError(f"LAPACK dstebz found {found} of the top {k} eigenvalues")
        z = _lapack("dstein", self.diag, self.off, w[:k], block, split)
        return self._apply_q(z[:, np.argsort(-w[:k], kind="stable")], b"N")

    def ridge_solve(self, scales, shift: float, rhs: np.ndarray) -> np.ndarray:
        """Column j of (scales[j] G_k + shift I)^-1 rhs[:, j], by ``dptsv`` on
        scales[j] T + shift I between Q^T and Q; each of these matrices must
        be positive definite."""
        x = self._apply_q(rhs, b"T")
        for j, scale in enumerate(scales):
            x[:, j : j + 1] = _lapack(
                "dptsv", scale * self.diag + shift, scale * self.off, x[:, j : j + 1]
            )[2]
        return self._apply_q(x, b"N")


@dataclass(frozen=True)
class SpectralReport:
    delta_sq: float
    d_n: int
    norm1: float
    norm2: float
    c_used: float
    satisfiable: bool

    def to_dict(self) -> dict:
        return {
            "delta_sq": self.delta_sq,
            "d_n": self.d_n,
            "norm1": self.norm1,
            "norm2": self.norm2,
            "c_used": self.c_used,
            "satisfiable": self.satisfiable,
        }


def eigendecompose_scaled_gram(g_k: np.ndarray, n: int) -> SpectralDecomposition:
    """Tridiagonal form of the checked Gram G_k (one blocked ``dsytrd``) and
    the descending, zero-clipped eigenvalues of G_k / n (``dsterf`` on T)."""
    g = finite_matrix(g_k, "Gram matrix")
    # one n x n temporary: |g - g^T| in place, and max |g| from max and min
    asym = g - g.T
    asym = np.abs(asym, out=asym).max(initial=0.0)
    if asym > 1e-12 * max(1.0, g.max(initial=0.0), -g.min(initial=0.0)):
        raise InputError("Gram matrix is not symmetric")
    size = g.shape[0]
    # g is symmetric, so its F-ordered copy is g; dsytrd overwrites the copy
    # with T and the reflectors, and the workspace query makes it blocked
    work = np.array(g, order="F")
    lwork = int(_lapack("dsytrd_lwork", size, lower=1))
    _, diag, off, tau = _lapack("dsytrd", work, lower=1, lwork=lwork, overwrite_a=1)
    if size == 1:
        off = np.zeros(1)
    vals = _lapack("dsterf", diag, off) / float(n)
    require_psd(vals, "scaled Gram")
    return SpectralDecomposition(
        gram=g,
        mu=np.maximum(vals[::-1], 0.0),
        n=int(n),
        diag=diag,
        off=off,
        reflectors=_compact_reflectors(work),
        tau=tau,
    )


def _psi(delta: float, mu: np.ndarray) -> float:
    # the bits of np.mean at half its call overhead
    return float(np.sqrt(np.minimum(delta * delta, mu).sum() / mu.size))


def critical_radius(mu) -> float:
    """Minimal delta^2 with psi(delta) <= delta^2, by bisection on delta."""
    mu = np.asarray(mu, dtype=float)
    if mu.size == 0 or mu.max() <= 0.0:
        return 0.0
    if np.any(mu < 0):
        raise InputError("eigenvalues must be nonnegative")
    hi = max(1.0, float(np.sqrt(mu[0])))
    # psi(hi) <= sqrt(mu_1) <= max(1, mu_1) = hi^2, so the bracket is valid.
    lo = 0.0
    while hi - lo > _RADIUS_TOL:
        mid = 0.5 * (lo + hi)
        if _psi(mid, mu) <= mid * mid:
            hi = mid
        else:
            lo = mid
    return hi * hi


def statistical_dimension(mu, delta_sq: float) -> int:
    """Minimal 1-based index j with mu_j <= delta_sq; n if none qualifies."""
    mu = np.asarray(mu, dtype=float)
    below = np.flatnonzero(mu <= delta_sq)
    if below.size == 0:
        return int(mu.size)
    return int(below[0]) + 1


def check_satisfiability(
    sk: SketchMatrix,
    dec: SpectralDecomposition,
    d_n: int,
    delta_sq: float,
    c: float,
) -> SpectralReport:
    """Spectral-norm test of the sketch against the top/tail eigenspaces.

    Satisfiable iff ``||(S U1)^T S U1 - I|| <= 1/2`` and
    ``||S U2 D2^(1/2)|| <= c * delta_n``, both in operator norm.  The tail
    vectors U2 are never formed: ``S U2 D2 U2^T S^T`` is
    ``S (G_k / n) S^T - (S U1) D1 (S U1)^T``, whose cancellation costs about
    n * eps relative since delta_n^2 is at least of order 1/n.
    """
    n = dec.size
    if not (1 <= d_n <= n):
        raise InputError(f"d_n={d_n} outside [1, {n}]")
    s_dense = sk.matrix
    if s_dense.shape[1] != n:
        raise InputError(
            f"sketch has {s_dense.shape[1]} columns, Gram has {n} points"
        )
    su1 = s_dense @ dec.top_vectors(d_n)
    norm1 = float(np.linalg.norm(su1.T @ su1 - np.eye(d_n), 2))
    if d_n < n:
        tail = (s_dense @ dec.gram @ s_dense.T) / dec.n - (su1 * dec.mu[:d_n]) @ su1.T
        norm2 = float(np.sqrt(max(np.linalg.eigvalsh(tail)[-1], 0.0)))
    else:
        norm2 = 0.0
    delta_n = float(np.sqrt(max(delta_sq, 0.0)))
    ok = (norm1 <= 0.5) and (norm2 <= c * delta_n)
    return SpectralReport(
        delta_sq=float(delta_sq),
        d_n=int(d_n),
        norm1=norm1,
        norm2=norm2,
        c_used=float(c),
        satisfiable=bool(ok),
    )


#: Relative eigenvalue threshold below which pencil directions count as null.
PENCIL_NULL_TOL = 1e-12


def _pencil_basis(g_bottom: np.ndarray) -> np.ndarray:
    """Pseudo-inverse root B of G_bottom on its range (B^T G_bottom B = I), the
    whitening basis of the pencil; raises when G_bottom is zero or not PSD."""
    vals, vecs = np.linalg.eigh(0.5 * (g_bottom + g_bottom.T))
    lam_max = vals[-1]
    if lam_max <= 0.0:
        raise DegenerateInputError("pencil bottom matrix is identically zero")
    require_psd(vals, "pencil bottom matrix")
    keep = vals > PENCIL_NULL_TOL * lam_max
    return vecs[:, keep] / np.sqrt(vals[keep])[None, :]


def _whiten(g_top: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Symmetrized B^T G_top B on a whitening basis B from _pencil_basis: the
    symmetric matrix whose top eigenvalue is the pencil's rho."""
    whitened = basis.T @ g_top @ basis
    return 0.5 * (whitened + whitened.T)


def _top_eigenvalue(s: np.ndarray) -> float:
    """rho of a whitened top matrix from _whiten, clipped at 0."""
    w_vals = np.linalg.eigvalsh(s)
    return float(max(w_vals[-1], 0.0)) if w_vals.size else 0.0


#: Slack, relative to ||S||_F, taken off a Rayleigh quotient of S so that it
#: stays below the computed top eigenvalue; the rounding errors of both are
#: ~1e-15 relative.
_RAYLEIGH_SLACK = 1e-9


def _rayleigh_floor(s: np.ndarray, w: np.ndarray) -> float:
    """Lower bound on _top_eigenvalue(s) from a unit vector w: the Rayleigh
    quotient w^T S w, at most the top eigenvalue (Courant-Fischer), less
    _RAYLEIGH_SLACK * ||S||_F; NaN when S is not finite."""
    return float(w @ s @ w) - _RAYLEIGH_SLACK * float(np.linalg.norm(s))


def _top_eigenpair(
    s: np.ndarray, basis: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, float]:
    """rho of S = _whiten(G_top, basis), the maximizing vector a = B w (with
    a^T G_bottom a = 1), the top unit eigenvector w of S and the gap to the
    second eigenvalue of S.  w is a copy, so the eigenvector matrix is freed;
    a is computed from its column, whose layout sets a's last bits."""
    w_vals, w_vecs = np.linalg.eigh(s)
    rho = float(max(w_vals[-1], 0.0))
    gap = float(w_vals[-1] - w_vals[-2]) if w_vals.size > 1 else np.inf
    return rho, basis @ w_vecs[:, -1], w_vecs[:, -1].copy(), gap


def pencil_max(g_top: np.ndarray, g_bottom: np.ndarray) -> float:
    """Largest generalized Rayleigh quotient a^T G_top a / a^T G_bottom a
    over the range of G_bottom, via whitening with a pseudo-inverse root.
    """
    top = finite_matrix(g_top, "pencil top matrix")
    bot = finite_matrix(g_bottom, "pencil bottom matrix")
    if top.shape != bot.shape:
        raise InputError("pencil matrices must be of equal shape")
    basis = _pencil_basis(bot)
    require_psd(np.linalg.eigvalsh(0.5 * (top + top.T)), "pencil top matrix")
    return _top_eigenvalue(_whiten(top, basis))
