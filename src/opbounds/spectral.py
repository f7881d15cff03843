"""Spectra of scaled Gram matrices: critical radius, statistical dimension,
sketch satisfiability, and the symmetric pencil maximizer.

The critical radius delta_n^2 is the minimal delta^2 >= 0 with

    psi(delta) = ((1/n) * sum_i min(delta^2, mu_i))^(1/2) <= delta^2,

where mu are the eigenvalues of G_k / n.  Since psi(delta)/delta is
nonincreasing while delta is increasing, the satisfying set is an interval
[delta*, inf) and bisection on delta is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InputError
from .kernels import finite_matrix, require_psd
from .sketching import SketchMatrix

#: Bracket width at which the critical-radius bisection stops.
_RADIUS_TOL = 1e-10


@dataclass(frozen=True)
class SpectralDecomposition:
    """Orthogonal eigenvectors and descending eigenvalues of G_k / n."""

    u: np.ndarray
    mu: np.ndarray
    n: int


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


def eigendecompose_scaled_gram(
    g_k: np.ndarray, n: int, gram_eigh=None
) -> SpectralDecomposition:
    """Eigendecomposition of G_k / n with descending, zero-clipped spectrum.

    The spectrum is ``np.linalg.eigh(g_k)`` with eigenvalues divided by n;
    ``gram_eigh`` supplies that eigendecomposition instead of computing it.
    """
    g = finite_matrix(g_k, "Gram matrix")
    # one n x n temporary: |g - g^T| in place, and max |g| from max and min
    asym = g - g.T
    asym = np.abs(asym, out=asym).max(initial=0.0)
    if asym > 1e-12 * max(1.0, g.max(initial=0.0), -g.min(initial=0.0)):
        raise InputError("Gram matrix is not symmetric")
    vals, vecs = np.linalg.eigh(g) if gram_eigh is None else gram_eigh
    if np.shape(vals) != g.shape[:1] or np.shape(vecs) != g.shape:
        raise InputError(f"eigenpairs of shapes {np.shape(vals)}, {np.shape(vecs)} for Gram {g.shape}")
    vals = vals / float(n)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    require_psd(vals, "scaled Gram")
    return SpectralDecomposition(u=vecs, mu=np.maximum(vals, 0.0), n=int(n))


def _psi(delta: float, mu: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.minimum(delta * delta, mu))))


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
    ``||S U2 D2^(1/2)|| <= c * delta_n``, both in operator norm.
    """
    n = dec.u.shape[0]
    if not (1 <= d_n <= n):
        raise InputError(f"d_n={d_n} outside [1, {n}]")
    s_dense = sk.matrix
    if s_dense.shape[1] != n:
        raise InputError(
            f"sketch has {s_dense.shape[1]} columns, Gram has {n} points"
        )
    u1 = dec.u[:, :d_n]
    su1 = s_dense @ u1
    norm1 = float(np.linalg.norm(su1.T @ su1 - np.eye(d_n), 2))
    if d_n < n:
        u2 = dec.u[:, d_n:]
        tail_scale = np.sqrt(dec.mu[d_n:])
        norm2 = float(np.linalg.norm((s_dense @ u2) * tail_scale[None, :], 2))
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
