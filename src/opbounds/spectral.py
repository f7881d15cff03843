"""Spectra of scaled Gram matrices: critical radius, statistical dimension,
sketch satisfiability, and the whitening of a symmetric pencil on which the
deep objective evaluates its transfer-product norm.

The critical radius delta_n^2 is the minimal delta^2 >= 0 with

    psi(delta) = ((1/n) * sum_i min(delta^2, mu_i))^(1/2) <= delta^2,

where mu are the eigenvalues of G_k / n.  Since psi(delta)/delta is
nonincreasing while delta is increasing, the satisfying set is an interval
[delta*, inf) and bisection on delta is exact.  By the trace identity
n psi(delta)^2 = tr(G_k) / n - sum_{mu_i > delta^2} (mu_i - delta^2), it
needs only tr(G_k) and the eigenvalues above delta^2.  So a Gram of more than
N_DENSE points yields just its top eigenpairs, to Lanczos with full
reorthogonalization (Golub & Van Loan, *Matrix Computations*, sec. 10.3), and
its ridge solves run conjugate gradients deflated by them (Saad, Yeung, Erhel
& Guyomarc'h 2000, *A deflated version of the conjugate gradient algorithm*).
Above N_DENSE the n x n Gram is read as few times as possible: its symmetry
is checked by tiles, with no n x n temporary; its CG iterates and deflation
basis are rows, so each product with it has a row-major left operand (the
faster layout of thin GEMMs on OpenBLAS); ``sketched_gram`` forms S G S^T
once for a sketched fit and its satisfiability test; and the O(n^3) PSD
verdict runs only where the caller's error bound leaves it open.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateInputError, InputError, NumericError
from .kernels import PSD_TOL, finite_matrix, require_psd, require_psd_cholesky
from .sketching import SketchMatrix

#: Bracket width at which the critical-radius bisection stops.
_RADIUS_TOL = 1e-10

#: Largest Gram decomposed in full by ``eigh``.  On one BLAS thread (Matern
#: nu = 1.5, d = 3) it took 0.4, 6.1 and 105 ms at n = 64, 256 and 768, and
#: Lanczos for 16 eigenpairs with the Cholesky verdict 2.0, 3.9 and 32 ms;
#: they cross at n = 128-192, so the exact dense path costs at most 2 ms more.
N_DENSE = 256

#: Eigenpairs the first Lanczos run computes.  The ``sketch-squared-large``
#: benchmark Gram (Matern nu = 1.5, n = 1,500) has d_n = 11; Lanczos took
#: 0.05 s there for 16 eigenpairs and 0.074-0.084 s for 32.
LANCZOS_START = 16


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs ``vals``, ``vecs`` of the Gram G_k (``gram``, held, not
    copied) in the ascending order of ``np.linalg.eigh``: all n of them, or
    the top ones that Lanczos found."""

    gram: np.ndarray
    vals: np.ndarray
    vecs: np.ndarray

    @property
    def size(self) -> int:
        """Number of points of the Gram."""
        return self.gram.shape[0]

    @cached_property
    def mu(self) -> np.ndarray:
        """The eigenvalues at hand of G_k / n, descending and clipped at 0."""
        return np.maximum(self.vals[::-1] / float(self.size), 0.0)

    @cached_property
    def delta_sq(self) -> float:
        """The critical radius, with the rest of tr(G_k) / n as the tail of
        ``mu``; exact when the smallest of ``mu`` is at or below it."""
        tail = float(np.trace(self.gram)) / self.size - float(self.mu.sum())
        return critical_radius(self.mu, self.size, tail if self.vals.size < self.size else 0.0)

    def top_vectors(self, k: int) -> np.ndarray:
        """Orthonormal eigenvectors of the k largest eigenvalues of G_k as
        columns, in descending eigenvalue order."""
        if not 1 <= k <= self.vals.size:
            raise InputError(f"k={k} outside [1, {self.vals.size}]")
        return self.vecs[:, ::-1][:, :k]

    def ridge_solve(self, scales, shift: float, rhs: np.ndarray) -> tuple[np.ndarray, int]:
        """(x, iterations): column j of x is (scales[j] G_k + shift I)^-1
        rhs[:, j], each matrix positive definite, exact on ``vecs`` and by CG
        deflated by them (Saad et al. 2000, Algorithm 3.6) on their complement
        to a relative residual of 1e-13, all columns at once.

        The CG runs on rows: each system's iterate, residual and direction is
        a row of an m x n array, and the deflation basis and G times it are
        k x n, so every product with G is (m x n) G, a row-major operand on
        the left.  On one OpenBLAS thread at n = 1,500, (3 x n) G took 1.8 ms
        against 3.1-3.3 ms for G times the same three columns; with 16 rows
        (the deflation basis) the two layouts were within noise, 2.2-2.9 ms."""
        g, scales = self.gram, np.asarray(scales, dtype=float)
        if self.vals.size == self.size:
            w = self.vecs
            return w @ ((w.T @ rhs) / (np.outer(self.vals, scales) + shift)), 0
        # rotate w so that w G w^T, and so each coarse system w A_j w^T, is diagonal
        w = self.vecs.T
        gw = w @ g  # rows (G w_i)^T, G symmetric
        theta, rot = np.linalg.eigh(0.5 * (w @ gw.T + gw @ w.T))
        w, gw = rot.T @ w, rot.T @ gw
        coarse = np.outer(scales, theta) + shift
        scales = scales[:, None]

        def deflate(r):  # r_j - (A_j w^T (w A_j w^T)^-1 w)^T r_j for every row j
            return r - (((r @ gw.T) * scales + shift * (r @ w.T)) / coarse) @ w

        b = np.ascontiguousarray(rhs.T)
        y = (b @ w.T) / coarse
        x = y @ w
        r = b - (y @ gw) * scales - shift * x
        p = deflate(r)
        rr = np.einsum("ij,ij->i", r, r)
        stop = 1e-26 * np.einsum("ij,ij->i", b, b)  # relative residual 1e-13
        for it in range(self.size):
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


@dataclass(frozen=True)
class SpectralReport:
    delta_sq: float
    d_n: int
    norm1: float
    norm2: float
    c_used: float
    satisfiable: bool


def _lanczos(g: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenvalues of the symmetric G, ascending, and their
    eigenvectors as columns: Lanczos from a seeded random vector (which, unlike
    a structured one, is orthogonal to no eigenvector), every new vector
    orthogonalized twice against all before (so no copies of converged Ritz
    values arise), restarted from another seeded one when an invariant
    subspace is found, until the top k Ritz residuals |beta_j s_ji| are at
    most 1e-15 max|theta| or the Krylov space is all of R^n."""
    n = g.shape[0]
    rows = np.empty((min(n, 2 * k + 32), n))  # the Lanczos vectors
    alpha, beta = [], []
    w = np.random.default_rng(0).standard_normal(n)
    v = w / np.linalg.norm(w)
    for j in range(n):
        if j == rows.shape[0]:
            rows = np.concatenate([rows, np.empty((min(n, 2 * j) - j, n))])
        rows[j] = v
        w = g @ v
        alpha.append(float(v @ w))
        q = rows[: j + 1]
        for _ in range(2):
            w -= (q @ w) @ q
        b = float(np.linalg.norm(w))
        breakdown = b <= 1e-12 * max(map(abs, alpha))
        if j + 1 >= k and ((j + 1) % 8 == 0 or breakdown or j + 1 == n):
            theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            if j + 1 == n or np.all(b * np.abs(s[-1, -k:]) <= 1e-15 * np.abs(theta).max()):
                return theta[-k:], q.T @ s[:, -k:]
        beta.append(0.0 if breakdown else b)
        if breakdown:
            w = np.random.default_rng(j + 1).standard_normal(n)
            for _ in range(2):
                w -= (q @ w) @ q
        v = w / np.linalg.norm(w)


#: Tile edge of the symmetry check.
_SYMMETRY_TILE = 128


def _max_asymmetry(g: np.ndarray) -> float:
    """max |g_ij - g_ji| over the square g, tile pair by tile pair: the
    maximum of ``np.abs(g - g.T)`` bit for bit, since |x - y| = |y - x|
    exactly, without its n x n temporary or its column-order pass over g^T
    (about 3 against 14 ms at n = 1,500)."""
    n, t = g.shape[0], _SYMMETRY_TILE
    worst = 0.0
    for i in range(0, n, t):
        for j in range(i, n, t):
            diff = g[i : i + t, j : j + t] - g[j : j + t, i : i + t].T
            worst = max(worst, float(np.abs(diff, out=diff).max()))
    return worst


def eigendecompose_scaled_gram(
    g_k: np.ndarray, top: int = LANCZOS_START, slack: float = np.inf
) -> SpectralDecomposition:
    """The checked Gram G_k (finite, symmetric, PSD up to round-off) with all
    its eigenpairs up to N_DENSE points; above, the ``top`` largest from
    Lanczos, doubled until the smallest eigenvalue of G_k / n is at or below
    the critical radius, or all of them once twice their number reaches n.
    ``slack`` bounds max |G_k - G| for some PSD G (``kernels.gram_error_bound``;
    the default certifies nothing), so lambda_min(G_k / n) >= -slack by Weyl.
    Above N_DENSE the PSD verdict (``require_psd_cholesky`` of G_k / n, top
    the largest Ritz value) runs after the first Lanczos run unless ``slack``
    is below PSD_TOL."""
    g = finite_matrix(g_k, "Gram matrix")
    # max |g| from max and min
    if _max_asymmetry(g) > 1e-12 * max(1.0, g.max(initial=0.0), -g.min(initial=0.0)):
        raise InputError("Gram matrix is not symmetric")
    size, k = g.shape[0], top
    while size > N_DENSE and 2 * k < size:
        vals, vecs = _lanczos(g, k)
        if k == top and not slack < PSD_TOL:
            require_psd_cholesky(g, vals[-1] / size, "scaled Gram", float(size))
        dec = SpectralDecomposition(g, vals, vecs)
        if dec.mu[-1] <= dec.delta_sq:
            return dec
        k *= 2
    vals, vecs = np.linalg.eigh(g)
    require_psd(vals / float(size), "scaled Gram")
    return SpectralDecomposition(g, vals, vecs)


def critical_radius(mu, n: int | None = None, tail: float = 0.0) -> float:
    """Minimal delta^2 with psi(delta) <= delta^2, by bisection on delta, for
    the n eigenvalues of G_k / n whose largest are ``mu``, descending (all of
    them when ``n`` is None), and whose others sum to ``tail``: psi(delta)^2 =
    (tail + sum_i min(delta^2, mu_i)) / n, exact for delta^2 >= min(mu)."""
    mu = np.asarray(mu, dtype=float)
    if mu.size == 0 or mu.max() <= 0.0:
        return 0.0
    if np.any(mu < 0):
        raise InputError("eigenvalues must be nonnegative")
    n, tail = mu.size if n is None else n, max(tail, 0.0)
    # psi(hi) <= sqrt(mu_1) <= max(1, mu_1) = hi^2, so the bracket is valid.
    lo, hi = 0.0, max(1.0, float(np.sqrt(mu[0])))
    while hi - lo > _RADIUS_TOL:
        mid = 0.5 * (lo + hi)
        # psi(mid): with tail 0 and n = mu.size, the bits of np.mean
        if float(np.sqrt((tail + np.minimum(mid * mid, mu).sum()) / n)) <= mid * mid:
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


def sketched_gram(sk: SketchMatrix, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(G S^T, S G S^T) of the sketch S and the n x n Gram G, the second as
    S (G S^T): the products with G that a sketched fit and the
    satisfiability test read, which ``sketch-regress`` forms once for both
    (each S G S^T is an s x n x n GEMM, 17 ms at n = 1,500 and s = 150)."""
    s_dense = sk.matrix
    if s_dense.shape[1] != g.shape[0]:
        raise InputError(
            f"sketch has {s_dense.shape[1]} columns, Gram has {g.shape[0]} points"
        )
    k_sk = g @ s_dense.T
    return k_sk, s_dense @ k_sk


def check_satisfiability(
    sk: SketchMatrix,
    dec: SpectralDecomposition,
    d_n: int,
    delta_sq: float,
    c: float,
    sgs: np.ndarray | None = None,
) -> SpectralReport:
    """Spectral-norm test of the sketch against the top/tail eigenspaces.

    Satisfiable iff ``||(S U1)^T S U1 - I|| <= 1/2`` and
    ``||S U2 D2^(1/2)|| <= c * delta_n``, both in operator norm.  The tail
    vectors U2 are never formed: ``S U2 D2 U2^T S^T`` is
    ``S (G_k / n) S^T - (S U1) D1 (S U1)^T``, whose cancellation costs about
    n * eps relative since delta_n^2 is at least of order 1/n.  ``sgs`` is
    S G_k S^T from :func:`sketched_gram` when already formed.
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
        if sgs is None:
            sgs = sketched_gram(sk, dec.gram)[1]
        tail = sgs / n - (su1 * dec.mu[:d_n]) @ su1.T
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
    sym = whitened + whitened.T
    sym *= 0.5  # in place: two k x k arrays at once, not three
    return sym


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
