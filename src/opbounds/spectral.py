"""Spectra of scaled Gram matrices: critical radius, statistical dimension,
sketch satisfiability, and the whitening of a symmetric pencil on which the
deep objective evaluates its transfer-product norm.  The whitened pencil's
top eigenvalue rho comes from one ``eigvalsh``; its top eigenvector, which
the deep gradient needs, from inverse iteration shifted at rho
(``_top_eigenvector``), with ``eigh`` only where that gives none.

The critical radius delta_n^2 is the minimal delta^2 >= 0 with

    psi(delta) = ((1/n) * sum_i min(delta^2, mu_i))^(1/2) <= delta^2,

where mu are the eigenvalues of G_k / n.  Since psi(delta)/delta is
nonincreasing while delta is increasing, the satisfying set is an interval
[delta*, inf) and bisection on delta is exact.  The statistical dimension
d_n is the first index j with mu_j <= delta_n^2; a ``SpectralDecomposition``
carries both, which ``check_satisfiability`` reads.  By the trace identity
n psi(delta)^2 = tr(G_k) / n - sum_{mu_i > delta^2} (mu_i - delta^2), the
bisection needs only tr(G_k) and the eigenvalues above delta^2.  So a Gram of
more than N_DENSE points yields just its top k eigenpairs, to Lanczos with
full reorthogonalization (Golub & Van Loan, *Matrix Computations*, sec.
10.3), and its ridge solves run conjugate gradients deflated by the top 2k
Ritz vectors of the last Lanczos run, the k eigenvectors among them (Saad,
Yeung, Erhel & Guyomarc'h 2000, *A deflated version of the conjugate
gradient algorithm*): the Krylov space already built removes more of the
spectrum from the CG than the eigenvectors alone, for one (2k x n) G
product.
Above N_DENSE the n x n Gram is read as few times as possible: its symmetry
is checked by tiles, with no n x n temporary; its CG iterates and deflation
basis are rows, so each product with it has a row-major left operand (the
faster layout of thin GEMMs on OpenBLAS); ``sketched_gram`` forms S G S^T
once for a sketched fit and its satisfiability test; and the O(n^3) PSD
verdict runs only where the Gram's error bound leaves it open.
``kernel_spectrum`` is the one place that assembles a kernel's Gram and
decides, from ``kernels.gram_error_bound``, whether that verdict must run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DegenerateInputError, InputError, NumericError
from .kernels import (
    PSD_TOL, ScalarKernelSpec, finite_matrix, gram_error_bound, gram_scalar, require_psd,
    require_psd_cholesky,
)
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
    """Eigenvalues ``vals`` of the Gram G_k (``gram``, held, not copied) in
    the ascending order of ``np.linalg.eigh``, all n of them or the top ones
    that Lanczos found, and orthonormal vectors as the rows of ``_rows``,
    ascending too: the last ``vals.size`` are the eigenvectors of ``vals``
    (``vecs``); on the Lanczos path the ones before are the next Ritz
    vectors of its last tridiagonal, up to 2 ``vals.size`` rows in all, which
    ``ridge_solve`` deflates by."""

    gram: np.ndarray
    vals: np.ndarray
    _rows: np.ndarray

    @property
    def vecs(self) -> np.ndarray:
        """The eigenvectors of ``vals`` as columns: a view of the last rows of
        ``_rows``, so no second copy is kept."""
        return self._rows[self._rows.shape[0] - self.vals.size :].T

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

    @cached_property
    def d_n(self) -> int:
        """The statistical dimension at the critical radius, at most the
        number of eigenpairs at hand (``eigendecompose_scaled_gram`` stops
        Lanczos only once the smallest of ``mu`` is at or below it)."""
        return statistical_dimension(self.mu, self.delta_sq)

    def top_vectors(self, k: int) -> np.ndarray:
        """Orthonormal eigenvectors of the k largest eigenvalues of G_k as
        columns, in descending eigenvalue order."""
        if not 1 <= k <= self.vals.size:
            raise InputError(f"k={k} outside [1, {self.vals.size}]")
        return self.vecs[:, ::-1][:, :k]

    def ridge_solve(self, scales, shift: float, rhs: np.ndarray) -> tuple[np.ndarray, int]:
        """(x, iterations): column j of x is (scales[j] G_k + shift I)^-1
        rhs[:, j], each matrix positive definite, exact on ``vecs`` when they
        are all n eigenvectors, and else by CG deflated by all the rows of
        ``_rows`` (Saad et al. 2000, Algorithm 3.6) on their complement to a
        relative residual of 1e-13, all columns at once.

        The deflation basis W is the 2k Ritz rows, and one (2k x n) G product
        gives their images; W G W^T, 2k x 2k, is diagonalized once, so each
        coarse system W A_j W^T is solved on 2k-vectors, with no rotated
        n-wide copy of W or G W^T.  The CG runs on rows: each system's
        iterate, residual and direction is a row of an m x n array, so every
        product with G is (m x n) G, a row-major operand on the left.  On one
        OpenBLAS thread at n = 1,500, (3 x n) G took 1.8 ms against 3.1-3.3
        ms for G times the same three columns."""
        g, scales = self.gram, np.asarray(scales, dtype=float)
        if self.vals.size == self.size:
            w = self.vecs
            return w @ ((w.T @ rhs) / (np.outer(self.vals, scales) + shift)), 0
        w = self._rows
        gw = w @ g  # rows (G w_i)^T, G symmetric
        # w G w^T = v diag(theta) v^T, so (w A_j w^T)^-1 = v diag(1 / coarse_j) v^T
        theta, v = np.linalg.eigh(0.5 * (w @ gw.T + gw @ w.T))
        coarse = np.outer(scales, theta) + shift
        scales = scales[:, None]

        def coarse_solve(u):  # row j: (w A_j w^T)^-1 u_j
            return ((u @ v) / coarse) @ v.T

        def deflate(r):  # r_j - (A_j w^T (w A_j w^T)^-1 w)^T r_j for every row j
            return r - coarse_solve((r @ gw.T) * scales + shift * (r @ w.T)) @ w

        b = np.ascontiguousarray(rhs.T)
        y = coarse_solve(b @ w.T)
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
    """The k largest eigenvalues of the symmetric G, ascending, and after J
    steps the top min(J, 2k) Ritz vectors of the last tridiagonal as rows,
    ascending too, so the last k rows are the eigenvectors: Lanczos from a
    seeded random vector (which, unlike a structured one, is orthogonal to
    no eigenvector), every new vector orthogonalized twice against all
    before (so no copies of converged Ritz values arise), restarted from
    another seeded one when an invariant subspace is found, until the top k
    Ritz residuals |beta_j s_ji| are at most 1e-15 max|theta| or the Krylov
    space is all of R^n."""
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
                return theta[-k:], s[:, -min(j + 1, 2 * k) :].T @ q
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
    Lanczos (with the next Ritz vectors, up to twice as many rows), their
    number doubled until the smallest eigenvalue of G_k / n is at or below
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
        vals, rows = _lanczos(g, k)
        if k == top and not slack < PSD_TOL:
            require_psd_cholesky(g, vals[-1] / size, "scaled Gram", float(size))
        dec = SpectralDecomposition(g, vals, rows)
        if dec.mu[-1] <= dec.delta_sq:
            return dec
        k *= 2
    vals, vecs = np.linalg.eigh(g)
    require_psd(vals / float(size), "scaled Gram")
    return SpectralDecomposition(g, vals, vecs.T)


def kernel_spectrum(spec: ScalarKernelSpec, x, top: int) -> SpectralDecomposition:
    """``eigendecompose_scaled_gram`` of the scaled Gram ``gram_scalar(spec,
    x)``, with at least ``top`` eigenpairs, its PSD verdict settled by
    ``gram_error_bound(spec, x)``: a Gaussian or Matern nu = 1.5 or 2.5 Gram
    skips the O(n^3) Cholesky above N_DENSE, any other runs it."""
    return eigendecompose_scaled_gram(gram_scalar(spec, x), top, gram_error_bound(spec, x))


def critical_radius(mu, n: int, tail: float) -> float:
    """Minimal delta^2 with psi(delta) <= delta^2, by bisection on delta, for
    the n eigenvalues of G_k / n whose largest are ``mu``, descending, and
    whose others sum to ``tail``: psi(delta)^2 = (tail + sum_i min(delta^2,
    mu_i)) / n, exact for delta^2 >= min(mu)."""
    mu = np.asarray(mu, dtype=float)
    if mu.size == 0 or mu.max() <= 0.0:
        return 0.0
    if np.any(mu < 0):
        raise InputError("eigenvalues must be nonnegative")
    tail = max(tail, 0.0)
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
    sk: SketchMatrix, dec: SpectralDecomposition, c: float, sgs: np.ndarray
) -> SpectralReport:
    """Spectral-norm test of the sketch against the top/tail eigenspaces of
    ``dec``, split at its statistical dimension ``dec.d_n`` and judged at its
    critical radius ``dec.delta_sq``.

    Satisfiable iff ``||(S U1)^T S U1 - I|| <= 1/2`` and
    ``||S U2 D2^(1/2)|| <= c * delta_n``, both in operator norm.  The tail
    vectors U2 are never formed: ``S U2 D2 U2^T S^T`` is
    ``S (G_k / n) S^T - (S U1) D1 (S U1)^T``, whose cancellation costs about
    n * eps relative since delta_n^2 is at least of order 1/n.  ``sgs`` is
    S G_k S^T from :func:`sketched_gram`, checked to be a finite s x s matrix.
    """
    n, d_n, delta_sq = dec.size, dec.d_n, dec.delta_sq
    s_dense = sk.matrix
    if s_dense.shape[1] != n:
        raise InputError(
            f"sketch has {s_dense.shape[1]} columns, Gram has {n} points"
        )
    sgs = finite_matrix(sgs, "sketched product S G S^T")
    if sgs.shape[0] != s_dense.shape[0]:
        raise InputError(f"S G S^T has shape {sgs.shape} for a sketch of {s_dense.shape[0]} rows")
    su1 = s_dense @ dec.top_vectors(d_n)
    norm1 = float(np.linalg.norm(su1.T @ su1 - np.eye(d_n), 2))
    if d_n < n:
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
    """rho of a whitened top matrix S from _whiten: the largest of its
    ``eigvalsh`` eigenvalues, clipped at 0."""
    w_vals = np.linalg.eigvalsh(s)
    return float(max(w_vals[-1], 0.0)) if w_vals.size else 0.0


#: Slack, relative to ||S||_F, taken off a Rayleigh quotient of S so that it
#: stays below the computed top eigenvalue; the rounding errors of both are
#: ~1e-15 relative.
_RAYLEIGH_SLACK = 1e-9


def _rayleigh_floor(s: np.ndarray, w: np.ndarray) -> float:
    """Lower bound on rho = _top_eigenvalue(s) from a unit vector w: the
    Rayleigh quotient w^T S w, at most the top eigenvalue (Courant-Fischer),
    less _RAYLEIGH_SLACK * ||S||_F; NaN when S is not finite."""
    return float(w @ s @ w) - _RAYLEIGH_SLACK * float(np.linalg.norm(s))


def _top_eigenpair(s: np.ndarray, basis: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """rho of S = _whiten(G_top, basis) from ``eigh``, the maximizing vector
    a = B w (with a^T G_bottom a = 1) and the top unit eigenvector w of S.
    w is a copy, so the eigenvector matrix is freed; a is computed from its
    column, whose layout sets a's last bits."""
    w_vals, w_vecs = np.linalg.eigh(s)
    return float(max(w_vals[-1], 0.0)), basis @ w_vecs[:, -1], w_vecs[:, -1].copy()


#: Residual, relative to ||S||_F, at which ``_top_eigenvector`` accepts an
#: iterate: about 450 u (u = 2^-53), where one LU solve leaves a few k u.
_EIGVEC_RESIDUAL = 1e-13

#: Solves that ``_top_eigenvector`` makes before it gives up.
_EIGVEC_SOLVES = 3


@cache
def _start_vector(k: int) -> np.ndarray:
    """The seeded unit vector of R^k that inverse iteration starts from,
    random as in ``_lanczos`` (so orthogonal to no eigenvector); read-only,
    since it is cached."""
    v = np.random.default_rng(0).standard_normal(k)
    v /= np.linalg.norm(v)
    v.flags.writeable = False
    return v


def _top_eigenvector(s: np.ndarray, rho: float) -> np.ndarray | None:
    """Unit eigenvector of the symmetric k x k S for its top eigenvalue
    rho = ``_top_eigenvalue(s)``, by inverse iteration at that known
    eigenvalue (Parlett 1998, *The Symmetric Eigenvalue Problem*, ch. 4;
    LAPACK's ``dstein``): v <- (S - sigma I)^-1 v, normalized, from
    ``_start_vector(k)``, until ||(S - sigma I) v|| <= ``_EIGVEC_RESIDUAL``
    ||S||_F, at most ``_EIGVEC_SOLVES`` solves.  The shift sigma is rho,
    moved up by u ||S||_F after each solve that LU finds exactly singular
    (rho is then an eigenvalue of the rounded S; ``dstein`` perturbs such
    pivots).  The start is fixed, so v is a function of S alone.  None when
    k = 1, rho is not positive, an iterate is zero or not finite, or none
    meets the bound: the caller then takes ``_top_eigenpair``.

    The solve is nearly singular, which is what makes it work: its solution
    is dominated by the top eigenvector, and one solve usually meets the
    bound.  S is shifted in place and its diagonal restored on return, so no
    k x k array is formed."""
    k = s.shape[0]
    if k < 2 or not rho > 0:
        return None
    norm = float(np.linalg.norm(s))
    diag = s.diagonal().copy()
    s.flat[:: k + 1] -= rho
    try:
        v = _start_vector(k)
        for _ in range(_EIGVEC_SOLVES):
            try:
                v = np.linalg.solve(s, v)
            except np.linalg.LinAlgError:
                s.flat[:: k + 1] -= 2.0**-53 * norm
                continue
            size = float(np.linalg.norm(v))
            if not (np.isfinite(size) and size > 0.0):
                return None
            v /= size
            if float(np.linalg.norm(s @ v)) <= _EIGVEC_RESIDUAL * norm:
                return v
        return None
    finally:
        s.flat[:: k + 1] = diag
