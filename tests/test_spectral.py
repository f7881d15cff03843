import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opbounds import _blas
from opbounds.errors import DegenerateInputError, InputError, NotPsdError, NumericError
from opbounds.kernels import PSD_TOL
from opbounds.sketching import SketchMatrix, SketchSpec, make_p_sparsified
from opbounds.spectral import (
    PENCIL_NULL_TOL,
    _pencil_basis,
    _top_eigenpair,
    _whiten,
    check_satisfiability,
    critical_radius,
    eigendecompose_scaled_gram,
    pencil_max,
    statistical_dimension,
)
from oracles import psi_value, satisfiability_norms, scaled_gram_eigh


def random_psd(k, rng, jitter=0.0):
    b = rng.standard_normal((k, k))
    return b @ b.T + jitter * np.eye(k)


# --- eigendecomposition -----------------------------------------------------

def test_eigendecompose_identity():
    n = 6
    dec = eigendecompose_scaled_gram(np.eye(n), n)
    assert np.allclose(dec.mu, 1.0 / n)


def test_eigendecompose_rank_one():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(5)
    dec = eigendecompose_scaled_gram(np.outer(v, v), 5)
    assert dec.mu[0] == pytest.approx(v @ v / 5, rel=1e-12)
    assert np.all(dec.mu[1:] <= 1e-12)


def test_eigendecompose_reconstructs():
    rng = np.random.default_rng(1)
    g = random_psd(6, rng)
    dec = eigendecompose_scaled_gram(g, 6)
    u = dec.top_vectors(6)
    recon = u @ np.diag(dec.mu) @ u.T
    assert np.abs(recon - g / 6).max() <= 1e-10
    assert np.all(np.diff(dec.mu) <= 0)


def test_eigendecompose_rejects_non_psd():
    with pytest.raises(NotPsdError):
        eigendecompose_scaled_gram(np.diag([1.0, -1.0]), 2)
    with pytest.raises(InputError):
        eigendecompose_scaled_gram(np.array([[1.0, 0.5], [0.2, 1.0]]), 2)


def test_eigendecompose_peak_memory_and_symmetry_check():
    # the symmetry check holds one n x n temporary at a time, and it is freed
    # before the tridiagonal reduction overwrites its one n x n working copy,
    # so the peak above the input is about that copy alone
    from opbounds.kernels import ScalarKernelSpec, gram_scalar

    n = 400
    x = np.random.default_rng(5).uniform(-1, 1, (n, 3))
    g = gram_scalar(ScalarKernelSpec("matern", 0.5, smoothness=1.5, dimension=3), x)
    _blas.lapack()  # the import of scipy's LAPACK is no part of the peak
    tracemalloc.start()
    try:
        eigendecompose_scaled_gram(g, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n * n * 8
    g[0, 1] += 1e-9
    with pytest.raises(InputError, match="not symmetric"):
        eigendecompose_scaled_gram(g, n)
    # the tolerance scales with max |g|, here a negative entry
    for off, error in [(5e-11, InputError), (5e-12, NotPsdError)]:
        with pytest.raises(error):
            eigendecompose_scaled_gram(np.array([[-10.0, 0.0], [off, 1.0]]), 2)


@st.composite
def kernel_grams(draw):
    """Gaussian or Matern Grams of random points, some of them repeated."""
    from opbounds.kernels import ScalarKernelSpec, gram_scalar

    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1, 1, (n, 2))
    x[: draw(st.integers(0, n // 2))] = x[0]
    spec = draw(st.sampled_from([
        ScalarKernelSpec("gaussian", 2.0, dimension=2),
        ScalarKernelSpec("matern", 0.5, smoothness=1.5, dimension=2),
    ]))
    return gram_scalar(spec, x)


#: Relative eigengap (to mu_1) above which a top-k subspace is compared.
_GAP = 1e-4


def _check_against_dense_eigh(g):
    """Eigenvalues, top-k eigenpairs and top-k subspaces (where an eigengap
    exists) of the tridiagonal form against a dense eigh."""
    n = g.shape[0]
    dec = eigendecompose_scaled_gram(g, n)
    mu, u = scaled_gram_eigh(g, n)
    scale = max(mu[0], 1e-300)
    assert np.all(np.diff(dec.mu) <= 0) and np.all(dec.mu >= 0)
    assert np.abs(dec.mu - np.maximum(mu, 0.0)).max() <= 1e-12 * scale
    for k in sorted({1, n // 2, n} - {0}):
        top = dec.top_vectors(k)
        assert top.shape == (n, k)
        assert np.abs(top.T @ top - np.eye(k)).max() <= 1e-10
        # eigenpair residuals hold with or without a gap
        resid = g @ top - top * (n * dec.mu[:k])
        assert np.abs(resid).max() <= 1e-10 * n * scale
        if k == n or mu[k - 1] - mu[k] > _GAP * scale:
            want = u[:, :k]
            assert np.abs(top @ top.T - want @ want.T).max() <= 1e-8
    return dec


@settings(max_examples=200, deadline=None)
@given(kernel_grams())
def test_decomposition_matches_dense_eigh(g):
    _check_against_dense_eigh(g)


def test_decomposition_checks_its_gram():
    with pytest.raises(NotPsdError):
        eigendecompose_scaled_gram(np.diag([1.0, -1.0]), 2)
    with pytest.raises(InputError, match="non-finite"):
        eigendecompose_scaled_gram(np.array([[1.0, np.nan], [np.nan, 1.0]]), 2)
    with pytest.raises(InputError, match="square"):
        eigendecompose_scaled_gram(np.ones((2, 3)), 2)
    dec = eigendecompose_scaled_gram(np.eye(3), 3)
    for k in (0, 4):
        with pytest.raises(InputError, match="outside"):
            dec.top_vectors(k)


@pytest.mark.parametrize("routine", ["dsytrd", "dsterf", "dstebz", "dstein", "dormqr", "dptsv"])
def test_lapack_failure_is_a_numeric_error(routine, monkeypatch):
    # a LAPACK routine reports failure through its trailing info, which the
    # library turns into a typed error instead of returning its output
    lapack = _blas.lapack()
    real = getattr(lapack, routine)

    def failing(*args, **kwargs):
        *out, _ = real(*args, **kwargs)
        return (*out, 1)

    g = random_psd(6, np.random.default_rng(0), jitter=0.1)
    monkeypatch.setattr(lapack, routine, failing)
    with pytest.raises(NumericError, match=routine):
        dec = eigendecompose_scaled_gram(g, 6)
        dec.top_vectors(2)
        dec.ridge_solve([1.0], 0.5, np.ones((6, 1)))


# --- critical radius ---------------------------------------------------------

def test_critical_radius_all_zero():
    assert critical_radius(np.zeros(8)) == 0.0


def test_critical_radius_constant_spectrum():
    # for delta^2 >= mu the condition is sqrt(mu) <= delta^2, so delta^2 = sqrt(mu)
    for n in (2, 17, 200):
        mu = np.full(n, 0.01)
        assert critical_radius(mu) == pytest.approx(0.1, abs=1e-9)


def grid_scan_radius(mu, resolution=1e-6):
    hi = max(1.0, float(np.sqrt(mu[0])))
    deltas = np.arange(resolution, hi + resolution, resolution)
    psis = np.sqrt(np.minimum(deltas[:, None] ** 2, mu[None, :]).mean(axis=1))
    ok = psis <= deltas**2
    return float(deltas[np.argmax(ok)] ** 2)


def test_critical_radius_matches_grid_scan():
    mu = 0.5 * 2.0 ** (-np.arange(32, dtype=float))
    fast = critical_radius(mu)
    slow = grid_scan_radius(mu)
    assert fast == pytest.approx(slow, abs=5e-6)


@pytest.mark.parametrize("seed", range(30))
def test_critical_radius_boundary_and_minimality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    mu = np.sort(rng.uniform(1e-4, 2.0, n))[::-1]
    if seed % 3 == 0:
        mu = mu * rng.uniform(0.5, 1.5) ** np.arange(n)  # mixed decay
        mu = np.sort(np.abs(mu))[::-1]
    d_sq = critical_radius(mu)
    delta = np.sqrt(d_sq)
    assert psi_value(delta, mu) <= d_sq
    if delta > 1e-8:
        probe = delta - 1e-8
        assert psi_value(probe, mu) > probe**2


# --- statistical dimension ---------------------------------------------------

def test_statistical_dimension_examples():
    mu = np.array([0.5, 0.3, 0.05])
    assert statistical_dimension(mu, 0.1) == 3
    assert statistical_dimension(mu, 0.6) == 1
    assert statistical_dimension(mu, 0.01) == 3  # no eigenvalue below -> n


def test_statistical_dimension_monotone():
    rng = np.random.default_rng(4)
    mu = np.sort(rng.uniform(0, 1, 20))[::-1]
    dims = [statistical_dimension(mu, d) for d in np.linspace(0, 1.2, 25)]
    assert all(b <= a for a, b in zip(dims, dims[1:]))


# --- satisfiability ----------------------------------------------------------

def _spectral_setup(seed, n=24):
    rng = np.random.default_rng(seed)
    g = random_psd(n, rng)
    dec = eigendecompose_scaled_gram(g, n)
    d_sq = critical_radius(dec.mu)
    d_n = statistical_dimension(dec.mu, d_sq)
    return dec, d_sq, d_n


def test_satisfiability_identity_sketch():
    dec, d_sq, d_n = _spectral_setup(0)
    n = dec.size
    sk = SketchMatrix(matrix=np.eye(n))
    rep = check_satisfiability(sk, dec, d_n, d_sq, c=1.0)
    assert rep.norm1 <= 1e-10
    # tail norm is sqrt(mu_{d_n+1}) <= delta_n because mu_{d_n} <= delta_n^2
    assert rep.norm2 <= np.sqrt(d_sq) + 1e-12
    assert rep.satisfiable


def test_satisfiability_zero_sketch():
    dec, d_sq, d_n = _spectral_setup(1)
    n = dec.size
    sk = SketchMatrix(matrix=np.zeros((4, n)))
    rep = check_satisfiability(sk, dec, d_n, d_sq, c=10.0)
    assert rep.norm1 == pytest.approx(1.0)
    assert not rep.satisfiable


def test_satisfiability_verdict_is_pure_function():
    dec, d_sq, d_n = _spectral_setup(2)
    n = dec.size
    sk = make_p_sparsified(SketchSpec(s=n, n=n, p=1.0, seed=0))
    rep = check_satisfiability(sk, dec, d_n, d_sq, c=5.0)
    expected = rep.norm1 <= 0.5 and rep.norm2 <= 5.0 * np.sqrt(d_sq)
    assert rep.satisfiable == expected


def test_satisfiability_rejects_bad_dn():
    dec, d_sq, _ = _spectral_setup(3)
    sk = SketchMatrix(matrix=np.eye(dec.size))
    with pytest.raises(InputError):
        check_satisfiability(sk, dec, 0, d_sq, c=1.0)
    with pytest.raises(InputError):
        check_satisfiability(sk, dec, dec.size + 1, d_sq, c=1.0)


def test_satisfiability_dn_equals_n():
    # flat spectrum scaled so no eigenvalue falls below delta^2
    n = 12
    g = 4.0 * n * np.eye(n)  # mu = 4 each; delta^2 = 2 < 4 -> d_n = n
    dec = eigendecompose_scaled_gram(g, n)
    d_sq = critical_radius(dec.mu)
    d_n = statistical_dimension(dec.mu, d_sq)
    assert d_n == n
    sk = SketchMatrix(matrix=np.eye(n))
    rep = check_satisfiability(sk, dec, d_n, d_sq, c=1.0)
    assert rep.norm2 == 0.0
    assert rep.satisfiable


def _check_report_against_dense(g, sk, c):
    """The satisfiability report of the tridiagonal form against the norms of
    the full eigenvector matrix: norm1 and norm2 where the top-d_n subspace
    has an eigengap, the verdict where neither norm is near its threshold."""
    n = g.shape[0]
    dec = eigendecompose_scaled_gram(g, n)
    d_sq = critical_radius(dec.mu)
    d_n = statistical_dimension(dec.mu, d_sq)
    rep = check_satisfiability(sk, dec, d_n, d_sq, c)
    norm1, norm2 = satisfiability_norms(sk.matrix, g, n, d_n)
    mu = dec.mu
    s_sq = max(float(np.linalg.norm(sk.matrix, 2)) ** 2, 1.0)
    tol1 = 1e-8 * s_sq
    tol2_sq = 1e-8 * s_sq * max(mu[0], 1e-300)
    if d_n == n or mu[d_n - 1] - mu[d_n] > _GAP * mu[0]:
        assert abs(rep.norm1 - norm1) <= tol1
        assert abs(rep.norm2**2 - norm2**2) <= tol2_sq
        threshold2 = c * np.sqrt(d_sq)
        if abs(norm1 - 0.5) > tol1 and abs(norm2**2 - threshold2**2) > tol2_sq:
            assert rep.satisfiable == (norm1 <= 0.5 and norm2 <= threshold2)
    if d_n == n:
        assert rep.norm2 == 0.0
    return rep


@pytest.mark.filterwarnings("ignore:sketch has more rows")
@settings(max_examples=150, deadline=None)
@given(
    g=kernel_grams(),
    s=st.integers(1, 50),
    p=st.sampled_from([0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_satisfiability_matches_full_eigenvectors(g, s, p, seed):
    n = g.shape[0]
    sk = make_p_sparsified(SketchSpec(s=s, n=n, p=p, dist="gaussian", seed=seed))
    _check_report_against_dense(g, sk, c=2.0)


def _degenerate_gram(case):
    from opbounds.kernels import ScalarKernelSpec, gram_scalar

    rng = np.random.default_rng(11)
    spec = ScalarKernelSpec("matern", 0.5, smoothness=1.5, dimension=2)
    if case == "near-identity":
        # one tight cluster of eigenvalues 4, above delta^2 = 1, so d_n = n
        b = rng.standard_normal((12, 12))
        return 4.0 * 12 * (np.eye(12) + 1e-10 * (b + b.T))
    n = {"n=1": 1, "n=2": 2, "s>n": 15}.get(case, 5)
    x = rng.uniform(-1, 1, (n, 2))
    if case == "duplicate points":
        x = np.repeat(x, 4, axis=0)
    return gram_scalar(spec, x)


@pytest.mark.filterwarnings("ignore:sketch has more rows")
@pytest.mark.parametrize("case", ["n=1", "n=2", "duplicate points", "near-identity", "s>n"])
def test_tridiagonal_form_degenerate_inputs(case):
    g = _degenerate_gram(case)
    n = g.shape[0]
    dec = _check_against_dense_eigh(g)
    s = n + 7 if case == "s>n" else max(n // 2, 1)
    sk = make_p_sparsified(SketchSpec(s=s, n=n, p=1.0, dist="gaussian", seed=3))
    rep = _check_report_against_dense(g, sk, c=2.0)
    assert (rep.d_n == n) == (case in ("n=1", "near-identity"))
    # one ridge solve per column scale, against the dense solve
    rhs = np.random.default_rng(2).standard_normal((n, 2))
    got = dec.ridge_solve([0.5, 2.0], 0.1, rhs)
    for j, scale in enumerate([0.5, 2.0]):
        want = np.linalg.solve(scale * g + 0.1 * np.eye(n), rhs[:, j])
        assert np.abs(got[:, j] - want).max() <= 1e-9 * np.abs(want).max()


# --- pencil ------------------------------------------------------------------

def test_pencil_trivial_cases():
    rng = np.random.default_rng(5)
    g = random_psd(5, rng, jitter=0.1)
    assert pencil_max(g, g) == pytest.approx(1.0, abs=1e-12)
    assert pencil_max(4.0 * g, g) == pytest.approx(4.0, rel=1e-12)


def rayleigh_oracle(g_top, g_bottom, n_samples, rng, refine_iters=200):
    """Sampled Rayleigh quotients plus an independently refined supremum via
    inverse power iteration on the pencil."""
    k = g_top.shape[0]
    vecs = rng.standard_normal((n_samples, k))
    num = np.einsum("ij,jk,ik->i", vecs, g_top, vecs)
    den = np.einsum("ij,jk,ik->i", vecs, g_bottom, vecs)
    quotients = num / den
    a = vecs[np.argmax(quotients)]
    for _ in range(refine_iters):
        a = np.linalg.solve(g_bottom, g_top @ a)
        a /= np.linalg.norm(a)
    best = (a @ g_top @ a) / (a @ g_bottom @ a)
    return quotients, best


@pytest.mark.parametrize("seed", range(5))
def test_pencil_dominates_sampled_quotients(seed):
    rng = np.random.default_rng(seed)
    g_top = random_psd(5, rng)
    g_bottom = random_psd(5, rng, jitter=0.5)
    rho = pencil_max(g_top, g_bottom)
    quotients, best = rayleigh_oracle(g_top, g_bottom, 10_000, rng)
    assert np.all(quotients <= rho * (1 + 1e-9))
    assert rho == pytest.approx(best, abs=1e-6)


def test_pencil_congruence_invariance():
    rng = np.random.default_rng(9)
    for _ in range(10):
        g_top = random_psd(4, rng)
        g_bottom = random_psd(4, rng, jitter=0.3)
        a = rng.standard_normal((4, 4)) + 0.5 * np.eye(4)
        before = pencil_max(g_top, g_bottom)
        after = pencil_max(a.T @ g_top @ a, a.T @ g_bottom @ a)
        assert after == pytest.approx(before, rel=1e-8)


def test_pencil_handles_singular_bottom():
    rng = np.random.default_rng(10)
    b = rng.standard_normal((4, 2))
    g_bottom = b @ b.T  # rank 2
    g_top = random_psd(4, rng)
    rho = pencil_max(g_top, g_bottom)
    # oracle restricted to range(G_bottom)
    vecs = (g_bottom @ rng.standard_normal((4, 3000))).T
    num = np.einsum("ij,jk,ik->i", vecs, g_top, vecs)
    den = np.einsum("ij,jk,ik->i", vecs, g_bottom, vecs)
    assert np.all(num / den <= rho * (1 + 1e-9))


def test_pencil_zero_bottom_errors():
    with pytest.raises(DegenerateInputError):
        pencil_max(np.eye(3), np.zeros((3, 3)))


def two_copy_pencil_max(g_top, g_bottom):
    """pencil_max as written before the whitening routine was shared."""
    top = np.asarray(g_top, dtype=float)
    bot = np.asarray(g_bottom, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (bot + bot.T))
    lam_max = vals[-1] if vals.size else 0.0
    if lam_max <= 0.0:
        raise DegenerateInputError("pencil bottom matrix is identically zero")
    if vals[0] < -PSD_TOL * max(lam_max, 1.0):
        raise NotPsdError(f"pencil bottom matrix has eigenvalue {vals[0]}")
    top_vals = np.linalg.eigvalsh(0.5 * (top + top.T))
    if top_vals.size and top_vals[0] < -PSD_TOL * max(abs(top_vals[-1]), 1.0):
        raise NotPsdError(f"pencil top matrix has eigenvalue {top_vals[0]}")
    keep = vals > PENCIL_NULL_TOL * lam_max
    basis = vecs[:, keep] / np.sqrt(vals[keep])[None, :]
    whitened = basis.T @ top @ basis
    w_vals = np.linalg.eigvalsh(0.5 * (whitened + whitened.T))
    return float(max(w_vals[-1], 0.0)) if w_vals.size else 0.0


def two_copy_pencil_max_with_vector(g_top, g_bottom):
    """The derivative-side copy of the whitening code, as it was."""
    top = np.asarray(g_top, dtype=float)
    bot = np.asarray(g_bottom, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (bot + bot.T))
    lam_max = vals[-1] if vals.size else 0.0
    if lam_max <= 0.0:
        raise DegenerateInputError("pencil bottom matrix is identically zero")
    keep = vals > PENCIL_NULL_TOL * lam_max
    basis = vecs[:, keep] / np.sqrt(vals[keep])[None, :]
    whitened = basis.T @ top @ basis
    w_vals, w_vecs = np.linalg.eigh(0.5 * (whitened + whitened.T))
    rho = float(max(w_vals[-1], 0.0))
    a = basis @ w_vecs[:, -1]
    gap = float(w_vals[-1] - w_vals[-2]) if w_vals.size > 1 else np.inf
    return rho, a, gap


@st.composite
def psd_pairs(draw):
    """(G_top, G_bottom) of size k; G_bottom may be rank-deficient or zero."""
    k = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b_top = rng.standard_normal((k, draw(st.integers(0, k + 1))))
    b_bot = rng.standard_normal((k, draw(st.integers(0, k + 1))))
    scale = 10.0 ** draw(st.integers(-6, 6))
    return b_top @ b_top.T, scale * (b_bot @ b_bot.T)


@settings(max_examples=300, deadline=None)
@given(psd_pairs())
def test_shared_whitening_matches_two_copies(pair):
    g_top, g_bottom = pair
    if not np.any(g_bottom):
        with pytest.raises(DegenerateInputError):
            pencil_max(g_top, g_bottom)
        with pytest.raises(DegenerateInputError):
            _pencil_basis(g_bottom)
        return
    assert pencil_max(g_top, g_bottom) == two_copy_pencil_max(g_top, g_bottom)
    basis = _pencil_basis(g_bottom)
    rho, a, _, gap = _top_eigenpair(_whiten(g_top, basis), basis)
    ref_rho, ref_a, ref_gap = two_copy_pencil_max_with_vector(g_top, g_bottom)
    assert rho == ref_rho and gap == ref_gap
    assert np.array_equal(a, ref_a)


def test_pencil_top_must_be_psd():
    with pytest.raises(NotPsdError):
        pencil_max(-np.eye(3), np.eye(3))
