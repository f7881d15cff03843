import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opbounds.errors import DegenerateInputError, InputError, NotPsdError
from opbounds.sketching import SketchMatrix, SketchSpec, make_p_sparsified
from opbounds.spectral import (
    EIG_CLIP,
    PENCIL_NULL_TOL,
    _pencil_basis,
    _top_eigenpair,
    _whiten,
    check_satisfiability,
    critical_radius,
    eigendecompose_scaled_gram,
    pencil_max,
    psi_value,
    statistical_dimension,
)


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
    recon = dec.u @ np.diag(dec.mu) @ dec.u.T
    assert np.abs(recon - g / 6).max() <= 1e-10
    assert np.all(np.diff(dec.mu) <= 0)


def test_eigendecompose_rejects_non_psd():
    with pytest.raises(NotPsdError):
        eigendecompose_scaled_gram(np.diag([1.0, -1.0]), 2)
    with pytest.raises(InputError):
        eigendecompose_scaled_gram(np.array([[1.0, 0.5], [0.2, 1.0]]), 2)


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


@settings(max_examples=200, deadline=None)
@given(kernel_grams())
def test_decomposition_from_gram_eigh_matches_own(g):
    n = g.shape[0]
    own = eigendecompose_scaled_gram(g, n)
    shared = eigendecompose_scaled_gram(g, n, gram_eigh=np.linalg.eigh(g))
    assert np.array_equal(shared.mu, own.mu)
    assert np.array_equal(shared.u, own.u)


def test_decomposition_from_gram_eigh_checks():
    indefinite = np.diag([1.0, -1.0])
    with pytest.raises(NotPsdError):
        eigendecompose_scaled_gram(indefinite, 2, gram_eigh=np.linalg.eigh(indefinite))
    with pytest.raises(InputError, match="eigenpairs"):
        eigendecompose_scaled_gram(np.eye(3), 3, gram_eigh=np.linalg.eigh(np.eye(2)))
    vals, vecs = np.linalg.eigh(np.eye(3))
    with pytest.raises(InputError, match="eigenpairs"):
        eigendecompose_scaled_gram(np.eye(3), 3, gram_eigh=(vals[:2], vecs))


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
    n = dec.u.shape[0]
    sk = SketchMatrix(matrix=np.eye(n))
    rep = check_satisfiability(sk, dec, d_n, d_sq, c=1.0)
    assert rep.norm1 <= 1e-10
    # tail norm is sqrt(mu_{d_n+1}) <= delta_n because mu_{d_n} <= delta_n^2
    assert rep.norm2 <= np.sqrt(d_sq) + 1e-12
    assert rep.satisfiable


def test_satisfiability_zero_sketch():
    dec, d_sq, d_n = _spectral_setup(1)
    n = dec.u.shape[0]
    sk = SketchMatrix(matrix=np.zeros((4, n)))
    rep = check_satisfiability(sk, dec, d_n, d_sq, c=10.0)
    assert rep.norm1 == pytest.approx(1.0)
    assert not rep.satisfiable


def test_satisfiability_verdict_is_pure_function():
    dec, d_sq, d_n = _spectral_setup(2)
    n = dec.u.shape[0]
    sk = make_p_sparsified(SketchSpec(s=n, n=n, p=1.0, seed=0))
    rep = check_satisfiability(sk, dec, d_n, d_sq, c=5.0)
    expected = rep.norm1 <= 0.5 and rep.norm2 <= 5.0 * np.sqrt(d_sq)
    assert rep.satisfiable == expected


def test_satisfiability_rejects_bad_dn():
    dec, d_sq, _ = _spectral_setup(3)
    sk = SketchMatrix(matrix=np.eye(dec.u.shape[0]))
    with pytest.raises(InputError):
        check_satisfiability(sk, dec, 0, d_sq, c=1.0)
    with pytest.raises(InputError):
        check_satisfiability(sk, dec, dec.u.shape[0] + 1, d_sq, c=1.0)


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
    if vals[0] < -EIG_CLIP * max(lam_max, 1.0):
        raise NotPsdError(f"pencil bottom matrix has eigenvalue {vals[0]}")
    top_vals = np.linalg.eigvalsh(0.5 * (top + top.T))
    if top_vals.size and top_vals[0] < -EIG_CLIP * max(abs(top_vals[-1]), 1.0):
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
