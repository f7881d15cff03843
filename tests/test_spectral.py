import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opbounds import spectral
from opbounds.errors import DegenerateInputError, InputError, NotPsdError, NumericError
from opbounds.kernels import PSD_TOL, require_psd, require_psd_cholesky
from opbounds.sketching import SketchMatrix, SketchSpec, make_p_sparsified
from opbounds.spectral import (
    LANCZOS_START,
    N_DENSE,
    PENCIL_NULL_TOL,
    _pencil_basis,
    _top_eigenpair,
    _whiten,
    check_satisfiability,
    critical_radius,
    eigendecompose_scaled_gram,
    kernel_spectrum,
    sketched_gram,
    statistical_dimension,
)
from oracles import (
    dense_critical_radius,
    dense_ridge_solve,
    pencil_max,
    psi_value,
    ridge_solve_top_deflated,
    satisfiability_norms,
    scaled_gram_eigh,
)


def random_psd(k, rng, jitter=0.0):
    b = rng.standard_normal((k, k))
    return b @ b.T + jitter * np.eye(k)


# --- eigendecomposition -----------------------------------------------------

def test_eigendecompose_identity():
    n = 6
    dec = eigendecompose_scaled_gram(np.eye(n))
    assert np.allclose(dec.mu, 1.0 / n)


def test_eigendecompose_rank_one():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(5)
    dec = eigendecompose_scaled_gram(np.outer(v, v))
    assert dec.mu[0] == pytest.approx(v @ v / 5, rel=1e-12)
    assert np.all(dec.mu[1:] <= 1e-12)


def test_eigendecompose_reconstructs():
    rng = np.random.default_rng(1)
    g = random_psd(6, rng)
    dec = eigendecompose_scaled_gram(g)
    u = dec.top_vectors(6)
    recon = u @ np.diag(dec.mu) @ u.T
    assert np.abs(recon - g / 6).max() <= 1e-10
    assert np.all(np.diff(dec.mu) <= 0)


def test_eigendecompose_rejects_non_psd():
    with pytest.raises(NotPsdError):
        eigendecompose_scaled_gram(np.diag([1.0, -1.0]))
    with pytest.raises(InputError):
        eigendecompose_scaled_gram(np.array([[1.0, 0.5], [0.2, 1.0]]))


def _peak_of(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eigendecompose_peak_memory_and_symmetry_check():
    # the peak above the input is Lanczos growing its row buffer (0.98 n^2
    # at n = 400), freed before the verdict runs: the symmetry check holds
    # one pair of 128 x 128 tiles at a time, and the Cholesky verdict (no
    # slack given, so it runs) the scaled upper triangle in 64-row blocks,
    # about n (n + 64) / 2 numbers, with its 64-row panels
    from opbounds.kernels import ScalarKernelSpec, gram_scalar

    n = 400
    assert n > N_DENSE
    x = np.random.default_rng(5).uniform(-1, 1, (n, 3))
    g = gram_scalar(ScalarKernelSpec("matern", 0.5, smoothness=1.5, dimension=3), x)
    assert _peak_of(lambda: eigendecompose_scaled_gram(g)) <= 1.1 * n * n * 8
    g[0, 1] += 1e-9
    with pytest.raises(InputError, match="not symmetric"):
        eigendecompose_scaled_gram(g)
    # the tolerance scales with max |g|, here a negative entry
    for off, error in [(5e-11, InputError), (5e-12, NotPsdError)]:
        with pytest.raises(error):
            eigendecompose_scaled_gram(np.array([[-10.0, 0.0], [off, 1.0]]))


@st.composite
def one_asymmetric_entry(draw):
    """(g, dense verdict): a symmetric Gram of n points, n not a multiple of
    the symmetry tile, with one entry above the diagonal moved by 0.5 or 2
    times the 1e-12 threshold, in a diagonal tile, an off-diagonal tile or
    the ragged last tile row, and whether the dense |G - G^T| rule rejects
    it."""
    from opbounds.kernels import ScalarKernelSpec, gram_scalar

    t = spectral._SYMMETRY_TILE
    n = draw(st.integers(t + 2, 2 * t + 60).filter(lambda n: n % t > 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 300.0]))
    spec = ScalarKernelSpec("gaussian", 2.0, dimension=2)
    g = scale * gram_scalar(spec, rng.uniform(-1, 1, (n, 2)))
    last = n - n % t  # first row of the ragged last tile
    i, j = {
        "diagonal tile": lambda: (draw(st.integers(0, t - 2)), t - 1),
        "off-diagonal tile": lambda: (draw(st.integers(0, t - 1)), draw(st.integers(t, n - 1))),
        "ragged last tile": lambda: (last, draw(st.integers(last + 1, n - 1))),
    }[draw(st.sampled_from(["diagonal tile", "off-diagonal tile", "ragged last tile"]))]()
    g[i, j] += draw(st.sampled_from([0.5, 2.0])) * 1e-12 * max(1.0, g.max(), -g.min())
    asym = np.abs(g - g.T).max()
    return g, asym > 1e-12 * max(1.0, g.max(), -g.min())


@settings(max_examples=40, deadline=None)
@given(one_asymmetric_entry())
def test_tiled_symmetry_check_is_the_dense_rule(case):
    g, rejected = case
    assert spectral._max_asymmetry(g) == np.abs(g - g.T).max()
    try:
        spectral.eigendecompose_scaled_gram(g)
        assert not rejected
    except InputError as exc:
        assert rejected and "not symmetric" in str(exc)


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
    exists) of the decomposition against a dense eigh."""
    n = g.shape[0]
    dec = eigendecompose_scaled_gram(g)
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
        eigendecompose_scaled_gram(np.diag([1.0, -1.0]))
    with pytest.raises(InputError, match="non-finite"):
        eigendecompose_scaled_gram(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(InputError, match="square"):
        eigendecompose_scaled_gram(np.ones((2, 3)))
    dec = eigendecompose_scaled_gram(np.eye(3))
    for k in (0, 4):
        with pytest.raises(InputError, match="outside"):
            dec.top_vectors(k)


# --- critical radius ---------------------------------------------------------

def test_critical_radius_all_zero():
    assert critical_radius(np.zeros(8), 8, 0.0) == 0.0


def test_critical_radius_constant_spectrum():
    # for delta^2 >= mu the condition is sqrt(mu) <= delta^2, so delta^2 = sqrt(mu)
    for n in (2, 17, 200):
        mu = np.full(n, 0.01)
        assert critical_radius(mu, n, 0.0) == pytest.approx(0.1, abs=1e-9)


def grid_scan_radius(mu, resolution=1e-6):
    hi = max(1.0, float(np.sqrt(mu[0])))
    deltas = np.arange(resolution, hi + resolution, resolution)
    psis = np.sqrt(np.minimum(deltas[:, None] ** 2, mu[None, :]).mean(axis=1))
    ok = psis <= deltas**2
    return float(deltas[np.argmax(ok)] ** 2)


def test_critical_radius_matches_grid_scan():
    mu = 0.5 * 2.0 ** (-np.arange(32, dtype=float))
    fast = critical_radius(mu, mu.size, 0.0)
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
    d_sq = critical_radius(mu, n, 0.0)
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
    return eigendecompose_scaled_gram(random_psd(n, rng))


def _satisfiability(sk, dec, c):
    """``check_satisfiability`` on the S G S^T of the decomposition's Gram."""
    return check_satisfiability(sk, dec, c, sketched_gram(sk, dec.gram)[1])


def test_satisfiability_identity_sketch():
    dec = _spectral_setup(0)
    sk = SketchMatrix(matrix=np.eye(dec.size))
    rep = _satisfiability(sk, dec, c=1.0)
    assert rep.norm1 <= 1e-10
    # tail norm is sqrt(mu_{d_n+1}) <= delta_n because mu_{d_n} <= delta_n^2
    assert rep.norm2 <= np.sqrt(dec.delta_sq) + 1e-12
    assert rep.satisfiable


def test_satisfiability_zero_sketch():
    dec = _spectral_setup(1)
    sk = SketchMatrix(matrix=np.zeros((4, dec.size)))
    rep = _satisfiability(sk, dec, c=10.0)
    assert rep.norm1 == pytest.approx(1.0)
    assert not rep.satisfiable


def test_satisfiability_verdict_is_pure_function():
    dec = _spectral_setup(2)
    n = dec.size
    sk = make_p_sparsified(SketchSpec(s=n, n=n, p=1.0, seed=0))
    rep = _satisfiability(sk, dec, c=5.0)
    expected = rep.norm1 <= 0.5 and rep.norm2 <= 5.0 * np.sqrt(dec.delta_sq)
    assert rep.satisfiable == expected
    assert (rep.delta_sq, rep.d_n) == (dec.delta_sq, dec.d_n)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 5, 12, 24, 300]))
def test_statistical_dimension_of_a_decomposition(seed, n):
    # d_n is the statistical dimension at the critical radius, on a dense
    # decomposition (n <= 24) and on a Lanczos one (n = 300), and its top
    # eigenvectors are at hand
    from opbounds.kernels import ScalarKernelSpec

    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, 2))
    dec = kernel_spectrum(ScalarKernelSpec("gaussian", 2.0, dimension=2), x, LANCZOS_START)
    assert (dec.vals.size == n) == (n <= N_DENSE)
    assert dec.d_n == statistical_dimension(dec.mu, dec.delta_sq)
    assert 1 <= dec.d_n <= dec.vals.size


def test_satisfiability_dn_equals_n():
    # flat spectrum scaled so no eigenvalue falls below delta^2
    n = 12
    g = 4.0 * n * np.eye(n)  # mu = 4 each; delta^2 = 2 < 4 -> d_n = n
    dec = eigendecompose_scaled_gram(g)
    assert dec.d_n == n
    rep = _satisfiability(SketchMatrix(matrix=np.eye(n)), dec, c=1.0)
    assert rep.norm2 == 0.0
    assert rep.satisfiable


def _check_report_against_dense(g, sk, c):
    """The satisfiability report of the decomposition against the norms of
    the full eigenvector matrix: norm1 and norm2 where the top-d_n subspace
    has an eigengap, the verdict where neither norm is near its threshold."""
    n = g.shape[0]
    dec = eigendecompose_scaled_gram(g)
    d_sq, d_n = dec.delta_sq, dec.d_n
    rep = _satisfiability(sk, dec, c)
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
def test_decomposition_degenerate_inputs(case):
    g = _degenerate_gram(case)
    n = g.shape[0]
    dec = _check_against_dense_eigh(g)
    s = n + 7 if case == "s>n" else max(n // 2, 1)
    sk = make_p_sparsified(SketchSpec(s=s, n=n, p=1.0, dist="gaussian", seed=3))
    rep = _check_report_against_dense(g, sk, c=2.0)
    assert (rep.d_n == n) == (case in ("n=1", "near-identity"))
    # one ridge solve per column scale, against the dense solve
    rhs = np.random.default_rng(2).standard_normal((n, 2))
    got, iterations = dec.ridge_solve([0.5, 2.0], 0.1, rhs)
    assert iterations == 0
    for j, scale in enumerate([0.5, 2.0]):
        want = np.linalg.solve(scale * g + 0.1 * np.eye(n), rhs[:, j])
        assert np.abs(got[:, j] - want).max() <= 1e-9 * np.abs(want).max()


# --- the decomposition against a dense reference -----------------------------

@st.composite
def small_grams(draw):
    """Kernel Grams of up to 60 points, some repeated, or one of the
    degenerate Grams."""
    from opbounds.kernels import ScalarKernelSpec, gram_scalar

    case = draw(st.sampled_from(
        ["kernel", "n=1", "n=2", "duplicate points", "near-identity", "s>n"]
    ))
    if case != "kernel":
        return _degenerate_gram(case)
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1, 1, (n, 2))
    x[: draw(st.integers(0, n // 2))] = x[0]
    spec = draw(st.sampled_from([
        ScalarKernelSpec("gaussian", 2.0, dimension=2),
        ScalarKernelSpec("matern", 0.5, smoothness=1.5, dimension=2),
        ScalarKernelSpec("matern", 0.05, smoothness=0.5, dimension=2),
    ]))
    return gram_scalar(spec, x)


def _check_against_dense_reference(g):
    """delta_n^2 and d_n of the decomposition equal those of the whole
    spectrum, and its ridge solves agree with dense ones within 1e-10.  The
    bisection brackets delta in [0, max(1, sqrt(mu_1))], so delta_n^2 is
    bit-equal where mu_1 <= 1 (every Gram of a kernel with kappa = 1) and
    carries the last bits of the eigensolver's mu_1 elsewhere."""
    n = g.shape[0]
    dec = eigendecompose_scaled_gram(g)
    delta_sq = dec.delta_sq
    want_sq, want_dn = dense_critical_radius(g)
    assert dec.d_n == want_dn
    if dec.mu[0] <= 1.0:
        assert delta_sq == want_sq
    else:
        assert delta_sq == pytest.approx(want_sq, rel=1e-14)
    rhs = np.random.default_rng(n).standard_normal((n, 3))
    scales, shift = [0.5, 1.0, 2.0], 0.1 * n
    got, _ = dec.ridge_solve(scales, shift, rhs)
    want = dense_ridge_solve(g, scales, shift, rhs)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    return dec


def _lanczos_path_gram(n):
    """A Matern Gram of n > N_DENSE points, decomposed by Lanczos, so its
    ridge solves run the deflated CG on rows."""
    from opbounds.kernels import ScalarKernelSpec, gram_scalar

    assert n > N_DENSE
    x = np.random.default_rng(n).uniform(-1, 1, (n, 3))
    return gram_scalar(ScalarKernelSpec("matern", 0.5, smoothness=1.5, dimension=3), x)


@settings(max_examples=200, deadline=None)
@given(small_grams())
@example(_lanczos_path_gram(300))  # three right-hand sides, as m = 3 outputs
def test_radius_and_ridge_solve_match_dense_reference(g):
    _check_against_dense_reference(g)


def _clustered_points(n, clusters, d, rng):
    """n points in ``clusters`` tight clusters: a Gram with about
    ``clusters`` eigenvalues near n / clusters and a small rest."""
    centers = rng.uniform(-1, 1, (clusters, d))
    return centers[np.arange(n) % clusters] + 1e-3 * rng.standard_normal((n, d))


_LANCZOS_KINDS = ["gaussian", "matern-1.5", "matern-0.5-clusters"]


def _reference_gram(kind, n):
    """A Gram of n > N_DENSE points, decomposed by Lanczos: a Gaussian or
    Matern nu = 1.5 one on uniform points, or a Matern nu = 0.5 one on 20
    tight clusters."""
    from opbounds.kernels import ScalarKernelSpec, gram_scalar

    assert n > N_DENSE
    rng = np.random.default_rng(n)
    spec, x = {
        "gaussian": (
            ScalarKernelSpec("gaussian", 2.0, dimension=2), lambda: rng.uniform(-1, 1, (n, 2))
        ),
        "matern-1.5": (
            ScalarKernelSpec("matern", 0.5, smoothness=1.5, dimension=3),
            lambda: rng.uniform(-1, 1, (n, 3)),
        ),
        "matern-0.5-clusters": (
            ScalarKernelSpec("matern", 0.05, smoothness=0.5, dimension=2),
            lambda: _clustered_points(n, 20, 2, rng),
        ),
    }[kind]
    return gram_scalar(spec, x())


@pytest.mark.parametrize("n", [300, 600])
@pytest.mark.parametrize("kind", _LANCZOS_KINDS)
def test_lanczos_decomposition_matches_dense_reference(kind, n, monkeypatch):
    # above N_DENSE the top eigenpairs come from Lanczos; at n = 600 the 20
    # clusters give d_n = 21, so the first 16 eigenpairs miss delta_n^2 and k
    # doubles (at n = 300, delta_n^2 lies above the clusters' eigenvalues)
    g = _reference_gram(kind, n)
    lanczos, ks = spectral._lanczos, []

    def counted(a, k):
        ks.append(k)
        return lanczos(a, k)

    monkeypatch.setattr(spectral, "_lanczos", counted)
    dec = _check_against_dense_reference(g)
    assert ks == ([16, 32] if (kind, n) == ("matern-0.5-clusters", 600) else [16])
    assert dec.vals.size == ks[-1] < n
    # the eigenpairs at hand are those of the dense spectrum
    mu, u = scaled_gram_eigh(g, n)
    k = dec.vals.size
    assert np.abs(dec.mu - mu[:k]).max() <= 1e-12 * mu[0]
    top = dec.top_vectors(k)
    assert np.abs(top.T @ top - np.eye(k)).max() <= 1e-10
    assert np.abs(g @ top - top * (n * dec.mu)).max() <= 1e-10 * n * mu[0]
    d_n = dec.d_n
    assert mu[d_n - 1] - mu[d_n] > _GAP * mu[0]
    want = u[:, :d_n]
    assert np.abs(top[:, :d_n] @ top[:, :d_n].T - want @ want.T).max() <= 1e-8
    # the squared fit's ridge systems take CG on the complement
    _, iterations = dec.ridge_solve([1.0], 0.5 * n * 0.01, np.ones((n, 1)))
    assert 0 < iterations < n
    sk = make_p_sparsified(SketchSpec(s=40, n=n, p=0.5, dist="rademacher", seed=1))
    _check_report_against_dense(g, sk, c=2.0)


@pytest.mark.parametrize("lam", [1e-3, 0.1])
@pytest.mark.parametrize(
    "kind, n", [(kind, n) for kind in _LANCZOS_KINDS for n in (300, 600)] + [("gaussian", 1000)]
)
def test_ridge_solve_deflates_by_the_ritz_rows(kind, n, lam):
    # the last Lanczos run's top 2k Ritz vectors are the rows that deflate
    # the CG (k = 32 for the clusters at n = 600, after the doubling), and
    # vecs is a view of their last k; the squared fit's systems at ridge
    # weight lam, with the eigenvalues of a tridiagonal M as scales, match a
    # dense solve and take fewer iterations than a CG deflated by the k
    # eigenvectors alone (at lam = 1e-3 the Gaussian's 25 fall to 10)
    g = _reference_gram(kind, n)
    dec = eigendecompose_scaled_gram(g)
    k = dec.vals.size
    rows = dec._rows
    assert rows.shape == (2 * k, n)
    assert np.shares_memory(dec.vecs, rows) and np.array_equal(dec.vecs, rows[k:].T)
    assert np.abs(rows @ rows.T - np.eye(2 * k)).max() <= 1e-10
    scales = np.linalg.eigvalsh(np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.3], [0.0, 0.3, 1.0]]))
    shift = 0.5 * n * lam
    rhs = np.random.default_rng(n).standard_normal((n, 3))
    got, iterations = dec.ridge_solve(scales, shift, rhs)
    want = dense_ridge_solve(g, scales, shift, rhs)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    _, top_only = ridge_solve_top_deflated(dec, scales, shift, rhs)
    assert 0 < iterations < top_only


@pytest.mark.parametrize("case", ["zero", "identity", "rank one", "two blocks"])
def test_lanczos_restarts_on_invariant_subspaces(case):
    # the all-ones start vector spans an invariant subspace of each of these
    # Grams, or lies in one, so Lanczos breaks down and restarts
    n = N_DENSE + 44
    g = {
        "zero": np.zeros((n, n)),
        "identity": np.eye(n),
        "rank one": np.ones((n, n)),
        "two blocks": np.kron(np.eye(2), np.ones((n // 2, n // 2))),
    }[case]
    dec = _check_against_dense_reference(g)
    assert dec.vals.size == 16
    mu, _ = scaled_gram_eigh(g, n)
    assert np.abs(dec.mu - np.maximum(mu[:16], 0.0)).max() <= 1e-12 * max(mu[0], 1.0)
    top = dec.top_vectors(16)
    assert np.abs(top.T @ top - np.eye(16)).max() <= 1e-10


@st.composite
def psd_verdict_cases(draw):
    """(a, lambda_max): a symmetric matrix of more than N_DENSE rows with
    top eigenvalue lambda_max and smallest eigenvalue outside
    [-2 tau, -tau / 2], tau = PSD_TOL * max(lambda_max, 1)."""
    n = draw(st.integers(N_DENSE + 1, N_DENSE + 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam_max = draw(st.sampled_from([0.5, 4.0, 300.0]))
    tau = PSD_TOL * max(lam_max, 1.0)
    lam_min = draw(st.sampled_from([0.0, 1e-3, -0.4, -2.5, -10.0, -1e6])) * tau
    vals = np.concatenate([[lam_max, lam_min], rng.uniform(0.0, lam_max, n - 2)])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * vals) @ q.T
    return 0.5 * (a + a.T), lam_max


@settings(max_examples=30, deadline=None)
@given(psd_verdict_cases())
def test_cholesky_verdict_equals_eigenvalue_verdict(case):
    a, lam_max = case
    verdicts = []
    for judge in (
        lambda: require_psd(np.linalg.eigvalsh(a), "matrix"),
        lambda: require_psd_cholesky(a, lam_max, "matrix", 1.0),
    ):
        try:
            judge()
            verdicts.append(True)
        except NotPsdError:
            verdicts.append(False)
    assert verdicts[0] == verdicts[1]


def test_cholesky_verdict_holds_half_a_copy_and_leaves_its_input():
    # the verdict copies the scaled upper triangle in 64-row blocks, n (n +
    # 64) / 2 numbers, and drops each once factored; the panel solves
    # overwrite the dead panel chunk by chunk and the Schur update forms one
    # 64-row product at a time, so beyond the blocks it holds at most two
    # 64 x n panels, numpy's ufunc buffers included (0.713 n^2 in all at
    # n = 600).  The input is read, never written.
    n = 600
    b = np.random.default_rng(3).standard_normal((n, n))
    a = b @ b.T / n
    before = a.copy()
    top = float(np.linalg.eigvalsh(a)[-1])
    tracemalloc.start()
    try:
        require_psd_cholesky(a, top, "matrix", 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (n * (n + 64) / 2 + 2 * 64 * n) * 8
    assert np.array_equal(a, before)


@pytest.mark.parametrize("lam_max", [0.5, 4.0])
def test_lanczos_path_has_the_psd_boundary(lam_max):
    # the PSD_SITES boundary of tests/test_matrix_checks.py above N_DENSE:
    # G / n is diag(v) exactly for n a power of 2, and Cholesky is exact on
    # a diagonal
    n = 512
    assert n > N_DENSE
    edge = PSD_TOL * max(lam_max, 1.0)
    rest = np.linspace(0.0, 0.5 * lam_max, n - 2)
    eigendecompose_scaled_gram(n * np.diag([lam_max, -0.9 * edge, *rest]))
    with pytest.raises(NotPsdError):
        eigendecompose_scaled_gram(n * np.diag([lam_max, -1.1 * edge, *rest]))


@pytest.mark.parametrize("lam_min, accepted", [(-3e-8, True), (-3e-6, False)])
def test_lanczos_path_rejudges_with_the_ritz_value(lam_min, accepted):
    # lambda_max(G / n) = 1000, but no diagonal entry of G / n reaches 50, so
    # a verdict with the largest diagonal entry as top (tau below 5e-9)
    # rejects both; the Lanczos path judges with the Ritz value (tau = 1e-7),
    # and there the first passes, as it does by its eigenvalues
    n = 300
    assert n > N_DENSE
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.r_[1000.0, lam_min, rng.uniform(0.0, 0.01, n - 2)]) @ q.T
    g = n * (0.5 * (a + a.T))
    diag_max = float(np.diagonal(g).max()) / n
    assert diag_max < 50
    with pytest.raises(NotPsdError):
        require_psd_cholesky(g, diag_max, "scaled Gram", float(n))
    if accepted:
        require_psd(np.linalg.eigvalsh(a), "scaled Gram")
        eigendecompose_scaled_gram(g)
    else:
        with pytest.raises(NotPsdError):
            eigendecompose_scaled_gram(g)


@pytest.mark.parametrize("slack, judged", [(None, True), (0.99 * PSD_TOL, False), (PSD_TOL, True)])
def test_lanczos_path_judges_once_unless_certified(slack, judged, monkeypatch):
    # the clustered Gram takes two Lanczos runs (k = 16, then 32); the
    # verdict runs once, after the first, with its largest Ritz value as top,
    # and only when the slack does not certify the Gram
    from opbounds.kernels import ScalarKernelSpec, gram_scalar

    n = 600
    x = _clustered_points(n, 20, 2, np.random.default_rng(n))
    g = gram_scalar(ScalarKernelSpec("matern", 0.05, smoothness=0.5, dimension=2), x)
    lanczos, verdict, ritz, tops = spectral._lanczos, spectral.require_psd_cholesky, [], []

    def recorded_lanczos(a, k):
        vals, rows = lanczos(a, k)
        ritz.append(vals[-1])
        return vals, rows

    def recorded_verdict(a, top, name, scale):
        tops.append(top)
        verdict(a, top, name, scale)

    monkeypatch.setattr(spectral, "_lanczos", recorded_lanczos)
    monkeypatch.setattr(spectral, "require_psd_cholesky", recorded_verdict)
    eigendecompose_scaled_gram(g, **({} if slack is None else {"slack": slack}))
    assert len(ritz) == 2
    assert tops == ([ritz[0] / n] if judged else [])


def test_uncertified_shifted_gaussian_gram_is_still_rejected():
    # shifted by 3,000 the squared distances round off by ~1e-8, so the
    # bound declines; the verdict runs and rejects the computed Gram, whose
    # exact value is PSD
    from opbounds.kernels import ScalarKernelSpec, gram_error_bound, gram_scalar

    n = 600
    assert n > N_DENSE
    spec = ScalarKernelSpec("gaussian", 0.5, dimension=3)
    x = np.random.default_rng(7).uniform(-1, 1, (n, 3)) + 3000.0
    g, slack = gram_scalar(spec, x), gram_error_bound(spec, x)
    assert slack >= PSD_TOL
    with pytest.raises(NotPsdError):
        eigendecompose_scaled_gram(g, slack=slack)


@pytest.mark.parametrize("nu, verdicts", [(1.5, 0), (0.5, 1)])
def test_library_fit_pays_the_verdict_only_for_an_uncertified_gram(nu, verdicts, monkeypatch):
    # a library caller fits on kernel_spectrum, so a Matern nu = 1.5 Gram,
    # which gram_error_bound certifies, skips the O(n^3) Cholesky verdict, and
    # a nu = 0.5 Gram, which it does not, runs it once
    from opbounds.erm import FitConfig, fit_full
    from opbounds.kernels import DecomposableKernel, ScalarKernelSpec
    from opbounds.losses import LossSpec

    n = 600
    assert n > N_DENSE
    rng = np.random.default_rng(3)
    x, y = rng.uniform(-1, 1, (n, 3)), rng.standard_normal((n, 2))
    spec = ScalarKernelSpec("matern", 0.5, smoothness=nu, dimension=3)
    kernel = DecomposableKernel(spec, np.eye(2))
    verdict, calls = spectral.require_psd_cholesky, []

    def recorded_verdict(*args):
        calls.append(args)
        verdict(*args)

    monkeypatch.setattr(spectral, "require_psd_cholesky", recorded_verdict)
    fit_full(kernel, y, LossSpec("squared"), FitConfig(lambda_n=0.01),
             kernel_spectrum(spec, x, LANCZOS_START))
    assert len(calls) == verdicts


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
    return rho, basis @ w_vecs[:, -1]


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
    rho, a, _ = _top_eigenpair(_whiten(g_top, basis), basis)
    ref_rho, ref_a = two_copy_pencil_max_with_vector(g_top, g_bottom)
    assert rho == ref_rho
    assert np.array_equal(a, ref_a)


def test_pencil_top_must_be_psd():
    with pytest.raises(NotPsdError):
        pencil_max(-np.eye(3), np.eye(3))


@st.composite
def whitened_spectra(draw):
    """(S, kind): a symmetric k x k S = Q diag(lam) Q^T, k <= 40, with a random
    orthogonal Q and eigenvalues of the kind drawn."""
    k = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(
        ["psd", "rounding", "repeated", "nearly repeated", "rank 1", "zero", "negative"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = rng.uniform(0.0, 1.0, k)
    top = np.argsort(lam)
    if kind == "rounding":  # the whitened G_top's rounding: lam_min ~ -6e-7 lam_max
        lam[top[: k // 2]] = -1e-7 * rng.uniform(0.0, 6.0, k // 2) * lam.max()
    elif kind == "repeated" and k > 1:
        lam[top[-2]] = lam.max()
    elif kind == "nearly repeated" and k > 1:
        lam[top[-2]] = lam.max() * (1.0 - 10.0 ** -draw(st.sampled_from([3, 6, 9, 12, 15])))
    elif kind == "rank 1":
        lam[:] = 0.0
        lam[0] = 1.0
    elif kind == "zero":
        lam[:] = 0.0
    elif kind == "negative":
        lam = -lam
    q = np.linalg.qr(rng.standard_normal((k, k)))[0]
    s = (q * (10.0 ** draw(st.integers(-6, 6)) * lam)) @ q.T
    return 0.5 * (s + s.T), kind


@settings(max_examples=300, deadline=None)
@given(whitened_spectra())
def test_top_eigenvector_is_none_or_meets_its_residual_bound(case):
    # the vector, when there is one, is a unit vector with residual at most
    # 1e-13 ||S||_F at the eigvalsh eigenvalue, and within the gap theorem's
    # bound (Parlett 1998, sec. 11.7) of eigh's: both are eigenvectors up to
    # their residuals, so each lies within sqrt(2) residual / gap of the top
    # eigenvector.  S comes back bit for bit, and there is none for k = 1 or
    # a top eigenvalue that is not positive
    s, kind = case
    vals = np.linalg.eigvalsh(s)
    before = s.copy()
    v = spectral._top_eigenvector(s, float(vals[-1]))
    assert s.tobytes() == before.tobytes()
    if s.shape[0] == 1 or not vals[-1] > 0:
        assert v is None
    if v is None:
        return
    norm = np.linalg.norm(s)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-15 * s.shape[0]
    residual = np.linalg.norm(s @ v - vals[-1] * v)
    assert residual <= 1e-13 * norm
    gap = vals[-1] - vals[-2]
    if gap >= 1e-6 * vals[-1]:
        w_vals, w_vecs = np.linalg.eigh(s)
        u1 = w_vecs[:, -1]
        u_residual = np.linalg.norm(s @ u1 - w_vals[-1] * u1)
        # the computed gap and residuals, each moved by its rounding error
        slack = 2 * s.shape[0] * np.finfo(float).eps * norm
        assert min(np.linalg.norm(v - u1), np.linalg.norm(v + u1)) <= (
            math.sqrt(2.0) * (residual + u_residual + 2 * slack) / (gap - slack)
        )


def test_top_eigenvector_moves_the_shift_off_an_exact_eigenvalue():
    # S - rho I is exactly singular when rho is an eigenvalue of the rounded
    # S (here a diagonal one); the shift moves up by u ||S||_F and the solve
    # that follows finds the vector
    s = np.diag([0.5, 2.0, 1.0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(s - 2.0 * np.eye(3), np.ones(3))
    v = spectral._top_eigenvector(s, float(np.linalg.eigvalsh(s)[-1]))
    assert abs(v[1]) == 1.0 and np.abs(v[[0, 2]]).max() <= 1e-14
