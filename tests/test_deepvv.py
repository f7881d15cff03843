import json
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opbounds import cli, deepvv
from opbounds.complexity import ClassMc, McConfig, run_mc, trace_bound
from opbounds.deepvv import (
    PENCIL_NULL_TOL,
    DeepObjective,
    LayeredModel,
    TrainConfig,
    _pencil_basis,
    _whiten,
    default_probes,
    init_layered_model,
    model_from_dict,
    model_to_dict,
    refine_kernel,
    separable_bound,
    train,
)
from opbounds.errors import (
    DegenerateInputError, InputError, NotPsdError, NumericError, RefinementOrderError,
)
from opbounds.kernels import (
    PSD_TOL, KernelExpansion, ScalarKernelSpec, gram_scalar, gram_scalar_cross,
)
from oracles import expansion_norm, forward, pencil_max, train_halving

pytestmark = pytest.mark.filterwarnings("ignore:model has .* layers")


def gauss(d, bw=1.0):
    return ScalarKernelSpec("gaussian", bw, dimension=d)


def make_model(seed, dims=(2, 3, 2), n_anchor=5, bw=1.0, uniform_m=False, m_scale=1.0):
    """Random model mapping R^{dims[0]} through hidden dims to R^{dims[-1]}."""
    rng = np.random.default_rng(seed)
    layers = []
    d_in = dims[0]
    for j, d_out in enumerate(dims[1:]):
        anchors = rng.uniform(-1, 1, (n_anchor, d_in))
        coeffs = 0.3 * rng.standard_normal((n_anchor, d_out))
        if uniform_m:
            m_mat = m_scale * np.eye(d_out)
        else:
            b = rng.standard_normal((d_out, d_out))
            m_mat = b @ b.T + 0.5 * np.eye(d_out)
        layers.append(KernelExpansion(gauss(d_in, bw), m_mat, anchors, coeffs))
        d_in = d_out
    return LayeredModel(tuple(layers))


# one-shot evaluations at a model's own coefficients, each from a fresh
# objective; the model-rebuilding training reference below is made of them


def at_model(model, x, y):
    """A fresh objective of the model on labels y and its pass at the model's
    coefficients.  Its probes are ``default_probes(y)``, which is y when no
    row of y is zero, so labels stand in for nonzero probes."""
    obj = DeepObjective(model, x, y)
    return obj, obj.forward(model.coeffs)


def objective(model, x, y, lam1, lam2):
    obj, fwd = at_model(model, x, y)
    return sum(obj.terms(fwd, lam1, lam2))


def pf_norm(model, x, probes):
    obj, fwd = at_model(model, x, probes)
    return obj.pf_norm(fwd)


def pf_bound(model, x, probes):
    obj, fwd = at_model(model, x, probes)
    return obj.pf_bound(fwd)


def gradient(model, x, y, lam1, lam2, mode):
    obj, fwd = at_model(model, x, y)
    return obj.gradient(fwd, lam1, lam2, mode)


def top_norm(model):
    return expansion_norm(model.layers[-1])


def outputs(model, x):
    """The model's outputs on x: the last level of the library's pass at its
    coefficients."""
    return at_model(model, x, np.ones((len(x), model.output_dim)))[1].levels[-1]


# --- forward -------------------------------------------------------------------

def test_forward_zero_coeffs():
    model = make_model(0)
    zeroed = model.with_coeffs([np.zeros_like(l.coeffs) for l in model.layers])
    out = outputs(zeroed, np.zeros((3, 2)))
    assert np.array_equal(out, np.zeros((3, 2)))


def test_forward_linear_in_top_coeffs():
    model = make_model(1)
    x = np.random.default_rng(2).uniform(-1, 1, (4, 2))
    doubled = model.with_coeffs(
        [l.coeffs if j < model.depth - 1 else 2.0 * l.coeffs
         for j, l in enumerate(model.layers)]
    )
    assert np.allclose(outputs(doubled, x), 2.0 * outputs(model, x), atol=1e-12)


def test_forward_middle_interpolation_identity():
    # three layers; the middle layer is fitted to act as the identity on its
    # anchor set, so at anchors the composition equals the top layer applied
    # to the first-layer outputs
    rng = np.random.default_rng(3)
    n = 5
    x = rng.uniform(-1, 1, (n, 2))
    first = KernelExpansion(gauss(2), np.eye(2), x, 0.4 * rng.standard_normal((n, 2)))
    u = first.at(x)
    g_mid = gram_scalar(gauss(2, 2.0), u)
    interp_coeffs = np.linalg.solve(g_mid, u)  # K C = U with M = I
    middle = KernelExpansion(gauss(2, 2.0), np.eye(2), u, interp_coeffs)
    top = KernelExpansion(gauss(2, 0.7), np.eye(2), u, 0.5 * rng.standard_normal((n, 2)))
    model = LayeredModel((first, middle, top))
    direct = top.at(first.at(x))
    assert np.allclose(outputs(model, x), direct, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10), depth=st.integers(1, 4))
def test_forward_grams_are_the_checked_cross_grams(seed, n, depth):
    # the pass builds the later layers' cross Grams without as_points, from
    # anchor norms computed once; they equal the checked ones bit for bit
    model = make_model(seed % 1000, dims=(2,) * (depth + 1), n_anchor=4)
    x = np.random.default_rng(seed).uniform(-1, 1, (n, 2))
    fwd = at_model(model, x, np.ones((n, 2)))[1]
    assert np.array_equal(fwd.levels[-1], forward(model, x))
    for layer, u, kmat in zip(model.layers, fwd.levels, fwd.kmats):
        assert np.array_equal(kmat, gram_scalar_cross(layer.kernel, u, layer.anchors))


def test_forward_rejects_non_finite_and_overflowing_levels():
    # a level the pass computes keeps the errors of the checked Gram: a
    # non-finite entry is an InputError, a distance overflow a NumericError
    model = make_model(4)
    x = np.random.default_rng(5).uniform(-1, 1, (3, 2))
    obj = DeepObjective(model, x, np.ones((3, 2)))
    first = model.coeffs[0]
    assert np.abs(model.layers[1].anchors).max() > 0.5
    # the first level at 0.9 times the largest float: finite, but 2 d |u| |z|
    # overflows against the second layer's anchors
    huge = 0.9 * np.finfo(float).max / np.abs(obj.forward(model.coeffs).levels[1]).max()
    for c, error, match in [(np.full_like(first, np.inf), InputError, "non-finite"),
                            (huge * first, NumericError, "overflow")]:
        with pytest.raises(error, match=match), np.errstate(over="ignore", invalid="ignore"):
            obj.forward([c, *model.coeffs[1:]])


# --- transfer-product norm -------------------------------------------------------

def test_pf_norm_identity_map_equal_kernels():
    # single layer: the composition h is empty (identity), top kernel equals
    # the bottom kernel, so the restricted product norm is exactly 1
    rng = np.random.default_rng(4)
    n = 5
    x = rng.uniform(-1, 1, (n, 2))
    lay = KernelExpansion(gauss(2), np.eye(2), x, 0.3 * rng.standard_normal((n, 2)))
    model = LayeredModel((lay,))
    probes = rng.standard_normal((n, 2))
    assert pf_norm(model, x, probes) == pytest.approx(1.0, abs=1e-12)


def test_pf_norm_scaled_kernel():
    # K_top = 4 K_bottom via output matrix 4I on the last layer
    rng = np.random.default_rng(5)
    n = 4
    x = rng.uniform(-1, 1, (n, 2))
    lay = KernelExpansion(gauss(2), 4.0 * np.eye(2), x, np.zeros((n, 2)))
    model = LayeredModel((lay,))
    probes = rng.standard_normal((n, 2))
    # both Grams use the output bilinear form; scaling the scalar kernel
    # instead isolates the pencil scaling
    g_bot = gram_scalar(gauss(2), x) * (probes @ (4.0 * np.eye(2)) @ probes.T)
    assert pf_norm(model, x, probes) == pytest.approx(1.0, abs=1e-12)
    assert math.sqrt(pencil_max(4.0 * g_bot, g_bot)) == pytest.approx(2.0, rel=1e-12)


def test_pf_norm_dominates_sampled_rayleigh():
    rng = np.random.default_rng(6)
    n = 5
    x = rng.uniform(-1, 1, (n, 2))
    model = make_model(7, dims=(2, 3, 2), n_anchor=n)
    probes = rng.standard_normal((n, 2))
    rho = pf_norm(model, x, probes) ** 2
    first, last = model.layers[0], model.layers[-1]
    bilinear = probes @ last.output @ probes.T
    g_bot = gram_scalar(first.kernel, x) * bilinear
    mids = x
    for lay in model.layers[:-1]:
        mids = lay.at(mids)
    g_top = gram_scalar(last.kernel, mids) * bilinear
    vecs = rng.standard_normal((10_000, n))
    num = np.einsum("ij,jk,ik->i", vecs, g_top, vecs)
    den = np.einsum("ij,jk,ik->i", vecs, g_bot, vecs)
    assert np.all(num / den <= rho * (1 + 1e-9))


def test_pf_norm_invariant_under_reindexing():
    rng = np.random.default_rng(8)
    n = 6
    x = rng.uniform(-1, 1, (n, 2))
    model = make_model(9, dims=(2, 2, 2), n_anchor=4)
    probes = rng.standard_normal((n, 2))
    perm = rng.permutation(n)
    a = pf_norm(model, x, probes)
    b = pf_norm(model, x[perm], probes[perm])
    assert a == pytest.approx(b, rel=1e-10)


def test_default_probes_fallback():
    y = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
    probes = default_probes(y)
    assert np.array_equal(probes[0], [1.0, 0.0])
    assert np.array_equal(probes[1], [0.0, 1.0])  # canonical e_{2} for row 1
    assert np.array_equal(probes[2], [0.0, 2.0])


# --- pencil ---------------------------------------------------------------------

def random_psd(k, rng, jitter=0.0):
    b = rng.standard_normal((k, k))
    return b @ b.T + jitter * np.eye(k)


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
    w_vals, w_vecs = np.linalg.eigh(_whiten(g_top, basis))
    rho, a = float(max(w_vals[-1], 0.0)), basis @ w_vecs[:, -1]
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
    v = deepvv._top_eigenvector(s, float(vals[-1]))
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
    v = deepvv._top_eigenvector(s, float(np.linalg.eigvalsh(s)[-1]))
    assert abs(v[1]) == 1.0 and np.abs(v[[0, 2]]).max() <= 1e-14


# --- norms and bounds ----------------------------------------------------------

def test_top_layer_norm_cases():
    anchors = np.array([[0.0, 0.0]])
    zero = KernelExpansion(gauss(2), np.eye(2), anchors, np.zeros((1, 2)))
    assert top_norm(LayeredModel((zero,))) == 0.0
    single = KernelExpansion(gauss(2), np.eye(2), anchors, np.array([[3.0, 4.0]]))
    assert top_norm(LayeredModel((single,))) == pytest.approx(5.0, rel=1e-12)
    scaled = KernelExpansion(gauss(2), np.eye(2), anchors, np.array([[-7.5, 10.0]]))
    assert top_norm(LayeredModel((scaled,))) == pytest.approx(12.5, rel=1e-12)


def test_pf_complexity_bound_factorization_and_zero_top():
    rng = np.random.default_rng(11)
    n = 6
    x = rng.uniform(-1, 1, (n, 2))
    model = make_model(12, dims=(2, 3, 2), n_anchor=4, uniform_m=True)
    probes = rng.standard_normal((n, 2))
    rep = pf_bound(model, x, probes)
    assert rep["total"] == rep["pf_norm"] * rep["top_norm"] * rep["trace_root"]
    # kappa = 1, so the trace root is sqrt(Tr M1 / n), never below the
    # per-point form sqrt(sum_i k1(x_i, x_i) Tr M1) / n
    tr_m1 = float(np.trace(model.layers[0].output))
    assert rep["trace_root"] == trace_bound(1.0, tr_m1, n)
    assert rep["trace_root"] == pytest.approx(math.sqrt(tr_m1 / n), rel=1e-12)
    diag = np.diag(gram_scalar(model.layers[0].kernel, x))
    assert rep["trace_root"] >= math.sqrt(np.sum(diag) * tr_m1) / n
    zero_top = model.with_coeffs(
        [l.coeffs if j < model.depth - 1 else np.zeros_like(l.coeffs)
         for j, l in enumerate(model.layers)]
    )
    assert pf_bound(zero_top, x, probes)["total"] == 0.0


def test_pf_bound_dominates_sampled_subfamily():
    rng = np.random.default_rng(13)
    n, m = 12, 2
    x = rng.uniform(-1, 1, (n, 2))
    models = [
        make_model(100 + k, dims=(2, 2, 2), n_anchor=4, uniform_m=True)
        for k in range(6)
    ]
    # probe with the full canonical span so the restricted product norm
    # covers every sign pattern the complexity estimate can draw
    reps = []
    for model in models:
        pts = np.repeat(x, m, axis=0)
        basis = np.tile(np.eye(m), (n, 1))
        reps.append(pf_bound(model, pts, basis))
    # the canonical-span trace root overcounts each point m times; rescale to
    # the per-point trace root used by the statement
    totals = []
    for model, rep in zip(models, reps):
        tr = math.sqrt(n * np.trace(model.layers[0].output))
        totals.append(rep["pf_norm"] * rep["top_norm"] * tr / n)
    predictions = [forward(model, x) for model in models]
    (est,) = run_mc([ClassMc(predictions)], McConfig(draws=1500, seed=14))
    assert est.estimate <= max(totals) + 3 * est.stderr


def test_separable_bound_printed_convention():
    assert separable_bound(1.0, 2.0, 100, pf_norm=1.0, top_norm=1.0) == pytest.approx(
        math.sqrt(2.0) / 100, rel=1e-12
    )
    # the consistent convention, trace_bound times the norms, is sqrt(n) larger
    assert separable_bound(1.0, 2.0, 100, pf_norm=1.3, top_norm=0.7) == pytest.approx(
        trace_bound(1.0, 2.0, 100) * 1.3 * 0.7 / 10, rel=1e-12
    )
    assert separable_bound(1.0, 2.0, 10, pf_norm=0.0, top_norm=5.0) == 0.0


def test_separable_consistent_equals_pf_bound_when_kernel_normalized():
    # the consistent convention, sqrt(n) times the printed one, is the pf bound
    # pf_bound reports from the model's first layer and the sample size
    rng = np.random.default_rng(15)
    n = 7
    x = rng.uniform(-1, 1, (n, 2))
    model = make_model(16, dims=(2, 2, 2), n_anchor=4, uniform_m=True)
    probes = rng.standard_normal((n, 2))
    rep = pf_bound(model, x, probes)
    tr_m1 = float(np.trace(model.layers[0].output))
    printed = separable_bound(1.0, tr_m1, n, rep["pf_norm"], rep["top_norm"])
    assert printed * math.sqrt(n) == pytest.approx(rep["total"], rel=1e-12)


# --- objective ------------------------------------------------------------------

def test_objective_zero_cases():
    rng = np.random.default_rng(17)
    n = 5
    x = rng.uniform(-1, 1, (n, 2))
    model = make_model(18, dims=(2, 2, 2), n_anchor=4)
    y = forward(model, x)
    assert objective(model, x, y, 0.0, 0.0) == pytest.approx(0.0, abs=1e-20)
    zeroed = model.with_coeffs([np.zeros_like(l.coeffs) for l in model.layers])
    targets = np.ones((n, 2))
    assert objective(zeroed, x, targets, 0.0, 0.0) == pytest.approx(2.0)


def test_objective_increases_with_lambda2():
    rng = np.random.default_rng(19)
    n = 5
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.standard_normal((n, 2))
    model = make_model(20, dims=(2, 2, 2), n_anchor=4)
    assert top_norm(model) > 0
    o1 = objective(model, x, y, 0.0, 1.0)
    o2 = objective(model, x, y, 0.0, 2.0)
    assert o2 > o1


def test_objective_terms_reported():
    rng = np.random.default_rng(21)
    n = 5
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.standard_normal((n, 2))
    model = make_model(22, dims=(2, 2, 2), n_anchor=4)
    obj, fwd = at_model(model, x, y)
    data, pf_t, top_t = obj.terms(fwd, 0.5, 0.25)
    assert pf_t == pytest.approx(0.5 * pf_norm(model, x, default_probes(y)))
    assert top_t == pytest.approx(0.25 * top_norm(model))
    assert objective(model, x, y, 0.5, 0.25) == pytest.approx(data + pf_t + top_t)


# --- gradients ------------------------------------------------------------------

def test_gradient_zero_model_data_term():
    # single layer, zero coefficients: d/dC of the data term is
    # -(2/n) K^T Y M, the kernel correlation with the targets
    rng = np.random.default_rng(23)
    n = 6
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.standard_normal((n, 2))
    anchors = rng.uniform(-1, 1, (4, 2))
    m_mat = np.eye(2)
    lay = KernelExpansion(gauss(2), m_mat, anchors, np.zeros((4, 2)))
    model = LayeredModel((lay,))
    grads = gradient(model, x, y, 0.0, 0.0, "analytic")
    from opbounds.kernels import gram_scalar_cross

    kmat = gram_scalar_cross(gauss(2), x, anchors)
    expected = -(2.0 / n) * kmat.T @ y @ m_mat
    assert np.allclose(grads[0], expected, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(40 + seed)
    dims = (2, 3, 2) if seed % 2 else (2, 3, 3, 2)
    model = make_model(60 + seed, dims=dims, n_anchor=4, uniform_m=True)
    n = 6
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.standard_normal((n, 2))
    lam1, lam2 = 0.3, 0.2
    analytic = gradient(model, x, y, lam1, lam2, "analytic")
    fd = gradient(model, x, y, lam1, lam2, "finite-diff")
    scale = max(float(np.abs(np.concatenate([g.ravel() for g in fd])).max()), 1e-12)
    for ga, gf in zip(analytic, fd):
        assert np.abs(ga - gf).max() / scale <= 1e-5


def tied_one_layer():
    """(model, x, y): a one-layer model whose G_top is G_bottom, so its
    whitened pencil has every eigenvalue equal to 1 at every coefficient
    point."""
    rng = np.random.default_rng(46)
    model = make_model(66, dims=(2, 2), n_anchor=4, uniform_m=True)
    return model, rng.uniform(-1, 1, (5, 2)), rng.standard_normal((5, 2))


def tied_three_layers():
    """(model, x, y): a three-layer model whose inputs, and the outputs of its
    first two layers, lie so far apart for their kernels that every
    off-diagonal Gram entry underflows to 0, at its coefficients and along
    training.  G_top and G_bottom are then the same diagonal matrix, and the
    whitened pencil's eigenvalues are all 1 up to round-off."""
    x = 30.0 * np.array([[0, 0], [1, 0], [0, 1], [1, 1], [2, 0]], dtype=float)
    y = np.random.default_rng(46).standard_normal((5, 2))
    specs = [gauss(2), gauss(2, 1e8), gauss(2, 1e8)]
    return init_layered_model(x, specs, [np.eye(2)] * 3, seed=5), x, y


def test_gradient_single_layer_matches_finite_differences_at_a_tied_top_eigenvalue():
    # the one-layer pencil does not depend on the coefficients, and its top
    # eigenvalue is tied; the analytic gradient is still defined (any top
    # eigenvector gives a subgradient) and here exact: its transfer-product
    # part is zero, because the seed it adds at depth 0 is never read
    model, x, y = tied_one_layer()
    obj, fwd = at_model(model, x, y)
    vals = np.linalg.eigvalsh(obj._whitened(fwd))
    assert vals[-1] - vals[0] <= 1e-12
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        analytic = gradient(model, x, y, 0.5, 0.0, "analytic")
    assert all(str(w.message).startswith("model has") for w in caught)
    fd = gradient(model, x, y, 0.5, 0.0, "finite-diff")
    scale = max(float(np.abs(np.concatenate([g.ravel() for g in fd])).max()), 1e-12)
    for ga, gf in zip(analytic, fd):
        assert np.abs(ga - gf).max() / scale <= 1e-5


def test_gradient_zero_at_exact_interpolant():
    rng = np.random.default_rng(25)
    n = 5
    x = rng.uniform(-1, 1, (n, 2))
    model = make_model(26, dims=(2, 2, 2), n_anchor=4)
    y = forward(model, x)
    grads = gradient(model, x, y, 0.0, 0.0, "analytic")
    assert all(np.abs(g).max() <= 1e-8 for g in grads)


def test_gradient_requires_gaussian_for_analytic():
    rng = np.random.default_rng(27)
    anchors = rng.uniform(-1, 1, (3, 2))
    lay = KernelExpansion(
        ScalarKernelSpec("matern", 1.0, smoothness=1.5, dimension=2),
        np.eye(2), anchors, np.zeros((3, 2)),
    )
    model = LayeredModel((lay,))
    x = rng.uniform(-1, 1, (4, 2))
    y = rng.standard_normal((4, 2))
    with pytest.raises(InputError):
        gradient(model, x, y, 0.0, 0.0, "analytic")
    fd = gradient(model, x, y, 0.0, 0.0, "finite-diff")
    assert fd[0].shape == (3, 2)


# --- training -------------------------------------------------------------------

def test_train_objective_nonincreasing():
    rng = np.random.default_rng(28)
    n = 8
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.standard_normal((n, 2))
    model = init_layered_model(x, [gauss(2), gauss(2), gauss(2)], [np.eye(2)] * 3, seed=0)
    cfg = TrainConfig(lambda1=0.1, lambda2=0.1, step=0.5, iters=30, grad_mode="analytic")
    result = train(DeepObjective(model, x, y), cfg)
    objs = [e["objective"] for e in result.trajectory]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
    assert objs[-1] <= objective(model, x, y, 0.1, 0.1)


@pytest.mark.parametrize("build", [tied_one_layer, tied_three_layers])
def test_train_at_a_tied_top_eigenvalue_stays_cheap(build):
    # every gradient is analytic, so an iteration costs its line-search
    # passes, one per trial step, not two passes per coefficient; the
    # objective never rises and no warning but the depth one is raised
    model, x, y = build()
    cfg = TrainConfig(lambda1=0.5, lambda2=0.1, step=0.3, iters=10)
    obj, fwd = at_model(model, x, y)
    s = obj._whitened(fwd)
    assert np.abs(s - np.eye(s.shape[0])).max() <= 1e-12
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = train(obj, cfg)
    assert result.iterations == cfg.iters
    assert result.forward_passes <= 1 + 4 * cfg.iters
    assert all(str(w.message).startswith("model has") for w in caught)
    objs = [objective(model, x, y, cfg.lambda1, cfg.lambda2)]
    objs += [e["objective"] for e in result.trajectory]
    assert all(b <= a for a, b in zip(objs, objs[1:]))


def test_train_strong_regularization_shrinks_norms():
    rng = np.random.default_rng(29)
    n = 8
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.standard_normal((n, 2))
    model = init_layered_model(x, [gauss(2), gauss(2), gauss(2)], [np.eye(2)] * 3, seed=1)
    probes = default_probes(y)
    pf0 = pf_norm(model, x, probes)
    top0 = top_norm(model)
    cfg = TrainConfig(lambda1=1e3, lambda2=1e3, step=1e-4, iters=60, grad_mode="analytic")
    result = train(DeepObjective(model, x, y), cfg)
    assert pf_norm(result.model, x, probes) < pf0
    assert top_norm(result.model) < top0


def test_train_terminates_at_optimum():
    rng = np.random.default_rng(30)
    n = 5
    x = rng.uniform(-1, 1, (n, 2))
    model = init_layered_model(x, [gauss(2), gauss(2)], [np.eye(2)] * 2, seed=2)
    zeroed = model.with_coeffs([np.zeros_like(l.coeffs) for l in model.layers])
    y = np.zeros((n, 2))
    result = train(DeepObjective(zeroed, x, y), TrainConfig(step=0.5, iters=50))
    assert result.converged
    assert result.iterations == 0


def test_train_deterministic():
    rng = np.random.default_rng(31)
    n = 6
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.standard_normal((n, 2))
    cfg = TrainConfig(lambda1=0.05, lambda2=0.05, step=0.3, iters=15)
    def trained():
        model = init_layered_model(x, [gauss(2)] * 3, [np.eye(2)] * 3, seed=3)
        return train(DeepObjective(model, x, y), cfg)

    r1, r2 = trained(), trained()
    assert all(
        np.array_equal(a.coeffs, b.coeffs)
        for a, b in zip(r1.model.layers, r2.model.layers)
    )


@pytest.mark.parametrize(
    "lambda1, grad_mode", [(0.1, "analytic"), (0.0, "analytic"), (0.1, "finite-diff")]
)
def test_train_whitens_g_bottom_once(monkeypatch, lambda1, grad_mode):
    # G_bottom depends only on x, the probes, the first kernel and M~, so one
    # objective whitens it once for all the objectives, gradients and
    # trajectory norms of a train() call, and they agree with a fresh
    # objective at the trained model
    rng = np.random.default_rng(32)
    n = 6
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.standard_normal((n, 2))
    model = init_layered_model(x, [gauss(2)] * 3, [np.eye(2)] * 3, seed=4)
    whiten = deepvv._pencil_basis
    calls = []
    monkeypatch.setattr(deepvv, "_pencil_basis", lambda g: calls.append(g) or whiten(g))
    cfg = TrainConfig(lambda1=lambda1, lambda2=0.05, step=0.3, iters=4, grad_mode=grad_mode)
    result = train(DeepObjective(model, x, y), cfg)
    assert result.iterations == 4 and len(calls) == 1
    last = result.trajectory[-1]
    assert last["pf_norm"] == pf_norm(result.model, x, default_probes(y))
    assert last["objective"] == objective(result.model, x, y, lambda1, 0.05)


@pytest.mark.parametrize("grad_mode", ["analytic", "finite-diff"])
def test_train_builds_layers_once(monkeypatch, grad_mode):
    # kernels, output matrices and anchors are fixed, so train() validates the
    # output matrices only when it builds the trained model at the end, and
    # assembles the last layer's anchor Gram once for every top norm and
    # lambda2 gradient
    rng = np.random.default_rng(53)
    n = 6
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.standard_normal((n, 2))
    model = init_layered_model(x, [gauss(2)] * 3, [np.eye(2)] * 3, seed=5)
    last_anchors = model.layers[-1].anchors
    make, gram = deepvv.make_output_matrix, deepvv.gram_scalar
    validations, top_grams = [], []

    def counted_gram(spec, pts):
        if pts is last_anchors:
            top_grams.append(pts)
        return gram(spec, pts)

    monkeypatch.setattr(deepvv, "make_output_matrix", lambda m: validations.append(m) or make(m))
    monkeypatch.setattr(deepvv, "gram_scalar", counted_gram)
    cfg = TrainConfig(lambda1=0.1, lambda2=0.05, step=0.3, iters=5, grad_mode=grad_mode)
    result = train(DeepObjective(model, x, y), cfg)
    assert result.iterations == 5
    assert len(validations) <= model.depth
    assert len(top_grams) == 1


def test_pass_keeps_its_grams_and_whitened_top_only():
    # after pf_norm a pass holds its later layers' cross Grams, the last
    # layer's n x n kernel Gram k_top and the k x k whitened G_top, besides
    # its levels; G_top itself is a temporary of the whitening.  k < n here,
    # so a kept G_top would not fit in the k x k share of S.
    rng = np.random.default_rng(11)
    n = 200
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.standard_normal((n, 2))
    model = init_layered_model(x, [gauss(2)] * 3, [np.eye(2)] * 3, seed=3)
    obj = DeepObjective(model, x, y)
    obj.pf_norm(obj.forward(model.coeffs))  # the per-objective Grams and basis
    k = obj.bottom[1].shape[1]
    assert k < n
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fwd = obj.forward(model.coeffs)
        obj.pf_norm(fwd)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    grams = sum(kmat.nbytes for kmat in fwd.kmats[1:])
    levels = sum(level.nbytes for level in fwd.levels[1:])
    assert kept <= grams + (n * n + k * k) * 8 + levels + 4096, (kept, grams, levels)


def test_train_computes_each_gram_and_pf_norm_once(monkeypatch):
    # the first layer's cross Gram never changes, the gradient backpropagates
    # through the cross Grams of its point's forward pass, and every
    # transfer-product norm comes from an objective evaluation: the start and
    # one per line-search candidate that the bounds checked before the
    # eigensolve do not reject (the trajectory reuses the accepted one's).
    # A pass is whitened once, when its S is first needed, and that S serves
    # its norm and gradient; only a candidate accepted below a rejected
    # doubled step, whose Grams are freed and rebuilt on the same pass for
    # the gradient, is whitened twice.  The accepted steps here move both
    # ways, so the count follows the reference's line search.
    rng = np.random.default_rng(67)
    n = 8
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.standard_normal((n, 2))
    model = init_layered_model(x, [gauss(2)] * 3, [np.eye(2)] * 3, seed=6)
    cfg = TrainConfig(lambda1=0.1, lambda2=0.05, step=0.5, iters=6)
    _, ref_trajectory, tried = _reference_train(model, x, y, cfg)
    candidates = sum(map(len, tried))
    again = sum(steps[-1] != entry["step"] for steps, entry in zip(tried, ref_trajectory))
    assert len({entry["step"] for entry in ref_trajectory}) > 2 and again > 0

    first_anchors = model.layers[0].anchors
    cross, eigensolve, whiten = deepvv.gram_scalar_cross, deepvv._top_eigenvalue, deepvv._whiten
    gradient_method, exceeds = deepvv.DeepObjective.gradient, deepvv.DeepObjective.exceeds
    first_grams, gradient_grams, eigensolves, whitenings, in_gradient = [], [], [], [], []
    screened, whitened, candidate_passes, gradient_passes = [], [], [], []

    def counted_cross(spec, u, z):
        if z is first_anchors:
            first_grams.append(u)
        if in_gradient:
            gradient_grams.append(u)
        return cross(spec, u, z)

    def flagged_gradient(problem, fwd, *args):
        gradient_passes.append((fwd, list(fwd.kmats)))
        in_gradient.append(True)
        try:
            return gradient_method(problem, fwd, *args)
        finally:
            in_gradient.pop()

    def recorded_exceeds(problem, fwd, *args):
        candidate_passes.append(fwd)
        screened.append(exceeds(problem, fwd, *args))
        whitened.append(fwd.s is not None)
        return screened[-1]

    # the gradient's eigenvector comes from inverse iteration at pf_norm's
    # eigenvalue; a gradient calls eigh only when that gives no vector
    top_vector, vectors = deepvv._top_eigenvector, []
    monkeypatch.setattr(deepvv, "_top_eigenvector", lambda *a: vectors.append(1) or top_vector(*a))
    monkeypatch.setattr(deepvv, "gram_scalar_cross", counted_cross)
    monkeypatch.setattr(deepvv, "_top_eigenvalue", lambda s: eigensolves.append(1) or eigensolve(s))
    monkeypatch.setattr(deepvv, "_whiten", lambda *a: whitenings.append(1) or whiten(*a))
    monkeypatch.setattr(deepvv.DeepObjective, "gradient", flagged_gradient)
    monkeypatch.setattr(deepvv.DeepObjective, "exceeds", recorded_exceeds)
    result = train(DeepObjective(model, x, y), cfg)
    assert result.trajectory == ref_trajectory
    assert len(first_grams) == 1
    assert gradient_grams == []
    assert len(screened) == candidates
    assert result.forward_passes == 1 + candidates + again
    reached_eigensolve = screened.count(False)
    assert reached_eigensolve < candidates  # the bounds decide some candidates
    assert len(eigensolves) == 1 + reached_eigensolve
    assert len(whitenings) == 1 + sum(whitened) + again
    assert len(vectors) == cfg.iters and result.eigh_fallbacks == 0
    # every later gradient gets the accepted candidate's own pass; after a
    # failed doubling its Grams are those of a fresh forward pass, bit for bit
    fresh = DeepObjective(model, x, y)
    rebuilt = 0
    for (fwd, kmats), steps, entry in zip(gradient_passes[1:], tried, ref_trajectory):
        assert any(fwd is cand for cand in candidate_passes)
        if steps[-1] != entry["step"]:
            rebuilt += 1
            expected = fresh.forward(fwd.coeffs).kmats
            assert all(np.array_equal(a, b) for a, b in zip(kmats, expected))
    assert rebuilt == again


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    lambda1=st.sampled_from([0.0, 0.1, 1.0]),
    step=st.sampled_from([0.3, 1.0, 4.0]),
    layout=st.sampled_from(["random", "duplicate points", "zero labels"]),
)
def test_line_search_accepts_lattice_steps_that_pass_armijo(seed, n, lambda1, step, layout):
    # every accepted step is cfg.step * 2^-j and passes the Armijo test against
    # the full objective, and when a line-search candidate's pass starts,
    # every earlier pass has given its Grams up
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.standard_normal((n, 2))
    if layout == "duplicate points":
        x, y = np.repeat(x[:1], n, axis=0), np.repeat(y[:1], n, axis=0)
    elif layout == "zero labels":
        y = np.zeros((n, 2))
    model = init_layered_model(x, [gauss(2)] * 3, [np.eye(2)] * 3, seed=seed % 1000)
    forward_method, gradient_method = DeepObjective.forward, DeepObjective.gradient
    passes, points, in_gradient = [], [], []

    def tracked_forward(problem, coeffs):
        if not in_gradient:  # not a finite-difference bump of the gradient
            alive = [ref() for ref in passes]
            assert all(
                p.kmats is None and p.k_top is None and p.s is None
                for p in alive if p is not None
            )
        fwd = forward_method(problem, coeffs)
        passes.append(weakref.ref(fwd))
        return fwd

    def recorded_gradient(problem, fwd, *args):
        in_gradient.append(True)
        try:
            grads = gradient_method(problem, fwd, *args)
        finally:
            in_gradient.pop()
        points.append((fwd.coeffs, grads))
        return grads

    cfg = TrainConfig(lambda1=lambda1, lambda2=0.05, step=step, iters=5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DeepObjective, "forward", tracked_forward)
        mp.setattr(DeepObjective, "gradient", recorded_gradient)
        result = train(DeepObjective(model, x, y), cfg)
    for entry, (coeffs, grads) in zip(result.trajectory, points):
        j = round(math.log2(cfg.step / entry["step"]))
        assert j >= 0 and entry["step"] == cfg.step * 2.0 ** -j
        gnorm = float(np.sqrt(sum(np.sum(g * g) for g in grads)))
        before = objective(model.with_coeffs(coeffs), x, y, lambda1, 0.05)
        moved = [c - entry["step"] * g for c, g in zip(coeffs, grads)]
        after = objective(model.with_coeffs(moved), x, y, lambda1, 0.05)
        assert after == entry["objective"]
        assert after <= before - 1e-4 * entry["step"] * gnorm * gnorm


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    depth=st.integers(2, 4),
    lambda1=st.sampled_from([0.1, 1.0]),
    lambda2=st.sampled_from([0.0, 0.05]),
    layout=st.sampled_from(["random", "duplicate points", "zero labels"]),
)
def test_line_search_rejects_before_eigensolve_only_what_objective_rejects(
    seed, n, depth, lambda1, lambda2, layout
):
    # every candidate that the data + top bound or the Rayleigh-quotient bound
    # rejects is rejected by the full objective too, and the Rayleigh quotient
    # less its slack never exceeds the computed top eigenvalue
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.standard_normal((n, 2))
    if layout == "duplicate points":
        x, y = np.repeat(x[:1], n, axis=0), np.repeat(y[:1], n, axis=0)
    elif layout == "zero labels":
        y = np.zeros((n, 2))
    model = init_layered_model(x, [gauss(2)] * depth, [np.eye(2)] * depth, seed=seed % 1000)
    exceeds = deepvv.DeepObjective.exceeds

    def checked_exceeds(problem, fwd, thresh, lam1, lam2, w=None):
        rejected = exceeds(problem, fwd, thresh, lam1, lam2, w)
        if layout == "duplicate points":
            assert problem.bottom[1].shape[1] == 1  # one whitening direction
        if w is not None and fwd.s is not None:
            low = deepvv._rayleigh_floor(fwd.s, w)
            assert low <= deepvv._top_eigenvalue(fwd.s) or np.isnan(low)
        if rejected:
            full = objective(model.with_coeffs(fwd.coeffs), x, y, lam1, lam2)
            assert not (np.isfinite(full) and full <= thresh)
        return rejected

    cfg = TrainConfig(lambda1=lambda1, lambda2=lambda2, step=0.5, iters=4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deepvv.DeepObjective, "exceeds", checked_exceeds)
        train(DeepObjective(model, x, y), cfg)


def _reference_fd_gradient(model, x, y, lam1, lam2):
    coeffs = [l.coeffs.copy() for l in model.layers]
    grads = []
    for j, c in enumerate(coeffs):
        g = np.zeros_like(c)
        for idx in np.ndindex(c.shape):
            h = 1e-5 * (1.0 + abs(float(c[idx])))
            for sign in (+1.0, -1.0):
                bumped = [a.copy() for a in coeffs]
                bumped[j][idx] += sign * h
                obj = objective(model.with_coeffs(bumped), x, y, lam1, lam2)
                g[idx] += sign * obj / (2.0 * h)
        grads.append(g)
    return grads


def _reference_train(model, x, y, cfg):
    """The training loop on whole models rebuilt for every candidate and every
    finite-difference bump, with a fresh objective for every objective value,
    gradient and trajectory norm; also returns the trial steps of every
    iteration.  The line search is the one ``train`` documents: the first
    iteration starts at cfg.step and halves; a later one starts at
    s0 = min(cfg.step, 2 * last accepted step), doubles while s0 and the
    doubled steps within cfg.step pass, and when s0 fails tries cfg.step once
    before halving from s0 / 2."""
    probes = default_probes(y)
    lam1, lam2 = cfg.lambda1, cfg.lambda2
    current, obj = model, objective(model, x, y, lam1, lam2)
    trajectory, tried, last = [], [], None
    for it in range(1, cfg.iters + 1):
        if cfg.grad_mode == "finite-diff":
            grads = _reference_fd_gradient(current, x, y, lam1, lam2)
        else:
            grads = gradient(current, x, y, lam1, lam2, "analytic")
        gnorm = float(np.sqrt(sum(np.sum(g * g) for g in grads)))
        if gnorm <= cfg.tol:
            break
        steps = []

        def passes(step):
            steps.append(step)
            cand = current.with_coeffs(
                [l.coeffs - step * g for l, g in zip(current.layers, grads)]
            )
            cand_obj = objective(cand, x, y, lam1, lam2)
            if np.isfinite(cand_obj) and cand_obj <= obj - 1e-4 * step * gnorm * gnorm:
                return cand, cand_obj
            return None

        step = cfg.step if last is None else min(cfg.step, 2.0 * last)
        if found := passes(step):
            while 2.0 * step <= cfg.step and (higher := passes(2.0 * step)):
                found, step = higher, 2.0 * step
        elif step < cfg.step and (found := passes(cfg.step)):
            step = cfg.step
        else:
            step *= 0.5
            while step >= 1e-14 and not (found := passes(step)):
                step *= 0.5
        tried.append(steps)
        if not found:
            break
        (current, obj), last = found, step
        trajectory.append(
            {"iteration": it, "objective": obj,
             "pf_norm": pf_norm(current, x, probes),
             "top_norm": top_norm(current), "step": step}
        )
    return current, trajectory, tried


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(2, 4),
    lambda1=st.sampled_from([0.0, 0.1]),
    lambda2=st.sampled_from([0.0, 0.05]),
    grad_mode=st.sampled_from(["analytic", "finite-diff"]),
    step=st.sampled_from([0.3, 2.0]),
)
def test_train_matches_model_rebuilding_reference(
    seed, depth, lambda1, lambda2, grad_mode, step
):
    rng = np.random.default_rng(seed)
    n = 5
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.standard_normal((n, 2))
    model = make_model(seed, dims=(2,) + (3,) * (depth - 1) + (2,), n_anchor=4)
    cfg = TrainConfig(lambda1=lambda1, lambda2=lambda2, step=step, iters=5,
                      grad_mode=grad_mode)
    result = train(DeepObjective(model, x, y), cfg)
    ref_model, ref_trajectory, tried = _reference_train(model, x, y, cfg)
    assert all(
        np.array_equal(a, b) for a, b in zip(result.model.coeffs, ref_model.coeffs)
    )
    assert result.trajectory == ref_trajectory
    if grad_mode == "analytic":
        # the start, one pass per trial step of the reference's schedule, and
        # one more per doubled probe that failed above an accepted step; the
        # finite-difference gradient builds passes of its own
        again = sum(steps[-1] != entry["step"] for steps, entry in zip(tried, ref_trajectory))
        assert result.forward_passes == 1 + sum(map(len, tried)) + again


def test_gradient_from_inverse_iteration_matches_eigh():
    # on the random models of acceptance criterion 08 whose top whitened
    # eigenvalue has a gap above 1e-6 relative, the analytic gradient with
    # the eigenvector from inverse iteration agrees to 1e-9 relative with the
    # one that takes eigh's, and none falls back to eigh
    worst, checked = 0.0, 0
    for attempt in range(1, 81):
        rng = np.random.default_rng(6000 + attempt)
        dims = (2, 3, 2) if attempt % 2 else (2, 3, 3, 2)
        model = make_model(6100 + attempt, dims=dims, n_anchor=4, uniform_m=True)
        x = rng.uniform(-1, 1, (6, 2))
        y = rng.standard_normal((6, 2))
        obj, fwd = at_model(model, x, y)
        vals = np.linalg.eigvalsh(obj._whitened(fwd))
        if not vals[-1] - vals[-2] > 1e-6 * vals[-1] > 0:
            continue
        fast = obj.gradient(fwd, 0.3, 0.2, "analytic")
        assert obj.eigh_fallbacks == 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(deepvv, "_top_eigenvector", lambda s, rho: None)
            slow = gradient(model, x, y, 0.3, 0.2, "analytic")
        scale = max(float(np.abs(g).max()) for g in slow)
        worst = max(worst, max(float(np.abs(a - b).max()) for a, b in zip(fast, slow)) / scale)
        checked += 1
    assert checked >= 20 and worst <= 1e-9, (checked, worst)


# the benchmark's deep-train config, at 20 iterations
DEEP_TRAIN = {
    "dataset": {"kind": "synthetic", "n": 96, "d": 2, "m": 2, "noise": 0.1},
    "deep_model": {
        "bandwidths": [1.0, 1.0, 1.0],
        "output_dims": [2, 2, 2],
        "train": {"lambda1": 0.1, "lambda2": 0.1, "step": 0.3, "iters": 20},
        "lambda1_sweep": [0.0, 0.1],
    },
}


@pytest.mark.parametrize("seed, fewer", [(5, 1.5), (1030, 1.0)])
def test_warm_started_line_search_saves_forward_passes(monkeypatch, tmp_path, seed, fewer):
    # at these seeds the warm-started line search accepts the steps that a
    # search restarting at train.step accepts, so the records agree, and it
    # builds fewer passes: at least 1.5x fewer at seed 5.  At seed 1030 the
    # fifth iteration accepts train.step right after its warm start's trial
    # fails, which only the retry of train.step finds.
    warm = cli.run("deep-vvrkhs", DEEP_TRAIN, seed, tmp_path)["metrics"]
    monkeypatch.setattr(cli, "train", train_halving)
    halving = cli.run("deep-vvrkhs", DEEP_TRAIN, seed, tmp_path)["metrics"]
    assert halving.pop("forward_passes") >= fewer * warm.pop("forward_passes")
    assert warm == halving


@pytest.mark.parametrize("seed, passes", [(5, 155), (7003, 175)])
def test_deep_train_counts(tmp_path, seed, passes):
    # the benchmark's deep-train instance at 50 iterations: no gradient takes
    # its eigenvector from eigh, also at seed 7003, where a solve at the
    # eigvalsh eigenvalue is exactly singular and the shift moves
    cfg = json.loads(json.dumps(DEEP_TRAIN))
    cfg["deep_model"]["train"]["iters"] = 50
    cfg["deep_model"]["refine"] = {"direction": "shrink", "scale": 0.5}
    metrics = cli.run("deep-vvrkhs", cfg, seed, tmp_path)["metrics"]
    assert (metrics["forward_passes"], metrics["eigh_fallbacks"]) == (passes, 0)


def test_lambda1_sweep_nonincreasing_pf():
    rng = np.random.default_rng(32)
    n = 8
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.standard_normal((n, 2))
    probes = default_probes(y)
    specs = [gauss(2), gauss(2), gauss(2, 5.0)]  # sharp top kernel: pf moves
    finals = []
    for lam1 in (0.0, 0.1, 1.0):
        model = init_layered_model(x, specs, [np.eye(2)] * 3, seed=4)
        cfg = TrainConfig(lambda1=lam1, lambda2=0.0, step=0.5, iters=120)
        result = train(DeepObjective(model, x, y), cfg)
        finals.append(pf_norm(result.model, x, probes))
    assert finals[1] <= finals[0] + 1e-9
    assert finals[2] <= finals[1] + 1e-9
    assert finals[2] < finals[0] - 1e-3  # regularization visibly binds


# --- refinement -----------------------------------------------------------------

def test_refine_noop_with_same_matrix():
    model = make_model(33, dims=(2, 2, 2), uniform_m=True)
    refined = refine_kernel(model, np.eye(2), "shrink")
    for a, b in zip(model.layers, refined.layers):
        assert np.array_equal(a.output, b.output)
        assert np.array_equal(a.coeffs, b.coeffs)


def test_refine_half_matrix_scales_bound():
    model = make_model(34, dims=(2, 2, 2), uniform_m=True)
    m_mat = model.layers[0].output
    refined = refine_kernel(model, 0.5 * m_mat, "shrink")
    tr_before = float(np.trace(m_mat))
    tr_after = float(np.trace(refined.layers[0].output))
    assert tr_after == pytest.approx(tr_before / 2)
    before = trace_bound(1.0, tr_before, 10) * 1.3 * 0.7
    after = trace_bound(1.0, tr_after, 10) * 1.3 * 0.7
    assert after == pytest.approx(before / math.sqrt(2.0), rel=1e-10)


def test_refine_rejects_wrong_order():
    model = make_model(35, dims=(2, 2, 2), uniform_m=True)
    e = np.array([[1.0], [0.5]])
    bigger = np.eye(2) + e @ e.T
    with pytest.raises(RefinementOrderError):
        refine_kernel(model, bigger, "shrink")
    refined = refine_kernel(model, bigger, "enlarge")
    assert np.array_equal(refined.layers[0].output, bigger)
    with pytest.raises(RefinementOrderError):
        refine_kernel(model, 0.5 * np.eye(2), "enlarge")


def test_checkpoint_roundtrip():
    model = make_model(50, dims=(2, 3, 2), n_anchor=4)
    payload = json.loads(json.dumps(model_to_dict(model)))
    back = model_from_dict(payload)
    x = np.random.default_rng(51).uniform(-1, 1, (5, 2))
    assert np.array_equal(forward(model, x), forward(back, x))


def test_checkpoint_with_null_capacity_loads():
    # checkpoints written while layers had a capacity carry "capacity": null
    model = make_model(52, dims=(2, 3, 2), n_anchor=4)
    payload = json.loads(json.dumps(model_to_dict(model)))
    assert all("capacity" not in entry for entry in payload["layers"])
    for entry in payload["layers"]:
        entry["capacity"] = None
    back = model_from_dict(payload)
    x = np.random.default_rng(53).uniform(-1, 1, (5, 2))
    assert np.array_equal(forward(model, x), forward(back, x))


def test_checkpoint_with_a_set_capacity_is_rejected():
    # a bound someone set is not dropped silently
    payload = json.loads(json.dumps(model_to_dict(make_model(54, dims=(2, 3, 2)))))
    payload["layers"][1]["capacity"] = 0.5
    with pytest.raises(InputError, match="layer 2 sets capacity 0.5"):
        model_from_dict(payload)


def test_refine_accepts_exactly_psd_ordered():
    rng = np.random.default_rng(36)
    model = make_model(37, dims=(2, 2, 2), uniform_m=True)
    m_mat = model.layers[0].output
    accepted, rejected = 0, 0
    for k in range(60):
        g = rng.standard_normal((2, 2))
        cand = m_mat - 0.2 * (g @ g.T) if k % 2 else m_mat - 0.2 * (g + g.T)
        cand = 0.5 * (cand + cand.T)
        if np.linalg.eigvalsh(cand)[0] < 0:
            continue  # candidate must itself be PSD to be an output matrix
        ordered = np.linalg.eigvalsh(m_mat - cand)[0] >= -1e-10
        try:
            refine_kernel(model, cand, "shrink")
            ok = True
            accepted += 1
        except RefinementOrderError:
            ok = False
            rejected += 1
        assert ok == ordered
    assert accepted > 0 and rejected > 0
