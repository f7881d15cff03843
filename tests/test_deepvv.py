import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opbounds import cli, deepvv, spectral
from opbounds.complexity import ClassMc, McConfig, run_mc, trace_bound
from opbounds.deepvv import (
    DeepObjective,
    LayeredModel,
    TrainConfig,
    default_probes,
    init_layered_model,
    model_from_dict,
    model_to_dict,
    refine_kernel,
    separable_bound,
    train,
)
from opbounds.errors import InputError, NumericError, RefinementOrderError
from opbounds.kernels import KernelExpansion, ScalarKernelSpec, gram_scalar, gram_scalar_cross
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


def test_gradient_single_layer_falls_back_near_degeneracy():
    # for a one-layer model the transfer pencil is parameter-independent and
    # fully degenerate; the analytic path must detect it and fall back
    rng = np.random.default_rng(46)
    model = make_model(66, dims=(2, 2), n_anchor=4, uniform_m=True)
    x = rng.uniform(-1, 1, (5, 2))
    y = rng.standard_normal((5, 2))
    with pytest.warns(UserWarning, match="degenerate"):
        analytic = gradient(model, x, y, 0.5, 0.0, "analytic")
    fd = gradient(model, x, y, 0.5, 0.0, "finite-diff")
    for ga, gf in zip(analytic, fd):
        assert np.allclose(ga, gf, atol=1e-12)


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


def test_train_computes_each_gram_and_pf_norm_once(monkeypatch):
    # the first layer's cross Gram never changes, the gradient backpropagates
    # through the cross Grams of its point's forward pass, and every
    # transfer-product norm comes from an objective evaluation: the start and
    # one per line-search candidate that the bounds checked before the
    # eigensolve do not reject (the trajectory reuses the accepted one's).
    # The screen's whitened G_top serves its candidate's norm and gradient, so
    # only the start (its norm precedes any screen) and a candidate accepted
    # below a rejected doubled step, whose pass is built again for the
    # gradient, are whitened twice.  The accepted steps here move both ways,
    # so the count follows the reference's line search.
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
    screened, whitened = [], []

    def counted_cross(spec, u, z):
        if z is first_anchors:
            first_grams.append(u)
        if in_gradient:
            gradient_grams.append(u)
        return cross(spec, u, z)

    def flagged_gradient(*args):
        in_gradient.append(True)
        try:
            return gradient_method(*args)
        finally:
            in_gradient.pop()

    def recorded_exceeds(problem, fwd, *args):
        screened.append(exceeds(problem, fwd, *args))
        whitened.append(fwd.s is not None)
        return screened[-1]

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
    assert len(whitenings) == 2 + sum(whitened) + again


@pytest.mark.filterwarnings("ignore:top pencil eigenvalue")
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
                p.kmats is None and p.pf_top is None and p.s is None
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


@pytest.mark.filterwarnings("ignore:top pencil eigenvalue")
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
        if w is not None and fwd.pf_top is not None:
            s = spectral._whiten(fwd.pf_top[0], problem.bottom[1])
            low = spectral._rayleigh_floor(s, w)
            assert low <= spectral._top_eigenvalue(s) or np.isnan(low)
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


@pytest.mark.filterwarnings("ignore:top pencil eigenvalue")
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
    ref_model, ref_trajectory, _ = _reference_train(model, x, y, cfg)
    assert all(
        np.array_equal(a, b) for a, b in zip(result.model.coeffs, ref_model.coeffs)
    )
    assert result.trajectory == ref_trajectory


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


@pytest.mark.filterwarnings("ignore:top pencil eigenvalue")
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
