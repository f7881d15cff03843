import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opbounds import complexity
from opbounds.complexity import BallMc, ClassMc, McConfig, _quad_forms, run_mc, sign_blocks
from opbounds.errors import (
    DegenerateInputError, InputError, NonInjectiveError, NotPsdError, NumericError
)
from opbounds.kernels import (
    DecomposableKernel,
    KernelExpansion,
    ScalarKernelSpec,
    gram_scalar,
)
from opbounds.koopman import (
    ApproxMc,
    LayerSpec,
    NetworkSpec,
    SplitMc,
    det_quarter_root,
    product_bound,
    peeled_bound,
    spectral_ratio_factor,
)
from oracles import (
    expansion_norm,
    gram_operator,
    injectivity_class,
    recompute_total,
    run_mc_lazy,
    sobolev_norm_gaussian,
)


def layer(w, s_in=2.0, koopman=1.0, ratio=1.0):
    return LayerSpec(
        weights=np.asarray(w, dtype=float),
        activation_koopman_norm=koopman,
        sobolev_order_in=s_in,
        ratio_g=ratio,
    )


# --- spectral ratio factor ----------------------------------------------------

def test_ratio_factor_orthogonal_is_one():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    for s in (0.5, 1.0, 3.0):
        assert spectral_ratio_factor(q, s) == pytest.approx(1.0, rel=1e-12)


def test_ratio_factor_scaled_identity():
    assert spectral_ratio_factor(2.0 * np.eye(2), 1.0) == pytest.approx(2.0)
    assert spectral_ratio_factor(0.5 * np.eye(2), 3.0) == 1.0  # contraction floors at 1


def test_ratio_factor_zero_matrix_is_one():
    assert spectral_ratio_factor(np.zeros((2, 2)), 1.0) == 1.0


def ray_search_factor(w, s, rng, n_dirs=20_000):
    """Dense polar search of sup over the range of W of the layer ratio."""
    q, r = np.linalg.qr(w)
    rank = int(np.sum(np.abs(np.diag(r)) > 1e-12))
    basis = q[:, :rank]
    dirs = rng.standard_normal((n_dirs, rank))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    omegas = dirs @ basis.T  # unit directions inside range(W)
    a = np.einsum("ij,ij->i", omegas @ w, omegas @ w)  # ||W^T omega||^2 per direction
    ts = np.logspace(-3, 3, 80) ** 2
    ratios = (1.0 + np.outer(a, ts)) / (1.0 + ts)[None, :]
    best = max(1.0, float(ratios.max()))
    return best ** (s / 2.0)


@pytest.mark.parametrize("seed", range(8))
def test_ratio_factor_matches_ray_search(seed):
    rng = np.random.default_rng(seed)
    d_in = int(rng.integers(1, 5))
    d_out = int(rng.integers(d_in, 5))
    w = rng.standard_normal((d_out, d_in)) * rng.uniform(0.5, 2.0)
    for s in (0.6 * d_in, float(d_in)):
        impl = spectral_ratio_factor(w, s)
        oracle = ray_search_factor(w, s, rng)
        assert oracle <= impl * (1 + 1e-9)
        assert impl <= oracle * 1.02


def test_ratio_factor_invariant_under_input_rotation():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((4, 3))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    assert spectral_ratio_factor(w @ q, 2.0) == pytest.approx(
        spectral_ratio_factor(w, 2.0), rel=1e-10
    )


# --- determinant root ----------------------------------------------------------

def test_det_quarter_root_values():
    assert det_quarter_root(np.eye(3)) == pytest.approx(1.0)
    assert det_quarter_root(np.diag([2.0, 3.0])) == pytest.approx(math.sqrt(6.0), rel=1e-12)
    cols = np.linalg.qr(np.random.default_rng(1).standard_normal((4, 2)))[0]
    assert det_quarter_root(2.0 * cols) == pytest.approx(2.0, rel=1e-12)


def test_det_quarter_root_rejects_noninjective():
    with pytest.raises(NonInjectiveError):
        det_quarter_root(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(NonInjectiveError):
        det_quarter_root(np.ones((1, 2)))
    with pytest.raises(NonInjectiveError):
        det_quarter_root(np.zeros((2, 2)))


# --- injectivity class ----------------------------------------------------------

def test_injectivity_class_identity_passes():
    net = NetworkSpec(layers=(layer(np.eye(2)), layer(np.eye(2))), g_norm=1.0)
    assert injectivity_class(net, 1.0, 1.0) == [(True, True, True)] * 2
    assert det_quarter_root(np.eye(2)) == 1.0


def test_injectivity_class_dimension_flag():
    w = np.ones((1, 2))
    net = NetworkSpec(layers=(layer(w, s_in=2.0),), g_norm=1.0)
    dim_ok, _, det_ok = injectivity_class(net, 10.0, 0.0001)[0]
    assert not dim_ok and not det_ok
    with pytest.raises(NonInjectiveError):
        det_quarter_root(w)


def test_injectivity_class_norm_flag():
    w = np.diag([2.0, 3.0])
    net = NetworkSpec(layers=(layer(w),), g_norm=1.0)
    assert injectivity_class(net, 2.5, 6.0) == [(True, False, True)]
    assert spectral_ratio_factor(w, 1.0) == pytest.approx(3.0, rel=1e-12)
    assert det_quarter_root(w) ** 4 == pytest.approx(36.0, rel=1e-12)


# --- product bound -------------------------------------------------------------------

def test_product_bound_identity_network_is_trace_bound():
    net = NetworkSpec(layers=(layer(np.eye(3), s_in=2.0),), g_norm=1.0)
    rep = product_bound(net, kappa=1.0, tr_m=2.0, n=100)
    expected = math.sqrt(2.0 / 100.0)
    assert abs(rep.total - expected) <= 1e-12 * expected
    assert rep.per_layer[0].koopman_norm is None  # no activation before the output map


def test_product_bound_scaling_probe_1d():
    # W = (2) in one dimension, s_in = 1: ratio factor 2, det root sqrt(2),
    # so the bound picks up a factor sqrt(2)
    base = NetworkSpec(layers=(layer([[1.0]], s_in=1.0),), g_norm=1.0)
    scaled = NetworkSpec(layers=(layer([[2.0]], s_in=1.0),), g_norm=1.0)
    b0 = product_bound(base, 1.0, 1.0, 50).total
    b1 = product_bound(scaled, 1.0, 1.0, 50).total
    assert b1 / b0 == pytest.approx(math.sqrt(2.0), rel=1e-12)


@pytest.mark.filterwarnings("ignore:Sobolev order")
def test_product_bound_scaling_probe_2d():
    # for W = 2 I_2 with s_in = 1 the ratio factor and the quarter root both
    # double, so the bound is unchanged
    base = NetworkSpec(layers=(layer(np.eye(2), s_in=1.0),), g_norm=1.0)
    scaled = NetworkSpec(layers=(layer(2.0 * np.eye(2), s_in=1.0),), g_norm=1.0)
    b0 = product_bound(base, 1.0, 1.0, 50).total
    b1 = product_bound(scaled, 1.0, 1.0, 50).total
    assert b1 == pytest.approx(b0, rel=1e-12)


def test_product_bound_total_recomputable_from_factors():
    rng = np.random.default_rng(4)
    layers = tuple(
        layer(rng.standard_normal((3, 3)) + 2 * np.eye(3), s_in=2.0, koopman=1.5, ratio=0.8)
        for _ in range(3)
    )
    net = NetworkSpec(layers=layers, g_norm=2.0)
    rep = product_bound(net, kappa=1.3, tr_m=2.4, n=64)
    assert recompute_total(rep) == pytest.approx(rep.total, rel=1e-12)
    assert rep.per_layer[-1].koopman_norm is None
    assert rep.per_layer[0].koopman_norm == 1.5


def _gaussian_bump_net(rng, d, s):
    """Random two-layer net with square weights and identity activations,
    and the bump f it computes; f shifts its argument like a layer bias,
    which the bound does not read."""
    ws, bs = [], []
    for _ in range(2):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        scale = rng.uniform(0.9, 1.3)
        ws.append(scale * q)
        bs.append(0.2 * rng.standard_normal(d))
    u = rng.standard_normal(2)
    u /= np.linalg.norm(u)
    layers = tuple(
        layer(w, s_in=s, koopman=1.0, ratio=1.0) for w in ws
    )
    w_total = ws[1] @ ws[0]
    shift = ws[1] @ bs[0] + bs[1]

    def f(x):
        z = np.asarray(x, dtype=float).reshape(-1, d) @ w_total.T + shift
        return np.exp(-np.sum(z * z, axis=1))[:, None] * u

    g_norm = float(np.linalg.norm(u)) * sobolev_norm_gaussian(d, s)
    net = NetworkSpec(layers=layers, g_norm=g_norm)
    return net, f


def test_product_bound_dominates_sampled_subfamily_mc():
    rng = np.random.default_rng(5)
    d, s, n, m = 2, 2.0, 32, 2
    data = rng.uniform(-1, 1, (n, d))
    nets, funcs = [], []
    for _ in range(8):
        net, f = _gaussian_bump_net(rng, d, s)
        nets.append(net)
        funcs.append(f)
    bounds = [product_bound(net, kappa=1.0, tr_m=float(m), n=n).total for net in nets]
    (est,) = run_mc([ClassMc([f(data) for f in funcs])], McConfig(draws=2000, seed=6))
    assert est.estimate <= max(bounds) + 3 * est.stderr


def test_product_bound_rejects_noninjective_layer():
    net = NetworkSpec(
        layers=(layer(np.diag([1.0, 0.0]), s_in=2.0),), g_norm=1.0
    )
    with pytest.raises(NonInjectiveError):
        product_bound(net, 1.0, 1.0, 10)


# --- peeled bound ---------------------------------------------------------------

def test_peeled_identity_layers():
    k, big_l = 3, 4
    net = NetworkSpec(
        layers=tuple(layer(np.eye(k)) for _ in range(big_l)), g_norm=1.0
    )
    for split in range(big_l + 1):
        assert peeled_bound(net, split) == pytest.approx(
            math.sqrt(k) ** (big_l - split), rel=1e-12
        )


def test_peeled_examples_and_monotonicity():
    net = NetworkSpec(
        layers=(layer(np.diag([2.0, 3.0]), s_in=2.0),), g_norm=1.0
    )
    assert peeled_bound(net, 0) == pytest.approx(math.sqrt(13.0), rel=1e-12)
    assert peeled_bound(net, 1) == pytest.approx(3.0, rel=1e-12)
    scaled = NetworkSpec(
        layers=(layer(2.0 * np.diag([2.0, 3.0]), s_in=2.0),), g_norm=1.0
    )
    for split in (0, 1):
        assert peeled_bound(scaled, split) == pytest.approx(
            2.0 * peeled_bound(net, split), rel=1e-12
        )
    with pytest.raises(InputError):
        peeled_bound(net, 2)


# --- approximation term -----------------------------------------------------------

def approx_term(coeffs, g_in, g_mid, out, cfg):
    """(value, rejected draws, gammas) of the approximation term alone, for
    the (K, n, m) surrogate coefficient stack ``coeffs``."""
    (result,) = run_mc([ApproxMc(coeffs, g_in, g_mid, out)], cfg)
    return result


def dense_stack(*coeffs):
    """The stack of coefficient arrays as columns over a dense nm x nm Gram
    (output matrix [[1.0]])."""
    return np.stack([np.reshape(c, (-1, 1)) for c in coeffs])


def _mid_setup(rng, n=8, m=2, d=2):
    pts = rng.uniform(-1, 1, (n, d))
    kernel = DecomposableKernel(
        ScalarKernelSpec("gaussian", 1.0, dimension=d), np.eye(m)
    )
    return pts, kernel, gram_operator(kernel, pts)


def test_approx_term_zero_class():
    rng = np.random.default_rng(7)
    _, _, g_mid = _mid_setup(rng)
    zero = dense_stack(np.zeros((8, 2)))
    value, rejected, _ = approx_term(
        zero, g_mid, g_mid, [[1.0]], McConfig(draws=64, seed=0)
    )
    assert value == 0.0
    assert rejected == 0


def test_approx_term_equal_grams_gives_unit_gamma():
    rng = np.random.default_rng(8)
    _, _, g_mid = _mid_setup(rng)
    h = dense_stack(rng.standard_normal((8, 2)))
    _, _, gammas = approx_term(h, g_mid, g_mid, [[1.0]], McConfig(draws=128, seed=1))
    assert np.allclose(gammas, 1.0, atol=1e-10)


def test_approx_term_matches_bruteforce_expansion():
    rng = np.random.default_rng(9)
    pts, _, g_mid = _mid_setup(rng)
    other = DecomposableKernel(
        ScalarKernelSpec("gaussian", 0.5, dimension=2), np.eye(2)
    )
    g_in = gram_operator(other, pts)
    h1, h2 = rng.standard_normal((8, 2)), rng.standard_normal((8, 2))
    cfg = McConfig(draws=200, seed=2)
    value, rejected, _ = approx_term(dense_stack(h1, h2), g_in, g_mid, [[1.0]], cfg)
    assert rejected == 0

    # independent oracle: per draw, evaluate the candidate norm directly as a
    # coefficient-space quadratic form (c' - t beta sigma)^T G_mid (...)
    coeffs = [h1.ravel(), h2.ravel()]
    betas = [
        math.sqrt(c @ g_mid @ c) for c in coeffs
    ]
    sums = np.zeros(2)
    count = 0
    for block in sign_blocks(cfg.draws, 16, cfg.seed):
        for sigma in block:
            q_in = sigma @ g_in @ sigma
            q_mid = sigma @ g_mid @ sigma
            gamma = math.sqrt(q_in / q_mid)
            t = gamma / math.sqrt(q_mid)
            for i, c in enumerate(coeffs):
                best = -np.inf
                for beta in betas:
                    vec = c - t * beta * sigma
                    best = max(best, vec @ g_mid @ vec)
                sums[i] += best
            count += 1
    oracle = math.sqrt(min(sums / count))
    assert value == pytest.approx(oracle, rel=1e-8)


def test_approx_term_rejects_degenerate_draws():
    # rank-one mid Gram: the quadratic form vanishes whenever the signs are
    # orthogonal to the generating vector, and those draws must be rejected
    rng = np.random.default_rng(21)
    h = dense_stack(rng.standard_normal((2, 2)))
    v = np.array([1.0, -1.0, 1.0, -1.0])
    g_rank1 = np.outer(v, v)
    value, rejected, gammas = approx_term(
        h, g_rank1, g_rank1, [[1.0]], McConfig(draws=256, seed=3)
    )
    assert rejected > 0
    assert np.isfinite(value)
    assert gammas.size == 256 - rejected

    from opbounds.errors import DegenerateInputError

    with pytest.raises(DegenerateInputError):
        approx_term(
            h, np.zeros((4, 4)), np.zeros((4, 4)), [[1.0]], McConfig(draws=16, seed=0)
        )


def einsum_reference_approx_term(coeffs, g_in, g_mid, cfg):
    """The approximation term as first written: every quadratic form is a
    three-operand einsum, evaluated without BLAS."""
    coeff_mat = coeffs.reshape(len(coeffs), -1)
    norms_sq = np.einsum("ij,jk,ik->i", coeff_mat, g_mid, coeff_mat)
    norms = np.sqrt(np.maximum(norms_sq, 0.0))
    sum_sup = np.zeros(len(coeffs))
    used = 0
    rejected = 0
    gammas = []
    for block in sign_blocks(cfg.draws, g_in.shape[0], cfg.seed):
        q_in = np.maximum(np.einsum("ij,jk,ik->i", block, g_in, block), 0.0)
        q_mid = np.maximum(np.einsum("ij,jk,ik->i", block, g_mid, block), 0.0)
        ok = q_mid > 0.0
        rejected += int((~ok).sum())
        if not np.any(ok):
            continue
        blk = block[ok]
        q_in, q_mid = q_in[ok], q_mid[ok]
        gamma = np.sqrt(q_in / q_mid)
        gammas.append(gamma)
        t = gamma / np.sqrt(q_mid)
        inner = coeff_mat @ g_mid @ blk.T
        quad = (
            norms_sq[:, None, None]
            - 2.0 * t[None, :, None] * inner[:, :, None] * norms[None, None, :]
            + (gamma**2)[None, :, None] * (norms**2)[None, None, :]
        )
        sum_sup += quad.max(axis=2).sum(axis=1)
        used += blk.shape[0]
    value = float(np.sqrt(np.maximum(sum_sup / used, 0.0).min()))
    return value, rejected, np.concatenate(gammas)


@st.composite
def approx_term_cases(draw):
    m = draw(st.integers(1, 2))
    n = draw(st.integers(1, 40 // m))
    n_class = draw(st.integers(1, 4))
    draws = draw(st.integers(1, 1300))  # up to three 512-draw sign blocks
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = n * m
    b_in = rng.standard_normal((width, width + 2))
    b_mid = rng.standard_normal((width, width + 2))
    upper = dense_stack(*(rng.standard_normal((n, m)) for _ in range(n_class)))
    cfg = McConfig(draws=draws, seed=draw(st.integers(0, 2**31 - 1)))
    return upper, b_in @ b_in.T, b_mid @ b_mid.T, cfg


@settings(max_examples=100, deadline=None)
@given(approx_term_cases())
def test_approx_term_matches_einsum_reference(case):
    upper, g_in, g_mid, cfg = case
    value, rejected, gammas = approx_term(upper, g_in, g_mid, [[1.0]], cfg)
    ref_value, ref_rejected, ref_gammas = einsum_reference_approx_term(
        upper, g_in, g_mid, cfg
    )
    assert value == pytest.approx(ref_value, rel=1e-12)
    assert rejected == ref_rejected
    np.testing.assert_allclose(gammas, ref_gammas, rtol=1e-12, atol=0.0)


def test_approx_term_rejects_draws_on_duplicate_mid_points():
    # two copies of one mid point under a Gaussian kernel with M = I: every
    # scalar Gram entry is exactly 1, so a draw whose signs are opposite on the
    # two copies (in both outputs) has q_mid == 0 exactly and must be rejected
    rng = np.random.default_rng(22)
    pts, kernel, _ = _mid_setup(rng, n=2, m=2)
    mid = np.repeat(pts[:1], 2, axis=0)
    g_mid = gram_operator(kernel, mid)
    assert np.array_equal(g_mid, np.kron(np.ones((2, 2)), np.eye(2)))
    g_in = gram_operator(kernel, pts)
    upper = dense_stack(*(rng.standard_normal((2, 2)) for _ in range(2)))
    cfg = McConfig(draws=1100, seed=4)
    value, rejected, gammas = approx_term(upper, g_in, g_mid, [[1.0]], cfg)
    opposite = sum(
        int(np.all(block[:, :2] == -block[:, 2:], axis=1).sum())
        for block in sign_blocks(cfg.draws, 4, cfg.seed)
    )
    ref_value, ref_rejected, ref_gammas = einsum_reference_approx_term(
        upper, g_in, g_mid, cfg
    )
    assert rejected == opposite == ref_rejected
    assert 0 < rejected < cfg.draws
    assert gammas.size == cfg.draws - rejected
    assert np.all(np.isfinite(gammas)) and np.isfinite(value)
    assert value == pytest.approx(ref_value, rel=1e-12)
    np.testing.assert_allclose(gammas, ref_gammas, rtol=1e-12, atol=0.0)


def test_approx_term_rejects_round_off_degenerate_draws():
    # six mid points, each present twice in a shuffled order, under a Gaussian
    # kernel with M = I: a draw whose signs cancel on every pair has
    # ||u~_n|| = 0 in exact arithmetic, but its GEMM quadratic form can come
    # out at about 1e-16; such draws must be rejected, not kept with gamma ~ 1e8
    kernel = DecomposableKernel(
        ScalarKernelSpec("gaussian", 1.0, dimension=2), np.eye(1)
    )
    cfg = McConfig(draws=1024, seed=7)
    round_off_kept = 0
    for layout in range(12):
        rng = np.random.default_rng(layout)
        pts = rng.uniform(-1, 1, (6, 2))
        order = rng.permutation(12)
        mid = np.concatenate([pts, pts])[order]
        g_mid = gram_operator(kernel, mid)
        g_in = gram_operator(kernel, rng.uniform(-1, 1, (12, 2)))
        upper = np.stack([rng.standard_normal((12, 1)) for _ in range(2)])
        degenerate = 0
        for block in sign_blocks(cfg.draws, 12, cfg.seed):
            pair_sums = np.zeros((block.shape[0], 6))
            np.add.at(pair_sums.T, order % 6, block.T)
            cancel = np.all(pair_sums == 0.0, axis=1)
            degenerate += int(cancel.sum())
            kept = _quad_forms(block[cancel], g_mid, np.ones((1, 1))) > 0.0
            round_off_kept += int(kept.sum())
        value, rejected, gammas = approx_term(upper, g_in, g_mid, [[1.0]], cfg)
        assert rejected == degenerate, layout
        assert gammas.size == cfg.draws - rejected
        assert gammas.max() < 1e3 and value < 1e3, layout
    assert round_off_kept > 0  # the layouts do exercise the round-off case


def test_approx_term_cpu_time_at_width_600():
    # a guard against quadratic forms that bypass BLAS: the three-operand
    # einsum needs about 5 s of CPU here, one GEMM per sign block about 0.25 s
    rng = np.random.default_rng(23)
    pts, _, g_mid = _mid_setup(rng, n=300, m=2)
    other = DecomposableKernel(
        ScalarKernelSpec("gaussian", 0.5, dimension=2), np.eye(2)
    )
    g_in = gram_operator(other, pts)
    upper = dense_stack(*(rng.standard_normal((300, 2)) for _ in range(4)))
    started_cpu = time.process_time()
    started = time.perf_counter()
    value, rejected, gammas = approx_term(
        upper, g_in, g_mid, [[1.0]], McConfig(draws=4096, seed=5)
    )
    cpu = time.process_time() - started_cpu
    elapsed = time.perf_counter() - started
    assert rejected == 0 and gammas.size == 4096 and np.isfinite(value)
    assert cpu < 1.5, f"cpu {cpu:.2f}s, wall {elapsed:.2f}s"


@st.composite
def factor_approx_cases(draw):
    """Factor-form inputs: well-conditioned scalar Grams, an m x m output
    matrix of rank r <= m (a random PSD r x r block, zero-padded and
    permuted) and optionally duplicated mid points, whose cancelling draws
    must be rejected in both forms."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 3))
    rank = draw(st.integers(1, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = rng.standard_normal((rank, rank + 2))
    out = np.zeros((m, m))
    out[:rank, :rank] = b @ b.T
    perm = rng.permutation(m)
    out = out[perm][:, perm]
    b_in = rng.standard_normal((n, n + 2))
    if draw(st.booleans()):
        k = (n + 1) // 2
        b_mid = rng.standard_normal((k, k + 2))
        copies = rng.permutation(np.arange(n) % k)
        g_mid = (b_mid @ b_mid.T)[copies][:, copies]
    else:
        b_mid = rng.standard_normal((n, n + 2))
        g_mid = b_mid @ b_mid.T
    upper = np.stack([
        rng.standard_normal((n, m)) for _ in range(draw(st.integers(1, 4)))
    ])
    cfg = McConfig(draws=draw(st.integers(1, 1300)), seed=draw(st.integers(0, 2**31 - 1)))
    return upper, b_in @ b_in.T, g_mid, out, cfg


@settings(max_examples=100, deadline=None)
@given(factor_approx_cases())
def test_approx_term_factor_form_matches_dense_gram(case):
    upper, g_in, g_mid, out, cfg = case
    dense_in, dense_mid = np.kron(g_in, out), np.kron(g_mid, out)
    try:
        dense = approx_term(dense_stack(*upper), dense_in, dense_mid, [[1.0]], cfg)
    except DegenerateInputError:
        with pytest.raises(DegenerateInputError):
            approx_term(upper, g_in, g_mid, out, cfg)
        return
    value, rejected, gammas = approx_term(upper, g_in, g_mid, out, cfg)
    assert rejected == dense[1]
    assert value == pytest.approx(dense[0], rel=1e-12)
    np.testing.assert_allclose(gammas, dense[2], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "case", ["n=1", "m=1", "zero g", "rank-one M", "duplicate points"]
)
def test_approx_term_degenerate_inputs(case):
    rng = np.random.default_rng(24)
    spec = ScalarKernelSpec("gaussian", 1.0, dimension=2)
    pts = rng.uniform(-1, 1, (6, 2))
    out = np.eye(2)
    if case == "n=1":
        pts = pts[:1]
    elif case == "m=1":
        out = np.eye(1)
    elif case == "rank-one M":
        out = np.ones((2, 2))
    elif case == "duplicate points":
        pts = np.repeat(pts[:2], 3, axis=0)
    n, m = pts.shape[0], out.shape[0]
    upper = np.stack([rng.standard_normal((n, m)) for _ in range(3)])
    g_mid = gram_scalar(spec, pts)
    g_in = gram_scalar(ScalarKernelSpec("gaussian", 0.5, dimension=2), pts)
    cfg = McConfig(draws=700, seed=25)
    if case == "zero g":
        with pytest.raises(DegenerateInputError):
            approx_term(upper, np.zeros_like(g_in), np.zeros_like(g_mid), out, cfg)
        return
    value, rejected, gammas = approx_term(upper, g_in, g_mid, out, cfg)
    assert np.isfinite(value) and np.all(np.isfinite(gammas))
    assert 0 <= rejected < cfg.draws and gammas.size == cfg.draws - rejected


@st.composite
def joint_pass_cases(draw):
    """Inputs of one bound-compare pass: a data Gram G (indefinite in one
    case), a mid Gram (zero in one case, so every draw is rejected), an m x m
    output matrix of rank r <= m and 1-4 surrogates, over 1-1,200 draws so
    blocks cross the 512-draw boundary."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 3))
    rank = draw(st.integers(1, m))
    kind = draw(st.sampled_from(["psd", "zero mid", "indefinite G"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = rng.standard_normal((rank, rank + 2))
    out = np.zeros((m, m))
    out[:rank, :rank] = b @ b.T
    b_in = rng.standard_normal((n, n + 2))
    g = b_in @ b_in.T
    if kind == "indefinite G":
        g[0, 0] = -1.0 - g[0, 0]
    b_mid = rng.standard_normal((n, n + 2))
    g_mid = np.zeros((n, n)) if kind == "zero mid" else b_mid @ b_mid.T
    upper = np.stack([
        rng.standard_normal((n, m)) for _ in range(draw(st.integers(1, 4)))
    ])
    cfg = McConfig(draws=draw(st.integers(1, 1200)), seed=draw(st.integers(0, 2**31 - 1)))
    return kind, upper, g, g_mid, out, cfg


def _refuse_draws(*args, **kwargs):
    raise AssertionError("sign block drawn before the checks passed")


@settings(max_examples=100, deadline=None)
@given(joint_pass_cases())
def test_joint_pass_equals_estimators_run_one_by_one(case):
    # one pass feeding the ball, class and approximation estimators the same
    # blocks (the ball and the approximation term share the data-Gram forms)
    # gives exactly what each public estimator gives on its own
    kind, upper, g, g_mid, out, cfg = case
    n, m = g.shape[0], out.shape[0]
    preds = [g_mid @ c @ out for c in upper]
    if kind == "indefinite G":
        blocks = complexity.sign_blocks
        complexity.sign_blocks = _refuse_draws
        try:
            with pytest.raises(NotPsdError):
                BallMc(g, out, n)
        finally:
            complexity.sign_blocks = blocks
        return

    def estimators():
        return [BallMc(g, out, n), ClassMc(preds), ApproxMc(upper, g, g_mid, out)]

    joint = estimators()
    if kind == "zero mid":
        with pytest.raises(DegenerateInputError):
            run_mc(joint, cfg)
        assert joint[2].rejected == cfg.draws
        for est, alone in zip(joint[:2], estimators()):
            assert est.result() == run_mc([alone], cfg)[0]
        return
    ball, cls, (value, rejected, gammas) = run_mc(joint, cfg)
    alone = [run_mc([est], cfg)[0] for est in estimators()]
    assert ball == alone[0] and cls == alone[1]
    assert (value, rejected) == alone[2][:2]
    assert np.array_equal(gammas, alone[2][2])


def _split_pass(seed, n, m, rank, surrogates):
    """A factory of the estimators of a bound-compare pass as the CLI builds
    them: the data ball estimate and a SplitMc on n points, with a random
    m x m output matrix of rank ``rank``, or the identity when ``rank`` is 0."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((m, rank))
    out = b @ b.T if rank else np.eye(m)
    kernel = DecomposableKernel(ScalarKernelSpec("gaussian", 1.0, dimension=2), out)
    w = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
    net = NetworkSpec((layer(w), layer(np.eye(2))), g_norm=1.0)
    data = rng.uniform(-1, 1, (n, 2))
    g_in, g_mid = gram_scalar(kernel.scalar, data), gram_scalar(kernel.scalar, data @ w.T)
    coeffs = rng.standard_normal((surrogates, n, m))

    def estimators():
        split = SplitMc(net, 1, coeffs, kernel, g_in, g_mid)
        return [BallMc(g_in, kernel.output, n), *split.estimators]

    return estimators


@st.composite
def split_pass_cases(draw):
    """A split pass on n <= 30 points, m <= 3 (M of any rank, or the
    identity), 1-4 surrogates and 1-1,200 draws."""
    m = draw(st.integers(1, 3))
    estimators = _split_pass(
        draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 30)), m,
        draw(st.integers(0, m)), draw(st.integers(1, 4)),
    )
    cfg = McConfig(draws=draw(st.integers(1, 1200)), seed=draw(st.integers(0, 2**31 - 1)))
    return estimators, cfg


@settings(max_examples=60, deadline=None)
@given(split_pass_cases())
@example((_split_pass(1, 20, 3, 3, 3), McConfig(draws=513, seed=1)))  # tail block of 1
@example((_split_pass(2, 20, 3, 2, 4), McConfig(draws=1100, seed=2)))  # tail of 76
@example((_split_pass(3, 30, 2, 2, 1), McConfig(draws=600, seed=3)))  # tail of 88
@example((_split_pass(4, 1, 1, 1, 2), McConfig(draws=1, seed=4)))
@example((_split_pass(5, 20, 3, 0, 4), McConfig(draws=1100, seed=5)))  # M = I
@example((_split_pass(6, 1, 1, 0, 2), McConfig(draws=3, seed=6)))  # M = [[1.0]]
def test_split_pass_equals_pass_with_full_blocks(case):
    # raw-bit signs, products from the row-major signs, one column-major
    # copy, M applied in place unless it is the identity, and one sign
    # product shared by the class and approximation terms give the bits of a
    # pass that draws integer signs and keeps every block in full
    estimators, cfg = case
    ball, cls, (value, rejected, gammas) = run_mc(estimators(), cfg)
    want_ball, want_cls, (want_value, want_rejected, want_gammas) = run_mc_lazy(
        estimators(), cfg
    )
    assert ball == want_ball and cls == want_cls
    assert (value, rejected) == (want_value, want_rejected)
    assert gammas.tobytes() == want_gammas.tobytes()


# --- split bound ---------------------------------------------------------------------

def split_bound(net, l_prime, coeffs, data, kernel, mid, cfg):
    """The split bound's report from one Monte-Carlo pass, as the CLI runs it:
    the mid Gram takes the data kernel's scalar kernel at the mid points."""
    g_in, g_mid = gram_scalar(kernel.scalar, data), gram_scalar(kernel.scalar, mid)
    split = SplitMc(net, l_prime, coeffs, kernel, g_in, g_mid)
    return split.report(*run_mc(split.estimators, cfg))


def _split_setup(rng, identity_layers=True, n=10, d=2, m=2):
    data = rng.uniform(-1, 1, (n, d))
    if identity_layers:
        ws = [np.eye(d), np.eye(d)]
    else:
        ws = [np.eye(d) + 0.3 * rng.standard_normal((d, d)) for _ in range(2)]
    layers = tuple(layer(w, s_in=2.0) for w in ws)
    kernel = DecomposableKernel(
        ScalarKernelSpec("gaussian", 1.0, dimension=d), np.eye(m)
    )
    net = NetworkSpec(layers=layers, g_norm=1.5)
    mid = data.copy()
    for w in ws:
        mid = mid @ w.T
    return net, data, kernel, mid


def test_split_bound_full_split_reduces_toward_product_bound():
    rng = np.random.default_rng(10)
    net, data, kernel, mid = _split_setup(rng, identity_layers=False)
    raw = rng.standard_normal((10, 2))
    g_sur = KernelExpansion(kernel.scalar, kernel.output, mid, raw)
    scale = net.g_norm / expansion_norm(g_sur)
    g_sur = KernelExpansion(kernel.scalar, kernel.output, mid, raw * scale)
    cfg = McConfig(draws=400, seed=3)
    rep = split_bound(net, net.depth, g_sur.coeffs[None], data, kernel, mid, cfg)
    product = product_bound(net, kernel.scalar.kappa, kernel.trace_m(), 10)
    # same eta product structure: both carry the per-layer factors with no
    # activation norm on the final layer
    eta_t2 = rep.extras["eta_product"]
    eta_l1 = product.total / (product.extras["g_norm"] * product.extras["trace_root"])
    assert eta_t2 == pytest.approx(eta_l1, rel=1e-12)
    # approximation term obeys the norm bound ||g|| E^(1/2)[(1+gamma)^2]
    _, _, gammas = approx_term(
        dense_stack(g_sur.coeffs),
        gram_operator(kernel, data),
        gram_operator(kernel, mid),
        [[1.0]],
        cfg,
    )
    cap = expansion_norm(g_sur) * math.sqrt(np.mean((1.0 + gammas) ** 2))
    assert rep.extras["approximation_term"] <= cap * (1 + 1e-9)
    assert recompute_total(rep) == pytest.approx(rep.total, rel=1e-12)


def test_split_bound_zero_upper_class():
    rng = np.random.default_rng(11)
    net, data, kernel, mid = _split_setup(rng)
    zero = np.zeros((1, 10, 2))
    rep = split_bound(net, 1, zero, data, kernel, mid, McConfig(draws=64, seed=4))
    assert rep.extras["class_estimate"] == 0.0
    assert rep.extras["approximation_term"] == 0.0
    assert rep.total == 0.0


def test_split_bound_identity_layers_neutral():
    rng = np.random.default_rng(12)
    net, data, kernel, mid = _split_setup(rng, identity_layers=True)
    surrogate = 0.3 * rng.standard_normal((1, 10, 2))
    cfg = McConfig(draws=256, seed=5)
    rep = split_bound(net, 2, surrogate, data, kernel, mid, cfg)
    assert rep.extras["eta_product"] == pytest.approx(1.0, rel=1e-12)
    bracket = (
        rep.extras["class_estimate"]
        + rep.extras["trace_root"] * rep.extras["approximation_term"]
    )
    assert rep.total == pytest.approx(bracket, rel=1e-12)


# case -> (coefficient stack over 10 points and 2 outputs, error, message)
BAD_STACKS = {
    "empty": (np.zeros((0, 10, 2)), InputError, "stack"),
    "not 3-D": (np.zeros((10, 2)), InputError, "stack"),
    "wrong n": (np.zeros((2, 9, 2)), InputError, "stack"),
    "wrong m": (np.zeros((2, 10, 3)), InputError, "stack"),
    "non-finite": (np.full((2, 10, 2), np.nan), NumericError, "non-finite"),
    # finite coefficients whose squared RKHS norms overflow
    "overflowing": (np.full((2, 10, 2), 1e200), NumericError, "non-finite"),
}


@pytest.mark.parametrize("case", BAD_STACKS)
def test_approx_term_rejects_bad_coefficient_stacks(case):
    g = gram_scalar(ScalarKernelSpec("gaussian", 1.0, dimension=2), np.eye(10, 2))
    coeffs, error, message = BAD_STACKS[case]
    with pytest.raises(error, match=message):
        ApproxMc(coeffs, g, g, np.eye(2))


def test_split_bound_rejects_bad_coefficient_stacks():
    rng = np.random.default_rng(13)
    net, data, kernel, mid = _split_setup(rng)
    g_in, g_mid = gram_scalar(kernel.scalar, data), gram_scalar(kernel.scalar, mid)
    for coeffs, error, message in BAD_STACKS.values():
        with pytest.raises(error, match=message):
            SplitMc(net, 1, coeffs, kernel, g_in, g_mid)
    # mid points that do not pair one-to-one with the data
    with pytest.raises(InputError, match="equal shape"):
        SplitMc(net, 1, np.zeros((1, 10, 2)), kernel, g_in, g_mid[:9, :9])
