import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opbounds._rng import rademacher, substream
from opbounds.complexity import (
    _BLOCK,
    BallMc,
    ClassMc,
    McConfig,
    _check_psd,
    _quad_forms,
    run_mc,
    sign_blocks,
    trace_bound,
)
from opbounds.errors import InputError, NotPsdError
from opbounds.kernels import DecomposableKernel, KernelExpansion, ScalarKernelSpec, gram_scalar
from oracles import (
    expansion_norm,
    gram_operator,
    quad_forms_full,
    rademacher_ball_exact,
    rademacher_integers,
)


def ball_mc(g, out, n, cfg):
    (est,) = run_mc([BallMc(g, out, n)], cfg)
    return est


def class_mc(predictions, cfg):
    (est,) = run_mc([ClassMc(predictions)], cfg)
    return est


def random_psd(k, rng, jitter=0.0):
    b = rng.standard_normal((k, k))
    return b @ b.T + jitter * np.eye(k)


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 40),
    m=st.integers(1, 3),
    rows=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
)
def test_quad_forms_match_per_row_products(width, m, rows, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((width, width + 2))
    g = g @ g.T
    out = random_psd(m, rng)
    signs = rng.integers(0, 2, size=(rows, width * m)) * 2.0 - 1.0
    dense = np.kron(g, out)
    expected = np.array([sigma @ dense @ sigma for sigma in signs])
    np.testing.assert_allclose(_quad_forms(signs, g, out), expected, rtol=1e-12, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(
    draws=st.integers(1, 512),
    width=st.integers(1, 600),
    seed=st.integers(0, 2**64 - 1),
    counter=st.integers(0, 2**16),
)
def test_rademacher_equals_integer_draw(draws, width, seed, counter):
    # the raw-bit draw gives the bits of the integer draw, odd totals
    # included, and leaves the generator where a sketch row's next
    # ``random`` call reads the same values after either draw
    g_raw, g_int = substream(seed, counter), substream(seed, counter)
    got = rademacher(g_raw, np.empty((draws, width)))
    want = rademacher_integers(g_int, (draws, width))
    assert got.tobytes() == want.tobytes()
    assert g_raw.random(3).tobytes() == g_int.random(3).tobytes()


@pytest.mark.parametrize("total, width", [(1, 1), (512, 3), (1100, 7), (1537, 600)])
def test_sign_blocks_draw_block_c_from_substream_c(total, width):
    counts = []
    for c, block in enumerate(sign_blocks(total, width, 11)):
        counts.append(len(block))
        want = rademacher_integers(substream(11, c), (len(block), width))
        assert block.flags.c_contiguous and block.tobytes() == want.tobytes()
    assert counts == [min(_BLOCK, total - start) for start in range(0, total, _BLOCK)]


@settings(max_examples=100, deadline=None)
@given(
    width=st.integers(1, 30),
    m=st.integers(1, 3),
    rows=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
)
def test_quad_forms_identity_m_and_work_array_change_no_bit(width, m, rows, seed):
    # multiplying by the identity changes no value, and a given work array
    # receives the G Sigma a fresh one would
    rng = np.random.default_rng(seed)
    g = random_psd(width, rng)
    signs = np.asfortranarray(rademacher_integers(rng, (rows, width * m)))
    want = quad_forms_full(signs, g, np.eye(m))
    work = np.empty((rows, width * m))
    assert _quad_forms(signs, g, np.eye(m)).tobytes() == want.tobytes()
    assert _quad_forms(signs, g, np.eye(m), work).tobytes() == want.tobytes()
    out = random_psd(m, rng)
    assert (
        _quad_forms(signs, g, out, work).tobytes() == _quad_forms(signs, g, out).tobytes()
    )


@st.composite
def factor_cases(draw):
    """Scalar Gram, output matrix of rank r <= m (a random PSD r x r block,
    zero-padded and permuted) and MC config."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 3))
    rank = draw(st.integers(1, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_psd(n, rng)
    out = np.zeros((m, m))
    out[:rank, :rank] = random_psd(rank, rng)
    perm = rng.permutation(m)
    cfg = McConfig(draws=draw(st.integers(1, 1300)), seed=draw(st.integers(0, 2**31 - 1)))
    return g, out[perm][:, perm], cfg


@settings(max_examples=100, deadline=None)
@given(factor_cases())
def test_ball_mc_factor_form_matches_dense_gram(case):
    g, out, cfg = case
    n = g.shape[0]
    factor = ball_mc(g, out, n, cfg)
    dense = ball_mc(np.kron(g, out), [[1.0]], n, cfg)
    assert factor.estimate == pytest.approx(dense.estimate, rel=1e-12)
    assert factor.stderr == pytest.approx(dense.stderr, rel=1e-6, abs=1e-7 * dense.estimate)


def _spectrum_matrix(k, kind, rng):
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    low, high = {"psd": (0.0, 2.0), "nsd": (-2.0, 0.0), "indefinite": (-1.0, 2.0)}[kind]
    vals = rng.uniform(low, high, k)
    if kind == "indefinite" and k > 1:
        vals[:2] = (-1.0, 1.0)
    return (q * vals) @ q.T


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 8),
    m=st.integers(1, 3),
    g_kind=st.sampled_from(["psd", "nsd", "indefinite"]),
    out_kind=st.sampled_from(["psd", "nsd", "indefinite"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_check_psd_same_verdict_in_factor_and_dense_form(n, m, g_kind, out_kind, seed):
    rng = np.random.default_rng(seed)
    g = _spectrum_matrix(n, g_kind, rng)
    out = _spectrum_matrix(m, out_kind, rng)

    def raises(a, b):
        try:
            _check_psd(a, b)
        except NotPsdError:
            return True
        return False

    factor = raises(g, out)
    assert factor == raises(np.kron(g, out), np.ones((1, 1)))
    # G (x) M is PSD exactly when no eigenvalue product is clearly negative
    products = np.outer(np.linalg.eigvalsh(g), np.linalg.eigvalsh(out))
    assert factor == (products.min() < -1e-10 * max(abs(products.max()), 1.0))


@pytest.mark.parametrize(
    "case", ["n=1", "m=1", "zero g", "rank-one M", "duplicate points"]
)
def test_ball_mc_degenerate_inputs(case):
    rng = np.random.default_rng(15)
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
    g = np.zeros((6, 6)) if case == "zero g" else gram_scalar(spec, pts)
    n = g.shape[0]
    est = ball_mc(g, out, n, McConfig(draws=700, seed=16))
    assert np.isfinite(est.estimate) and np.isfinite(est.stderr)
    jensen = math.sqrt(np.trace(g) * np.trace(out)) / n
    assert 0.0 <= est.estimate <= jensen + 3 * est.stderr + 1e-12


def test_single_point_scalar_ball():
    est = ball_mc(np.array([[1.0]]), [[1.0]], 1, McConfig(draws=200, seed=0))
    assert est.estimate == pytest.approx(1.0)
    assert est.stderr == pytest.approx(0.0, abs=1e-15)


def test_zero_gram():
    est = ball_mc(np.zeros((4, 4)), [[1.0]], 2, McConfig(draws=100, seed=0))
    assert est.estimate == 0.0


def test_ball_below_trace_bound():
    rng = np.random.default_rng(0)
    n, m = 16, 2
    pts = rng.uniform(-1, 1, (n, 2))
    kernel = DecomposableKernel(
        ScalarKernelSpec("gaussian", 1.0, dimension=2), np.eye(m)
    )
    g = gram_scalar(kernel.scalar, pts)
    est = ball_mc(g, kernel.output, n, McConfig(draws=4000, seed=1))
    assert est.estimate <= trace_bound(1.0, float(m), n) + 3 * est.stderr


def brute_enumeration(g, n):
    width = g.shape[0]
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=width):
        s = np.array(signs)
        total += np.sqrt(max(s @ g @ s, 0.0))
    return total / (2**width) / n


def test_exact_matches_independent_enumeration():
    rng = np.random.default_rng(2)
    g = random_psd(6, rng)
    assert rademacher_ball_exact(g, 3) == pytest.approx(brute_enumeration(g, 3), rel=1e-12)


def test_mc_matches_exact_within_stderr():
    rng = np.random.default_rng(3)
    g = random_psd(10, rng)
    exact = rademacher_ball_exact(g, 5)
    est = ball_mc(g, [[1.0]], 5, McConfig(draws=20_000, seed=4))
    assert abs(est.estimate - exact) <= 3 * est.stderr


def test_exact_permutation_invariance():
    rng = np.random.default_rng(5)
    n, m = 3, 2
    pts = rng.standard_normal((n, 2))
    kernel = DecomposableKernel(
        ScalarKernelSpec("gaussian", 0.8, dimension=2), random_psd(m, rng)
    )
    g = gram_operator(kernel, pts)
    perm = np.array([2, 0, 1])
    p_blocks = np.kron(np.eye(n)[perm], np.eye(m))
    g_perm = p_blocks @ g @ p_blocks.T
    assert rademacher_ball_exact(g, n) == pytest.approx(
        rademacher_ball_exact(g_perm, n), rel=1e-12
    )


def test_mc_permutation_invariance_within_noise():
    rng = np.random.default_rng(6)
    n, m = 12, 2
    pts = rng.standard_normal((n, 2))
    kernel = DecomposableKernel(
        ScalarKernelSpec("gaussian", 0.8, dimension=2), np.eye(m)
    )
    g = gram_operator(kernel, pts)
    perm = rng.permutation(n)
    p_blocks = np.kron(np.eye(n)[perm], np.eye(m))
    g_perm = p_blocks @ g @ p_blocks.T
    cfg = McConfig(draws=8000, seed=7)
    a = ball_mc(g, [[1.0]], n, cfg)
    b = ball_mc(g_perm, [[1.0]], n, cfg)
    assert abs(a.estimate - b.estimate) <= 3 * (a.stderr + b.stderr)


def test_determinism_and_seed_sensitivity():
    rng = np.random.default_rng(8)
    g = random_psd(8, rng)
    cfg = McConfig(draws=500, seed=9)
    a = ball_mc(g, [[1.0]], 4, cfg)
    b = ball_mc(g, [[1.0]], 4, cfg)
    assert a == b
    c = ball_mc(g, [[1.0]], 4, McConfig(draws=500, seed=10))
    assert a.estimate != c.estimate


def test_ball_rejects_non_psd():
    with pytest.raises(NotPsdError):
        ball_mc(np.diag([1.0, -1.0]), [[1.0]], 2, McConfig(draws=10, seed=0))


def test_trace_bound_values():
    assert trace_bound(1.0, 3.0, 100) == pytest.approx(0.173205, abs=1e-6)
    assert trace_bound(1.0, 0.0, 10) == 0.0
    assert trace_bound(2.0, 3.0, 400) == pytest.approx(trace_bound(2.0, 3.0, 100) / 2)
    with pytest.raises(InputError):
        trace_bound(1.0, 1.0, 0)


def test_class_zero_predictor():
    est = class_mc([np.zeros((3, 2))], McConfig(draws=50, seed=0))
    assert est.estimate == 0.0


def test_class_sign_symmetry():
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((5, 2))
    cfg = McConfig(draws=600, seed=12)
    pair = class_mc([vals, -vals], cfg)
    single = class_mc([vals], cfg)
    assert pair.estimate == pytest.approx(single.estimate, rel=1e-12)


def test_class_contained_in_ball():
    rng = np.random.default_rng(13)
    n, m = 10, 2
    pts = rng.uniform(-1, 1, (n, 2))
    kernel = DecomposableKernel(
        ScalarKernelSpec("gaussian", 1.0, dimension=2), np.eye(m)
    )
    predictions = []
    for k in range(50):
        coeffs = np.random.default_rng(100 + k).standard_normal((n, m))
        exp = KernelExpansion(kernel.scalar, kernel.output, pts, coeffs)
        norm = expansion_norm(exp)
        predictions.append(
            KernelExpansion(kernel.scalar, kernel.output, pts, coeffs / norm).at(pts)
        )
    g = gram_scalar(kernel.scalar, pts)
    cfg = McConfig(draws=3000, seed=14)
    ball, cls = run_mc([BallMc(g, kernel.output, n), ClassMc(predictions)], cfg)
    assert cls.estimate <= ball.estimate + 3 * (ball.stderr + cls.stderr)


def test_class_requires_nonempty():
    with pytest.raises(InputError):
        ClassMc([])


def test_class_calls_each_predictor_once_on_the_whole_batch():
    # the predictions are read once, when the estimator is built, so a
    # generator that calls each predictor on the whole batch serves
    data = np.random.default_rng(17).standard_normal((7, 2))
    calls = []

    def make(k):
        def f(x):
            calls.append((k, np.shape(x)))
            return np.full((len(x), 2), float(k))

        return f

    est = ClassMc((f(data) for f in [make(k) for k in range(3)]))
    assert calls == [(0, (7, 2)), (1, (7, 2)), (2, (7, 2))]
    run_mc([est], McConfig(draws=600, seed=18))
    assert len(calls) == 3


def test_class_rejects_per_row_predictor_shape():
    # n and m are read from the first prediction, which must be an (n, m)
    # array, and every later one must share its shape
    with pytest.raises(InputError):
        ClassMc([np.zeros(2)])
    with pytest.raises(InputError, match="first"):
        ClassMc([np.zeros((3, 2)), np.zeros((2, 3))])
    assert ClassMc([np.zeros((3, 2))] * 2).width == 6
