import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opbounds.complexity import (
    McConfig,
    _quad_forms,
    rademacher_ball_exact,
    rademacher_ball_mc,
    rademacher_class_mc,
    trace_bound,
)
from opbounds.errors import InputError, NotPsdError
from opbounds.kernels import DecomposableKernel, KernelExpansion, ScalarKernelSpec, gram_operator


def random_psd(k, rng, jitter=0.0):
    b = rng.standard_normal((k, k))
    return b @ b.T + jitter * np.eye(k)


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 40),
    rows=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
)
def test_quad_forms_match_per_row_products(width, rows, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((width, width + 2))
    g = g @ g.T
    signs = rng.integers(0, 2, size=(rows, width)) * 2.0 - 1.0
    expected = np.array([sigma @ g @ sigma for sigma in signs])
    np.testing.assert_allclose(_quad_forms(signs, g), expected, rtol=1e-12, atol=0.0)


def test_single_point_scalar_ball():
    est = rademacher_ball_mc(np.array([[1.0]]), 1, McConfig(draws=200, seed=0))
    assert est.estimate == pytest.approx(1.0)
    assert est.stderr == pytest.approx(0.0, abs=1e-15)


def test_zero_gram():
    est = rademacher_ball_mc(np.zeros((4, 4)), 2, McConfig(draws=100, seed=0))
    assert est.estimate == 0.0


def test_ball_below_trace_bound():
    rng = np.random.default_rng(0)
    n, m = 16, 2
    pts = rng.uniform(-1, 1, (n, 2))
    kernel = DecomposableKernel(
        ScalarKernelSpec("gaussian", 1.0, dimension=2), np.eye(m), kappa=1.0
    )
    g = gram_operator(kernel, pts)
    est = rademacher_ball_mc(g, n, McConfig(draws=4000, seed=1))
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
    est = rademacher_ball_mc(g, 5, McConfig(draws=20_000, seed=4))
    assert abs(est.estimate - exact) <= 3 * est.stderr


def test_exact_permutation_invariance():
    rng = np.random.default_rng(5)
    n, m = 3, 2
    pts = rng.standard_normal((n, 2))
    kernel = DecomposableKernel(
        ScalarKernelSpec("gaussian", 0.8, dimension=2), random_psd(m, rng), kappa=1.0
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
        ScalarKernelSpec("gaussian", 0.8, dimension=2), np.eye(m), kappa=1.0
    )
    g = gram_operator(kernel, pts)
    perm = rng.permutation(n)
    p_blocks = np.kron(np.eye(n)[perm], np.eye(m))
    g_perm = p_blocks @ g @ p_blocks.T
    cfg = McConfig(draws=8000, seed=7)
    a = rademacher_ball_mc(g, n, cfg)
    b = rademacher_ball_mc(g_perm, n, cfg)
    assert abs(a.estimate - b.estimate) <= 3 * (a.stderr + b.stderr)


def test_determinism_and_seed_sensitivity():
    rng = np.random.default_rng(8)
    g = random_psd(8, rng)
    cfg = McConfig(draws=500, seed=9)
    a = rademacher_ball_mc(g, 4, cfg)
    b = rademacher_ball_mc(g, 4, cfg)
    assert a == b
    c = rademacher_ball_mc(g, 4, McConfig(draws=500, seed=10))
    assert a.estimate != c.estimate


def test_ball_rejects_non_psd():
    with pytest.raises(NotPsdError):
        rademacher_ball_mc(np.diag([1.0, -1.0]), 2, McConfig(draws=10, seed=0))


def test_trace_bound_values():
    assert trace_bound(1.0, 3.0, 100) == pytest.approx(0.173205, abs=1e-6)
    assert trace_bound(1.0, 0.0, 10) == 0.0
    assert trace_bound(2.0, 3.0, 400) == pytest.approx(trace_bound(2.0, 3.0, 100) / 2)
    with pytest.raises(InputError):
        trace_bound(1.0, 1.0, 0)


def test_class_zero_predictor():
    data = np.zeros((3, 2))
    est = rademacher_class_mc([lambda x: np.zeros(2)], data, 2, McConfig(draws=50, seed=0))
    assert est.estimate == 0.0


def test_class_sign_symmetry():
    rng = np.random.default_rng(11)
    data = rng.standard_normal((5, 2))
    vals = rng.standard_normal((5, 2))

    def f(x):
        i = int(np.flatnonzero((data == x).all(axis=1))[0])
        return vals[i]

    def neg_f(x):
        return -f(x)

    cfg = McConfig(draws=600, seed=12)
    pair = rademacher_class_mc([f, neg_f], data, 2, cfg)
    single = rademacher_class_mc([f], data, 2, cfg)
    assert pair.estimate == pytest.approx(single.estimate, rel=1e-12)


def test_class_contained_in_ball():
    rng = np.random.default_rng(13)
    n, m = 10, 2
    pts = rng.uniform(-1, 1, (n, 2))
    kernel = DecomposableKernel(
        ScalarKernelSpec("gaussian", 1.0, dimension=2), np.eye(m), kappa=1.0
    )
    predictors = []
    for k in range(50):
        coeffs = np.random.default_rng(100 + k).standard_normal((n, m))
        exp = KernelExpansion(kernel, pts, coeffs)
        norm = exp.norm()
        predictors.append(KernelExpansion(kernel, pts, coeffs / norm).at)
    g = gram_operator(kernel, pts)
    cfg = McConfig(draws=3000, seed=14)
    ball = rademacher_ball_mc(g, n, cfg)
    cls = rademacher_class_mc(predictors, pts, m, cfg)
    assert cls.estimate <= ball.estimate + 3 * (ball.stderr + cls.stderr)


def test_class_requires_nonempty():
    with pytest.raises(InputError):
        rademacher_class_mc([], np.zeros((2, 1)), 1, McConfig(draws=10, seed=0))
