"""Library functions on degenerate inputs: one point, duplicate points, all-zero
labels, one output, a rank-deficient output matrix M and sketches with more
rows than points.  Each call must return finite numbers or raise a typed
OpboundsError; a bare numpy error or a NaN fails the test."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opbounds.complexity import McConfig, rademacher_ball_mc
from opbounds.erm import FitConfig, fit_full, fit_sketched
from opbounds.errors import OpboundsError
from opbounds.kernels import DecomposableKernel, ScalarKernelSpec, gram_scalar
from opbounds.losses import LossSpec
from opbounds.sketching import SketchSpec, make_p_sparsified
from opbounds.spectral import (
    check_satisfiability,
    critical_radius,
    eigendecompose_scaled_gram,
    pencil_max,
    statistical_dimension,
)


@st.composite
def degenerate_problems(draw):
    """Points, labels and a decomposable kernel, each possibly degenerate."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1.0, 1.0, (n, d))
    if draw(st.booleans()):  # duplicate points: every row is one of a few
        x = x[rng.integers(0, draw(st.integers(1, n)), size=n)]
    y = np.zeros((n, m)) if draw(st.booleans()) else rng.standard_normal((n, m))
    rank = draw(st.integers(0, m))  # rank < m: M is rank-deficient
    b = rng.standard_normal((m, rank))
    out = b @ b.T if rank < m else b @ b.T + 0.1 * np.eye(m)
    bandwidth = draw(st.sampled_from([1e-3, 1.0, 50.0]))
    kernel = DecomposableKernel(ScalarKernelSpec("gaussian", bandwidth, dimension=d), out, 1.0)
    return x, y, kernel


def _finite_or_typed(call):
    """call()'s numbers, asserted finite; None when it raised OpboundsError."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # advisory warnings, e.g. s > n
        try:
            values = call()
        except OpboundsError:
            return None
    flat = np.concatenate([np.ravel(np.asarray(v, dtype=float)) for v in values])
    assert np.all(np.isfinite(flat)), values
    return values


LOSSES = st.sampled_from(["squared", "huber", "pinball"])
ROWS = st.integers(1, 12)  # sketch rows: fewer or more than the n <= 8 points


def _loss(family: str, m: int) -> LossSpec:
    return LossSpec(family, quantiles=np.linspace(0.2, 0.8, m) if family == "pinball" else ())


def _fit_numbers(model):
    diag = model.diagnostics
    return model.coeffs, diag.objective, diag.grad_norm


@settings(max_examples=100, deadline=None)
@given(degenerate_problems(), LOSSES)
def test_fit_full_is_finite_or_typed(problem, family):
    x, y, kernel = problem
    cfg = FitConfig(lambda_n=0.1, max_iters=15)
    loss = _loss(family, y.shape[1])
    got = _finite_or_typed(lambda: _fit_numbers(fit_full(kernel, x, y, loss, cfg)))
    if np.linalg.eigvalsh(kernel.output)[0] > 1e-6:
        assert got is not None  # a strictly PD M is not degenerate for the fit


@settings(max_examples=100, deadline=None)
@given(degenerate_problems(), LOSSES, ROWS, st.sampled_from([0.3, 1.0]), st.integers(0, 1000))
def test_fit_sketched_is_finite_or_typed(problem, family, rows, p, seed):
    x, y, kernel = problem
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rows > n
        sketch = make_p_sparsified(SketchSpec(s=rows, n=x.shape[0], p=p, seed=seed))
    cfg = FitConfig(lambda_n=0.1, max_iters=15)
    _finite_or_typed(
        lambda: _fit_numbers(fit_sketched(kernel, x, y, _loss(family, y.shape[1]), cfg, sketch))
    )


@settings(max_examples=100, deadline=None)
@given(degenerate_problems(), st.integers(1, 700), st.integers(0, 1000))
def test_rademacher_ball_mc_is_finite_or_typed(problem, draws, seed):
    x, _, kernel = problem
    g = gram_scalar(kernel.scalar, x)
    got = _finite_or_typed(
        lambda: rademacher_ball_mc(g, kernel.output, x.shape[0], McConfig(draws, seed))
    )
    assert got is not None
    assert got.estimate >= 0.0 and got.stderr >= 0.0


@settings(max_examples=100, deadline=None)
@given(degenerate_problems(), ROWS, st.sampled_from([0.3, 1.0]), st.integers(0, 1000))
def test_spectrum_chain_is_finite_or_typed(problem, rows, p, seed):
    x, _, kernel = problem
    n = x.shape[0]
    g = gram_scalar(kernel.scalar, x)

    def chain():
        dec = eigendecompose_scaled_gram(g, n)
        delta_sq = critical_radius(dec.mu)
        d_n = statistical_dimension(dec.mu, delta_sq)
        sketch = make_p_sparsified(SketchSpec(s=rows, n=n, p=p, seed=seed))
        report = check_satisfiability(sketch, dec, d_n, delta_sq, 3.0)
        assert 1 <= d_n <= n
        return dec.mu, delta_sq, d_n, report.norm1, report.norm2

    assert _finite_or_typed(chain) is not None


@settings(max_examples=100, deadline=None)
@given(degenerate_problems(), st.integers(0, 4))
def test_pencil_max_is_finite_or_typed(problem, rank):
    x, _, kernel = problem
    n = x.shape[0]
    g_bottom = gram_scalar(kernel.scalar, x)
    b = np.random.default_rng(rank).standard_normal((n, min(rank, n)))
    g_top = b @ b.T  # rank 0 gives the zero matrix
    got = _finite_or_typed(lambda: (pencil_max(g_top, g_bottom),))
    assert got is not None and got[0] >= 0.0
