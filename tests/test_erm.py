import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opbounds.erm import (
    ExcessRiskBound,
    FitConfig,
    empirical_risk,
    excess_risk_bound_rhs,
    fit_full,
    fit_sketched,
    objective_full,
    objective_sketched,
)
from opbounds.errors import InputError, NumericError, OpboundsError, UnboundedLossError
from opbounds.kernels import DecomposableKernel, ScalarKernelSpec, gram_scalar
from opbounds.losses import LossSpec, loss_value
from opbounds.sketching import SketchMatrix, SketchSpec, make_p_sparsified
from opbounds.spectral import eigendecompose_scaled_gram
from oracles import coefficient_norm, solve_squared_full

SQUARED = LossSpec("squared")
PINBALL = LossSpec("pinball", quantiles=(0.25, 0.75))
HUBER = LossSpec("huber", huber_delta=0.5)


def make_problem(seed, n=12, d=2, m=2, pd_output=True):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, d))
    y = rng.standard_normal((n, m))
    if pd_output:
        b = rng.standard_normal((m, m))
        m_mat = b @ b.T + 0.5 * np.eye(m)
    else:
        m_mat = np.eye(m)
    kernel = DecomposableKernel(
        ScalarKernelSpec("gaussian", 1.0, dimension=d), m_mat
    )
    return kernel, x, y


def test_single_point_zero_target_gives_zero_coeffs():
    kernel, x, _ = make_problem(0, n=1)
    y = np.zeros((1, 2))
    model = fit_full(kernel, x, y, SQUARED, FitConfig(lambda_n=0.3))
    assert np.array_equal(model.coeffs, np.zeros((1, 2)))


@pytest.mark.parametrize("seed", range(5))
def test_squared_full_stationarity(seed):
    kernel, x, y = make_problem(seed)
    cfg = FitConfig(lambda_n=0.05)
    model = fit_full(kernel, x, y, SQUARED, cfg)
    g = gram_scalar(kernel.scalar, x)
    n = x.shape[0]
    grad = g @ ((2.0 / n) * (g @ model.coeffs @ kernel.output - y)
                + cfg.lambda_n * model.coeffs) @ kernel.output
    assert np.linalg.norm(grad) <= 1e-8


def test_pinball_descends_from_zero():
    kernel, x, y = make_problem(1, n=20)
    cfg = FitConfig(lambda_n=0.05, max_iters=200, step_size=1.0, tol=1e-6)
    model = fit_full(kernel, x, y, PINBALL, cfg)
    g = gram_scalar(kernel.scalar, x)
    at_zero = objective_full(kernel, g, y, PINBALL, cfg.lambda_n, np.zeros_like(y))
    assert model.diagnostics.objective <= at_zero


@pytest.mark.parametrize("fit", ["full", "sketched"])
def test_huber_descends_from_zero(fit):
    kernel, x, y = make_problem(6, n=20)
    cfg = FitConfig(lambda_n=0.05, max_iters=60, step_size=0.5, tol=1e-9)
    g = gram_scalar(kernel.scalar, x)
    if fit == "full":
        model = fit_full(kernel, x, y, HUBER, cfg)
        at_zero = objective_full(kernel, g, y, HUBER, cfg.lambda_n, np.zeros_like(y))
    else:
        sk = make_p_sparsified(SketchSpec(s=8, n=20, p=1.0, dist="gaussian", seed=2))
        model = fit_sketched(kernel, x, y, HUBER, cfg, sk)
        at_zero = objective_sketched(
            kernel, g, y, HUBER, cfg.lambda_n, sk.matrix, np.zeros((8, 2))
        )
    assert model.diagnostics.iterations >= 1
    assert model.diagnostics.objective <= at_zero


def _row_by_row_mean(loss, preds, y):
    # the scalar reference: one loss call per row, summed left to right
    return sum(loss_value(loss, preds[i], y[i]) for i in range(y.shape[0])) / y.shape[0]


@pytest.mark.parametrize("loss", [PINBALL, HUBER, SQUARED], ids=lambda spec: spec.family)
@pytest.mark.parametrize("seed", range(4))
def test_objectives_match_row_by_row_reference(loss, seed):
    kernel, x, y = make_problem(30 + seed, n=17)
    rng = np.random.default_rng(seed)
    lam = 0.07
    g = gram_scalar(kernel.scalar, x)
    m_mat = kernel.output
    a = rng.standard_normal(y.shape)
    expected = _row_by_row_mean(loss, g @ a @ m_mat, y) + 0.5 * lam * float(
        np.sum((g @ a) * (a @ m_mat))
    )
    assert objective_full(kernel, g, y, loss, lam, a) == expected

    s_dense = rng.standard_normal((5, 17))
    gamma = rng.standard_normal((5, 2))
    k_sk = g @ s_dense.T
    expected = _row_by_row_mean(loss, k_sk @ gamma @ m_mat, y) + 0.5 * lam * float(
        np.sum(((s_dense @ k_sk) @ gamma) * (gamma @ m_mat))
    )
    assert objective_sketched(kernel, g, y, loss, lam, s_dense, gamma) == expected

    model = fit_full(kernel, x, y, loss, FitConfig(lambda_n=lam, max_iters=5))
    assert empirical_risk(model, x, y, loss) == _row_by_row_mean(loss, model.predict(x), y)


@pytest.mark.parametrize("seed", range(10))
def test_identity_sketch_equivalence(seed):
    kernel, x, y = make_problem(seed, n=10)
    cfg = FitConfig(lambda_n=0.08)
    n = x.shape[0]
    identity = SketchMatrix(matrix=np.eye(n))
    full = fit_full(kernel, x, y, SQUARED, cfg)
    sketched = fit_sketched(kernel, x, y, SQUARED, cfg, identity)
    assert np.abs(full.predict(x) - sketched.predict(x)).max() <= 1e-8


def test_sketched_monotone_descent_from_zero():
    kernel, x, y = make_problem(3, n=16)
    cfg = FitConfig(lambda_n=0.05, max_iters=60, step_size=0.5, tol=1e-9)
    sk = make_p_sparsified(SketchSpec(s=6, n=16, p=1.0, dist="gaussian", seed=5))
    model = fit_sketched(kernel, x, y, PINBALL, cfg, sk)
    g = gram_scalar(kernel.scalar, x)
    at_zero = objective_sketched(
        kernel, g, y, PINBALL, cfg.lambda_n, sk.matrix, np.zeros((6, 2))
    )
    assert model.diagnostics.objective <= at_zero


def test_quarter_sketch_risk_within_factor_two():
    rng = np.random.default_rng(7)
    n, d, m = 32, 2, 2
    x = rng.uniform(-1, 1, (n, d))
    # smooth teacher plus noise keeps the full-fit risk bounded away from zero
    y = np.stack([np.sin(x @ np.array([1.0, 0.5])), np.cos(x @ np.array([0.3, -1.0]))], axis=1)
    y += 0.1 * rng.standard_normal((n, m))
    kernel = DecomposableKernel(
        ScalarKernelSpec("gaussian", 1.0, dimension=d), np.eye(m)
    )
    cfg = FitConfig(lambda_n=0.1)
    sk = make_p_sparsified(SketchSpec(s=n // 4, n=n, p=1.0, dist="gaussian", seed=11))
    full = fit_full(kernel, x, y, SQUARED, cfg)
    sketched = fit_sketched(kernel, x, y, SQUARED, cfg, sk)
    r_full = empirical_risk(full, x, y, SQUARED)
    r_sketched = empirical_risk(sketched, x, y, SQUARED)
    assert r_sketched <= 2.0 * r_full


def test_solver_determinism():
    kernel, x, y = make_problem(9, n=14)
    cfg = FitConfig(lambda_n=0.02, max_iters=80, step_size=0.7, tol=1e-9)
    a = fit_full(kernel, x, y, PINBALL, cfg)
    b = fit_full(kernel, x, y, PINBALL, cfg)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_ridge_shrinkage_monotone_in_lambda():
    # doubling lambda_n never increases the fitted RKHS norm
    for seed in range(6):
        kernel, x, y = make_problem(20 + seed)
        small = fit_full(kernel, x, y, SQUARED, FitConfig(lambda_n=0.03))
        large = fit_full(kernel, x, y, SQUARED, FitConfig(lambda_n=0.06))
        assert coefficient_norm(large) <= coefficient_norm(small) + 1e-12


def test_singular_output_matrix_rejected():
    kernel, x, y = make_problem(2, pd_output=False)
    singular = DecomposableKernel(
        kernel.scalar, np.diag([1.0, 0.0])
    )
    with pytest.raises(InputError):
        fit_full(singular, x, y, SQUARED, FitConfig(lambda_n=0.1))


def test_nonconverged_flagged_not_silent():
    kernel, x, y = make_problem(4, n=18)
    cfg = FitConfig(lambda_n=0.05, max_iters=2, step_size=0.5, tol=1e-14)
    model = fit_full(kernel, x, y, PINBALL, cfg)
    assert not model.diagnostics.converged
    assert model.diagnostics.warning is not None


def test_empirical_risk_cases():
    kernel, x, y = make_problem(5)

    def perfect(pts):
        return y

    assert empirical_risk(perfect, x, y, SQUARED) == 0.0
    ones = np.ones((4, 1))
    zeros = lambda pts: np.zeros((pts.shape[0], 1))  # noqa: E731
    assert empirical_risk(zeros, np.zeros((4, 2)), ones, SQUARED) == pytest.approx(1.0)
    # additivity over concatenated equal halves
    half_x, half_y = x[:6], y[:6]
    both_x = np.vstack([half_x, half_x])
    both_y = np.vstack([half_y, half_y])
    pred = lambda pts: np.zeros((pts.shape[0], 2))  # noqa: E731
    assert empirical_risk(pred, both_x, both_y, SQUARED) == pytest.approx(
        empirical_risk(pred, half_x, half_y, SQUARED)
    )
    with pytest.raises(InputError):
        empirical_risk(pred, np.zeros((0, 2)), np.zeros((0, 2)), SQUARED)


@pytest.mark.filterwarnings("ignore:sketch has more rows")
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 14),
    s=st.integers(1, 18),
    loss=st.sampled_from([SQUARED, PINBALL, HUBER]),
)
def test_supplied_gram_fits_match_self_assembled(seed, n, s, loss):
    kernel, x, y = make_problem(seed, n=n)
    cfg = FitConfig(lambda_n=0.05, max_iters=15, step_size=0.5, tol=1e-9)
    sk = make_p_sparsified(SketchSpec(s=s, n=n, p=1.0, dist="gaussian", seed=seed))
    g = gram_scalar(kernel.scalar, x)
    own_full = fit_full(kernel, x, y, loss, cfg)
    pairs = [
        (own_full, fit_full(kernel, x, y, loss, cfg, spectrum=eigendecompose_scaled_gram(g, n))),
        (own_full, fit_full(kernel, x, y, loss, cfg, gram=g)),
        (fit_sketched(kernel, x, y, loss, cfg, sk),
         fit_sketched(kernel, x, y, loss, cfg, sk, gram=g)),
    ]
    for own, shared in pairs:
        assert np.array_equal(own.coeffs, shared.coeffs)
        assert own.diagnostics == shared.diagnostics
        assert empirical_risk(own, x, y, loss) == empirical_risk(shared, x, y, loss, gram=g)
    # the hoisted sketched objective reports the public objective's bits
    gamma = pairs[2][1].coeffs
    assert pairs[2][1].diagnostics.objective == objective_sketched(
        kernel, g, y, loss, cfg.lambda_n, sk.matrix, gamma
    )


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    m=st.integers(1, 3),
    repeats=st.integers(0, 10),
    lambda_n=st.sampled_from([1e-3, 0.05, 1.0]),
)
def test_squared_full_solve_matches_dense_eigh(seed, n, m, repeats, lambda_n):
    # the ridge solves on the tridiagonal form against the solve in the dense
    # eigenbases of G and M, at n = 1 and 2, m = 1 and on repeated points too
    kernel, x, y = make_problem(seed, n=n, m=m)
    x[: min(repeats, n)] = x[0]
    model = fit_full(kernel, x, y, SQUARED, FitConfig(lambda_n=lambda_n))
    want = solve_squared_full(gram_scalar(kernel.scalar, x), kernel.output, y, lambda_n)
    assert np.abs(model.coeffs - want).max() <= 1e-10 * max(np.abs(want).max(), 1e-300)


@pytest.mark.parametrize("fit", ["full", "sketched"])
def test_supplied_gram_errors_are_typed(fit):
    kernel, x, y = make_problem(8, n=10)
    cfg = FitConfig(lambda_n=0.05)
    sk = make_p_sparsified(SketchSpec(s=4, n=10, p=1.0, dist="gaussian", seed=1))
    g = gram_scalar(kernel.scalar, x)
    non_finite = g.copy()
    non_finite[2, 3] = np.nan
    cases = [
        (g[:9, :9], InputError, "Gram shape"),
        (np.ones(10), InputError, "Gram shape"),
        (non_finite, NumericError, "non-finite"),
        (2.0 * g, InputError, "kappa"),
    ]
    for gram, kind, match in cases:
        with pytest.raises(kind, match=match) as info:
            if fit == "full":
                fit_full(kernel, x, y, SQUARED, cfg, gram=gram)
            else:
                fit_sketched(kernel, x, y, SQUARED, cfg, sk, gram=gram)
        assert isinstance(info.value, OpboundsError)
    if fit == "full":
        # the spectrum brings its own Gram, checked as gram is
        spectrum_cases = [
            (g, eigendecompose_scaled_gram(g.copy(), 10), "another Gram"),
            (None, eigendecompose_scaled_gram(g[:9, :9], 9), "Gram shape"),
            (None, eigendecompose_scaled_gram(2.0 * g, 10), "kappa"),
        ]
        for gram, spectrum, match in spectrum_cases:
            with pytest.raises(InputError, match=match):
                fit_full(kernel, x, y, SQUARED, cfg, gram=gram, spectrum=spectrum)
    model = fit_full(kernel, x, y, SQUARED, cfg)
    with pytest.raises(InputError, match="Gram shape"):
        empirical_risk(model, x, y, SQUARED, gram=g[:, :9])
    with pytest.raises(InputError, match="FittedModel"):
        empirical_risk(model.predict, x, y, SQUARED, gram=g)


# frozen from an independent term-by-term derivation (see test body)
HAND_DERIVED_RHS = 7.1507228645737


def test_excess_risk_bound_matches_hand_derivation():
    # independent re-derivation of each term
    c = 5.5373
    big_c = 1.0 + math.sqrt(6.0) * c
    t1 = 1.0 * big_c * math.sqrt(0.01 + 1.0 * 0.1)
    t2 = 0.01 / 2
    t3 = 8.0 * 1.0 * math.sqrt(1.0 * 2.0 / 100)
    t4 = 2.0 * math.sqrt(8.0 * math.log(4.0 / 0.05) / 100)
    hand = t1 + t2 + t3 + t4
    assert hand == pytest.approx(HAND_DERIVED_RHS, abs=1e-6)
    got = excess_risk_bound_rhs(
        j_l=1.0, c=c, lambda_n=0.01, m_opnorm=1.0, delta_sq=0.1,
        kappa=1.0, tr_m=2.0, n=100, conf_delta=0.05, l_lip=1.0,
    )
    assert isinstance(got, ExcessRiskBound)
    assert got.value == pytest.approx(hand, rel=1e-12)
    assert got.value == pytest.approx(7.15, abs=1e-2)
    assert got.big_c == pytest.approx(big_c, rel=1e-12)


def test_excess_risk_bound_limits():
    small_n = excess_risk_bound_rhs(1.0, 2.0, 0.01, 1.0, 0.1, 1.0, 2.0, 100, 0.05)
    big_n = excess_risk_bound_rhs(1.0, 2.0, 0.01, 1.0, 0.1, 1.0, 2.0, 10**12, 0.05)
    limit = 1.0 * (1 + math.sqrt(6) * 2.0) * math.sqrt(0.01 + 0.1) + 0.005
    assert big_n.value == pytest.approx(limit, abs=1e-4)
    assert big_n.value < small_n.value
    c_zero = excess_risk_bound_rhs(1.0, 0.0, 0.01, 1.0, 0.1, 1.0, 2.0, 100, 0.05)
    assert c_zero.big_c == 1.0


def test_excess_risk_bound_refuses_squared():
    with pytest.raises(UnboundedLossError):
        excess_risk_bound_rhs(
            math.inf, 1.0, 0.01, 1.0, 0.1, 1.0, 2.0, 100, 0.05
        )
    with pytest.raises(InputError):
        excess_risk_bound_rhs(1.0, 1.0, 0.01, 1.0, 0.1, 1.0, 2.0, 100, 1.5)
