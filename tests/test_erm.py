import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opbounds import erm, losses
from opbounds.erm import (
    ExcessRiskBound,
    FitConfig,
    _Objective,
    empirical_risk,
    excess_risk_bound_rhs,
    fit_full,
    fit_sketched,
)
from opbounds.errors import InputError, UnboundedLossError
from opbounds.kernels import DecomposableKernel, ScalarKernelSpec, gram_scalar
from opbounds.losses import LossSpec, loss_value
from opbounds.sketching import SketchSpec, make_p_sparsified
from opbounds.spectral import eigendecompose_scaled_gram, sketched_gram
from oracles import (
    coefficient_norm, fit_full_on, fit_sketched_on, objective_sketched, predict, predict_at,
    solve_squared_full,
)

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
    model = fit_full_on(kernel, x, y, SQUARED, FitConfig(lambda_n=0.3))
    assert np.array_equal(model.coeffs, np.zeros((1, 2)))


@pytest.mark.parametrize("seed", range(5))
def test_squared_full_stationarity(seed):
    kernel, x, y = make_problem(seed)
    cfg = FitConfig(lambda_n=0.05)
    model = fit_full_on(kernel, x, y, SQUARED, cfg)
    g = gram_scalar(kernel.scalar, x)
    n = x.shape[0]
    grad = g @ ((2.0 / n) * (g @ model.coeffs @ kernel.output - y)
                + cfg.lambda_n * model.coeffs) @ kernel.output
    assert np.linalg.norm(grad) <= 1e-8


def test_pinball_descends_from_zero():
    kernel, x, y = make_problem(1, n=20)
    cfg = FitConfig(lambda_n=0.05, max_iters=200, step_size=1.0, tol=1e-6)
    model = fit_full_on(kernel, x, y, PINBALL, cfg)
    g = gram_scalar(kernel.scalar, x)
    at_zero = _Objective(g, g, kernel.output, y, PINBALL, cfg.lambda_n)(np.zeros_like(y))[0]
    assert model.diagnostics.objective <= at_zero


@pytest.mark.parametrize("fit", ["full", "sketched"])
def test_huber_descends_from_zero(fit):
    kernel, x, y = make_problem(6, n=20)
    cfg = FitConfig(lambda_n=0.05, max_iters=60, step_size=0.5, tol=1e-9)
    g = gram_scalar(kernel.scalar, x)
    if fit == "full":
        model = fit_full_on(kernel, x, y, HUBER, cfg)
        at_zero = _Objective(g, g, kernel.output, y, HUBER, cfg.lambda_n)(np.zeros_like(y))[0]
    else:
        sk = make_p_sparsified(SketchSpec(s=8, n=20, p=1.0, dist="gaussian", seed=2)).matrix
        model = fit_sketched_on(kernel, x, y, HUBER, cfg, sk)
        at_zero = objective_sketched(
            kernel, g, y, HUBER, cfg.lambda_n, sk, np.zeros((8, 2))
        )
    assert model.diagnostics.iterations >= 1
    assert model.diagnostics.objective <= at_zero


def _row_by_row_mean(loss, preds, y):
    # the scalar reference: one loss call per row, summed left to right
    return sum(loss_value(loss, preds[i], y[i]) for i in range(y.shape[0])) / y.shape[0]


@pytest.mark.parametrize("pd_output", [True, False], ids=["pd-m", "identity-m"])
@pytest.mark.parametrize("loss", [PINBALL, HUBER, SQUARED], ids=lambda spec: spec.family)
@pytest.mark.parametrize("seed", range(4))
def test_objectives_match_row_by_row_reference(loss, seed, pd_output):
    # the reference forms every product by M, also an exact identity M that
    # the built objective skips
    kernel, x, y = make_problem(30 + seed, n=17, pd_output=pd_output)
    rng = np.random.default_rng(seed)
    lam = 0.07
    g = gram_scalar(kernel.scalar, x)
    m_mat = kernel.output
    a = rng.standard_normal(y.shape)
    expected = _row_by_row_mean(loss, g @ a @ m_mat, y) + 0.5 * lam * float(
        np.sum((g @ a) * (a @ m_mat))
    )
    full = _Objective(g, g, m_mat, y, loss, lam)
    assert full(a)[0] == expected
    assert full.at(g @ a @ m_mat, g @ a, a) == expected
    # an equal P that is not K is multiplied on its own
    assert _Objective(g, g.copy(), m_mat, y, loss, lam)(a)[0] == expected

    s_dense = rng.standard_normal((5, 17))
    gamma = rng.standard_normal((5, 2))
    sg = s_dense @ g  # G S^T and S G S^T as sketched_gram forms them
    k_sk, sgs = sg.T, sg @ s_dense.T
    expected = _row_by_row_mean(loss, k_sk @ gamma @ m_mat, y) + 0.5 * lam * float(
        np.sum((sgs @ gamma) * (gamma @ m_mat))
    )
    assert _Objective(k_sk, sgs, m_mat, y, loss, lam)(gamma)[0] == expected
    assert objective_sketched(kernel, g, y, loss, lam, s_dense, gamma) == expected

    model = fit_full_on(kernel, x, y, loss, FitConfig(lambda_n=lam, max_iters=5))
    preds = model.train_predictions
    assert empirical_risk(preds, y, loss) == _row_by_row_mean(loss, preds, y)


def _fit_on(fit, kernel, x, y, loss, cfg):
    if fit == "full":
        return fit_full_on(kernel, x, y, loss, cfg)
    sk = make_p_sparsified(SketchSpec(s=6, n=x.shape[0], p=1.0, dist="gaussian", seed=4)).matrix
    return fit_sketched_on(kernel, x, y, loss, cfg, sk)


@pytest.mark.parametrize("fit", ["full", "sketched"])
def test_pinball_fit_checks_operands_per_build_and_subgradient(fit, monkeypatch):
    # the shape and quantile-count checks of losses._residual run when the
    # fit builds its objective and in each subgradient, not per evaluation
    kernel, x, y = make_problem(11, n=16)
    # a long base step, so the line search backtracks
    cfg = FitConfig(lambda_n=0.05, max_iters=6, step_size=8.0, tol=1e-12)
    counts = {"residual": 0, "subgradient": 0, "evaluation": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    residual = counted("residual", losses._residual)
    monkeypatch.setattr(losses, "_residual", residual)
    monkeypatch.setattr(erm, "_residual", residual)
    monkeypatch.setattr(erm, "loss_subgradient", counted("subgradient", erm.loss_subgradient))
    monkeypatch.setattr(erm._Objective, "at", counted("evaluation", erm._Objective.at))
    model = _fit_on(fit, kernel, x, y, PINBALL, cfg)
    assert model.diagnostics.iterations == cfg.max_iters
    assert counts["subgradient"] == cfg.max_iters
    assert counts["residual"] == 1 + counts["subgradient"]
    assert counts["evaluation"] > counts["residual"]


@pytest.mark.parametrize("pd_output", [True, False], ids=["pd-m", "identity-m"])
@pytest.mark.parametrize("fit", ["full", "sketched"])
def test_pinball_quantile_count_mismatch_raises_before_first_iteration(
    fit, pd_output, monkeypatch
):
    kernel, x, y = make_problem(12, n=10, m=3, pd_output=pd_output)
    cfg = FitConfig(lambda_n=0.05, max_iters=5)

    def no_iteration(*args):
        raise AssertionError("a subgradient was taken")

    monkeypatch.setattr(erm, "loss_subgradient", no_iteration)
    with pytest.raises(InputError, match="2 quantiles for 3-dimensional output"):
        _fit_on(fit, kernel, x, y, PINBALL, cfg)


@pytest.mark.parametrize("pd_output", [True, False], ids=["pd-m", "identity-m"])
@pytest.mark.parametrize("fit", ["full", "sketched"])
@pytest.mark.parametrize("loss", [PINBALL, HUBER], ids=lambda spec: spec.family)
def test_lipschitz_fit_multiplies_k_only_inside_evaluations(loss, fit, pd_output, monkeypatch):
    # the objective's K counts its products with a point, made inside an
    # evaluation or outside one: a subgradient reuses the K theta that the
    # evaluation accepting theta formed, so there is one product per evaluation
    kernel, x, y = make_problem(13, n=16, pd_output=pd_output)
    # a long base step, so the line search backtracks
    cfg = FitConfig(lambda_n=0.05, max_iters=8, step_size=8.0, tol=1e-12)
    inside, products, points, subgradients = [False], [0, 0], [], []

    class CountedK(np.ndarray):
        def __matmul__(self, other):
            products[inside[0]] += 1
            return np.asarray(self) @ other

    build, evaluate = erm._Objective.__init__, erm._Objective.__call__
    subgradient = erm.loss_subgradient

    def counted_build(self, k, p, *args):
        build(self, k, p, *args)
        self.k = k.view(CountedK)
        self.p = self.k if p is k else p

    def counted_evaluation(self, theta):
        points.append((np.asarray(self.k), theta))
        inside[0] = True
        try:
            return evaluate(self, theta)
        finally:
            inside[0] = False

    def recorded_subgradient(spec, z, y):
        subgradients.append((len(points), z))
        return subgradient(spec, z, y)

    monkeypatch.setattr(erm._Objective, "__init__", counted_build)
    monkeypatch.setattr(erm._Objective, "__call__", counted_evaluation)
    monkeypatch.setattr(erm, "loss_subgradient", recorded_subgradient)
    model = _fit_on(fit, kernel, x, y, loss, cfg)
    assert model.diagnostics.iterations == cfg.max_iters == len(subgradients)
    assert len(points) > 1 + len(subgradients)
    assert products == [0, len(points)]
    # the point evaluated last before a subgradient is the one accepted
    for evaluated, z in subgradients:
        k, theta = points[evaluated - 1]
        assert np.array_equal(z, k @ theta @ kernel.output)


def _spec(family, m):
    if family == "pinball":
        return LossSpec("pinball", quantiles=(0.25, 0.5, 0.75)[:m])
    return {"squared": SQUARED, "huber": HUBER}[family]


@pytest.mark.parametrize("fit", ["full", "sketched"])
@pytest.mark.parametrize("family", ["squared", "huber", "pinball"])
def test_fit_decomposes_m_once_and_checks_operands_before_solving(fit, family, monkeypatch):
    kernel, x, y = make_problem(14, n=12, m=3)
    cfg = FitConfig(lambda_n=0.05, max_iters=5)
    singular = DecomposableKernel(kernel.scalar, np.diag([1.0, 0.0, 2.0]))
    one_output, _, y_one = make_problem(15, n=12, m=1)
    decompositions = []

    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, name=name, _original=getattr(np.linalg, name), **kwargs):
            if any(np.shape(a) == np.shape(o) and np.array_equal(a, o)
                   for o in (kernel.output, singular.output, one_output.output)):
                decompositions.append(name)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def fit_with(kern, targets):
        decompositions.clear()
        return _fit_on(fit, kern, x, targets, _spec(family, kern.output_dim), cfg)

    # one eigh or eigvalsh of M per fit, squared or Lipschitz, full or sketched
    fit_with(kernel, y)
    assert len(decompositions) == 1
    # a 1-D y is one column when m = 1
    model = fit_with(one_output, y_one[:, 0])
    assert len(decompositions) == 1
    assert np.array_equal(model.coeffs, fit_with(one_output, y_one).coeffs)

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve or a subgradient ran")

    for name in ("_solve_squared_full", "_solve_squared_sketched", "loss_subgradient"):
        monkeypatch.setattr(erm, name, no_solve)
    # the targets are checked before M is decomposed
    cases = [
        (singular, y, "output matrix M must be strictly positive definite", 1),
        (kernel, y[:11],
         "targets shape (11, 3) incompatible with 12 points and output dimension 3", 0),
        (kernel, y[:, :2],
         "targets shape (12, 2) incompatible with 12 points and output dimension 3", 0),
    ]
    for kern, targets, message, decomposed in cases:
        with pytest.raises(InputError) as err:
            fit_with(kern, targets)
        assert str(err.value) == message
        assert len(decompositions) == decomposed


@pytest.mark.parametrize("seed", range(10))
def test_identity_sketch_equivalence(seed):
    kernel, x, y = make_problem(seed, n=10)
    cfg = FitConfig(lambda_n=0.08)
    n = x.shape[0]
    identity = np.eye(n)
    full = fit_full_on(kernel, x, y, SQUARED, cfg)
    sketched = fit_sketched_on(kernel, x, y, SQUARED, cfg, identity)
    gap = predict_at(full, kernel, x, x) - predict_at(sketched, kernel, x, x, identity)
    assert np.abs(gap).max() <= 1e-8


def test_sketched_monotone_descent_from_zero():
    kernel, x, y = make_problem(3, n=16)
    cfg = FitConfig(lambda_n=0.05, max_iters=60, step_size=0.5, tol=1e-9)
    sk = make_p_sparsified(SketchSpec(s=6, n=16, p=1.0, dist="gaussian", seed=5)).matrix
    model = fit_sketched_on(kernel, x, y, PINBALL, cfg, sk)
    g = gram_scalar(kernel.scalar, x)
    at_zero = objective_sketched(
        kernel, g, y, PINBALL, cfg.lambda_n, sk, np.zeros((6, 2))
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
    sk = make_p_sparsified(SketchSpec(s=n // 4, n=n, p=1.0, dist="gaussian", seed=11)).matrix
    full = fit_full_on(kernel, x, y, SQUARED, cfg)
    sketched = fit_sketched_on(kernel, x, y, SQUARED, cfg, sk)
    r_full = empirical_risk(full.train_predictions, y, SQUARED)
    r_sketched = empirical_risk(sketched.train_predictions, y, SQUARED)
    assert r_sketched <= 2.0 * r_full


def test_squared_sketched_fit_holds_three_s_by_s_arrays_at_its_peak():
    # each column's system (2 mu / n) S G^2 S^T + lambda S G S^T is built in
    # place beside S G^2 S^T, so the fit's traced peak above its operands is
    # three s x s arrays and a few n x m ones (a sum of two scaled copies
    # would hold five)
    n, s, m = 600, 150, 3
    kernel, x, y = make_problem(4, n=n, m=m)
    sk = make_p_sparsified(SketchSpec(s=s, n=n, p=0.1, dist="rademacher", seed=4)).matrix
    products = sketched_gram(sk, gram_scalar(kernel.scalar, x))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fit_sketched(kernel, y, SQUARED, FitConfig(lambda_n=0.01), products)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= (3 * s * s + 8 * n * m) * 8


def test_solver_determinism():
    kernel, x, y = make_problem(9, n=14)
    cfg = FitConfig(lambda_n=0.02, max_iters=80, step_size=0.7, tol=1e-9)
    a = fit_full_on(kernel, x, y, PINBALL, cfg)
    b = fit_full_on(kernel, x, y, PINBALL, cfg)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_ridge_shrinkage_monotone_in_lambda():
    # doubling lambda_n never increases the fitted RKHS norm
    for seed in range(6):
        kernel, x, y = make_problem(20 + seed)
        small = fit_full_on(kernel, x, y, SQUARED, FitConfig(lambda_n=0.03))
        large = fit_full_on(kernel, x, y, SQUARED, FitConfig(lambda_n=0.06))
        assert coefficient_norm(large, kernel, x) <= coefficient_norm(small, kernel, x) + 1e-12


def test_singular_output_matrix_rejected():
    kernel, x, y = make_problem(2, pd_output=False)
    singular = DecomposableKernel(
        kernel.scalar, np.diag([1.0, 0.0])
    )
    with pytest.raises(InputError):
        fit_full_on(singular, x, y, SQUARED, FitConfig(lambda_n=0.1))


def test_nonconverged_flagged_not_silent():
    kernel, x, y = make_problem(4, n=18)
    cfg = FitConfig(lambda_n=0.05, max_iters=2, step_size=0.5, tol=1e-14)
    model = fit_full_on(kernel, x, y, PINBALL, cfg)
    assert not model.diagnostics.converged
    assert model.diagnostics.warning is not None


def test_empirical_risk_cases():
    y = make_problem(5)[2]
    assert empirical_risk(y, y, SQUARED) == 0.0
    assert empirical_risk(np.zeros((4, 1)), np.ones(4), SQUARED) == pytest.approx(1.0)
    # additivity over concatenated equal halves
    half_y = y[:6]
    both_y = np.vstack([half_y, half_y])
    assert empirical_risk(np.zeros((12, 2)), both_y, SQUARED) == pytest.approx(
        empirical_risk(np.zeros((6, 2)), half_y, SQUARED)
    )
    # no predictions (a zero division otherwise) or predictions of another
    # shape than the targets are input errors
    with pytest.raises(InputError, match="predictions must be nonempty"):
        empirical_risk(np.zeros((0, 2)), np.zeros((0, 2)), SQUARED)
    for preds in (np.zeros(12), np.zeros((11, 2)), np.zeros((12, 1))):
        with pytest.raises(InputError, match="vs targets"):
            empirical_risk(preds, y, SQUARED)
    # a NaN or infinite prediction has no loss
    for bad in (math.nan, math.inf, -math.inf):
        for loss in (SQUARED, HUBER, PINBALL):
            with pytest.raises(InputError, match="non-finite residual"):
                empirical_risk(np.array([[bad, 0.0]]), [[0.0, 0.0]], loss)


@pytest.mark.filterwarnings("ignore:sketch has more rows")
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 14),
    s=st.integers(1, 18),
    loss=st.sampled_from([SQUARED, PINBALL, HUBER]),
)
def test_fits_on_the_training_gram_match_the_cross_gram(seed, n, s, loss):
    # risks through the training Gram carry the bits of risks through the
    # cross Gram k(x, x); a fit's own K theta M, which the training risks
    # read, is G A M up to the round-off of another association; and the
    # hoisted sketched objective has the bits of the public objective
    kernel, x, y = make_problem(seed, n=n)
    cfg = FitConfig(lambda_n=0.05, max_iters=15, step_size=0.5, tol=1e-9)
    sk = make_p_sparsified(SketchSpec(s=s, n=n, p=1.0, dist="gaussian", seed=seed)).matrix
    g = gram_scalar(kernel.scalar, x)
    full = fit_full_on(kernel, x, y, loss, cfg)
    for model, sketch in ((full, None), (fit_sketched_on(kernel, x, y, loss, cfg, sk), sk)):
        want = predict(model, g, kernel.output, sketch)
        risk = _row_by_row_mean(loss, predict_at(model, kernel, x, x, sketch), y)
        assert empirical_risk(want, y, loss) == risk
        terms = np.abs(model.coeffs)  # |G| |A| |M| or |G| |S^T| |Gamma| |M| bounds each term
        if sketch is not None:
            terms = np.abs(sketch.T) @ terms
        scale = (np.abs(g) @ terms @ np.abs(kernel.output)).max()
        assert np.abs(model.train_predictions - want).max() <= 1e-13 * n * scale
    assert model.diagnostics.objective == objective_sketched(
        kernel, g, y, loss, cfg.lambda_n, sk, model.coeffs
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
    # the ridge solves on the spectral decomposition against the solve in the
    # dense eigenbases of G and M, at n = 1 and 2, m = 1 and on repeated points
    kernel, x, y = make_problem(seed, n=n, m=m)
    x[: min(repeats, n)] = x[0]
    model = fit_full_on(kernel, x, y, SQUARED, FitConfig(lambda_n=lambda_n))
    want = solve_squared_full(gram_scalar(kernel.scalar, x), kernel.output, y, lambda_n)
    assert np.abs(model.coeffs - want).max() <= 1e-10 * max(np.abs(want).max(), 1e-300)


def test_supplied_gram_errors_are_typed():
    # fit_sketched takes n from G S^T and rejects an S G S^T of another
    # sketch; fit_full takes n and its Gram from the spectrum and checks the
    # Gram for kappa (non-finite and mis-shaped products are cases of
    # tests/test_matrix_checks.py)
    kernel, x, y = make_problem(8, n=10)
    cfg = FitConfig(lambda_n=0.05)
    sk = make_p_sparsified(SketchSpec(s=4, n=10, p=1.0, dist="gaussian", seed=1)).matrix
    g = gram_scalar(kernel.scalar, x)
    other = make_p_sparsified(SketchSpec(s=5, n=10, p=1.0, dist="gaussian", seed=1)).matrix
    mixed = sketched_gram(sk, g)[0], sketched_gram(other, g)[1]
    with pytest.raises(InputError, match="sketched products"):
        fit_sketched(kernel, y, SQUARED, cfg, mixed)
    with pytest.raises(InputError, match="targets shape"):
        fit_sketched(kernel, y[:9], SQUARED, cfg, sketched_gram(sk, g))
    spectrum_cases = [
        (eigendecompose_scaled_gram(g[:9, :9]), "targets shape"),
        (eigendecompose_scaled_gram(2.0 * g), "kappa"),
    ]
    for spectrum, match in spectrum_cases:
        with pytest.raises(InputError, match=match):
            fit_full(kernel, y, SQUARED, cfg, spectrum)
    model = fit_full_on(kernel, x, y, SQUARED, cfg)
    with pytest.raises(InputError, match="vs targets"):
        empirical_risk(model.train_predictions[:9], y, SQUARED)


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
        kappa=1.0, tr_m=2.0, n=100, conf_delta=0.05,
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
