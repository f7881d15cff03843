import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from opbounds.errors import InputError
from opbounds.losses import (
    UNBOUNDED,
    LossSpec,
    lipschitz_constant,
    loss_subgradient,
    loss_value,
)

SQUARED = LossSpec("squared")
HUBER = LossSpec("huber", huber_delta=1.0)
PINBALL_MED = LossSpec("pinball", quantiles=(0.5,))
PINBALL_2 = LossSpec("pinball", quantiles=(0.1, 0.9))

ALL_SPECS = [SQUARED, HUBER, PINBALL_2]


def test_symmetric_pinball_is_half_abs():
    for z in (-2.0, -0.3, 0.0, 1.7):
        assert loss_value(PINBALL_MED, [z], [0.0]) == pytest.approx(abs(z) / 2)


def test_huber_quadratic_branch():
    z, y = np.array([0.3, -0.4]), np.array([0.0, 0.0])
    assert loss_value(HUBER, z, y) == pytest.approx(0.5 * (0.09 + 0.16))
    big = np.array([3.0, 0.0])
    assert loss_value(HUBER, big, y) == pytest.approx(1.0 * (3.0 - 0.5))


def test_pinball_two_quantile_example():
    # residual (1, -1) at levels (0.1, 0.9): 0.1*1 + 0.1*1
    assert loss_value(PINBALL_2, [1.0, -1.0], [0.0, 0.0]) == pytest.approx(0.2)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_zero_at_equal_arguments(spec):
    z = np.array([0.7, -1.2])
    assert loss_value(spec, z, z) == 0.0


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_nonnegative_and_convex_on_segments(spec):
    rng = np.random.default_rng(0)
    for _ in range(200):
        y = rng.standard_normal(2)
        a, b = rng.standard_normal(2), rng.standard_normal(2)
        mid = 0.5 * (a + b)
        va, vb, vm = (loss_value(spec, v, y) for v in (a, b, mid))
        assert va >= 0
        assert vm <= 0.5 * (va + vb) + 1e-9


def test_squared_subgradient_is_gradient():
    rng = np.random.default_rng(1)
    z, y = rng.standard_normal(3), rng.standard_normal(3)
    spec = LossSpec("squared")
    assert np.allclose(loss_subgradient(spec, z, y), 2 * (z - y))


def test_pinball_kink_convention():
    g = loss_subgradient(PINBALL_2, [0.0, 0.0], [0.0, 0.0])
    assert np.allclose(g, [0.1 - 1.0, 0.9 - 1.0])


def test_huber_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(50):
        z, y = rng.standard_normal(2) * 2, rng.standard_normal(2)
        if np.any(np.abs(np.abs(z - y) - HUBER.huber_delta) < 1e-3):
            continue  # stay away from the quadratic/linear transition
        g = loss_subgradient(HUBER, z, y)
        fd = np.zeros(2)
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd[j] = (loss_value(HUBER, z + e, y) - loss_value(HUBER, z - e, y)) / (2 * h)
        assert np.allclose(g, fd, atol=1e-6)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_subgradient_inequality(spec):
    trials = 10_000
    rng = np.random.default_rng(3)
    z = rng.standard_normal((trials, 2)) * 2
    zp = rng.standard_normal((trials, 2)) * 2
    y = rng.standard_normal((trials, 2))
    for i in range(trials):
        g = loss_subgradient(spec, z[i], y[i])
        lhs = loss_value(spec, zp[i], y[i])
        rhs = loss_value(spec, z[i], y[i]) + g @ (zp[i] - z[i])
        assert lhs - rhs >= -1e-9


@pytest.mark.parametrize(
    "spec,m", [(HUBER, 2), (PINBALL_2, 2)]
)
def test_lipschitz_bound_on_probes(spec, m):
    j = lipschitz_constant(spec, m)
    rng = np.random.default_rng(4)
    for _ in range(2000):
        y = rng.standard_normal(2)
        z, zp = rng.standard_normal(2) * 3, rng.standard_normal(2) * 3
        gap = abs(loss_value(spec, z, y) - loss_value(spec, zp, y))
        assert gap <= j * np.linalg.norm(z - zp) + 1e-9


def test_lipschitz_constants():
    assert lipschitz_constant(PINBALL_MED, 1) == pytest.approx(0.5)
    assert lipschitz_constant(LossSpec("huber", huber_delta=1.0), 1) == pytest.approx(1.0)
    assert lipschitz_constant(PINBALL_2, 2) == pytest.approx(0.9 * math.sqrt(2))
    assert lipschitz_constant(LossSpec("huber", huber_delta=0.5), 4) == pytest.approx(1.0)
    assert lipschitz_constant(SQUARED, 3) == UNBOUNDED
    with pytest.raises(InputError, match="does not match 2 quantiles"):
        lipschitz_constant(PINBALL_2, 3)


def test_dimension_validation():
    with pytest.raises(InputError):
        loss_value(PINBALL_2, [1.0], [0.0])
    with pytest.raises(InputError):
        loss_value(SQUARED, [1.0, 2.0], [0.0])
    with pytest.raises(InputError):
        LossSpec("pinball", quantiles=(0.0, 0.5))
    with pytest.raises(InputError):
        LossSpec("huber", huber_delta=0.0)


def test_batch_dimension_validation():
    rows = np.zeros((3, 2))
    for z, y in ((rows, np.zeros((2, 2))), (rows, np.zeros(2)), (rows, rows.T)):
        for fn in (loss_value, loss_subgradient):
            with pytest.raises(InputError, match="dimension mismatch"):
                fn(SQUARED, z, y)
    # 3 coordinates per row against 2 quantiles: a broadcast error without the check
    wide = np.zeros((2, 3))
    for fn in (loss_value, loss_subgradient):
        with pytest.raises(InputError, match="quantiles"):
            fn(PINBALL_2, wide, wide)
    # a NaN or infinite prediction or target is no loss of any family
    for spec in (SQUARED, HUBER, PINBALL_2):
        for bad in (math.nan, math.inf, -math.inf):
            row = np.array([[bad, 0.0]])
            for z, y in ((row, np.zeros((1, 2))), (np.zeros((1, 2)), row), (row[0], np.zeros(2))):
                with pytest.raises(InputError, match="non-finite residual"):
                    loss_value(spec, z, y)


@st.composite
def loss_batches(draw):
    """A loss spec and an (n, m) batch whose residuals often sit on a kink."""
    family = draw(st.sampled_from(["squared", "huber", "pinball"]))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 20))
    delta = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]) | st.floats(0.01, 4.0))
    quantiles = draw(st.lists(st.floats(0.01, 0.99), min_size=m, max_size=m))
    if family != "pinball":
        quantiles = ()
    spec = LossSpec(family, huber_delta=delta, quantiles=quantiles)
    coords = st.integers(-8, 8).map(float) | st.floats(-5.0, 5.0)
    y = draw(arrays(float, (n, m), elements=coords))
    # 0 and +-delta are exact residuals when y is integral and delta dyadic
    offsets = st.sampled_from([0.0, delta, -delta]) | st.floats(-5.0, 5.0)
    z = y + draw(arrays(float, (n, m), elements=offsets))
    # a Fortran-ordered batch must still sum each row in 1-D order
    if draw(st.booleans()):
        z, y = np.asfortranarray(z), np.asfortranarray(y)
    return spec, z, y


@settings(max_examples=300, deadline=None)
@given(loss_batches())
def test_batched_rows_equal_single_row_calls(case):
    spec, z, y = case
    values = loss_value(spec, z, y)
    subgrads = loss_subgradient(spec, z, y)
    assert values.shape == z.shape[:1]
    assert subgrads.shape == z.shape
    for i in range(z.shape[0]):
        row_value = loss_value(spec, z[i], y[i])
        assert isinstance(row_value, float)
        assert values[i] == row_value
        assert np.array_equal(subgrads[i], loss_subgradient(spec, z[i], y[i]))


def test_batched_kink_conventions():
    # pinball at zero residual takes the lower branch tau - 1
    z = np.array([[0.0, 1.0], [2.0, -3.0], [0.0, 0.0]])
    y = np.array([[0.0, 0.0], [2.0, -2.0], [0.0, 0.0]])
    lo = [0.1 - 1.0, 0.9 - 1.0]
    assert np.array_equal(loss_subgradient(PINBALL_2, z, y), [[lo[0], 0.9], lo, lo])
    assert np.array_equal(loss_value(PINBALL_2, z, y), [0.9, (0.9 - 1.0) * -1.0, 0.0])
    # huber at |u| = delta: both branches give delta^2 / 2, the slope is +-delta
    huber = LossSpec("huber", huber_delta=0.5)
    z = np.array([[0.5, -0.5], [1.5, 0.0]])
    y = np.array([[0.0, 0.0], [1.0, 0.5]])
    assert np.array_equal(loss_subgradient(huber, z, y), [[0.5, -0.5], [0.5, -0.5]])
    assert np.array_equal(loss_value(huber, z, y), [0.25, 0.25])
    for i in range(2):
        assert loss_value(huber, z[i], y[i]) == 0.25
