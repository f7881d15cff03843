import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opbounds.errors import InputError
from opbounds.sketching import SketchSpec, make_p_sparsified, satisfiability_constant
from oracles import decompose_sketch, sketch_from_rows


def test_p_one_rademacher_entries():
    spec = SketchSpec(s=8, n=30, p=1.0, dist="rademacher", seed=42)
    sk = make_p_sparsified(spec).matrix
    assert np.all(np.abs(sk) == 1.0 / math.sqrt(8))


@pytest.mark.filterwarnings("ignore:sketch has more rows")
@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.floats(0.0, 1.0, exclude_min=True),
    st.sampled_from(["rademacher", "gaussian"]),
    st.integers(0, 2**63 - 1),
)
@example(7, 3, 0.4, "gaussian", 1)  # s > n
@example(5, 1, 1.0, "rademacher", 2)  # n = 1
@example(4, 1, 0.3, "gaussian", 3)
def test_in_place_rows_are_the_stacked_rows(s, n, p, dist, seed):
    # each row drawn into the preallocated array has the bits of the row
    # drawn on its own, the same +0.0 where an entry is dropped included
    spec = SketchSpec(s=s, n=n, p=p, dist=dist, seed=seed)
    got = make_p_sparsified(spec).matrix
    want = sketch_from_rows(spec)
    assert got.shape == want.shape == (s, n)
    assert got.tobytes() == want.tobytes()


def test_determinism_same_seed():
    spec = SketchSpec(s=10, n=25, p=0.5, dist="gaussian", seed=7)
    a = make_p_sparsified(spec).matrix
    b = make_p_sparsified(spec).matrix
    assert np.array_equal(a, b)
    c = make_p_sparsified(SketchSpec(s=10, n=25, p=0.5, dist="gaussian", seed=8)).matrix
    assert not np.array_equal(a, c)


def test_nonzero_fraction_near_p():
    spec = SketchSpec(s=50, n=500, p=0.1, dist="gaussian", seed=3)
    sk = make_p_sparsified(spec)
    frac = np.count_nonzero(sk.matrix) / (50 * 500)
    assert 0.08 <= frac <= 0.12


def test_dense_storage_at_every_p():
    for p in (0.1, 0.5):
        sk = make_p_sparsified(SketchSpec(s=10, n=50, p=p, seed=0))
        assert type(sk.matrix) is np.ndarray and sk.matrix.shape == (10, 50)


def test_kept_entries_scaled_by_inverse_root_s_p():
    spec = SketchSpec(s=4, n=40, p=0.25, dist="rademacher", seed=1)
    sk = make_p_sparsified(spec).matrix
    assert set(np.abs(sk[sk != 0.0])) == {1.0 / math.sqrt(4 * 0.25)}


def test_invalid_specs():
    with pytest.raises(InputError):
        SketchSpec(s=4, n=6, p=0.0)
    with pytest.raises(InputError):
        SketchSpec(s=4, n=6, p=1.2)
    with pytest.raises(InputError):
        SketchSpec(s=4, n=6, dist="uniform")
    with pytest.warns(UserWarning):
        SketchSpec(s=10, n=6)


def test_decompose_identity_when_p_one():
    sk = make_p_sparsified(SketchSpec(s=6, n=12, p=1.0, dist="rademacher", seed=5))
    sub_gaussian, subsample, _ = decompose_sketch(sk.matrix)
    assert np.array_equal(subsample, np.eye(12))
    assert np.array_equal(sub_gaussian @ subsample, sk.matrix)


def test_decompose_drops_zero_columns():
    dense = np.array([[1.0, 0.0, 2.0], [0.5, 0.0, 0.0]])
    sub_gaussian, subsample, retained = decompose_sketch(dense)
    assert list(retained) == [0, 2]
    assert sub_gaussian.shape == (2, 2)
    assert np.array_equal(sub_gaussian @ subsample, dense)


@pytest.mark.parametrize("seed", range(100))
def test_decompose_reconstruction_exact(seed):
    rng = np.random.default_rng(seed)
    s = int(rng.integers(2, 12))
    n = int(rng.integers(s, 40))
    p = float(rng.uniform(0.03, 1.0))
    dist = "gaussian" if seed % 2 else "rademacher"
    sk = make_p_sparsified(SketchSpec(s=s, n=n, p=p, dist=dist, seed=seed))
    sub_gaussian, subsample, _ = decompose_sketch(sk.matrix)
    assert np.array_equal(sub_gaussian @ subsample, sk.matrix)
    assert np.all((sub_gaussian != 0.0).any(axis=0))
    if dist == "rademacher":
        kept = np.abs(sub_gaussian[sub_gaussian != 0.0])
        assert np.all(kept == 1.0 / math.sqrt(s * p))


def test_expected_isometry_p_one_gaussian():
    n, s, n_seeds = 40, 20, 200
    acc = np.zeros((n, n))
    for seed in range(n_seeds):
        sk = make_p_sparsified(SketchSpec(s=s, n=n, p=1.0, dist="gaussian", seed=seed))
        acc += sk.matrix.T @ sk.matrix
    mean = acc / n_seeds
    off = mean - np.diag(np.diag(mean))
    assert np.abs(off).max() <= 5.0 / math.sqrt(n_seeds * s)
    assert np.abs(np.diag(mean) - 1.0).max() <= 0.1


def test_satisfiability_constant_values():
    # (2/sqrt(p)) (1 + sqrt(log 5)) + 1, re-evaluated independently
    base = 1.0 + math.sqrt(math.log(5.0))
    assert satisfiability_constant(1.0) == pytest.approx(2 * base + 1, rel=1e-12)
    assert satisfiability_constant(1.0) == pytest.approx(5.5373, abs=1e-4)
    assert satisfiability_constant(0.25) == pytest.approx(4 * base + 1, rel=1e-12)
    assert satisfiability_constant(0.25) == pytest.approx(10.0746, abs=1e-4)
    ps = np.linspace(0.01, 1.0, 50)
    vals = [satisfiability_constant(p) for p in ps]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(InputError):
        satisfiability_constant(0.0)
    with pytest.raises(InputError):
        satisfiability_constant(1.5)
