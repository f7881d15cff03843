import math

import numpy as np
import pytest

from opbounds.errors import InputError
from opbounds.sketching import (
    SketchMatrix,
    SketchSpec,
    decompose_sketch,
    make_p_sparsified,
    read_sketch_text,
    satisfiability_constant,
)


def test_p_one_rademacher_entries():
    spec = SketchSpec(s=8, n=30, p=1.0, dist="rademacher", seed=42)
    sk = make_p_sparsified(spec).matrix
    assert np.all(np.abs(sk) == 1.0 / math.sqrt(8))


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


def test_scale_override():
    spec = SketchSpec(s=4, n=6, p=1.0, dist="rademacher", seed=1, scale=1.0)
    sk = make_p_sparsified(spec).matrix
    assert np.all(np.abs(sk) == 1.0)


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
    spec = SketchSpec(s=6, n=12, p=1.0, dist="rademacher", seed=5)
    sk = make_p_sparsified(spec)
    dec = decompose_sketch(sk)
    assert dec.subsample.shape == (12, 12)
    assert np.array_equal(dec.subsample, np.eye(12))
    assert np.array_equal(dec.product(), sk.matrix)


def test_decompose_drops_zero_columns():
    dense = np.array([[1.0, 0.0, 2.0], [0.5, 0.0, 0.0]])
    dec = decompose_sketch(SketchMatrix(matrix=dense))
    assert list(dec.retained_columns) == [0, 2]
    assert dec.subgaussian.shape == (2, 2)
    assert np.array_equal(dec.product(), dense)


@pytest.mark.parametrize("seed", range(100))
def test_decompose_reconstruction_exact(seed):
    rng = np.random.default_rng(seed)
    s = int(rng.integers(2, 12))
    n = int(rng.integers(s, 40))
    p = float(rng.uniform(0.03, 1.0))
    dist = "gaussian" if seed % 2 else "rademacher"
    sk = make_p_sparsified(SketchSpec(s=s, n=n, p=p, dist=dist, seed=seed))
    dec = decompose_sketch(sk)
    assert np.array_equal(dec.product(), sk.matrix)


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


def test_text_serialization_roundtrip(tmp_path):
    sk = make_p_sparsified(SketchSpec(s=5, n=9, p=0.6, dist="gaussian", seed=2))
    path = tmp_path / "sketch.txt"
    sk.write_text(path)
    back = read_sketch_text(path)
    assert np.array_equal(back, sk.matrix)
