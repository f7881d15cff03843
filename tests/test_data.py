import numpy as np
import pytest

from opbounds.data import Dataset, GeneratorConfig, read_csv, synth_dataset
from opbounds.erm import empirical_risk
from opbounds.errors import ConfigError
from opbounds.losses import LossSpec
from oracles import write_csv

SQUARED = LossSpec("squared")


def test_noiseless_teacher_has_zero_risk():
    ds = synth_dataset(GeneratorConfig(n=20, d=2, m=2, noise=0.0, seed=1))
    assert empirical_risk(ds.teacher.at(ds.x), ds.y, SQUARED) == pytest.approx(0.0, abs=1e-24)


def test_fixed_seed_reproducibility():
    cfg = GeneratorConfig(n=15, d=3, m=2, noise=0.2, seed=9)
    a, b = synth_dataset(cfg), synth_dataset(cfg)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    c = synth_dataset(GeneratorConfig(n=15, d=3, m=2, noise=0.2, seed=10))
    assert not np.array_equal(a.y, c.y)


def test_noise_level_matches_mean_squared_residual():
    sigma, n, m = 0.3, 4000, 2
    ds = synth_dataset(GeneratorConfig(n=n, d=2, m=m, noise=sigma, seed=4))
    resid = ds.y - ds.teacher.at(ds.x)
    mean_sq = float(np.mean(np.sum(resid**2, axis=1)))
    target = m * sigma**2
    se = sigma**2 * np.sqrt(2.0 * m / n)
    assert abs(mean_sq - target) <= 3 * se


def test_csv_roundtrip(tmp_path):
    ds = synth_dataset(GeneratorConfig(n=8, d=2, m=3, noise=0.1, seed=2))
    path = tmp_path / "data.csv"
    write_csv(path, ds.x, ds.y)
    back = read_csv(path, 2, 3)
    assert isinstance(back, Dataset)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)


def test_csv_header_validated(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1.0,2.0,3.0\n")
    with pytest.raises(ConfigError):
        read_csv(path, 2, 1)
    path2 = tmp_path / "short.csv"
    path2.write_text("x1,x2,y1\n1.0,2.0\n")
    with pytest.raises(Exception):
        read_csv(path2, 2, 1)
