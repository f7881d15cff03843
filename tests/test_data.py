import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 6),
    m=st.integers(1, 6),
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_csv_roundtrip(tmp_path_factory, d, m, n, seed):
    # every value is written in its shortest round-trip repr, so it reads back
    # bit for bit, and the header alone gives d and m
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((n, d)), rng.standard_normal((n, m)) * 1e3
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    write_csv(path, x, y)
    back = read_csv(path)
    assert isinstance(back, Dataset)
    assert back.x.shape == (n, d) and back.y.shape == (n, m)
    assert back.x.tobytes() == x.tobytes() and back.y.tobytes() == y.tobytes()


def test_csv_header_validated(tmp_path):
    # a bad header, a short row, bytes that are not UTF-8 in the header or in
    # a data row, and a header with no data rows: each a ConfigError naming
    # the file, and none warns
    cases = {
        "bad.csv": (b"a,b,c\n1.0,2.0,3.0\n", "header"),
        "short.csv": (b"x1,x2,y1\n1.0,2.0\n", "2 columns, but the header names 3"),
        "latin1.csv": (b"\xff\xfex1,y1\n1.0,2.0\n", "header"),
        "latin1-row.csv": (b"x1,y1\n1.0,2.0\n0.5,\xe9\n", "codec can't decode"),
        "header-only.csv": (b"x1,y1\n", "the file has no data rows"),
    }
    for name, (content, message) in cases.items():
        path = tmp_path / name
        path.write_bytes(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=re.escape(f"{path}: ") + ".*" + message):
                read_csv(path)


@pytest.mark.parametrize("header", ["x1,x3,y1", "y1,x1", "x1", "X1,y1", "x1, y1", "y1"])
def test_malformed_csv_header_is_a_config_error(header, tmp_path):
    # the header gives d and m, so it must be exactly x1,...,xd,y1,...,ym
    # with d, m >= 1
    path = tmp_path / "points.csv"
    cells = len(header.split(","))
    path.write_text(header + "\n" + ",".join(["0.5"] * cells) + "\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: header")):
        read_csv(path)
