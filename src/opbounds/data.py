"""Dataset generation and CSV ingestion for the experiment harness.

Synthetic data comes from a stored teacher (a random kernel expansion), so
excess risk against the generating function is always computable.  The CSV
format is ``x1,...,xd,y1,...,ym`` with period decimals, locale-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import substream
from .errors import ConfigError, InputError
from .kernels import KernelExpansion, ScalarKernelSpec


@dataclass(frozen=True)
class GeneratorConfig:
    n: int
    d: int
    m: int = 1
    noise: float = 0.0
    teacher_anchors: int = 8
    teacher_bandwidth: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.m < 1:
            raise InputError("n, d, m must be positive")
        if self.noise < 0:
            raise InputError("noise level must be nonnegative")
        if self.teacher_anchors < 1:
            raise InputError("teacher needs at least one anchor")


@dataclass(frozen=True)
class Dataset:
    x: np.ndarray
    y: np.ndarray
    teacher: KernelExpansion | None = None

    @property
    def n(self) -> int:
        return self.x.shape[0]


def synth_dataset(cfg: GeneratorConfig) -> Dataset:
    """y = f*(x) + gaussian noise, with f* a random kernel expansion."""
    xs = substream(cfg.seed, 0).uniform(-1.0, 1.0, size=(cfg.n, cfg.d))
    anchors = substream(cfg.seed, 1).uniform(-1.0, 1.0, size=(cfg.teacher_anchors, cfg.d))
    coeffs = substream(cfg.seed, 2).standard_normal((cfg.teacher_anchors, cfg.m))
    coeffs /= np.sqrt(cfg.teacher_anchors)
    spec = ScalarKernelSpec("gaussian", cfg.teacher_bandwidth, dimension=cfg.d)
    teacher = KernelExpansion(spec, np.eye(cfg.m), anchors, coeffs)
    clean = teacher.at(xs)
    noise = cfg.noise * substream(cfg.seed, 3).standard_normal((cfg.n, cfg.m))
    return Dataset(x=xs, y=clean + noise, teacher=teacher)


def _read_numbers(path, skiprows: int = 0) -> np.ndarray:
    """Comma-separated reals as a 2-D array; ConfigError naming the file when
    a cell is not a finite number or the rows are ragged."""
    try:
        body = np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    bad = np.argwhere(~np.isfinite(body))
    if bad.size:
        row, col = bad[0] + 1
        raise ConfigError(f"{path}: the cell in data row {row}, column {col} is not finite")
    return body


def read_csv(path) -> Dataset:
    """The dataset of a CSV whose header ``x1,...,xd,y1,...,ym`` (d, m >= 1)
    gives its input and label counts."""
    with open(path) as fh:
        header = fh.readline().strip()
    names = header.split(",")
    d = sum(name.startswith("x") for name in names)
    m = len(names) - d
    expected = [f"x{i + 1}" for i in range(d)] + [f"y{j + 1}" for j in range(m)]
    if names != expected or not (d and m):
        raise ConfigError(f"{path}: header {header!r} is not x1,...,xd,y1,...,ym")
    body = _read_numbers(path, skiprows=1)
    if body.shape[1] != d + m:
        raise ConfigError(f"{path}: {body.shape[1]} columns, but the header names {d + m}")
    return Dataset(x=body[:, :d], y=body[:, d:])
