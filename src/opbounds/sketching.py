"""p-sparsified random sketches.

A sketch is an ``s x n`` matrix with entries ``b_ij * z_ij / sqrt(s * p)``
where ``b_ij ~ Bernoulli(p)`` and ``z_ij`` is Rademacher or standard normal.
The scaling makes ``E[S^T S] = I_n``; it can be overridden through
``SketchSpec.scale`` for callers that want a different isometry convention.

Rows are generated from independent counter-based substreams, so the matrix
is a pure function of the spec regardless of generation order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._rng import substream
from .errors import InputError

_DISTS = ("rademacher", "gaussian")


@dataclass(frozen=True)
class SketchSpec:
    s: int
    n: int
    p: float = 1.0
    dist: str = "gaussian"
    seed: int = 0
    scale: float | None = None  # override for 1/sqrt(s*p)

    def __post_init__(self):
        if self.s < 1 or self.n < 1:
            raise InputError("sketch dimensions must be positive")
        if not (0.0 < self.p <= 1.0):
            raise InputError(f"keep probability p={self.p} outside (0, 1]")
        if self.dist not in _DISTS:
            raise InputError(f"unknown sketch distribution {self.dist!r}")
        if self.s > self.n:
            warnings.warn(
                f"sketch has more rows ({self.s}) than columns ({self.n})",
                stacklevel=3,
            )

    @property
    def entry_scale(self) -> float:
        if self.scale is not None:
            return self.scale
        return 1.0 / math.sqrt(self.s * self.p)


@dataclass(frozen=True)
class SketchMatrix:
    """Realized sketch, stored as a dense ndarray."""

    matrix: np.ndarray
    spec: SketchSpec = field(default=None)

    def write_text(self, path) -> None:
        """Rows of space-separated reals; floats printed to full precision."""
        with open(path, "w") as fh:
            for row in self.matrix:
                fh.write(" ".join(repr(float(v)) for v in row))
                fh.write("\n")


def read_sketch_text(path) -> np.ndarray:
    return np.loadtxt(path, ndmin=2)


def make_p_sparsified(spec: SketchSpec) -> SketchMatrix:
    """Generate the sketch for ``spec``; deterministic given the seed."""
    scale = spec.entry_scale
    rows = []
    for i in range(spec.s):
        g = substream(spec.seed, i)
        if spec.dist == "rademacher":
            z = g.integers(0, 2, size=spec.n) * 2.0 - 1.0
        else:
            z = g.standard_normal(spec.n)
        keep = g.random(spec.n) < spec.p
        rows.append(np.where(keep, z * scale, 0.0))
    return SketchMatrix(matrix=np.asarray(rows), spec=spec)


@dataclass(frozen=True)
class SketchDecomposition:
    """S written as (sub-Gaussian s x q) @ (sub-sampling q x n)."""

    subgaussian: np.ndarray
    subsample: np.ndarray
    retained_columns: np.ndarray

    def product(self) -> np.ndarray:
        return self.subgaussian @ self.subsample


def decompose_sketch(sk: SketchMatrix) -> SketchDecomposition:
    """Split the sketch into sub-Gaussian and reduced sub-sampling factors.

    The sub-sampling factor selects exactly the columns carrying at least one
    nonzero; the product reconstructs the sketch entrywise exactly.
    """
    dense = sk.matrix
    s, n = dense.shape
    retained = np.flatnonzero((dense != 0.0).any(axis=0))
    q = retained.size
    subsample = np.zeros((q, n))
    subsample[np.arange(q), retained] = 1.0
    subgaussian = dense[:, retained].copy()
    return SketchDecomposition(subgaussian, subsample, retained)


def satisfiability_constant(p: float) -> float:
    """Constant c for which the p-sparsified sketch passes the spectral
    satisfiability test with high probability: (2/sqrt(p))(1 + sqrt(log 5)) + 1.
    """
    if not (0.0 < p <= 1.0):
        raise InputError(f"p={p} outside (0, 1]")
    return (2.0 / math.sqrt(p)) * (1.0 + math.sqrt(math.log(5.0))) + 1.0
