"""p-sparsified random sketches.

A sketch is an ``s x n`` matrix with entries ``b_ij * z_ij / sqrt(s * p)``
where ``b_ij ~ Bernoulli(p)`` and ``z_ij`` is Rademacher or standard normal.
The scaling makes ``E[S^T S] = I_n``, which the satisfiability constant of
``p`` assumes.  Rescaling S would leave the span of ``S^T``, where a sketched
estimator lives, unchanged, so no other scaling is offered.

Rows are generated from independent counter-based substreams, so the matrix
is a pure function of the spec regardless of generation order; each is drawn
in place into one preallocated s x n array, so no row list and no second
copy of the sketch is held.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._rng import rademacher, substream
from .errors import InputError

_DISTS = ("rademacher", "gaussian")


@dataclass(frozen=True)
class SketchSpec:
    s: int
    n: int
    p: float = 1.0
    dist: str = "gaussian"
    seed: int = 0

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


@dataclass(frozen=True)
class SketchMatrix:
    """Realized sketch, stored as a dense ndarray."""

    matrix: np.ndarray


def make_p_sparsified(spec: SketchSpec) -> SketchMatrix:
    """Generate the sketch for ``spec``; deterministic given the seed.  Each
    row is drawn into its place in one preallocated s x n array."""
    scale = 1.0 / math.sqrt(spec.s * spec.p)
    matrix = np.empty((spec.s, spec.n))
    for i, row in enumerate(matrix):
        g = substream(spec.seed, i)
        if spec.dist == "rademacher":
            rademacher(g, row)
        else:
            g.standard_normal(out=row)
        drop = g.random(spec.n) >= spec.p
        row *= scale
        row[drop] = 0.0
    return SketchMatrix(matrix=matrix)


def satisfiability_constant(p: float) -> float:
    """Constant c for which the p-sparsified sketch passes the spectral
    satisfiability test with high probability: (2/sqrt(p))(1 + sqrt(log 5)) + 1.
    """
    if not (0.0 < p <= 1.0):
        raise InputError(f"p={p} outside (0, 1]")
    return (2.0 / math.sqrt(p)) * (1.0 + math.sqrt(math.log(5.0))) + 1.0
