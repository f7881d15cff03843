"""Lipschitz losses on R^m: squared, Huber, and multi-quantile pinball.

Vector losses are coordinate sums, which keeps the Lipschitz constant
computable (Euclidean norm, hence the sqrt(m) factor).  Kink conventions are
fixed: the pinball subgradient at zero residual is the lower branch tau - 1;
Huber has a continuous gradient and no kink.

The last axis is the output coordinate axis and every other axis is a batch
axis: a single prediction of shape (m,) gives one loss, an (n, m) matrix of
predictions gives the n per-row losses, and each row's result equals, bit for
bit, the single-row call on that row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

_FAMILIES = ("squared", "huber", "pinball")

#: Marker for losses without a global Lipschitz constant.
UNBOUNDED = math.inf


@dataclass(frozen=True)
class LossSpec:
    family: str
    huber_delta: float = 1.0
    quantiles: tuple[float, ...] = ()

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InputError(f"unknown loss family {self.family!r}")
        if self.family == "huber" and not self.huber_delta > 0:
            raise InputError("huber_delta must be positive")
        qs = tuple(float(q) for q in self.quantiles)
        if self.family == "pinball" and (not qs or any(not (0.0 < q < 1.0) for q in qs)):
            raise InputError("pinball needs quantiles in (0, 1)")
        object.__setattr__(self, "quantiles", qs)


def _residual(spec: LossSpec, z, y) -> np.ndarray:
    zv = np.atleast_1d(np.asarray(z, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if zv.shape != yv.shape:
        raise InputError(f"dimension mismatch: {zv.shape} vs {yv.shape}")
    if spec.family == "pinball" and len(spec.quantiles) != zv.shape[-1]:
        raise InputError(
            f"{len(spec.quantiles)} quantiles for {zv.shape[-1]}-dimensional output"
        )
    # C order keeps each row's coordinate sum in the same order as a 1-D row
    return np.ascontiguousarray(zv - yv)


def _row_sums(terms: np.ndarray) -> float | np.ndarray:
    total = np.sum(terms, axis=-1)
    return float(total) if total.ndim == 0 else total


def loss_value(spec: LossSpec, z, y) -> float | np.ndarray:
    """Loss of predictions ``z`` against targets ``y``, summed over the last axis.

    A row of shape (m,) gives a float; a batch of shape (..., m) gives the
    array of per-row losses, of shape (...).  Shapes must match, and a
    pinball loss needs ``shape[-1]`` equal to its number of quantiles.
    """
    u = _residual(spec, z, y)
    if spec.family == "squared":
        return _row_sums(u * u)
    if spec.family == "huber":
        d = spec.huber_delta
        au = np.abs(u)
        quad = 0.5 * u * u
        lin = d * (au - 0.5 * d)
        return _row_sums(np.where(au <= d, quad, lin))
    tau = np.asarray(spec.quantiles)
    return _row_sums(np.maximum(tau * u, (tau - 1.0) * u))


def loss_subgradient(spec: LossSpec, z, y) -> np.ndarray:
    """Subgradient in ``z``, coordinate by coordinate, of the shape of ``z``
    (a scalar counts as one coordinate).

    Batch axes are handled as in :func:`loss_value`: row i of the result is
    the subgradient of row i's loss.
    """
    u = _residual(spec, z, y)
    if spec.family == "squared":
        return 2.0 * u
    if spec.family == "huber":
        return np.clip(u, -spec.huber_delta, spec.huber_delta)
    tau = np.asarray(spec.quantiles)
    return np.where(u > 0, tau, tau - 1.0)


def lipschitz_constant(spec: LossSpec, m: int | None = None) -> float:
    """Euclidean Lipschitz constant of z -> loss(z, y); inf for squared.

    The per-coordinate slope bound picks up a sqrt(m) factor in the Euclidean
    norm.  For pinball the output dimension is the number of quantiles; for
    huber it defaults to 1 unless given.
    """
    if spec.family == "squared":
        return UNBOUNDED
    if spec.family == "pinball":
        if m is not None and m != len(spec.quantiles):
            raise InputError(f"m={m} does not match {len(spec.quantiles)} quantiles")
        m = len(spec.quantiles)
        slope = max(max(t, 1.0 - t) for t in spec.quantiles)
        return slope * math.sqrt(m)
    m = 1 if m is None else int(m)
    return spec.huber_delta * math.sqrt(m)
