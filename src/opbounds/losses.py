"""Lipschitz losses on R^m: squared, Huber, and multi-quantile pinball.

Vector losses are coordinate sums, which keeps the Lipschitz constant
computable (Euclidean norm, hence the sqrt(m) factor).  Every loss reads the
residual u = z - y of the prediction z, and the pinball loss of quantile tau
is max(tau u, (tau - 1) u) = tau (z - y)_+ + (1 - tau) (y - z)_+, whose
population minimizer is the (1 - tau) conditional quantile of y, not the tau
one of Koenker & Bassett (1978): tau = 0.9 fits the 10th percentile.  Kink
conventions are fixed: the pinball subgradient at zero residual is the lower
branch tau - 1; Huber has a continuous gradient and no kink.

The last axis is the output coordinate axis and every other axis is a batch
axis: a single prediction of shape (m,) gives one loss, an (n, m) matrix of
predictions gives the n per-row losses, and each row's result equals, bit for
bit, the single-row call on that row.

``_residual`` converts and checks the operands (matching shapes, one
quantile per output coordinate) and forms u in C order; ``_residual_loss``
holds the loss formulas and reads only u.  A caller that evaluates one loss
on operands of fixed shapes many times, such as the ERM objective of
:mod:`opbounds.erm`, checks them once through ``_residual`` and then calls
``_residual_loss`` on each new residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def _pinball_slopes(self) -> tuple[np.ndarray, np.ndarray]:
        """(tau, tau - 1) of the quantiles, built once per spec, read-only."""
        tau = np.asarray(self.quantiles)
        low = tau - 1.0
        tau.flags.writeable = low.flags.writeable = False
        return tau, low


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
    total = terms.sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def _residual_loss(spec: LossSpec, u: np.ndarray) -> float | np.ndarray:
    """Loss at the residual ``u`` returned by :func:`_residual` (or one of its
    shape and C order, shape and quantile count already checked), summed
    over the last axis; the only copy of each loss formula."""
    if spec.family == "squared":
        return _row_sums(u * u)
    if spec.family == "huber":
        d = spec.huber_delta
        au = np.abs(u)
        quad = 0.5 * u * u
        lin = d * (au - 0.5 * d)
        return _row_sums(np.where(au <= d, quad, lin))
    tau, low = spec._pinball_slopes
    return _row_sums(np.maximum(tau * u, low * u))


def loss_value(spec: LossSpec, z, y) -> float | np.ndarray:
    """Loss of predictions ``z`` against targets ``y``, summed over the last axis.

    A row of shape (m,) gives a float; a batch of shape (..., m) gives the
    array of per-row losses, of shape (...).  Shapes must match, and a
    pinball loss needs ``shape[-1]`` equal to its number of quantiles; its
    coordinate j fits the (1 - quantiles[j]) conditional quantile.  A
    non-finite residual z - y raises InputError.
    """
    u = _residual(spec, z, y)
    if not np.all(np.isfinite(u)):
        raise InputError("predictions or targets give a non-finite residual")
    return _residual_loss(spec, u)


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
    tau, low = spec._pinball_slopes
    return np.where(u > 0, tau, low)


def lipschitz_constant(spec: LossSpec, m: int) -> float:
    """Euclidean Lipschitz constant of z -> loss(z, y) on R^m; inf for squared.

    The per-coordinate slope bound picks up a sqrt(m) factor in the Euclidean
    norm.  A pinball loss needs m equal to its number of quantiles.
    """
    if spec.family == "squared":
        return UNBOUNDED
    if spec.family == "pinball":
        if m != len(spec.quantiles):
            raise InputError(f"m={m} does not match {len(spec.quantiles)} quantiles")
        return max(max(t, 1.0 - t) for t in spec.quantiles) * math.sqrt(m)
    return spec.huber_delta * math.sqrt(m)
