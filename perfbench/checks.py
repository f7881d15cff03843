"""Correctness checks on ``opbounds`` result records.

Two kinds:

* :func:`invariants` holds for a record of any seed: numbers are finite,
  bound totals recompute from their reported factors, the unit-ball estimate
  is at most ``trace_bound``, deep training never ends above where it started.
* :func:`against_reference` compares a record of the reference instance with
  the committed ``reference.json``.  Spectral, Monte-Carlo and bound values
  must agree to :data:`REL_TOL`, loose enough for a changed summation order and
  tight enough for anything else; solver objectives must be no worse than the
  reference, because a faster solver may take another path.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

REL_TOL = 1e-6
#: Slack on "no worse than the reference" and on exact recomputations.
OBJ_TOL = 1e-9

_NON_FINITE = {"nan", "inf", "-inf"}

# Record paths (dotted, under "metrics") compared to the reference.
_TIGHT = {
    "sketch-regress": (
        "satisfiability.delta_sq",
        "satisfiability.d_n",
        "satisfiability.norm1",
        "satisfiability.norm2",
        "satisfiability.c_used",
        "risk_teacher",
    ),
    "bound-compare": (
        "trace_bound",
        "rademacher_ball.estimate",
        "rademacher_ball.stderr",
        "product.total",
        "split.total",
        "split.extras.class_estimate",
        "split.extras.approximation_term",
        "split.extras.approximation_rejected_draws",
        "split.extras.gamma_mean",
        "peeled.value",
    ),
    "deep-vvrkhs": ("initial_objective.total",),
}
# The squared loss is solved in closed form, so its fit is path-free too.
_TIGHT_SQUARED = ("risk_full", "risk_sketched")
_TIGHT_LIPSCHITZ = ("excess_risk_bound.value",)
_OBJECTIVES = {
    "sketch-regress": ("diagnostics_full.objective", "diagnostics_sketched.objective"),
    "bound-compare": (),
    "deep-vvrkhs": ("final_objective.total",),
}


def _get(metrics: dict, path: str):
    node = metrics
    for key in path.split("."):
        node = node[key]
    return node


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _leaves(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _leaves(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _leaves(v)
    else:
        yield obj


def reference_values(record: dict) -> dict:
    """The values of ``record`` that are compared with the reference."""
    sub, metrics = record["subcommand"], record["metrics"]
    tight = list(_TIGHT[sub])
    if sub == "sketch-regress":
        squared = record["config"]["loss"]["family"] == "squared"
        tight += _TIGHT_SQUARED if squared else _TIGHT_LIPSCHITZ
    return {
        "tight": {p: _get(metrics, p) for p in tight},
        "objective": {p: _get(metrics, p) for p in _OBJECTIVES[sub]},
    }


def against_reference(record: dict, reference: dict) -> list[str]:
    """Failures of ``record`` against one committed reference entry."""
    got = reference_values(record)
    errors = []
    for path, want in reference["tight"].items():
        have = got["tight"].get(path)
        if have is None or not _close(float(have), float(want), REL_TOL):
            errors.append(f"{path} = {have}, reference {want} (rel tol {REL_TOL})")
    for path, want in reference["objective"].items():
        have = got["objective"].get(path)
        if have is None or not float(have) <= float(want) + OBJ_TOL * max(1.0, abs(want)):
            errors.append(f"{path} = {have} is worse than the reference {want}")
    return errors


def _product_total(per_layer: list) -> float:
    prod = 1.0
    for f in per_layer:
        k = 1.0 if f["koopman_norm"] is None else f["koopman_norm"]
        prod *= f["ratio_G"] * f["spectral_factor"] * k / f["det_root"]
    return prod


def invariants(record: dict) -> list[str]:
    """Failures of the checks that hold at every seed."""
    sub, metrics = record["subcommand"], record["metrics"]
    errors = []
    bad = [v for v in _leaves(metrics) if isinstance(v, str) and v in _NON_FINITE]
    bad += [v for v in _leaves(metrics) if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        errors.append(f"non-finite values in the record: {bad[:3]}")
    if sub == "sketch-regress":
        n = record["config"]["dataset"]["n"]
        if not 1 <= metrics["satisfiability"]["d_n"] <= n:
            errors.append(f"d_n = {metrics['satisfiability']['d_n']} outside [1, {n}]")
        bound = metrics["excess_risk_bound"]
        if "value" in bound and not _close(bound["value"], sum(bound["terms"]), OBJ_TOL):
            errors.append("excess-risk bound differs from the sum of its terms")
    elif sub == "bound-compare":
        prod = metrics["product"]
        want = prod["extras"]["g_norm"] * prod["extras"]["trace_root"] * _product_total(
            prod["per_layer"]
        )
        if not _close(prod["total"], want, OBJ_TOL):
            errors.append(f"product total {prod['total']} != {want} from its factors")
        split, ex = metrics["split"], metrics["split"]["extras"]
        want = _product_total(split["per_layer"]) * (
            ex["class_estimate"] + ex["trace_root"] * ex["approximation_term"]
        )
        if not _close(split["total"], want, OBJ_TOL):
            errors.append(f"split total {split['total']} != {want} from its factors")
        if metrics["rademacher_ball"]["estimate"] > metrics["trace_bound"]:
            errors.append("unit-ball estimate exceeds trace_bound")
    elif sub == "deep-vvrkhs":
        start = metrics["initial_objective"]["total"]
        end = metrics["final_objective"]["total"]
        if end > start + OBJ_TOL * max(1.0, abs(start)):
            errors.append(f"final objective {end} above the initial {start}")
        objs = [e["objective"] for e in metrics["epochs"]]
        if any(b > a + OBJ_TOL * max(1.0, abs(a)) for a, b in zip(objs, objs[1:])):
            errors.append("training objective increased between accepted iterations")
    return errors


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)
