"""Per-layer metrics computed from one traced pass.

Self times of layers that every workload enters are reported in seconds.  A
layer that only some workloads enter (``erm``, ``koopman``, ``deepvv``, ...)
is reported as its share of the traced run in percent, ``<layer>_pct``: its
time in seconds would read exactly 0 on every run of the other workloads.
The seconds of every group are written to the trace file under ``<layer>_s``.
"""

from __future__ import annotations

from .tracer import GRAM_FUNCTIONS, Tracer

#: Self-time groups: metric stem -> span names whose self times add up.
SELF_GROUPS = {
    "erm.objective": ("erm.objective_full", "erm.objective_sketched"),
    "erm.fit": ("erm.fit_full", "erm.fit_sketched"),
    "kernels.gram": GRAM_FUNCTIONS,
    "spectral.eig": ("numpy.linalg.eigh", "numpy.linalg.eigvalsh"),
    "spectral.eigendecompose": ("spectral.eigendecompose_scaled_gram",),
    "spectral.satisfiability": ("spectral.check_satisfiability",),
    "sketching.sketch": ("sketching.make_p_sparsified",),
    "complexity.ball_mc": ("complexity.rademacher_ball_mc",),
    "complexity.class_mc": ("complexity.rademacher_class_mc",),
    "koopman.approx_mc": ("koopman.approximation_term_mc",),
    "koopman.split": ("koopman.split_complexity_bound",),
    "deepvv.train": ("deepvv.train",),
    "deepvv.gradient": ("deepvv.gradient",),
    "deepvv.pf_norm": ("deepvv.pf_product_norm",),
    "spectral.pencil": ("spectral.pencil_max", "spectral.pencil_max_with_vector"),
    "cli.validate": ("cli.validate_config",),
    "cli.render": ("cli.render_record",),
    "data.synth": ("data.synth_dataset",),
}

#: Groups entered by every workload, reported in seconds.
SECONDS = ("kernels.gram", "spectral.eig", "cli.validate", "cli.render", "data.synth")

MC_FUNCTIONS = (
    "complexity.rademacher_ball_mc",
    "complexity.rademacher_class_mc",
    "koopman.approximation_term_mc",
)

#: Call counts: metric -> span or counter names.
CALLS = {
    "losses.value_calls": ("losses.loss_value",),
    "losses.subgrad_calls": ("losses.loss_subgradient",),
    "erm.objective_evals": SELF_GROUPS["erm.objective"],
    "spectral.eig_calls": SELF_GROUPS["spectral.eig"],
    "kernels.expansion_calls": ("kernels.KernelExpansion.at",),
    "complexity.draws": ("complexity.sign_blocks.rows",),
    "deepvv.objective_evals": ("deepvv.objective",),
    "deepvv.gradient_calls": ("deepvv.gradient",),
    "deepvv.pf_norm_calls": ("deepvv.pf_product_norm",),
    "deepvv.fd_fallbacks": ("deepvv._fd_gradient",),
    "spectral.pencil_calls": SELF_GROUPS["spectral.pencil"],
}

#: Every per-layer metric the benchmark prints with ``--trace 1``, with its
#: unit, in the order of the layers.
METRICS = {
    "losses.value_calls": "count",
    "losses.subgrad_calls": "count",
    "erm.objective_evals": "count",
    "erm.objective_pct": "%",
    "erm.fit_pct": "%",
    "erm.iterations": "count",
    "erm.accept_ratio": "ratio",
    "kernels.gram_calls": "count",
    "kernels.gram_s": "s",
    "kernels.gram_mb": "MB",
    "spectral.eig_calls": "count",
    "spectral.eig_s": "s",
    "spectral.eigendecompose_pct": "%",
    "spectral.satisfiability_pct": "%",
    "sketching.sketch_pct": "%",
    "sketching.sketch_entries": "count",
    "complexity.ball_mc_pct": "%",
    "complexity.class_mc_pct": "%",
    "complexity.draws": "count",
    "complexity.draws_per_s": "1/s",
    "kernels.expansion_calls": "count",
    "koopman.approx_mc_pct": "%",
    "koopman.split_pct": "%",
    "koopman.rejected_draws": "count",
    "deepvv.train_pct": "%",
    "deepvv.objective_evals": "count",
    "deepvv.gradient_calls": "count",
    "deepvv.gradient_pct": "%",
    "deepvv.pf_norm_calls": "count",
    "deepvv.pf_norm_pct": "%",
    "deepvv.accept_ratio": "ratio",
    "deepvv.fd_fallbacks": "count",
    "spectral.pencil_calls": "count",
    "spectral.pencil_pct": "%",
    "cli.import_scipy_s": "s",
    "cli.validate_s": "s",
    "cli.render_s": "s",
    "data.synth_s": "s",
    "trace.overhead_s": "s",
}

#: Metrics that must repeat exactly across traced passes of one instance.
COUNTS = tuple(name for name, unit in METRICS.items() if unit == "count")

#: Metrics computed by the runner, not from spans.
FROM_RUNNER = ("cli.import_scipy_s", "trace.overhead_s")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def group_seconds(tracer: Tracer) -> dict[str, float]:
    """Self time in seconds of every group, keyed ``<group>_s``."""
    self_s = tracer.self_times()
    return {
        f"{group}_s": sum(self_s.get(name, 0.0) for name in names)
        for group, names in SELF_GROUPS.items()
    }


def layer_metrics(tracer: Tracer, traced_s: float) -> dict[str, float]:
    """Every per-layer metric except those in :data:`FROM_RUNNER`."""
    seconds = group_seconds(tracer)
    calls = tracer.calls()
    out: dict[str, float] = {}
    for group in SELF_GROUPS:
        if group in SECONDS:
            out[f"{group}_s"] = seconds[f"{group}_s"]
        else:
            out[f"{group}_pct"] = 100.0 * seconds[f"{group}_s"] / traced_s
    for metric, names in CALLS.items():
        out[metric] = sum(calls[name] for name in names)
    grams = tracer.outermost(GRAM_FUNCTIONS)
    out["kernels.gram_calls"] = len(grams)
    out["kernels.gram_mb"] = sum(span[4] for span in grams) / 1e6
    out["erm.iterations"] = tracer.notes("erm.fit_full") + tracer.notes("erm.fit_sketched")
    out["erm.accept_ratio"] = _ratio(out["erm.iterations"], out["erm.objective_evals"])
    out["sketching.sketch_entries"] = tracer.notes("sketching.make_p_sparsified")
    out["koopman.rejected_draws"] = tracer.notes("koopman.approximation_term_mc")
    totals = tracer.totals()
    mc_s = sum(totals.get(name, 0.0) for name in MC_FUNCTIONS)
    out["complexity.draws_per_s"] = _ratio(out["complexity.draws"], mc_s)
    out["deepvv.accept_ratio"] = _ratio(
        tracer.notes("deepvv.train"), out["deepvv.objective_evals"]
    )
    missing = set(METRICS) - set(FROM_RUNNER) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: out[name] for name in METRICS if name in out}
