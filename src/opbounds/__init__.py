"""opbounds: operator-based generalization-bound calculators for multi-output
kernel models and networks, with a sketched kernel regression solver and a
deterministic experiment harness.

The names below load from their modules on first access, so importing the
package alone loads no numpy or scipy, and importing one submodule loads only
that submodule and what it imports.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "kernels": "DecomposableKernel KernelExpansion ScalarKernelSpec eval_scalar "
    "gram_operator gram_scalar predict_expansion sobolev_norm_gaussian",
    "sketching": "SketchMatrix SketchSpec decompose_sketch make_p_sparsified "
    "satisfiability_constant",
    "spectral": "SpectralReport check_satisfiability critical_radius "
    "eigendecompose_scaled_gram pencil_max statistical_dimension",
    "losses": "LossSpec lipschitz_constant loss_subgradient loss_value",
    "erm": "FitConfig FittedModel empirical_risk excess_risk_bound_rhs fit_full "
    "fit_sketched",
    "complexity": "McConfig rademacher_ball_exact rademacher_ball_mc "
    "rademacher_class_mc trace_bound",
    "koopman": "BoundReport LayerSpec NetworkSpec check_injectivity_class "
    "det_quarter_root product_bound peeled_bound spectral_ratio_factor "
    "split_complexity_bound",
    "deepvv": "LayeredModel TrainConfig VVLayer forward init_layered_model "
    "pf_product_norm pf_complexity_bound refine_kernel separable_bound "
    "top_layer_norm train",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
