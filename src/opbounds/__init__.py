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
    "kernels": "DecomposableKernel KernelExpansion ScalarKernelSpec gram_scalar",
    "sketching": "SketchMatrix SketchSpec make_p_sparsified satisfiability_constant",
    "spectral": "SpectralReport check_satisfiability critical_radius "
    "eigendecompose_scaled_gram kernel_spectrum statistical_dimension",
    "losses": "LossSpec lipschitz_constant loss_subgradient loss_value",
    "erm": "FitConfig FittedModel empirical_risk excess_risk_bound_rhs fit_full "
    "fit_sketched",
    "complexity": "BallMc ClassMc McConfig run_mc trace_bound",
    "koopman": "ApproxMc BoundReport LayerSpec NetworkSpec SplitMc det_quarter_root "
    "product_bound peeled_bound spectral_ratio_factor",
    "deepvv": "DeepObjective LayeredModel TrainConfig init_layered_model "
    "refine_kernel separable_bound train",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
