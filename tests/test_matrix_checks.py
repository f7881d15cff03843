"""The library's one square-matrix check and one PSD rule.

Every public entry point that takes a square matrix rejects NaN, +-inf, a
non-square and an empty matrix with a typed OpboundsError
(``kernels.finite_matrix``); the sketched products (G S^T, S G S^T) that
``fit_sketched`` solves on and the S G S^T that ``check_satisfiability``
reads are rejected with an InputError when non-finite or not of the shapes
of one sketch, and so is a sketch S that is non-finite, empty, not a matrix
or not of one column per Gram point; the layer-weight functions take
rectangular weights and reject non-finite or empty ones, and every entry
point that takes labels rejects non-finite ones (``kernels.as_labels``).  Every PSD verdict goes
through ``kernels.require_psd``, so each site accepts a smallest eigenvalue
at 0.9 times its tolerance ``PSD_TOL * max(|lambda_max|, 1)`` and rejects
one at 1.1 times it.  The one exception is the spectrum of a Gram of more than
``spectral.N_DENSE`` points: ``eigendecompose_scaled_gram`` then judges it by
``kernels.require_psd_cholesky``, a Cholesky factor of G / n + tau I, with the
same boundary up to a rounding band.  The PSD_SITES test here runs the 2 x 2
dense path; the Cholesky path's boundary, at n = 512, is
``tests/test_spectral.py::test_lanczos_path_has_the_psd_boundary``.
"""

import math
import warnings

import numpy as np
import pytest

from opbounds.complexity import BallMc
from opbounds.deepvv import DeepObjective, LayeredModel, _pencil_basis, refine_kernel
from opbounds.erm import FitConfig, empirical_risk, fit_sketched
from opbounds.errors import InputError, NotPsdError, OpboundsError, RefinementOrderError
from opbounds.kernels import (
    PSD_TOL,
    DecomposableKernel,
    KernelExpansion,
    ScalarKernelSpec,
    make_output_matrix,
    require_psd,
)
from opbounds.koopman import ApproxMc, det_quarter_root, spectral_ratio_factor
from opbounds.losses import LossSpec
from opbounds.spectral import check_satisfiability, eigendecompose_scaled_gram, sketched_gram
from oracles import fit_full_on, fit_sketched_on

I2 = np.eye(2)


def _model(m_mat):
    """A three-layer model on R^k whose layers all have output matrix m_mat."""
    k = m_mat.shape[0]
    layer = KernelExpansion(
        ScalarKernelSpec("gaussian", 1.0, dimension=k), m_mat, np.zeros((1, k)), np.zeros((1, k))
    )
    return LayeredModel((layer,) * 3)


#: Each public entry point as a function of the one square matrix varied.
SQUARE_ENTRY_POINTS = {
    "make_output_matrix": make_output_matrix,
    "BallMc Gram": lambda a: BallMc(a, [[1.0]], 2),
    "BallMc output matrix": lambda a: BallMc(I2, a, 2),
    "ApproxMc input Gram": lambda a: ApproxMc(np.zeros((1, 2, 2)), a, I2, I2),
    "ApproxMc mid Gram": lambda a: ApproxMc(np.zeros((1, 2, 2)), I2, a, I2),
    "ApproxMc output matrix": lambda a: ApproxMc(np.zeros((1, 2, 2)), I2, I2, a),
    "eigendecompose_scaled_gram": eigendecompose_scaled_gram,
    "refine_kernel": lambda a: refine_kernel(_model(I2), a, "shrink"),
}

BAD_SQUARE = {
    "nan": [[1.0, 0.0], [0.0, math.nan]],
    "+inf": [[math.inf, 0.0], [0.0, 1.0]],
    "-inf": [[1.0, 0.0], [0.0, -math.inf]],
    "non-square": np.ones((2, 3)),
    "empty": np.zeros((0, 0)),
}

WEIGHT_FUNCTIONS = {
    "det_quarter_root": det_quarter_root,
    "spectral_ratio_factor": lambda w: spectral_ratio_factor(w, 2.0),
}

BAD_WEIGHTS = {
    "nan": [[1.0, 0.0], [0.0, math.nan], [1.0, 1.0]],
    "+inf": [[1.0, 0.0], [0.0, 1.0], [math.inf, 1.0]],
    "-inf": [[-math.inf, 0.0], [0.0, 1.0], [1.0, 1.0]],
    "empty": np.zeros((0, 0)),
}


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the depth-3 advice of LayeredModel
        yield


@pytest.mark.parametrize("bad", BAD_SQUARE)
@pytest.mark.parametrize("entry", SQUARE_ENTRY_POINTS)
def test_square_matrix_entry_points_reject_bad_matrices(entry, bad):
    with pytest.raises(OpboundsError):
        SQUARE_ENTRY_POINTS[entry](np.asarray(BAD_SQUARE[bad]))


def _fit_sketched(k_sk, sgs):
    """The squared sketched fit on two points with S = I, on the products."""
    return fit_sketched(
        DecomposableKernel(ScalarKernelSpec("gaussian", 1.0, dimension=1), I2),
        np.zeros((2, 2)), LossSpec("squared"), FitConfig(lambda_n=1.0), (k_sk, sgs),
    )


#: Each entry point that takes a sketched product, as a function of that
#: product for the sketch S = I on two points: the other product, or S,
#: implies a 2 x 2 one.
SKETCHED_PRODUCTS = {
    "fit_sketched G S^T": lambda a: _fit_sketched(a, I2),
    "fit_sketched S G S^T": lambda a: _fit_sketched(I2, a),
    "check_satisfiability S G S^T": lambda a: check_satisfiability(
        I2, eigendecompose_scaled_gram(I2), 1.0, a
    ),
}


#: A 3 x 3 product is square and finite but not of the shape S implies.
BAD_PRODUCTS = {**BAD_SQUARE, "3 x 3": np.eye(3)}


@pytest.mark.parametrize("bad", BAD_PRODUCTS)
@pytest.mark.parametrize("entry", SKETCHED_PRODUCTS)
def test_sketched_product_entry_points_reject_bad_products(entry, bad):
    call = SKETCHED_PRODUCTS[entry]
    call(I2)
    with pytest.raises(InputError):
        call(np.asarray(BAD_PRODUCTS[bad]))


#: Each entry point that takes a sketch S, as a function of S, for a Gram of
#: two points; S G S^T is the 3 x 3 identity, of the shape of a 3-row S.
SKETCH_ENTRY_POINTS = {
    "sketched_gram": lambda s: sketched_gram(s, I2),
    "check_satisfiability": lambda s: check_satisfiability(
        s, eigendecompose_scaled_gram(I2), 1.0, np.eye(3)
    ),
}

#: A sketch is a finite nonempty matrix with a column per Gram point.
BAD_SKETCHES = {**BAD_WEIGHTS, "1-D": np.ones(2), "3 columns": np.ones((3, 3))}


@pytest.mark.parametrize("bad", BAD_SKETCHES)
@pytest.mark.parametrize("entry", SKETCH_ENTRY_POINTS)
def test_sketch_entry_points_reject_bad_sketches(entry, bad):
    call = SKETCH_ENTRY_POINTS[entry]
    call(np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]))
    with pytest.raises(InputError):
        call(np.asarray(BAD_SKETCHES[bad]))


@pytest.mark.parametrize("bad", BAD_WEIGHTS)
@pytest.mark.parametrize("entry", WEIGHT_FUNCTIONS)
def test_weight_functions_reject_bad_weights(entry, bad):
    call = WEIGHT_FUNCTIONS[entry]
    assert np.isfinite(call(np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])))  # tall is fine
    with pytest.raises(OpboundsError):
        call(np.asarray(BAD_WEIGHTS[bad]))


#: Each PSD site as a function of the eigenvalues (lambda_max, lambda_min) of
#: the matrix it judges, with the error it raises.
PSD_SITES = {
    "make_output_matrix": (lambda v: make_output_matrix(np.diag(v)), NotPsdError),
    "BallMc": (lambda v: BallMc(np.diag(v), [[1.0]], 2), NotPsdError),
    # the scaled Gram G/2 is diag(v) exactly
    "eigendecompose_scaled_gram": (
        lambda v: eigendecompose_scaled_gram(np.diag(2.0 * v)), NotPsdError
    ),
    "pencil bottom": (lambda v: _pencil_basis(np.diag(v)), NotPsdError),
    # M - A = diag(v) up to the rounding of 1 - (1 - lambda_min), ~1e-16
    "refine_kernel": (
        lambda v: refine_kernel(
            _model(np.diag([2.0 * v[0], 1.0])), np.diag([v[0], 1.0 - v[1]]), "shrink"
        ),
        RefinementOrderError,
    ),
}


@pytest.mark.parametrize("lam_max", [0.5, 4.0])
@pytest.mark.parametrize("site", PSD_SITES)
def test_every_psd_site_has_the_same_boundary(site, lam_max):
    call, error = PSD_SITES[site]
    edge = PSD_TOL * max(lam_max, 1.0)
    call(np.array([lam_max, -0.9 * edge]))
    with pytest.raises(error):
        call(np.array([lam_max, -1.1 * edge]))


def test_nan_eigenvalues_are_not_psd():
    with pytest.raises(NotPsdError):
        require_psd([1.0, math.nan], "matrix")


#: Each entry point that takes labels as a function of the (2, 2) labels.
LABEL_ENTRY_POINTS = {
    **{
        f"fit_full {loss.family}": lambda y, loss=loss: fit_full_on(
            DecomposableKernel(ScalarKernelSpec("gaussian", 1.0, dimension=1), I2),
            np.zeros((2, 1)), y, loss, FitConfig(lambda_n=1.0, max_iters=2),
        )
        for loss in (LossSpec("squared"), LossSpec("pinball", quantiles=(0.5, 0.5)))
    },
    "fit_sketched": lambda y: fit_sketched_on(
        DecomposableKernel(ScalarKernelSpec("gaussian", 1.0, dimension=1), I2),
        np.zeros((2, 1)), y, LossSpec("pinball", quantiles=(0.5, 0.5)),
        FitConfig(lambda_n=1.0, max_iters=2), I2,
    ),
    "empirical_risk": lambda y: empirical_risk(np.zeros((2, 2)), y, LossSpec("squared")),
    "DeepObjective": lambda y: DeepObjective(_model(I2), np.zeros((2, 2)), y),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", LABEL_ENTRY_POINTS)
def test_label_entry_points_reject_non_finite_labels(entry, bad):
    call = LABEL_ENTRY_POINTS[entry]
    labels = np.array([[0.5, -1.0], [2.0, 0.25]])
    call(labels)
    labels[1, 0] = bad
    with pytest.raises(InputError, match="labels contain non-finite"):
        call(labels)
