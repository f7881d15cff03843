"""``_blas._symmetric_rows``: rows times a symmetric Gram by numpy's
OpenBLAS ``dsymv``, which sums in another order than the GEMM of
``rows @ g``, and is ``rows @ g`` itself where the routine is not exported."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from opbounds import _blas
from opbounds._blas import _symmetric_rows

U = 2.0**-53

# entries of magnitude 0 or at least 1e-100, so no product underflows and
# every rounding error is relative
_ENTRIES = st.floats(-1.0, 1.0).map(lambda v: v if abs(v) >= 1e-100 else 0.0)


@st.composite
def gram_and_rows(draw):
    """(g, rows): a symmetric n x n g, n in [1, 40], and 1-D rows of n or
    2-D rows of 1 to 4 rows of n."""
    n = draw(st.integers(1, 40))
    a = draw(arrays(np.float64, (n, n), elements=_ENTRIES))
    scale = draw(st.sampled_from([1.0, 1e-8, 1e8]))
    shape = draw(st.sampled_from([(n,), *[(r, n) for r in range(1, 5)]]))
    return scale * (a + a.T), draw(arrays(np.float64, shape, elements=_ENTRIES))


def _within_round_off(got, rows, g):
    """Each entry within 4 n u (|rows| |g|) of ``rows @ g``: twice the bound
    2 gamma_n |x|^T |g| on the difference of two n-term dot products, each
    within gamma_n |x|^T |g| (gamma_n = n u / (1 - n u)) in any order of
    summation."""
    want = rows @ g
    bound = 4 * g.shape[0] * U * (np.abs(rows) @ np.abs(g))
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= bound))


@settings(max_examples=150, deadline=None)
@given(gram_and_rows())
def test_symmetric_rows_matches_the_gemm_to_round_off(case):
    g, rows = case
    got = _symmetric_rows(rows, g)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert _within_round_off(got, rows, g)


@settings(max_examples=50, deadline=None)
@given(gram_and_rows())
def test_symmetric_rows_without_dsymv_is_the_gemm_bit_for_bit(case):
    g, rows = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_blas, "_dsymv", lambda: None)
        got = _symmetric_rows(rows, g)
    assert np.array_equal(got, rows @ g) and got.shape == (rows @ g).shape


class _Tagged(np.ndarray):
    """An ndarray subclass, as a caller may pass."""


@pytest.mark.parametrize("layout", ["strided 1-D", "strided 2-D", "Fortran 2-D", "subclass"])
def test_symmetric_rows_reads_any_layout_of_rows(layout):
    rng = np.random.default_rng(3)
    n = 37
    b = rng.standard_normal((n, n))
    g = b + b.T
    wide = rng.standard_normal((4, 2 * n))
    rows = {
        "strided 1-D": wide[1, ::2],
        "strided 2-D": wide[:, 1::2],
        "Fortran 2-D": np.asfortranarray(wide[:3, :n]),
        "subclass": wide[:2, :n].view(_Tagged),
    }[layout]
    assert not rows.flags.c_contiguous or type(rows) is _Tagged
    assert _within_round_off(_symmetric_rows(rows, g), np.asarray(rows), g)


def test_symmetric_rows_checks_operands_before_any_pointer():
    g = np.eye(4)
    for bad in (g[:, :3], np.asfortranarray(g + np.triu(g, 1)), g.astype(np.float32),
                np.ones(4), np.eye(8)[::2, ::2]):
        with pytest.raises(ValueError, match="square C-contiguous float64"):
            _symmetric_rows(np.ones(bad.shape[-1]), bad)
    for rows in (np.ones(3), np.ones((2, 5)), np.ones((1, 2, 4))):
        with pytest.raises(ValueError, match="do not match a Gram of 4 points"):
            _symmetric_rows(rows, g)


def test_numpys_openblas_exports_dsymv():
    # numpy's scipy-openblas wheel, found by its thread functions, carries
    # the symbol, so records there come from the dsymv branch
    if not any(hasattr(lib, "scipy_openblas_get_num_threads64_") for lib in _blas._libraries()):
        pytest.skip("numpy is not on a scipy-openblas wheel")
    assert _blas._dsymv() is not None
