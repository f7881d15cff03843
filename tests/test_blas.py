"""``_blas._symmetric_rows``: rows times a symmetric Gram by numpy's
OpenBLAS ``dsymv``, which sums in another order than the GEMM of
``rows @ g``, and is ``rows @ g`` itself where the routine is not exported.
``_blas._upper_times``: the upper triangle of a Gram times a matrix, in
place, by numpy's OpenBLAS ``dtrmm``, on which ``complexity._quad_forms``
builds its Monte-Carlo forms, which are the GEMM's where the routine is not
exported."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from opbounds import _blas
from opbounds._blas import _symmetric_rows, _upper_times
from opbounds.complexity import _quad_forms
from oracles import quad_forms_full

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


@st.composite
def gram_and_matrix(draw):
    """(g, b, alpha): a symmetric n x n g, n in [1, 40], a C-ordered n x k b,
    k in [0, 6], and a scale alpha."""
    n = draw(st.integers(1, 40))
    a = draw(arrays(np.float64, (n, n), elements=_ENTRIES))
    b = draw(arrays(np.float64, (n, draw(st.integers(0, 6))), elements=_ENTRIES))
    return a + a.T, b, draw(st.sampled_from([1.0, 2.0, -0.5]))


@settings(max_examples=150, deadline=None)
@given(gram_and_matrix())
def test_upper_times_matches_the_triangle_gemm_to_round_off(case):
    # the same n-term dot products as alpha triu(g) @ b in another order:
    # each entry within 4 n u |alpha| (|triu(g)| |b|) of it
    g, b, alpha = case
    if _blas._dtrmm() is None:
        pytest.skip("numpy's OpenBLAS does not export dtrmm")
    want = alpha * (np.triu(g) @ b)
    bound = 4 * g.shape[0] * U * abs(alpha) * (np.abs(np.triu(g)) @ np.abs(b))
    _upper_times(g, b, alpha)
    assert bool(np.all(np.abs(b - want) <= bound))


def test_upper_times_checks_operands_before_any_pointer(monkeypatch):
    calls = []
    monkeypatch.setattr(_blas, "_dtrmm", lambda: lambda *args: calls.append(args))
    g, b = np.eye(4), np.ones((4, 3))
    for bad in (g[:, :3], np.asfortranarray(g + np.triu(g, 1)), g.astype(np.float32),
                np.ones(4), np.eye(8)[::2, ::2]):
        with pytest.raises(ValueError, match="square C-contiguous float64"):
            _upper_times(bad, np.ones((bad.shape[0], 3)), 1.0)
    frozen = np.ones((4, 3))
    frozen.flags.writeable = False
    for bad in (np.ones((3, 3)), np.asfortranarray(np.ones((4, 3))), b.astype(np.float32),
                np.ones(4), np.ones((4, 3, 1)), np.ones((4, 6))[:, ::2], frozen):
        with pytest.raises(ValueError, match="writeable C-contiguous float64 matrix of 4 rows"):
            _upper_times(g, bad, 1.0)
    assert calls == []
    _upper_times(g, b, 1.0)
    assert len(calls) == 1


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 40), m=st.integers(1, 3), rows=st.integers(1, 600),
    identity=st.booleans(), seed=st.integers(0, 2**32 - 1),
)
def test_quad_forms_without_dtrmm_are_the_gemm_forms_bit_for_bit(n, m, rows, identity, seed):
    rng = np.random.default_rng(seed)
    a, c = rng.standard_normal((n, n + 1)), rng.standard_normal((m, m))
    g, out = a @ a.T, np.eye(m) if identity else c @ c.T
    signs = np.asfortranarray(rng.integers(0, 2, size=(rows, n * m)) * 2.0 - 1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_blas, "_dtrmm", lambda: None)
        with pytest.raises(RuntimeError, match="scipy_cblas_dtrmm64_"):
            _upper_times(g, np.ones((n, 2)), 1.0)
        fresh = _quad_forms(signs, g, out)
        into_work = _quad_forms(signs, g, out, np.empty(signs.shape))
    want = quad_forms_full(signs, g, out)
    assert fresh.tobytes() == want.tobytes() and into_work.tobytes() == want.tobytes()


def test_numpys_openblas_exports_dtrmm():
    # so bound-compare records there come from the triangular forms
    if not any(hasattr(lib, "scipy_openblas_get_num_threads64_") for lib in _blas._libraries()):
        pytest.skip("numpy is not on a scipy-openblas wheel")
    assert _blas._dtrmm() is not None
