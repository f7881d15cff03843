import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opbounds import kernels
from opbounds.complexity import BallMc, McConfig, run_mc
from opbounds.errors import InputError, NotPsdError, NumericError
from opbounds.kernels import (
    PSD_TOL,
    _CrossGram,
    _half_integer_matern,
    DecomposableKernel,
    KernelExpansion,
    ScalarKernelSpec,
    check_kappa,
    finite_matrix,
    gram_error_bound,
    gram_scalar,
    gram_scalar_cross,
    make_output_matrix,
    require_psd_cholesky,
)
from opbounds.koopman import LayerSpec, NetworkSpec, SplitMc
from oracles import (
    eval_scalar,
    expansion_norm,
    gram_long_double,
    gram_operator,
    gram_two_arrays,
    half_integer_matern_negating,
    matern_profile_kv,
    sobolev_norm_gaussian,
)

GAUSS2 = ScalarKernelSpec("gaussian", 1.0, dimension=2)


def random_psd(m, rng, jitter=0.0):
    b = rng.standard_normal((m, m))
    return b @ b.T + jitter * np.eye(m)


def test_gaussian_at_zero_distance_is_one():
    x = [0.3, -0.7]
    assert eval_scalar(GAUSS2, x, x) == 1.0


def test_gaussian_half_value_at_log2_over_gamma():
    gamma = 2.5
    spec = ScalarKernelSpec("gaussian", gamma, dimension=1)
    r = math.sqrt(math.log(2.0) / gamma)
    assert eval_scalar(spec, [0.0], [r]) == pytest.approx(0.5, rel=1e-12)


def test_matern_three_halves_closed_form():
    spec = ScalarKernelSpec("matern", 1.0, smoothness=1.5, dimension=1)
    # closed-form Matern 3/2 at unit distance, evaluated independently
    expected = (1.0 + math.sqrt(3.0)) * math.exp(-math.sqrt(3.0))
    assert eval_scalar(spec, [0.0], [1.0]) == pytest.approx(expected, rel=1e-10)


def test_matern_half_is_exponential():
    spec = ScalarKernelSpec("matern", 2.0, smoothness=0.5, dimension=1)
    r = 0.8
    assert eval_scalar(spec, [0.0], [r]) == pytest.approx(math.exp(-r / 2.0), rel=1e-9)


def test_sobolev_radial_is_matern_with_shifted_order():
    spec = ScalarKernelSpec("sobolev-radial", 1.0, smoothness=2.5, dimension=2)
    mat = ScalarKernelSpec("matern", 1.0, smoothness=1.5, dimension=2)
    x, z = [0.1, 0.2], [0.9, -0.4]
    assert eval_scalar(spec, x, z) == pytest.approx(eval_scalar(mat, x, z), rel=1e-12)
    with pytest.raises(InputError):
        ScalarKernelSpec("sobolev-radial", 1.0, smoothness=1.0, dimension=2)


# nu = 0.5, 1.5, 2.5, and sobolev-radial at nu = s - d/2 = 0.5 and 1.5
HALF_INTEGER_SPECS = [
    *[ScalarKernelSpec("matern", 1.0, smoothness=nu) for nu in (0.5, 1.5, 2.5)],
    ScalarKernelSpec("sobolev-radial", 1.0, smoothness=2.0, dimension=3),
    ScalarKernelSpec("sobolev-radial", 1.0, smoothness=2.5, dimension=2),
]


def _profile_at(spec, r):
    """Kernel values at distances ``r`` from the origin, and the squared
    distances that the library computes for them (exactly ``r * r``)."""
    z = np.zeros((r.size, spec.dimension))
    z[:, 0] = r
    with np.errstate(over="ignore"):  # r * r is inf for r = 1e300, as in the library
        sq = r * r
    return gram_scalar_cross(spec, np.zeros((1, spec.dimension)), z)[0], sq


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(HALF_INTEGER_SPECS),
    st.floats(0.05, 20.0),
    st.lists(
        st.one_of(st.floats(0.0, 800.0),
                  st.sampled_from([0.0, 5e-324, 1e-8, 700.0, 745.5, 746.0, 1e300])),
        min_size=1, max_size=40,
    ),
)
def test_half_integer_matern_matches_kv(spec, bandwidth, args):
    # args are a = sqrt(2 nu) r / bandwidth, from 0 to past where kv
    # underflows (a ~ 700) and e^(-a) does (a ~ 745)
    spec = ScalarKernelSpec(spec.family, bandwidth, spec.smoothness, spec.dimension)
    got, sq = _profile_at(spec, np.array(args) * bandwidth / math.sqrt(2.0 * spec.matern_nu))
    want = matern_profile_kv(spec, sq)
    big = want > 1e-300
    assert np.all(np.abs(got[big] - want[big]) <= 1e-13 * want[big])
    # past that, kv has underflowed: the closed form is as negligible, and
    # exactly 0 once e^(-a) underflows too.  At tiny a (nu = 2.5, a < ~1e-123)
    # kv overflows instead and the oracle reads 0; the kernel there is 1.
    a = np.sqrt(sq) / bandwidth * math.sqrt(2.0 * spec.matern_nu)
    assert np.all(got[~big & (a >= 1.0)] <= 1e-297)
    assert np.all(got[a >= 746.0] == 0.0)
    assert np.all(got[~big & (a < 1.0)] == 1.0)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([0.5, 1.5, 2.5]),
    st.floats(0.05, 20.0),
    st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(5e-324, 2.2e-308),  # subnormal squared distances
            st.floats(0.0, 4000.0**2),
            st.floats(745.0**2, 1e300),  # a >= 745 at bandwidths up to ~1
            st.just(np.inf),
        ),
        min_size=1, max_size=40,
    ),
)
def test_half_integer_matern_divides_by_minus_bandwidth_bit_for_bit(nu, bandwidth, sq):
    # the profile holds -a from a division by -bandwidth and so drops the
    # negation pass before e^(-a); negation is exact, so every value has the
    # bits of the former profile, at zero, subnormal and underflowing
    # distances too
    sq = np.array(sq)
    got = _half_integer_matern(nu, bandwidth, sq.copy())
    want = half_integer_matern_negating(nu, bandwidth, sq.copy())
    assert got.tobytes() == want.tobytes()


@st.composite
def matrices_with_non_finite_entries(draw):
    """A matrix of finite entries, huge ones included, with NaN, +inf or -inf
    written at up to three positions."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = st.floats(allow_nan=False, allow_infinity=False)
    a = np.array(draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)))
    a = a.reshape(rows, cols)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        a[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return a


@settings(max_examples=200, deadline=None)
@given(matrices_with_non_finite_entries())
def test_finite_matrix_rejects_exactly_the_non_finite(a):
    # one min and one max pass: NaN reaches both and +-inf one of them
    if np.all(np.isfinite(a)):
        assert finite_matrix(a, "matrix", square=False) is a
        assert kernels._finite_range(a, "matrix", square=False)[1:] == (a.min(), a.max())
    else:
        with pytest.raises(InputError, match="matrix contains non-finite entries"):
            finite_matrix(a, "matrix", square=False)


@pytest.mark.parametrize("spec", [
    ScalarKernelSpec("matern", 0.7, smoothness=1.2),
    ScalarKernelSpec("sobolev-radial", 0.7, smoothness=2.25, dimension=2),  # nu = 1.25
])
def test_other_smoothness_is_kv_bit_for_bit(spec):
    got, sq = _profile_at(spec, np.linspace(0.0, 600.0, 4001))
    assert np.array_equal(got, matern_profile_kv(spec, sq))


@pytest.mark.parametrize("bandwidth", [1e-3, 1.0, 1e280])
@pytest.mark.parametrize("nu", [1.2, 2.25, 3.7])
def test_kv_matern_keeps_its_limits(nu, bandwidth):
    # where a^nu kv(nu, a) is not finite it is a limit: at tiny a, a^nu
    # underflows and kv overflows (the kernel tends to 1); at huge a kv
    # underflows (to 0).  Distances reach 1e300, whose squares overflow.
    spec = ScalarKernelSpec("matern", bandwidth, smoothness=nu)
    got, _ = _profile_at(spec, np.concatenate([[0.0], np.logspace(-300, 300, 601)]))
    assert np.all((got >= 0.0) & (got <= 1.0 + 1e-12))
    assert np.all(np.diff(got) <= 1e-12)


def test_kv_matern_is_one_at_a_tiny_argument():
    g = gram_scalar(ScalarKernelSpec("matern", 1e280, 1.2, 1), [[0.0], [1.0]])
    assert g[0, 1] == pytest.approx(1.0, rel=1e-12)


_HUGE = st.one_of(
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, 1e150, -1e154, 1e155, 1e200, -1e300, 1.7e308]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([
        ScalarKernelSpec("gaussian", 1.0, dimension=2),
        ScalarKernelSpec("matern", 1.0, 1.5, 2),
        ScalarKernelSpec("matern", 1.0, 1.2, 2),
    ]),
    st.lists(st.tuples(_HUGE, _HUGE), min_size=1, max_size=4),
    st.lists(st.tuples(_HUGE, _HUGE), min_size=1, max_size=4),
)
def test_huge_coordinates_give_kernel_values_or_a_numeric_error(spec, x, z):
    # a distance computation that would overflow into NaN raises instead;
    # every value that is returned is a kernel value
    for pts in ((x, z), (x, x)):
        small = max(abs(c) for p in pts for c in np.ravel(p)) <= 1e150
        try:
            g = gram_scalar_cross(spec, *pts) if pts[1] is z else gram_scalar(spec, x)
        except NumericError:
            assert not small
            continue
        assert np.all(np.isfinite(g)) and g.min() >= 0.0 and g.max() <= 1.0 + 1e-12


def test_cross_gram_overflow_is_a_numeric_error():
    spec = ScalarKernelSpec("gaussian", 1.0)
    with pytest.raises(NumericError):
        gram_scalar_cross(spec, [[1e200]], [[0.0], [1e200]])


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([("gaussian", 0.0), ("matern", 0.5), ("matern", 1.5), ("matern", 2.5),
                     ("matern", 1.2)]),
    st.sampled_from([1, 2, 127, 128, 129, 256, 257, 300, 513]),
    st.sampled_from([None, 1, 3, 127, 128, 129, 300]),
    st.integers(1, 3),
    st.floats(0.05, 5.0),
    st.sampled_from(["distinct", "duplicates", "overflow", "non-finite"]),
    st.integers(0, 2**32 - 1),
)
def test_gram_scalar_is_the_two_array_assembly_bit_for_bit(kind, n, q, d, bandwidth, case, seed):
    # row blocks in one array give the bits of the two-array assembly, on
    # either side of a block boundary, for the square Gram (q is None) and
    # for a cross Gram against q other anchors; nu = 1.2 is the kv path,
    # whose profile is a new array.  A bad point set raises the same error,
    # and no thread starts.  A huge point on one side of a cross Gram gives
    # infinite distances, not an overflow
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, (n, d))
    z = None if q is None else rng.uniform(-2.0, 2.0, (q, d))
    bad = x if z is None or rng.integers(2) else z
    rows = bad.shape[0]
    if case == "duplicates":
        x = x[rng.integers(0, max(n // 2, 1), n)]
    elif case == "overflow":
        bad[rng.integers(rows)] = 1e200
    elif case == "non-finite":
        bad[rng.integers(rows), rng.integers(d)] = rng.choice([np.nan, np.inf, -np.inf])
    spec = ScalarKernelSpec(kind[0], bandwidth, kind[1], d)

    def assemble():
        return gram_scalar(spec, x) if z is None else gram_scalar_cross(spec, x, z)

    before = threading.active_count()
    try:
        want = gram_two_arrays(spec, x, z)
    except (InputError, NumericError) as exc:
        assert case == "non-finite" or (case == "overflow" and z is None)
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            assemble()
        assert threading.active_count() == before
        return
    assert case != "non-finite"
    got = assemble()
    assert threading.active_count() == before
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 129])
def test_square_gram_scans_its_points_once(monkeypatch, n):
    # gram_scalar's points are also its anchors, so their max |x| pass (and
    # squared norms) serve both sides; a cross Gram scans each side once
    extent, scans = kernels._extent, []
    monkeypatch.setattr(kernels, "_extent", lambda a: scans.append(a) or extent(a))
    x = np.random.default_rng(n).uniform(-1, 1, (n, 2))
    spec = ScalarKernelSpec("gaussian", 1.0, dimension=2)
    g = gram_scalar(spec, x)
    assert len(scans) == 1
    assert g.tobytes() == gram_scalar_cross(spec, x, x.copy()).tobytes()
    assert len(scans) == 3


@pytest.mark.parametrize("family, nu", [
    ("gaussian", 0.0), ("matern", 0.5), ("matern", 1.5), ("matern", 2.5),
])
@pytest.mark.parametrize("q", [None, 600, 200])
def test_gram_scalar_peak_memory(family, nu, q):
    # the n x q Gram, square (q is None) or against q other anchors, is the
    # one array of its size, and each 128-row block is written in place:
    # beside it are at most one temporary of a block's size (the sum of
    # squared norms), the Matern polynomial, and vectors of n entries (the
    # squared norms, a copy of the points)
    n = 600
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (n, 3))
    spec = ScalarKernelSpec(family, 0.5, smoothness=nu, dimension=3)
    if q is None:
        q, assemble = n, lambda: gram_scalar(spec, x)
    else:
        z = rng.uniform(-1, 1, (q, 3))
        assemble = lambda: _CrossGram(spec, z)(x)  # noqa: E731
    assemble()
    tracemalloc.start()
    try:
        assemble()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (n * q + 2 * 128 * q + 4 * n) * 8, peak


def test_split_pass_peak_memory():
    # a pass of three sign blocks of width n*m, the last one partial, holds
    # two arrays of block size (the row-major signs, where each G Sigma is
    # written too, and their column-major copy) and no third one, with M
    # applied and with the identity M skipped; on top of them only the size
    # of the Grams and a fixed slack (the M step's 16 points at a time, a
    # draw's raw words, the estimators' per-block arrays)
    n, m, draws = 100, 3, 1100
    rng = np.random.default_rng(4)
    b = rng.standard_normal((m, m))
    data = rng.uniform(-1, 1, (n, 2))
    net = NetworkSpec(
        tuple(LayerSpec(s * np.eye(2), sobolev_order_in=2.0) for s in (0.9, 1.0)), g_norm=1.0
    )
    coeffs = rng.standard_normal((4, n, m))
    cfg = McConfig(draws=draws, seed=9)
    for out in (b @ b.T, np.eye(m)):
        kernel = DecomposableKernel(ScalarKernelSpec("gaussian", 1.0, dimension=2), out)
        g_in, g_mid = gram_scalar(kernel.scalar, data), gram_scalar(kernel.scalar, 0.9 * data)

        def estimators():
            split = SplitMc(net, 1, coeffs, kernel, g_in, g_mid)
            return [BallMc(g_in, kernel.output, n), *split.estimators]

        run_mc(estimators(), cfg)
        pass_estimators = estimators()
        tracemalloc.start()
        try:
            run_mc(pass_estimators, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 512 * n * m * 8 + g_in.nbytes + g_mid.nbytes + 256_000, peak


def test_eval_scalar_symmetric_and_validates():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, z = rng.standard_normal(2), rng.standard_normal(2)
        assert eval_scalar(GAUSS2, x, z) == eval_scalar(GAUSS2, z, x)
    with pytest.raises(InputError):
        eval_scalar(GAUSS2, [1.0], [0.0, 0.0])
    with pytest.raises(InputError):
        eval_scalar(GAUSS2, [np.nan, 0.0], [0.0, 0.0])


def test_gram_single_point_and_duplicates():
    assert np.array_equal(gram_scalar(GAUSS2, [[0.5, 0.5]]), [[1.0]])
    g = gram_scalar(GAUSS2, [[1.0, 2.0], [1.0, 2.0]])
    assert np.array_equal(g, np.ones((2, 2)))


@pytest.mark.parametrize("family,bw,nu", [("gaussian", 1.3, 0.0), ("matern", 0.7, 2.5)])
def test_gram_symmetric_psd(family, bw, nu):
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((5, 3))
    spec = ScalarKernelSpec(family, bw, smoothness=nu, dimension=3)
    g = gram_scalar(spec, pts)
    assert np.array_equal(g, g.T)
    assert np.linalg.eigvalsh(g)[0] >= -1e-10 * 5


def test_gram_operator_matches_elementwise_bruteforce():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((3, 2))
    m_mat = random_psd(2, rng)
    kernel = DecomposableKernel(GAUSS2, m_mat)
    g_k = gram_scalar(GAUSS2, pts)
    g_op = gram_operator(kernel, pts)
    n, m = 3, 2
    for i in range(n):
        for ip in range(n):
            for j in range(m):
                for jp in range(m):
                    assert g_op[i * m + j, ip * m + jp] == g_k[i, ip] * m_mat[j, jp]


def test_gram_operator_single_point_and_trace():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((4, 2))
    m_mat = random_psd(3, rng)
    kernel = DecomposableKernel(GAUSS2, m_mat)
    single = gram_operator(kernel, pts[:1])
    assert np.allclose(single, m_mat)  # k(x, x) = 1
    g_k = gram_scalar(GAUSS2, pts)
    g_op = gram_operator(kernel, pts)
    assert np.trace(g_op) == pytest.approx(np.trace(g_k) * np.trace(m_mat), rel=1e-12)


def test_gram_operator_identity_output_blocks():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((3, 2))
    kernel = DecomposableKernel(GAUSS2, np.eye(2))
    g_k = gram_scalar(GAUSS2, pts)
    g_op = gram_operator(kernel, pts)
    assert np.array_equal(g_op, np.kron(g_k, np.eye(2)))


def test_check_kappa_rejects_a_gram_above_kappa():
    g = gram_scalar(GAUSS2, [[0.0, 0.0], [1.0, 1.0]])
    check_kappa(GAUSS2, g)
    with pytest.raises(InputError, match="kappa"):
        check_kappa(GAUSS2, 2.0 * g)


@st.composite
def kernels_and_points(draw):
    """A kernel of each family (matern at several nu) and two point sets
    in its dimension, the first with duplicated rows."""
    d = draw(st.integers(1, 3))
    family = draw(st.sampled_from(["gaussian", "matern", "sobolev-radial"]))
    if family == "gaussian":
        smoothness = 0.0
    elif family == "matern":
        smoothness = draw(st.sampled_from([0.5, 1.5, 2.5, 0.3, 3.7]))
    else:
        smoothness = d / 2 + draw(st.sampled_from([0.5, 1.0, 1.5, 2.25]))
    spec = ScalarKernelSpec(family, draw(st.floats(0.05, 20.0)), smoothness, d)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([1e-6, 1.0, 10.0]))
    x = spread * rng.uniform(-1, 1, (draw(st.integers(1, 12)), d))
    x = np.concatenate([x, x[: draw(st.integers(0, x.shape[0]))]])
    z = spread * rng.uniform(-1, 1, (draw(st.integers(1, 6)), d))
    return spec, x, z


@settings(max_examples=200, deadline=None)
@given(kernels_and_points())
def test_no_kernel_value_exceeds_kappa(case):
    # bounded from above only: self-distances that round to a tiny positive
    # value put diagonal entries just below kappa
    spec, x, z = case
    bound = spec.kappa * (1.0 + 1e-12)
    g = gram_scalar(spec, x)
    assert np.array_equal(g, g.T)
    check_kappa(spec, g)
    assert gram_scalar_cross(spec, x, z).max() <= bound
    assert gram_scalar_cross(spec, x, x).max() <= bound


@st.composite
def certified_kernels_and_points(draw):
    """A gaussian or Matern nu = 1.5 or 2.5 kernel and up to 64 points in
    d <= 3 dimensions, up to half of them near duplicates of others at
    distance 1e-9, the cloud shifted by a c with |c| <= 1e3."""
    d = draw(st.integers(1, 3))
    family, nu = draw(st.sampled_from([("gaussian", 0.0), ("matern", 1.5), ("matern", 2.5)]))
    spec = ScalarKernelSpec(family, draw(st.floats(0.05, 20.0)), nu, d)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 64))
    x = draw(st.sampled_from([0.1, 1.0, 10.0])) * rng.uniform(-1, 1, (n, d))
    dups = draw(st.integers(0, n // 2))
    step = rng.standard_normal((dups, d))
    x[n - dups :] = x[:dups] + 1e-9 * step / np.linalg.norm(step, axis=1, keepdims=True)
    c = rng.standard_normal(d)
    return spec, x + draw(st.sampled_from([0.0, 1.0, 1e2, 1e3])) * c / np.linalg.norm(c)


@settings(max_examples=200, deadline=None)
@given(certified_kernels_and_points())
def test_gram_error_bound_holds_and_certifies_psd(case):
    spec, x = case
    g, slack = gram_scalar(spec, x), gram_error_bound(spec, x)
    assert np.abs(g - gram_long_double(spec, x)).max() <= slack
    if slack < PSD_TOL:
        n = x.shape[0]
        require_psd_cholesky(g, np.linalg.eigvalsh(g)[-1] / n, "Gram", float(n))


@pytest.mark.parametrize("spec", [
    ScalarKernelSpec("matern", 0.7, smoothness=0.5, dimension=2),
    ScalarKernelSpec("matern", 0.7, smoothness=1.2, dimension=2),  # the kv path
    ScalarKernelSpec("sobolev-radial", 0.7, smoothness=2.0, dimension=2),  # nu = 1.0
    ScalarKernelSpec("matern", 1e-200, smoothness=1.5, dimension=2),  # 1 / l^2 overflows
])
def test_gram_error_bound_declines_other_kernels(spec):
    # points at the origin too: R^2 = 0 must not turn an infinite L_k into NaN
    for x in (np.zeros((3, 2)), np.eye(2)):
        assert gram_error_bound(spec, x) == np.inf


def test_output_matrix_validation():
    with pytest.raises(InputError):
        make_output_matrix(np.array([[1.0, 0.1], [0.2, 1.0]]))
    with pytest.raises(NotPsdError):
        make_output_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_predict_expansion_matches_loop_oracle():
    rng = np.random.default_rng(13)
    anchors = rng.standard_normal((3, 2))
    m_mat = random_psd(2, rng)
    coeffs = rng.standard_normal((3, 2))
    x = rng.standard_normal(2)
    expected = np.zeros(2)
    for j in range(3):
        expected += eval_scalar(GAUSS2, x, anchors[j]) * (m_mat @ coeffs[j])
    got = KernelExpansion(GAUSS2, m_mat, anchors, coeffs).at(x)
    assert got.shape == (1, 2)
    assert np.allclose(got[0], expected, atol=1e-12)


def test_predict_expansion_trivial_cases():
    anchors = [[0.2, 0.4]]
    zero = KernelExpansion(GAUSS2, np.eye(2), anchors, np.zeros((1, 2)))
    assert np.array_equal(zero.at([0.0, 0.0]), np.zeros((1, 2)))
    alpha = np.array([[3.0, -1.0]])
    got = KernelExpansion(GAUSS2, np.eye(2), anchors, alpha).at(anchors[0])
    assert np.allclose(got, alpha, atol=1e-14)
    with pytest.raises(InputError):
        KernelExpansion(GAUSS2, np.eye(2), anchors, np.zeros((2, 2)))


def test_predict_expansion_linear_in_coeffs():
    rng = np.random.default_rng(17)
    anchors = rng.standard_normal((4, 2))
    m_mat = random_psd(2, rng)
    c1, c2 = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
    x = rng.standard_normal(2)
    lhs = KernelExpansion(GAUSS2, m_mat, anchors, 2.0 * c1 + c2).at(x)
    rhs = 2.0 * KernelExpansion(GAUSS2, m_mat, anchors, c1).at(x) + KernelExpansion(
        GAUSS2, m_mat, anchors, c2
    ).at(x)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_expansion_norm_matches_direct_sum():
    rng = np.random.default_rng(19)
    anchors = rng.standard_normal((4, 2))
    m_mat = random_psd(2, rng)
    coeffs = rng.standard_normal((4, 2))
    exp = KernelExpansion(GAUSS2, m_mat, anchors, coeffs)
    acc = 0.0
    for i in range(4):
        for j in range(4):
            acc += eval_scalar(GAUSS2, anchors[i], anchors[j]) * (
                coeffs[i] @ m_mat @ coeffs[j]
            )
    assert expansion_norm(exp) == pytest.approx(math.sqrt(acc), rel=1e-12)


def test_sobolev_norm_s_zero_closed_form():
    # ||e^{-||x||^2}||_{L^2}^2 = (pi/2)^{d/2}
    assert sobolev_norm_gaussian(1, 0.0) == pytest.approx((math.pi / 2) ** 0.25, rel=1e-9)
    for d in (1, 2, 3, 4):
        assert sobolev_norm_gaussian(d, 0.0) == pytest.approx(
            (math.pi / 2) ** (d / 4), rel=1e-9
        )


def test_sobolev_norm_d1_s1_against_trapezoid_oracle():
    # brute-force quadrature of 2^{-1} * S_0 * int (1+r^2) e^{-r^2/2} dr
    r = np.linspace(0.0, 14.0, 2**21 + 1)
    vals = (1.0 + r * r) * np.exp(-0.5 * r * r)
    integral = np.trapezoid(vals, r)
    expected = math.sqrt(0.5 * 2.0 * integral)
    assert sobolev_norm_gaussian(1, 1.0) == pytest.approx(expected, rel=1e-6)


def test_sobolev_norm_monotone_in_s():
    values = [sobolev_norm_gaussian(3, s) for s in (0.0, 0.5, 1.0, 2.0, 3.5)]
    assert all(b >= a for a, b in zip(values, values[1:]))
