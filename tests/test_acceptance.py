"""Acceptance suite: one check per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Checks are oracle-based and self-contained; tolerances are pinned in
the assertions.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from opbounds.complexity import McConfig, rademacher_ball_mc, trace_bound
from opbounds.deepvv import (
    LayeredModel,
    TrainConfig,
    VVLayer,
    _forward_trace,
    _pf_bottom,
    _pf_top,
    default_probes,
    gradient,
    init_layered_model,
    pf_product_norm,
    refine_kernel,
    separable_bound,
    train,
)
from opbounds.erm import FitConfig, excess_risk_bound_rhs, fit_full, fit_sketched
from opbounds.errors import RefinementOrderError
from opbounds.kernels import DecomposableKernel, ScalarKernelSpec, gram_scalar
from opbounds.koopman import LayerSpec, NetworkSpec, product_bound, spectral_ratio_factor
from opbounds.losses import LossSpec
from opbounds.sketching import SketchMatrix, SketchSpec, make_p_sparsified, satisfiability_constant
from opbounds.spectral import (
    _top_eigenpair,
    _whiten,
    check_satisfiability,
    critical_radius,
    eigendecompose_scaled_gram,
    pencil_max,
    psi_value,
    statistical_dimension,
)


def record(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {tag} - {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def test_criterion_01_ball_mc_below_trace_bound():
    # CPU time, not wall time, decides: full-suite load stretches wall time
    started_cpu = time.process_time()
    started = time.perf_counter()
    ok = True
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(8, 65))
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        pts = rng.uniform(-1, 1, (n, d))
        b = rng.standard_normal((m, m))
        m_mat = b @ b.T
        kernel = DecomposableKernel(
            ScalarKernelSpec("gaussian", 1.0, dimension=d), m_mat, kappa=1.0
        )
        g_k = gram_scalar(kernel.scalar, pts)
        est = rademacher_ball_mc(g_k, m_mat, n, McConfig(draws=10_000, seed=trial))
        bound = trace_bound(1.0, float(np.trace(m_mat)), n)
        ok = ok and est.estimate <= bound + 3 * est.stderr
    cpu = time.process_time() - started_cpu
    elapsed = time.perf_counter() - started
    ok = ok and cpu < 30.0
    record(1, "unit-ball Rademacher MC below trace bound on 20 datasets", ok,
           f"cpu {cpu:.1f}s, wall {elapsed:.1f}s")


def test_criterion_02_product_bound_identity_exact():
    net = NetworkSpec(
        layers=(LayerSpec(weights=np.eye(3), sobolev_order_in=2.0, sobolev_order_out=2.0),),
        g_norm=1.0,
        output_dim=2,
    )
    rep = product_bound(net, kappa=1.0, tr_m=2.0, n=100)
    expected = math.sqrt(2.0 / 100.0)
    ok = abs(rep.total - expected) <= 1e-12 * expected
    record(2, "product bound equals trace bound exactly on the identity network", ok)


def _ray_search(w, s, rng, n_dirs=20_000):
    q, r = np.linalg.qr(w)
    rank = int(np.sum(np.abs(np.diag(r)) > 1e-12))
    basis = q[:, :rank]
    dirs = rng.standard_normal((n_dirs, rank))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    omegas = dirs @ basis.T
    a = np.einsum("ij,ij->i", omegas @ w, omegas @ w)
    ts = np.logspace(-3, 3, 80) ** 2
    ratios = (1.0 + np.outer(a, ts)) / (1.0 + ts)[None, :]
    return max(1.0, float(ratios.max())) ** (s / 2.0)


def test_criterion_03_spectral_ratio_vs_ray_search():
    started_cpu = time.process_time()
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(50):
        d_in = int(rng.integers(1, 5))
        d_out = int(rng.integers(1, 5))
        w = rng.standard_normal((d_out, d_in)) * rng.uniform(0.4, 2.5)
        for s in (0.6 * d_in, float(d_in)):
            impl = spectral_ratio_factor(w, s)
            oracle = _ray_search(w, s, rng)
            ok = ok and oracle <= impl * (1 + 1e-9) and impl <= oracle * 1.02
    cpu = time.process_time() - started_cpu
    elapsed = time.perf_counter() - started
    ok = ok and cpu < 60.0
    record(3, "spectral-ratio factor matches dense ray search within 2%", ok,
           f"cpu {cpu:.1f}s, wall {elapsed:.1f}s")


def test_criterion_04_identity_sketch_equivalence():
    ok = True
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        n, d, m = int(rng.integers(6, 20)), 2, 2
        x = rng.uniform(-1, 1, (n, d))
        y = rng.standard_normal((n, m))
        b = rng.standard_normal((m, m))
        kernel = DecomposableKernel(
            ScalarKernelSpec("gaussian", 1.0, dimension=d),
            b @ b.T + 0.5 * np.eye(m),
            kappa=1.0,
        )
        cfg = FitConfig(lambda_n=0.05)
        identity = SketchMatrix(matrix=np.eye(n), spec=SketchSpec(s=n, n=n, seed=0))
        full = fit_full(kernel, x, y, LossSpec("squared"), cfg)
        sketched = fit_sketched(kernel, x, y, LossSpec("squared"), cfg, identity)
        gap = float(np.abs(full.predict(x) - sketched.predict(x)).max())
        worst = max(worst, gap)
        ok = ok and gap <= 1e-8
    record(4, "identity-sketch fit matches full fit on training predictions", ok,
           f"max gap {worst:.2e}")


#: Davidson & Szarek (2001), Thm II.13: an s x d matrix (s >= d) of i.i.d.
#: N(0, 1) entries has sigma_max <= sqrt(s) + sqrt(d) + t and
#: sigma_min >= sqrt(s) - sqrt(d) - t, each failing with probability at most
#: exp(-t^2 / 2).  t = sqrt(2 log 20) makes that 1/20 per side.
_DS_T90 = math.sqrt(2.0 * math.log(20.0))


def _s90(d: int) -> int:
    """Gaussian sketch size at which ||(S U1)^T S U1 - I|| <= 1/2 holds with
    probability >= 0.9 by the Davidson-Szarek bound.

    The eigenvalues of (S U1)^T S U1 are sigma^2 / s for sigma the singular
    values of sqrt(s) S U1, so the condition is sigma_max <= sqrt(3 s / 2) and
    sigma_min >= sqrt(s / 2); the upper edge binds, since
    sqrt(3/2) - 1 < 1 - sqrt(1/2).
    """
    return math.ceil(((math.sqrt(d) + _DS_T90) / (math.sqrt(1.5) - 1.0)) ** 2)


def _isometry_pass_rate(s: int, d: int, draws: int, rng) -> float:
    """Monte-Carlo P(||G^T G - I|| <= 1/2) for G s x d with i.i.d. N(0, 1/s)."""
    g = rng.standard_normal((draws, s, d)) / math.sqrt(s)
    dev = np.linalg.eigvalsh(np.swapaxes(g, 1, 2) @ g - np.eye(d))
    return float(np.mean(np.abs(dev).max(axis=1) <= 0.5))


def test_criterion_05_satisfiability_frequency():
    # A Gaussian sketch with p = 1 has i.i.d. N(0, 1/s) entries and U1 has
    # orthonormal columns, so S U1 is exactly an s x d_n matrix of i.i.d.
    # N(0, 1/s) entries: the pass rate of the near-isometry condition
    # ||(S U1)^T S U1 - I|| <= 1/2 depends on (s, d_n) alone, not on n or on
    # the Gram.  The theory (Yang, Pilanci & Wainwright 2017) only promises
    # satisfiability with probability >= 1 - c1 exp(-c2 s) once s >= c0 d_n,
    # with unspecified constants, so the check has two parts:
    #  * at s = 8 d_n the pass count must match that law, estimated here from
    #    independent Gaussian matrices (about 14/100 on these d_n in {6, 7};
    #    the norm concentrates near (1 + sqrt(1/8))^2 - 1 ~ 0.83, so >= 90/100
    #    is out of reach at this size);
    #  * at the closed-form size _s90(d_n) (475 for d_n = 6, 514 for 7) each
    #    seed passes with probability >= 0.9, so >= 90/100 is required.  The
    #    law of S U1 does not depend on n, so s > n is fine here.
    # No bound with explicit constants covers the second condition
    # ||S U2 D2^(1/2)|| <= c delta_n; it is still checked through
    # `satisfiable` at both sizes.
    started_cpu = time.process_time()
    started = time.perf_counter()
    c = satisfiability_constant(1.0)
    d_ns = []
    passes = passes90 = 0
    worst90 = 0.0
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        n = 200
        pts = rng.uniform(-1, 1, (n, 2))
        g_k = gram_scalar(ScalarKernelSpec("gaussian", 1.0, dimension=2), pts)
        dec = eigendecompose_scaled_gram(g_k, n)
        delta_sq = critical_radius(dec.mu)
        d_n = statistical_dimension(dec.mu, delta_sq)
        d_ns.append(d_n)
        sk = make_p_sparsified(
            SketchSpec(s=8 * d_n, n=n, p=1.0, dist="gaussian", seed=seed)
        )
        passes += int(check_satisfiability(sk, dec, d_n, delta_sq, c).satisfiable)
        with pytest.warns(UserWarning, match="more rows"):
            spec90 = SketchSpec(s=_s90(d_n), n=n, p=1.0, dist="gaussian", seed=seed)
        rep = check_satisfiability(make_p_sparsified(spec90), dec, d_n, delta_sq, c)
        passes90 += int(rep.satisfiable)
        worst90 = max(worst90, rep.norm1)
    # expected count and its variance under the law, including the
    # Monte-Carlo error of each estimated rate
    law_rng = np.random.default_rng(5005)
    draws = 4000
    mean = var = 0.0
    for d in sorted(set(d_ns)):
        k = d_ns.count(d)
        rate = _isometry_pass_rate(8 * d, d, draws, law_rng)
        mean += k * rate
        var += k * rate * (1.0 - rate) * (1.0 + k / draws)
    band = 3.0 * math.sqrt(var)
    cpu = time.process_time() - started_cpu
    elapsed = time.perf_counter() - started
    ok = abs(passes - mean) <= band and passes90 >= 90 and cpu < 120.0
    record(5, "satisfiability at 8 d_n matches the Gaussian law; "
           ">= 90/100 at s90(d_n)", ok,
           f"{passes}/100 at 8 d_n vs law {mean:.1f} +- {band:.1f} (3 sigma); "
           f"{passes90}/100 at s90, worst norm1 {worst90:.2f}; "
           f"cpu {cpu:.1f}s, wall {elapsed:.1f}s")


def test_criterion_06_critical_radius():
    ok = True
    for n in (2, 10, 100, 1000):
        got = critical_radius(np.full(n, 0.01))
        ok = ok and abs(got - 0.1) <= 1e-6
    for seed in range(100):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.integers(2, 80))
        mu = np.sort(rng.uniform(1e-4, 3.0, n) * rng.uniform(0.2, 1.0, n))[::-1]
        d_sq = critical_radius(mu)
        delta = math.sqrt(d_sq)
        ok = ok and psi_value(delta, mu) <= d_sq
        if delta > 1e-8:
            probe = delta - 1e-8
            ok = ok and psi_value(probe, mu) > probe**2
    record(6, "critical radius analytic value and boundary/minimality probes", ok)


def test_criterion_07_pencil_oracle_and_pf_identity():
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        bt = rng.standard_normal((6, 6))
        bb = rng.standard_normal((6, 6))
        g_top = bt @ bt.T
        g_bottom = bb @ bb.T + 0.3 * np.eye(6)
        rho = pencil_max(g_top, g_bottom)
        vecs = rng.standard_normal((10_000, 6))
        num = np.einsum("ij,jk,ik->i", vecs, g_top, vecs)
        den = np.einsum("ij,jk,ik->i", vecs, g_bottom, vecs)
        quotients = num / den
        ok = ok and bool(np.all(quotients <= rho * (1 + 1e-9)))
        # refine the best sampled direction by inverse power iteration to pin
        # the supremum independently of the whitening route
        a = vecs[int(np.argmax(quotients))]
        for _ in range(300):
            a = np.linalg.solve(g_bottom, g_top @ a)
            a /= np.linalg.norm(a)
        best = (a @ g_top @ a) / (a @ g_bottom @ a)
        ok = ok and abs(rho - best) <= 1e-6

    rng = np.random.default_rng(123)
    n = 6
    x = rng.uniform(-1, 1, (n, 2))
    lay = VVLayer(
        ScalarKernelSpec("gaussian", 1.0, dimension=2), np.eye(2), x,
        0.3 * rng.standard_normal((n, 2)),
    )
    with pytest.warns(UserWarning, match="layers"):
        model = LayeredModel((lay,))
    pf = pf_product_norm(model, x, rng.standard_normal((n, 2)))
    ok = ok and abs(pf - 1.0) <= 1e-12
    record(7, "pencil maximizer dominates sampled quotients; identity case is 1", ok)


def _random_deep_model(seed, dims, n_anchor=4):
    rng = np.random.default_rng(seed)
    layers = []
    d_in = dims[0]
    for d_out in dims[1:]:
        anchors = rng.uniform(-1, 1, (n_anchor, d_in))
        coeffs = 0.3 * rng.standard_normal((n_anchor, d_out))
        layers.append(
            VVLayer(ScalarKernelSpec("gaussian", 1.0, dimension=d_in),
                    np.eye(d_out), anchors, coeffs)
        )
        d_in = d_out
    return LayeredModel(tuple(layers))


@pytest.mark.filterwarnings("ignore:model has")
def test_criterion_08_gradient_check():
    checked = 0
    attempt = 0
    worst = 0.0
    ok = True
    while checked < 20 and attempt < 80:
        attempt += 1
        rng = np.random.default_rng(6000 + attempt)
        dims = (2, 3, 2) if attempt % 2 else (2, 3, 3, 2)
        model = _random_deep_model(6100 + attempt, dims)
        n = 6
        x = rng.uniform(-1, 1, (n, 2))
        y = rng.standard_normal((n, 2))
        probes = default_probes(y, 2)
        probe_bilinear, basis = _pf_bottom(model, x, probes)
        g_top, _ = _pf_top(model, _forward_trace(model, x, model.coeffs)[0][-2], probe_bilinear)
        rho, _, _, gap = _top_eigenpair(_whiten(g_top, basis), basis)
        if not (rho > 0 and gap > 1e-6 * rho):
            continue  # eigen-gap guard: regenerate
        analytic = gradient(model, x, y, 0.3, 0.2, mode="analytic", probes=probes)
        fd = gradient(model, x, y, 0.3, 0.2, mode="finite-diff", probes=probes)
        scale = max(float(np.abs(np.concatenate([g.ravel() for g in fd])).max()), 1e-12)
        err = max(float(np.abs(a - f).max()) for a, f in zip(analytic, fd)) / scale
        worst = max(worst, err)
        ok = ok and err <= 1e-5
        checked += 1
    ok = ok and checked == 20
    record(8, "analytic deep-model gradients match central differences", ok,
           f"20 models, max rel err {worst:.2e}")


@pytest.mark.filterwarnings("ignore:model has")
def test_criterion_09_training_contract():
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(7000 + seed)
        n = 8
        x = rng.uniform(-1, 1, (n, 2))
        y = rng.standard_normal((n, 2))
        spec = ScalarKernelSpec("gaussian", 1.0, dimension=2)
        model = init_layered_model(x, [spec] * 3, [np.eye(2)] * 3, seed=seed)
        cfg = TrainConfig(lambda1=0.1, lambda2=0.1, step=0.4, iters=25)
        result = train(model, x, y, cfg)
        objs = [e["objective"] for e in result.trajectory]
        ok = ok and all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    rng = np.random.default_rng(7777)
    n = 8
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.standard_normal((n, 2))
    # a sharper top kernel makes the transfer-product norm respond to training
    specs = [
        ScalarKernelSpec("gaussian", 1.0, dimension=2),
        ScalarKernelSpec("gaussian", 1.0, dimension=2),
        ScalarKernelSpec("gaussian", 5.0, dimension=2),
    ]
    probes = default_probes(y, 2)
    finals = []
    for lam1 in (0.0, 0.1, 1.0):
        model = init_layered_model(x, specs, [np.eye(2)] * 3, seed=11)
        result = train(model, x, y, TrainConfig(lambda1=lam1, step=0.5, iters=150))
        finals.append(pf_product_norm(result.model, x, probes))
    sweep_ok = finals[1] <= finals[0] + 1e-9 and finals[2] <= finals[1] + 1e-9
    ok = ok and sweep_ok and finals[2] < finals[0] - 1e-3  # non-vacuous spread
    record(9, "objective nonincreasing; final PF norms nonincreasing in lambda1",
           ok, "pf=" + ",".join(f"{v:.4f}" for v in finals))


def test_criterion_10_excess_risk_arithmetic():
    # independent hand derivation, frozen: 7.1507228645737
    got = excess_risk_bound_rhs(
        j_l=1.0, c=5.5373, lambda_n=0.01, m_opnorm=1.0, delta_sq=0.1,
        kappa=1.0, tr_m=2.0, n=100, conf_delta=0.05, l_lip=1.0,
    )
    ok = abs(got.value - 7.1507228645737) <= 1e-3
    record(10, "excess-risk bound reproduces the hand-derived value ~7.15", ok,
           f"value {got.value:.6f}")


@pytest.mark.filterwarnings("ignore:model has")
def test_criterion_11_refinement_ordering():
    rng = np.random.default_rng(8000)
    n_anchor = 4
    anchors = rng.uniform(-1, 1, (n_anchor, 2))
    checked = 0
    accepted = 0
    rejected = 0
    ok = True
    while checked < 100:
        b = rng.standard_normal((2, 2))
        m_mat = b @ b.T + 0.3 * np.eye(2)
        kind = checked % 3
        if kind == 0:
            a_mat = float(rng.uniform(0.2, 1.3)) * m_mat
        elif kind == 1:
            t = rng.standard_normal((2, 1))
            a_mat = m_mat - 0.5 * (t @ t.T)
        else:
            g = rng.standard_normal((2, 2))
            a_mat = g @ g.T
        a_mat = 0.5 * (a_mat + a_mat.T)
        if np.linalg.eigvalsh(a_mat)[0] < 0:
            continue  # candidate must itself be a valid output matrix
        layers = tuple(
            VVLayer(ScalarKernelSpec("gaussian", 1.0, dimension=2), m_mat,
                    anchors, 0.2 * rng.standard_normal((n_anchor, 2)))
            for _ in range(3)
        )
        model = LayeredModel(layers)
        ordered = bool(np.linalg.eigvalsh(m_mat - a_mat)[0] >= -1e-10)
        try:
            refine_kernel(model, a_mat, "shrink")
            got = True
            accepted += 1
        except RefinementOrderError:
            got = False
            rejected += 1
        ok = ok and got == ordered
        checked += 1
    ok = ok and accepted > 0 and rejected > 0
    # trace scaling of the consistent bound at frozen factors
    before = separable_bound(1.0, 2.0, 50, "consistent", pf_norm=1.7, top_norm=0.9)
    after = separable_bound(1.0, 1.0, 50, "consistent", pf_norm=1.7, top_norm=0.9)
    scaling_ok = abs(after - before * math.sqrt(1.0 / 2.0)) <= 1e-10 * before
    ok = ok and scaling_ok
    record(11, "refinement accepts exactly PSD-ordered matrices; bound scales "
               "by sqrt(TrA/TrM)", ok, f"{accepted} accepted / {rejected} rejected")


_DET_CONFIGS = {
    "bound-compare": {
        "seed": 11,
        "dataset": {"kind": "synthetic", "n": 12, "d": 2, "m": 2, "noise": 0.1},
        "kernel": {"family": "gaussian", "bandwidth": 1.0},
        "mc": {"draws": 200},
        "network": {
            "g_norm": 1.0,
            "output_dim": 2,
            "layers": [{"weights": [[1.0, 0.0], [0.0, 1.0]],
                        "sobolev_order_in": 2.0, "sobolev_order_out": 2.0}],
        },
    },
    "sketch-regress": {
        "seed": 5,
        "dataset": {"kind": "synthetic", "n": 14, "d": 2, "m": 2, "noise": 0.05},
        "kernel": {"family": "gaussian", "bandwidth": 1.0},
        "loss": {"family": "huber", "huber_delta": 1.0},
        "fit": {"lambda_n": 0.05, "max_iters": 40, "step_size": 0.5, "tol": 1e-7},
        "sketch": {"rows": 6, "p": 1.0, "dist": "gaussian"},
    },
    "deep-vvrkhs": {
        "seed": 3,
        "dataset": {"kind": "synthetic", "n": 8, "d": 2, "m": 2, "noise": 0.1},
        "deep_model": {
            "bandwidths": [1.0, 1.0, 1.0],
            "output_dims": [2, 2, 2],
            "train": {"lambda1": 0.1, "lambda2": 0.1, "step": 0.3, "iters": 6},
        },
    },
    "spectral-report": {
        "seed": 7,
        "dataset": {"kind": "synthetic", "n": 20, "d": 2},
        "kernel": {"family": "gaussian", "bandwidth": 1.0},
        "sketch": {"rows": 10, "p": 0.5, "dist": "rademacher"},
    },
}


def test_criterion_12_cli_determinism(tmp_path):
    ok = True
    for name, config in _DET_CONFIGS.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(config))
        payloads = []
        for tag, threads in (("a", "1"), ("b", "1"), ("c", "2")):
            out_path = tmp_path / f"{name}_{tag}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "opbounds", name, "--config", str(cfg_path),
                 "--out", str(out_path)],
                capture_output=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            ok = ok and proc.returncode == 0
            payloads.append(out_path.read_bytes() if out_path.exists() else b"")
        ok = ok and payloads[0] == payloads[1] == payloads[2] and payloads[0]
    record(12, "CLI output byte-identical across reruns and BLAS thread settings", ok)
