"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines including timings.
"""

import math
import time

import numpy as np
import pytest

from schromag import baselines, blockenc, complexity
from schromag.cli import COMPARE_SAMPLES
from schromag.linalg import LinearSystem, direct_solve, full_svd
from schromag.mag import MagParams, build_spectral, horizon, mag_iterate
from schromag.presets import PDE_PRESET_NAMES, compare_preset, pde_preset
from schromag.schrod import pipeline

from reference import (build_grid, build_transformed, evolve, flow_state, flow_steady_state,
                       homogenize, params_from_matrix, recover_single_point, split,
                       steady_state)

RNG = np.random.default_rng(2024)


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_bracketed_system(rng, n, sig_lo=0.2, sig_hi=5.0, margin=0.02):
    sig = rng.uniform(sig_lo * (1 + margin), sig_hi * (1 - margin), size=n)
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    a = q1 @ np.diag(sig) @ q2.conj().T
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    return a, b, MagParams(sig_hi**2, sig_lo**2)


def test_criterion_1_spectral_radius_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(50):
        n = int(RNG.integers(2, 33))
        a, b, params = random_bracketed_system(RNG, n)
        sys = build_transformed(a, b, params)
        rho = float(np.max(np.abs(np.linalg.eigvals(sys.h))))
        worst = max(worst, abs(rho - math.sqrt(params.beta)))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-8 and elapsed < 10.0,
        f"max |rho - sqrt(beta)| = {worst:.2e} over 50 systems "
        f"(tol 1e-8), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_steady_state_validation_term():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for k in range(50):
        n = int(rng.integers(2, 33))
        a, b, params = random_bracketed_system(rng, n)
        sys = build_transformed(a, b, params)
        w_inf = steady_state(sys)
        c = math.sqrt(params.alpha * params.beta)
        err = np.max(np.abs(w_inf[n:] - c * b)) / max(np.max(np.abs(c * b)), 1e-300)
        worst = max(worst, float(err))
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst <= 1e-9 and elapsed < 10.0,
        f"max second-block deviation = {worst:.2e} (tol 1e-9), {elapsed:.1f}s",
    )


def test_criterion_3_convergence_step_scaling():
    t0 = time.perf_counter()
    delta = 1e-6
    ratios = []
    for kappa in (10.0, 100.0, 1000.0):
        sig = np.linspace(1.0, kappa, 6)
        a = np.diag(sig).astype(complex)
        b = np.ones(6, dtype=complex)
        params = MagParams(kappa**2, 1.0)
        sys = build_transformed(a, b, params)
        trace = mag_iterate(sys, np.zeros(12), delta, 400_000, w_inf=steady_state(sys))
        ratios.append(trace.steps / (kappa * math.log(1.0 / delta)))
    elapsed = time.perf_counter() - t0
    in_band = all(0.25 <= r <= 4.0 for r in ratios)
    spread = max(ratios) / min(ratios)
    report(
        3,
        in_band and spread < 2.0 and elapsed < 60.0,
        f"steps/(kappa ln(1/delta)) = {[f'{r:.2f}' for r in ratios]}, "
        f"spread {spread:.2f} (< 2), {elapsed:.1f}s (< 60s)",
    )


def _time_to_delta(spec, flow, delta=1e-6, t_hi=None):
    """Bisect the exact flow, built from `spec`, for the first time the
    error contracts to delta."""
    w_inf = flow_steady_state(spec, flow)
    d0 = np.linalg.norm(w_inf)

    def err(t):
        state = flow_state(spec, flow.at(t))
        return np.linalg.norm(state - w_inf) / d0

    lo, hi = 0.0, t_hi
    while err(hi) > delta:
        hi *= 2.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if err(mid) > delta:
            lo = mid
        else:
            hi = mid
    return hi


def test_criterion_4_gradient_vs_mag_separation():
    t0 = time.perf_counter()
    delta = 1e-6
    rng = np.random.default_rng(11)
    ratios = []
    for trial in range(3):
        sig = np.sort(rng.uniform(0.01, 1.0, size=4))
        sig[0], sig[-1] = 0.01, 1.0  # pin kappa = 100
        a = np.diag(sig).astype(complex)
        b = rng.normal(size=4) + 0j
        params = MagParams(1.0, 1e-4)
        sys = build_transformed(a, b, params)
        trace = mag_iterate(sys, np.zeros(8), delta, 100_000, w_inf=steady_state(sys))
        spec = build_spectral(a, b, params)
        flow = baselines.build_gradient_flow(spec)
        theory = horizon("gradient", spec, delta)[1]
        t_grad = _time_to_delta(spec, flow, delta=delta, t_hi=theory)
        ratios.append(t_grad / trace.steps)
    elapsed = time.perf_counter() - t0
    report(
        4,
        min(ratios) >= 10.0 and elapsed < 60.0,
        f"gradient-time / mag-steps = {[f'{r:.0f}' for r in ratios]} "
        f"(all >= 10), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_5_fig1_reproduction():
    t0 = time.perf_counter()
    a, b, params, t_end = compare_preset("fig1")
    n = a.shape[0]

    # both flows sampled on the one spectral system, as `compare` samples them
    spec = build_spectral(a, b, params)
    damp_flow = baselines.build_damped(spec)
    times = np.linspace(0.0, t_end, COMPARE_SAMPLES)
    states_m, states_d = (spec.to_state(flow.at(times)) for flow in (spec.ode, damp_flow))
    r_m = baselines.auxiliary_ratio_trace(states_m[:, 0], states_m[:, n])
    r_d = baselines.auxiliary_ratio_trace(states_d[:, 0], states_d[:, n])

    tail_start = max(1, int(0.05 * len(r_m.ratios)))
    tail = [r for r in r_m.ratios[tail_start:] if not math.isnan(r)]
    mag_changes = sum(1 for x, y in zip(tail, tail[1:]) if x * y < 0)
    band = max(tail) - min(tail)
    steady_band = abs(tail[-1]) + 1.0

    aux_steady = float(np.max(np.abs(flow_steady_state(spec, damp_flow)[n:])))
    damp_tail = [abs(r) for r in r_d.ratios[-COMPARE_SAMPLES // 10:] if not math.isnan(r)]
    damp_trend = np.mean(damp_tail) < 0.05 * max(abs(r) for r in r_d.ratios if not math.isnan(r))

    elapsed = time.perf_counter() - t0
    ok = (
        mag_changes == 0
        and band <= steady_band
        and r_d.sign_changes >= 2
        and aux_steady <= 1e-10
        and damp_trend
        and elapsed < 30.0
    )
    report(
        5,
        ok,
        f"mag sign changes {mag_changes} (=0), band {band:.2f}, damped sign "
        f"changes {r_d.sign_changes} (>=2), damped aux steady {aux_steady:.1e} "
        f"(<=1e-10), damped ratio tends to 0: {damp_trend}, {elapsed:.1f}s",
    )


def test_criterion_6_fig2_reproduction():
    t0 = time.perf_counter()
    problem, deltas = compare_preset("fig2")
    a, b = problem.system.a, problem.system.b
    oracle = direct_solve(LinearSystem(a, b), full_svd(a)[1])
    # bounds from A's own spectrum, in the closed-form basis
    spec = build_spectral(a, b, problem=problem)
    params = spec.params
    rows = []
    for delta in deltas:
        tsys = build_transformed(a, b, params)
        trace = mag_iterate(
            tsys, np.zeros(2 * tsys.n), *horizon("mag", spec, delta),
            w_inf=steady_state(tsys),
        )
        u_mag = trace.w_final[: tsys.n] / (1.0 - params.beta)
        t_end = horizon("damped", spec, delta)[1]
        u_damp = spec.solution(baselines.build_damped(spec).at(t_end)[:, 0])
        scale = np.linalg.norm(oracle)
        rows.append(
            (delta,
             float(np.linalg.norm(u_mag - oracle) / scale),
             float(np.linalg.norm(u_damp - oracle) / scale))
        )
    elapsed = time.perf_counter() - t0
    ok = all(m <= d for _, m, d in rows) and elapsed < 60.0
    detail = ", ".join(f"d={d:.2g}: mag {m:.1e} <= damped {e:.1e}" for d, m, e in rows)
    report(6, ok, f"{detail}, {elapsed:.1f}s (< 60s)")


def test_criterion_7_schrodingerization_consistency():
    t0 = time.perf_counter()
    hs = homogenize(np.array([[-1.0 + 0j]]), np.zeros(1), 1.0, w0=np.array([1.0 + 0j]))
    sp = split(hs)

    errs = []
    for n_p in (32, 64, 128, 256):
        grid = build_grid(sp.h1, 1.0, n_p)
        state = evolve(sp, grid, hs.w0_homo, 1.0)
        rec = recover_single_point(state, sp.h1)
        errs.append(abs(rec[0] - math.exp(-1.0)))
    descending = all(b <= a * 1.1 for a, b in zip(errs, errs[1:])) and errs[-1] < errs[0]

    grid = build_grid(sp.h1, 1.0, 128)
    state0 = evolve(sp, grid, hs.w0_homo, 0.0)
    field0 = state0.field()
    ident = max(
        float(np.max(np.abs(math.exp(p) * field0[k] - hs.w0_homo)))
        for k, p in enumerate(grid.points)
        if p > 0
    )

    norms = [evolve(sp, grid, hs.w0_homo, t).fourier_norm() for t in (0.0, 0.5, 1.0, 2.0)]
    norm_drift = max(abs(n / norms[0] - 1.0) for n in norms)

    elapsed = time.perf_counter() - t0
    ok = (
        errs[2] < 1e-2
        and descending
        and ident <= 1e-12
        and norm_drift <= 1e-9
        and elapsed < 60.0
    )
    report(
        7,
        ok,
        f"errors {[f'{e:.1e}' for e in errs]} (n_p=128 < 1e-2, descending), "
        f"t=0 identity {ident:.1e} (<= 1e-12), norm drift {norm_drift:.1e} "
        f"(<= 1e-9), {elapsed:.1f}s",
    )


def test_criterion_8_figure_presets():
    t0 = time.perf_counter()
    lines = []
    ok = True
    for name in PDE_PRESET_NAMES:
        problem, solver = pde_preset(name)
        system = problem.system
        oracle = direct_solve(system, full_svd(system.a)[1])
        scale = float(np.max(np.abs(oracle)))
        tol = max(solver.delta, 1e-2)
        params = params_from_matrix(system.a)

        tsys = build_transformed(system.a, system.b, params)
        spec = build_spectral(system.a, system.b, params)
        trace = mag_iterate(
            tsys, np.zeros(2 * tsys.n), *horizon("mag", spec, solver.delta),
            w_inf=steady_state(tsys),
        )
        u_mag = trace.w_final[: tsys.n] / (1.0 - params.beta)
        e_mag = float(np.max(np.abs(u_mag - oracle)) / scale)

        u_s = spec.solution(pipeline(spec, solver.delta)[0])
        e_schro = float(np.max(np.abs(u_s - oracle)) / scale)

        good = e_mag <= tol and e_schro <= tol
        ok &= good
        lines.append(f"{name}: mag {e_mag:.1e}, schro {e_schro:.1e} (tol {tol:.0e})")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report(8, ok, "; ".join(lines) + f"; total {elapsed:.0f}s (< 300s)")


def test_criterion_9_block_encoding_suite():
    t0 = time.perf_counter()
    uc = blockenc.BlockEncoding(
        u=blockenc.U_ZERO_ONE, alpha=1.0, m=1, eps=0.0, n=2,
        reference=np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    )
    uc_eps = blockenc.verify(uc)

    rng = np.random.default_rng(5)
    dil_worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        be = blockenc.dilate(a, float(np.linalg.norm(a, 2)) * (1 + rng.uniform(0, 1)))
        dil_worst = max(dil_worst, blockenc.verify(be))

    comp_ok = True
    for _ in range(10):
        n = int(rng.integers(2, 9))
        a1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a2 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        alpha = float(max(np.linalg.norm(a1, 2), np.linalg.norm(a2, 2))) * 1.4
        pert1 = 1e-6 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        pert2 = 1e-6 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        b1 = blockenc.BlockEncoding(
            u=blockenc.dilate(a1, alpha).u, alpha=alpha, m=1, n=n,
            eps=float(np.linalg.norm(pert1, 2)) * 1.01, reference=a1 + pert1,
        )
        b2 = blockenc.BlockEncoding(
            u=blockenc.dilate(a2, alpha).u, alpha=alpha, m=1, n=n,
            eps=float(np.linalg.norm(pert2, 2)) * 1.01, reference=a2 + pert2,
        )
        for made in (
            blockenc.compose_product(b1, b2),
            blockenc.compose_tensor(b1, b2) if n <= 4 else None,
            blockenc.compose_sum([b1, b2], [0.5, 0.5]),
        ):
            if made is None:
                continue
            try:
                blockenc.verify(made)
            except blockenc.EncodingError:
                comp_ok = False
    elapsed = time.perf_counter() - t0
    ok = uc_eps == 0.0 and dil_worst <= 1e-10 and comp_ok and elapsed < 30.0
    report(
        9,
        ok,
        f"corner-case encoding eps {uc_eps} (= 0), worst dilation eps "
        f"{dil_worst:.1e} (<= 1e-10), compositions within predicted eps: "
        f"{comp_ok}, {elapsed:.1f}s",
    )


def test_criterion_10_complexity_estimators():
    t0 = time.perf_counter()
    q1 = complexity.queries(60.0, 0.01)
    q1_expect = 60.0 * math.log(6000.0) / math.log(math.log(6000.0))
    q2 = complexity.queries(math.e**2, 1.0)
    q2_expect = 2.0 * math.e**2 / math.log(2.0)
    summary = complexity.SystemSummary(
        s=1, sigma_min=0.1, sigma_max=10.0, a_max_norm=10.0,
        ata_max_norm=100.0, delta=0.01, n_p=128, n=2,
    )
    q3 = complexity.method_complexity("mag", summary).queries
    q3_expect = math.log(100.0) ** 2 * 7.0 * 100.0
    rep = complexity.repetitions(10.0, 100.0, 0.01)
    rep_expect = math.log(100.0) * 1e4
    six_digits = all(
        abs(got / want - 1.0) < 5e-7
        for got, want in ((q1, q1_expect), (q2, q2_expect), (q3, q3_expect), (rep, rep_expect))
    )
    g = complexity.method_complexity("gradient", summary).queries
    d = complexity.method_complexity("damped", summary).queries
    ordering = g >= d >= q3
    elapsed = time.perf_counter() - t0
    ok = six_digits and ordering and elapsed < 1.0
    report(
        10,
        ok,
        f"queries(60, 0.01) = {q1:.6g}, queries(e^2, 1) = {q2:.6g}, "
        f"mag = {q3:.6g} (6 digits: {six_digits}); ordering gradient {g:.3g} "
        f">= damped {d:.3g} >= mag {q3:.3g}: {ordering}, {elapsed:.2f}s (< 1s)",
    )
