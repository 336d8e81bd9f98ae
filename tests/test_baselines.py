import math

import numpy as np
import pytest

from schromag.baselines import (
    FlowSystem,
    auxiliary_ratio_trace,
    build_damped,
    build_gradient_flow,
    evolution_time,
    integrate_flow,
)
from schromag.linalg import LinearSystem, direct_solve
from schromag.mag import build_transformed, derive_params
from schromag.presets import compare_preset
from schromag.schrod import to_ode

DIAG_A = np.diag([10.0, 0.1]).astype(complex)
DIAG_B = np.array([1.0, 1.0], dtype=complex)


class TestGradientFlow:
    def test_identity(self):
        flow = build_gradient_flow(np.eye(2), [1.0, 2.0])
        assert np.allclose(flow.generator, -np.eye(2))
        assert np.allclose(flow.steady_state(), [1.0, 2.0])

    def test_slowest_decay_rate(self):
        flow = build_gradient_flow(DIAG_A, DIAG_B)
        rates = -np.linalg.eigvalsh(flow.generator.real)
        assert min(rates) == pytest.approx(0.01, rel=1e-12)

    def test_steady_state_is_solution(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 4 * np.eye(4)
        b = rng.normal(size=4) + 0j
        flow = build_gradient_flow(a, b)
        oracle = direct_solve(LinearSystem(a, b))
        assert np.allclose(flow.steady_state(), oracle, atol=1e-9)

    def test_error_bound_pointwise(self):
        # ||du(t)|| <= exp(-sigma_min^2 t) ||du(0)||
        flow = build_gradient_flow(DIAG_A, DIAG_B)
        u_inf = flow.steady_state()
        traj = integrate_flow(flow, np.zeros(2), 3.0, 40)
        d0 = np.linalg.norm(u_inf)
        for t, u in traj:
            assert np.linalg.norm(u - u_inf) <= math.exp(-0.01 * t) * d0 * (1 + 1e-9)


class TestDamped:
    def test_steady_state_block_elimination(self):
        flow = build_damped(DIAG_A, DIAG_B, 0.19, 0.1)
        w_inf = flow.steady_state()
        oracle = direct_solve(LinearSystem(DIAG_A, DIAG_B))
        assert np.allclose(w_inf[:2], oracle, atol=1e-10)
        assert np.max(np.abs(w_inf[2:])) <= 1e-10  # auxiliary block exactly zero

    def test_gamma_bound(self):
        build_damped(DIAG_A, DIAG_B, 2 * 0.095, 0.1)  # accepted
        with pytest.raises(ValueError):
            build_damped(DIAG_A, DIAG_B, 0.3, 0.1)  # above 2*sigma_min = 0.2
        with pytest.raises(ValueError):
            build_damped(DIAG_A, DIAG_B, 0.0, 0.1)

    def test_scalar_eigenvalues(self):
        flow = build_damped(np.eye(1), [1.0], 1.0, 1.0)
        vals = np.linalg.eigvals(flow.generator)
        expect = {(-1 + 1j * math.sqrt(3)) / 2, (-1 - 1j * math.sqrt(3)) / 2}
        for v in vals:
            assert min(abs(v - e) for e in expect) < 1e-12

    def test_error_bound_on_diagonal_system(self):
        # exp(-gamma t/2) is the decay rate of the u-block error; for a
        # rest start the 2x2 closed form per mode is
        #   du(t) = exp(-g t/2) (cos(om t) + g/(2 om) sin(om t)) du(0)
        # so the envelope carries the constant sqrt(1 + (g/(2 om))^2),
        # which diverges as gamma approaches critical damping.  Verify
        # both the closed form and the constant-carrying envelope.
        gamma = 0.19
        flow = build_damped(DIAG_A, DIAG_B, gamma, 0.1)
        w_inf = flow.steady_state()
        traj = integrate_flow(flow, np.zeros(4), 40.0, 100)
        sig = np.array([10.0, 0.1])
        om = np.sqrt(sig**2 - gamma**2 / 4.0)
        cmax = float(np.max(np.sqrt(1.0 + (gamma / (2 * om)) ** 2)))
        d0 = np.linalg.norm(w_inf[:2])
        for t, w in traj:
            closed = w_inf[:2] - w_inf[:2] * math.exp(-gamma * t / 2) * (
                np.cos(om * t) + gamma / (2 * om) * np.sin(om * t)
            )
            assert np.allclose(w[:2], closed, atol=1e-9)
            err = np.linalg.norm(w[:2] - w_inf[:2])
            assert err <= cmax * math.exp(-gamma * t / 2) * d0 * (1 + 1e-9)


class TestIntegrateFlow:
    def test_zero_everything(self):
        flow = FlowSystem(
            generator=-np.eye(2).astype(complex),
            drive=np.zeros(2, dtype=complex),
            kind="gradient",
            meta={},
        )
        traj = integrate_flow(flow, np.zeros(2), 1.0, 5)
        assert all(np.allclose(w, 0) for _, w in traj)

    def test_decoupled_scalar_decay(self):
        flow = build_gradient_flow(DIAG_A, DIAG_B)
        u_inf = flow.steady_state()
        traj = integrate_flow(flow, np.zeros(2), 0.1, 11)
        for t, u in traj:
            # component 1 error decays as exp(-100 t), closed form
            expect = u_inf[0] * (1 - math.exp(-100.0 * t))
            assert u[0] == pytest.approx(expect, abs=1e-9)

    def test_damped_limit(self):
        flow = build_damped(DIAG_A, DIAG_B, 0.19, 0.1)
        traj = integrate_flow(flow, np.zeros(4), 400.0, 40)
        w_end = traj[-1][1]
        oracle = direct_solve(LinearSystem(DIAG_A, DIAG_B))
        assert np.allclose(w_end[:2], oracle, atol=1e-8)
        assert np.max(np.abs(w_end[2:])) < 1e-8

    def test_preconditions(self):
        flow = build_gradient_flow(np.eye(2), [1.0, 1.0])
        with pytest.raises(ValueError):
            integrate_flow(flow, np.zeros(2), -1.0, 5)
        with pytest.raises(ValueError):
            integrate_flow(flow, np.zeros(2), 1.0, 1)


class TestEvolutionTime:
    def test_gradient_unit(self):
        assert evolution_time("gradient", (1.0, 1.0), math.exp(-1.0)) == pytest.approx(1.0)

    def test_gradient_value(self):
        got = evolution_time("gradient", (0.1, 1.0), 0.01)
        assert got == pytest.approx(math.log(100.0) / 0.01, rel=1e-12)

    def test_damped_value(self):
        got = evolution_time("damped", (0.1, 1.0), 0.01)
        assert got == pytest.approx(math.log(100.0) / 0.1, rel=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            evolution_time("verlet", (0.1, 1.0), 0.01)


class TestAuxiliaryRatio:
    def _mag_flow(self, params):
        sys = build_transformed(DIAG_A, DIAG_B, params)
        gen, drive = to_ode(sys)
        return FlowSystem(generator=gen, drive=drive, kind="mag-ode", meta={})

    def test_constant_trajectory(self):
        traj = [(float(t), np.array([2.0, 3.0], dtype=complex)) for t in range(5)]
        ratio = auxiliary_ratio_trace(traj, solved_index=0, aux_index=1)
        assert ratio.sign_changes == 0
        assert ratio.ratio_min == ratio.ratio_max == pytest.approx(1.5)

    def test_mag_ratio_settles_to_steady_value(self):
        cp = compare_preset("fig1")
        params = derive_params(cp.l_hat, cp.mu_hat)
        flow = self._mag_flow(params)
        traj = integrate_flow(flow, np.zeros(4), 400.0, 200)
        ratio = auxiliary_ratio_trace(traj, solved_index=0, aux_index=2)
        u_inf = direct_solve(LinearSystem(DIAG_A, DIAG_B))
        expect = (
            math.sqrt(params.alpha * params.beta)
            * DIAG_B[0]
            / ((1 - params.beta) * u_inf[0])
        ).real
        assert ratio.ratios[-1] == pytest.approx(expect, rel=1e-6)

    def test_fig1_comparison_property(self):
        cp = compare_preset("fig1")
        params = derive_params(cp.l_hat, cp.mu_hat)
        mag_traj = integrate_flow(self._mag_flow(params), np.zeros(4), cp.t_end, cp.samples)
        damp_traj = integrate_flow(
            build_damped(cp.a, cp.b, cp.gamma, 0.1), np.zeros(4), cp.t_end, cp.samples
        )
        r_mag = auxiliary_ratio_trace(mag_traj, solved_index=0, aux_index=2)
        r_damp = auxiliary_ratio_trace(damp_traj, solved_index=0, aux_index=2)
        # skip the initial transient (first 5% of the horizon)
        tail_start = int(0.05 * len(r_mag.ratios))
        tail = [r for r in r_mag.ratios[tail_start:] if not math.isnan(r)]
        changes = sum(1 for x, y in zip(tail, tail[1:]) if x * y < 0)
        assert changes == 0
        assert r_damp.sign_changes > changes
        assert r_damp.sign_changes >= 2

    def test_near_zero_denominators_become_gaps(self):
        traj = [
            (0.0, np.array([1.0, 1.0], dtype=complex)),
            (1.0, np.array([0.0, 1.0], dtype=complex)),
            (2.0, np.array([-1.0, 1.0], dtype=complex)),
        ]
        ratio = auxiliary_ratio_trace(traj, solved_index=0, aux_index=1)
        assert math.isnan(ratio.ratios[1])
        assert ratio.sign_changes == 1
