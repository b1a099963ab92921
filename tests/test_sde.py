"""Integrators, Brownian increments and noise injection."""

import math

import numpy as np
import pytest

from mdoftwin.errors import InvalidParameterError, NumericError
from mdoftwin.models import build_duffing_2dof, build_dvp_7dof, to_state_space
from mdoftwin.sde import (BrownianIncrementPair, IntegratorConfig, Trajectory,
                          corrupt_with_snr, em_step, noise_std_for_snr,
                          sample_brownian_increments, simulate_window,
                          taylor15_step)

from conftest import fd_partials_model, fitted_slope, make_model, scalar_model


class TestIntegratorConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            IntegratorConfig(dt=0.0)
        with pytest.raises(InvalidParameterError):
            IntegratorConfig(scheme="rk4")

    def test_round_trip(self):
        cfg = IntegratorConfig(dt=5e-4, scheme="euler-maruyama", seed=42)
        assert IntegratorConfig.from_dict(cfg.to_dict()) == cfg


class TestBrownianIncrements:
    def test_joint_moments(self):
        # E[dw]=0, E[dw^2]=dt, E[dz^2]=dt^3/3, E[dw dz]=dt^2/2, 1% tolerance
        rng = np.random.default_rng(77)
        dt = 0.01
        inc = sample_brownian_increments(rng, dt, n_channels=2, n_steps=200_000)
        dw = inc.dw.ravel()
        dz = inc.dz.ravel()
        assert abs(dw.mean()) < 3.0 * math.sqrt(dt / dw.size)
        assert np.var(dw) == pytest.approx(dt, rel=0.01)
        assert np.var(dz) == pytest.approx(dt ** 3 / 3.0, rel=0.01)
        assert np.mean(dw * dz) == pytest.approx(dt ** 2 / 2.0, rel=0.01)

    def test_single_step_shape(self):
        rng = np.random.default_rng(1)
        inc = sample_brownian_increments(rng, 1e-3, n_channels=7)
        assert inc.dw.shape == (7,)
        assert inc.dz.shape == (7,)


class TestEmStep:
    def test_zero_drift_zero_dispersion_is_identity(self):
        model = make_model(
            3, 1,
            drift=lambda y, f: np.zeros_like(y),
            dispersion=lambda y: np.zeros(y.shape[:-1] + (3, 1)) if y.ndim > 1
            else np.zeros((3, 1)))
        y = np.array([1.0, -2.0, 0.5])
        out = em_step(model, y, 0.0, np.array([0.3]), 0.1)
        np.testing.assert_array_equal(out, y)

    def test_scalar_decay_hand_value(self):
        model = make_model(1, 1,
                           drift=lambda y, f: -y,
                           dispersion=lambda y: np.zeros((1, 1)))
        out = em_step(model, np.array([1.0]), 0.0, np.array([0.0]), 0.1)
        assert out[0] == pytest.approx(0.9, abs=1e-15)

    def test_non_finite_state_rejected(self):
        model = make_model(1, 1, drift=lambda y, f: -y,
                           dispersion=lambda y: np.zeros((1, 1)))
        with pytest.raises(NumericError):
            em_step(model, np.array([np.nan]), 0.0, np.array([0.0]), 0.1)

    def test_ou_ensemble_moments(self):
        # analytic OU moments at t=1: mean y0 e^-1, var s^2 (1-e^-2)/2
        n_paths = 100_000
        sigma = 0.5
        dt = 2e-3
        model = scalar_model(sigma, 'ou')
        rng = np.random.default_rng(555)
        y = np.ones((n_paths, 1))
        f = np.zeros(1)
        for _ in range(int(round(1.0 / dt))):
            dw = math.sqrt(dt) * rng.standard_normal(n_paths)
            y = em_step(model, y, f, dw[:, None], dt)
        mean_exact = math.exp(-1.0)
        var_exact = sigma ** 2 * (1.0 - math.exp(-2.0)) / 2.0
        se_mean = y.std() / math.sqrt(n_paths)
        se_var = var_exact * math.sqrt(2.0 / (n_paths - 1))
        assert abs(y.mean() - mean_exact) < 3.0 * se_mean + 1e-3 * mean_exact
        assert abs(y.var() - var_exact) < 3.0 * se_var + 2e-3 * var_exact


class TestTaylor15Step:
    def test_constant_drift_no_noise(self):
        # L0(a) = 0 for constant drift, so one step is exactly y + a dt
        a_const = np.array([2.0, -1.0])
        model = make_model(
            2, 1,
            drift=lambda y, f: np.broadcast_to(a_const, y.shape).copy(),
            dispersion=lambda y: np.zeros((2, 1)),
            jacobian=lambda y, f, v: np.zeros_like(v),
            hessian_quad=lambda y, f, b: np.zeros(2))
        y = np.array([0.0, 1.0])
        inc = BrownianIncrementPair(dw=np.array([0.4]), dz=np.array([0.02]))
        out = taylor15_step(model, y, 0.0, inc, 0.5)
        np.testing.assert_allclose(out, y + 0.5 * a_const, atol=1e-15)

    def test_linear_decay_full_expansion(self):
        # dy = -y dt + s dW: y+ = y(1 - dt + dt^2/2) + s(dw - dz)
        sigma = 0.3
        model = scalar_model(sigma, 'ou')
        y = np.array([2.0])
        dt, dw, dz = 0.05, np.array([0.11]), np.array([0.004])
        out = taylor15_step(model, y, np.zeros(1),
                            BrownianIncrementPair(dw=dw, dz=dz), dt)
        expected = 2.0 * (1.0 - dt + 0.5 * dt * dt) + sigma * (dw[0] - dz[0])
        assert out[0] == pytest.approx(expected, rel=1e-14)

    def test_additive_model_lb_terms_contribute_exactly_zero(self):
        # forcing the L(b) code path with an explicit zero jacobian must
        # reproduce the skipped-path result bit for bit
        system = build_duffing_2dof()
        model = to_state_space(system)
        assert model.dispersion_jacobian is None
        forced = make_model(
            4, 2, model.drift, model.dispersion, model.drift_jacobian,
            model.drift_hessian_quad,
            dispersion_jacobian=lambda y, u: np.zeros(4))
        rng = np.random.default_rng(3)
        y = rng.normal(size=4)
        f = rng.normal(size=2)
        inc = BrownianIncrementPair(dw=rng.normal(size=2) * 0.03,
                                    dz=rng.normal(size=2) * 0.001)
        a = taylor15_step(model, y, f, inc, 1e-3)
        b = taylor15_step(forced, y, f, inc, 1e-3)
        np.testing.assert_array_equal(a, b)

    def test_finite_difference_fallback_matches_analytic(self):
        # a step from the analytic partials against one whose partials are
        # all finite-difference oracles, including the Hessian term the
        # chain models leave out as identically zero
        rng = np.random.default_rng(8)
        for system, augment in ((build_duffing_2dof(), ()),
                                (build_dvp_7dof(), range(1, 8))):
            model = to_state_space(system, augment)
            oracle = fd_partials_model(model)
            n = system.n_dof
            y = rng.normal(size=model.dim_state) * 0.3
            y[2 * n:] = system.stiffnesses[:len(y) - 2 * n]
            f = rng.normal(size=n)
            inc = BrownianIncrementPair(dw=rng.normal(size=n) * 0.03,
                                        dz=rng.normal(size=n) * 0.001)
            np.testing.assert_allclose(
                taylor15_step(model, y, f, inc, 1e-3),
                taylor15_step(oracle, y, f, inc, 1e-3), rtol=1e-8, atol=1e-10)


class TestConvergenceOrders:
    def test_em_order_one_on_ou_benchmark(self, ou_convergence):
        # additive noise makes EM coincide with Milstein: strong order 1.0
        s = fitted_slope(ou_convergence["dts"], ou_convergence["em"])
        assert 0.8 <= s <= 1.2

    def test_taylor15_order_two_on_ou_benchmark(self, ou_convergence):
        # on the linear additive SDE every residual term of the scheme
        # vanishes through O(dt^2), so the slope is 2, not the generic 1.5
        s = fitted_slope(ou_convergence["dts"], ou_convergence["taylor15"])
        assert 1.8 <= s <= 2.3

    def test_em_order_half_on_multiplicative_benchmark(
            self, multiplicative_convergence):
        s = fitted_slope(multiplicative_convergence["dts"],
                         multiplicative_convergence["em"])
        assert 0.4 <= s <= 0.7

    def test_taylor15_order_on_cubic_benchmark(self, cubic_convergence):
        # nonlinear drift exposes the generic strong order 1.5
        s = fitted_slope(cubic_convergence["dts"],
                         cubic_convergence["taylor15"])
        assert 1.2 <= s <= 1.8

    def test_em_order_one_on_cubic_benchmark(self, cubic_convergence):
        s = fitted_slope(cubic_convergence["dts"], cubic_convergence["em"])
        assert 0.8 <= s <= 1.2

    def test_taylor15_beats_em_pathwise(self, ou_convergence):
        assert np.all(ou_convergence["taylor15"] < ou_convergence["em"])

    def test_em_taylor_shared_path_gap_shrinks_with_dt(self):
        # schemes agree to O(dt): halving dt roughly halves the gap
        system = build_duffing_2dof()
        model = to_state_space(system)
        gaps = []
        for dt in (2e-3, 1e-3, 5e-4):
            rng = np.random.default_rng(99)
            n = int(round(0.5 / dt))
            y_em = np.zeros(4)
            y_t15 = np.zeros(4)
            for k in range(n):
                f = system.force_at(k * dt)
                u1, u2 = rng.standard_normal((2, 2))
                dw = math.sqrt(dt) * u1
                dz = 0.5 * dt ** 1.5 * (u1 + u2 / math.sqrt(3.0))
                y_em = em_step(model, y_em, f, dw, dt)
                y_t15 = taylor15_step(
                    model, y_t15, f, BrownianIncrementPair(dw=dw, dz=dz), dt)
            gaps.append(np.max(np.abs(y_em - y_t15)))
        assert gaps[1] < gaps[0]
        assert gaps[2] < gaps[1]


class TestSimulateWindow:
    def test_grid_arithmetic(self):
        system = build_duffing_2dof()
        model = to_state_space(system)
        traj = simulate_window(model, system, np.zeros(4), 5.0,
                               IntegratorConfig(dt=1e-3, seed=1))
        assert traj.times.shape == (5001,)
        assert traj.states.shape == (5001, 4)
        assert traj.accelerations.shape == (5001, 2)
        assert traj.forces.shape == (5001, 2)
        assert traj.times[1] - traj.times[0] == pytest.approx(1e-3)

    def test_zero_noise_zero_force_stays_at_rest(self):
        system = build_duffing_2dof(noise_sigmas=(0.0, 0.0),
                                    force_amplitudes=(0.0, 0.0))
        model = to_state_space(system)
        traj = simulate_window(model, system, np.zeros(4), 1.0,
                               IntegratorConfig(dt=1e-3, seed=0))
        np.testing.assert_array_equal(traj.states, np.zeros((1001, 4)))
        np.testing.assert_array_equal(traj.accelerations, np.zeros((1001, 2)))

    def test_determinism(self):
        system = build_duffing_2dof()
        model = to_state_space(system)
        cfg = IntegratorConfig(dt=1e-3, seed=7)
        t1 = simulate_window(model, system, np.zeros(4), 1.0, cfg)
        t2 = simulate_window(model, system, np.zeros(4), 1.0, cfg)
        np.testing.assert_array_equal(t1.states, t2.states)
        t3 = simulate_window(model, system, np.zeros(4), 1.0,
                             IntegratorConfig(dt=1e-3, seed=8))
        assert not np.array_equal(t1.states, t3.states)

    def test_nominal_run_stays_bounded(self):
        system = build_duffing_2dof()
        model = to_state_space(system)
        traj = simulate_window(model, system, np.zeros(4), 5.0,
                               IntegratorConfig(dt=1e-3, seed=3))
        assert np.all(np.isfinite(traj.states))
        assert np.max(np.abs(traj.accelerations)) < 50.0

    def test_em_scheme_selection(self):
        system = build_duffing_2dof()
        model = to_state_space(system)
        cfg_em = IntegratorConfig(dt=1e-3, scheme="euler-maruyama", seed=5)
        cfg_t15 = IntegratorConfig(dt=1e-3, scheme="taylor15", seed=5)
        a = simulate_window(model, system, np.zeros(4), 0.5, cfg_em)
        b = simulate_window(model, system, np.zeros(4), 0.5, cfg_t15)
        assert not np.array_equal(a.states, b.states)

    def test_duration_shorter_than_step_rejected(self):
        system = build_duffing_2dof()
        model = to_state_space(system)
        with pytest.raises(InvalidParameterError):
            simulate_window(model, system, np.zeros(4), 1e-4,
                            IntegratorConfig(dt=1e-3))

    def test_forces_override_shape_checked(self):
        system = build_duffing_2dof()
        model = to_state_space(system)
        with pytest.raises(InvalidParameterError):
            simulate_window(model, system, np.zeros(4), 1.0,
                            IntegratorConfig(dt=1e-3),
                            forces=np.zeros((10, 2)))

    def test_paths_advance_together(self):
        # P independent paths in one call against P single-path runs; the
        # default generators are seeded cfg.seed + p
        system = build_dvp_7dof()
        model = to_state_space(system)
        rng = np.random.default_rng(4)
        y0 = rng.normal(size=(3, model.dim_state)) * 0.01
        cfg = IntegratorConfig(dt=1e-3, seed=20)
        batch = simulate_window(model, system, y0, 0.5, cfg)
        assert batch.states.shape == (501, 3, 14)
        assert batch.accelerations.shape == (501, 3, 7)
        for p in range(3):
            alone = simulate_window(model, system, y0[p], 0.5,
                                    IntegratorConfig(dt=1e-3, seed=20 + p))
            scale = np.max(np.abs(alone.states), axis=0)
            assert np.all(np.abs(batch.states[:, p] - alone.states) <= 1e-12 * scale)

    def test_diverging_path_index(self):
        system = build_duffing_2dof()
        model = to_state_space(system)
        y0 = np.zeros((3, 4))
        y0[2, 0] = 1e3  # the cubic spring at this stretch is far too stiff
        with pytest.raises(NumericError) as info:
            simulate_window(model, system, y0, 0.2, IntegratorConfig(dt=1e-3),
                            rng=[np.random.default_rng(s) for s in range(3)])
        assert info.value.path == 2
        with pytest.raises(InvalidParameterError):
            simulate_window(model, system, y0, 0.2, IntegratorConfig(dt=1e-3),
                            rng=[np.random.default_rng(0)])

    def test_csv_export(self, tmp_path):
        system = build_duffing_2dof()
        model = to_state_space(system)
        traj = simulate_window(model, system, np.zeros(4), 0.1,
                               IntegratorConfig(dt=1e-3, seed=2))
        path = tmp_path / "traj.csv"
        traj.to_csv(path, model.labels)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,x1,x2,v1,v2,accel_1,accel_2,force_1,force_2"
        assert len(lines) == 102  # header + 101 samples


class TestCorruptWithSnr:
    def make_signal(self):
        t = np.arange(5000) * 1e-3
        return np.column_stack([10.0 * np.sin(10.0 * t),
                                5.0 * np.sin(10.0 * t + 0.5)])

    def test_huge_snr_is_nearly_identity(self):
        signal = self.make_signal()
        noisy = corrupt_with_snr(signal, 1e12, 0)
        sigma = signal.std(axis=0)
        assert np.max(np.abs(noisy - signal) / sigma) < 1e-4

    @pytest.mark.parametrize("snr,lo,hi", [(50.0, 40.0, 62.0),
                                           (20.0, 16.0, 25.0)])
    def test_empirical_variance_ratio(self, snr, lo, hi):
        signal = self.make_signal()
        noisy = corrupt_with_snr(signal, snr, 123)
        ratio = signal.var(axis=0) / (noisy - signal).var(axis=0)
        assert np.all(ratio > lo) and np.all(ratio < hi)

    def test_zero_variance_rejected(self):
        with pytest.raises(InvalidParameterError):
            corrupt_with_snr(np.ones(100), 50.0, 0)
        with pytest.raises(InvalidParameterError):
            noise_std_for_snr(np.zeros((10, 2)), 50.0)

    def test_invalid_snr_rejected(self):
        with pytest.raises(InvalidParameterError):
            corrupt_with_snr(np.arange(10.0), 0.0, 0)

    def test_seed_determinism(self):
        signal = self.make_signal()
        a = corrupt_with_snr(signal, 50.0, 5)
        b = corrupt_with_snr(signal, 50.0, 5)
        np.testing.assert_array_equal(a, b)


class TestTrajectoryValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidParameterError):
            Trajectory(times=np.arange(3.0), states=np.zeros((4, 2)),
                       accelerations=np.zeros((3, 1)), forces=np.zeros((3, 1)))
