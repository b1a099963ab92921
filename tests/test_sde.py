"""Integrators, Brownian increments and noise injection."""

import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mdoftwin import twin
from mdoftwin.errors import InvalidParameterError, NumericError
from mdoftwin.models import (DegradationSchedule, acceleration_model, build_duffing_2dof,
                             build_dvp_7dof, to_state_space)
from mdoftwin.sde import (_MEASURE_BLOCK, IntegratorConfig, _increment_pair, corrupt_with_snr,
                          noise_std_for_snr, non_finite, simulate_window)

from conftest import (BrownianIncrementPair, em_step, fd_partials_model, fitted_slope,
                      make_model, sample_brownian_increments, scalar_model,
                      strided_window_states, taylor15_step, with_dispersion_jacobian)


class TestIntegratorConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            IntegratorConfig(dt=0.0)
        # a constructor names the bare field, a document the field's path
        with pytest.raises(InvalidParameterError, match="^dt must be positive$"):
            IntegratorConfig(dt=-1.0)
        with pytest.raises(InvalidParameterError,
                           match=r"^IntegratorConfig\.dt must be positive$"):
            IntegratorConfig.from_dict({"dt": -1.0})

    @pytest.mark.parametrize("dt", [math.nan, math.inf, True])
    def test_dt_must_be_a_finite_number(self, dt):
        # NaN used to fail at the first simulation, in numpy's conversion to
        # a step count
        with pytest.raises(InvalidParameterError, match="^dt must be"):
            IntegratorConfig(dt=dt)

    @pytest.mark.parametrize("seed", [-4, 1.5, True, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # numpy's generators raised ValueError or TypeError for these at the
        # first simulation
        with pytest.raises(InvalidParameterError,
                           match=r"^seed must be a non-negative integer, got "):
            IntegratorConfig(seed=seed)
        assert IntegratorConfig(seed=np.int64(4)).seed == 4


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

    def test_second_normals_drawn_per_block_give_the_whole_draw(self):
        # the window kernel draws a path's first normals whole and its
        # second per block of steps, into buffers
        whole = sample_brownian_increments(np.random.default_rng(5), 1e-3, 7, 600)
        gen = np.random.default_rng(5)
        first, second = np.empty((600, 7)), np.empty((600, 7))
        gen.standard_normal(out=first)
        for start in range(0, 600, 256):
            gen.standard_normal(out=second[start:start + 256])
        blocks = [_increment_pair(first[i:i + 256], second[i:i + 256], 1e-3)
                  for i in range(0, 600, 256)]
        assert np.concatenate([dw for dw, _ in blocks]).tobytes() == whole.dw.tobytes()
        assert np.concatenate([dz for _, dz in blocks]).tobytes() == whole.dz.tobytes()


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
            model = with_dispersion_jacobian(to_state_space(system, augment))
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

    def test_duration_shorter_than_step_rejected(self):
        system = build_duffing_2dof()
        model = to_state_space(system)
        with pytest.raises(InvalidParameterError):
            simulate_window(model, system, np.zeros(4), 1e-4,
                            IntegratorConfig(dt=1e-3))

    @pytest.mark.parametrize("duration", [np.nan, np.inf, "5", None, [5.0], True])
    def test_non_finite_duration_rejected(self, duration):
        # "5", None and [5.0] used to escape as numpy's TypeError, and True
        # ran a 1 s window
        system = build_duffing_2dof()
        model = to_state_space(system)
        with pytest.raises(InvalidParameterError,
                           match="^duration must be (finite|of type float)"):
            simulate_window(model, system, np.zeros(4), duration,
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
        # a diverging path is flagged, without a warning, and leaves the
        # other paths bit for bit as they are beside a benign one; a single
        # state that diverges raises
        system = build_duffing_2dof()
        model = to_state_space(system)
        cfg = IntegratorConfig(dt=1e-3)
        y0 = np.zeros((3, 4))
        y0[2, 0] = 1e3  # the cubic spring at this stretch is far too stiff

        def run(y0):
            return simulate_window(model, system, y0, 0.2, cfg,
                                   rng=[np.random.default_rng(s) for s in range(3)])

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batch = run(y0)
            batch.accelerations
        assert batch.diverged.tolist() == [False, False, True]
        assert not np.isfinite(batch.states[:, 2]).all()
        benign = run(np.zeros((3, 4)))
        assert not benign.diverged.any()
        np.testing.assert_array_equal(batch.states[:, :2], benign.states[:, :2])
        np.testing.assert_array_equal(batch.accelerations[:, :2],
                                      benign.accelerations[:, :2])
        with pytest.raises(NumericError) as info:
            simulate_window(model, system, y0[2], 0.2, cfg)
        assert info.value.path is None
        with pytest.raises(InvalidParameterError):
            simulate_window(model, system, y0, 0.2, cfg,
                            rng=[np.random.default_rng(0)])

    def test_explicit_generators_reproduce_the_default_seeding(self):
        # rng is a list of one generator per path; the default list seeds
        # path p with cfg.seed + p
        system = build_duffing_2dof()
        model = to_state_space(system)
        cfg = IntegratorConfig(dt=1e-3, seed=5)
        y0 = np.zeros((2, 4))
        default = simulate_window(model, system, y0, 0.2, cfg)
        explicit = simulate_window(model, system, y0, 0.2, cfg,
                                   rng=[np.random.default_rng(5 + p) for p in range(2)])
        np.testing.assert_array_equal(explicit.states, default.states)
        swapped = simulate_window(model, system, y0, 0.2, cfg,
                                  rng=[np.random.default_rng(6), np.random.default_rng(5)])
        np.testing.assert_array_equal(swapped.states[:, 0], default.states[:, 1])
        np.testing.assert_array_equal(swapped.states[:, 1], default.states[:, 0])

    def test_model_without_cubic_declaration_rejected(self):
        model = scalar_model(0.3, 'ou')
        with pytest.raises(InvalidParameterError, match="cubic_drift"):
            simulate_window(model, build_duffing_2dof(), np.zeros(1), 0.1,
                            IntegratorConfig(dt=1e-3))

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


def _reference_window(model, y0, forces, n_steps, cfg):
    """States of the reference Taylor-1.5 stepper fed the increments that
    ``simulate_window`` draws, from generators seeded cfg.seed + p."""
    model = with_dispersion_jacobian(model)
    paths = y0.shape[:-1]
    inc = [sample_brownian_increments(np.random.default_rng(cfg.seed + p), cfg.dt,
                                      model.n_channels, n_steps)
           for p in range(paths[0] if paths else 1)]
    shape = (n_steps,) + paths + (model.n_channels,)
    dw = np.stack([i.dw for i in inc], axis=1).reshape(shape)
    dz = np.stack([i.dz for i in inc], axis=1).reshape(shape)
    states = [y0]
    for k in range(n_steps):
        states.append(taylor15_step(model, states[-1], forces[k],
                                    BrownianIncrementPair(dw=dw[k], dz=dz[k]), cfg.dt))
    return np.array(states)


class TestNonFinite:
    @staticmethod
    def window(n=20):
        return SimpleNamespace(times=np.arange(n) * 1e-3, accel=np.zeros((n, 2)),
                               force=np.zeros((n, 2)))

    def test_finite_window_passes(self):
        assert non_finite(self.window()) is None

    def test_first_array_and_its_first_bad_sample_named(self):
        # arrays are checked in the order times, accel, force; within one,
        # the first sample holding a bad value in any channel is named
        window = self.window()
        window.force[2, 0] = np.nan
        window.accel[7, 1] = -np.inf
        window.accel[12, 0] = np.nan
        assert non_finite(window) == "accel is not finite at sample 7"
        window.accel[:] = 0.0
        assert non_finite(window) == "force is not finite at sample 2"
        window.times = window.times.copy()
        window.times[19] = np.inf
        assert non_finite(window) == "times is not finite at sample 19"


class TestWindowKernel:
    """The affine window kernel against a hand loop of the reference
    Taylor-1.5 stepper: the same scheme up to summation order."""

    @pytest.mark.parametrize("augmented", [False, True])
    @pytest.mark.parametrize("n_paths", [None, 1, 3])
    @pytest.mark.parametrize("build", [build_duffing_2dof, build_dvp_7dof])
    def test_matches_reference_steppers(self, build, n_paths, augmented):
        n = 2 if build is build_duffing_2dof else 7
        # strong cubic and noise, so that every term of the step is visible
        system = build(nonlinear_coeff=1e5, noise_sigmas=(20.0,) * n)
        model = to_state_space(system, range(1, n + 1) if augmented else ())
        rng = np.random.default_rng(n + 10 * augmented + (n_paths or 0))
        shape = (model.dim_state,) if n_paths is None else (n_paths, model.dim_state)
        y0 = np.zeros(shape)
        y0[..., :2 * n] = rng.normal(size=shape[:-1] + (2 * n,)) * 0.1
        if augmented:
            y0[..., 2 * n:] = system.stiffnesses * rng.uniform(
                0.7, 1.0, size=shape[:-1] + (n,))
        cfg = IntegratorConfig(dt=1e-3, seed=11)
        n_steps = 300
        for forces in (system.force_at(np.arange(n_steps + 1) * cfg.dt),
                       rng.normal(size=(n_steps + 1,) + shape[:-1] + (n,)) * 5.0):
            traj = simulate_window(model, system, y0, n_steps * cfg.dt, cfg,
                                   forces=forces)
            reference = _reference_window(model, y0, forces, n_steps, cfg)
            scale = np.max(np.abs(reference), axis=0)
            assert np.all(np.abs(traj.states - reference) <= 1e-12 * scale)

    @pytest.mark.parametrize("build", [build_duffing_2dof, build_dvp_7dof])
    def test_full_window_matches_reference_stepper(self, build):
        # a default-length window: the read rows the kernel carries in its
        # state do not drift away from the states they read
        n = 2 if build is build_duffing_2dof else 7
        system = build(nonlinear_coeff=1e5, noise_sigmas=(20.0,) * n)
        model = to_state_space(system, range(1, n + 1))
        rng = np.random.default_rng(5000 + n)
        y0 = np.zeros((3, model.dim_state))
        y0[:, :2 * n] = rng.normal(size=(3, 2 * n)) * 0.1
        y0[:, 2 * n:] = system.stiffnesses * rng.uniform(0.7, 1.0, size=(3, n))
        cfg = IntegratorConfig(dt=1e-3, seed=11)
        n_steps = 5000
        forces = system.force_at(np.arange(n_steps + 1) * cfg.dt)
        traj = simulate_window(model, system, y0, n_steps * cfg.dt, cfg)
        reference = _reference_window(model, y0, forces, n_steps, cfg)
        scale = np.max(np.abs(reference), axis=0)
        assert np.all(np.abs(traj.states - reference) <= 1e-12 * scale)


def tiling_drift(model):
    """``model`` with the drift as the window kernel first called it: the
    state copied onto the leading axes of the force samples, one row per
    step, so that the element kernel runs on every copy."""
    drift = model.drift

    def tiled(y, f):
        y = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(y.shape[:-1], np.shape(f)[:-1]) + y.shape[-1:]
        return drift(np.broadcast_to(y, shape).copy(), f)

    return replace(model, drift=tiled)


class TestRestDrift:
    """The kernel evaluates the drift on one rest state per path against
    every step's force sample, with the bits of the drift evaluated on a
    copy of the rest state per step."""

    @pytest.mark.parametrize("n_paths, forces", [
        (None, "default"), (None, "shared"), (1, "default"), (1, "shared"), (1, "per-path"),
        (3, "default"), (3, "shared"), (3, "per-path")])
    @pytest.mark.parametrize("build", [build_duffing_2dof, build_dvp_7dof])
    def test_states_bit_for_bit(self, build, n_paths, forces):
        n = 2 if build is build_duffing_2dof else 7
        system = build()
        model = to_state_space(system, range(1, n + 1))
        rng = np.random.default_rng(60 + n + 7 * (n_paths or 0))
        shape = (model.dim_state,) if n_paths is None else (n_paths, model.dim_state)
        y0 = np.zeros(shape)
        y0[..., :2 * n] = rng.normal(size=shape[:-1] + (2 * n,)) * 0.01
        y0[..., 2 * n:] = system.stiffnesses * rng.uniform(0.7, 1.0, size=shape[:-1] + (n,))
        cfg = IntegratorConfig(dt=1e-3, seed=3)
        n_steps = 400
        force_shape = {"default": None, "shared": (n_steps + 1, n),
                       "per-path": (n_steps + 1, n_paths, n)}[forces]
        kwargs = {} if force_shape is None else {"forces": rng.normal(size=force_shape) * 5.0}
        lean = simulate_window(model, system, y0, n_steps * cfg.dt, cfg, **kwargs)
        full = simulate_window(tiling_drift(model), system, y0, n_steps * cfg.dt, cfg,
                               **kwargs)
        np.testing.assert_array_equal(lean.states, full.states)
        np.testing.assert_array_equal(lean.accelerations, full.accelerations)

    @pytest.mark.parametrize("build", [build_duffing_2dof, build_dvp_7dof])
    def test_seed_1_windows_bit_for_bit(self, build, monkeypatch):
        system = build()
        cfg = twin.CampaignConfig(master_seed=1)
        schedule = DegradationSchedule.for_system(
            system, rate_per_day=cfg.degradation_rate_per_day)

        def windows():
            return [twin.generate_window(system, schedule, cfg, t_s, 1 + i, i)
                    for i, t_s in enumerate((0.0, 50.0))]

        lean = windows()
        build_model = twin.to_state_space
        monkeypatch.setattr(twin, "to_state_space",
                            lambda *args, **kwargs: tiling_drift(build_model(*args, **kwargs)))
        for one, other in zip(lean, windows()):
            np.testing.assert_array_equal(one.accel, other.accel)


class TestContiguousRows:
    """The kernel's step loop, run in place on whole contiguous rows of one
    block of steps at a time, with the block's inputs and weights formed per
    path, against the loop on strided views of whole-window arrays that it
    replaced: the same states bit for bit. The block edges are covered: a
    window shorter than one block, of exactly one, and one step past one or
    more blocks, where a set-up product of one row would round otherwise;
    every path count takes blocks of 256 steps."""

    @pytest.mark.parametrize("case", ["short", "one-block", "one-past-a-block",
                                      "one-past-two-blocks", "four-blocks",
                                      "one-past-four-blocks", "partial-block", "diverging"])
    @pytest.mark.parametrize("n_paths", [1, 2, 41, 64])
    @pytest.mark.parametrize("build", [build_duffing_2dof, build_dvp_7dof])
    def test_states_bit_for_bit(self, build, n_paths, case):
        n = 2 if build is build_duffing_2dof else 7
        system = build()
        model = to_state_space(system, range(1, n + 1))
        rng = np.random.default_rng(70 + n + n_paths)
        y0 = np.zeros((n_paths, model.dim_state))
        y0[:, :2 * n] = rng.normal(size=(n_paths, 2 * n)) * 0.01
        y0[:, 2 * n:] = system.stiffnesses * rng.uniform(0.7, 1.0, size=(n_paths, n))
        # 100, 256, 257, 513, 1024 and 1025 steps in blocks of 256; 5 s =
        # 19 blocks and 136 steps
        duration = {"short": 0.1, "one-block": 0.256, "one-past-a-block": 0.257,
                    "one-past-two-blocks": 0.513, "four-blocks": 1.024,
                    "one-past-four-blocks": 1.025, "partial-block": 5.0,
                    "diverging": 0.6}[case]
        if case == "diverging":
            y0[n_paths // 2, :n] = 1e3 * np.arange(1, n + 1)  # far too stiff a cubic
        cfg = IntegratorConfig(dt=1e-3, seed=8)
        traj = simulate_window(model, system, y0, duration, cfg)
        expected = strided_window_states(model, system, y0, duration, cfg)
        assert traj.diverged.tolist() == [case == "diverging" and p == n_paths // 2
                                          for p in range(n_paths)]
        np.testing.assert_array_equal(traj.states, expected)
        assert traj.states.tobytes() == expected.tobytes()


class TestKeepGroups:
    """``keep`` takes the states in consecutive groups of ``_MEASURE_BLOCK``
    samples from row 0, the final sample in the last group: the groups in
    which a Trajectory's accelerations are measured, whose bits a window's
    accelerations have."""

    @pytest.mark.parametrize("n_steps", [255, 256, 257, 512, 513])
    @pytest.mark.parametrize("n_paths", [1, 2, 3])
    def test_consecutive_measurement_groups(self, n_paths, n_steps):
        system = build_dvp_7dof()
        model = to_state_space(system, range(1, 8))
        rng = np.random.default_rng(90 + n_paths)
        y0 = np.zeros((n_paths, model.dim_state))
        y0[:, :14] = rng.normal(size=(n_paths, 14)) * 0.01
        y0[:, 14:] = system.stiffnesses
        cfg = IntegratorConfig(dt=1e-3, seed=4)
        groups = []
        run = simulate_window(model, system, y0, n_steps * cfg.dt, cfg,
                              keep=lambda row, states: groups.append((row, states.copy())))
        assert [(row, states.shape) for row, states in groups] == [
            (row, (min(_MEASURE_BLOCK, n_steps + 1 - row), n_paths, model.dim_state))
            for row in range(0, n_steps + 1, _MEASURE_BLOCK)]
        assert run.times.shape == (n_steps + 1,)
        expected = strided_window_states(model, system, y0, n_steps * cfg.dt, cfg)
        kept = np.concatenate([states for _, states in groups])
        assert kept.tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("seed", [-4, 1.5, True, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        signal = self.make_signal()
        with pytest.raises(InvalidParameterError,
                           match=r"^rng must be a non-negative integer, got "):
            corrupt_with_snr(signal, 50.0, seed)
        np.testing.assert_array_equal(corrupt_with_snr(signal, 50.0, np.int64(4)),
                                      corrupt_with_snr(signal, 50.0, 4))

    def test_seed_determinism(self):
        signal = self.make_signal()
        a = corrupt_with_snr(signal, 50.0, 5)
        b = corrupt_with_snr(signal, 50.0, 5)
        np.testing.assert_array_equal(a, b)


class TestTrajectoryValidation:
    def test_simulated_accelerations_are_the_measurement_of_the_states(self):
        # bit for bit, over a window of several blocks of samples, for a
        # batch and for a single state
        system = build_dvp_7dof()
        model = to_state_space(system, range(1, 8))
        h = acceleration_model(system, range(1, 8), augment_params=range(1, 8))
        for paths in ((2,), ()):
            y0 = np.zeros(paths + (model.dim_state,))
            y0[..., 14:] = system.stiffnesses
            traj = simulate_window(model, system, y0, 1.0, IntegratorConfig(dt=1e-3))
            assert traj.accelerations.shape == (1001,) + paths + (7,)
            np.testing.assert_array_equal(traj.accelerations, h(traj.states))
