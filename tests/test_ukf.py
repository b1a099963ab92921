"""Sigma points, unscented transform, filter recursion, process noise."""

import math

import numpy as np
import pytest

from mdoftwin.errors import InvalidParameterError, NumericError
from mdoftwin.linalg import cho_factor
from mdoftwin.models import (build_duffing_2dof, build_dvp_7dof,
                             to_state_space)
from mdoftwin.sde import IntegratorConfig, simulate_window
from mdoftwin.twin import MeasurementWindow
from mdoftwin.ukf import (GaussianBelief, NoiseModel, PsdRepairLog,
                          UkfParams, build_process_noise, predict,
                          repair_psd, run_filter, sigma_points, ukf_weights,
                          update)

BENCH_PARAMS = UkfParams(alpha_f=0.001, beta=2.0, kappa=0.0)


# ---------------------------------------------------------------------------
# Oracle: plain closed-form Kalman filter, independent of the UKF path
# ---------------------------------------------------------------------------


def kf_step(m, p, a_mat, q, h_mat, r, z):
    m_pred = a_mat @ m
    p_pred = a_mat @ p @ a_mat.T + q
    s = h_mat @ p_pred @ h_mat.T + r
    gain = p_pred @ h_mat.T @ np.linalg.inv(s)
    m_new = m_pred + gain @ (z - h_mat @ m_pred)
    p_new = p_pred - gain @ s @ gain.T
    return m_new, 0.5 * (p_new + p_new.T)


def random_linear_system(rng, dim, n_obs):
    a_mat = rng.normal(size=(dim, dim))
    a_mat *= 0.9 / max(np.abs(np.linalg.eigvals(a_mat)))
    h_mat = rng.normal(size=(n_obs, dim))
    q_root = rng.normal(size=(dim, dim)) * 0.1
    q = q_root @ q_root.T + 0.01 * np.eye(dim)
    r_root = rng.normal(size=(n_obs, n_obs)) * 0.1
    r = r_root @ r_root.T + 0.05 * np.eye(n_obs)
    return a_mat, h_mat, q, r


# ---------------------------------------------------------------------------
# Weights and sigma points
# ---------------------------------------------------------------------------


class TestWeights:
    def test_sum_identity_exact(self):
        # huge +/- weights at alpha_f=0.001; construction keeps the exact sum
        for length in range(1, 22):
            w_mean, _ = ukf_weights(length, BENCH_PARAMS)
            assert abs(math.fsum(w_mean) - 1.0) <= 1e-12

    def test_hand_values_length_one(self):
        w_mean, w_cov = ukf_weights(1, BENCH_PARAMS)
        lam = BENCH_PARAMS.alpha_f ** 2 * 1 - 1
        assert w_mean[0] == pytest.approx(lam / (lam + 1), rel=1e-9)
        assert w_mean[0] == pytest.approx(1.0 - 1e6, rel=1e-9)
        np.testing.assert_allclose(w_mean[1:], 5e5, rtol=1e-9)
        assert w_cov[0] - w_mean[0] == pytest.approx(2.999999, abs=1e-9)
        np.testing.assert_array_equal(w_cov[1:], w_mean[1:])

    def test_symmetric_weights_match_formula(self):
        for length in (3, 9, 21):
            w_mean, _ = ukf_weights(length, BENCH_PARAMS)
            c = BENCH_PARAMS.alpha_f ** 2 * length
            np.testing.assert_allclose(w_mean[1:], 1.0 / (2.0 * c), rtol=1e-13)

    def test_moderate_alpha(self):
        params = UkfParams(alpha_f=1.0, beta=2.0, kappa=3.0)
        w_mean, w_cov = ukf_weights(4, params)
        assert math.fsum(w_mean) == pytest.approx(1.0, abs=1e-12)
        assert w_cov[0] == pytest.approx(w_mean[0] + 2.0)

    def test_alpha_validation(self):
        with pytest.raises(InvalidParameterError):
            UkfParams(alpha_f=0.0)
        with pytest.raises(InvalidParameterError):
            UkfParams(alpha_f=1.5)


class TestSigmaPoints:
    def test_scalar_hand_example(self):
        # L=1, mu=0, cov=1: points {0, +1e-3, -1e-3}
        belief = GaussianBelief(mean=np.zeros(1), cov=np.eye(1))
        sp = sigma_points(belief, BENCH_PARAMS)
        np.testing.assert_allclose(sp.points.ravel(), [0.0, 1e-3, -1e-3],
                                   atol=1e-18)

    def test_pair_symmetry_and_mean_recovery(self):
        rng = np.random.default_rng(5)
        for dim in (2, 5, 8):
            mean = rng.normal(size=dim) * 10.0
            root = rng.normal(size=(dim, dim))
            belief = GaussianBelief(mean=mean, cov=root @ root.T + np.eye(dim))
            sp = sigma_points(belief, BENCH_PARAMS)
            assert sp.points.shape == (2 * dim + 1, dim)
            np.testing.assert_allclose(
                sp.points[1:dim + 1] + sp.points[dim + 1:],
                np.broadcast_to(2.0 * mean, (dim, dim)), rtol=1e-12)
            recovered = sp.w_mean @ sp.points
            np.testing.assert_allclose(recovered, mean,
                                       rtol=1e-8, atol=1e-8 * (1 + abs(mean).max()))

    def test_covariance_recovery(self):
        rng = np.random.default_rng(7)
        dim = 4
        root = rng.normal(size=(dim, dim))
        cov = root @ root.T + np.eye(dim)
        belief = GaussianBelief(mean=rng.normal(size=dim), cov=cov)
        sp = sigma_points(belief, BENCH_PARAMS)
        dev = sp.points - belief.mean
        np.testing.assert_allclose((dev * sp.w_cov[:, None]).T @ dev
                                   - (BENCH_PARAMS.beta + 1.0
                                      - BENCH_PARAMS.alpha_f ** 2) * 0.0,
                                   cov + (sp.w_cov[0] - sp.w_mean[0])
                                   * np.outer(dev[0], dev[0]), atol=1e-8)
        # the deviation-weighted sum with mean weights recovers cov exactly
        np.testing.assert_allclose((dev * sp.w_mean[:, None]).T @ dev, cov,
                                   rtol=1e-7, atol=1e-9)

    def test_failure_on_nan_covariance(self):
        belief = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))
        belief.cov = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericError):
            sigma_points(belief, BENCH_PARAMS)


class TestUnscentedTransformAffine:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_affine_exactness(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            mean = rng.normal(size=dim)
            root = rng.normal(size=(dim, dim))
            cov = root @ root.T + 0.5 * np.eye(dim)
            a_mat = rng.normal(size=(dim, dim))
            offset = rng.normal(size=dim)
            belief = GaussianBelief(mean=mean, cov=cov)
            out = predict(belief,
                          lambda pts: pts @ a_mat.T + offset,
                          np.zeros((dim, dim)), BENCH_PARAMS)
            np.testing.assert_allclose(out.mean, a_mat @ mean + offset,
                                       rtol=1e-8, atol=1e-8)
            np.testing.assert_allclose(out.cov, a_mat @ cov @ a_mat.T,
                                       rtol=1e-6, atol=1e-6)


class TestPredictUpdate:
    def test_identity_dynamics_preserves_belief(self):
        rng = np.random.default_rng(11)
        mean = rng.normal(size=3) * 5.0
        root = rng.normal(size=(3, 3))
        cov = root @ root.T + np.eye(3)
        belief = GaussianBelief(mean=mean, cov=cov)
        out = predict(belief, lambda pts: pts, np.zeros((3, 3)), BENCH_PARAMS)
        np.testing.assert_allclose(out.mean, mean, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(out.cov, cov, rtol=1e-8, atol=1e-10)

    def test_parameter_rows_constant_under_dynamics(self):
        system = build_duffing_2dof()
        model = to_state_space(system, (1, 2))
        mean = np.array([0.01, -0.02, 0.1, 0.2, 800.0, 400.0])
        cov = np.diag([1e-2] * 4 + [1e4, 2.5e3])
        belief = GaussianBelief(mean=mean, cov=cov)
        f = system.force_at(0.3)
        dt = 1e-3
        out = predict(belief, lambda pts: pts + model.drift(pts, f) * dt,
                      np.zeros((6, 6)), BENCH_PARAMS)
        np.testing.assert_allclose(out.mean[4:], mean[4:], rtol=1e-9)

    def test_zero_innovation_keeps_mean(self):
        rng = np.random.default_rng(13)
        dim, n_obs = 4, 2
        mean = rng.normal(size=dim)
        root = rng.normal(size=(dim, dim))
        belief = GaussianBelief(mean=mean, cov=root @ root.T + np.eye(dim))
        h_mat = rng.normal(size=(n_obs, dim))
        r = 0.1 * np.eye(n_obs)
        out = update(belief, lambda pts: pts @ h_mat.T, h_mat @ mean, r,
                     BENCH_PARAMS)
        np.testing.assert_allclose(out.mean, mean, rtol=1e-8, atol=1e-8)

    def test_linear_update_matches_kf(self):
        rng = np.random.default_rng(17)
        dim, n_obs = 3, 2
        mean = rng.normal(size=dim)
        root = rng.normal(size=(dim, dim))
        cov = root @ root.T + np.eye(dim)
        h_mat = rng.normal(size=(n_obs, dim))
        r = np.diag([0.2, 0.4])
        z = rng.normal(size=n_obs)
        ukf_out = update(GaussianBelief(mean=mean, cov=cov),
                         lambda pts: pts @ h_mat.T, z, r, BENCH_PARAMS)
        m_kf, p_kf = kf_step(mean, cov, np.eye(dim), np.zeros((dim, dim)),
                             h_mat, r, z)
        np.testing.assert_allclose(ukf_out.mean, m_kf, rtol=1e-7, atol=1e-8)
        np.testing.assert_allclose(ukf_out.cov, p_kf, rtol=1e-6, atol=1e-8)

    def test_update_shrinks_trace_for_small_r(self):
        rng = np.random.default_rng(19)
        dim = 3
        root = rng.normal(size=(dim, dim))
        cov = root @ root.T + np.eye(dim)
        belief = GaussianBelief(mean=rng.normal(size=dim), cov=cov)
        h_mat = rng.normal(size=(2, dim))
        out = update(belief, lambda pts: pts @ h_mat.T,
                     rng.normal(size=2), 1e-8 * np.eye(2), BENCH_PARAMS)
        assert np.trace(out.cov) <= np.trace(cov) + 1e-10

    def test_nonfinite_propagation_names_sigma_index(self):
        belief = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))

        def bad_dynamics(pts):
            out = np.array(pts)
            out[3, 0] = np.nan
            return out

        with pytest.raises(NumericError, match="sigma index 3"):
            predict(belief, bad_dynamics, np.zeros((2, 2)), BENCH_PARAMS)

    def test_singular_innovation_raises(self):
        belief = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))
        with pytest.raises(NumericError):
            update(belief, lambda pts: np.zeros((pts.shape[0], 1)),
                   np.zeros(1), np.zeros((1, 1)), BENCH_PARAMS)

    def test_singular_innovation_with_positive_trace_uses_jitter_rung(self):
        # 1-D state N(0, 4) measured twice without noise: the sigma points are
        # 0 and +/-2 with weights 0 and 1/2, so S = [[4, 4], [4, 4]] exactly,
        # which fails rung 0 and factors at rung 1 (1e-12 * trace(S) / 2)
        params = UkfParams(alpha_f=1.0, beta=0.0, kappa=0.0)
        belief = GaussianBelief(mean=np.zeros(1), cov=np.full((1, 1), 4.0))
        twice = lambda pts: pts[:, [0, 0]]  # noqa: E731
        z = np.array([0.3, 0.3])
        out = update(belief, twice, z, np.zeros((2, 2)), params)
        with pytest.raises(np.linalg.LinAlgError):
            cho_factor(np.full((2, 2), 4.0))
        ref = update(belief, twice, z, (1e-12 * 4.0) * np.eye(2), params)
        np.testing.assert_array_equal(out.mean, ref.mean)
        np.testing.assert_array_equal(out.cov, ref.cov)

    def test_measurement_dimension_checked(self):
        belief = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))
        with pytest.raises(InvalidParameterError):
            update(belief, lambda pts: pts, np.zeros(1), np.eye(2),
                   BENCH_PARAMS)


class TestUkfEqualsKf:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_linear_gaussian_equivalence(self, dim):
        # criterion: max mean deviation < 1e-6 over 50 steps
        rng = np.random.default_rng(100 + dim)
        n_obs = max(1, dim - 2)
        a_mat, h_mat, q, r = random_linear_system(rng, dim, n_obs)
        m_kf = rng.normal(size=dim)
        p_kf = np.eye(dim)
        ukf_belief = GaussianBelief(mean=m_kf.copy(), cov=p_kf.copy())
        truth = rng.normal(size=dim)
        worst_mean = worst_cov = 0.0
        for _ in range(50):
            truth = a_mat @ truth + rng.multivariate_normal(np.zeros(dim), q)
            z = h_mat @ truth + rng.multivariate_normal(np.zeros(n_obs), r)
            m_kf, p_kf = kf_step(m_kf, p_kf, a_mat, q, h_mat, r, z)
            ukf_belief = predict(ukf_belief, lambda pts: pts @ a_mat.T, q,
                                 BENCH_PARAMS)
            ukf_belief = update(ukf_belief, lambda pts: pts @ h_mat.T, z, r,
                                BENCH_PARAMS)
            worst_mean = max(worst_mean,
                             float(np.max(np.abs(ukf_belief.mean - m_kf))))
            worst_cov = max(worst_cov,
                            float(np.max(np.abs(ukf_belief.cov - p_kf))))
        assert worst_mean < 1e-6
        assert worst_cov < 1e-6


class TestPsdRepair:
    def test_indefinite_matrix_clipped(self):
        log = PsdRepairLog()
        p = np.diag([1.0, -1e-9, 2.0])
        fixed, factor = repair_psd(p, log)
        assert factor is None
        assert log.count == 1
        assert log.max_magnitude == pytest.approx(1e-9)
        assert np.min(np.linalg.eigvalsh(fixed)) >= -1e-15

    def test_psd_matrix_untouched(self):
        log = PsdRepairLog()
        p = np.diag([1.0, 2.0])
        fixed, factor = repair_psd(p, log)
        np.testing.assert_array_equal(fixed, p)
        np.testing.assert_array_equal(factor, np.linalg.cholesky(p))
        assert log.count == 0

    def test_belief_requires_symmetry(self):
        with pytest.raises(InvalidParameterError):
            GaussianBelief(mean=np.zeros(2),
                           cov=np.array([[1.0, 0.5], [-0.5, 1.0]]))


class TestCarriedFactor:
    """Beliefs from predict/update reuse the PSD check's Cholesky factor."""

    @staticmethod
    def assert_same_sigma_points(belief):
        fresh = GaussianBelief(mean=belief.mean.copy(), cov=belief.cov.copy())
        assert fresh.carried_factor is None
        np.testing.assert_array_equal(sigma_points(belief, BENCH_PARAMS).points,
                                      sigma_points(fresh, BENCH_PARAMS).points)

    def test_predict_then_update_bit_identical(self):
        rng = np.random.default_rng(23)
        dim, n_obs = 5, 2
        a_mat, h_mat, q, r = random_linear_system(rng, dim, n_obs)
        root = rng.normal(size=(dim, dim))
        belief = GaussianBelief(mean=rng.normal(size=dim),
                                cov=root @ root.T + np.eye(dim))
        predicted = predict(belief, lambda pts: pts @ a_mat.T, q, BENCH_PARAMS)
        assert predicted.carried_factor is not None
        self.assert_same_sigma_points(predicted)
        updated = update(predicted, lambda pts: pts @ h_mat.T,
                         rng.normal(size=n_obs), r, BENCH_PARAMS)
        assert updated.carried_factor is not None
        self.assert_same_sigma_points(updated)

    def test_eigh_repair_carries_no_factor(self):
        # the dynamics drop the last entry and Q is negative there
        log = PsdRepairLog()
        belief = GaussianBelief(mean=np.ones(3), cov=np.eye(3))
        q = np.diag([0.0, 0.0, -1e-3])
        predicted = predict(belief, lambda pts: pts * [1.0, 1.0, 0.0], q,
                            BENCH_PARAMS, log)
        assert log.count == 1
        assert predicted.carried_factor is None
        self.assert_same_sigma_points(predicted)
        updated = update(predicted, lambda pts: pts[:, :1], np.zeros(1),
                         np.eye(1), BENCH_PARAMS, log)
        self.assert_same_sigma_points(updated)

    def test_new_covariance_drops_factor(self):
        belief = predict(GaussianBelief(mean=np.zeros(2), cov=np.eye(2)),
                         lambda pts: pts, np.eye(2), BENCH_PARAMS)
        belief.cov = 4.0 * np.eye(2)
        assert belief.carried_factor is None
        self.assert_same_sigma_points(belief)


class TestProcessNoise:
    def test_2dof_hand_value(self):
        system = build_duffing_2dof()
        model = to_state_space(system, (1, 2))
        q_fn = build_process_noise(model, 1e-3)
        q = q_fn(np.zeros(6))
        assert q[2, 2] == pytest.approx((0.1 * math.sqrt(1e-3) / 20.0) ** 2,
                                        rel=1e-12)
        assert q[3, 3] == pytest.approx((0.1 * math.sqrt(1e-3) / 10.0) ** 2,
                                        rel=1e-12)

    def test_parameter_rows_zero_without_override(self):
        system = build_duffing_2dof()
        model = to_state_space(system, (1, 2))
        q = build_process_noise(model, 1e-3)(np.zeros(6))
        np.testing.assert_array_equal(q[4:], np.zeros((2, 6)))
        np.testing.assert_array_equal(q[:, 4:], np.zeros((6, 2)))

    def test_extra_diag_overrides_parameter_rows(self):
        system = build_duffing_2dof()
        model = to_state_space(system, (1, 2))
        extra = np.zeros(6)
        extra[4:] = 1e-4
        q = build_process_noise(model, 1e-3, extra_diag=extra)(np.zeros(6))
        assert q[4, 4] == pytest.approx(1e-4)
        assert q[5, 5] == pytest.approx(1e-4)

    def test_scale_factors_scale_diagonal(self):
        system = build_duffing_2dof()
        model = to_state_space(system, (1, 2))
        base = build_process_noise(model, 1e-3)(np.zeros(6))
        scaled = build_process_noise(model, 1e-3, scale_factors=4.0)(np.zeros(6))
        np.testing.assert_allclose(scaled, 4.0 * base)

    def test_7dof_predicted_mean_factor(self):
        # the DOF-4 velocity entry scales with the square of the predicted
        # fourth displacement (seventh state entry)
        system = build_dvp_7dof()
        model = to_state_space(system, range(1, 8))
        q_fn = build_process_noise(model, 1e-3)
        mean_a = np.zeros(21)
        mean_a[6] = 1.0
        mean_b = np.zeros(21)
        mean_b[6] = 2.0
        qa = q_fn(mean_a)
        qb = q_fn(mean_b)
        assert qb[7, 7] == pytest.approx(4.0 * qa[7, 7], rel=1e-12)
        assert qa[7, 7] == pytest.approx(1e-3 * (0.1 / 10.0) ** 2, rel=1e-12)
        # remaining velocity entries follow sigma_i sqrt(dt) / m_i squared
        assert qa[1, 1] == pytest.approx(1e-3 * (0.1 / 20.0) ** 2, rel=1e-12)

    @pytest.mark.parametrize("build", [build_duffing_2dof, build_dvp_7dof])
    @pytest.mark.parametrize("scale,extra", [
        (None, None), (4.0, None), (None, 1e-4), ("vector", "vector")])
    def test_cached_q_equals_full_product_bitwise(self, build, scale, extra):
        # Q built once (one entry recomputed for the DVP) against the
        # construction dt * b(m) b(m)^T at the mean, rescaled, on every call
        system = build()
        n = system.n_dof
        model = to_state_space(system, range(1, n + 1))
        rng = np.random.default_rng(41)
        dim = model.dim_state
        if scale == "vector":
            scale = rng.uniform(0.5, 3.0, dim)
            extra = rng.uniform(0.0, 1e-3, dim)
        dt = 7e-4
        q_fn = build_process_noise(model, dt, scale_factors=scale, extra_diag=extra)
        for _ in range(5):
            mean = rng.normal(size=dim)
            b = model.dispersion(mean)
            q = dt * (b @ b.T)
            if scale is not None:
                root = np.sqrt(np.asarray(scale, dtype=float) * np.ones(dim))
                q = q * np.outer(root, root)
            if extra is not None:
                q = q + np.diag(np.asarray(extra, dtype=float) * np.ones(dim))
            np.testing.assert_array_equal(q_fn(mean), q)

    def test_validation(self):
        system = build_duffing_2dof()
        model = to_state_space(system)
        with pytest.raises(InvalidParameterError):
            build_process_noise(model, 0.0)
        with pytest.raises(InvalidParameterError):
            build_process_noise(model, 1e-3, scale_factors=-1.0)


class TestRunFilter:
    def make_window(self, system, model, duration=2.0, dt=1e-3, seed=0,
                    observed=(1, 2), accel_noise=1e-6):
        cfg = IntegratorConfig(dt=dt, seed=seed)
        traj = simulate_window(model, system, np.zeros(model.dim_state),
                               duration, cfg)
        rng = np.random.default_rng(seed + 1)
        obs0 = [d - 1 for d in observed]
        accel = traj.accelerations[:, obs0]
        accel = accel + rng.standard_normal(accel.shape) * accel_noise
        return MeasurementWindow(
            t_s=0.0, times=traj.times, accel=accel, force=traj.forces,
            observed_dofs=observed,
            accel_noise_std=np.full(len(observed), accel_noise))

    def test_linear_system_state_tracking(self):
        # noise-free measurements of a linear system: states within 1% RMS
        system = build_duffing_2dof(nonlinear_coeff=1e-12,
                                    noise_sigmas=(1e-6, 1e-6))
        sim_model = to_state_space(system)
        window = self.make_window(system, sim_model)
        model = to_state_space(system, (1, 2))
        init_mean = np.zeros(6)
        init_mean[:4] = 0.01
        init_mean[4:] = system.stiffnesses
        init = GaussianBelief(mean=init_mean,
                              cov=np.diag([1e-2] * 4 + [1.0, 1.0]))
        noise = NoiseModel(q=build_process_noise(model, 1e-3),
                           r=np.eye(2) * 1e-12)
        result = run_filter(model, system, window, init, noise, BENCH_PARAMS)
        truth = simulate_window(sim_model, system, np.zeros(4), 2.0,
                                IntegratorConfig(dt=1e-3, seed=0)).states
        settle = 200  # skip the initial transient
        rms_err = np.sqrt(np.mean((result.means[settle:, :4]
                                   - truth[settle:]) ** 2, axis=0))
        rms_sig = np.sqrt(np.mean(truth[settle:] ** 2, axis=0))
        assert np.all(rms_err < 0.01 * rms_sig)

    def test_parameter_recovery_short_window(self):
        system = build_duffing_2dof()
        model = to_state_space(system, (1, 2))
        window = self.make_window(system, to_state_space(system),
                                  duration=5.0, accel_noise=0.02)
        init_mean = np.zeros(6)
        init_mean[4:] = (800.0, 400.0)
        init = GaussianBelief(
            mean=init_mean, cov=np.diag([1e-2] * 4 + [100.0 ** 2, 50.0 ** 2]))
        noise = NoiseModel(q=build_process_noise(model, 1e-3),
                           r=np.eye(2) * 0.02 ** 2)
        result = run_filter(model, system, window, init, noise, BENCH_PARAMS)
        assert abs(result.param_estimate[0] - 1000.0) < 0.02 * 1000.0
        assert abs(result.param_estimate[1] - 500.0) < 0.05 * 500.0
        assert result.param_names == ("k1", "k2")
        assert result.n_updates == window.times.shape[0] - 1

    def test_augment_order_does_not_matter(self):
        system = build_duffing_2dof()
        window = self.make_window(system, to_state_space(system),
                                  duration=1.0, accel_noise=1e-4)
        results = []
        for order in ((1, 2), (2, 1)):
            model = to_state_space(system, order)
            init_mean = np.zeros(6)
            init_mean[4:] = (900.0, 450.0)
            init = GaussianBelief(
                mean=init_mean, cov=np.diag([1e-2] * 4 + [1e4, 2.5e3]))
            noise = NoiseModel(q=build_process_noise(model, 1e-3),
                               r=np.eye(2) * 1e-8)
            results.append(run_filter(model, system, window, init, noise,
                                      BENCH_PARAMS))
        np.testing.assert_allclose(results[0].param_estimate,
                                   results[1].param_estimate, rtol=1e-10)

    def test_nonuniform_grid_rejected(self):
        system = build_duffing_2dof()
        model = to_state_space(system, (1, 2))
        window = self.make_window(system, to_state_space(system), duration=0.5)
        window.times = window.times.copy()
        window.times[10] += 1e-4
        init = GaussianBelief(mean=np.zeros(6), cov=np.eye(6))
        noise = NoiseModel(q=np.zeros((6, 6)), r=np.eye(2))
        with pytest.raises(InvalidParameterError):
            run_filter(model, system, window, init, noise, BENCH_PARAMS)

    def test_accel_shape_checked(self):
        system = build_duffing_2dof()
        model = to_state_space(system, (1, 2))
        window = self.make_window(system, to_state_space(system), duration=0.1)
        init = GaussianBelief(mean=np.zeros(6), cov=np.eye(6))
        noise = NoiseModel(q=np.zeros((6, 6)), r=np.eye(2))
        for bad in (window.accel.T, window.accel[:, :1], window.accel[1:]):
            window.accel = bad
            with pytest.raises(InvalidParameterError, match="n_observed"):
                run_filter(model, system, window, init, noise, BENCH_PARAMS)

    def test_result_export(self, tmp_path):
        system = build_duffing_2dof()
        model = to_state_space(system, (1, 2))
        window = self.make_window(system, to_state_space(system), duration=0.2)
        init_mean = np.zeros(6)
        init_mean[4:] = system.stiffnesses
        init = GaussianBelief(mean=init_mean,
                              cov=np.diag([1e-2] * 4 + [1e4, 2.5e3]))
        noise = NoiseModel(q=build_process_noise(model, 1e-3),
                           r=np.eye(2) * 1e-6)
        result = run_filter(model, system, window, init, noise, BENCH_PARAMS)
        path = tmp_path / "run.csv"
        result.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("time,mean_x1")
        assert len(lines) == window.times.shape[0] + 1
        summary = result.summary_dict()
        assert set(summary["parameters"]) == {"k1", "k2"}
        assert "psd_repairs" in summary
