"""Sigma points, unscented transform, filter recursion, process noise."""

import dataclasses
import math

import numpy as np
import pytest

from mdoftwin import ukf
from mdoftwin.errors import InvalidParameterError, NumericError
from mdoftwin.linalg import cho_factor
from mdoftwin.models import (DegradationSchedule, acceleration_model,
                             build_duffing_2dof, build_dvp_7dof, to_state_space)
from mdoftwin.sde import IntegratorConfig, simulate_window, uniform_step
from mdoftwin.twin import CampaignConfig, MeasurementWindow, generate_window
from mdoftwin.ukf import (GaussianBelief, NoiseModel, PsdRepairLog,
                          UkfParams, build_process_noise, predict,
                          repair_psd, run_filter, sigma_points, ukf_weights,
                          update)

from conftest import composed_predict, composed_update, textbook_filter

BENCH_PARAMS = UkfParams(alpha_f=0.001, beta=2.0, kappa=0.0)


@pytest.fixture
def factorizations(monkeypatch):
    """Every ``ukf.cho_factor`` call from here on: a copy of its matrix and
    whether it factored."""
    calls = []

    def recording(a):
        matrix = a.copy()
        try:
            factor = cho_factor(a)
        except np.linalg.LinAlgError:
            calls.append((matrix, False))
            raise
        calls.append((matrix, True))
        return factor

    monkeypatch.setattr(ukf, "cho_factor", recording)
    return calls


def assert_same_half_step(run, oracle, factorizations):
    """``run()`` gives the belief and ``oracle()`` the mean, covariance and
    factor of ``composed_predict``/``composed_update``, bit for bit, after
    the same factorizations of the same matrices."""
    factorizations.clear()
    want = oracle()
    want_calls = factorizations[:]
    factorizations.clear()
    belief = run()
    for got, expected in zip((belief.mean, belief.cov, belief.factor), want):
        np.testing.assert_array_equal(got, expected)
    assert [ok for _, ok in factorizations] == [ok for _, ok in want_calls]
    for (got, _), (expected, _) in zip(factorizations, want_calls):
        np.testing.assert_array_equal(got, expected)
    return belief


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
        # a non-finite beta or kappa would give non-finite weights
        for bad in ({"alpha_f": 0.0}, {"alpha_f": 1.5}, {"alpha_f": math.nan},
                    {"beta": math.nan}, {"beta": math.inf}, {"beta": -math.inf},
                    {"kappa": math.nan}, {"kappa": math.inf}):
            with pytest.raises(InvalidParameterError):
                UkfParams(**bad)


class TestSigmaPoints:
    def test_scalar_hand_example(self):
        # L=1, mu=0, cov=1: points {0, +1e-3, -1e-3}
        belief = GaussianBelief(mean=np.zeros(1), cov=np.eye(1))
        points = sigma_points(belief, BENCH_PARAMS)
        np.testing.assert_allclose(points.ravel(), [0.0, 1e-3, -1e-3],
                                   atol=1e-18)

    def test_pair_symmetry_and_mean_recovery(self):
        rng = np.random.default_rng(5)
        for dim in (2, 5, 8):
            mean = rng.normal(size=dim) * 10.0
            root = rng.normal(size=(dim, dim))
            belief = GaussianBelief(mean=mean, cov=root @ root.T + np.eye(dim))
            points = sigma_points(belief, BENCH_PARAMS)
            assert points.shape == (2 * dim + 1, dim)
            np.testing.assert_allclose(
                points[1:dim + 1] + points[dim + 1:],
                np.broadcast_to(2.0 * mean, (dim, dim)), rtol=1e-12)
            w_mean, _ = ukf_weights(dim, BENCH_PARAMS)
            recovered = w_mean @ points
            np.testing.assert_allclose(recovered, mean,
                                       rtol=1e-8, atol=1e-8 * (1 + abs(mean).max()))

    def test_covariance_recovery(self):
        rng = np.random.default_rng(7)
        dim = 4
        root = rng.normal(size=(dim, dim))
        cov = root @ root.T + np.eye(dim)
        belief = GaussianBelief(mean=rng.normal(size=dim), cov=cov)
        dev = sigma_points(belief, BENCH_PARAMS) - belief.mean
        w_mean, w_cov = ukf_weights(dim, BENCH_PARAMS)
        np.testing.assert_allclose((dev * w_cov[:, None]).T @ dev
                                   - (BENCH_PARAMS.beta + 1.0
                                      - BENCH_PARAMS.alpha_f ** 2) * 0.0,
                                   cov + (w_cov[0] - w_mean[0])
                                   * np.outer(dev[0], dev[0]), atol=1e-8)
        # the deviation-weighted sum with mean weights recovers cov exactly
        np.testing.assert_allclose((dev * w_mean[:, None]).T @ dev, cov,
                                   rtol=1e-7, atol=1e-9)

    def test_failure_on_nan_covariance(self):
        # the belief factors its covariance when it is built, so a NaN
        # covariance fails there, and a filter covariance fails in repair_psd
        nan_cov = np.array([[np.nan, 0.0], [0.0, 1.0]])
        message = "sigma-point square root: matrix has non-finite entries"
        with pytest.raises(NumericError, match=message):
            GaussianBelief(mean=np.zeros(2), cov=nan_cov)
        with pytest.raises(NumericError, match=message):
            repair_psd(nan_cov)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_mean_rejected(self, bad):
        # such a belief used to build, and run_filter started from it failed
        # only at "sample 1: non-finite propagated sigma point"
        with pytest.raises(InvalidParameterError, match="^belief mean must be finite, got "):
            GaussianBelief(mean=[bad, 0.0], cov=np.eye(2))


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

    # an image that is not a float ndarray, or not 2-D, is converted first
    @pytest.mark.parametrize("form", [np.asarray, np.ndarray.tolist])
    def test_nonfinite_propagation_names_sigma_index(self, form):
        belief = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))

        def bad_dynamics(pts):
            out = np.array(pts)
            out[3, 0] = np.nan
            return form(out)

        with pytest.raises(NumericError,
                           match="^non-finite propagated sigma point at sigma index 3$"):
            predict(belief, bad_dynamics, np.zeros((2, 2)), BENCH_PARAMS)

    @pytest.mark.parametrize("columns", [slice(0, 1), 0], ids=["2-D", "1-D"])
    def test_nonfinite_measurement_names_sigma_index(self, columns):
        belief = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))

        def bad_measurement(pts):
            out = np.array(pts[:, columns])
            out[4, ...] = np.inf
            return out

        with pytest.raises(NumericError,
                           match="^non-finite measurement sigma point at sigma index 4$"):
            update(belief, bad_measurement, np.zeros(1), np.eye(1), BENCH_PARAMS)

    def test_overflowing_moments_of_finite_images(self):
        # finite images whose weighted squares overflow fail in the
        # covariance checks, not in the image checks
        belief = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))
        huge = lambda pts: pts * 1e200  # noqa: E731
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="^sigma-point square root: "
                               "matrix has non-finite entries$"):
                predict(belief, huge, np.zeros((2, 2)), BENCH_PARAMS)
            with pytest.raises(NumericError, match="^innovation covariance: "
                               "matrix has non-finite entries$"):
                update(belief, huge, np.zeros(2), np.eye(2), BENCH_PARAMS)

    def test_finite_images_whose_sum_of_squares_overflows_pass(self, factorizations):
        # every image entry is finite but one above ~1e154, so the sum of
        # squares of the image is not; the deviations and moments are finite
        belief = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))
        shifted = lambda pts: pts + [1e155, 0.0]  # noqa: E731
        predicted = assert_same_half_step(
            lambda: predict(belief, shifted, np.eye(2), BENCH_PARAMS),
            lambda: composed_predict(belief, shifted, np.eye(2), BENCH_PARAMS),
            factorizations)
        assert predicted.mean[0] == 1e155
        z = np.array([1e155, 0.5])
        assert_same_half_step(
            lambda: update(belief, shifted, z, np.eye(2), BENCH_PARAMS),
            lambda: composed_update(belief, shifted, z, np.eye(2), BENCH_PARAMS),
            factorizations)

    def test_singular_innovation_raises(self):
        belief = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))
        with pytest.raises(NumericError):
            update(belief, lambda pts: np.zeros((pts.shape[0], 1)),
                   np.zeros(1), np.zeros((1, 1)), BENCH_PARAMS)

    def test_singular_innovation_with_positive_trace_uses_jitter_rung(self, factorizations):
        # 1-D state N(0, 4) measured twice without noise: the sigma points are
        # 0 and +/-2 with weights 0 and 1/2, so S = [[4, 4], [4, 4]] exactly,
        # which fails rung 0 and factors at rung 1 (1e-12 * trace(S) / 2)
        params = UkfParams(alpha_f=1.0, beta=0.0, kappa=0.0)
        belief = GaussianBelief(mean=np.zeros(1), cov=np.full((1, 1), 4.0))
        twice = lambda pts: pts[:, [0, 0]]  # noqa: E731
        z = np.array([0.3, 0.3])
        out = assert_same_half_step(
            lambda: update(belief, twice, z, np.zeros((2, 2)), params),
            lambda: composed_update(belief, twice, z, np.zeros((2, 2)), params),
            factorizations)
        # S is tried once, then the ladder, then the updated covariance
        assert [ok for _, ok in factorizations] == [False, True, True]
        np.testing.assert_array_equal(factorizations[0][0], np.full((2, 2), 4.0))
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


class TestCholeskyWithJitter:
    def test_positive_definite_matrix_factored_as_given(self):
        rng = np.random.default_rng(8)
        root = rng.normal(size=(7, 7))
        p = root @ root.T + 1e-3 * np.eye(7)
        factor, used = ukf.cholesky_with_jitter(p)
        assert used is p
        np.testing.assert_array_equal(factor, cho_factor(p))

    def test_rung_scaled_by_mean_diagonal(self):
        p = np.array([[4.0, 4.0], [4.0, 4.0]])
        factor, used = ukf.cholesky_with_jitter(p)
        np.testing.assert_array_equal(used, p + 1e-12 * 4.0 * np.eye(2))
        np.testing.assert_array_equal(factor, cho_factor(used))

    @pytest.mark.parametrize("p, message", [
        (np.array([[1.0, math.nan], [math.nan, 1.0]]), "S: matrix has non-finite entries"),
        (-np.eye(2), "S: Cholesky failed after maximum jitter"),
    ], ids=["non-finite", "negative-definite"])
    def test_failures_keep_their_messages(self, p, message):
        with pytest.raises(NumericError, match=message):
            ukf.cholesky_with_jitter(p, "S")


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
        np.testing.assert_array_equal(factor, ukf.cholesky_with_jitter(fixed)[0])
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


class TestBeliefFactor:
    """Every belief holds chol(cov): the filter's beliefs hold the factor of
    repair_psd, bit for bit the one a fresh belief of the same covariance
    computes."""

    @staticmethod
    def assert_same_factor(belief):
        fresh = GaussianBelief(mean=belief.mean.copy(), cov=belief.cov.copy())
        np.testing.assert_array_equal(belief.factor, fresh.factor)
        np.testing.assert_array_equal(sigma_points(belief, BENCH_PARAMS),
                                      sigma_points(fresh, BENCH_PARAMS))

    # a 1-D measurement image is one column, and z may be a list
    @pytest.mark.parametrize("n_obs", [2, 1], ids=["2-D", "1-D-and-list"])
    def test_predict_then_update_bit_identical(self, n_obs, factorizations):
        rng = np.random.default_rng(23)
        dim = 5
        a_mat, h_mat, q, r = random_linear_system(rng, dim, n_obs)
        root = rng.normal(size=(dim, dim))
        belief = GaussianBelief(mean=rng.normal(size=dim),
                                cov=root @ root.T + np.eye(dim))
        dynamics = lambda pts: pts @ a_mat.T  # noqa: E731
        predicted = assert_same_half_step(
            lambda: predict(belief, dynamics, q, BENCH_PARAMS),
            lambda: composed_predict(belief, dynamics, q, BENCH_PARAMS), factorizations)
        np.testing.assert_array_equal(predicted.factor, cho_factor(predicted.cov))
        self.assert_same_factor(predicted)
        z = rng.normal(size=n_obs)
        measure = lambda pts: pts @ h_mat.T  # noqa: E731
        if n_obs == 1:
            z, measure = z.tolist(), lambda pts: pts @ h_mat[0]  # noqa: E731
        updated = assert_same_half_step(
            lambda: update(predicted, measure, z, r, BENCH_PARAMS),
            lambda: composed_update(predicted, measure, z, r, BENCH_PARAMS), factorizations)
        np.testing.assert_array_equal(updated.factor, cho_factor(updated.cov))
        self.assert_same_factor(updated)

    def test_eigh_repair_carries_ladder_factor(self, factorizations):
        # the dynamics drop the last entry and Q is negative there
        log, composed_log = PsdRepairLog(), PsdRepairLog()
        belief = GaussianBelief(mean=np.ones(3), cov=np.eye(3))
        q = np.diag([0.0, 0.0, -1e-3])
        dropped = lambda pts: pts * [1.0, 1.0, 0.0]  # noqa: E731
        predicted = assert_same_half_step(
            lambda: predict(belief, dropped, q, BENCH_PARAMS, log),
            lambda: composed_predict(belief, dropped, q, BENCH_PARAMS, composed_log),
            factorizations)
        # the covariance fails its one PSD test; the repaired one fails as
        # given and factors at the ladder's first rung
        assert [ok for _, ok in factorizations] == [False, False, True]
        assert log == composed_log and log.count == 1
        np.testing.assert_array_equal(
            predicted.factor, ukf.cholesky_with_jitter(predicted.cov)[0])
        self.assert_same_factor(predicted)
        first = lambda pts: pts[:, :1]  # noqa: E731
        updated = assert_same_half_step(
            lambda: update(predicted, first, np.zeros(1), np.eye(1), BENCH_PARAMS, log),
            lambda: composed_update(predicted, first, np.zeros(1), np.eye(1), BENCH_PARAMS,
                                    composed_log),
            factorizations)
        assert log == composed_log
        self.assert_same_factor(updated)

    def test_belief_is_frozen(self):
        belief = predict(GaussianBelief(mean=np.zeros(2), cov=np.eye(2)),
                         lambda pts: pts, np.eye(2), BENCH_PARAMS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            belief.cov = 4.0 * np.eye(2)
        self.assert_same_factor(belief)


class TestNoiseModel:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_r_rejected(self, value):
        # NaN fails every comparison, so only a finiteness test catches it
        with pytest.raises(InvalidParameterError, match="^R must be finite$"):
            NoiseModel(q=np.eye(2), r=[[value]])
        with pytest.raises(InvalidParameterError, match="^R must be finite$"):
            NoiseModel(q=np.eye(2), r=np.diag([1.0, value]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_q_matrix_rejected(self, value):
        q = np.eye(3)
        q[1, 2] = value
        with pytest.raises(InvalidParameterError, match="^Q must be finite$"):
            NoiseModel(q=q, r=np.eye(1))

    @pytest.mark.parametrize("q", [np.ones(3), np.ones((2, 3)), np.ones((1, 2, 2))],
                             ids=["vector", "rectangular", "stacked"])
    def test_q_matrix_must_be_square(self, q):
        with pytest.raises(InvalidParameterError, match="^Q must be a square matrix$"):
            NoiseModel(q=q, r=np.eye(1))

    @pytest.mark.parametrize("r, message", [
        (np.ones((1, 2)), "^R must be a square matrix$"),
        ([[1.0, 0.5], [0.0, 1.0]], "^R must be symmetric$"),
        ([[1.0, 2.0], [2.0, 1.0]], "^R must be positive semi-definite$"),
    ], ids=["rectangular", "asymmetric", "indefinite"])
    def test_r_must_be_a_covariance(self, r, message):
        with pytest.raises(InvalidParameterError, match=message):
            NoiseModel(q=np.eye(2), r=r)

    def test_valid_inputs_kept(self):
        q_fn = build_process_noise(to_state_space(build_duffing_2dof(), (1, 2)), 1e-3)
        assert NoiseModel(q=q_fn, r=np.eye(2)).q is q_fn
        noise = NoiseModel(q=[[1.0, 0.0], [0.0, 2.0]], r=[[0.0]])
        np.testing.assert_array_equal(noise.q, np.diag([1.0, 2.0]))
        assert noise.q.dtype == float
        np.testing.assert_array_equal(noise.r, np.zeros((1, 1)))


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

    def test_scale_factors_scale_diagonal(self):
        system = build_duffing_2dof()
        model = to_state_space(system, (1, 2))
        base = build_process_noise(model, 1e-3)(np.zeros(6))
        scaled = build_process_noise(model, 1e-3, scale=4.0)(np.zeros(6))
        np.testing.assert_allclose(scaled, 4.0 * base)

    def test_zero_scale_zeroes_every_entry(self):
        # the state-dependent DOF-4 entry of the DVP included
        system = build_dvp_7dof()
        model = to_state_space(system, range(1, 8))
        mean = np.zeros(21)
        mean[6] = 1.5
        q = build_process_noise(model, 1e-3, scale=0.0)(mean)
        np.testing.assert_array_equal(q, np.zeros((21, 21)))

    @pytest.mark.parametrize("build", [build_duffing_2dof, build_dvp_7dof])
    def test_unit_scale_equals_no_scale_bitwise(self, build):
        system = build()
        model = to_state_space(system, range(1, system.n_dof + 1))
        mean = np.random.default_rng(3).normal(size=model.dim_state)
        np.testing.assert_array_equal(
            build_process_noise(model, 1e-3, scale=1.0)(mean),
            build_process_noise(model, 1e-3)(mean))

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
    @pytest.mark.parametrize("scale", [None, 4.0, 3.0])
    def test_cached_q_equals_full_product_bitwise(self, build, scale):
        # Q built once (one entry recomputed for the DVP) against the
        # construction dt * b(m) b(m)^T at the mean, rescaled through
        # outer(sqrt(s), sqrt(s)), on every call
        system = build()
        n = system.n_dof
        model = to_state_space(system, range(1, n + 1))
        rng = np.random.default_rng(41)
        dim = model.dim_state
        dt = 7e-4
        q_fn = build_process_noise(model, dt, scale=scale)
        for _ in range(5):
            mean = rng.normal(size=dim)
            b = model.dispersion(mean)
            q = dt * (b @ b.T)
            if scale is not None:
                root = np.sqrt(np.full(dim, scale))
                q = q * np.outer(root, root)
            np.testing.assert_array_equal(q_fn(mean), q)

    @pytest.mark.parametrize("build", [build_duffing_2dof, build_dvp_7dof])
    def test_adds_onto_a_covariance_in_place(self, build):
        # predict passes its covariance: Q lands on it, bit for bit cov + Q
        system = build()
        model = to_state_space(system, range(1, system.n_dof + 1))
        rng = np.random.default_rng(43)
        q_fn = build_process_noise(model, 1e-3, scale=3.0)
        mean = rng.normal(size=model.dim_state)
        cov = rng.normal(size=(model.dim_state,) * 2)
        expected = cov + q_fn(mean)
        assert q_fn(mean, cov) is cov
        np.testing.assert_array_equal(cov, expected)

    def test_validation(self):
        system = build_duffing_2dof()
        model = to_state_space(system)
        with pytest.raises(InvalidParameterError):
            build_process_noise(model, 0.0)
        with pytest.raises(InvalidParameterError):
            build_process_noise(model, 1e-3, scale=-1.0)


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

    def test_stds_are_each_beliefs_std_bit_for_bit(self, monkeypatch):
        # run_filter keeps each sample's variances and takes the root once
        system = build_dvp_7dof()
        model = to_state_space(system, range(1, 8))
        window = self.make_window(system, to_state_space(system), duration=0.2,
                                  observed=(1, 4, 7), accel_noise=1e-3)
        init_mean = np.zeros(model.dim_state)
        init_mean[14:] = 0.9 * system.stiffnesses
        init = GaussianBelief(mean=init_mean,
                              cov=np.diag([1e-4] * 14 + list((0.1 * system.stiffnesses) ** 2)))
        seen = [init.std]
        update = ukf.update

        def recording_update(*args, **kwargs):
            belief = update(*args, **kwargs)
            seen.append(belief.std)
            return belief

        monkeypatch.setattr(ukf, "update", recording_update)
        noise = NoiseModel(q=build_process_noise(model, 1e-3), r=np.eye(3) * 1e-6)
        result = run_filter(model, system, window, init, noise, BENCH_PARAMS)
        np.testing.assert_array_equal(result.stds, np.array(seen))

    def test_matches_the_drift_closure_loop(self):
        # the loop run_filter replaced: an Euler closure over model.drift,
        # built per sample, through ukf.predict and ukf.update. The compiled
        # transition rounds x + v dt and the force term apart, so the two
        # agree to the rounding the filter carries through 200 samples. At
        # accel noise 1e-2 a one-ulp change of dt alone moves the estimates
        # by ~1e-9; at 1e-3 it moves them by ~2e-8, beyond this tolerance
        system = build_dvp_7dof()
        model = to_state_space(system, range(1, 8))
        window = self.make_window(system, to_state_space(system), duration=0.2,
                                  observed=(1, 4, 7), accel_noise=1e-2)
        init_mean = np.zeros(model.dim_state)
        init_mean[14:] = 0.9 * system.stiffnesses
        init = GaussianBelief(mean=init_mean,
                              cov=np.diag([1e-4] * 14 + list((0.1 * system.stiffnesses) ** 2)))
        noise = NoiseModel(q=build_process_noise(model, 1e-3), r=np.eye(3) * 1e-4)
        result = run_filter(model, system, window, init, noise, BENCH_PARAMS)

        dt = uniform_step(window.times)
        h = acceleration_model(system, window.observed_dofs,
                               augment_params=model.augmented_params)
        belief, means, stds = init, [init.mean], [init.std]
        for k in range(1, window.times.shape[0]):
            f_prev = window.force[k - 1]
            belief = ukf.predict(belief, lambda pts: pts + model.drift(pts, f_prev) * dt,
                                 noise.q, BENCH_PARAMS)
            belief = ukf.update(belief, h, window.accel[k], noise.r, BENCH_PARAMS)
            means.append(belief.mean)
            stds.append(belief.std)
        means, stds = np.array(means), np.array(stds)

        np.testing.assert_allclose(result.param_estimate, belief.mean[14:], rtol=1e-8)
        np.testing.assert_allclose(result.param_std, belief.std[14:], rtol=1e-8)
        # kinematic entries pass through zero: relative to each entry's range
        for got, want in ((result.means, means), (result.stds, stds)):
            scale = np.max(np.abs(want), axis=0)
            assert np.all(np.abs(got - want) <= 1e-8 * scale)

    @pytest.mark.parametrize("build", [build_duffing_2dof, build_dvp_7dof])
    def test_equals_the_textbook_sample_bit_for_bit(self, build):
        # BLAS-direct products and in-place moments change no bit of the
        # recursion written with @ and out-of-place moments, over 500 samples
        # of a generated window
        system = build()
        n = system.n_dof
        cfg = CampaignConfig(master_seed=1, window_duration_s=0.5)
        window = generate_window(system, DegradationSchedule.for_system(system),
                                 cfg, 500.0, 1)
        model = to_state_space(system, range(1, n + 1))
        init_mean = np.zeros(model.dim_state)
        init_mean[2 * n:] = 0.8 * system.stiffnesses
        init = GaussianBelief(mean=init_mean, cov=np.diag(
            [1e-4] * (2 * n) + list((0.1 * system.stiffnesses) ** 2)))
        noise = NoiseModel(q=build_process_noise(model, uniform_step(window.times)),
                           r=np.diag(window.accel_noise_std ** 2))
        result = run_filter(model, system, window, init, noise, BENCH_PARAMS)
        means, stds, param_cov = textbook_filter(model, system, window, init,
                                                 noise.r, BENCH_PARAMS)
        assert result.n_updates == 500 and result.psd_repairs.count == 0
        np.testing.assert_array_equal(result.means, means)
        np.testing.assert_array_equal(result.stds, stds)
        np.testing.assert_array_equal(result.param_cov, param_cov)

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

    @pytest.mark.parametrize("q, r, message", [
        (np.eye(3), np.eye(2),
         r"^Q must be \(dim_state, dim_state\) = \(6, 6\), got \(3, 3\)$"),
        (np.zeros((6, 6)), np.eye(3),
         r"^R must be \(n_observed, n_observed\) = \(2, 2\), got \(3, 3\)$"),
    ])
    def test_noise_shapes_checked(self, q, r, message):
        # a matrix Q or R of the wrong size is named before the first sample
        system = build_duffing_2dof()
        model = to_state_space(system, (1, 2))
        window = self.make_window(system, to_state_space(system), duration=0.1)
        init = GaussianBelief(mean=np.zeros(6), cov=np.eye(6))
        with pytest.raises(InvalidParameterError, match=message):
            run_filter(model, system, window, init, NoiseModel(q=q, r=r), BENCH_PARAMS)

    def test_non_finite_accel_named_before_filtering(self):
        # a window changed after construction is checked again: the first
        # non-finite sample is named, not the sigma point it would poison
        system = build_duffing_2dof()
        model = to_state_space(system, (1, 2))
        window = self.make_window(system, to_state_space(system), duration=0.2)
        window.accel[100, 0] = np.nan
        init = GaussianBelief(mean=np.zeros(6), cov=np.eye(6))
        noise = NoiseModel(q=build_process_noise(model, 1e-3), r=np.eye(2) * 1e-6)
        with pytest.raises(NumericError, match="^accel is not finite at sample 100$"):
            run_filter(model, system, window, init, noise, BENCH_PARAMS)

    def test_non_finite_force_named_before_filtering(self):
        system = build_duffing_2dof()
        model = to_state_space(system, (1, 2))
        window = self.make_window(system, to_state_space(system), duration=0.2)
        window.force = window.force.copy()
        window.force[40, 1] = np.inf
        init = GaussianBelief(mean=np.zeros(6), cov=np.eye(6))
        noise = NoiseModel(q=build_process_noise(model, 1e-3), r=np.eye(2) * 1e-6)
        with pytest.raises(NumericError, match="^force is not finite at sample 40$"):
            run_filter(model, system, window, init, noise, BENCH_PARAMS)

    def test_non_finite_time_fails_the_grid_check(self):
        # the grid is checked first, as dt comes from it
        system = build_duffing_2dof()
        model = to_state_space(system, (1, 2))
        window = self.make_window(system, to_state_space(system), duration=0.2)
        window.times = window.times.copy()
        window.times[150] = np.nan
        init = GaussianBelief(mean=np.zeros(6), cov=np.eye(6))
        noise = NoiseModel(q=build_process_noise(model, 1e-3), r=np.eye(2) * 1e-6)
        with pytest.raises(InvalidParameterError, match="uniform grid"):
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
