"""Kernels, marginal likelihood, training, prediction, tracking."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mdoftwin.errors import InvalidParameterError, TrainingError
from mdoftwin import gpr
from mdoftwin.gpr import (FAMILY_MATERN52, FAMILY_SE, GpModel, GpTrainConfig,
                          Kernel, negative_log_marginal_likelihood, predict,
                          track_parameters, train)

DECAY_RATE = 0.5e-4


def decay_samples(k0=1000.0, spacing=50.0, horizon=2000.0):
    tau = np.arange(0.0, horizon + spacing / 2, spacing)
    return tau, k0 * np.exp(-DECAY_RATE * tau)


class TestKernel:
    @pytest.mark.parametrize("family", [FAMILY_SE, FAMILY_MATERN52])
    def test_gram_psd_random_sets(self, family):
        rng = np.random.default_rng(3)
        for size in (2, 5, 20, 80, 200):
            x = np.sort(rng.uniform(-50.0, 50.0, size))
            kern = Kernel(family=family, variance=rng.uniform(0.1, 10.0),
                          lengthscale=rng.uniform(0.1, 30.0))
            gram = kern.gram(x)
            gram[np.diag_indices(size)] += 1e-10
            eigs = np.linalg.eigvalsh(gram)
            assert eigs.min() > -1e-12

    def test_se_values(self):
        kern = Kernel(variance=4.0, lengthscale=2.0)
        assert kern.cross([0.0], [0.0])[0, 0] == pytest.approx(4.0)
        assert kern.cross([0.0], [2.0])[0, 0] == pytest.approx(4.0 * math.exp(-0.5))

    def test_matern_values(self):
        kern = Kernel(family=FAMILY_MATERN52, variance=1.0, lengthscale=1.0)
        assert kern.cross([0.0], [0.0])[0, 0] == pytest.approx(1.0)
        u = math.sqrt(5.0)
        expected = (1.0 + u + u * u / 3.0) * math.exp(-u)
        assert kern.cross([0.0], [1.0])[0, 0] == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            Kernel(family="cauchy")
        with pytest.raises(InvalidParameterError):
            Kernel(variance=-1.0)
        with pytest.raises(InvalidParameterError):
            Kernel(lengthscale=math.nan)


class TestLikelihoodGradient:
    @pytest.mark.parametrize("family", [FAMILY_SE, FAMILY_MATERN52])
    @pytest.mark.parametrize("mean_spec", ["zero", "constant"])
    def test_gradient_matches_central_differences(self, family, mean_spec):
        rng = np.random.default_rng(11)
        x = np.sort(rng.uniform(-2.0, 2.0, 25))
        v = np.sin(x) + 0.1 * rng.standard_normal(25) + 0.5
        floor = np.abs(rng.normal(0.0, 0.01, 25))
        for _ in range(5):
            theta = rng.uniform(-1.5, 1.5, 3)
            _, grad = negative_log_marginal_likelihood(
                theta, x, v, family, mean_spec, floor)
            h = 1e-6
            for i in range(3):
                step = np.zeros(3)
                step[i] = h
                up, _ = negative_log_marginal_likelihood(
                    theta + step, x, v, family, mean_spec, floor)
                dn, _ = negative_log_marginal_likelihood(
                    theta - step, x, v, family, mean_spec, floor)
                fd = (up - dn) / (2.0 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestTrain:
    def test_constant_targets(self):
        tau = np.arange(0.0, 500.0, 50.0)
        v = np.full(tau.shape, 321.5)
        model = train(tau, v, GpTrainConfig(mean_spec="zero", seed=1))
        pred = predict(model, [25.0, 125.0, 400.0])
        np.testing.assert_allclose(pred.mean, 321.5, rtol=1e-6)

    def test_decay_leave_one_out_oracle(self):
        # refit-and-predict cross validation, independent of the fast path
        tau, v = decay_samples()
        cfg = GpTrainConfig(n_restarts=3, seed=7)
        errors = []
        for i in range(tau.shape[0]):
            keep = np.ones(tau.shape[0], dtype=bool)
            keep[i] = False
            model = train(tau[keep], v[keep], cfg)
            pred = predict(model, [tau[i]])
            errors.append(pred.mean[0] - v[i])
        rmse = float(np.sqrt(np.mean(np.square(errors))))
        assert rmse < 0.005 * 1000.0

    def test_target_scaling_equivariance(self):
        tau, v = decay_samples()
        cfg = GpTrainConfig(seed=3)
        m1 = train(tau, v, cfg)
        m2 = train(tau, 2.0 * v, cfg)
        # standardized hyperparameters agree; raw variance quadruples
        assert m2.kernel.lengthscale == pytest.approx(m1.kernel.lengthscale,
                                                      rel=1e-6)
        assert m2.kernel.variance == pytest.approx(m1.kernel.variance, rel=1e-6)
        assert m2.kernel.variance * m2.target_scale ** 2 == pytest.approx(
            4.0 * m1.kernel.variance * m1.target_scale ** 2, rel=1e-6)
        assert m2.kernel.lengthscale * m2.input_scale == pytest.approx(
            m1.kernel.lengthscale * m1.input_scale, rel=1e-6)

    def test_reproducibility(self):
        tau, v = decay_samples()
        rng = np.random.default_rng(17)
        noisy = v + rng.normal(0.0, 2.0, v.shape)
        cfg = GpTrainConfig(seed=23)
        m1 = train(tau, noisy, cfg)
        m2 = train(tau, noisy, cfg)
        assert m1.kernel.lengthscale == m2.kernel.lengthscale
        assert m1.kernel.variance == m2.kernel.variance
        assert m1.noise_variance == m2.noise_variance

    @pytest.mark.parametrize("family", [FAMILY_SE, FAMILY_MATERN52])
    @pytest.mark.parametrize("mean_spec", ["zero", "constant"])
    @pytest.mark.parametrize("with_floor", [False, True])
    def test_nlml_is_the_likelihood_at_the_trained_hyperparameters(
            self, family, mean_spec, with_floor):
        tau, v = decay_samples(spacing=100.0)
        v = v + np.random.default_rng(37).normal(0.0, 2.0, v.shape)
        floor = np.full(tau.shape, 4.0) if with_floor else None
        cfg = GpTrainConfig(kernel_family=family, mean_spec=mean_spec, n_restarts=2, seed=8)
        model = train(tau, v, cfg, noise_floor=floor)
        log_theta = np.log([model.kernel.lengthscale, model.kernel.variance,
                            model.noise_variance])
        value, _ = negative_log_marginal_likelihood(
            log_theta, (tau - model.input_shift) / model.input_scale,
            (v - model.target_shift) / model.target_scale, family, mean_spec,
            None if floor is None else floor / model.target_scale ** 2)
        assert value == pytest.approx(model.nlml, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            train([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(InvalidParameterError):
            train([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(InvalidParameterError):
            train([0.0, 2.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(InvalidParameterError):
            train([0.0, math.nan, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(InvalidParameterError):
            train([0.0, 1.0, 2.0], [1.0, math.inf, 3.0])
        with pytest.raises(InvalidParameterError):
            train([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], noise_floor=[0.0, math.nan, 0.0])

    def test_all_restarts_failing_raises_training_error(self, monkeypatch):
        def exploding(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(gpr, "minimize", exploding)
        tau, v = decay_samples()
        with pytest.raises(TrainingError):
            train(tau, v)


class TestPredict:
    def fixed_model(self, noise=0.0, mean_spec="zero"):
        x = np.array([0.0, 1.0, 2.5, 4.0])
        v = np.array([1.0, -0.5, 0.3, 2.0])
        return GpModel(kernel=Kernel(variance=2.0, lengthscale=1.2),
                       mean_spec=mean_spec, noise_variance=noise,
                       train_inputs=x, train_targets=v)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_query_rejected(self, bad):
        with pytest.raises(InvalidParameterError, match="finite"):
            predict(self.fixed_model(mean_spec="constant"), [1.0, bad])

    @pytest.mark.parametrize("field", ["train_targets", "noise_floor", "target_shift"])
    def test_non_finite_model_rejected(self, field):
        model = self.fixed_model(noise=0.1)
        bad = {"train_targets": [1.0, math.nan, 0.3, 2.0],
               "noise_floor": [0.0, 0.0, math.inf, 0.0], "target_shift": math.nan}
        with pytest.raises(InvalidParameterError, match="finite"):
            replace(model, **{field: bad[field]})

    def test_noise_free_interpolation(self):
        model = self.fixed_model(noise=0.0)
        pred = predict(model, model.train_inputs)
        np.testing.assert_allclose(pred.mean, model.train_targets,
                                   rtol=1e-6, atol=1e-6)
        assert np.all(pred.variance < 1e-6 * model.kernel.variance)

    def test_prior_variance_recovery_far_from_data(self):
        model = self.fixed_model(noise=0.0, mean_spec="zero")
        far = np.array([4.0 + 10.0 * 1.2, -20.0])
        pred = predict(model, far)
        np.testing.assert_allclose(pred.variance, model.kernel.variance,
                                   rtol=0.01)
        np.testing.assert_allclose(pred.mean, 0.0, atol=1e-6)

    def test_variance_at_training_below_noise(self):
        model = self.fixed_model(noise=1e-3)
        pred = predict(model, model.train_inputs)
        assert np.all(pred.variance <= 1e-3 + 1e-9)

    def test_variance_monotone_toward_data(self):
        model = self.fixed_model(noise=1e-4)
        # moving away from the training block, uncertainty grows
        queries = np.array([4.0, 5.0, 6.0, 8.0, 12.0])
        pred = predict(model, queries)
        assert np.all(np.diff(pred.variance) > 0.0)

    def test_posterior_mean_linear_in_targets(self):
        x = np.linspace(0.0, 5.0, 8)
        rng = np.random.default_rng(29)
        v1 = rng.normal(size=8)
        v2 = rng.normal(size=8)
        kern = Kernel(variance=1.5, lengthscale=0.8)

        def fixed(v):
            return GpModel(kernel=kern, mean_spec="constant",
                           noise_variance=1e-2, train_inputs=x,
                           train_targets=v)

        q = np.linspace(-1.0, 6.0, 13)
        p1 = predict(fixed(v1), q)
        p2 = predict(fixed(v2), q)
        p12 = predict(fixed(v1 + v2), q)
        np.testing.assert_allclose(p12.mean, p1.mean + p2.mean,
                                   rtol=1e-9, atol=1e-9)

    def test_variance_nonnegative_everywhere(self):
        tau, v = decay_samples()
        model = train(tau, v, GpTrainConfig(seed=5))
        q = np.linspace(-500.0, 5000.0, 400)
        pred = predict(model, q)
        assert np.all(pred.variance >= 0.0)

    def test_confidence_band(self):
        model = self.fixed_model(noise=1e-2)
        pred = predict(model, [1.7])
        lo, hi = pred.confidence_band
        half = 1.959963984540054 * pred.stddev
        np.testing.assert_allclose(hi - pred.mean, half)
        np.testing.assert_allclose(pred.mean - lo, half)

    def test_gls_correction_inflates_constant_mean_variance(self):
        zero = self.fixed_model(noise=1e-3, mean_spec="zero")
        const = self.fixed_model(noise=1e-3, mean_spec="constant")
        far = np.array([50.0])
        assert predict(const, far).variance[0] > predict(zero, far).variance[0]

    def test_decay_extrapolation(self):
        # clean decay observed to day 1500, queried at day 2000
        tau, v = decay_samples(horizon=1500.0)
        model = train(tau, v, GpTrainConfig(seed=2))
        pred = predict(model, [2000.0])
        truth = 1000.0 * math.exp(-DECAY_RATE * 2000.0)
        assert abs(pred.mean[0] - truth) < 0.02 * truth


class TestTrackParameters:
    def test_one_model_per_column(self):
        tau = np.arange(0.0, 2000.0, 50.0)
        values = np.column_stack([1000.0 * np.exp(-DECAY_RATE * tau),
                                  500.0 * np.exp(-DECAY_RATE * tau)])
        models = track_parameters(tau, values, config=GpTrainConfig(seed=1))
        assert len(models) == 2
        assert all(isinstance(m, GpModel) for m in models)

    def test_frozen_constant_series(self):
        tau = np.arange(0.0, 1000.0, 50.0)
        values = np.full((tau.shape[0], 1), 1000.0)
        model = track_parameters(tau, values, config=GpTrainConfig(seed=4))[0]
        pred = predict(model, [200.0, 975.0, 1200.0])
        np.testing.assert_allclose(pred.mean, 1000.0, rtol=1e-3)

    def test_self_correction_beats_last_window(self):
        # noisy series whose final window is an outlier: the smoothed GP
        # lands closer to the truth than the raw terminal estimate
        rng = np.random.default_rng(31)
        tau = np.arange(0.0, 2050.0, 50.0)
        truth = 1000.0 * np.exp(-DECAY_RATE * tau)
        noise = rng.normal(0.0, 3.0, tau.shape[0])
        noise[-1] = 25.0
        values = truth + noise
        stds = np.full(tau.shape, 5.0)
        model = track_parameters(
            tau, values[:, None], stds[:, None],
            GpTrainConfig(seed=6, use_stddev_floor=True))[0]
        pred = predict(model, [tau[-1]])
        gp_err = abs(pred.mean[0] - truth[-1])
        raw_err = abs(values[-1] - truth[-1])
        assert gp_err < raw_err

    def test_noise_floor_requires_matching_shape(self):
        tau = np.arange(0.0, 500.0, 50.0)
        values = np.ones((tau.shape[0], 1))
        with pytest.raises(InvalidParameterError):
            track_parameters(tau, values, np.ones((3, 1)),
                             GpTrainConfig(use_stddev_floor=True))

    def test_too_few_windows(self):
        with pytest.raises(InvalidParameterError):
            track_parameters([0.0, 50.0], np.ones((2, 1)))

