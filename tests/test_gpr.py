"""Kernels, marginal likelihood, training, prediction, tracking."""

import json
import logging
import math
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from conftest import (assert_matches_reference, assert_same_bytes, first_predict,
                      first_stack, nlml_of_one, reference_kernel, reference_nlml,
                      scipy_minimize, scipy_train)
from mdoftwin.errors import InvalidParameterError, TrainingError
from mdoftwin import gpr
from mdoftwin.gpr import (FAMILY_MATERN52, FAMILY_SE, GpModel, GpTrainConfig,
                          Kernel, _kernel, predict, stack, track_parameters, train)
from mdoftwin.models import build_duffing_2dof
from mdoftwin.twin import CampaignConfig, TwinSnapshot, new_snapshot

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
            gram = _kernel(family, rng.uniform(0.1, 10.0), rng.uniform(0.1, 30.0),
                           x[:, None], x)
            gram[np.diag_indices(size)] += 1e-10
            eigs = np.linalg.eigvalsh(gram)
            assert eigs.min() > -1e-12

    def test_se_values(self):
        k = _kernel(FAMILY_SE, 4.0, 2.0, np.array([[0.0]]), np.array([0.0, 2.0]))
        assert k[0, 0] == pytest.approx(4.0)
        assert k[0, 1] == pytest.approx(4.0 * math.exp(-0.5))

    def test_matern_values(self):
        k = _kernel(FAMILY_MATERN52, 1.0, 1.0, np.array([[0.0]]), np.array([0.0, 1.0]))
        assert k[0, 0] == pytest.approx(1.0)
        u = math.sqrt(5.0)
        expected = (1.0 + u + u * u / 3.0) * math.exp(-u)
        assert k[0, 1] == pytest.approx(expected)

    @pytest.mark.parametrize("family", [FAMILY_SE, FAMILY_MATERN52])
    def test_stacked_evaluation_equals_each_model_bit_for_bit(self, family):
        # array-valued hyperparameters and a leading model axis broadcast
        rng = np.random.default_rng(5)
        a, b = rng.uniform(-3.0, 3.0, (3, 7)), rng.uniform(-3.0, 3.0, (3, 4))
        variance, lengthscale = rng.uniform(0.1, 10.0, 3), rng.uniform(0.1, 5.0, 3)
        stacked = _kernel(family, variance[:, None, None], lengthscale[:, None, None],
                          a[:, :, None], b[:, None, :])
        assert stacked.shape == (3, 7, 4)
        for j in range(3):
            np.testing.assert_array_equal(
                stacked[j], _kernel(family, variance[j], lengthscale[j], a[j][:, None], b[j]))

    @pytest.mark.parametrize("with_grad", [False, True])
    @pytest.mark.parametrize("family", [FAMILY_SE, FAMILY_MATERN52])
    def test_equals_the_formula_on_the_absolute_distance_bit_for_bit(self, family, with_grad):
        # the in-place kernel, on a stack and on one model, against the
        # formula as first written; the SE kernel squares the signed distance
        rng = np.random.default_rng(13)
        a, b = rng.uniform(-3.0, 3.0, (4, 9)), rng.uniform(-3.0, 3.0, (4, 5))
        variance, lengthscale = rng.uniform(0.1, 10.0, 4), rng.uniform(0.1, 5.0, 4)
        for args, reference_args in (
                ((variance[:, None, None], lengthscale[:, None, None], a[:, :, None],
                  b[:, None, :]), (variance[:, None, None], lengthscale[:, None, None], a, b)),
                ((variance[0], lengthscale[0], a[0][:, None], a[0]),
                 (variance[0], lengthscale[0], a[0], a[0])),
                ((variance[:, None, None], lengthscale[:, None, None], a[0][:, None], a[0]),
                 (variance[:, None, None], lengthscale[:, None, None], a[0], a[0]))):
            got = _kernel(family, *args, with_grad=with_grad)
            want = reference_kernel(family, *reference_args, with_grad=with_grad)
            for got_part, want_part in zip(*(
                    (x,) if not with_grad else x for x in (got, want))):
                assert got_part.tobytes() == want_part.tobytes()

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
            _, grad = nlml_of_one(
                theta, x, v, family, mean_spec, floor)
            h = 1e-6
            for i in range(3):
                step = np.zeros(3)
                step[i] = h
                up, _ = nlml_of_one(
                    theta + step, x, v, family, mean_spec, floor)
                dn, _ = nlml_of_one(
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

    def test_training_data_always_standardized(self):
        tau, v = decay_samples()
        model = train(tau, v, GpTrainConfig(seed=3))
        assert model.input_shift == float(np.mean(tau))
        assert model.input_scale == float(np.std(tau))
        assert model.target_shift == float(np.mean(v))
        assert model.target_scale == float(np.std(v))
        np.testing.assert_array_equal(model.train_inputs, tau)
        np.testing.assert_array_equal(model.train_targets, v)
        # constant targets have no spread to divide by: the scale stays 1
        flat = train(tau, np.full(tau.shape, 7.0), GpTrainConfig(seed=3))
        assert (flat.target_shift, flat.target_scale) == (7.0, 1.0)

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
        value, _ = nlml_of_one(
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
        # a Kt that never factors scores the penalty at every start
        def exploding(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(gpr, "cho_factor", exploding)
        tau, v = decay_samples()
        with pytest.raises(TrainingError):
            train(tau, v)
        with pytest.raises(TrainingError, match="parameter column 0"):
            track_parameters(tau, np.column_stack([v, v]))


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("lengthscale_range", (0.0, 1.0)), ("variance_range", (-1.0, 2.0)),
        ("noise_range", (math.nan, 1.0)), ("lengthscale_range", (1e-2, math.inf)),
        ("variance_range", (1.0, math.nan)), ("noise_range", (1e-8,)),
        ("eps_tol", -1e-9), ("eps_tol", math.nan), ("eps_tol", math.inf),
        ("n_restarts", 0), ("n_restarts", 2.5), ("n_max", 2.5), ("n_max", True)])
    def test_invalid_search_settings_rejected(self, field, value):
        # at construction, not in train after a whole window was filtered;
        # a count of 2.5 restarts used to end train in a raw TypeError
        with pytest.raises(InvalidParameterError, match=field):
            GpTrainConfig(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # train raised numpy's ValueError for a negative seed
        with pytest.raises(InvalidParameterError,
                           match=r"^seed must be a non-negative integer, got "):
            GpTrainConfig(seed=seed)
        assert GpTrainConfig(seed=np.int64(4)).seed == 4

    def test_rejected_when_read_from_a_document(self):
        with pytest.raises(InvalidParameterError, match="variance_range"):
            GpTrainConfig.from_dict({"variance_range": [-1.0, 2.0]})

    def test_extreme_valid_settings_accepted(self):
        cfg = GpTrainConfig(eps_tol=0.0, lengthscale_range=(5e-324, 1e308),
                            noise_range=(1.0, 1e-8))
        assert GpTrainConfig.from_dict(cfg.to_dict()) == cfg


def same_model(model, oracle):
    """Every GpModel field, serialized, equal to the oracle's."""
    return json.dumps(model.to_dict()) == json.dumps(oracle.to_dict())


def tracked_history(n_points, n_columns, seed):
    """A decaying, noisy history of J stiffness columns and their stds."""
    rng = np.random.default_rng(seed)
    tau = np.linspace(0.0, 50.0 * (n_points - 1), n_points)
    scale = rng.uniform(0.5, 1.5, n_columns)
    values = 1000.0 * np.exp(-DECAY_RATE * tau)[:, None] * scale
    values = values + rng.normal(0.0, 3.0, values.shape)
    return tau, values, rng.uniform(0.5, 5.0, values.shape)


def assert_trains_as_scipy(tau, values, stddevs, cfg):
    models = track_parameters(tau, values, stddevs, cfg)
    floors = stddevs ** 2 if cfg.use_stddev_floor else None
    for j, model in enumerate(models):
        oracle = scipy_train(tau, values[:, j], cfg, None if floors is None else floors[:, j])
        assert same_model(model, oracle), f"column {j}"


class TestLockstepTraining:
    """Every restart of every column in lockstep against one scipy
    ``minimize`` per restart on the likelihood as first written: the same
    models, bit for bit. This also guards the private ``setulb`` interface
    the driver steps."""

    @pytest.mark.parametrize("n_points, n_columns", [
        (3, 1), (3, 2), (3, 6), (8, 1), (8, 2), (8, 6), (41, 1), (41, 2), (41, 6)])
    @pytest.mark.parametrize("with_floor", [False, True])
    @pytest.mark.parametrize("mean_spec", ["zero", "constant"])
    @pytest.mark.parametrize("family", [FAMILY_SE, FAMILY_MATERN52])
    def test_equals_scipy_minimize(self, family, mean_spec, with_floor, n_points, n_columns):
        tau, values, stddevs = tracked_history(n_points, n_columns, seed=n_points + n_columns)
        cfg = GpTrainConfig(kernel_family=family, mean_spec=mean_spec,
                            use_stddev_floor=with_floor, seed=n_points)
        assert_trains_as_scipy(tau, values, stddevs, cfg)

    @pytest.mark.parametrize("family", [FAMILY_SE, FAMILY_MATERN52])
    def test_restarts_that_hit_the_penalty(self, family, monkeypatch):
        # long lengthscales, large variances and tiny noise: some steps
        # land where Kt does not factor and score the penalty
        scores = []
        likelihoods = gpr.negative_log_marginal_likelihood

        def spy(*args):
            values, grads = likelihoods(*args)
            scores.extend(values)
            return values, grads

        monkeypatch.setattr(gpr, "negative_log_marginal_likelihood", spy)
        tau, values, stddevs = tracked_history(41, 3, seed=2)
        cfg = GpTrainConfig(kernel_family=family, n_restarts=10, seed=3,
                            lengthscale_range=(1e1, 1e7), variance_range=(1e2, 1e7),
                            noise_range=(1e-12, 1e-6))
        assert_trains_as_scipy(tau, values, stddevs, cfg)
        assert 0 < scores.count(1e25) < len(scores)

    @pytest.mark.parametrize("change", [
        dict(n_max=1), dict(n_max=3), dict(eps_tol=0.0), dict(eps_tol=10.0),
        dict(lengthscale_range=(1e-9, 1e9), noise_range=(1e-14, 1e3)), dict(n_restarts=1),
    ], ids=["one-iteration", "three-iterations", "no-halt", "halt-at-once",
            "starts-outside-the-box", "one-restart"])
    def test_stopping_rules(self, change):
        tau, values, stddevs = tracked_history(20, 2, seed=4)
        assert_trains_as_scipy(tau, values, stddevs,
                               GpTrainConfig(use_stddev_floor=True, seed=5, **change))

    @pytest.mark.parametrize("eps_tol, max_iter", [
        (1e-6, 500), (0.0, 500), (1.0, 500), (1e-6, 1), (1e-6, 3)])
    def test_each_run_equals_its_minimize(self, eps_tol, max_iter):
        # one run per start, starts inside, on and outside the box, stepped
        # by hand as the lockstep driver steps it
        x = np.linspace(-1.6, 1.6, 15)
        v = np.cos(2.0 * x) + np.random.default_rng(8).normal(0.0, 0.1, 15)

        def objective(log_theta):
            return nlml_of_one(log_theta, x, v, FAMILY_SE, "constant")

        for x0 in ([0.0, 0.0, math.log(1e-2)], [1.0, -2.0, -3.0], [16.0, -16.0, -2.0],
                   [20.0, -18.0, 6.0], [-0.5, 17.0, -40.0]):
            x0 = np.array(x0)
            run = gpr._LbfgsbRun(x0, eps_tol, max_iter)
            while True:
                run.serve(*objective(run.x.copy()))
                if not run.advance():
                    break
            result = scipy_minimize(objective, x0, eps_tol, max_iter)
            np.testing.assert_array_equal(run.x, result.x)
            assert (run.f, run.n_iterations, run.n_evaluations) == (
                result.fun, result.nit, result.nfev)

    def test_train_is_the_one_column_case(self):
        tau, values, stddevs = tracked_history(12, 3, seed=6)
        cfg = GpTrainConfig(seed=2, use_stddev_floor=True)
        models = track_parameters(tau, values, stddevs, cfg)
        for j, model in enumerate(models):
            assert same_model(train(tau, values[:, j], cfg, stddevs[:, j] ** 2), model)

    @pytest.mark.parametrize("with_floor", [False, True])
    @pytest.mark.parametrize("mean_spec", ["zero", "constant"])
    @pytest.mark.parametrize("family", [FAMILY_SE, FAMILY_MATERN52])
    def test_likelihood_equals_the_reference_bit_for_bit(self, family, mean_spec, with_floor):
        rng = np.random.default_rng(13)
        x = np.sort(rng.uniform(-2.0, 2.0, 17))
        v = np.sin(x) + 0.1 * rng.standard_normal(17)
        floor = np.abs(rng.normal(0.0, 0.01, 17)) if with_floor else None
        for theta in rng.uniform(-2.0, 2.0, (5, 3)):
            value, grad = nlml_of_one(theta, x, v, family, mean_spec, floor)
            expected, expected_grad = reference_nlml(theta, x, v, family, mean_spec, floor)
            assert value == expected
            np.testing.assert_array_equal(grad, expected_grad)

    def test_likelihood_of_a_singular_kt_is_the_penalty(self):
        # noise and jitter far below the rounding of a huge, flat Gram matrix
        x = np.linspace(-1.0, 1.0, 20)
        theta = np.array([16.0, 16.0, math.log(1e-12)])
        with pytest.raises(np.linalg.LinAlgError):
            reference_nlml(theta, x, np.sin(x), FAMILY_SE, "constant")
        value, grad = nlml_of_one(theta, x, np.sin(x), FAMILY_SE, "constant")
        assert value == 1e25
        np.testing.assert_array_equal(grad, np.zeros(3))


class TestPredict:
    def fixed_model(self, noise=0.0, mean_spec="zero"):
        x = np.array([0.0, 1.0, 2.5, 4.0])
        v = np.array([1.0, -0.5, 0.3, 2.0])
        return GpModel(kernel=Kernel(variance=2.0, lengthscale=1.2),
                       mean_spec=mean_spec, noise_variance=noise,
                       train_inputs=x, train_targets=v)

    @pytest.mark.parametrize("name, value", [
        ("kernel", Kernel(variance=2.0, lengthscale=3.6)), ("train_targets", np.zeros(4)),
        ("noise_variance", 0.5), ("target_shift", 10.0), ("noise_floor", np.ones(4)),
        ("beta", 1.0), ("_stack", None)])
    def test_model_is_frozen(self, name, value):
        # an assigned field used to leave the stack derived on construction
        # stale: predict kept the old posterior
        model = self.fixed_model(noise=1e-3, mean_spec="constant")
        before = predict(model, [0.5, 3.0])
        with pytest.raises(FrozenInstanceError):
            setattr(model, name, value)
        assert_same_bytes(predict(model, [0.5, 3.0]), before)

    def test_replace_rebuilds_the_stack(self):
        model = self.fixed_model(noise=1e-3, mean_spec="constant")
        kernel = Kernel(variance=2.0, lengthscale=3.6)
        query = np.array([0.5, 3.0, 6.0])
        changed = replace(model, kernel=kernel)
        rebuilt = GpModel(kernel=kernel, mean_spec="constant", noise_variance=1e-3,
                          train_inputs=model.train_inputs, train_targets=model.train_targets)
        assert_same_bytes(predict(changed, query), predict(rebuilt, query))
        assert_matches_reference(predict(changed, query), changed, query)
        assert not np.array_equal(predict(changed, query).mean, predict(model, query).mean)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_query_rejected(self, bad):
        with pytest.raises(InvalidParameterError, match="finite"):
            predict(self.fixed_model(mean_spec="constant"), [1.0, bad])

    def test_query_matrix_rejected(self):
        with pytest.raises(InvalidParameterError, match="vector"):
            predict(self.fixed_model(), [[1.0, 2.0]])

    @pytest.mark.parametrize("field", ["train_targets", "noise_floor", "target_shift"])
    def test_non_finite_model_rejected(self, field):
        model = self.fixed_model(noise=0.1)
        bad = {"train_targets": [1.0, math.nan, 0.3, 2.0],
               "noise_floor": [0.0, 0.0, math.inf, 0.0], "target_shift": math.nan}
        with pytest.raises(InvalidParameterError, match="finite"):
            replace(model, **{field: bad[field]})

    @pytest.mark.parametrize("mean_spec", ["Constant", "linear", ""])
    def test_unknown_mean_spec_rejected(self, mean_spec):
        # a model of another mean_spec used to build and load, and predicted
        # with a zero mean: "Constant" gave 7.2e-6 for 1.0856 at t = 10
        with pytest.raises(InvalidParameterError, match="^mean_spec must be"):
            self.fixed_model(noise=1e-3, mean_spec=mean_spec)
        doc = self.fixed_model(noise=1e-3, mean_spec="constant").to_dict()
        with pytest.raises(InvalidParameterError, match=r"^GpModel\.mean_spec must be"):
            GpModel.from_dict({**doc, "mean_spec": mean_spec})

    def test_negative_noise_floor_rejected(self, tmp_path):
        # gpr.train rejects a negative floor; a model built or loaded with
        # one had a predictive variance below zero at its own inputs
        fields = dict(kernel=Kernel(), mean_spec="zero", noise_variance=0.0,
                      train_inputs=[0.0, 5.0, 10.0], train_targets=[1.0, 2.0, 0.5], nlml=0.0)
        message = r"noise_floor must be non-negative per point, got \[-0.4, -0.4, -0.4\]$"
        with pytest.raises(InvalidParameterError, match="^" + message):
            GpModel(**fields, noise_floor=[-0.4] * 3)
        snap = new_snapshot(build_duffing_2dof(), CampaignConfig())
        snap.gp_models = {"k1": GpModel(**fields, noise_floor=[0.4] * 3)}
        path = tmp_path / "snap.json"
        snap.save(path)
        doc = json.loads(path.read_text())
        doc["gp_models"]["k1"]["noise_floor"] = [-0.4] * 3
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidParameterError,
                           match=r"^TwinSnapshot\.gp_models\.k1\." + message):
            TwinSnapshot.load(path)

    @pytest.mark.parametrize("family", [FAMILY_SE, FAMILY_MATERN52])
    def test_prediction_path_skips_the_gradient_bit_for_bit(self, family, monkeypatch):
        # the stacked query path evaluates K alone; the likelihood's
        # K-and-gradient evaluation must give the same predictions to the bit
        tau, v = decay_samples(spacing=100.0)
        values = np.column_stack([v, 0.5 * v, v[::-1]])
        models = track_parameters(
            tau, values, config=GpTrainConfig(kernel_family=family, n_restarts=2, seed=4))
        stacked = stack(models)
        query = np.linspace(-100.0, 3000.0, 41)
        kernel = gpr._kernel
        asked_for_gradient = []

        def spy(*args, with_grad=False):
            asked_for_gradient.append(with_grad)
            return kernel(*args, with_grad=with_grad)

        monkeypatch.setattr(gpr, "_kernel", spy)
        lean = predict(stacked, query)
        assert asked_for_gradient == [False]

        def with_gradient(*args, with_grad=False):
            k, dk = kernel(*args, with_grad=True)
            return (k, dk) if with_grad else k

        monkeypatch.setattr(gpr, "_kernel", with_gradient)
        full = predict(stacked, query)
        np.testing.assert_array_equal(lean.mean, full.mean)
        np.testing.assert_array_equal(lean.variance, full.variance)

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


def trained_set(family, mean_spec, with_floor, n_points):
    """Three GPs trained together on one history, as a twin trains them."""
    rng = np.random.default_rng(n_points)
    tau = np.linspace(0.0, 50.0 * (n_points - 1), n_points)
    decay = 1000.0 * np.exp(-DECAY_RATE * tau)
    values = decay[:, None] * [1.0, 0.5, 0.8] + rng.normal(0.0, 3.0, (n_points, 3))
    cfg = GpTrainConfig(kernel_family=family, mean_spec=mean_spec, n_restarts=2,
                        seed=9, use_stddev_floor=with_floor)
    return tau, track_parameters(tau, values, np.full(values.shape, 2.0), cfg)


class TestStackedPrediction:
    @pytest.mark.parametrize("n_points", [3, 25])
    @pytest.mark.parametrize("with_floor", [False, True])
    @pytest.mark.parametrize("mean_spec", ["zero", "constant"])
    @pytest.mark.parametrize("family", [FAMILY_SE, FAMILY_MATERN52])
    def test_matches_the_per_model_oracle(self, family, mean_spec, with_floor, n_points):
        tau, models = trained_set(family, mean_spec, with_floor, n_points)
        stacked = stack(models)
        dense = np.sort(np.concatenate([tau, np.linspace(-200.0, 3000.0, 200)]))
        for query in ([1234.5], dense):
            prediction = predict(stacked, query)
            assert prediction.mean.shape == (3, len(query))
            for j, model in enumerate(models):
                one = gpr.GpPrediction(prediction.inputs, prediction.mean[j],
                                       prediction.variance[j])
                assert_matches_reference(one, model, query)
                assert_matches_reference(predict(model, query), model, query)

    def test_mixed_mean_specs_stack(self):
        # a zero mean adds no GLS term beside a constant-mean neighbour
        models = [TestPredict().fixed_model(noise=1e-3, mean_spec=spec)
                  for spec in ("zero", "constant")]
        query = np.array([-3.0, 1.7, 50.0])
        prediction = predict(stack(models), query)
        for j, model in enumerate(models):
            assert_matches_reference(
                gpr.GpPrediction(query, prediction.mean[j], prediction.variance[j]),
                model, query)

    @pytest.mark.parametrize("field, other", [
        ("train_inputs", dict(train_inputs=[0.0, 1.0, 2.5], train_targets=[1.0, -0.5, 0.3])),
        ("kernel.family", dict(kernel=Kernel(family=FAMILY_MATERN52, variance=2.0,
                                             lengthscale=1.2))),
    ], ids=["length", "family"])
    def test_models_that_differ_cannot_be_stacked(self, field, other):
        model = TestPredict().fixed_model(noise=1e-3)
        with pytest.raises(InvalidParameterError, match=field):
            stack([model, replace(model, **other)])


def drawn_models(family, mean_spec, with_floor, n_points, n_models=6, seed=0):
    """GP models on one history, as a twin stacks them, with hyperparameters
    drawn instead of trained: noise variances down to e^-23 in standardized
    units, where training on short histories puts them. A draw whose Kt is
    not positive definite is drawn again."""
    rng = np.random.default_rng(seed)
    tau = np.cumsum(rng.uniform(20.0, 80.0, n_points))
    models = []
    while len(models) < n_models:
        targets = (rng.uniform(0.5, 1.5) * 1e6 * np.exp(-DECAY_RATE * tau)
                   + rng.normal(0.0, 300.0, n_points))
        try:
            models.append(GpModel(
                kernel=Kernel(family=family, variance=math.exp(rng.uniform(-2.0, 2.0)),
                              lengthscale=math.exp(rng.uniform(-2.0, 1.0))),
                mean_spec=mean_spec, noise_variance=math.exp(rng.uniform(-23.0, -1.0)),
                train_inputs=tau, train_targets=targets, input_shift=float(tau.mean()),
                input_scale=float(tau.std()), target_shift=float(targets.mean()),
                target_scale=float(targets.std()),
                noise_floor=rng.uniform(0.0, 1e4, n_points) if with_floor else None))
        except InvalidParameterError:
            continue
    return models


class TestQueryOracle:
    """The query path against the stacked query as first written
    (``conftest.first_predict``), byte for byte."""

    @pytest.mark.parametrize("n_points", [3, 14, 41])
    @pytest.mark.parametrize("with_floor", [False, True])
    @pytest.mark.parametrize("mean_spec", ["zero", "constant"])
    @pytest.mark.parametrize("family", [FAMILY_SE, FAMILY_MATERN52])
    def test_equals_the_first_query(self, family, mean_spec, with_floor, n_points):
        models = drawn_models(family, mean_spec, with_floor, n_points, seed=n_points)
        tau = models[0].train_inputs
        rng = np.random.default_rng(7)
        queries = [np.empty(0), rng.uniform(tau[-1], tau[-1] + 1000.0, 1),
                   np.array([tau[0], rng.uniform(tau[0] - 500.0, tau[-1] + 1500.0),
                             tau[-1], tau[-1] + 2000.0])]
        for query in queries:
            for n_models in (1, 2, 6):
                assert_same_bytes(predict(stack(models[:n_models]), query),
                                  first_predict(models[:n_models], query))
            assert_same_bytes(predict(models[0], query), first_predict(models[0], query))

    @pytest.mark.parametrize("query", [
        700.0, 700, True, np.float32(700.3), np.array([1.5, 700.25], dtype=np.float32),
        np.array(700.0), [700.0, 800.0], (900,)],
        ids=["float", "int", "bool", "float32", "float32-vector", "0-d", "list", "tuple"])
    def test_query_forms(self, query):
        models = drawn_models(FAMILY_SE, "constant", False, 14)
        assert_same_bytes(predict(stack(models), query), first_predict(models, query))
        assert_same_bytes(predict(models[0], query), first_predict(models[0], query))

    def test_empty_query(self):
        models = drawn_models(FAMILY_SE, "constant", True, 14)
        prediction = predict(stack(models), [])
        assert prediction.inputs.shape == (0,)
        assert prediction.mean.shape == prediction.variance.shape == (6, 0)
        one = predict(models[0], [])
        assert one.mean.shape == one.variance.shape == (0,)

    def test_clipped_variance_is_logged(self, caplog):
        # L^-1 and the GLS row under it inflated by 1% in both layouts: v^T v
        # grows by 2%, so at the training inputs the variance falls ~2% of
        # sigma^2 below zero
        models = drawn_models(FAMILY_SE, "constant", False, 14)
        stacked, oracle = stack(models), first_stack(models)
        inflated = replace(stacked, l_inv_gls=1.01 * stacked.l_inv_gls)
        oracle.l_inv_gls = 1.01 * oracle.l_inv_gls
        query = models[0].train_inputs
        with caplog.at_level(logging.WARNING, logger="mdoftwin.gpr"):
            prediction = predict(inflated, query)
        # one warning per model whose variance was clipped
        clipped = int((prediction.variance == 0.0).any(axis=1).sum())
        assert caplog.text.count("clipped negative predictive variance") == clipped >= 1
        assert (prediction.variance >= 0.0).all()
        assert_same_bytes(prediction, first_predict(oracle, query))

    @pytest.mark.parametrize(
        "query", [["a"], [object()], [1 + 2j], "x", np.array([1 + 2j]), np.array(1 + 2j),
                  "700", ["700", "800"], np.array(["700"]), [b"700"], b"700", [700.0, "800"],
                  None, np.array(["2020-01-01"], dtype="datetime64[D]")],
        ids=["string", "object", "complex", "bare-string", "complex-array", "complex-0d",
             "numeric-string", "numeric-strings", "numeric-string-array", "bytes-list",
             "bytes", "mixed", "none", "datetime"])
    def test_query_that_is_not_numbers_rejected(self, query):
        # a complex array used to lose its imaginary part behind numpy's
        # ComplexWarning, which fails here as an error; numeric strings and
        # bytes used to be read as the numbers they spell
        model = drawn_models(FAMILY_SE, "constant", False, 3, n_models=1)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for target in (model, stack([model])):
                with pytest.raises(InvalidParameterError, match="real numbers"):
                    predict(target, query)


class TestTrackParameters:
    def test_one_model_per_column(self):
        tau = np.arange(0.0, 2000.0, 50.0)
        values = np.column_stack([1000.0 * np.exp(-DECAY_RATE * tau),
                                  500.0 * np.exp(-DECAY_RATE * tau)])
        models = track_parameters(tau, values, config=GpTrainConfig(seed=1))
        assert len(models) == 2
        assert all(isinstance(m, GpModel) for m in models)

    def test_no_column_trains_no_model(self):
        assert track_parameters(np.arange(0.0, 500.0, 50.0), np.empty((10, 0))) == []

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

