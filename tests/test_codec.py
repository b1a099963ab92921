"""The field-derived codec: lossless typed round trips and strict documents."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import configuration, example, given, settings
from hypothesis import strategies as st

from mdoftwin import codec
from mdoftwin.codec import decode, write_json
from mdoftwin.errors import InvalidParameterError, NumericError
from mdoftwin.gpr import (FAMILY_MATERN52, FAMILY_SE, GpModel, GpTrainConfig,
                          Kernel, predict, train)
from mdoftwin.models import (DegradationSchedule, MdofSystem,
                             build_duffing_2dof, build_dvp_7dof)
from mdoftwin.sde import IntegratorConfig
from mdoftwin.twin import (CampaignConfig, TwinSnapshot, UkfRunConfig, WindowRecord,
                           new_snapshot)
from mdoftwin.ukf import UkfParams

from test_gpr import decay_samples


@pytest.fixture(autouse=True)
def hypothesis_home(tmp_path_factory):
    """Keep hypothesis's cache of source constants out of the source tree."""
    configuration.set_hypothesis_home_dir(tmp_path_factory.mktemp("hypothesis"))
    yield
    configuration.set_hypothesis_home_dir(None)


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def vectors(n, lo=1e-6, hi=1e6):
    return st.lists(floats(lo, hi), min_size=n, max_size=n)


positive = floats(1e-6, 1e6)
seeds = st.integers(0, 2 ** 32 - 1)
families = st.sampled_from([FAMILY_SE, FAMILY_MATERN52])
mean_specs = st.sampled_from(["zero", "constant"])

integrator_configs = st.builds(IntegratorConfig, dt=floats(1e-6, 1.0), seed=seeds)
ukf_params = st.builds(UkfParams, alpha_f=floats(1e-6, 1.0),
                       beta=floats(-10.0, 10.0), kappa=floats(-3.0, 10.0))
gp_configs = st.builds(
    GpTrainConfig, kernel_family=families, mean_spec=mean_specs,
    n_restarts=st.integers(1, 50), n_max=st.integers(1, 5000), eps_tol=positive,
    seed=seeds, use_stddev_floor=st.booleans(),
    lengthscale_range=st.tuples(positive, positive),
    variance_range=st.tuples(positive, positive),
    noise_range=st.tuples(positive, positive))
ukf_run_configs = st.builds(
    UkfRunConfig, params=ukf_params, init_offset_factor=positive,
    init_state_variance=positive, init_param_std_factor=positive,
    warm_param_std_factor=positive, frozen_param_std_factor=positive,
    q_scale=st.none() | positive,
    measurement_noise_std=st.none() | st.lists(positive, min_size=1, max_size=7).map(tuple))
campaign_configs = st.builds(
    CampaignConfig, horizon_days=floats(0.0, 1e4), window_interval_days=positive,
    window_duration_s=positive,
    observed_dofs=st.none() | st.lists(st.integers(1, 7), min_size=1, max_size=7,
                                       unique=True).map(tuple),
    snr_accel=positive, snr_force=positive,
    degradation_rate_per_day=floats(-1.0, 1.0), master_seed=seeds,
    integrator=integrator_configs, ukf=ukf_run_configs, gp=gp_configs)
schedules = st.integers(1, 7).flatmap(lambda n: st.builds(
    DegradationSchedule, k0=vectors(n), rate_per_day=floats(-1.0, 1.0),
    frozen_indices=st.sets(st.integers(1, n)).map(tuple)))


def system_fields(n):
    return dict(masses=vectors(n), stiffnesses=vectors(n),
                dampings=vectors(n, 0.0), force_amplitudes=vectors(n, -1e3, 1e3),
                force_frequencies=vectors(n, 0.0), noise_sigmas=vectors(n, 0.0),
                nonlinear_coeff=floats(-1e6, 1e6))


systems = (st.builds(build_duffing_2dof, **system_fields(2))
           | st.builds(build_dvp_7dof, symmetric_consistent=st.booleans(),
                       **system_fields(7)))


@st.composite
def gp_models(draw):
    n = draw(st.integers(3, 8))
    return GpModel(
        kernel=Kernel(family=draw(families), variance=draw(floats(0.1, 10.0)),
                      lengthscale=draw(floats(0.1, 10.0))),
        mean_spec=draw(mean_specs), noise_variance=draw(floats(1e-3, 1.0)),
        train_inputs=np.cumsum(draw(vectors(n, 0.5, 100.0))),
        train_targets=draw(vectors(n, -1e3, 1e3)),
        input_shift=draw(floats(-1e3, 1e3)), input_scale=draw(floats(1.0, 1e3)),
        target_shift=draw(floats(-1e3, 1e3)), target_scale=draw(floats(0.1, 1e3)),
        noise_floor=draw(st.none() | vectors(n, 0.0, 10.0)),
        nlml=draw(floats(-1e3, 1e3)))


def trained_gp() -> GpModel:
    tau, v = decay_samples()
    noisy = v + np.random.default_rng(41).normal(0.0, 2.0, v.shape)
    return train(tau, noisy, GpTrainConfig(seed=9), noise_floor=np.full(tau.shape, 4.0))


# strategy, then fixed examples: the inputs of the per-class round-trip
# tests this property replaces
CASES = {
    IntegratorConfig: (integrator_configs, lambda: [
        IntegratorConfig(dt=5e-4, seed=42)]),
    UkfParams: (ukf_params, list),
    UkfRunConfig: (ukf_run_configs, list),
    GpTrainConfig: (gp_configs, lambda: [GpTrainConfig(
        lengthscale_range=(0.5, 5.0), variance_range=(0.1, 10.0),
        noise_range=(1e-6, 0.5))]),
    CampaignConfig: (campaign_configs, lambda: [CampaignConfig(
        horizon_days=150.0, window_interval_days=50.0, window_duration_s=1.0,
        integrator=IntegratorConfig(dt=2e-3), master_seed=11,
        observed_dofs=(1,), snr_accel=30.0)]),
    DegradationSchedule: (schedules, lambda: [
        DegradationSchedule(k0=[1000.0, 500.0], frozen_indices=(1,))]),
    MdofSystem: (systems, lambda: [build_duffing_2dof(), build_dvp_7dof()]),
    GpModel: (gp_models(), lambda: [trained_gp()]),
}


def assert_same(a, b):
    """Field by field: equal values of the same type, arrays bit for bit."""
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    else:
        assert a == b


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_round_trip(cls):
    strategy, examples = CASES[cls]

    def check(x):
        doc = json.loads(json.dumps(x.to_dict()))
        again = cls.from_dict(doc)
        assert_same(again, x)
        assert again.to_dict() == doc
        if isinstance(x, GpModel):  # the factorization is rebuilt exactly
            q = np.linspace(x.train_inputs[0], x.train_inputs[-1] + 1000.0, 7)
            p1, p2 = predict(x, q), predict(again, q)
            np.testing.assert_array_equal(p1.mean, p2.mean)
            np.testing.assert_array_equal(p1.variance, p2.variance)

    for x in examples():
        check = example(x)(check)
    settings(derandomize=True, database=None, max_examples=25,
             deadline=None)(given(strategy)(check))()


@pytest.mark.parametrize("cls, doc, key", [
    (CampaignConfig, {"horizon_day": 100.0}, "horizon_day"),
    (CampaignConfig, {"ukf": {"params": {"alpha": 0.1}}}, "alpha"),
    (IntegratorConfig, {"dt": "fast"}, "dt"),
    (IntegratorConfig, {"seed": True}, "seed"),
    (GpTrainConfig, {"noise_range": [1e-8, 1.0, 2.0]}, "noise_range"),
    (TwinSnapshot, {"version": 3, "config": {}}, "system"),
    # keys the format no longer has are unknown, not ignored
    (IntegratorConfig, {"dt": 1e-3, "scheme": "taylor15"}, "scheme"),
    (GpTrainConfig, {"standardize": True}, "standardize"),
    (UkfRunConfig, {"q_extra_diag": 1e-4}, "q_extra_diag"),
    (TwinSnapshot, {"version": 3, "windows_processed": 0}, "windows_processed"),
], ids=["unknown", "nested-unknown", "type", "bool-as-int", "length", "missing",
        "dropped-scheme", "dropped-standardize", "dropped-q-extra-diag",
        "dropped-windows-processed"])
def test_strict_documents(cls, doc, key):
    with pytest.raises(InvalidParameterError, match=key):
        cls.from_dict(doc)


GP = GpModel(kernel=Kernel(), mean_spec="zero", noise_variance=0.1,
             train_inputs=[0.0, 1.0], train_targets=[0.0, 1.0])
SNAPSHOT = new_snapshot(build_duffing_2dof(), CampaignConfig())


# valid instance, field, value: each value was taken by the constructor
# (cast, read as a float or kept as a nested config) or ended in a raw
# TypeError, while from_dict refused it
@pytest.mark.parametrize("valid, field, value", [
    (CampaignConfig(), "observed_dofs", (1.5, 2)),
    (build_dvp_7dof(), "frozen_indices", (3.9,)),
    (DegradationSchedule(k0=[1000.0, 500.0]), "frozen_indices", (1.5,)),
    (GpTrainConfig(), "use_stddev_floor", "no"),
    (Kernel(), "variance", True),
    (GpTrainConfig(), "eps_tol", True),
    (GpTrainConfig(), "noise_range", (1e-8, True)),
    (GP, "noise_variance", True),
    (GP, "nlml", True),
    (CampaignConfig(), "gp", "x"),
    (UkfRunConfig(), "params", "x"),
    (SNAPSHOT, "schedule", "x"),
    (SNAPSHOT, "gp_trained_upto", math.nan),
    (GpTrainConfig(), "eps_tol", "1"),
    (GP, "noise_variance", "0.1"),
], ids=lambda x: type(x).__name__ if dataclasses.is_dataclass(x) else repr(x))
def test_constructor_refuses_what_from_dict_refuses(valid, field, value):
    with pytest.raises(InvalidParameterError, match=rf"\b{field}\b"):
        dataclasses.replace(valid, **{field: value})
    doc = {**valid.to_dict(), field: list(value) if isinstance(value, tuple) else value}
    with pytest.raises(InvalidParameterError, match=rf"\b{field}\b"):
        type(valid).from_dict(doc)


def test_constructors_take_numpy_scalars_as_python_scalars():
    assert_same(CampaignConfig(observed_dofs=(np.int64(1), np.int64(2)),
                               master_seed=np.int64(3), snr_accel=np.float32(30.0),
                               integrator=IntegratorConfig(dt=np.float64(0.5),
                                                           seed=np.int64(4))),
                CampaignConfig(observed_dofs=(1, 2), master_seed=3, snr_accel=30.0,
                               integrator=IntegratorConfig(dt=0.5, seed=4)))
    assert_same(Kernel(variance=np.float32(2.0), lengthscale=np.float64(1.5)),
                Kernel(variance=2.0, lengthscale=1.5))
    assert_same(dataclasses.replace(GP, noise_variance=np.float64(0.1), nlml=np.float32(-2.5)),
                dataclasses.replace(GP, noise_variance=0.1, nlml=-2.5))


def test_list_entry_named_by_index():
    assert decode(list[float], [1.0, np.float64(2.5)], "v") == [1.0, 2.5]
    with pytest.raises(InvalidParameterError, match=r"^v\[1\] must be of type float, got 'x'$"):
        decode(list[float], [1.0, "x"], "v")
    with pytest.raises(InvalidParameterError, match=r"^v must be a list$"):
        decode(list[float], (1.0,), "v")
    records = [{"t_s": 0.0, "reason": "ok"}, {"t_s": 1.0, "reason": 2}]
    with pytest.raises(InvalidParameterError,
                       match=r"^rejected_windows\[1\]\.reason must be of type str, got 2$"):
        dataclasses.replace(SNAPSHOT, rejected_windows=records)


RECORD = {"t_s": 50.0, "estimate": [1000.0, 500.0], "stddev": [1.0, 2.0],
          "psd_repairs": 0, "n_updates": 9}


def test_typed_dict_read_by_exact_keys():
    record = decode(WindowRecord, RECORD, "rec")
    assert type(record) is dict and record == RECORD
    missing = {key: value for key, value in RECORD.items() if key != "n_updates"}
    with pytest.raises(InvalidParameterError, match=r"^rec is missing 'n_updates'$"):
        decode(WindowRecord, missing, "rec")
    with pytest.raises(InvalidParameterError, match=r"^rec has unknown key 'note'$"):
        decode(WindowRecord, {**RECORD, "note": ""}, "rec")
    with pytest.raises(InvalidParameterError, match=r"^rec\.estimate\[1\] must be finite"):
        decode(WindowRecord, {**RECORD, "estimate": [1000.0, math.inf]}, "rec")


def test_zero_dimensional_array_read_as_scalar():
    value = decode(float, np.array(2.5), "x")
    assert type(value) is float and value == 2.5
    count = decode(int, np.array(3), "n")
    assert type(count) is int and count == 3
    assert_same(Kernel(variance=np.array(2.0), lengthscale=np.array(1.5)),
                Kernel(variance=2.0, lengthscale=1.5))
    with pytest.raises(InvalidParameterError, match=r"^n must be of type int, got 3.5$"):
        decode(int, np.array(3.5), "n")


@pytest.mark.parametrize("value, sample", [
    ([1000.0, math.nan], 1), ([math.inf, 500.0], 0), (np.array([-math.inf, 500.0]), 0)])
def test_non_finite_array_names_first_sample(value, sample):
    with pytest.raises(InvalidParameterError, match=rf"^k0 is not finite at sample {sample}$"):
        DegradationSchedule(k0=value)
    with pytest.raises(InvalidParameterError, match=r"^a is not finite at sample 2$"):
        decode(np.ndarray, [[1.0, 2.0], [3.0, 4.0], [5.0, math.nan], [math.nan, 0.0]], "a")


def test_from_dict_reads_each_field_once(monkeypatch):
    # from_dict used to decode every field before the constructor read it again
    calls = []

    def counted(hint, value, where):
        calls.append(where)
        return read(hint, value, where)

    read = codec.decode
    monkeypatch.setattr(codec, "decode", counted)
    IntegratorConfig.from_dict({"dt": 1e-3, "seed": 0})
    assert calls == ["IntegratorConfig", "dt", "seed"]


def test_write_json_rejects_non_finite(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"value": 1.0})
    with pytest.raises(NumericError, match="doc.json"):
        write_json(path, {"value": float("nan")})
    assert json.loads(path.read_text()) == {"value": 1.0}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]
