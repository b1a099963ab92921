"""Campaign generation, assimilation, snapshot persistence, prediction."""

import copy
import csv
import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import (MALFORMED_HISTORIES, assert_matches_reference, assert_same_bytes,
                      first_predict_parameters, full_state_windows, run_fresh)
from mdoftwin.cli import main
from mdoftwin.errors import InvalidParameterError, NumericError
from mdoftwin.models import (DegradationSchedule, build_duffing_2dof,
                             build_dvp_7dof, to_state_space,
                             degraded_stiffness)
from mdoftwin.sde import _MEASURE_BLOCK, IntegratorConfig, simulate_window
from mdoftwin import gpr
from mdoftwin import twin as twin_mod
from mdoftwin.twin import (CampaignConfig, MeasurementWindow, TwinSnapshot,
                           UkfRunConfig, assimilate_window, campaign_times,
                           filter_window, generate_window,
                           new_snapshot, predict_parameters, predict_response,
                           predict_response_ensemble,
                           predicted_stiffness_vector, run_campaign,
                           write_estimates_csv, write_gp_track_csv)


def quick_config(**overrides) -> CampaignConfig:
    """Small, fast campaign configuration for unit tests."""
    defaults = dict(
        horizon_days=150.0,
        window_interval_days=50.0,
        window_duration_s=1.0,
        integrator=IntegratorConfig(dt=2e-3),
        master_seed=11,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def campaign_visits(cfg):
    """The ``(t_s, seed, window_index)`` visits ``run_campaign`` makes."""
    return [(t_s, cfg.master_seed + i, i) for i, t_s in enumerate(campaign_times(cfg))]


def fabricate_snapshot(system, cfg, times, estimates, stddevs=None):
    """Snapshot with a hand-made estimate history and trained GPs."""
    snap = new_snapshot(system, cfg,
                        DegradationSchedule.for_system(system))
    estimates = np.asarray(estimates, dtype=float)
    if stddevs is None:
        stddevs = np.full_like(estimates, 1.0)
    for t, est, std in zip(times, estimates, stddevs):
        snap.parameter_history.append({
            "t_s": float(t),
            "estimate": [float(v) for v in est],
            "stddev": [float(v) for v in std],
            "psd_repairs": 0,
            "n_updates": 0,
        })
    twin_mod._retrain_gps(snap, system, cfg)
    return snap


class TestMeasurementWindow:
    def make_window(self):
        times = np.arange(6) * 1e-3
        return MeasurementWindow(
            t_s=50.0, times=times,
            accel=np.arange(12.0).reshape(6, 2),
            force=np.ones((6, 2)) * 0.5,
            observed_dofs=(1, 2),
            accel_noise_std=np.array([0.1, 0.2]),
            force_noise_std=np.array([1.0, 1.0]),
            provenance={"kind": "synthetic", "seed": 3})

    def test_shape_validation(self):
        with pytest.raises(InvalidParameterError):
            MeasurementWindow(t_s=0.0, times=np.arange(5.0),
                              accel=np.zeros((4, 1)), force=np.zeros((5, 2)),
                              observed_dofs=(1,))

    def test_one_sample_grid_rejected(self):
        # the filter's dt needs two samples; a one-sample window used to
        # reach it and fail on times[1]
        with pytest.raises(InvalidParameterError, match="at least two samples"):
            MeasurementWindow(t_s=0.0, times=np.zeros(1), accel=np.zeros((1, 2)),
                              force=np.zeros((1, 2)), observed_dofs=(1, 2))

    @pytest.mark.parametrize("name", ["times", "accel", "force"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_named_by_array_and_sample(self, name, value):
        fields = {"times": np.arange(6) * 1e-3, "accel": np.zeros((6, 2)),
                  "force": np.zeros((6, 2))}
        fields[name][4:] = value
        with pytest.raises(InvalidParameterError,
                           match=f"^{name} is not finite at sample 4$"):
            MeasurementWindow(t_s=0.0, observed_dofs=(1, 2), **fields)

    @pytest.mark.parametrize("t_s, message", [
        (np.nan, "must be finite"), (np.inf, "must be finite"), (-np.inf, "must be finite"),
        (True, "must be of type float")])
    def test_bad_t_s_rejected(self, t_s, message):
        # a NaN t_s passed the out-of-order test of assimilate_window, entered
        # the parameter history and made the snapshot's save fail
        with pytest.raises(InvalidParameterError, match=f"^t_s {message}"):
            replace(self.make_window(), t_s=t_s)

    BAD_NOISE_LEVELS = [
        ("accel_noise_std", [np.nan, 1.0], "must be finite and non-negative"),
        ("accel_noise_std", [-1.0, 1.0], "must be finite and non-negative"),
        ("force_noise_std", [1.0, np.inf], "must be finite and non-negative"),
        ("force_noise_std", [1.0, -0.5], "must be finite and non-negative"),
        ("accel_noise_std", [0.1], "must hold 2 entries"),
        ("force_noise_std", [[1.0, 1.0]], "must hold 2 entries"),
    ]

    @pytest.mark.parametrize("name, value, message", BAD_NOISE_LEVELS)
    def test_bad_noise_level_rejected(self, name, value, message):
        # a NaN level used to fail later as a filter failure, a negative
        # one was squared into a valid variance
        window = self.make_window()
        fields = {k: getattr(window, k) for k in (
            "t_s", "times", "accel", "force", "observed_dofs",
            "accel_noise_std", "force_noise_std")}
        fields[name] = value
        with pytest.raises(InvalidParameterError, match=f"^{name} {message}"):
            MeasurementWindow(**fields)

    @pytest.mark.parametrize("name, value, message", BAD_NOISE_LEVELS)
    def test_bad_noise_level_rejected_on_load(self, tmp_path, name, value, message):
        # the sidecar decoder stops a non-finite level, the constructor the rest
        _, sidecar_path = self.make_window().save(tmp_path / "w")
        sidecar = json.loads(sidecar_path.read_text())
        sidecar[name] = value
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(InvalidParameterError, match=f"w.(csv|json): {name} must"):
            MeasurementWindow.load(tmp_path / "w")

    def test_zero_noise_level_accepted(self):
        window = self.make_window()
        window = replace(window, accel_noise_std=[0.0, 0.0], force_noise_std=(0.0, 0.0))
        np.testing.assert_array_equal(window.accel_noise_std, np.zeros(2))
        assert window.force_noise_std.dtype == float

    def test_save_load_round_trip(self, tmp_path):
        window = self.make_window()
        window.save(tmp_path / "w0")
        again = MeasurementWindow.load(tmp_path / "w0")
        assert again.t_s == 50.0
        assert again.observed_dofs == (1, 2)
        np.testing.assert_array_equal(again.times, window.times)
        np.testing.assert_array_equal(again.accel, window.accel)
        np.testing.assert_array_equal(again.force, window.force)
        np.testing.assert_allclose(again.accel_noise_std, [0.1, 0.2])
        assert again.provenance["seed"] == 3

    def test_csv_header_names_observed_dofs(self, tmp_path):
        window = self.make_window()
        csv_path, sidecar_path = window.save(tmp_path / "w1")
        header = csv_path.read_text().splitlines()[0]
        assert header == "time,accel_dof1,accel_dof2,force_dof1,force_dof2"
        sidecar = json.loads(sidecar_path.read_text())
        assert sidecar["t_s"] == 50.0
        assert sidecar["observed_dofs"] == [1, 2]

    # each case corrupts the rows (header first) or the sidecar of a good
    # window; "one-force-column" loads, but its single force column does not
    # match the 2-DOF system
    @pytest.mark.parametrize("corrupt", [
        lambda rows, side: [],
        lambda rows, side: rows[:1],
        lambda rows, side: rows[:3] + [rows[3][:-1]] + rows[4:],
        lambda rows, side: rows[:3] + [rows[3][:1] + ["abc"] + rows[3][2:]] + rows[4:],
        lambda rows, side: rows[:3] + [rows[3][:1] + ["nan"] + rows[3][2:]] + rows[4:],
        lambda rows, side: side.update(n_samples=5) or rows,
        lambda rows, side: rows[:3] + [["0.0025"] + rows[3][1:]] + rows[4:],
        lambda rows, side: side.update(force_noise_std=side["force_noise_std"][:1])
        or [row[:-1] for row in rows],
        lambda rows, side: side.update(t_s=float("nan")) or rows,
        lambda rows, side: side.update(force_noise_std=[0.1, float("inf")]) or rows,
    ], ids=["empty", "header-only", "ragged", "non-numeric", "non-finite",
            "n-samples", "non-uniform", "one-force-column", "non-finite-time",
            "non-finite-noise"])
    def test_bad_window_rejected(self, tmp_path, corrupt):
        csv_path, sidecar_path = self.make_window().save(tmp_path / "w")
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        sidecar = json.loads(sidecar_path.read_text())
        rows = corrupt(rows, sidecar)
        with open(csv_path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(InvalidParameterError):
            window = MeasurementWindow.load(tmp_path / "w")
            filter_window(build_duffing_2dof(), CampaignConfig(), window)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"system": {"kind": "duffing_2dof"}}))
        assert main(["filter", "--config", str(config), "--out",
                     str(tmp_path / "out"), "--window", str(tmp_path / "w")]) == 2


class TestCampaignGeneration:
    @pytest.mark.parametrize("seed", [-3, 1.5, True, None])
    def test_master_seed_must_be_a_non_negative_integer(self, seed):
        # a negative one used to end the campaign in numpy's ValueError
        with pytest.raises(InvalidParameterError,
                           match="^master_seed must be a non-negative integer, got "):
            CampaignConfig(master_seed=seed)

    @pytest.mark.parametrize("name, value", [
        *((name, value) for name in ("horizon_days", "window_interval_days",
                                     "window_duration_s", "degradation_rate_per_day")
          for value in (math.nan, math.inf)),
        ("snr_accel", math.nan), ("snr_accel", -1.0), ("snr_accel", 0.0),
        ("snr_force", math.inf), ("snr_force", -1.0)])
    def test_plan_must_be_finite(self, name, value):
        # NaN used to fail in numpy's conversion to a window count, and an
        # infinite horizon in an OverflowError; a NaN accel SNR failed only
        # in generation, as "accel is not finite at sample 0"
        with pytest.raises(InvalidParameterError, match=f"^{name} must be finite"):
            CampaignConfig(**{name: value})
        if name == "degradation_rate_per_day":
            with pytest.raises(InvalidParameterError, match="^rate_per_day must be finite"):
                DegradationSchedule(k0=[1000.0], rate_per_day=value)

    def test_grid_arithmetic(self):
        cfg = CampaignConfig(horizon_days=2000.0, window_interval_days=50.0)
        times = campaign_times(cfg)
        assert times.shape[0] == 41
        assert times[0] == 0.0
        assert times[-1] == 2000.0

    def test_windows_and_seeding(self):
        system = build_duffing_2dof()
        sched = DegradationSchedule.for_system(system)
        cfg = quick_config()
        windows = twin_mod._synthesize(system, sched, cfg, campaign_visits(cfg))
        assert len(windows) == 4
        assert [w.provenance["seed"] for w in windows] == [11, 12, 13, 14]
        assert windows[0].times.shape[0] == 501
        assert windows[1].t_s == 50.0

    def test_zero_rate_windows_identical_given_seed(self):
        system = build_duffing_2dof()
        sched = DegradationSchedule(k0=system.stiffnesses, rate_per_day=0.0)
        cfg = quick_config()
        a = generate_window(system, sched, cfg, 0.0, seed=5)
        b = generate_window(system, sched, cfg, 700.0, seed=5)
        np.testing.assert_array_equal(a.accel, b.accel)
        np.testing.assert_array_equal(a.force, b.force)

    def test_degradation_enters_generation(self):
        system = build_duffing_2dof()
        sched = DegradationSchedule.for_system(system)
        cfg = quick_config()
        a = generate_window(system, sched, cfg, 0.0, seed=5)
        b = generate_window(system, sched, cfg, 5000.0, seed=5)
        assert not np.array_equal(a.accel, b.accel)

    def test_observed_dofs_subset(self):
        system = build_duffing_2dof()
        sched = DegradationSchedule.for_system(system)
        cfg = quick_config(observed_dofs=(1,))
        window = generate_window(system, sched, cfg, 0.0, seed=2)
        assert window.accel.shape[1] == 1
        assert window.observed_dofs == (1,)

    def test_reproducible_from_master_seed(self):
        system = build_duffing_2dof()
        sched = DegradationSchedule.for_system(system)
        cfg = quick_config()
        w1 = twin_mod._synthesize(system, sched, cfg, campaign_visits(cfg))
        w2 = twin_mod._synthesize(system, sched, cfg, campaign_visits(cfg))
        for a, b in zip(w1, w2):
            np.testing.assert_array_equal(a.accel, b.accel)
            np.testing.assert_array_equal(a.force, b.force)

    @pytest.mark.parametrize("build", [build_duffing_2dof, build_dvp_7dof])
    def test_campaign_window_regenerated_alone(self, build):
        # one batched pass against each window generated on its own: the
        # same generator stream, so the same force to the bit; the batch
        # changes only the rounding of the simulated accelerations
        system = build()
        sched = DegradationSchedule.for_system(system)
        cfg = quick_config()
        windows = twin_mod._synthesize(system, sched, cfg, campaign_visits(cfg))
        for i, (t_s, batched) in enumerate(zip(campaign_times(cfg), windows)):
            alone = generate_window(system, sched, cfg, t_s,
                                    cfg.master_seed + i, i)
            np.testing.assert_array_equal(batched.force, alone.force)
            scale = np.max(np.abs(alone.accel))
            assert np.max(np.abs(batched.accel - alone.accel)) <= 1e-10 * scale
            assert batched.provenance == alone.provenance
            assert batched.t_s == alone.t_s

    def test_batch_marks_the_windows_that_diverge_alone(self):
        # stiffness growing with service time makes the explicit scheme
        # unstable from some window on; the batch returns, unraised, the
        # error of exactly the windows that diverge when generated one by
        # one, with their text, and keeps the others
        system = build_duffing_2dof()
        sched = DegradationSchedule(k0=[1e6, 500.0], rate_per_day=-0.01)
        cfg = quick_config()
        visits = campaign_visits(cfg)
        alone = []
        for t_s, seed, i in visits:
            try:
                generate_window(system, sched, cfg, t_s, seed, i)
                alone.append(None)
            except NumericError as exc:
                alone.append(str(exc))
        assert alone[0] is None and alone[-1] is not None
        batch = twin_mod._synthesize(system, sched, cfg, visits)
        assert [str(w) if isinstance(w, NumericError) else None for w in batch] == alone
        assert [w.path for w in batch if isinstance(w, NumericError)] == \
            [p for p, reason in enumerate(alone) if reason is not None]
        for (t_s, _, _), window in zip(visits, batch):
            if not isinstance(window, NumericError):
                assert window.t_s == t_s and np.isfinite(window.accel).all()


class TestAssimilation:
    def run_snapshot(self, n_windows=3, cfg=None):
        system = build_duffing_2dof()
        sched = DegradationSchedule.for_system(system)
        cfg = cfg or quick_config()
        snap = new_snapshot(system, cfg, sched)
        windows = []
        for i, t_s in enumerate(campaign_times(cfg)[:n_windows]):
            windows.append(generate_window(system, sched, cfg, t_s,
                                           cfg.master_seed + i, i))
        for window in windows:
            assimilate_window(snap, window)
        return system, cfg, snap, windows

    def test_first_window_no_gp(self):
        system, cfg, snap, _ = self.run_snapshot(n_windows=1)
        assert snap.windows_processed == 1
        assert len(snap.parameter_history) == 1
        assert snap.gp_models == {}
        assert snap.gp_trained_upto is None

    def test_windows_processed_is_the_history_length(self):
        # derived from the history, so a rejected window does not count and
        # the count cannot be set apart from it
        system, cfg, snap, windows = self.run_snapshot(n_windows=2)
        assimilate_window(snap, windows[0])
        assert snap.rejected_windows and snap.windows_processed == 2
        snap.parameter_history.pop()
        assert snap.windows_processed == 1
        with pytest.raises(AttributeError):
            snap.windows_processed = 5

    def test_gp_refresh_after_three_windows(self):
        system, cfg, snap, _ = self.run_snapshot(n_windows=3)
        assert set(snap.gp_models) == {"k1", "k2"}
        assert snap.gp_trained_upto == 100.0

    def test_estimates_reasonable(self):
        system, cfg, snap, _ = self.run_snapshot(n_windows=2)
        est = snap.history_estimates
        np.testing.assert_allclose(est[:, 0], 1000.0, rtol=0.08)
        np.testing.assert_allclose(est[:, 1], 500.0, rtol=0.08)

    def test_out_of_order_rejected(self):
        system, cfg, snap, windows = self.run_snapshot(n_windows=2)
        history_before = copy.deepcopy(snap.parameter_history)
        stale = windows[0]
        assimilate_window(snap, stale)
        assert snap.parameter_history == history_before
        assert snap.windows_processed == 2
        assert snap.rejected_windows[-1]["reason"] == "out-of-order window"

    def test_filter_failure_rejected_and_recovers(self):
        system, cfg, snap, windows = self.run_snapshot(n_windows=1)
        sched = DegradationSchedule.for_system(system)
        bad = generate_window(system, sched, cfg, 50.0, seed=99)
        bad.accel = bad.accel.copy()
        bad.accel[100, 0] = np.nan
        assimilate_window(snap, bad)
        assert snap.windows_processed == 1
        assert len(snap.rejected_windows) == 1
        assert (snap.rejected_windows[0]["reason"]
                == "filter failure: accel is not finite at sample 100")
        good = generate_window(system, sched, cfg, 100.0, seed=42)
        assimilate_window(snap, good)
        assert snap.windows_processed == 2
        times = snap.history_times
        assert np.all(np.diff(times) > 0)

    def test_window_cut_to_one_sample_rejected_by_the_grid_check(self):
        system, cfg, snap, windows = self.run_snapshot(n_windows=1)
        window = generate_window(system, DegradationSchedule.for_system(system),
                                 cfg, 50.0, seed=99)
        for name in ("times", "accel", "force"):
            setattr(window, name, getattr(window, name)[:1])
        with pytest.raises(InvalidParameterError, match="at least two samples"):
            assimilate_window(snap, window)
        assert snap.windows_processed == 1

    def test_warm_start_improves_on_cold_window(self):
        # estimates improve once windows warm-start from earlier terminals
        system = build_duffing_2dof()
        sched = DegradationSchedule.for_system(system)
        cfg = quick_config(horizon_days=250.0)
        cfg = replace(cfg, ukf=replace(cfg.ukf, init_offset_factor=0.6))
        snap = new_snapshot(system, cfg, sched)
        run_campaign(snap)
        truth = np.array([degraded_stiffness(sched, t)
                          for t in snap.history_times])
        rel = np.abs(snap.history_estimates - truth) / truth
        norms = np.linalg.norm(rel, axis=1)
        assert np.all(norms[1:] < norms[0])

    def test_history_independent_of_gp_refresh(self, monkeypatch):
        system, cfg, snap_a, windows = self.run_snapshot(n_windows=3)
        monkeypatch.setattr(twin_mod, "_retrain_gps",
                            lambda *args, **kwargs: None)
        sched = DegradationSchedule.for_system(system)
        snap_b = new_snapshot(system, cfg, sched)
        for window in windows:
            assimilate_window(snap_b, window)
        assert snap_b.gp_models == {}
        assert snap_a.parameter_history == snap_b.parameter_history

    def test_custom_gp_ranges_survive_assimilation(self):
        gp = gpr.GpTrainConfig(lengthscale_range=(0.5, 5.0),
                               variance_range=(0.1, 10.0),
                               noise_range=(1e-6, 0.5))
        system, cfg, snap, _ = self.run_snapshot(
            n_windows=3, cfg=quick_config(gp=gp))
        assert snap.gp_models
        again = snap.config.gp
        assert again.lengthscale_range == (0.5, 5.0)
        assert again.variance_range == (0.1, 10.0)
        assert again.noise_range == (1e-6, 0.5)

    def test_measurement_noise_fallbacks(self):
        system, cfg, snap, windows = self.run_snapshot(n_windows=1)
        window = windows[0]
        window.accel_noise_std = None
        with pytest.raises(InvalidParameterError):
            filter_window(system, cfg, window)
        cfg_override = quick_config(
            ukf=UkfRunConfig(measurement_noise_std=(0.05, 0.05)))
        result = filter_window(system, cfg_override, window)
        assert np.all(np.isfinite(result.param_estimate))

    @pytest.mark.parametrize("name, value, message", [
        *(("measurement_noise_std", std, "measurement_noise_std must be finite and non-negative")
          for std in [(0.05, -0.05), (np.nan, 0.05), (0.05, np.inf)]),
        ("q_scale", -2.0, "q_scale must be finite and non-negative"),
        ("q_scale", math.nan, "q_scale must be finite"),
        ("init_state_variance", -1.0, "init_state_variance must be finite and positive"),
        ("init_offset_factor", math.nan, "init_offset_factor must be finite"),
        ("init_param_std_factor", math.inf, "init_param_std_factor must be finite"),
        ("warm_param_std_factor", 0.0, "warm_param_std_factor must be finite and positive"),
        ("frozen_param_std_factor", math.nan, "frozen_param_std_factor must be finite")])
    def test_bad_filter_settings_rejected(self, tmp_path, capsys, name, value,
                                          message):
        # a negative level used to be squared into a valid variance; a
        # negative q_scale used to stop run_campaign at its first window, and
        # a NaN one or a negative prior variance to reject every window
        with pytest.raises(InvalidParameterError, match=f"^{message}"):
            UkfRunConfig(**{name: value})
        if np.isfinite(value).all():
            _, _, _, windows = self.run_snapshot(n_windows=1)
            windows[0].save(tmp_path / "w")
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"system": {"kind": "duffing_2dof"},
                                          "ukf": {name: np.asarray(value).tolist()}}))
            assert main(["filter", "--config", str(config), "--out",
                         str(tmp_path / "out"), "--window", str(tmp_path / "w")]) == 2
            assert message in capsys.readouterr().err


class TestRunCampaign:
    @pytest.mark.parametrize("batch", [twin_mod._BATCH_WINDOWS, 4])
    def test_diverging_windows_recorded_in_order(self, monkeypatch, batch):
        # the diverging schedule of TestCampaignGeneration over six windows:
        # the later ones diverge, and each is recorded with the reason the
        # per-window loop wrote when it generated every window alone, while
        # every chunk is integrated once and no warning escapes from the
        # diverged paths
        monkeypatch.setattr(twin_mod, "_BATCH_WINDOWS", batch)
        system = build_duffing_2dof()
        sched = DegradationSchedule(k0=[1e6, 500.0], rate_per_day=-0.01)
        cfg = quick_config(horizon_days=250.0)
        times = campaign_times(cfg)
        failed, reasons = [], []
        for i, t_s in enumerate(times):
            try:
                generate_window(system, sched, cfg, t_s, cfg.master_seed + i, i)
            except NumericError as exc:
                failed.append(i)
                reasons.append(f"generation failure: {exc}")
        first = failed[0]
        assert 0 < first < len(times) - 1
        assert failed == list(range(first, len(times)))
        integrations = []

        def counted(model, system, y0, *args, **kwargs):
            integrations.append(y0.shape[0])
            return simulate_window(model, system, y0, *args, **kwargs)

        monkeypatch.setattr(twin_mod, "simulate_window", counted)
        snap = new_snapshot(system, cfg, sched)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_campaign(snap) == len(failed)
        n = len(times)
        assert len(integrations) == math.ceil(n / batch)
        assert integrations == [min(batch, n - start) for start in range(0, n, batch)]
        assert snap.windows_processed == first
        assert snap.history_times.tolist() == times[:first].tolist()
        assert snap.rejected_windows == [{"t_s": float(times[i]), "reason": reason}
                                         for i, reason in zip(failed, reasons)]

    def test_chunked_run_matches_one_batch(self, monkeypatch):
        system = build_duffing_2dof()
        sched = DegradationSchedule.for_system(system)
        cfg = quick_config()
        whole = new_snapshot(system, cfg, sched)
        assert run_campaign(whole) == 0
        monkeypatch.setattr(twin_mod, "_BATCH_WINDOWS", 2)
        chunked = new_snapshot(system, cfg, sched)
        assert run_campaign(chunked) == 0
        assert chunked.windows_processed == whole.windows_processed == 4
        np.testing.assert_array_equal(chunked.history_times, whole.history_times)
        np.testing.assert_allclose(chunked.history_estimates, whole.history_estimates,
                                   rtol=1e-9, atol=0.0)

    def test_cutoff_and_missing_schedule(self):
        system = build_duffing_2dof()
        cfg = quick_config()
        with pytest.raises(InvalidParameterError, match="schedule"):
            run_campaign(new_snapshot(system, cfg, None))
        snap = new_snapshot(system, cfg, DegradationSchedule.for_system(system))
        assert run_campaign(snap, cutoff_days=50.0) == 0
        assert snap.history_times.tolist() == [0.0, 50.0]


class TestSnapshotPersistence:
    def test_round_trip_byte_identical(self, tmp_path):
        system = build_duffing_2dof()
        sched = DegradationSchedule.for_system(system)
        cfg = quick_config()
        snap = new_snapshot(system, cfg, sched)
        run_campaign(snap, cutoff_days=100.0)
        p1 = tmp_path / "snap1.json"
        p2 = tmp_path / "snap2.json"
        snap.save(p1)
        again = TwinSnapshot.load(p1)
        again.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert again.version == snap.version == twin_mod.SNAPSHOT_VERSION

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        system = build_duffing_2dof()
        path = tmp_path / "snapshot.json"
        new_snapshot(system, quick_config(), None).save(path)
        before = path.read_bytes()

        def dump_then_fail(doc, fh, **kwargs):
            fh.write('{"version": ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump_then_fail)
        snap = new_snapshot(system, quick_config(master_seed=12), None)
        with pytest.raises(OSError, match="disk full"):
            snap.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["snapshot.json"]

    def test_saved_file_holds_no_window_count(self, tmp_path):
        system = build_duffing_2dof()
        cfg = quick_config()
        snap = new_snapshot(system, cfg, DegradationSchedule.for_system(system))
        run_campaign(snap, cutoff_days=50.0)
        path = tmp_path / "snapshot.json"
        snap.save(path)
        doc = json.loads(path.read_text())
        assert doc["version"] == twin_mod.SNAPSHOT_VERSION == 3
        assert "windows_processed" not in doc
        assert TwinSnapshot.load(path).windows_processed == snap.windows_processed == 2

    @pytest.mark.parametrize("version", [99, 2])
    def test_version_check(self, tmp_path, version):
        # a version 2 file still holds keys the format has dropped; its
        # version is named, not the first unknown key
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": version, "windows_processed": 0,
                                    "system": {}, "config": {}}))
        with pytest.raises(InvalidParameterError,
                           match=f"^unsupported snapshot version {version}$"):
            TwinSnapshot.load(path)

    def test_decoded_version_checked(self):
        # the codec path passes the same check as load, so no snapshot of
        # another version exists in memory to be saved
        doc = new_snapshot(build_duffing_2dof(), quick_config()).to_dict()
        doc["version"] = 99
        with pytest.raises(InvalidParameterError,
                           match="^unsupported snapshot version 99$"):
            TwinSnapshot.from_dict(doc)

    def test_changed_version_not_saved(self, tmp_path):
        # the snapshot is mutable; save checks the version once more, so no
        # file is written that load would refuse
        snap = new_snapshot(build_duffing_2dof(), quick_config())
        snap.version = 99
        path = tmp_path / "snapshot.json"
        with pytest.raises(InvalidParameterError,
                           match="^unsupported snapshot version 99$"):
            snap.save(path)
        assert not path.exists()
        snap.version = twin_mod.SNAPSHOT_VERSION
        snap.save(path)
        assert TwinSnapshot.load(path).version == twin_mod.SNAPSHOT_VERSION

    def test_constructed_version_checked(self):
        with pytest.raises(InvalidParameterError,
                           match="^unsupported snapshot version 2$"):
            TwinSnapshot(system=build_duffing_2dof(), config=quick_config(), version=2)

    @pytest.mark.parametrize("build, key", [
        (build_duffing_2dof, "kx"), (build_duffing_2dof, "k9"), (build_duffing_2dof, "k0"),
        (build_dvp_7dof, "k4")], ids=["text", "past-n_dof", "zero", "frozen"])
    def test_gp_names_must_be_tracked_stiffnesses(self, tmp_path, build, key):
        # these loaded; a response prediction then failed in int() or with
        # an IndexError, or applied the GP to a frozen stiffness
        system = build()
        model = gpr.GpModel(kernel=gpr.Kernel(variance=2.0, lengthscale=1.2),
                            mean_spec="constant", noise_variance=1e-3,
                            train_inputs=[0.0, 1.0, 2.5], train_targets=[1.0, -0.5, 0.3],
                            nlml=0.0)
        message = f"^gp_models key '{key}' names no tracked stiffness; expected one of k1, "
        with pytest.raises(InvalidParameterError, match=message):
            TwinSnapshot(system=system, config=quick_config(), gp_models={key: model})
        snap = new_snapshot(system, quick_config())
        snap.gp_models = {key: model}
        snap.save(tmp_path / "snapshot.json")
        with pytest.raises(InvalidParameterError, match=message):
            TwinSnapshot.load(tmp_path / "snapshot.json")

    @pytest.mark.parametrize("key, value, message", MALFORMED_HISTORIES)
    def test_malformed_history_not_loaded(self, tmp_path, key, value, message):
        # each of these failed only later, in report, assimilation or a
        # belief check, or not at all
        path = tmp_path / "snapshot.json"
        new_snapshot(build_duffing_2dof(), quick_config()).save(path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidParameterError, match="^" + re.escape(message)):
            TwinSnapshot.load(path)
        with pytest.raises(InvalidParameterError, match="^" + re.escape(message)):
            TwinSnapshot(system=build_duffing_2dof(), config=quick_config(), **{key: value})


class TestPrediction:
    def decay_history(self, system, n=12, interval=150.0, noise=0.5, seed=0):
        rng = np.random.default_rng(seed)
        sched = DegradationSchedule.for_system(system)
        times = np.arange(n) * interval
        truth = np.array([degraded_stiffness(sched, t) for t in times])
        est = truth + rng.normal(0.0, noise, truth.shape)
        return times, est

    def test_requires_trained_models(self):
        system = build_duffing_2dof()
        snap = new_snapshot(system, quick_config(), None)
        with pytest.raises(InvalidParameterError):
            predict_parameters(snap, [100.0])

    def test_prediction_matches_fit_at_last_window(self):
        system = build_duffing_2dof()
        cfg = quick_config(gp=twin_mod.gpr.GpTrainConfig(
            seed=1, use_stddev_floor=True))
        times, est = self.decay_history(system)
        snap = fabricate_snapshot(system, cfg, times, est)
        preds = predict_parameters(snap, [times[-1]])
        for j, name in enumerate(("k1", "k2")):
            assert abs(preds[name].mean[0] - est[-1, j]) < 5.0

    def test_predicted_stiffness_vector_near_nominal_history(self):
        system = build_duffing_2dof()
        cfg = quick_config()
        times = np.arange(8) * 50.0
        est = np.tile(system.stiffnesses, (8, 1))
        snap = fabricate_snapshot(system, cfg, times, est)
        k = predicted_stiffness_vector(snap, 200.0)
        np.testing.assert_allclose(k, system.stiffnesses, rtol=1e-3)

    def test_response_determinism(self):
        system = build_duffing_2dof()
        cfg = quick_config()
        times = np.arange(8) * 50.0
        est = np.tile(system.stiffnesses, (8, 1))
        snap = fabricate_snapshot(system, cfg, times, est)
        t1 = predict_response(snap, 100.0, duration=0.5, seed=5)
        t2 = predict_response(snap, 100.0, duration=0.5, seed=5)
        np.testing.assert_array_equal(t1.states, t2.states)
        t3 = predict_response(snap, 100.0, duration=0.5, seed=6)
        assert not np.array_equal(t1.states, t3.states)

    def test_band_widens_past_cutoff(self):
        system = build_duffing_2dof()
        cfg = quick_config()
        times, est = self.decay_history(system, n=14, interval=100.0)
        snap = fabricate_snapshot(system, cfg, times, est)
        cutoff = times[-1]
        query = np.array([cutoff, cutoff + 300.0, cutoff + 900.0,
                          cutoff + 2000.0])
        pred = predict_parameters(snap, query)["k1"]
        assert np.all(np.diff(pred.variance) > 0.0)

    def test_ensemble_spread_grows_with_band_width(self):
        system = build_duffing_2dof()
        cfg = quick_config()
        times, est = self.decay_history(system, n=14, interval=100.0)
        narrow = fabricate_snapshot(system, cfg, times, est)
        wide = fabricate_snapshot(system, cfg, times[:7], est[:7])
        query_t = times[-1] + 500.0
        kwargs = dict(duration=0.5, seed=17, n_draws=24)
        ens_narrow = predict_response_ensemble(narrow, query_t, **kwargs)
        ens_wide = predict_response_ensemble(wide, query_t, **kwargs)
        assert ens_wide.stiffness_draws.std(axis=0)[0] > \
            ens_narrow.stiffness_draws.std(axis=0)[0]
        spread_n = ens_narrow.spread[-200:, :2].mean()
        spread_w = ens_wide.spread[-200:, :2].mean()
        assert spread_w > spread_n

    def test_spread_spans_the_lowest_to_the_highest_level(self):
        # levels in any order: the spread is the highest level's quantile
        # less the lowest's, and sorted levels keep their old values
        system = build_duffing_2dof()
        snap = fabricate_snapshot(system, quick_config(), np.arange(8) * 50.0,
                                  np.tile(system.stiffnesses, (8, 1)))
        kwargs = dict(duration=0.2, seed=17, n_draws=6)
        ordered = predict_response_ensemble(snap, 450.0, levels=(0.05, 0.5, 0.95), **kwargs)
        shuffled = predict_response_ensemble(snap, 450.0, levels=(0.5, 0.95, 0.05), **kwargs)
        np.testing.assert_array_equal(ordered.spread,
                                      ordered.quantiles[-1] - ordered.quantiles[0])
        np.testing.assert_array_equal(shuffled.spread, ordered.spread)
        reversed_ = predict_response_ensemble(snap, 450.0, levels=(0.95, 0.05), **kwargs)
        np.testing.assert_array_equal(reversed_.spread, ordered.spread)
        assert np.all(reversed_.spread >= 0.0) and np.any(reversed_.spread > 0.0)

    @pytest.mark.parametrize("build", [build_duffing_2dof, build_dvp_7dof])
    def test_ensemble_matches_serial_draws(self, build):
        # all draws in one integration against one plain simulation per
        # draw, seeded seed + 1 + j as before the batching
        system = build()
        cfg = quick_config()
        times = np.arange(8) * 50.0
        rng = np.random.default_rng(3)
        est = system.stiffnesses * (1.0 + 0.01 * rng.normal(size=(8, system.n_dof)))
        snap = fabricate_snapshot(system, cfg, times, est)
        seed, n_draws, duration = 17, 5, 0.5
        ens = predict_response_ensemble(snap, 450.0, duration, seed,
                                        n_draws=n_draws)
        serial = []
        for j in range(n_draws):
            system_j = replace(system, stiffnesses=ens.stiffness_draws[j])
            model = to_state_space(system_j)
            integrator = replace(cfg.integrator, seed=seed + 1 + j)
            serial.append(simulate_window(model, system_j, np.zeros(model.dim_state),
                                          duration, integrator).states)
        expected = np.quantile(np.stack(serial), ens.levels, axis=0)
        assert ens.quantiles.shape == expected.shape
        scale = np.max(np.abs(expected), axis=(0, 1))
        assert np.all(np.max(np.abs(ens.quantiles - expected), axis=(0, 1))
                      <= 1e-10 * scale)
        assert np.unique(ens.stiffness_draws[:, 0]).shape[0] == n_draws

    @pytest.mark.parametrize("n_draws", [2, 3, 20, 100])
    @pytest.mark.parametrize("levels", [(0.05, 0.5, 0.95), (0, 1), (0.0, 1.0),
                                        (0.9, 0.0, 0.33, 1.0, 0.5, 0.25)])
    def test_path_quantiles_equal_numpy(self, n_draws, levels):
        # a series shorter than a block of the kernel's steps, and one longer
        for n_samples in (40, 2 * _MEASURE_BLOCK + 37):
            rng = np.random.default_rng(n_draws)
            samples = rng.normal(size=(n_samples, n_draws, 5))
            samples[0] = 0.0  # the shared start of every draw
            samples[1:4, :, 0] = np.round(samples[1:4, :, 0])  # ties
            np.testing.assert_array_equal(twin_mod._path_quantiles(samples, levels),
                                          np.quantile(samples, levels, axis=1))

    @pytest.mark.parametrize("levels", [(0.05, 1.2), (-0.1, 0.5), (0.5, float("nan")),
                                        (float("inf"),), (), ((0.1, 0.9),), ("low",)])
    def test_bad_levels_rejected_before_integrating(self, monkeypatch, levels):
        system = build_duffing_2dof()
        cfg = quick_config()
        snap = fabricate_snapshot(system, cfg, np.arange(8) * 50.0,
                                  np.tile(system.stiffnesses, (8, 1)))

        def never(*args, **kwargs):
            raise AssertionError("integrated before the levels were checked")

        monkeypatch.setattr(twin_mod, "simulate_window", never)
        with pytest.raises(InvalidParameterError, match="^levels must be"):
            predict_response_ensemble(snap, 450.0, 0.2, 3, n_draws=4, levels=levels)

    @staticmethod
    def nominal_snapshot():
        """A 2-DOF twin with GPs trained on 8 windows at the nominal stiffness."""
        system = build_duffing_2dof()
        return fabricate_snapshot(system, quick_config(), np.arange(8) * 50.0,
                                  np.tile(system.stiffnesses, (8, 1)))

    @pytest.mark.parametrize("n_draws", [2.5, 3.0, "3", None, 1, True, np.float64(3.0)])
    def test_bad_draw_count_rejected_before_drawing(self, monkeypatch, n_draws):
        snap = self.nominal_snapshot()

        def never(*args, **kwargs):
            raise AssertionError("drew before the draw count was checked")

        monkeypatch.setattr(twin_mod, "predict_parameters", never)
        monkeypatch.setattr(twin_mod, "simulate_window", never)
        with pytest.raises(InvalidParameterError,
                           match="^n_draws must be an integer of at least 2, got "):
            predict_response_ensemble(snap, 450.0, 0.2, 3, n_draws=n_draws)

    @pytest.mark.parametrize("seed", [1.5, -1, "3", None, True])
    def test_bad_seed_rejected_before_drawing(self, monkeypatch, seed):
        # 1.5 used to raise numpy's TypeError after the GP query
        snap = self.nominal_snapshot()

        def never(*args, **kwargs):
            raise AssertionError("drew before the seed was checked")

        monkeypatch.setattr(twin_mod, "predict_parameters", never)
        monkeypatch.setattr(twin_mod, "simulate_window", never)
        with pytest.raises(InvalidParameterError,
                           match="^seed must be a non-negative integer, got "):
            predict_response_ensemble(snap, 450.0, 0.2, seed, n_draws=4)

    def test_numpy_integer_draw_count(self):
        snap = self.nominal_snapshot()
        ens = predict_response_ensemble(snap, 450.0, 0.05, 3, n_draws=np.int64(3))
        assert ens.stiffness_draws.shape == (3, 2)

    @pytest.mark.parametrize("t_tilde", ["x", None, 1 + 2j, [450.0, 500.0]])
    def test_query_time_that_is_not_a_number_rejected(self, monkeypatch, t_tilde):
        # float(t_tilde) used to raise ValueError or TypeError
        snap = self.nominal_snapshot()

        def never(*args, **kwargs):
            raise AssertionError("simulated before the query time was checked")

        monkeypatch.setattr(twin_mod, "simulate_window", never)
        match = "^t_tilde must be a real number, got "
        with pytest.raises(InvalidParameterError, match=match):
            predicted_stiffness_vector(snap, t_tilde)
        with pytest.raises(InvalidParameterError, match=match):
            predict_response(snap, t_tilde, 0.2, 3)
        with pytest.raises(InvalidParameterError, match=match):
            predict_response_ensemble(snap, t_tilde, 0.2, 3, n_draws=4)

    @pytest.mark.parametrize("query", [["a"], [object()], [1 + 2j]],
                             ids=["string", "object", "complex"])
    def test_parameter_query_that_is_not_numbers_rejected(self, query):
        snap = self.nominal_snapshot()
        with pytest.raises(InvalidParameterError, match="real numbers"):
            predict_parameters(snap, query)

    def test_diverging_draw_named(self):
        # a band straddling the stability limit of the explicit scheme:
        # the batch names the first draw that diverges on its own
        system = build_duffing_2dof()
        cfg = quick_config()
        times = np.arange(8) * 50.0
        rng = np.random.default_rng(0)
        est = np.column_stack([2.0e6 + rng.normal(0.0, 8e5, 8), np.full(8, 500.0)])
        snap = fabricate_snapshot(system, cfg, times, est,
                                  np.tile([8e5, 1.0], (8, 1)))
        seed, n_draws, t_q = 2, 8, 400.0
        with pytest.raises(NumericError) as info:
            predict_response_ensemble(snap, t_q, 1.0, seed, n_draws=n_draws)
        named = info.value.path
        assert str(info.value).startswith(f"draw {named}: ")
        # the same draws, each simulated alone
        draw_rng = np.random.default_rng(seed)
        draws = np.tile(system.stiffnesses, (n_draws, 1))
        for name, pred in predict_parameters(snap, [t_q]).items():
            idx = int(name[1:]) - 1
            draws[:, idx] = np.clip(draw_rng.normal(pred.mean[0], pred.stddev[0],
                                                    size=n_draws),
                                    1e-6 * system.stiffnesses[idx], None)
        diverged = []
        for j in range(named + 1):
            system_j = replace(system, stiffnesses=draws[j])
            model = to_state_space(system_j)
            try:
                simulate_window(model, system_j, np.zeros(4), 1.0,
                                replace(cfg.integrator, seed=seed + 1 + j))
            except NumericError:
                diverged.append(j)
        assert named > 0 and diverged == [named]

    def test_degraded_stiffness_lowers_spectral_peak(self):
        # free vibration FFT: the fundamental drops with the GP-mean k
        system = build_duffing_2dof(force_amplitudes=(0.0, 0.0),
                                    noise_sigmas=(0.0, 0.0))
        cfg = quick_config()
        times = np.arange(8) * 50.0
        nominal = fabricate_snapshot(
            system, cfg, times, np.tile(system.stiffnesses, (8, 1)))
        degraded = fabricate_snapshot(
            system, cfg, times, np.tile(0.5 * system.stiffnesses, (8, 1)))
        y0 = np.array([0.01, 0.0, 0.0, 0.0])

        def peak_frequency(snapshot):
            traj = predict_response(snapshot, 100.0, duration=15.0, seed=0,
                                    y0=y0)
            x1 = traj.states[:, 0]
            padded = 8 * x1.shape[0]  # interpolate between bins
            spectrum = np.abs(np.fft.rfft(x1 - x1.mean(), n=padded))
            freqs = np.fft.rfftfreq(padded, d=cfg.integrator.dt)
            return freqs[np.argmax(spectrum)]

        f_nom = peak_frequency(nominal)
        f_deg = peak_frequency(degraded)
        assert f_deg < f_nom
        assert f_deg == pytest.approx(f_nom * math.sqrt(0.5), rel=0.05)


class TestGpStackCache:
    """Queries go through a stack cached on the snapshot; it must follow the
    models that ``gp_models`` holds at the time of the query."""

    QUERY = np.array([25.0, 100.0, 150.0, 400.0])

    def assert_current(self, snap):
        preds = predict_parameters(snap, self.QUERY)
        assert sorted(preds) == sorted(snap.gp_models)
        for name, model in snap.gp_models.items():
            assert preds[name].mean.shape == self.QUERY.shape
            assert_matches_reference(preds[name], model, self.QUERY)
        return preds

    def test_retrain_after_a_further_window(self):
        system, cfg, snap, windows = TestAssimilation().run_snapshot(n_windows=3)
        before = self.assert_current(snap)
        sched = DegradationSchedule.for_system(system)
        assimilate_window(snap, generate_window(system, sched, cfg, 150.0,
                                                cfg.master_seed + 3, 3))
        assert snap.gp_trained_upto == 150.0
        after = self.assert_current(snap)
        assert not np.array_equal(before["k1"].mean, after["k1"].mean)

    def test_model_replaced_in_place(self):
        system = build_duffing_2dof()
        times = np.arange(8) * 50.0
        est = np.tile(system.stiffnesses, (8, 1)) * np.linspace(1.0, 0.97, 8)[:, None]
        snap = fabricate_snapshot(system, quick_config(), times, est)
        self.assert_current(snap)
        model = snap.gp_models["k1"]
        snap.gp_models["k1"] = replace(model, train_targets=model.train_targets - 20.0)
        preds = self.assert_current(snap)
        assert preds["k1"].mean[1] < model.target_shift - 10.0

    def test_save_load_round_trip(self, tmp_path):
        system = build_dvp_7dof()
        times = np.arange(5) * 100.0
        est = np.tile(system.stiffnesses, (5, 1)) * np.linspace(1.0, 0.95, 5)[:, None]
        snap = fabricate_snapshot(system, quick_config(), times, est)
        before = self.assert_current(snap)
        snap.save(tmp_path / "snap.json")
        loaded = TwinSnapshot.load(tmp_path / "snap.json")
        after = self.assert_current(loaded)
        for name in before:
            np.testing.assert_array_equal(before[name].mean, after[name].mean)
            np.testing.assert_array_equal(before[name].variance, after[name].variance)


@pytest.fixture(scope="module")
def forecast_snapshot():
    """A 3-window 7-DOF campaign on 2 s windows, the twin that the
    ``forecast`` benchmark sets up and queries."""
    system = build_dvp_7dof()
    cfg = CampaignConfig(window_duration_s=2.0, master_seed=19)
    schedule = DegradationSchedule.for_system(
        system, rate_per_day=cfg.degradation_rate_per_day)
    snap = new_snapshot(system, cfg, schedule)
    for i, t_s in enumerate(campaign_times(cfg)[:3]):
        assimilate_window(snap, generate_window(system, schedule, cfg, t_s,
                                                cfg.master_seed + i, i))
    assert len(snap.gp_models) == 6
    return snap


class TestQueryOracle:
    """``predict_parameters`` against the query as first written
    (``conftest.first_predict_parameters``), byte for byte."""

    @staticmethod
    def assert_same(snap, query):
        got, want = predict_parameters(snap, query), first_predict_parameters(snap, query)
        assert list(got) == list(want)
        for name in want:
            assert_same_bytes(got[name], want[name])

    def test_random_stream_on_a_real_snapshot(self, forecast_snapshot, tmp_path):
        forecast_snapshot.save(tmp_path / "snap.json")
        snap = TwinSnapshot.load(tmp_path / "snap.json")
        t_last = float(snap.history_times[-1])
        rng = np.random.default_rng(2024)
        for t_q in t_last + rng.uniform(0.0, 1000.0, 2000):
            self.assert_same(snap, [float(t_q)])
        self.assert_same(snap, [t_last + d for d in (0.0, 250.0, 500.0, 1000.0)])
        self.assert_same(snap, snap.history_times)

    def test_empty_query(self, forecast_snapshot):
        predictions = predict_parameters(forecast_snapshot, [])
        assert sorted(predictions) == sorted(forecast_snapshot.gp_models)
        for prediction in predictions.values():
            assert prediction.inputs.shape == (0,)
            assert prediction.mean.shape == prediction.variance.shape == (0,)
        self.assert_same(forecast_snapshot, [])


class TestExports:
    def test_estimates_and_track_csv(self, tmp_path):
        system = build_duffing_2dof()
        cfg = quick_config()
        times = np.arange(6) * 50.0
        sched = DegradationSchedule.for_system(system)
        truth = np.array([degraded_stiffness(sched, t) for t in times])
        snap = fabricate_snapshot(system, cfg, times, truth)
        est_path = tmp_path / "estimates.csv"
        write_estimates_csv(snap, est_path)
        lines = est_path.read_text().splitlines()
        assert lines[0] == "t_s,k1,sd_k1,k2,sd_k2"
        assert len(lines) == 7
        track_path = tmp_path / "track.csv"
        write_gp_track_csv(snap, track_path, np.arange(0.0, 400.0, 100.0))
        header = track_path.read_text().splitlines()[0]
        assert header == ("t_s,k1_mean,k1_sd,k1_lo95,k1_hi95,"
                          "k2_mean,k2_sd,k2_lo95,k2_hi95")


class TestBlockwiseOutputs:
    """What a campaign chunk and an ensemble keep of each finished block of
    steps equals, byte for byte, what the states of the whole window give:
    below one block, at exactly one, and one step past one or more (blocks
    of 256 steps, whatever the path count)."""

    STEPS = [100, _MEASURE_BLOCK, _MEASURE_BLOCK + 1, 2 * _MEASURE_BLOCK + 1,
             4 * _MEASURE_BLOCK + 1]

    @pytest.mark.parametrize("n_steps", STEPS)
    @pytest.mark.parametrize("n_visits", [1, 2, 41])
    @pytest.mark.parametrize("build", [build_duffing_2dof, build_dvp_7dof])
    def test_windows(self, build, n_visits, n_steps):
        system = build()
        n = system.n_dof
        cfg = CampaignConfig(window_duration_s=n_steps * 1e-3, observed_dofs=(1, n))
        schedule = DegradationSchedule.for_system(system)
        visits = [(50.0 * i, 5 + i, i) for i in range(n_visits)]
        windows = twin_mod._synthesize(system, schedule, cfg, visits)
        for window, (accel, std) in zip(windows,
                                         full_state_windows(system, schedule, cfg, visits)):
            assert window.times.shape == (n_steps + 1,)
            assert window.accel.tobytes() == accel.tobytes()
            assert window.accel_noise_std.tobytes() == std.tobytes()

    @pytest.mark.parametrize("n_steps", STEPS)
    @pytest.mark.parametrize("n_draws", [2, 41])
    @pytest.mark.parametrize("build", [build_duffing_2dof, build_dvp_7dof])
    def test_quantiles(self, build, n_draws, n_steps):
        system = build()
        n = system.n_dof
        cfg = quick_config()
        snap = fabricate_snapshot(system, cfg, np.arange(8) * 50.0,
                                  np.tile(system.stiffnesses, (8, 1)))
        duration = n_steps * cfg.integrator.dt
        ens = predict_response_ensemble(snap, 450.0, duration, 3, n_draws=n_draws)
        model = to_state_space(system, range(1, n + 1))
        start = np.zeros((n_draws, model.dim_state))
        start[:, 2 * n:] = ens.stiffness_draws
        full = simulate_window(model, system, start, duration, cfg.integrator,
                               rng=[np.random.default_rng(4 + j) for j in range(n_draws)])
        expected = twin_mod._path_quantiles(full.states[..., :2 * n], ens.levels)
        assert ens.quantiles.shape == (3, n_steps + 1, 2 * n)
        assert ens.quantiles.tobytes() == expected.tobytes()


ENSEMBLE_PEAK = """
import tracemalloc
import numpy as np
from mdoftwin import twin
from mdoftwin.models import DegradationSchedule, build_dvp_7dof
system = build_dvp_7dof()
cfg = twin.CampaignConfig()
snap = twin.new_snapshot(system, cfg, DegradationSchedule.for_system(system))
for t_s in np.arange(8) * 50.0:
    snap.parameter_history.append({
        "t_s": float(t_s), "estimate": system.stiffnesses.tolist(), "stddev": [1.0] * 7,
        "psd_repairs": 0, "n_updates": 0})
twin._retrain_gps(snap, system, cfg)
tracemalloc.start()
twin.predict_response_ensemble(snap, 450.0, 5.0, seed=1, n_draws=100)
print(tracemalloc.get_traced_memory()[1])
"""


def test_ensemble_peak_memory_bounded():
    # the default 100-draw ensemble of 5 s 7-DOF draws at dt = 1e-3 peaked
    # at 99.3 MiB traced with the whole states array (80.1 MiB) and noise
    # weights (11.4 MiB) held; taking its quantiles block by block, it peaks
    # at 45.2 MiB, most of it the draws' first Brownian normals (26.7 MiB)
    peak = int(run_fresh(ENSEMBLE_PEAK).split()[-1]) / 2 ** 20
    assert peak < 105.0, f"traced peak {peak:.1f} MiB"


CHUNK_PEAK = """
import tracemalloc
from mdoftwin import twin
from mdoftwin.models import DegradationSchedule, build_dvp_7dof
system = build_dvp_7dof()
cfg = twin.CampaignConfig()
visits = [(t_s, i, i) for i, t_s in enumerate(twin.campaign_times(cfg))]
tracemalloc.start()
twin._synthesize(system, DegradationSchedule.for_system(system), cfg, visits)
print(len(visits), tracemalloc.get_traced_memory()[1])
"""


def test_campaign_chunk_peak_memory_bounded():
    # the default 41-window 7-DOF chunk peaks at 41.9 MiB traced: the noisy
    # forces, the first Brownian normals and the clean accelerations (11 MiB
    # each) and the windows; it peaked at 67.4 MiB with the whole state path
    # (33 MiB) kept, and keeping that path again would cross the bound
    n_visits, peak = map(int, run_fresh(CHUNK_PEAK).split()[-2:])
    assert n_visits == 41
    assert peak / 2 ** 20 < 50.0, f"traced peak {peak / 2 ** 20:.1f} MiB"
