"""Campaign generation, assimilation, snapshot persistence, prediction."""

import copy
import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from mdoftwin.cli import main
from mdoftwin.errors import InvalidParameterError, NumericError
from mdoftwin.models import (DegradationSchedule, build_duffing_2dof,
                             build_dvp_7dof, to_state_space,
                             degraded_stiffness)
from mdoftwin.sde import IntegratorConfig, simulate_window
from mdoftwin import gpr
from mdoftwin import twin as twin_mod
from mdoftwin.twin import (CampaignConfig, MeasurementWindow, TwinSnapshot,
                           UkfRunConfig, assimilate_window, campaign_times,
                           filter_window, generate_campaign, generate_window,
                           new_snapshot, predict_parameters, predict_response,
                           predict_response_ensemble,
                           predicted_stiffness_vector, write_estimates_csv,
                           write_gp_track_csv)


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
    snap.windows_processed = len(snap.parameter_history)
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
        lambda rows, side: [row[:-1] for row in rows],
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
        windows = generate_campaign(system, sched, cfg)
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
        w1 = generate_campaign(system, sched, cfg)
        w2 = generate_campaign(system, sched, cfg)
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
        windows = generate_campaign(system, sched, cfg)
        for i, (t_s, batched) in enumerate(zip(campaign_times(cfg), windows)):
            alone = generate_window(system, sched, cfg, t_s,
                                    cfg.master_seed + i, i)
            np.testing.assert_array_equal(batched.force, alone.force)
            scale = np.max(np.abs(alone.accel))
            assert np.max(np.abs(batched.accel - alone.accel)) <= 1e-10 * scale
            assert batched.provenance == alone.provenance
            assert batched.t_s == alone.t_s

    def test_diverging_window_named(self):
        # stiffness growing with service time makes the explicit scheme
        # unstable from some window on; the batch names the first one, as
        # generating the windows one by one finds it
        system = build_duffing_2dof()
        sched = DegradationSchedule(k0=[1e6, 500.0], rate_per_day=-0.01)
        cfg = quick_config()
        first = None
        for i, t_s in enumerate(campaign_times(cfg)):
            try:
                generate_window(system, sched, cfg, t_s, cfg.master_seed + i, i)
            except NumericError:
                first = i
                break
        assert first is not None and first > 0
        with pytest.raises(NumericError, match=rf"^window {first} \(t_s="):
            generate_campaign(system, sched, cfg)


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
        assert "filter failure" in snap.rejected_windows[0]["reason"]
        good = generate_window(system, sched, cfg, 100.0, seed=42)
        assimilate_window(snap, good)
        assert snap.windows_processed == 2
        times = snap.history_times
        assert np.all(np.diff(times) > 0)

    def test_warm_start_improves_on_cold_window(self):
        # estimates improve once windows warm-start from earlier terminals
        system = build_duffing_2dof()
        sched = DegradationSchedule.for_system(system)
        cfg = quick_config(horizon_days=250.0)
        cfg = replace(cfg, ukf=replace(cfg.ukf, init_offset_factor=0.6))
        snap = new_snapshot(system, cfg, sched)
        for i, t_s in enumerate(campaign_times(cfg)):
            window = generate_window(system, sched, cfg, t_s,
                                     cfg.master_seed + i, i)
            assimilate_window(snap, window)
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


class TestSnapshotPersistence:
    def test_round_trip_byte_identical(self, tmp_path):
        system = build_duffing_2dof()
        sched = DegradationSchedule.for_system(system)
        cfg = quick_config()
        snap = new_snapshot(system, cfg, sched)
        for i, t_s in enumerate(campaign_times(cfg)[:3]):
            window = generate_window(system, sched, cfg, t_s,
                                     cfg.master_seed + i, i)
            assimilate_window(snap, window)
        p1 = tmp_path / "snap1.json"
        p2 = tmp_path / "snap2.json"
        snap.save(p1)
        again = TwinSnapshot.load(p1)
        again.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

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

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "system": {}, "config": {}}))
        with pytest.raises(InvalidParameterError):
            TwinSnapshot.load(path)


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
