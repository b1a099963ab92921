"""Command-line interface: exit codes, file contracts, idempotence."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import MALFORMED_FIELDS, MALFORMED_HISTORIES, save_malformed_snapshot
from mdoftwin.cli import main
from mdoftwin.gpr import GpModel, Kernel
from mdoftwin.models import DegradationSchedule, build_duffing_2dof
from mdoftwin.sde import IntegratorConfig
from mdoftwin.twin import (CampaignConfig, MeasurementWindow, TwinSnapshot,
                          campaign_times, generate_window, new_snapshot)


def write_config(path, *, kind="duffing_2dof", campaign=None, integrator=None,
                 ukf=None, gp=None, system_extra=None):
    doc = {"system": {"kind": kind}}
    if system_extra:
        doc["system"].update(system_extra)
    if campaign:
        doc["campaign"] = campaign
    if integrator:
        doc["integrator"] = integrator
    if ukf:
        doc["ukf"] = ukf
    if gp:
        doc["gp"] = gp
    path.write_text(json.dumps(doc, indent=2))
    return path


QUICK_CAMPAIGN = {
    "horizon_days": 100.0,
    "window_interval_days": 50.0,
    "window_duration_s": 1.0,
}
QUICK_INTEGRATOR = {"dt": 2e-3, "seed": 0}


class TestSimulate:
    def test_default_2dof_shape(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 5002  # header + 5001 samples
        assert len(lines[0].split(",")) == 1 + 4 + 2 + 2
        assert (out / "config_echo.json").exists()
        meta = json.loads((out / "trajectory_meta.json").read_text())
        assert meta["n_samples"] == 5001
        assert meta["scheme"] == "taylor15"

    def test_7dof_column_count(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", kind="dvp_7dof",
                           campaign={"window_duration_s": 0.2},
                           integrator=QUICK_INTEGRATOR)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert len(header.split(",")) == 1 + 14 + 7 + 7

    def test_seed_repeatability(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           campaign={"window_duration_s": 0.5},
                           integrator=QUICK_INTEGRATOR)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "trajectory.csv").read_bytes() == \
            (out2 / "trajectory.csv").read_bytes()
        out3 = tmp_path / "c"
        main(["simulate", "--config", str(cfg), "--out", str(out3),
              "--seed", "99"])
        assert (out1 / "trajectory.csv").read_bytes() != \
            (out3 / "trajectory.csv").read_bytes()

    def test_bad_config_exit_2(self, tmp_path):
        missing = tmp_path / "nope.json"
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(missing),
                     "--out", str(out)]) == 2
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        assert main(["simulate", "--config", str(empty),
                     "--out", str(out)]) == 2
        badkind = write_config(tmp_path / "badkind.json", kind="pendulum")
        assert main(["simulate", "--config", str(badkind),
                     "--out", str(out)]) == 2

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           campaign={"horizon_day": 100.0})
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "'horizon_day'" in capsys.readouterr().err

    def test_unknown_flag_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--frobnicate"]) == 2

    @pytest.mark.parametrize("where", ["a file", "under a file"])
    def test_out_that_cannot_be_a_directory_exit_2(self, tmp_path, capsys, where):
        cfg = write_config(tmp_path / "cfg.json")
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile if where == "a file" else afile / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(str(out)) in err, err
        assert afile.read_text() == "kept\n"


class TestFilterCommand:
    def run_filter(self, tmp_path, campaign=QUICK_CAMPAIGN):
        system = build_duffing_2dof()
        sched = DegradationSchedule.for_system(system)
        cfg_obj = CampaignConfig(window_duration_s=1.0,
                                 integrator=IntegratorConfig(dt=2e-3))
        window = generate_window(system, sched, cfg_obj, 0.0, seed=4)
        window.save(tmp_path / "w0")
        cfg = write_config(tmp_path / "cfg.json", campaign=campaign,
                           integrator=QUICK_INTEGRATOR)
        out = tmp_path / "out"
        code = main(["filter", "--config", str(cfg), "--out", str(out),
                     "--window", str(tmp_path / "w0")])
        return code, out

    def test_filter_window_file(self, tmp_path):
        code, out = self.run_filter(tmp_path)
        assert code == 0
        summary = json.loads((out / "filter_summary.json").read_text())
        assert abs(summary["parameters"]["k1"]["estimate"] - 1000.0) < 100.0
        lines = (out / "filter_result.csv").read_text().splitlines()
        assert len(lines) == 502

    @pytest.mark.parametrize("observed, expected", [([2], 2), ([1, 2], 0)])
    def test_config_dofs_must_match_the_sidecar(self, tmp_path, capsys, observed, expected):
        # the sidecar of the 2-DOF window lists [1, 2]; a config naming other
        # DOFs contradicts it and is rejected before anything is written
        code, out = self.run_filter(tmp_path, {**QUICK_CAMPAIGN, "observed_dofs": observed})
        assert code == expected
        summary = out / "filter_summary.json"
        if expected:
            err = capsys.readouterr().err
            assert "campaign.observed_dofs [2]" in err and "observed_dofs [1, 2]" in err
            assert not summary.exists()
        else:
            assert json.loads(summary.read_text())["observed_dofs"] == [1, 2]


class TestCampaignCommand:
    def run_campaign(self, tmp_path, extra_args=(), campaign=None):
        cfg = write_config(tmp_path / "cfg.json",
                           campaign=campaign or QUICK_CAMPAIGN,
                           integrator=QUICK_INTEGRATOR)
        out = tmp_path / "out"
        code = main(["campaign", "--config", str(cfg), "--out", str(out)]
                    + list(extra_args))
        return code, out

    def test_outputs(self, tmp_path):
        code, out = self.run_campaign(tmp_path)
        assert code == 0
        lines = (out / "estimates.csv").read_text().splitlines()
        assert lines[0] == "t_s,k1,sd_k1,k2,sd_k2"
        assert len(lines) == 4  # header + 3 windows
        assert (out / "snapshot.json").exists()
        assert (out / "gp_track.csv").exists()
        track_header = (out / "gp_track.csv").read_text().splitlines()[0]
        assert "k1_lo95" in track_header and "k2_hi95" in track_header

    def test_partial_measurement_flag(self, tmp_path):
        code, out = self.run_campaign(tmp_path, extra_args=["--observe", "1"])
        assert code == 0
        snap = TwinSnapshot.load(out / "snapshot.json")
        assert snap.config.observed_dofs == (1,)
        assert snap.windows_processed == 3

    @pytest.mark.parametrize("extra_args, observed, source", [
        (["--observe", "3"], None, "--observe"),
        ([], [1, 3], "[1, 3]"),
    ], ids=["flag", "config"])
    def test_dofs_checked_before_anything_is_written(self, tmp_path, capsys,
                                                     extra_args, observed, source):
        campaign = {**QUICK_CAMPAIGN, "observed_dofs": observed}
        code, out = self.run_campaign(tmp_path, extra_args, campaign)
        assert code == 2
        err = capsys.readouterr().err
        assert source in err and "observed_dofs must be unique DOF numbers in 1..2" in err
        assert not (out / "config_echo.json").exists()

    def test_cutoff_days(self, tmp_path):
        code, out = self.run_campaign(tmp_path,
                                      extra_args=["--cutoff-days", "50"])
        assert code == 0
        snap = TwinSnapshot.load(out / "snapshot.json")
        assert snap.windows_processed == 2

    def test_readme_example_config_runs(self, tmp_path):
        # the README's own example once exited 2: its integer plan made
        # numpy-integer window times that the window refused
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("A configuration file is JSON", 1)[1]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(section.split("```json\n", 1)[1].split("```", 1)[0])
        out = tmp_path / "out"
        assert main(["campaign", "--config", str(cfg), "--out", str(out),
                     "--cutoff-days", "0"]) == 0
        assert TwinSnapshot.load(out / "snapshot.json").windows_processed == 1
        assert main(["report", "--snapshot", str(out / "snapshot.json"),
                     "--out", str(tmp_path / "report")]) == 0

    def test_idempotent_reruns(self, tmp_path):
        _, out1 = self.run_campaign(tmp_path)
        cfg = tmp_path / "cfg.json"
        out2 = tmp_path / "out2"
        main(["campaign", "--config", str(cfg), "--out", str(out2)])
        for name in ("snapshot.json", "estimates.csv", "gp_track.csv",
                     "config_echo.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_numeric_failure_persists_partial_campaign(self, tmp_path):
        # a grossly unstable step size blows up generation: exit 3 plus a
        # persisted snapshot recording the rejections
        code, out = self.run_campaign(
            tmp_path, campaign={"horizon_days": 50.0,
                                "window_interval_days": 50.0,
                                "window_duration_s": 5.0})
        assert code == 0
        cfg = write_config(tmp_path / "bad.json",
                           campaign={"horizon_days": 50.0,
                                     "window_interval_days": 50.0,
                                     "window_duration_s": 60.0},
                           integrator={"dt": 0.5})
        out_bad = tmp_path / "outbad"
        with np.errstate(all="ignore"):
            code = main(["campaign", "--config", str(cfg),
                         "--out", str(out_bad)])
        assert code == 3
        snap = TwinSnapshot.load(out_bad / "snapshot.json")
        assert snap.windows_processed == 0
        assert len(snap.rejected_windows) == 2

    def test_zero_amplitude_force_exits_2(self, tmp_path, capsys):
        # a force channel of zero amplitude has no SNR in any window: a
        # config error, reported once instead of a rejection per window
        cfg = write_config(tmp_path / "cfg.json", campaign=QUICK_CAMPAIGN,
                           integrator=QUICK_INTEGRATOR,
                           system_extra={"force_amplitudes": [10, 0]})
        code = main(["campaign", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "zero-variance" in capsys.readouterr().err


class TestPredictAndReport:
    @pytest.fixture()
    def campaign_out(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", campaign=QUICK_CAMPAIGN,
                           integrator=QUICK_INTEGRATOR)
        out = tmp_path / "out"
        assert main(["campaign", "--config", str(cfg),
                     "--out", str(out)]) == 0
        return tmp_path, out

    def test_predict_outputs(self, campaign_out):
        tmp_path, out = campaign_out
        pred_out = tmp_path / "pred"
        code = main(["predict", "--snapshot", str(out / "snapshot.json"),
                     "--out", str(pred_out), "--times", "100,200,400",
                     "--response-at", "200", "--duration", "0.5",
                     "--seed", "3"])
        assert code == 0
        lines = (pred_out / "parameters_prediction.csv").read_text().splitlines()
        assert len(lines) == 4
        assert (pred_out / "response.csv").exists()

    def test_report_full(self, campaign_out, capsys):
        tmp_path, out = campaign_out
        rep_out = tmp_path / "rep"
        code = main(["report", "--snapshot", str(out / "snapshot.json"),
                     "--out", str(rep_out)])
        assert code == 0
        doc = json.loads((rep_out / "report.json").read_text())
        assert doc["status"] == "ok"
        assert doc["windows_processed"] == 3
        assert "accuracy_percent" in doc["parameters"]["k1"]
        assert doc["parameters"]["k1"]["accuracy_percent"] > 90.0
        text = (rep_out / "report.txt").read_text()
        assert "k1" in text and "accuracy" in text

    def test_report_deterministic(self, campaign_out):
        tmp_path, out = campaign_out
        rep1, rep2 = tmp_path / "r1", tmp_path / "r2"
        main(["report", "--snapshot", str(out / "snapshot.json"),
              "--out", str(rep1)])
        main(["report", "--snapshot", str(out / "snapshot.json"),
              "--out", str(rep2)])
        assert (rep1 / "report.json").read_bytes() == \
            (rep2 / "report.json").read_bytes()
        assert (rep1 / "report.txt").read_bytes() == \
            (rep2 / "report.txt").read_bytes()

    def test_report_empty_snapshot(self, tmp_path):
        system = build_duffing_2dof()
        snap = new_snapshot(system, CampaignConfig(), None)
        snap_path = tmp_path / "empty_snap.json"
        snap.save(snap_path)
        rep_out = tmp_path / "rep"
        assert main(["report", "--snapshot", str(snap_path),
                     "--out", str(rep_out)]) == 0
        doc = json.loads((rep_out / "report.json").read_text())
        assert doc["status"] == "no windows processed"

    def test_report_gp_extrapolation(self, tmp_path):
        # GPs trained up to a cutoff below the horizon are scored against
        # the schedule at the grid points past it
        campaign = {**QUICK_CAMPAIGN, "horizon_days": 200.0}
        cfg = write_config(tmp_path / "cfg.json", campaign=campaign, integrator=QUICK_INTEGRATOR)
        out, rep_out = tmp_path / "out", tmp_path / "rep"
        assert main(["campaign", "--config", str(cfg), "--out", str(out),
                     "--cutoff-days", "100"]) == 0
        assert main(["report", "--snapshot", str(out / "snapshot.json"),
                     "--out", str(rep_out)]) == 0
        doc = json.loads((rep_out / "report.json").read_text())
        grid = campaign_times(CampaignConfig.from_dict(campaign))
        n_held_out = int((grid > 100.0).sum())
        assert doc["gp_trained_upto"] == 100.0 and n_held_out == 2
        assert sorted(doc["gp_extrapolation"]) == ["k1", "k2"]
        for err in doc["gp_extrapolation"].values():
            assert err["n_held_out"] == n_held_out
            assert 0.0 <= err["mean_relative_error"] <= err["max_relative_error"]
        lines = (rep_out / "report.txt").read_text().splitlines()
        heading = lines.index("GP extrapolation at held-out slow times (relative error):")
        section = lines[heading + 1:]
        assert [line.split(":")[0].strip() for line in section] == ["k1", "k2"]
        assert all(line.endswith(f"over {n_held_out} points") for line in section)

    def test_non_positive_predicted_stiffness_exits_3(self, tmp_path, capsys):
        # the NumericError is raised inside the subcommand, once the
        # parameter prediction is written, and main reports it
        negative = replace(GP_MODEL, train_targets=[-1.0, -1.5, -0.7, -2.0])
        argv = _gp_snapshot_argv({"k1": negative}, "--response-at", "100",
                                 "--duration", "0.2")(tmp_path)
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == "numeric failure: predicted stiffness not positive at t_s=100.0\n"
        assert (tmp_path / "out" / "parameters_prediction.csv").exists()
        assert not (tmp_path / "out" / "response.csv").exists()

    def test_missing_snapshot_exit_2(self, tmp_path):
        assert main(["report", "--snapshot", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "rep")]) == 2


def _config_argv(doc):
    def argv(tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return ["simulate", "--config", str(path), "--out", str(tmp_path / "out")]
    return argv


def _snapshot_argv(command, *extra):
    def argv(tmp_path):
        path = tmp_path / "snap.json"
        path.write_text("[1, 2]")
        return [command, "--snapshot", str(path), "--out", str(tmp_path / "out"), *extra]
    return argv


def _snapshot_field_argv(key, value):
    def argv(tmp_path):
        path = tmp_path / "snap.json"
        new_snapshot(build_duffing_2dof(), CampaignConfig()).save(path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        return ["report", "--snapshot", str(path), "--out", str(tmp_path / "out")]
    return argv


def _malformed_snapshot_argv(field, value):
    def argv(tmp_path):
        path = tmp_path / "snap.json"
        save_malformed_snapshot(path, field, value)
        return ["report", "--snapshot", str(path), "--out", str(tmp_path / "out")]
    return argv


def _predict_argv(times, *extra):
    def argv(tmp_path):
        path = tmp_path / "snap.json"
        new_snapshot(build_duffing_2dof(), CampaignConfig()).save(path)
        return ["predict", "--snapshot", str(path), "--out", str(tmp_path / "out"),
                "--times", times, *extra]
    return argv


GP_MODEL = GpModel(kernel=Kernel(variance=2.0, lengthscale=1.2), mean_spec="constant",
                   noise_variance=1e-3, train_inputs=[0.0, 1.0, 2.5, 4.0],
                   train_targets=[1.0, -0.5, 0.3, 2.0], nlml=0.0)


def _gp_snapshot_argv(gp_models, *extra):
    """``predict`` on a 2-DOF snapshot holding ``gp_models``."""
    def argv(tmp_path):
        snap = new_snapshot(build_duffing_2dof(), CampaignConfig())
        snap.gp_models = gp_models
        snap.save(tmp_path / "snap.json")
        return ["predict", "--snapshot", str(tmp_path / "snap.json"),
                "--out", str(tmp_path / "out"), "--times", "100", *extra]
    return argv


def _unstackable_gp_argv(**other):
    return _gp_snapshot_argv({"k1": GP_MODEL, "k2": replace(GP_MODEL, **other)})


def _campaign_argv(*extra, **campaign):
    def argv(tmp_path):
        cfg = write_config(tmp_path / "cfg.json", campaign={**QUICK_CAMPAIGN, **campaign},
                           integrator=QUICK_INTEGRATOR)
        return ["campaign", "--config", str(cfg), "--out", str(tmp_path / "out"), *extra]
    return argv


def _sidecar_argv(key, value):
    def argv(tmp_path):
        window = MeasurementWindow(
            t_s=0.0, times=np.arange(5) * 1e-3, accel=np.zeros((5, 2)),
            force=np.zeros((5, 2)), observed_dofs=(1, 2),
            accel_noise_std=np.full(2, 0.1), force_noise_std=np.full(2, 0.1))
        _, sidecar = window.save(tmp_path / "w0")
        doc = json.loads(sidecar.read_text())
        doc[key] = value
        sidecar.write_text(json.dumps(doc))
        cfg = write_config(tmp_path / "cfg.json")
        return ["filter", "--config", str(cfg), "--out", str(tmp_path / "out"),
                "--window", str(tmp_path / "w0")]
    return argv


MALFORMED_INPUTS = [
    pytest.param("masses", _config_argv(
        {"system": {"kind": "duffing_2dof", "masses": "abc"}}), id="system-vector"),
    pytest.param("stiffnesses", _config_argv(
        {"system": {"kind": "duffing_2dof", "stiffnesses": ["1000", "500"]}}),
        id="system-vector-entries"),
    pytest.param("nonlinear_coeff", _config_argv(
        {"system": {"kind": "duffing_2dof", "nonlinear_coefficient": "x"}}), id="system-scalar"),
    pytest.param("symmetric_consistent", _config_argv(
        {"system": {"kind": "dvp_7dof", "symmetric_consistent": "no"}}), id="system-flag"),
    pytest.param("masses", _config_argv(
        {"system": {"kind": "duffing_2dof", "masses": [float("nan"), 10.0]}}),
        id="system-vector-nan"),
    pytest.param("system", _config_argv({"system": []}), id="system-section"),
    pytest.param("system kind", _config_argv({"system": {"kind": []}}), id="system-kind"),
    pytest.param("config file", _config_argv(5), id="config-document"),
    pytest.param("campaign", _config_argv(
        {"system": {"kind": "duffing_2dof"}, "campaign": []}), id="campaign-section"),
    pytest.param("horizon_days", _config_argv(
        {"system": {"kind": "duffing_2dof"}, "campaign": {"horizon_days": float("nan")}}),
        id="campaign-scalar-nan"),
    pytest.param("scheme", _config_argv(
        {"system": {"kind": "duffing_2dof"}, "integrator": {"scheme": "taylor15"}}),
        id="integrator-scheme"),
    pytest.param("standardize", _config_argv(
        {"system": {"kind": "duffing_2dof"}, "gp": {"standardize": True}}), id="gp-standardize"),
    pytest.param("q_extra_diag", _config_argv(
        {"system": {"kind": "duffing_2dof"}, "ukf": {"q_extra_diag": 1e-4}}),
        id="ukf-q-extra-diag"),
    pytest.param("snapshot", _snapshot_argv("report"), id="report-snapshot"),
    pytest.param("gp_trained_upto", _snapshot_field_argv("gp_trained_upto", float("inf")),
                 id="snapshot-field-inf"),
    pytest.param("TwinSnapshot.version must be 3, got 2", _snapshot_field_argv("version", 2),
                 id="snapshot-version-2"),
    pytest.param("schedule.k0", _snapshot_field_argv("schedule", {"k0": [1000.0]}),
                 id="snapshot-schedule-short"),
    *[pytest.param(param.values[2], _snapshot_field_argv(*param.values[:2]),
                   id=f"snapshot-history-{param.id}") for param in MALFORMED_HISTORIES],
    *[pytest.param(param.values[2], _malformed_snapshot_argv(*param.values[:2]),
                   id=f"snapshot-field-{param.id}") for param in MALFORMED_FIELDS],
    pytest.param("snapshot", _snapshot_argv("predict", "--times", "100"),
                 id="predict-snapshot"),
    pytest.param("--times", _predict_argv("nan"), id="predict-times-nan"),
    pytest.param("--times", _predict_argv("100,inf"), id="predict-times-inf"),
    pytest.param("--times", _predict_argv("abc"), id="predict-times-text"),
    pytest.param("--response-at", _predict_argv("100", "--response-at", "nan"),
                 id="predict-response-at-nan"),
    pytest.param("--duration", _predict_argv("100", "--response-at", "100", "--duration", "nan"),
                 id="predict-duration-nan"),
    pytest.param("--duration", _predict_argv("100", "--response-at", "100", "--duration", "inf"),
                 id="predict-duration-inf"),
    pytest.param("train_inputs", _unstackable_gp_argv(
        train_inputs=[0.0, 1.0, 2.5], train_targets=[1.0, -0.5, 0.3]),
        id="predict-gp-lengths"),
    pytest.param("kernel.family", _unstackable_gp_argv(
        kernel=Kernel(family="matern-5/2", variance=2.0, lengthscale=1.2)),
        id="predict-gp-families"),
    *[pytest.param(f"gp_models key {key!r} names no tracked stiffness", _gp_snapshot_argv(
        {key: GP_MODEL}, "--response-at", "100", "--duration", "0.2"),
        id=f"predict-gp-name-{key}") for key in ("kx", "k9")],
    pytest.param("--cutoff-days", _campaign_argv("--cutoff-days", "nan"),
                 id="campaign-cutoff-nan"),
    pytest.param("--track-extension-days", _campaign_argv("--track-extension-days", "inf"),
                 id="campaign-extension-inf"),
    pytest.param("--observe", _campaign_argv("--observe", "1,x"), id="campaign-observe-text"),
    pytest.param("observed_dofs", _campaign_argv("--observe", "3"),
                 id="campaign-observe-range"),
    pytest.param("observed_dofs", _campaign_argv(observed_dofs=[3]),
                 id="campaign-config-dofs"),
    pytest.param("master_seed", _campaign_argv(master_seed=-3), id="campaign-master-seed"),
    pytest.param("seed must be a non-negative integer", _config_argv(
        {"system": {"kind": "duffing_2dof"}, "integrator": {"seed": -4}}),
        id="integrator-seed"),
    pytest.param("argument --seed", _campaign_argv("--seed", "-1"), id="campaign-seed-flag"),
    pytest.param("argument --seed: must be a non-negative integer, got '1.5'",
                 _campaign_argv("--seed", "1.5"), id="campaign-seed-flag-fraction"),
    pytest.param("argument --seed", _predict_argv("100", "--seed", "-1"),
                 id="predict-seed-flag"),
    pytest.param("t_s", _sidecar_argv("t_s", "abc"), id="sidecar-time"),
    pytest.param("t_s", _sidecar_argv("t_s", float("nan")), id="sidecar-time-nan"),
    pytest.param("provenance", _sidecar_argv("provenance", [1]), id="sidecar-provenance"),
    pytest.param("observed_dofs", _sidecar_argv("observed_dofs", "12"), id="sidecar-dofs"),
    pytest.param("accel_noise_std", _sidecar_argv("accel_noise_std", "abc"),
                 id="sidecar-noise"),
    pytest.param("accel_noise_std", _sidecar_argv("accel_noise_std", [0.1, float("inf")]),
                 id="sidecar-noise-inf"),
]


@pytest.mark.parametrize("field, argv", MALFORMED_INPUTS)
def test_malformed_input_exits_2_naming_the_field(tmp_path, capsys, field, argv):
    assert main(argv(tmp_path)) == 2
    # the temporary path is dropped so that only the message can name the field
    assert field in capsys.readouterr().err.replace(str(tmp_path), "")
