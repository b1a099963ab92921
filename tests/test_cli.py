"""Command-line interface: exit codes, file contracts, idempotence."""

import json

import numpy as np
import pytest

from mdoftwin.cli import main
from mdoftwin.models import DegradationSchedule, build_duffing_2dof
from mdoftwin.sde import IntegratorConfig
from mdoftwin.twin import (CampaignConfig, MeasurementWindow, TwinSnapshot,
                          generate_window, new_snapshot)


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


class TestFilterCommand:
    def test_filter_window_file(self, tmp_path):
        system = build_duffing_2dof()
        sched = DegradationSchedule.for_system(system)
        cfg_obj = CampaignConfig(window_duration_s=1.0,
                                 integrator=IntegratorConfig(dt=2e-3))
        window = generate_window(system, sched, cfg_obj, 0.0, seed=4)
        window.save(tmp_path / "w0")
        cfg = write_config(tmp_path / "cfg.json", campaign=QUICK_CAMPAIGN,
                           integrator=QUICK_INTEGRATOR)
        out = tmp_path / "out"
        code = main(["filter", "--config", str(cfg), "--out", str(out),
                     "--window", str(tmp_path / "w0")])
        assert code == 0
        summary = json.loads((out / "filter_summary.json").read_text())
        assert abs(summary["parameters"]["k1"]["estimate"] - 1000.0) < 100.0
        lines = (out / "filter_result.csv").read_text().splitlines()
        assert len(lines) == 502


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

    def test_cutoff_days(self, tmp_path):
        code, out = self.run_campaign(tmp_path,
                                      extra_args=["--cutoff-days", "50"])
        assert code == 0
        snap = TwinSnapshot.load(out / "snapshot.json")
        assert snap.windows_processed == 2

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


def _predict_times_argv(times):
    def argv(tmp_path):
        path = tmp_path / "snap.json"
        new_snapshot(build_duffing_2dof(), CampaignConfig()).save(path)
        return ["predict", "--snapshot", str(path), "--out", str(tmp_path / "out"),
                "--times", times]
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
    pytest.param("system", _config_argv({"system": []}), id="system-section"),
    pytest.param("system kind", _config_argv({"system": {"kind": []}}), id="system-kind"),
    pytest.param("config file", _config_argv(5), id="config-document"),
    pytest.param("campaign", _config_argv(
        {"system": {"kind": "duffing_2dof"}, "campaign": []}), id="campaign-section"),
    pytest.param("snapshot", _snapshot_argv("report"), id="report-snapshot"),
    pytest.param("snapshot", _snapshot_argv("predict", "--times", "100"),
                 id="predict-snapshot"),
    pytest.param("--times", _predict_times_argv("nan"), id="predict-times-nan"),
    pytest.param("--times", _predict_times_argv("100,inf"), id="predict-times-inf"),
    pytest.param("--times", _predict_times_argv("abc"), id="predict-times-text"),
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
