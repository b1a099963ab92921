"""The traced benchmark patches library names by lookup in the module
dictionaries (``perfbench/tracer.py``); a refactor that deletes or renames
one of them breaks the traced run, so installing the hooks is tested here."""

from pathlib import Path

import numpy as np
import pytest

import mdoftwin.twin as twin
import mdoftwin.ukf as ukf
from mdoftwin.models import DegradationSchedule, build_dvp_7dof

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    predict, cholesky = ukf.predict, np.linalg.cholesky
    tracer = Tracer()
    try:
        tracer.install()
        assert ukf.predict is not predict
    finally:
        tracer.uninstall()
    assert ukf.predict is predict
    assert np.linalg.cholesky is cholesky


@pytest.fixture(scope="module")
def traced_metrics():
    """Per-layer metrics of a traced 7-DOF run: three 0.5 s windows generated
    and assimilated (the third trains the GPs), one 2-draw ensemble and one
    parameter query."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        from tracer import SpanTable, Tracer, layer_metrics

        system = build_dvp_7dof()
        cfg = twin.CampaignConfig(window_duration_s=0.5, master_seed=3)
        schedule = DegradationSchedule.for_system(system)
        snapshot = twin.new_snapshot(system, cfg, schedule)
        tracer = Tracer()
        try:
            tracer.install()
            for i, t_s in enumerate(twin.campaign_times(cfg)[:3]):
                window = tracer.call("twin.generate_window", twin.generate_window,
                                     system, schedule, cfg, t_s, cfg.master_seed + i, i)
                tracer.call("twin.assimilate", twin.assimilate_window, snapshot, window)
            tracer.call("twin.ensemble", twin.predict_response_ensemble,
                        snapshot, 600.0, 0.5, 7, n_draws=2)
            tracer.call("twin.predict_parameters", twin.predict_parameters,
                        snapshot, [700.0])
        finally:
            tracer.uninstall()
        table = SpanTable(tracer)
        metrics = {name: value for name, (value, _) in
                   layer_metrics(table, draws=2).items()}
        metrics["spans"] = {name: table.n(name) for name in table.names}
        return metrics


def test_traced_layers_report_finite_sde_and_model_metrics(traced_metrics):
    # the traced benchmark is correct only when every per-layer metric is
    # finite; a model partial or layer that is never called reads NaN
    layers = {name: value for name, value in traced_metrics.items()
              if name.startswith(("sde.", "models."))}
    assert layers and all(np.isfinite(v) for v in layers.values()), layers


def test_traced_read_side_reports_finite_gp_metrics(traced_metrics):
    # a query that stops calling gpr.predict by module name reads NaN in
    # gpr.predict_us
    layers = {name: value for name, value in traced_metrics.items()
              if name.startswith("gpr.") or name == "twin.predict_parameters_self_us"}
    assert "gpr.predict_us" in layers
    assert all(np.isfinite(v) for v in layers.values()), layers


def test_each_parameter_query_is_one_gp_prediction(traced_metrics):
    # the ensemble's query and the direct one (the only query traced as a
    # twin.predict_parameters span): a query path that skips the module
    # name reads fewer here, and one that predicts twice reads more
    spans = traced_metrics["spans"]
    assert spans["twin.predict_parameters"] == 1
    assert spans["gpr.predict"] == 2


def test_traced_filter_reports_finite_ukf_metrics(traced_metrics):
    # predict, update, sigma_points and cho_factor are called by module name,
    # so every ukf metric is finite; a sample costs three factorizations (two
    # PSD tests and the innovation factor) and each 500-sample window's prior
    # one more
    layers = {name: value for name, value in traced_metrics.items()
              if name.startswith("ukf.")}
    assert layers and all(np.isfinite(v) for v in layers.values()), layers
    assert layers["ukf.factorizations_per_sample"] == pytest.approx(3.002, rel=1e-12)


def test_traced_filter_keeps_one_span_per_sample_and_stage(traced_metrics):
    # the filter stays a per-sample loop over the traced names: three
    # 500-sample windows give 1500 predict and 1500 update spans, one
    # sigma-point set per half-step and one measurement call per sample
    spans = traced_metrics["spans"]
    assert spans["ukf.run_filter"] == 3
    assert spans["ukf.predict"] == spans["ukf.update"] == 1500
    assert spans["ukf.sigma_points"] == 3000
    assert traced_metrics["models.measure.calls"] == 1.0
