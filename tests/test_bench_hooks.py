"""The traced benchmark patches library names by lookup in the module
dictionaries (``perfbench/tracer.py``); a refactor that deletes or renames
one of them breaks the traced run, so installing the hooks is tested here."""

from pathlib import Path

import numpy as np

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


def test_traced_layers_report_finite_sde_and_model_metrics(monkeypatch):
    # the traced benchmark is correct only when every per-layer metric is
    # finite; a model partial or layer that is never called reads NaN
    monkeypatch.syspath_prepend(str(PERFBENCH))
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
    finally:
        tracer.uninstall()
    metrics = layer_metrics(SpanTable(tracer), draws=2)
    layers = {name: value for name, (value, _) in metrics.items()
              if name.startswith(("sde.", "models."))}
    assert layers and all(np.isfinite(v) for v in layers.values()), layers
