"""The benchmark workloads, driven through the public mdoftwin API.

All three are closed loops with a single caller; every input derives from
the seed. ``track-2dof`` and ``track-7dof`` run the write side of the twin
(generate a window, assimilate it, retrain the GPs), with parameter queries
and small response ensembles between windows. ``forecast`` sets up a short
7-DOF twin and times the read side: streams of single-time parameter
queries and response ensembles. Every workload measures every end-to-end
metric, so the set-up of ``forecast`` also times the windows it assimilates.

Timers bracket only the library calls; correctness checks and fingerprints
run between them. Every timed stretch is calibrated to a fixed host speed
(``hostspeed.py``); the raw wall times are recorded beside.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hostspeed import NO_TIME, HostSpeed, Timing
from mdoftwin import twin
from mdoftwin.errors import MdofTwinError
from mdoftwin.models import (DegradationSchedule, build_duffing_2dof,
                             build_dvp_7dof, degraded_stiffness)

clock = time.perf_counter

# setup_s is the median of three set-ups
SETUP_REPEATS = 3
# loop windows that always run; the fingerprint is taken after the last one
MIN_LOOP_WINDOWS = 4
# forecast set-up: the smallest campaign that trains a GP for every tracked
# stiffness, on 2 s windows so that three set-ups stay affordable (2 s
# windows still meet criterion 3's tolerances)
FORECAST_WINDOWS = 3
FORECAST_WINDOW_S = 2.0
# response ensembles simulate one default-length window per draw
ENSEMBLE_DURATION_S = twin.CampaignConfig().window_duration_s
# forecast distance past the last window, as in acceptance criterion 4
LEAD_DAYS = 500.0
# query times are drawn over this many days past the last window
QUERY_SPAN_DAYS = 1000.0
# queries are timed one by one and calibrated in bursts of this many
QUERY_BURST = 100
# ensembles are calls of the smallest size the library accepts, so that each
# is calibrated over a second or two
ENSEMBLE_DRAWS = 2
# track-*: once GPs exist, every window is followed by bursts of queries and
# an ensemble
TRACK_QUERY_BURSTS = 6
# forecast: each set-up round is followed by a query stream for this share
# of its slice of --seconds and ensembles whose count grows with it
FORECAST_QUERY_SHARE = 0.25
FORECAST_DRAWS_PER_S = 0.5

SYSTEMS = {"2dof": build_duffing_2dof, "7dof": build_dvp_7dof}
# per-entry tolerances of acceptance criteria 1 (2-DOF) and 3 (7-DOF);
# criterion 3 sets none for the frozen k4
TOLERANCES = {
    "2dof": (0.02, 0.05),
    "7dof": (0.06, 0.02, 0.02, None, 0.02, 0.06, 0.06),
}


class Untraced:
    """Stand-in for the tracer: calls straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


TIMED = ("setup_s", "window_s", "assimilate_s", "query_s", "ensemble_s")


@dataclass
class Record:
    """What one run measured and checked.

    ``timings`` holds a Timing per sample of each TIMED quantity;
    ``window_s`` is generate + assimilate.
    """

    timings: dict = field(default_factory=lambda: {name: [] for name in TIMED})
    query_bursts: list = field(default_factory=list)  # queries per burst
    kernel_s: list = field(default_factory=list)  # reference kernel timings
    windows_attempted: int = 0
    windows_failed: int = 0
    ops_attempted: int = 0  # queries, ensembles, forecasts, round trips
    ops_failed: int = 0
    failures: list = field(default_factory=list)
    k_rel_err: list = field(default_factory=list)
    forecast_rel_err: list = field(default_factory=list)
    snapshot_bytes: int = 0
    fingerprint: dict = field(default_factory=dict)

    def timed(self, name: str, timing: Timing) -> None:
        self.timings[name].append(timing)

    def window_outcome(self, failure: str | None) -> None:
        self.windows_attempted += 1
        if failure:
            self.windows_failed += 1
            self.failures.append(failure)

    def op_outcome(self, failure: str | None) -> None:
        self.ops_attempted += 1
        if failure:
            self.ops_failed += 1
            self.failures.append(failure)


@dataclass
class WindowOutcome:
    """One generated and assimilated window.

    ``total`` (generate + assimilate) and ``assimilate`` are None when a
    call raised; ``k_err`` is the largest relative error of a tracked
    stiffness, None without a finite estimate.
    """

    total: Timing | None
    assimilate: Timing | None
    k_err: float | None
    failure: str | None


def band_failure(predictions: dict) -> str | None:
    """GP bands must be finite and ordered lo <= mean <= hi."""
    for name, pred in predictions.items():
        lo, hi = pred.confidence_band
        if not (np.all(np.isfinite(pred.mean)) and np.all(np.isfinite(lo))
                and np.all(np.isfinite(hi))):
            return f"{name}: non-finite GP band"
        if np.any(lo > pred.mean) or np.any(pred.mean > hi):
            return f"{name}: GP band out of order"
    return None


class Campaign:
    """One benchmark system with its degradation schedule and default config."""

    def __init__(self, kind: str, seed: int, probe, **campaign):
        self.system = SYSTEMS[kind]()
        self.cfg = twin.CampaignConfig(master_seed=seed, **campaign)
        self.schedule = DegradationSchedule.for_system(
            self.system, rate_per_day=self.cfg.degradation_rate_per_day)
        self.grid = twin.campaign_times(self.cfg)
        self.tolerances = TOLERANCES[kind]
        frozen = set(self.system.frozen_indices)
        self.tracked = [j for j in range(self.system.n_dof) if j + 1 not in frozen]
        self.seed = seed
        self.probe = probe
        # a traced run keeps the kernel out of the library's spans
        self.speed = HostSpeed(in_call=isinstance(probe, Untraced))
        self._query_rng = np.random.default_rng(seed)

    def new_snapshot(self) -> twin.TwinSnapshot:
        return twin.new_snapshot(self.system, self.cfg, self.schedule)

    def step(self, snapshot, i: int) -> WindowOutcome:
        """Generate and assimilate window i, and check its estimate."""
        t_s = float(self.grid[i])
        n_before = len(snapshot.parameter_history)
        try:
            window, generate, _ = self.speed.call(
                self.probe.call, "twin.generate_window", twin.generate_window,
                self.system, self.schedule, self.cfg, t_s, self.cfg.master_seed + i, i)
            _, assimilate, _ = self.speed.call(
                self.probe.call, "twin.assimilate", twin.assimilate_window,
                snapshot, window)
        except MdofTwinError as exc:
            return WindowOutcome(None, None, None, f"window {i}: {exc}")
        total = generate + assimilate
        history = snapshot.parameter_history
        if len(history) == n_before:
            reason = snapshot.rejected_windows[-1]["reason"]
            return WindowOutcome(total, assimilate, None, f"window {i} rejected: {reason}")
        estimate = np.asarray(history[-1]["estimate"])
        truth = degraded_stiffness(self.schedule, t_s)
        rel = np.abs(estimate - truth) / truth
        if not np.all(np.isfinite(rel)):
            return WindowOutcome(total, assimilate, None, f"window {i}: non-finite estimate")
        over = [f"k{j + 1} {rel[j]:.2%} > {tol:.0%}"
                for j, tol in enumerate(self.tolerances)
                if tol is not None and not rel[j] < tol]
        failure = f"window {i}: " + ", ".join(over) if over else None
        return WindowOutcome(total, assimilate, float(rel[self.tracked].max()), failure)

    def forecast(self, snapshot, rec: Record) -> None:
        """GP mean against the true stiffness LEAD_DAYS past the last window."""
        t_future = snapshot.history_times[-1] + LEAD_DAYS
        try:
            predictions = twin.predict_parameters(snapshot, [t_future])
        except MdofTwinError as exc:
            rec.op_outcome(f"forecast: {exc}")
            return
        truth = degraded_stiffness(self.schedule, t_future)
        rec.forecast_rel_err.append(max(
            abs(float(pred.mean[0]) - truth[int(name[1:]) - 1])
            / truth[int(name[1:]) - 1] for name, pred in predictions.items()))
        rec.op_outcome(band_failure(predictions))

    def fingerprint(self, snapshot) -> dict:
        """Estimates so far plus GP means at fixed lead times, with SHA-256."""
        t_last = float(snapshot.history_times[-1])
        gp_times = [t_last + d for d in (0.0, 250.0, 500.0, 1000.0)]
        doc = {
            "t_s": [float(t) for t in snapshot.history_times],
            "estimates": [list(map(float, row))
                          for row in snapshot.history_estimates],
            "gp_times": gp_times,
            "gp_means": {},
        }
        if snapshot.gp_models:
            predictions = twin.predict_parameters(snapshot, gp_times)
            doc["gp_means"] = {name: [float(v) for v in pred.mean]
                               for name, pred in sorted(predictions.items())}
        payload = json.dumps(doc, sort_keys=True).encode()
        return {"sha256": hashlib.sha256(payload).hexdigest(), "values": doc}

    def round_trip(self, snapshot, path: Path):
        """Save and reload the twin as ``mdoftwin predict`` does."""
        self.probe.call("twin.snapshot_save", snapshot.save, path)
        return self.probe.call("twin.snapshot_load", twin.TwinSnapshot.load, path)

    def _query_burst(self, snapshot, t_last: float) -> list:
        """QUERY_BURST single-time queries, each timed on its own; returns
        (t_q, seconds or None, predictions or the error) per query."""
        out = []
        for _ in range(QUERY_BURST):
            t_q = t_last + float(self._query_rng.uniform(0.0, QUERY_SPAN_DAYS))
            try:
                t0, in_call = clock(), self.speed.in_call_s
                predictions = self.probe.call(
                    "twin.predict_parameters", twin.predict_parameters,
                    snapshot, [t_q])
                elapsed = clock() - t0 - (self.speed.in_call_s - in_call)
                out.append((t_q, elapsed, predictions))
            except MdofTwinError as exc:
                out.append((t_q, None, exc))
        return out

    def queries(self, snapshot, rec: Record, *, count: int = 0,
                budget_s: float = 0.0) -> None:
        """Parameter queries in bursts: at least ``count``, and until
        ``budget_s`` has passed. Each burst is one calibrated stretch."""
        t_last = float(snapshot.history_times[-1])
        deadline = clock() + budget_s
        done = 0
        while done < count or clock() < deadline:
            burst, _, factor = self.speed.call(self._query_burst, snapshot, t_last)
            timed = 0
            for t_q, elapsed, result in burst:
                if elapsed is None:
                    rec.op_outcome(f"query at t_s={t_q}: {result}")
                    continue
                rec.timed("query_s", Timing(elapsed, elapsed * factor))
                timed += 1
                rec.op_outcome(band_failure(result))
            rec.query_bursts.append(timed)
            done += QUERY_BURST

    def ensemble(self, snapshot, rec: Record) -> None:
        """One response ensemble of ENSEMBLE_DRAWS draws, LEAD_DAYS past the
        last window."""
        t_future = float(snapshot.history_times[-1]) + LEAD_DAYS
        try:
            result, timing, _ = self.speed.call(
                self.probe.call, "twin.ensemble", twin.predict_response_ensemble,
                snapshot, t_future, ENSEMBLE_DURATION_S, self.seed,
                n_draws=ENSEMBLE_DRAWS)
        except MdofTwinError as exc:
            rec.op_outcome(f"ensemble: {exc}")
            return
        q = result.quantiles
        if not np.all(np.isfinite(q)):
            failure = "ensemble: non-finite quantiles"
        elif np.any(np.diff(q, axis=0) < 0.0):
            failure = "ensemble: quantiles out of order"
        else:
            failure = None
        rec.timed("ensemble_s", timing)
        rec.op_outcome(failure)


def round_trip_failure(saved, loaded) -> str | None:
    same = (json.dumps(loaded.to_dict(), sort_keys=True)
            == json.dumps(saved.to_dict(), sort_keys=True))
    return None if same else "snapshot changed in a save/load round trip"


def _record_window(rec: Record, outcome: WindowOutcome, *, timed: bool,
                   checked: bool = True) -> None:
    if timed and outcome.total is not None:
        rec.timed("window_s", outcome.total)
        rec.timed("assimilate_s", outcome.assimilate)
    if checked:
        if outcome.k_err is not None:
            rec.k_rel_err.append(outcome.k_err)
        rec.window_outcome(outcome.failure)


def _rerun_failure(first: list, again: list) -> str | None:
    """Repeated set-ups must reproduce the first one's estimate history."""
    return None if again == first else "a repeated set-up gave different estimates"


def run_track(kind: str, seed: int, seconds: float, probe, work_dir: Path) -> Record:
    """Window loop on a default campaign, with reads between windows.

    Set-up commissions the twin: a fresh snapshot and its cold-start window
    at t_s = 0, SETUP_REPEATS times, each repeat checked against the first.
    The loop then runs warm-started windows in service order for
    ``seconds`` (at least MIN_LOOP_WINDOWS of them); the GPs retrain after
    every window from the third on. Between windows come the reads, which
    are not part of the window times.
    """
    c = Campaign(kind, seed, probe)
    rec = Record(kernel_s=c.speed.kernel_s)

    def commission():
        snapshot, timing, _ = c.speed.call(c.new_snapshot)
        outcome = c.step(snapshot, 0)
        rec.timed("setup_s", timing + (outcome.total or NO_TIME))
        return snapshot, outcome

    snapshot, outcome = commission()
    _record_window(rec, outcome, timed=False)
    first = copy.deepcopy(snapshot.parameter_history)
    for _ in range(SETUP_REPEATS - 1):
        rec.op_outcome(_rerun_failure(first, commission()[0].parameter_history))

    start = clock()
    i = 1
    while i < c.grid.shape[0] and (i <= MIN_LOOP_WINDOWS or clock() < start + seconds):
        _record_window(rec, c.step(snapshot, i), timed=True)
        if i == MIN_LOOP_WINDOWS:
            rec.fingerprint = c.fingerprint(snapshot)
        if snapshot.gp_models:
            c.queries(snapshot, rec, count=TRACK_QUERY_BURSTS * QUERY_BURST)
            c.ensemble(snapshot, rec)
        i += 1

    c.forecast(snapshot, rec)
    path = work_dir / f"snapshot-track-{kind}.json"
    rec.op_outcome(round_trip_failure(snapshot, c.round_trip(snapshot, path)))
    rec.snapshot_bytes = path.stat().st_size
    return rec


def run_forecast(seed: int, seconds: float, probe, work_dir: Path) -> Record:
    """Read side of a short 7-DOF twin, reloaded from its saved snapshot.

    Each of SETUP_REPEATS rounds sets the twin up again (FORECAST_WINDOWS
    windows of FORECAST_WINDOW_S, then a save and a reload), which supplies
    setup_s, windows_per_s and assimilate_s.p50, and then reads it: a query
    stream and response ensembles.
    """
    c = Campaign("7dof", seed, probe, window_duration_s=FORECAST_WINDOW_S)
    rec = Record(kernel_s=c.speed.kernel_s)
    path = work_dir / "snapshot-forecast.json"
    query_budget_s = FORECAST_QUERY_SHARE * seconds / SETUP_REPEATS
    n_ensembles = max(1, math.floor(
        FORECAST_DRAWS_PER_S * seconds / SETUP_REPEATS / ENSEMBLE_DRAWS))
    first = None
    for _ in range(SETUP_REPEATS):
        snapshot, setup, _ = c.speed.call(c.new_snapshot)
        outcomes = [c.step(snapshot, i) for i in range(FORECAST_WINDOWS)]
        loaded, round_trip, _ = c.speed.call(c.round_trip, snapshot, path)
        for outcome in outcomes:
            setup += outcome.total or NO_TIME
            _record_window(rec, outcome, timed=True, checked=first is None)
        rec.timed("setup_s", setup + round_trip)
        if first is None:
            first = loaded.parameter_history
            rec.op_outcome(round_trip_failure(snapshot, loaded))
            rec.snapshot_bytes = path.stat().st_size
            rec.fingerprint = c.fingerprint(loaded)
        else:
            rec.op_outcome(_rerun_failure(first, loaded.parameter_history))
        c.queries(loaded, rec, count=QUERY_BURST, budget_s=query_budget_s)
        for _ in range(n_ensembles):
            c.ensemble(loaded, rec)
    c.forecast(loaded, rec)
    return rec


WORKLOADS = {
    "track-2dof": lambda seed, seconds, probe, work_dir: run_track(
        "2dof", seed, seconds, probe, work_dir),
    "track-7dof": lambda seed, seconds, probe, work_dir: run_track(
        "7dof", seed, seconds, probe, work_dir),
    "forecast": run_forecast,
}
