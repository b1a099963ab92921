"""In-memory span tracing of the mdoftwin layers, installed for a traced run.

The benchmark never edits the library. For a traced run it replaces the
module-level names that callers look up at call time (``mdoftwin.ukf.predict``,
``mdoftwin.twin.run_filter``, ...) with wrappers that record one span per
call: name, start, end, parent span and whether the call raised. The
callables of every ``StateSpaceModel`` built through ``twin.to_state_space``
are wrapped as well. A few cheap numpy/parsing calls are only counted, keyed
by the innermost open span, so that they do not split a layer's self time.

Spans live in flat arrays while the run lasts and are written out once at
the end; self times are derived from them afterwards.
"""

from __future__ import annotations

import dataclasses
import json
import time
from array import array
from collections import Counter

import numpy as np

import mdoftwin.gpr as gpr
import mdoftwin.twin as twin
import mdoftwin.ukf as ukf
from mdoftwin.models import MdofSystem


class Tracer:
    """Span recorder: parallel arrays indexed by span id, plus a counter."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.counts: Counter = Counter()  # (counter name, enclosing span name)
        self._stack = [-1]
        self._undo: list = []
        self._callers: dict = {}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records a span."""
        nid = self.intern(name)
        stack, starts, ends, failed = self._stack, self.start, self.end, self.failed
        name_ids, parents, clock = self.name_id, self.parent, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            failed.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        """Return ``fn`` wrapped so that calls (and raising calls) are counted."""
        stack, name_ids, names, counts = self._stack, self.name_id, self.names, self.counts

        def counted(*args, **kwargs):
            ctx = names[name_ids[stack[-1]]] if stack[-1] >= 0 else ""
            counts[(name, ctx)] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                counts[(name + ".failed", ctx)] += 1
                raise

        counted.__wrapped__ = fn
        return counted

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` under a span: the benchmark's own calls into a layer."""
        key = (name, fn)
        if key not in self._callers:
            self._callers[key] = self.wrap(name, fn)
        return self._callers[key](*args, **kwargs)

    # ---- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Replace the traced names; ``uninstall`` puts the originals back."""
        def wrap_models(fn):
            def build(*args, **kwargs):
                model = fn(*args, **kwargs)
                partials = {
                    field: self.wrap("models.partials", getattr(model, field))
                    for field in ("drift_jacobian", "drift_hessian_quad",
                                  "dispersion_jacobian")
                    if getattr(model, field) is not None}
                return dataclasses.replace(
                    model, drift=self.wrap("models.drift", model.drift),
                    dispersion=self.wrap("models.dispersion", model.dispersion),
                    **partials)
            return build

        def step_counter(fn):
            def simulate(*args, **kwargs):
                trajectory = fn(*args, **kwargs)
                self.counts[("sde.steps", "")] += trajectory.times.shape[0] - 1
                return trajectory
            return simulate

        def wrap_measurement(fn):
            def build(*args, **kwargs):
                return self.wrap("models.measure", fn(*args, **kwargs))
            return build

        for attr in ("predict", "update", "sigma_points", "cho_factor"):
            self._patch(ukf, attr, self.wrap(f"ukf.{attr}", getattr(ukf, attr)))
        self._patch(ukf, "acceleration_model",
                    wrap_measurement(ukf.acceleration_model))
        self._patch(twin, "to_state_space", self.wrap(
            "models.to_state_space", wrap_models(twin.to_state_space)))
        self._patch(twin, "simulate_window", self.wrap(
            "sde.simulate_window", step_counter(twin.simulate_window)))
        self._patch(twin, "run_filter", self.wrap("ukf.run_filter", twin.run_filter))
        for attr in ("train", "predict", "track_parameters",
                     "negative_log_marginal_likelihood"):
            self._patch(gpr, attr, self.wrap(f"gpr.{attr}", getattr(gpr, attr)))
        for attr in ("cholesky", "eigh"):
            self._patch(np.linalg, attr,
                        self.count(f"numpy.linalg.{attr}", getattr(np.linalg, attr)))
        for cls in (MdofSystem, twin.CampaignConfig, gpr.GpModel):
            self._patch(cls, "from_dict", staticmethod(
                self.count(f"{cls.__name__}.from_dict", cls.from_dict)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---- analysis -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
        }

    def write(self, npz_path, json_path, summary: dict) -> None:
        np.savez(npz_path, names=np.array(self.names), **self.arrays())
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")


class SpanTable:
    """Per-name totals derived from the spans: calls, inclusive and self time."""

    def __init__(self, tracer: Tracer):
        spans = tracer.arrays()
        n_names = len(tracer.names)
        self.names = tracer.names
        self._ids = {name: i for i, name in enumerate(tracer.names)}
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=dur.shape[0])
        own = dur - covered
        nid = spans["name_id"]
        self.calls = np.bincount(nid, minlength=n_names)
        self.total = np.bincount(nid, weights=dur, minlength=n_names)
        self.self_total = np.bincount(nid, weights=own, minlength=n_names)
        self.failed = np.bincount(nid, weights=spans["failed"], minlength=n_names)
        # child spans per (parent name, child name), for per-window counts
        pair = nid[parent[child]] * n_names + nid[child]
        self._pairs = np.bincount(pair, minlength=n_names * n_names).reshape(
            n_names, n_names)
        self.counts = tracer.counts

    def n(self, name: str) -> int:
        i = self._ids.get(name)
        return 0 if i is None else int(self.calls[i])

    def n_failed(self, name: str) -> int:
        i = self._ids.get(name)
        return 0 if i is None else int(self.failed[i])

    def mean(self, name: str, own: bool = False) -> float:
        i = self._ids.get(name)
        if i is None or self.calls[i] == 0:
            return float("nan")
        table = self.self_total if own else self.total
        return float(table[i] / self.calls[i])

    def sum(self, name: str, own: bool = False) -> float:
        i = self._ids.get(name)
        if i is None:
            return 0.0
        return float((self.self_total if own else self.total)[i])

    def children(self, parent: str, child: str) -> int:
        if parent not in self._ids or child not in self._ids:
            return 0
        return int(self._pairs[self._ids[parent], self._ids[child]])

    def counted(self, name: str, contexts) -> int:
        return sum(self.counts[(name, ctx)] for ctx in contexts)

    def rows(self) -> dict:
        """Every span name with its calls, inclusive and self seconds."""
        return {
            name: {"calls": int(self.calls[i]),
                   "inclusive_s": float(self.total[i]),
                   "self_s": float(self.self_total[i]),
                   "failed": int(self.failed[i])}
            for i, name in enumerate(self.names)}


_UKF_CONTEXTS = ("ukf.sigma_points", "ukf.predict", "ukf.update")
_PARSES = ("MdofSystem.from_dict", "CampaignConfig.from_dict", "GpModel.from_dict")


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else float("nan")


def layer_metrics(table: SpanTable, draws: int) -> dict:
    """Per-layer metrics as (value, unit): per-call times and exact counts.

    Times ending in ``_s``/``_us`` are mean inclusive times per call, except
    the ``*_self_*`` ones, which exclude the spans of the layers below.
    A step is one SDE step or one filter sample.
    """
    windows = table.n("twin.assimilate")
    samples = table.n("ukf.update")
    filters = table.n("ukf.run_filter")
    sde_calls = table.n("sde.simulate_window")
    steps = table.counted("sde.steps", ("",))
    numpy_in_ukf = sum(table.counted(f"numpy.linalg.{name}", _UKF_CONTEXTS)
                       for name in ("cholesky", "eigh"))
    retries = (table.counted("numpy.linalg.cholesky.failed", ("ukf.sigma_points",))
               + table.n_failed("ukf.cho_factor"))
    per_window_builds = (table.children("twin.generate_window", "models.to_state_space")
                         + table.children("twin.assimilate", "models.to_state_space"))
    parses = {ctx: sum(table.counted(name, (ctx,)) for name in _PARSES)
              for ctx in ("twin.generate_window", "twin.assimilate",
                          "twin.predict_parameters")}
    us = 1e6
    return {
        "sde.simulate_window_s": (table.mean("sde.simulate_window"), "s"),
        "sde.step_us": (us * _ratio(table.sum("sde.simulate_window"), steps), "us"),
        "sde.steps": (_ratio(steps, sde_calls), "count/call"),
        "ukf.run_filter_s": (table.mean("ukf.run_filter"), "s"),
        "ukf.predict_us": (us * table.mean("ukf.predict"), "us"),
        "ukf.update_us": (us * table.mean("ukf.update"), "us"),
        "ukf.sigma_points_us": (us * table.mean("ukf.sigma_points"), "us"),
        "ukf.factorizations_per_sample": (
            _ratio(numpy_in_ukf + table.n("ukf.cho_factor"), samples), "count/sample"),
        "ukf.cholesky_retries": (_ratio(retries, filters), "count/window"),
        "ukf.psd_repairs_per_window": (
            _ratio(table.counted("numpy.linalg.eigh", _UKF_CONTEXTS), filters),
            "count/window"),
        "models.drift_us": (us * table.mean("models.drift"), "us"),
        "models.drift.calls": (_ratio(table.n("models.drift"), samples + steps),
                               "count/step"),
        "models.dispersion_us": (us * table.mean("models.dispersion"), "us"),
        "models.dispersion.calls": (
            _ratio(table.n("models.dispersion"), samples + steps), "count/step"),
        "models.measure_us": (us * table.mean("models.measure"), "us"),
        "models.measure.calls": (_ratio(table.n("models.measure"), samples),
                                 "count/sample"),
        "models.partials_us": (us * table.mean("models.partials"), "us"),
        "models.partials.calls": (_ratio(table.n("models.partials"), steps),
                                  "count/sde_step"),
        "models.to_state_space.per_window": (_ratio(per_window_builds, windows),
                                             "count/window"),
        "models.to_state_space.per_draw": (
            _ratio(table.children("twin.ensemble", "models.to_state_space"), draws),
            "count/draw"),
        "gpr.train_s": (table.mean("gpr.train"), "s"),
        "gpr.train.calls": (_ratio(table.n("gpr.train"), table.n("gpr.track_parameters")),
                            "count/retrain"),
        "gpr.nlml_evals": (_ratio(table.n("gpr.negative_log_marginal_likelihood"),
                                  table.n("gpr.train")), "count/train"),
        "gpr.predict_us": (us * table.mean("gpr.predict"), "us"),
        "twin.assimilate_self_s": (table.mean("twin.assimilate", own=True), "s"),
        "twin.generate_window_self_s": (table.mean("twin.generate_window", own=True), "s"),
        "twin.predict_parameters_self_us": (
            us * table.mean("twin.predict_parameters", own=True), "us"),
        "twin.ensemble_self_s": (table.mean("twin.ensemble", own=True), "s"),
        "twin.snapshot_save_s": (table.mean("twin.snapshot_save"), "s"),
        "twin.snapshot_load_s": (table.mean("twin.snapshot_load"), "s"),
        "twin.from_dict.per_window": (
            _ratio(parses["twin.generate_window"] + parses["twin.assimilate"], windows),
            "count/window"),
        "twin.from_dict.per_query": (_ratio(parses["twin.predict_parameters"],
                                            table.n("twin.predict_parameters")),
                                     "count/query"),
    }
