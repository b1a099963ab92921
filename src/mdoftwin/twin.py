"""Slow-timescale orchestration: windows, assimilation, tracking, prediction.

A campaign walks the service-time grid (every ``window_interval_days``),
producing one short measurement window per visit: the degraded system is
simulated with the strong Taylor-1.5 scheme, accelerations are corrupted at
the acceleration SNR and the deterministic force at the force SNR (the same
noisy force realization drives the simulation and is handed to the filter,
which never sees the clean force). Each window is assimilated by a joint
UKF run warm-started from the previous window; terminal stiffness estimates
accumulate in the snapshot and one GP per degrading stiffness is retrained
after every assimilation once three points exist.

All randomness derives from a single master seed; window i uses seed
``master_seed + i`` and consumes its generator in a fixed order (force
noise, Brownian increments, acceleration noise).

Independent simulations share one integration: the draws of a response
ensemble, and the windows of a campaign in chunks of up to 64
(``run_campaign``), are the paths of one batched Taylor-1.5 run of the
window kernel (``sde.simulate_window``), each path carrying its own
stiffness in the state tail of the augmented model, and so its own step
operators, and its own generator. A diverging path leaves the others as
they would be alone, so each chunk is integrated once. No caller holds the
states of a whole integration: the kernel hands over each finished block of
steps, of which a chunk keeps the observed clean accelerations and an
ensemble its quantiles.
"""

from __future__ import annotations

import csv
import json
import logging
import operator
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TypedDict

import numpy as np

from . import gpr
from .codec import Seed, check_seed, codec, decode, write_csv, write_json
from .errors import InvalidParameterError, NumericError
from .models import (DegradationSchedule, MdofSystem, acceleration_model,
                     check_observed_dofs, degraded_stiffness, to_state_space)
from .sde import (DIVERGED, IntegratorConfig, Trajectory, corrupt_with_snr,
                  noise_std_for_snr, simulate_window, uniform_step, window_times)
from .ukf import (GaussianBelief, NoiseModel, UkfParams, build_process_noise,
                  run_filter)

logger = logging.getLogger(__name__)

SNAPSHOT_VERSION = 3

_BATCH_WINDOWS = 64  # campaign visits per batched integration


# ---------------------------------------------------------------------------
# Measurement windows
# ---------------------------------------------------------------------------


@codec
@dataclass
class MeasurementWindow:
    """One fast-time record: noisy accelerations and force at slow time t_s.

    Every field is read by its type hint (``codec``), so ``t_s`` is a finite
    number and the arrays and noise levels hold finite numbers.
    InvalidParameterError also unless ``accel`` and ``force`` have one row
    per sample of ``times``, the grid is uniform (``sde.uniform_step``), and
    each noise level given is non-negative, ``accel_noise_std`` one per
    observed DOF and ``force_noise_std`` one per force column.
    """

    t_s: float
    times: np.ndarray
    accel: np.ndarray
    force: np.ndarray
    observed_dofs: tuple[int, ...]
    accel_noise_std: np.ndarray | None = None
    force_noise_std: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.times.shape[0]
        if self.accel.shape != (n, len(self.observed_dofs)):
            raise InvalidParameterError("accel must be (n_samples, n_observed)")
        if self.force.ndim != 2 or self.force.shape[0] != n:
            raise InvalidParameterError("force must be (n_samples, n_force) on the window grid")
        uniform_step(self.times)
        for name, n_columns in (("accel_noise_std", len(self.observed_dofs)),
                                ("force_noise_std", self.force.shape[1])):
            std = getattr(self, name)
            if std is None:
                continue
            if std.shape != (n_columns,):
                raise InvalidParameterError(
                    f"{name} must hold {n_columns} entries, got shape {std.shape}")
            if (std < 0.0).any():
                raise InvalidParameterError(
                    f"{name} must be finite and non-negative, got {std.tolist()}")

    def save(self, base_path) -> tuple:
        """Write <base>.csv (series) and <base>.json (sidecar); return paths."""
        base = Path(base_path)
        csv_path = base.with_suffix(".csv")
        sidecar_path = base.with_suffix(".json")
        header = (["time"]
                  + [f"accel_dof{d}" for d in self.observed_dofs]
                  + [f"force_dof{i + 1}" for i in range(self.force.shape[1])])
        write_csv(csv_path, header, np.column_stack((self.times, self.accel, self.force)))
        sidecar = {"t_s": float(self.t_s), "observed_dofs": list(self.observed_dofs),
                   "n_samples": self.times.shape[0], "provenance": self.provenance}
        for name in ("accel_noise_std", "force_noise_std"):
            if getattr(self, name) is not None:
                sidecar[name] = getattr(self, name).tolist()
        write_json(sidecar_path, sidecar)
        return csv_path, sidecar_path

    @classmethod
    def load(cls, base_path) -> "MeasurementWindow":
        """Read <base>.csv and <base>.json; InvalidParameterError for a
        sidecar that is not an object or has a field of the wrong type
        (``t_s`` a finite number, ``observed_dofs`` a list of integers, the
        noise levels finite numbers, ``provenance`` an object), an empty CSV
        or a header without the observed DOFs, ragged, non-numeric or
        non-finite rows, a sidecar ``n_samples`` other than the row count
        and a non-uniform time grid; the constructor's refusals name <base>."""
        base = Path(base_path)
        csv_path = base.with_suffix(".csv")
        sidecar_path = base.with_suffix(".json")
        with open(sidecar_path, encoding="utf-8") as fh:
            sidecar = decode(dict, json.load(fh), str(sidecar_path))
        observed = decode(tuple[int, ...], sidecar.get("observed_dofs"),  # for the header
                          f"{sidecar_path}: observed_dofs")
        with open(csv_path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh)) or [[]]
        n_obs = len(observed)
        expected = ["time"] + [f"accel_dof{d}" for d in observed]
        if header[:1 + n_obs] != expected:
            raise InvalidParameterError(
                f"{csv_path}: unexpected window header {header[:1 + n_obs]}")
        if any(len(row) != len(header) for row in rows):
            raise InvalidParameterError(f"{csv_path}: rows must match the header's columns")
        try:
            data = np.array(rows, dtype=float).reshape(len(rows), len(header))
        except ValueError as exc:
            raise InvalidParameterError(f"{csv_path}: non-numeric sample: {exc}") from exc
        if sidecar.get("n_samples") != len(rows):
            raise InvalidParameterError(f"{sidecar_path}: n_samples {sidecar.get('n_samples')!r}"
                                        f" does not match the {len(rows)} rows of {csv_path}")
        ingested = {"kind": "ingested", "path": str(csv_path)}
        try:
            return cls(times=data[:, 0], accel=data[:, 1:1 + n_obs], force=data[:, 1 + n_obs:],
                       observed_dofs=observed, provenance=sidecar.get("provenance", ingested),
                       **{name: sidecar.get(name)
                          for name in ("t_s", "accel_noise_std", "force_noise_std")})
        except InvalidParameterError as exc:  # a field of either file
            raise InvalidParameterError(f"{base}: {exc}") from exc


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@codec
@dataclass(frozen=True)
class UkfRunConfig:
    """Per-window filter settings (priors, warm start, noise overrides)."""

    params: UkfParams = UkfParams()
    init_offset_factor: float = 0.8
    init_state_variance: float = 1e-4
    init_param_std_factor: float = 0.1
    warm_param_std_factor: float = 0.02
    frozen_param_std_factor: float = 1e-3
    q_scale: float | None = None
    measurement_noise_std: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("init_offset_factor", "init_state_variance", "init_param_std_factor",
                     "warm_param_std_factor", "frozen_param_std_factor"):
            if not getattr(self, name) > 0.0:
                raise InvalidParameterError(
                    f"{name} must be finite and positive, got {getattr(self, name)!r}")
        if self.q_scale is not None and self.q_scale < 0.0:
            raise InvalidParameterError(
                f"q_scale must be finite and non-negative, got {self.q_scale!r}")
        # the override takes the place of a window's accel_noise_std, so it
        # is held to the same rule
        std = self.measurement_noise_std
        if std is not None and min(std, default=0.0) < 0.0:
            raise InvalidParameterError(
                f"measurement_noise_std must be finite and non-negative, got {list(std)}")


@codec
@dataclass(frozen=True)
class CampaignConfig:
    """Slow-time sampling plan plus all sub-configurations."""

    horizon_days: float = 2000.0
    window_interval_days: float = 50.0
    window_duration_s: float = 5.0
    observed_dofs: tuple[int, ...] | None = None  # None = all DOFs
    snr_accel: float = 50.0
    snr_force: float = 20.0
    degradation_rate_per_day: float = 0.5e-4
    master_seed: Seed = 0
    integrator: IntegratorConfig = IntegratorConfig()
    ukf: UkfRunConfig = UkfRunConfig()
    gp: gpr.GpTrainConfig = gpr.GpTrainConfig()

    def __post_init__(self):
        for name in ("window_interval_days", "window_duration_s", "snr_accel", "snr_force"):
            if not getattr(self, name) > 0.0:
                raise InvalidParameterError(
                    f"{name} must be finite and positive, got {getattr(self, name)!r}")
        if self.horizon_days < 0.0:
            raise InvalidParameterError("horizon_days must be non-negative")


# ---------------------------------------------------------------------------
# Snapshot
# ---------------------------------------------------------------------------


class WindowRecord(TypedDict):
    """One assimilated window: its slow time, the filter's terminal stiffness
    estimates and stddevs (one per DOF), and its counts of PSD repairs and
    measurement updates."""

    t_s: float
    estimate: list[float]
    stddev: list[float]
    psd_repairs: int
    n_updates: int


class RejectedWindow(TypedDict):
    """A window left out of the history, and why."""

    t_s: float
    reason: str


@codec
@dataclass
class TwinSnapshot:
    """Twin state carried from window to window, live between save and load:
    the nominal system, the config, the true schedule when known, the
    estimate history and one trained GP per tracked stiffness.

    Construction and load also check that the history's times increase,
    that each entry holds n_dof estimates and n_dof non-negative stddevs and
    non-negative counts, that each ``gp_models`` key is ``k<i>`` for a
    tracked stiffness i (``_tracked_stiffnesses``), and that ``schedule.k0``
    holds n_dof stiffnesses. InvalidParameterError names the first entry or
    key that is not so."""

    system: MdofSystem
    config: CampaignConfig
    schedule: DegradationSchedule | None = None
    version: int = SNAPSHOT_VERSION
    parameter_history: list[WindowRecord] = field(default_factory=list)
    rejected_windows: list[RejectedWindow] = field(default_factory=list)
    gp_models: dict[str, gpr.GpModel] = field(default_factory=dict)
    gp_trained_upto: float | None = None

    def __post_init__(self):
        _check_version(self.version)
        _check_history(self.parameter_history, self.system.n_dof)
        _check_schedule(self.schedule, self.system.n_dof)
        names = [f"k{i}" for i in _tracked_stiffnesses(self.system)]
        for key in self.gp_models:
            if key not in names:
                raise InvalidParameterError(f"gp_models key {key!r} names no tracked "
                                            f"stiffness; expected one of {', '.join(names)}")

    @property
    def windows_processed(self) -> int:
        return len(self.parameter_history)

    @property
    def param_names(self) -> tuple:
        return tuple(f"k{i + 1}" for i in range(self.system.n_dof))

    @property
    def history_times(self) -> np.ndarray:
        return np.array([rec["t_s"] for rec in self.parameter_history])

    @property
    def history_estimates(self) -> np.ndarray:
        return np.array([rec["estimate"] for rec in self.parameter_history])

    @property
    def history_stddevs(self) -> np.ndarray:
        return np.array([rec["stddev"] for rec in self.parameter_history])

    def gp_stack(self) -> tuple:
        """The sorted GP names and their ``gpr.GpStack``. The stack is built on
        the first query and reused while ``gp_models`` holds the same model
        objects under the same names; it is never serialized."""
        gp_models = self.gp_models
        cached = getattr(self, "_gp_stack", None)
        if (cached is None or len(cached[1]) != len(gp_models)
                or not all(map(operator.is_, map(gp_models.get, cached[0]), cached[1]))):
            names = sorted(gp_models)
            models = [gp_models[name] for name in names]
            cached = self._gp_stack = (names, models, gpr.stack(models))
        return cached[0], cached[2]

    def save(self, path) -> None:
        """Write atomically (``codec.write_json``) unless ``version`` changed."""
        _check_version(self.version)
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "TwinSnapshot":
        with open(path, encoding="utf-8") as fh:
            doc = decode(dict, json.load(fh), f"snapshot {path}")
        # before the fields: a file of another version may hold other keys
        _check_version(doc.get("version"), f"{cls.__name__}.version")
        return cls.from_dict(doc)


def _check_version(version, where: str = "version") -> None:
    if version != SNAPSHOT_VERSION:
        raise InvalidParameterError(f"{where} must be {SNAPSHOT_VERSION}, got {version!r}")


def _check_history(history: list, n_dof: int) -> None:
    last = -np.inf
    for i, rec in enumerate(history):
        where = f"parameter_history[{i}]"
        if rec["t_s"] <= last:
            raise InvalidParameterError(
                f"{where}.t_s must exceed the previous entry's {last!r}, got {rec['t_s']!r}")
        last = rec["t_s"]
        if len(rec["estimate"]) != n_dof or len(rec["stddev"]) != n_dof:
            raise InvalidParameterError(f"{where}: estimate and stddev must hold "
                                        f"{n_dof} numbers each")
        if min(rec["stddev"]) < 0.0:
            raise InvalidParameterError(
                f"{where}.stddev must be non-negative, got {rec['stddev']!r}")
        for name in ("psd_repairs", "n_updates"):
            if rec[name] < 0:
                raise InvalidParameterError(
                    f"{where}.{name} must be non-negative, got {rec[name]!r}")


def _check_schedule(schedule: DegradationSchedule | None, n_dof: int) -> None:
    if schedule is not None and schedule.k0.shape != (n_dof,):
        raise InvalidParameterError(
            f"schedule.k0 must hold {n_dof} stiffnesses, got {schedule.k0.tolist()}")


def _tracked_stiffnesses(system: MdofSystem) -> list:
    """The 1-based indices of the stiffnesses a twin tracks with one GP
    each: every one that is not frozen."""
    frozen = set(system.frozen_indices)
    return [i for i in range(1, system.n_dof + 1) if i not in frozen]


def new_snapshot(system: MdofSystem, cfg: CampaignConfig,
                 schedule: DegradationSchedule | None = None) -> TwinSnapshot:
    return TwinSnapshot(system=system, config=cfg, schedule=schedule)


# ---------------------------------------------------------------------------
# Campaign generation
# ---------------------------------------------------------------------------


def campaign_times(cfg: CampaignConfig) -> np.ndarray:
    n = int(np.floor(cfg.horizon_days / cfg.window_interval_days + 1e-9))
    return np.arange(n + 1) * cfg.window_interval_days


def _synthesize(system: MdofSystem, schedule: DegradationSchedule,
                cfg: CampaignConfig, visits: list) -> list:
    """Windows for ``(t_s, seed, window_index)`` visits, simulated together.

    Every visit is one path of one batched integration: its degraded
    stiffness rides in the state tail of the augmented model, its noisy
    force drives only its own path, and its own generator draws, in order,
    the force noise, the Brownian increments and the acceleration noise.
    Returns one entry per visit, in order: its MeasurementWindow, or for a
    diverged path the NumericError naming the visit's window index, with
    its position in ``visits`` in ``path``, unraised.

    Of the integration only the observed clean accelerations are kept,
    measured block by block in the sample groups of
    ``Trajectory.accelerations`` (7-DOF products round by batch shape), so
    the states of the whole batch are never held.
    """
    n = system.n_dof
    observed = check_observed_dofs(cfg.observed_dofs or range(1, n + 1), n)
    obs0 = [d - 1 for d in observed]
    rngs = [np.random.default_rng(seed) for _, seed, _ in visits]
    model = to_state_space(system, augment_params=range(1, n + 1))

    times = window_times(cfg.window_duration_s, cfg.integrator.dt)
    force_clean = system.force_at(times)
    force_noise_std = noise_std_for_snr(force_clean, cfg.snr_force)
    forces = np.stack([corrupt_with_snr(force_clean, cfg.snr_force, rng)
                       for rng in rngs], axis=1)

    y0 = np.zeros((len(visits), model.dim_state))  # at rest at every visit
    y0[:, 2 * n:] = [degraded_stiffness(schedule, t_s) for t_s, _, _ in visits]
    measure = acceleration_model(system, range(1, n + 1),
                                 augment_params=model.augmented_params)
    # (visit, DOF, sample): a window's clean accelerations are a column-major
    # view, as indexing one path of the whole batch by a DOF list made them,
    # so that the noise levels sum each column in the same order
    accel = np.empty((len(visits), len(obs0), times.shape[0]))

    def keep(row, states):
        accel[:, :, row:row + states.shape[0]] = measure(states)[..., obs0].transpose(1, 2, 0)

    run = simulate_window(model, system, y0, cfg.window_duration_s,
                          cfg.integrator, forces=forces, rng=rngs, keep=keep)

    windows = []
    for p, (t_s, seed, index) in enumerate(visits):
        if run.diverged[p]:
            windows.append(NumericError(f"window {index} (t_s={t_s}): {DIVERGED}", path=p))
            continue
        accel_clean = accel[p].T
        windows.append(MeasurementWindow(
            t_s=float(t_s),
            times=times,
            accel=corrupt_with_snr(accel_clean, cfg.snr_accel, rngs[p]),
            force=forces[:, p],
            observed_dofs=observed,
            accel_noise_std=noise_std_for_snr(accel_clean, cfg.snr_accel),
            force_noise_std=force_noise_std,
            provenance={"kind": "synthetic", "seed": int(seed),
                        "window_index": int(index)},
        ))
    return windows


def generate_window(system: MdofSystem, schedule: DegradationSchedule,
                    cfg: CampaignConfig, t_s: float, seed: int,
                    window_index: int = -1) -> MeasurementWindow:
    """Simulate one synthetic window at slow time t_s with the given seed;
    NumericError if it diverges."""
    window = _synthesize(system, schedule, cfg, [(t_s, seed, window_index)])[0]
    if isinstance(window, NumericError):
        raise window
    return window


# ---------------------------------------------------------------------------
# Assimilation
# ---------------------------------------------------------------------------


def _initial_belief(system: MdofSystem, model, prior_estimate,
                    ukf_cfg: UkfRunConfig) -> GaussianBelief:
    n = system.n_dof
    k_nom = system.stiffnesses
    frozen = set(system.frozen_indices)
    warm = prior_estimate is not None
    if warm:
        k_guess = np.asarray(prior_estimate, dtype=float)
    else:
        k_guess = ukf_cfg.init_offset_factor * k_nom
        for i in frozen:
            k_guess[i - 1] = k_nom[i - 1]
    mean = np.zeros(model.dim_state)
    mean[2 * n:] = k_guess

    # warm windows trust the carried-over estimate: the true drift between
    # visits is far smaller than the cold-start offset
    loose = ukf_cfg.warm_param_std_factor if warm else ukf_cfg.init_param_std_factor
    var = np.full(model.dim_state, ukf_cfg.init_state_variance)
    for slot, idx in zip(model.param_indices, model.augmented_params):
        factor = ukf_cfg.frozen_param_std_factor if idx in frozen else loose
        var[slot] = (factor * k_nom[idx - 1]) ** 2
    return GaussianBelief(mean=mean, cov=np.diag(var))


def _measurement_noise(window: MeasurementWindow,
                       ukf_cfg: UkfRunConfig) -> np.ndarray:
    if ukf_cfg.measurement_noise_std is not None:
        std = np.asarray(ukf_cfg.measurement_noise_std, dtype=float)
    elif window.accel_noise_std is not None:
        std = np.asarray(window.accel_noise_std, dtype=float)
    else:
        raise InvalidParameterError(
            "no measurement noise level: window carries none and the config "
            "does not override")
    if std.shape != (len(window.observed_dofs),):
        raise InvalidParameterError("measurement noise std must be per observed DOF")
    return np.diag(std ** 2)


def filter_window(system: MdofSystem, cfg: CampaignConfig,
                  window: MeasurementWindow, prior_estimate=None):
    """Joint UKF run over one window against the nominal system.

    All stiffness entries are augmented into the state (frozen ones get the
    tight prior). ``prior_estimate`` warm-starts the stiffness mean;
    otherwise the configured offset from nominal applies. Returns the
    FilterResult with the full belief trajectory. The window's grid must be
    uniform (InvalidParameterError otherwise): its step is the filter's dt.
    ``run_filter`` checks the values again, so a window changed after
    construction fails with NumericError naming a non-finite sample.
    """
    dt = uniform_step(window.times)
    model = to_state_space(system, augment_params=range(1, system.n_dof + 1))
    init = _initial_belief(system, model, prior_estimate, cfg.ukf)
    noise = NoiseModel(
        q=build_process_noise(model, dt, scale=cfg.ukf.q_scale),
        r=_measurement_noise(window, cfg.ukf),
    )
    return run_filter(model, system, window, init, noise, cfg.ukf.params)


def assimilate_window(snapshot: TwinSnapshot,
                      window: MeasurementWindow) -> TwinSnapshot:
    """Run the joint filter on one window and fold the result into the twin.

    Out-of-order windows and filter failures are recorded under
    ``rejected_windows`` without disturbing the accepted history. GP models
    are retrained after each accepted window once three points exist.
    """
    history = snapshot.parameter_history
    if history and window.t_s <= history[-1]["t_s"]:
        snapshot.rejected_windows.append(
            RejectedWindow(t_s=float(window.t_s), reason="out-of-order window"))
        logger.warning("rejected out-of-order window at t_s=%s", window.t_s)
        return snapshot

    system, cfg = snapshot.system, snapshot.config
    prior = history[-1]["estimate"] if history else None
    try:
        result = filter_window(system, cfg, window, prior_estimate=prior)
    except NumericError as exc:
        snapshot.rejected_windows.append(
            RejectedWindow(t_s=float(window.t_s), reason=f"filter failure: {exc}"))
        logger.warning("rejected window at t_s=%s: %s", window.t_s, exc)
        return snapshot

    history.append(WindowRecord(
        t_s=float(window.t_s),
        estimate=[float(v) for v in result.param_estimate],
        stddev=[float(v) for v in result.param_std],
        psd_repairs=int(result.psd_repairs.count),
        n_updates=int(result.n_updates),
    ))

    if len(history) >= 3:
        _retrain_gps(snapshot, system, cfg)
    return snapshot


def _retrain_gps(snapshot: TwinSnapshot, system: MdofSystem,
                 cfg: CampaignConfig) -> None:
    times = snapshot.history_times
    estimates = snapshot.history_estimates
    stddevs = snapshot.history_stddevs
    tracked = _tracked_stiffnesses(system)
    columns = [i - 1 for i in tracked]
    models = gpr.track_parameters(
        times, estimates[:, columns], stddevs[:, columns], cfg.gp)
    snapshot.gp_models = dict(zip((f"k{idx}" for idx in tracked), models))
    snapshot.gp_trained_upto = float(times[-1])


def run_campaign(snapshot: TwinSnapshot, cutoff_days: float | None = None) -> int:
    """Generate and assimilate the snapshot's synthetic campaign; return the
    number of windows whose simulation diverged.

    Window i is visited at ``campaign_times(cfg)[i]`` with seed
    ``master_seed + i`` for every ``t_s <= cutoff_days``. Each chunk of up to
    ``_BATCH_WINDOWS`` visits is integrated once and assimilated in order; a
    diverging visit is recorded under ``rejected_windows`` at its place. A
    window equals the one ``generate_window`` makes alone, its accelerations
    to rounding (1e-10 relative: 7-DOF products round by batch size).
    """
    if snapshot.schedule is None:
        raise InvalidParameterError("run_campaign needs a snapshot with a degradation schedule")
    system, cfg, schedule = snapshot.system, snapshot.config, snapshot.schedule
    _check_schedule(schedule, system.n_dof)  # the field may have been reassigned
    cutoff_days = decode(float | None, cutoff_days, "cutoff_days")
    visits = [(t_s, cfg.master_seed + i, i) for i, t_s in enumerate(campaign_times(cfg))
              if cutoff_days is None or t_s <= cutoff_days]
    failures = 0
    for start in range(0, len(visits), _BATCH_WINDOWS):
        chunk = visits[start:start + _BATCH_WINDOWS]
        for (t_s, _, index), window in zip(chunk, _synthesize(system, schedule, cfg, chunk)):
            if isinstance(window, NumericError):
                failures += 1
                snapshot.rejected_windows.append(
                    RejectedWindow(t_s=float(t_s), reason=f"generation failure: {window}"))
                logger.warning("window %d generation failed: %s", index, window)
            else:
                assimilate_window(snapshot, window)
                logger.info("assimilated window %d (t_s=%g days)", index, t_s)
    return failures


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def predict_parameters(snapshot: TwinSnapshot, future_ts) -> dict:
    """GP mean and 95% band per tracked stiffness at the queried slow times,
    all GPs predicted as one stack."""
    if not snapshot.gp_models:
        raise InvalidParameterError("snapshot has no trained GP models yet")
    names, stack = snapshot.gp_stack()
    stacked = gpr.predict(stack, future_ts)
    inputs, prediction = stacked.inputs, gpr.GpPrediction
    return {name: prediction(inputs, mean, variance)
            for name, mean, variance in zip(names, stacked.mean, stacked.variance)}


def predicted_stiffness_vector(snapshot: TwinSnapshot, t_tilde: float) -> np.ndarray:
    """Full stiffness vector at t_tilde: GP means plus nominal frozen entries."""
    k = snapshot.system.stiffnesses.copy()
    predictions = predict_parameters(snapshot, [decode(float, t_tilde, "t_tilde")])
    for name, pred in predictions.items():
        idx = int(name[1:]) - 1
        k[idx] = pred.mean[0]
    if np.any(k <= 0.0):
        raise NumericError(f"predicted stiffness not positive at t_s={t_tilde}")
    return k


def predict_response(snapshot: TwinSnapshot, t_tilde: float, duration: float,
                     seed: int, y0=None) -> Trajectory:
    """High-fidelity forward simulation at the GP-mean stiffness."""
    system, cfg = snapshot.system, snapshot.config
    k_pred = predicted_stiffness_vector(snapshot, t_tilde)
    system_pred = replace(system, stiffnesses=k_pred)
    model = to_state_space(system_pred)
    integrator = replace(cfg.integrator, seed=seed)
    start = np.zeros(model.dim_state) if y0 is None else np.asarray(y0, dtype=float)
    return simulate_window(model, system_pred, start, duration, integrator)


@dataclass
class ResponseEnsemble:
    """Per-time state quantiles over stiffness draws from the GP band."""

    times: np.ndarray
    levels: tuple
    quantiles: np.ndarray  # (n_levels, n_samples, dim_state)
    stiffness_draws: np.ndarray

    @property
    def spread(self) -> np.ndarray:
        """Quantile envelope width per time sample and state entry: the
        quantile of the highest level less that of the lowest, in whatever
        order the levels were given."""
        return (self.quantiles[int(np.argmax(self.levels))]
                - self.quantiles[int(np.argmin(self.levels))])


def predict_response_ensemble(
    snapshot: TwinSnapshot, t_tilde: float, duration: float, seed: int,
    n_draws: int = 100, levels: tuple = (0.05, 0.5, 0.95),
) -> ResponseEnsemble:
    """Propagate GP parameter uncertainty through the high-fidelity model.

    Every draw starts at rest; draw j simulates with seed ``seed + 1 + j``,
    and the parameter draws use ``seed`` itself. All draws advance together
    as the paths of one integration, and each finished block of their
    states is reduced to its quantiles, so the states of the whole window
    are never held; a diverging draw raises NumericError naming it. Before
    anything is drawn, the ``levels`` of the returned quantiles are checked
    to lie in [0, 1], ``n_draws`` to be an integer of at least 2, ``seed``
    a non-negative integer and ``t_tilde`` a real number, and ``duration``
    is checked.
    """
    n_draws = decode(int, n_draws, "n_draws")
    if n_draws < 2:
        raise InvalidParameterError(f"n_draws must be an integer of at least 2, got {n_draws!r}")
    seed = check_seed(seed, "seed")
    t_tilde = decode(float, t_tilde, "t_tilde")
    _check_levels(levels)
    system, cfg = snapshot.system, snapshot.config
    n = system.n_dof
    times = window_times(duration, cfg.integrator.dt)
    predictions = predict_parameters(snapshot, [t_tilde])
    k_base = system.stiffnesses.copy()
    rng = np.random.default_rng(seed)

    draws = np.tile(k_base, (n_draws, 1))
    for name, pred in predictions.items():
        idx = int(name[1:]) - 1
        samples = rng.normal(pred.mean[0], pred.stddev[0], size=n_draws)
        draws[:, idx] = np.clip(samples, 1e-6 * k_base[idx], None)

    # one path per draw, its stiffness in the state tail of the augmented model
    model = to_state_space(system, augment_params=range(1, n + 1))
    start = np.zeros((n_draws, model.dim_state))
    start[:, 2 * n:] = draws
    rngs = [np.random.default_rng(seed + 1 + j) for j in range(n_draws)]
    qs = np.empty((len(levels), times.shape[0], 2 * n))

    def keep(row, states):
        qs[:, row:row + states.shape[0]] = _path_quantiles(states[..., :2 * n], levels)

    run = simulate_window(model, system, start, duration, cfg.integrator, rng=rngs, keep=keep)
    if run.diverged.any():
        j = int(np.argmax(run.diverged))
        raise NumericError(f"draw {j}: {DIVERGED}", path=j)
    return ResponseEnsemble(times=run.times, levels=tuple(levels), quantiles=qs,
                            stiffness_draws=draws)


def _check_levels(levels) -> None:
    try:
        values = np.asarray(levels, dtype=float)
        valid = (values.ndim == 1 and values.size > 0
                 and np.all((values >= 0.0) & (values <= 1.0)))  # NaN fails too
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise InvalidParameterError(
            f"levels must be a non-empty sequence of numbers in [0, 1], got {levels!r}")


def _path_quantiles(samples: np.ndarray, levels) -> np.ndarray:
    """``np.quantile(samples, levels, axis=1)`` by one sort along the path
    axis, with numpy's default linear rule written out: at virtual index
    v = (P - 1) q, with i = floor(v) (at most P - 2) and gamma = v - i, the
    level lies between the sorted values a = s_i and b = s_(i+1), at
    ``a + (b - a) gamma``, or ``b - (b - a) (1 - gamma)`` when
    gamma >= 0.5. Equal to ``np.quantile`` on finite samples.

    The sort runs on a contiguous copy with the path axis last; the
    ensemble passes one block of time samples at a time."""
    last = samples.shape[1] - 1
    out = np.empty((len(levels),) + samples.shape[:1] + samples.shape[2:])
    ordered = np.moveaxis(samples, 1, -1).copy()
    ordered.sort(axis=-1)
    for row, q in zip(out, levels):
        v = last * float(q)
        i = min(int(v), last - 1)
        gamma = v - i
        a, b = ordered[..., i], ordered[..., i + 1]
        diff = b - a
        if gamma >= 0.5:
            np.subtract(b, diff * (1.0 - gamma), out=row)
        else:
            np.add(a, diff * gamma, out=row)
    return out


# ---------------------------------------------------------------------------
# Campaign-level exports
# ---------------------------------------------------------------------------


def write_estimates_csv(snapshot: TwinSnapshot, path) -> None:
    header = ["t_s"] + [col for name in snapshot.param_names for col in (name, f"sd_{name}")]
    write_csv(path, header, [
        [rec["t_s"]] + [v for pair in zip(rec["estimate"], rec["stddev"]) for v in pair]
        for rec in snapshot.parameter_history])


def write_gp_track_csv(snapshot: TwinSnapshot, path, query_times) -> None:
    """Dense GP track with confidence bands at the queried slow times."""
    predictions = sorted(predict_parameters(snapshot, query_times).items())
    header, columns = ["t_s"], [predictions[0][1].inputs]
    for name, pred in predictions:
        header += [f"{name}_mean", f"{name}_sd", f"{name}_lo95", f"{name}_hi95"]
        columns += [pred.mean, pred.stddev, *pred.confidence_band]
    write_csv(path, header, np.column_stack(columns))
