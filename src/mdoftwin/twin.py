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

Independent simulations share one integration: the windows of a campaign
and the draws of a response ensemble are the paths of one batched
Taylor-1.5 run, each path carrying its own stiffness in the state tail of
the augmented model and its own generator.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import gpr
from .codec import codec, decode, write_csv, write_json
from .errors import InvalidParameterError, NumericError
from .models import (DegradationSchedule, MdofSystem, degraded_stiffness,
                     to_state_space)
from .sde import (IntegratorConfig, Trajectory, corrupt_with_snr,
                  noise_std_for_snr, simulate_window, uniform_step)
from .ukf import (GaussianBelief, NoiseModel, UkfParams, build_process_noise,
                  run_filter)

logger = logging.getLogger(__name__)

SNAPSHOT_VERSION = 2


# ---------------------------------------------------------------------------
# Measurement windows
# ---------------------------------------------------------------------------


@dataclass
class MeasurementWindow:
    """One fast-time record: noisy accelerations and force at slow time t_s."""

    t_s: float
    times: np.ndarray
    accel: np.ndarray
    force: np.ndarray
    observed_dofs: tuple
    accel_noise_std: np.ndarray | None = None
    force_noise_std: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.accel = np.asarray(self.accel, dtype=float)
        self.force = np.asarray(self.force, dtype=float)
        self.observed_dofs = tuple(int(d) for d in self.observed_dofs)
        n = self.times.shape[0]
        if self.accel.shape != (n, len(self.observed_dofs)):
            raise InvalidParameterError("accel must be (n_samples, n_observed)")
        if self.force.ndim != 2 or self.force.shape[0] != n:
            raise InvalidParameterError("force must be (n_samples, n_force) on the window grid")
        if self.accel_noise_std is not None:
            self.accel_noise_std = np.asarray(self.accel_noise_std, dtype=float)
        if self.force_noise_std is not None:
            self.force_noise_std = np.asarray(self.force_noise_std, dtype=float)

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
        and a non-uniform time grid."""
        base = Path(base_path)
        csv_path = base.with_suffix(".csv")
        sidecar_path = base.with_suffix(".json")
        with open(sidecar_path, encoding="utf-8") as fh:
            sidecar = decode(dict, json.load(fh), str(sidecar_path))
        where = f"{sidecar_path}: "
        t_s = decode(float, sidecar.get("t_s"), where + "t_s")
        observed = decode(tuple[int, ...], sidecar.get("observed_dofs"), where + "observed_dofs")
        ingested = {"kind": "ingested", "path": str(csv_path)}
        provenance = decode(dict, sidecar.get("provenance", ingested), where + "provenance")
        noise_stds = {name: decode(np.ndarray | None, sidecar.get(name), where + name)
                      for name in ("accel_noise_std", "force_noise_std")}
        for name, value in (("t_s", t_s), *noise_stds.items()):
            if value is not None and not np.isfinite(value).all():
                raise InvalidParameterError(f"{where}{name} must be finite")
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
        if not np.isfinite(data).all():
            raise InvalidParameterError(f"{csv_path}: samples must be finite")
        uniform_step(data[:, 0])
        return cls(t_s=t_s, times=data[:, 0], accel=data[:, 1:1 + n_obs],
                   force=data[:, 1 + n_obs:], observed_dofs=observed,
                   provenance=provenance, **noise_stds)


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
    q_extra_diag: float | None = None
    measurement_noise_std: tuple[float, ...] | None = None


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
    master_seed: int = 0
    integrator: IntegratorConfig = IntegratorConfig()
    ukf: UkfRunConfig = UkfRunConfig()
    gp: gpr.GpTrainConfig = gpr.GpTrainConfig()

    def __post_init__(self):
        if self.window_interval_days <= 0.0 or self.window_duration_s <= 0.0:
            raise InvalidParameterError("interval and duration must be positive")
        if self.horizon_days < 0.0:
            raise InvalidParameterError("horizon must be non-negative")
        if self.observed_dofs is not None:
            object.__setattr__(self, "observed_dofs",
                               tuple(int(d) for d in self.observed_dofs))


# ---------------------------------------------------------------------------
# Snapshot
# ---------------------------------------------------------------------------


@codec
@dataclass
class TwinSnapshot:
    """Twin state carried from window to window, live between save and load:
    the nominal system, the config, the true schedule when known, the
    estimate history and one trained GP per tracked stiffness."""

    system: MdofSystem
    config: CampaignConfig
    schedule: DegradationSchedule | None = None
    version: int = SNAPSHOT_VERSION
    windows_processed: int = 0
    parameter_history: list = field(default_factory=list)
    rejected_windows: list = field(default_factory=list)
    gp_models: dict[str, gpr.GpModel] = field(default_factory=dict)
    gp_trained_upto: float | None = None

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

    def save(self, path) -> None:
        """Write the snapshot atomically (see ``codec.write_json``)."""
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "TwinSnapshot":
        with open(path, encoding="utf-8") as fh:
            doc = decode(dict, json.load(fh), f"snapshot {path}")
        version = doc.get("version")
        if version != SNAPSHOT_VERSION:
            raise InvalidParameterError(f"unsupported snapshot version {version!r}")
        return cls.from_dict(doc)


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
    A diverging path raises NumericError naming the visit's window index.
    """
    n = system.n_dof
    observed = cfg.observed_dofs or tuple(range(1, n + 1))
    obs0 = [d - 1 for d in observed]
    rngs = [np.random.default_rng(seed) for _, seed, _ in visits]
    model = to_state_space(system, augment_params=range(1, n + 1))

    dt = cfg.integrator.dt
    n_steps = int(round(cfg.window_duration_s / dt))
    times = np.arange(n_steps + 1) * dt
    force_clean = system.force_at(times)
    force_noise_std = noise_std_for_snr(force_clean, cfg.snr_force)
    forces = np.stack([corrupt_with_snr(force_clean, cfg.snr_force, rng)
                       for rng in rngs], axis=1)

    y0 = np.zeros((len(visits), model.dim_state))  # at rest at every visit
    y0[:, 2 * n:] = [degraded_stiffness(schedule, t_s) for t_s, _, _ in visits]
    try:
        traj = simulate_window(model, system, y0, cfg.window_duration_s,
                               cfg.integrator, forces=forces, rng=rngs)
    except NumericError as exc:
        t_s, _, index = visits[exc.path]
        raise NumericError(f"window {index} (t_s={t_s}): {exc}") from exc

    windows = []
    for p, (t_s, seed, index) in enumerate(visits):
        accel_clean = traj.accelerations[:, p, obs0]
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
    """Simulate one synthetic window at slow time t_s with the given seed."""
    return _synthesize(system, schedule, cfg, [(t_s, seed, window_index)])[0]


def generate_campaign(system: MdofSystem, schedule: DegradationSchedule,
                      cfg: CampaignConfig) -> list:
    """Synthesize the full window sequence on the slow-time grid in one pass.

    Window i is seeded with ``master_seed + i``, so it can be regenerated
    alone by ``generate_window(..., master_seed + i, i)``: the force comes
    back bit for bit and the accelerations equal to rounding (1e-10
    relative), because a batched product of 7-DOF states does not keep
    bitwise results across batch sizes.
    """
    visits = [(t_s, cfg.master_seed + i, i)
              for i, t_s in enumerate(campaign_times(cfg))]
    return _synthesize(system, schedule, cfg, visits)


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
    FilterResult with the full belief trajectory.
    """
    model = to_state_space(system, augment_params=range(1, system.n_dof + 1))
    init = _initial_belief(system, model, prior_estimate, cfg.ukf)
    dt = float(window.times[1] - window.times[0])
    noise = NoiseModel(
        q=build_process_noise(model, dt, scale_factors=cfg.ukf.q_scale,
                              extra_diag=cfg.ukf.q_extra_diag),
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
            {"t_s": float(window.t_s), "reason": "out-of-order window"})
        logger.warning("rejected out-of-order window at t_s=%s", window.t_s)
        return snapshot

    system, cfg = snapshot.system, snapshot.config
    prior = history[-1]["estimate"] if history else None
    try:
        result = filter_window(system, cfg, window, prior_estimate=prior)
    except NumericError as exc:
        snapshot.rejected_windows.append(
            {"t_s": float(window.t_s), "reason": f"filter failure: {exc}"})
        logger.warning("rejected window at t_s=%s: %s", window.t_s, exc)
        return snapshot

    history.append({
        "t_s": float(window.t_s),
        "estimate": [float(v) for v in result.param_estimate],
        "stddev": [float(v) for v in result.param_std],
        "psd_repairs": int(result.psd_repairs.count),
        "n_updates": int(result.n_updates),
    })
    snapshot.windows_processed += 1

    if len(history) >= 3:
        _retrain_gps(snapshot, system, cfg)
    return snapshot


def _retrain_gps(snapshot: TwinSnapshot, system: MdofSystem,
                 cfg: CampaignConfig) -> None:
    times = snapshot.history_times
    estimates = snapshot.history_estimates
    stddevs = snapshot.history_stddevs
    frozen = set(system.frozen_indices)
    tracked = [i for i in range(1, system.n_dof + 1) if i not in frozen]
    columns = [i - 1 for i in tracked]
    models = gpr.track_parameters(
        times, estimates[:, columns], stddevs[:, columns], cfg.gp)
    snapshot.gp_models = dict(zip((f"k{idx}" for idx in tracked), models))
    snapshot.gp_trained_upto = float(times[-1])


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def predict_parameters(snapshot: TwinSnapshot, future_ts) -> dict:
    """GP mean and 95% band per tracked stiffness at the queried slow times."""
    if not snapshot.gp_models:
        raise InvalidParameterError("snapshot has no trained GP models yet")
    return {name: gpr.predict(snapshot.gp_models[name], future_ts)
            for name in sorted(snapshot.gp_models)}


def predicted_stiffness_vector(snapshot: TwinSnapshot, t_tilde: float) -> np.ndarray:
    """Full stiffness vector at t_tilde: GP means plus nominal frozen entries."""
    k = snapshot.system.stiffnesses.copy()
    predictions = predict_parameters(snapshot, [float(t_tilde)])
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
    integrator = replace(cfg.integrator, seed=int(seed))
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
        """Quantile envelope width per time sample and state entry."""
        return self.quantiles[-1] - self.quantiles[0]


def predict_response_ensemble(
    snapshot: TwinSnapshot, t_tilde: float, duration: float, seed: int,
    n_draws: int = 100, levels: tuple = (0.05, 0.5, 0.95), y0=None,
) -> ResponseEnsemble:
    """Propagate GP parameter uncertainty through the high-fidelity model.

    Draw j simulates with seed ``seed + 1 + j``; the parameter draws use
    ``seed`` itself. All draws advance together as the paths of one
    integration; a diverging draw raises NumericError naming it.
    """
    if n_draws < 2:
        raise InvalidParameterError("n_draws must be at least 2")
    system, cfg = snapshot.system, snapshot.config
    predictions = predict_parameters(snapshot, [float(t_tilde)])
    k_base = system.stiffnesses.copy()
    rng = np.random.default_rng(seed)

    draws = np.tile(k_base, (n_draws, 1))
    for name, pred in predictions.items():
        idx = int(name[1:]) - 1
        samples = rng.normal(pred.mean[0], pred.stddev[0], size=n_draws)
        draws[:, idx] = np.clip(samples, 1e-6 * k_base[idx], None)

    # one path per draw, its stiffness in the state tail of the augmented model
    n = system.n_dof
    model = to_state_space(system, augment_params=range(1, n + 1))
    start = np.zeros((n_draws, model.dim_state))
    if y0 is not None:
        start[:, :2 * n] = np.asarray(y0, dtype=float)
    start[:, 2 * n:] = draws
    rngs = [np.random.default_rng(int(seed) + 1 + j) for j in range(n_draws)]
    try:
        traj = simulate_window(model, system, start, duration, cfg.integrator,
                               rng=rngs)
    except NumericError as exc:
        raise NumericError(f"draw {exc.path}: {exc}", path=exc.path) from exc
    qs = np.quantile(traj.states[..., :2 * n], levels, axis=1)
    return ResponseEnsemble(times=traj.times, levels=tuple(levels), quantiles=qs,
                            stiffness_draws=draws)


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
    query_times = np.asarray(query_times, dtype=float)
    predictions = predict_parameters(snapshot, query_times)
    header, columns = ["t_s"], [query_times]
    for name, pred in sorted(predictions.items()):
        header += [f"{name}_mean", f"{name}_sd", f"{name}_lo95", f"{name}_hi95"]
        columns += [pred.mean, pred.stddev, *pred.confidence_band]
    write_csv(path, header, np.column_stack(columns))
