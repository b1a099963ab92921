"""Strong SDE integration and synthetic-signal utilities.

Two schemes are provided for dy = a(y, f) dt + b(y) dW:

* Euler-Maruyama, ``y + a dt + b dw`` (the filter's low-fidelity model),
* the strong Taylor-1.5 scheme used for data generation and prediction,

      y + a dt + b dw + 0.5 L^j(b_j) (dw_j^2 - dt) + L^j(a) dz_j
        + L^0(b_j) (dw_j dt - dz_j) + 0.5 L^0(a) dt^2

  with L^0 = sum_i a_i d_i + 0.5 sum_ij (b b^T)_ij d_i d_j and
  L^j = sum_i b_ij d_i. The force sample is held constant across a step.
  For additive noise the L(b) terms are identically zero and are skipped.

Both steppers carry a leading path axis: a state ``(P, dim)`` advances P
independent paths in one call, and a single state ``(dim,)`` is the same
code with no path axis. The scheme takes the model's analytic partials as
directional derivatives (see ``StateSpaceModel``), so a step never forms a
``(dim, dim)`` matrix per path.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError, NumericError
from .models import MdofSystem, StateSpaceModel, acceleration_model

SCHEME_EULER = "euler-maruyama"
SCHEME_TAYLOR15 = "taylor15"


@dataclass(frozen=True)
class IntegratorConfig:
    """Time step, scheme selector and seed; identical config and seed
    reproduce trajectories bit for bit."""

    dt: float = 1e-3
    scheme: str = SCHEME_TAYLOR15
    seed: int = 0

    def __post_init__(self):
        if self.dt <= 0.0:
            raise InvalidParameterError("dt must be positive")
        if self.scheme not in (SCHEME_EULER, SCHEME_TAYLOR15):
            raise InvalidParameterError(f"unknown scheme {self.scheme!r}")

    def to_dict(self) -> dict:
        return {"dt": self.dt, "scheme": self.scheme, "seed": int(self.seed)}

    @classmethod
    def from_dict(cls, doc: dict) -> "IntegratorConfig":
        return cls(
            dt=doc.get("dt", 1e-3),
            scheme=doc.get("scheme", SCHEME_TAYLOR15),
            seed=int(doc.get("seed", 0)),
        )


@dataclass(frozen=True)
class BrownianIncrementPair:
    """Correlated increments dw = int dW and dz = int int dW ds per channel.

    Joint moments: E[dw^2] = dt, E[dz^2] = dt^3/3, E[dw dz] = dt^2/2.
    Arrays are (n_channels,) for one step or (n_steps, n_channels).
    """

    dw: np.ndarray
    dz: np.ndarray


def sample_brownian_increments(
    rng: np.random.Generator, dt: float, n_channels: int, n_steps: int | None = None
) -> BrownianIncrementPair:
    """Draw increment pairs via dw = sqrt(dt) u1, dz = dt^1.5 (u1 + u2/sqrt(3))/2."""
    shape = (n_channels,) if n_steps is None else (n_steps, n_channels)
    u1 = rng.standard_normal(shape)
    u2 = rng.standard_normal(shape)
    dw = np.sqrt(dt) * u1
    dz = 0.5 * dt ** 1.5 * (u1 + u2 / np.sqrt(3.0))
    return BrownianIncrementPair(dw=dw, dz=dz)


def _check_state(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise NumericError("non-finite input state")
    return y


def _em(model: StateSpaceModel, y, f_t, dw, dz, dt: float) -> np.ndarray:
    b = model.dispersion(y)
    return y + model.drift(y, f_t) * dt + (b @ dw[..., None])[..., 0]


def _taylor15(model: StateSpaceModel, y, f_t, dw, dz, dt: float) -> np.ndarray:
    a = model.drift(y, f_t)
    b = model.dispersion(y)
    noise = b @ np.stack((dw, dz), axis=-1)  # b dw and b dz side by side
    half_dt2 = 0.5 * dt * dt
    out = y + a * dt + noise[..., 0]
    # L^j(a) dz_j + 0.5 L^0(a) dt^2 as one derivative along b dz + a dt^2/2
    out += model.drift_jacobian(y, f_t, noise[..., 1] + half_dt2 * a)
    if model.drift_hessian_quad is not None:
        out += half_dt2 * model.drift_hessian_quad(y, f_t, b)
    if model.dispersion_jacobian is not None:
        # 0.5 L^j(b_j) (dw_j^2 - dt) + L^0(b_j) (dw_j dt - dz_j), with L^0(b)
        # the first-order transport only (exact for state-affine b): both are
        # the derivative of column j along one direction u_j per channel
        u = ((0.5 * (dw * dw - dt))[..., None] * np.swapaxes(b, -1, -2)
             + (dw * dt - dz)[..., None] * a[..., None, :])
        out += model.dispersion_jacobian(y, u)
    return out


def em_step(model: StateSpaceModel, y, f_t, dw, dt: float) -> np.ndarray:
    """One Euler-Maruyama step y + a dt + b dw.

    ``y`` is ``(dim,)`` or one state per path ``(P, dim)``, with ``dw``
    ``(n_channels,)`` or ``(P, n_channels)`` to match.
    """
    y = _check_state(y)
    return _em(model, y, f_t, np.asarray(dw, dtype=float), None, dt)


def taylor15_step(
    model: StateSpaceModel, y, f_t, inc: BrownianIncrementPair, dt: float
) -> np.ndarray:
    """One strong Taylor-1.5 step; shapes as for ``em_step``.

    Requires the model's analytic ``drift_jacobian``.
    """
    y = _check_state(y)
    if model.drift_jacobian is None:
        raise InvalidParameterError("the Taylor-1.5 scheme needs the drift_jacobian partial")
    return _taylor15(model, y, f_t, np.asarray(inc.dw, dtype=float),
                     np.asarray(inc.dz, dtype=float), dt)


# ---- trajectory simulation --------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid sample paths with clean accelerations and applied forces.

    The time axis leads every array; a batched run keeps its path axis
    second. ``to_csv`` writes one path.
    """

    times: np.ndarray
    states: np.ndarray
    accelerations: np.ndarray
    forces: np.ndarray

    def __post_init__(self):
        m = self.times.shape[0]
        if not (self.states.shape[0] == self.accelerations.shape[0]
                == self.forces.shape[0] == m):
            raise InvalidParameterError("trajectory arrays must share the grid length")
        steps = np.diff(self.times)
        if m > 1 and not (np.all(steps > 0.0)
                          and np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12)):
            raise InvalidParameterError("times must increase on a uniform grid")

    def to_csv(self, path, state_labels: Sequence[str]) -> None:
        n_acc = self.accelerations.shape[1]
        n_f = self.forces.shape[1]
        header = (["time"] + list(state_labels)
                  + [f"accel_{i + 1}" for i in range(n_acc)]
                  + [f"force_{i + 1}" for i in range(n_f)])
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(self.times.shape[0]):
                row = ([repr(float(self.times[i]))]
                       + [repr(float(v)) for v in self.states[i]]
                       + [repr(float(v)) for v in self.accelerations[i]]
                       + [repr(float(v)) for v in self.forces[i]])
                writer.writerow(row)


def simulate_window(
    model: StateSpaceModel,
    system: MdofSystem,
    y0,
    duration: float,
    cfg: IntegratorConfig,
    *,
    forces: np.ndarray | None = None,
    rng=None,
) -> Trajectory:
    """Integrate the model over [0, duration] and record clean accelerations.

    ``y0`` is one initial state ``(dim,)`` or one per independent path
    ``(P, dim)``; all paths advance together, one step at a time, and the
    time axis leads every output array: states ``(n_steps + 1,) + y0.shape``
    and accelerations ``(n_steps + 1, [P,] n_dof)``. ``forces`` overrides the
    per-sample deterministic force, shared ``(n_steps + 1, n_dof)`` or per
    path ``(n_steps + 1, P, n_dof)``; by default the system's harmonic force
    is used. The left-endpoint force sample drives each step. ``rng`` is a
    generator, or one per path, each drawing that path's Brownian increments
    in one block; by default path p uses a generator seeded ``cfg.seed + p``.
    A non-finite path raises NumericError with the first such path index in
    ``path`` (None for a single state).
    """
    if duration < cfg.dt:
        raise InvalidParameterError("duration must be at least one time step")
    y0 = _check_state(y0)
    if y0.ndim not in (1, 2) or y0.shape[-1] != model.dim_state:
        raise InvalidParameterError(
            f"y0 must have shape ({model.dim_state},) or (P, {model.dim_state}), "
            f"got {y0.shape}")
    if cfg.scheme == SCHEME_TAYLOR15 and model.drift_jacobian is None:
        raise InvalidParameterError("the Taylor-1.5 scheme needs the drift_jacobian partial")
    paths = y0.shape[:-1]
    n_paths = paths[0] if paths else 1
    n_steps = int(round(duration / cfg.dt))
    times = np.arange(n_steps + 1) * cfg.dt
    if forces is None:
        forces = system.force_at(times)
    else:
        forces = np.asarray(forces, dtype=float)
        if forces.shape not in ((n_steps + 1, system.n_dof),
                                (n_steps + 1,) + paths + (system.n_dof,)):
            raise InvalidParameterError("forces must be sampled on the window grid")

    if rng is None:
        rng = [np.random.default_rng(cfg.seed + p) for p in range(n_paths)]
    elif isinstance(rng, np.random.Generator):
        rng = [rng]
    if len(rng) != n_paths:
        raise InvalidParameterError("rng must give one generator per path")
    inc = [sample_brownian_increments(g, cfg.dt, model.n_channels, n_steps) for g in rng]
    shape = (n_steps,) + paths + (model.n_channels,)
    dw = np.stack([i.dw for i in inc], axis=1).reshape(shape)
    dz = np.stack([i.dz for i in inc], axis=1).reshape(shape)

    step = _em if cfg.scheme == SCHEME_EULER else _taylor15
    states = np.empty((n_steps + 1,) + y0.shape)
    states[0] = y0
    y = y0
    # a diverging path only poisons its own row; it is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            y = step(model, y, forces[k], dw[k], dz[k], cfg.dt)
            states[k + 1] = y
    finite = np.all(np.isfinite(states), axis=(0, -1))
    if not np.all(finite):
        path = int(np.argmin(finite)) if paths else None
        raise NumericError("trajectory diverged to non-finite values", path=path)

    h_all = acceleration_model(
        system, range(1, system.n_dof + 1), augment_params=model.augmented_params)
    accelerations = h_all(states)
    return Trajectory(times=times, states=states,
                      accelerations=accelerations, forces=forces)


# ---- measurement-noise injection --------------------------------------------


def noise_std_for_snr(signal: np.ndarray, snr: float) -> np.ndarray:
    """Per-channel Gaussian noise std giving var(signal)/var(noise) = snr."""
    if snr <= 0.0:
        raise InvalidParameterError("snr must be positive")
    signal = np.asarray(signal, dtype=float)
    sigma = np.std(signal, axis=0)
    if np.any(sigma <= 0.0):
        raise InvalidParameterError("signal has a zero-variance channel; SNR undefined")
    return sigma / np.sqrt(snr)


def corrupt_with_snr(signal: np.ndarray, snr: float, rng) -> np.ndarray:
    """Add white Gaussian noise at the requested signal-to-noise ratio.

    ``rng`` is a Generator or an integer seed. Channels are the trailing
    axis of a 2-D series; 1-D input is treated as a single channel.
    """
    signal = np.asarray(signal, dtype=float)
    sigma_noise = noise_std_for_snr(signal, snr)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return signal + rng.standard_normal(signal.shape) * sigma_noise
