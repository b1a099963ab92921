"""Strong SDE integration and synthetic-signal utilities.

Two schemes are provided for dy = a(y, f) dt + b(y) dW:

* Euler-Maruyama, ``y + a dt + b dw`` (the filter's low-fidelity model),
* the strong Taylor-1.5 scheme used for data generation and prediction,

      y + a dt + b dw + 0.5 L^j(b_j) (dw_j^2 - dt) + L^j(a) dz_j
        + L^0(b_j) (dw_j dt - dz_j) + 0.5 L^0(a) dt^2

  with L^0 = sum_i a_i d_i + 0.5 sum_ij (b b^T)_ij d_i d_j and
  L^j = sum_i b_ij d_i. The force sample is held constant across a step.
  For additive noise the L(b) terms are identically zero and are skipped.

``em_step`` and ``taylor15_step`` are the reference scheme: one step of any
``StateSpaceModel`` from its analytic partials, taken as directional
derivatives, for a single state ``(dim,)`` or one per path ``(P, dim)``.

``simulate_window`` integrates a whole window with the window kernel, the
Taylor-1.5 scheme rearranged for the chain models. With the stiffness
held, their drift is ``a(z) = A z + coeff (l . z)^3 h + a(r, f)`` on the
kinematic entries z (``StateSpaceModel.cubic_drift``), the noise enters
only the velocity rows and only the entries of ``scaled_noise`` depend on
the state. A Taylor-1.5 step is then, exactly in arithmetic,

      z' = M z + c_k + coeff e^3 N h + 1.5 coeff dt^2 e^2 (l . A z) h
           + (one rank-one term per scaled-noise contribution)

with e = l . z, M = I + A dt + A^2 dt^2 / 2, N = I dt + A dt^2 / 2 and the
step input c_k = N a(r, f_k) + b dw_k + A b dz_k. Each rank-one term is a
weight times one read o_j . z of the state (e itself, l . A z, the scaled
entries), so the kernel carries the rows x = [z; O z]. A step weighs the
reads in place into the h_j and is one batched product and one add,
x' = S [z; h] + d_k with d_k = [c_k; O c_k]; S, N and every d_k are formed
once per integration and per path, from one ``drift_jacobian`` call. The
kernel agrees with the reference steppers to rounding (the summation order
differs).

The steps run in place on the returned states array, whose row at one step
is contiguous over every path and as wide as the state or as [z; O z],
whichever is wider. Each step weighs that whole row by a weight row of the
same shape and adds a product as wide as the row, so that the weighing and
the add are each one contiguous loop over all paths, whatever the read
count J; the weight rows of one block of ``_MEASURE_BLOCK`` steps at a time
live in one reused buffer. The step operator stays ``(m + J) x (m + J)``:
a wider one would change the summation of the batched product, and so the
bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .codec import codec, write_csv
from .errors import InvalidParameterError, NumericError
from .models import (MdofSystem, StateSpaceModel, acceleration_model,
                     dispersion_split)

DIVERGED = "trajectory diverged to non-finite values"
_MEASURE_BLOCK = 256  # samples per call of a trajectory's measurement


@codec
@dataclass(frozen=True)
class IntegratorConfig:
    """Time step and seed; identical config and seed reproduce trajectories
    bit for bit."""

    dt: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.dt <= 0.0:
            raise InvalidParameterError("dt must be positive")


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
    """Uniform-grid sample paths with applied forces; clean accelerations are
    evaluated from the states by ``measure`` on first access, in blocks of
    samples.

    The time axis leads every array; a batched run keeps its path axis
    second and flags in ``diverged`` each path that went non-finite.
    ``to_csv`` writes one path.
    """

    times: np.ndarray
    states: np.ndarray
    forces: np.ndarray
    measure: Callable = field(repr=False, compare=False)
    diverged: np.ndarray = np.False_

    def __post_init__(self):
        if not (self.states.shape[0] == self.forces.shape[0] == self.times.shape[0]):
            raise InvalidParameterError("trajectory arrays must share the grid length")
        uniform_step(self.times)

    @cached_property
    def accelerations(self) -> np.ndarray:
        # in blocks of samples, so that the measurement's temporaries stay
        # small beside a many-path window; a diverged path overflows here
        # too, and ``diverged`` already names it
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = [self.measure(self.states[i:i + _MEASURE_BLOCK])
                      for i in range(0, self.states.shape[0], _MEASURE_BLOCK)]
        return np.concatenate(blocks)

    def to_csv(self, path, state_labels: Sequence[str]) -> list:
        """Write one path as CSV; return the header row."""
        header = (["time"] + list(state_labels)
                  + [f"accel_{i + 1}" for i in range(self.accelerations.shape[1])]
                  + [f"force_{i + 1}" for i in range(self.forces.shape[1])])
        write_csv(path, header, np.column_stack(
            (self.times, self.states, self.accelerations, self.forces)))
        return header


def uniform_step(times) -> float:
    """Step of a time grid of at least two strictly increasing, uniformly
    spaced samples; InvalidParameterError otherwise."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.shape[0] < 2:
        raise InvalidParameterError("a time grid needs at least two samples")
    steps = np.diff(times)
    if not (np.all(steps > 0.0)
            and np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12)):
        raise InvalidParameterError("times must increase on a uniform grid")
    return float(steps[0])


def non_finite(window) -> str | None:
    """Name the first of a window's ``times``, ``accel`` and ``force``
    holding a non-finite value, and its first such sample (0-based); None
    when every value is finite."""
    for name in ("times", "accel", "force"):
        values = np.asarray(getattr(window, name), dtype=float)
        finite = np.isfinite(values.reshape(values.shape[0], -1)).all(axis=1)
        if not finite.all():
            return f"{name} is not finite at sample {int(np.argmin(finite))}"
    return None


def _window_operators(model: StateSpaceModel, rest: np.ndarray, dt: float) -> tuple:
    """Per-path operators of the window kernel on the kinematic entries z.

    ``rest`` holds each path's state at rest ``(P, dim)``; A is the drift
    Jacobian there, from one ``drift_jacobian`` call along the unit
    directions. A step is ``z' = M z + c_k + sum_j h_j b_j`` with
    ``h_j = g_kj (o_j . z)``: the affine part, then one rank-one term per
    cubic or state-scaled noise contribution. The cubic terms come first,
    weighted by e^2 = (l . z)^2; the noise terms are weighted by the step's
    increments (see ``simulate_window``). The kernel carries the reads
    O z beside z, O the rows o_j, so that a step is one product and one add
    ``[z'; O z'] = S [z; h] + [c_k; O c_k]`` with

        S = [[M, B^T], [O M, O B^T]]

    and B the rows b_j. Returns S ``(P, m + J, m + J)``, O ``(P, J, m)``,
    the cubic term count, A, the map N of the step's constant input, and
    the dispersion split.
    """
    dim = model.dim_state
    m = dim - len(model.param_indices)
    jac_rows = model.drift_jacobian(rest[:, None, :], 0.0, np.eye(dim))
    a_lin = np.swapaxes(jac_rows, 1, 2)[:, :m, :m]  # row j of jac_rows is J e_j
    elongation, h, coeff = model.cubic_drift
    elongation, h = elongation[:m], h[:m]
    b_const, scaled = dispersion_split(model)
    eye = np.eye(m)
    half_dt2 = 0.5 * dt * dt
    step_map = eye + dt * a_lin + half_dt2 * (a_lin @ a_lin)
    input_map = dt * eye + half_dt2 * a_lin

    # (o_j, b_j): coeff e^3 N h, then the transport of the cubic's Jacobian
    # along a dt^2 / 2, 1.5 coeff dt^2 e^2 (l . A z) h
    terms = [(elongation, coeff * (input_map @ h)),
             (elongation @ a_lin, 1.5 * coeff * dt * dt * h)]
    n_cubic = len(terms)
    for row, _, state, _ in scaled:
        at_row, at_state = eye[row], eye[state]
        # gain y[state] in b dw, in A b dz, and L^0(b) through a[state]
        terms += [(at_state, a_lin[:, :, row]), (at_state, at_row),
                  (a_lin[:, state], at_row)]
    n_paths = rest.shape[0]
    reads = np.concatenate([np.broadcast_to(o[..., None, :], (n_paths, 1, m))
                            for o, _ in terms], axis=1)
    top = np.concatenate([step_map] + [np.broadcast_to(b[..., None], (n_paths, m, 1))
                                       for _, b in terms], axis=2)
    step = np.concatenate([top, reads @ top], axis=1)
    return step, reads, n_cubic, a_lin, input_map, b_const[:m], scaled


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
    """Integrate the model over [0, duration] with the window kernel.

    ``y0`` is one initial state ``(dim,)`` or one per independent path
    ``(P, dim)``; all paths advance together, one step at a time, and the
    time axis leads every output array: states ``(n_steps + 1,) + y0.shape``
    and accelerations ``(n_steps + 1, [P,] n_dof)``. ``forces`` overrides the
    per-sample deterministic force, shared ``(n_steps + 1, n_dof)`` or per
    path ``(n_steps + 1, P, n_dof)``; by default the system's harmonic force
    is used. The left-endpoint force sample drives each step. ``rng`` is a
    list of one generator per path, each drawing that path's Brownian
    increments in one block; by default path p uses a generator seeded
    ``cfg.seed + p``.
    A path that diverges to non-finite values leaves the others as they
    would be alone; a batch flags it in ``Trajectory.diverged`` ``(P,)``,
    and a single state raises NumericError. The model must declare
    ``cubic_drift`` and give ``drift_jacobian``.

    Each step is one batched product of the step operator with [z; h],
    added onto the step input [c_k; O c_k] (see ``_window_operators``). The
    step inputs are built per path in the returned states array, in the
    entries the rows [z; O z] of each step then take, so no array of them
    is kept beside it; the parameter tail is written after the loop. The
    loop runs in place on that array, a whole contiguous row per step: the
    weight buffer holds one block of ``_MEASURE_BLOCK`` steps' weight rows
    (one on z and past the reads, e^2 on the cubic reads, the noise
    weights of the block on the rest), so that only the e^2 write and the
    batched product act on strided views.
    """
    if not np.isfinite(duration) or duration < cfg.dt:
        raise InvalidParameterError(f"duration must be finite and at least dt, got {duration}")
    y0 = _check_state(y0)
    dim = model.dim_state
    if y0.ndim not in (1, 2) or y0.shape[-1] != dim:
        raise InvalidParameterError(
            f"y0 must have shape ({dim},) or (P, {dim}), got {y0.shape}")
    if model.drift_jacobian is None or model.cubic_drift is None:
        raise InvalidParameterError(
            "the window kernel needs the drift_jacobian partial and the cubic_drift declaration")
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
    if len(rng) != n_paths:
        raise InvalidParameterError("rng must give one generator per path")

    y = y0.reshape(n_paths, dim)
    m = dim - len(model.param_indices)  # kinematic entries; the parameters trail
    rest = y.copy()
    rest[:, :m] = 0.0
    step, reads, n_cubic, a_lin, input_map, b_const, scaled = _window_operators(
        model, rest, cfg.dt)
    width = m + reads.shape[1]
    n_noise = reads.shape[1] - n_cubic  # the scaled-noise terms' weights

    # the rows x_k = [z_k; O z_k] are the first m + J entries of each path's
    # state at step k (the array is wider than the state where J exceeds
    # the parameter count). Until step k - 1 adds its product onto them,
    # they hold its input [c; O c], per path c = N a(r, f) + b dw + A b dz;
    # the weights of the scaled-noise terms are gain times
    # (dz, dw, dw dt - dz). The entries past the rows, which every step
    # weighs and adds to, stay zero until the parameter tail is written.
    work = np.zeros((n_steps + 1, n_paths, max(dim, width)))
    rows = work[:, :, :width]
    noise = np.empty((n_steps, n_paths, n_noise))
    for p, gen in enumerate(rng):
        inc = sample_brownian_increments(gen, cfg.dt, model.n_channels, n_steps)
        f_p = forces[:n_steps, p] if forces.ndim == 3 else forces[:n_steps]
        a_rest = model.drift(rest[p], f_p)[:, :m]
        c = (a_rest @ input_map[p].T + inc.dw @ b_const.T
             + inc.dz @ (a_lin[p] @ b_const).T)
        rows[1:, p, :m] = c
        rows[1:, p, m:] = c @ reads[p].T
        j = 0
        for _, channel, _, gain in scaled:
            dw, dz = inc.dw[:, channel], inc.dz[:, channel]
            for d in (dz, dw, dw * cfg.dt - dz):
                noise[:, p, j] = gain * d
                j += 1
    rows[0, :, :m] = y[:, :m]
    rows[0, :, m:] = (reads @ y[:, :m, None])[:, :, 0]

    # a step weighs its whole row: one on z and past the reads, e^2 on the
    # cubic reads and the block's noise weights on the rest
    block = min(_MEASURE_BLOCK, n_steps)
    weights = np.ones((block, n_paths, work.shape[2]))
    product = np.zeros((n_paths, work.shape[2], 1))
    product_read, product_row = product[:, :width], product[:, :, 0]
    # a diverging path only poisons its own row; the states of each block
    # are tested as they are made (the start and the parameters are finite)
    finite = np.ones(n_paths, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, block):
            stop = min(start + block, n_steps)
            weights[:stop - start, :, width - n_noise:width] = noise[start:stop]
            for x, x_read, e, x_next, g, g_cubic in zip(
                    work[start:stop], work[start:stop, :, :width, None],
                    work[start:stop, :, m:m + 1], work[start + 1:stop + 1],
                    weights, weights[:, :, m:m + n_cubic]):
                np.multiply(e, e, out=g_cubic)  # e^2 weighs the cubic terms
                np.multiply(x, g, out=x)  # the reads become the h_j
                np.matmul(step, x_read, out=product_read)
                np.add(x_next, product_row, out=x_next)
            finite &= np.isfinite(work[start + 1:stop + 1, :, :m]).all(axis=(0, 2))
    states = work[:, :, :dim]
    states[:, :, m:] = y[:, m:]
    diverged = ~finite
    if not paths and diverged[0]:
        raise NumericError(DIVERGED)

    measure = acceleration_model(
        system, range(1, system.n_dof + 1), augment_params=model.augmented_params)
    return Trajectory(times=times, states=states.reshape((n_steps + 1,) + y0.shape),
                      forces=forces, measure=measure, diverged=diverged.reshape(paths))


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
