"""Strong SDE integration and synthetic-signal utilities.

Data generation and response prediction integrate dy = a(y, f) dt + b(y) dW
with the strong Taylor-1.5 scheme (Kloeden & Platen 1992, section 10.4),

      y + a dt + b dw + 0.5 L^j(b_j) (dw_j^2 - dt) + L^j(a) dz_j
        + L^0(b_j) (dw_j dt - dz_j) + 0.5 L^0(a) dt^2

with L^0 = sum_i a_i d_i + 0.5 sum_ij (b b^T)_ij d_i d_j and
L^j = sum_i b_ij d_i, the force sample held constant across a step. The
L(b) terms vanish for additive noise. The filter's low-fidelity model, the
Euler map, is ``models.euler_transition``.

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
x' = S [z; h] + d_k with d_k = [c_k; O c_k]; S and N are formed once per
integration and per path, from one ``drift_jacobian`` call, and the d_k
per path and block of steps. The kernel agrees with the scheme evaluated
term by term to rounding (the summation order differs).

The steps run in place on a buffer of one block of steps' rows (256
steps, whatever the path count), each row contiguous over every path and
as wide as the state or as [z; O z], whichever is wider. Each step weighs
that whole row by a weight row of the same shape and adds a product as
wide as the row, so that the weighing and the add are each one
contiguous loop over all paths, whatever the read count J; the views a
step acts on are made once per integration. The step operator stays
``(m + J) x (m + J)``: a wider one would change the summation of the
batched product, and so the bits. The finished states of each block go
to what the caller keeps (every state and its clean accelerations, a
window's observed accelerations, an ensemble's quantiles), so no array of
a whole window's states, inputs or weights is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .codec import Seed, check_seed, codec, decode, not_finite, write_csv
from .errors import InvalidParameterError, NumericError
from .models import (MdofSystem, StateSpaceModel, acceleration_model,
                     dispersion_split)

DIVERGED = "trajectory diverged to non-finite values"
_MEASURE_BLOCK = 256  # samples per measurement call; steps per kernel block


@codec
@dataclass(frozen=True)
class IntegratorConfig:
    """Time step and seed; identical config and seed reproduce trajectories
    bit for bit."""

    dt: float = 1e-3
    seed: Seed = 0

    def __post_init__(self):
        if self.dt <= 0.0:
            raise InvalidParameterError("dt must be positive")


def _increment_pair(u1: np.ndarray, u2: np.ndarray, dt: float) -> tuple:
    """The increments ``(dw, dz)``, dw = int dW and dz = int int dW ds, of the
    unit normals u1 and u2, element by element, so that the pairs of some
    steps are those of the whole draw: dw = sqrt(dt) u1 and
    dz = dt^1.5 (u1 + u2/sqrt(3))/2, with E[dw^2] = dt, E[dz^2] = dt^3/3 and
    E[dw dz] = dt^2/2."""
    return np.sqrt(dt) * u1, 0.5 * dt ** 1.5 * (u1 + u2 / np.sqrt(3.0))


def _check_state(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise NumericError("non-finite input state")
    return y


# ---- trajectory simulation --------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid sample paths with their clean accelerations and applied
    forces.

    The time axis leads every array; a batched run keeps its path axis
    second and flags in ``diverged`` each path that went non-finite.
    ``to_csv`` writes one path.
    """

    times: np.ndarray
    states: np.ndarray
    accelerations: np.ndarray
    forces: np.ndarray
    diverged: np.ndarray = np.False_

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
        raise InvalidParameterError("times must hold at least two samples")
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
        problem = not_finite(np.asarray(getattr(window, name), dtype=float), name)
        if problem is not None:
            return problem
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


class WindowRun(NamedTuple):
    """What ``simulate_window`` returns when a ``keep`` takes the states: the
    sample times and the per-path divergence flags."""

    times: np.ndarray
    diverged: np.ndarray


def window_times(duration: float, dt: float) -> np.ndarray:
    """The n + 1 sample times of a window, n = round(duration / dt);
    InvalidParameterError unless the duration is finite and at least dt."""
    duration = decode(float, duration, "duration")
    if duration < dt:
        raise InvalidParameterError(f"duration must be at least dt, got {duration}")
    return np.arange(int(round(duration / dt)) + 1) * dt


def simulate_window(
    model: StateSpaceModel,
    system: MdofSystem,
    y0,
    duration: float,
    cfg: IntegratorConfig,
    *,
    forces: np.ndarray | None = None,
    rng=None,
    keep: Callable | None = None,
) -> Trajectory | WindowRun:
    """Integrate the model over [0, duration] with the window kernel.

    ``y0`` is one initial state ``(dim,)`` or one per independent path
    ``(P, dim)``; all paths advance together, one step at a time, and the
    time axis leads every output array: states ``(n_steps + 1,) + y0.shape``
    and accelerations ``(n_steps + 1, [P,] n_dof)``. ``forces`` overrides the
    per-sample deterministic force, shared ``(n_steps + 1, n_dof)`` or per
    path ``(n_steps + 1, P, n_dof)``; by default the system's harmonic force
    is used. The left-endpoint force sample drives each step. ``rng`` is a
    list of one distinct generator per path, each drawing that path's
    Brownian increments; by default path p uses a generator seeded
    ``cfg.seed + p``.
    A path that diverges to non-finite values leaves the others as they
    would be alone; a batch flags it in ``diverged`` ``(P,)``, and a single
    state raises NumericError. The model must declare ``cubic_drift`` and
    give ``drift_jacobian``.

    ``keep``, when given, takes the states in place of the returned
    Trajectory, whose accelerations are measured group by group as the
    states are stored: it is called as ``keep(row, states)`` with the
    states of samples ``row, row + 1, ...`` as ``(rows, P, dim)``, P = 1
    for a single state, in order and in groups of ``_MEASURE_BLOCK``.
    ``states`` is a view of the kernel's buffer, valid during the call
    only, and non-finite values in it raise no warning. The call then
    returns a WindowRun.

    Each step is one batched product of the step operator with [z; h],
    added onto the step input [c_k; O c_k] (see ``_window_operators``). The
    kernel works on one block of ``_MEASURE_BLOCK`` steps at a time, in a
    buffer of the block's rows: the rows [z; O z] of step k hold its input
    until step k - 1 adds its product onto them, and the weight buffer
    holds the block's weight rows (one on z and past the reads, e^2 on the
    cubic reads, the noise weights on the rest), so that each step weighs
    and adds whole contiguous rows and only the e^2 write and the batched
    product act on strided views. Both buffers serve every block, so the
    views of each step are made once per integration. The inputs are
    formed per path and block, the increments and noise weights of a block
    for every path at once: each path's first normals are drawn whole up
    front, as its generator yields them before the second, and the second
    per block. Every set-up product runs on at least two steps (a one-row
    product rounds differently), so every state has the bits of a
    whole-window set-up. Then the finished rows go to ``keep``, and the
    last row carries over. Beside what ``keep`` holds, a run of P paths and
    n steps holds the first normals (n P n_channels doubles) and a few
    arrays of one block.
    """
    times = window_times(duration, cfg.dt)
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
    n_steps = times.shape[0] - 1
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
    noise_at = width - (reads.shape[1] - n_cubic)  # the scaled-noise terms' weights
    dz_maps = [(a @ b_const).T for a in a_lin]
    first = np.empty((n_paths, n_steps, model.n_channels))
    for gen, normals in zip(rng, first):
        gen.standard_normal(out=normals)
    collect = keep is None
    if collect:
        measure = acceleration_model(
            system, range(1, system.n_dof + 1), augment_params=model.augmented_params)
        states = np.empty((n_steps + 1,) + y0.shape)
        accelerations = np.empty((n_steps + 1,) + paths + (system.n_dof,))

        def keep(row, block):
            kept = states[row:row + block.shape[0]]  # (rows, dim) for a single state
            kept[...] = block.reshape(kept.shape)
            accelerations[row:row + block.shape[0]] = measure(kept)

    # one measurement group per block, so that ``keep`` gets those groups
    # and the block's arrays and step views stay small beside the first
    # normals
    block = min(_MEASURE_BLOCK, n_steps)
    # rows[i] holds the kinematic rows x = [z; O z] of sample start + i in
    # its first m + J entries, and the parameter tail once it is finished;
    # what lies past both is weighed by one and added zero, so it stays
    # finite. Until step k - 1 adds its product, rows[k] holds the input
    # [c; O c], per path c = N a(r, f) + b dw + A b dz, and the weights of
    # the scaled-noise terms are gain times (dz, dw, dw dt - dz).
    rows = np.zeros((block + 1, n_paths, max(dim, width)))
    rows[0, :, :m] = y[:, :m]
    rows[0, :, m:width] = (reads @ y[:, :m, None])[:, :, 0]
    weights = np.ones((block, n_paths, rows.shape[2]))
    second = np.zeros((n_paths, block + 1, model.n_channels))
    product = np.zeros((n_paths, rows.shape[2], 1))
    product_read, product_row = product[:, :width], product[:, :, 0]
    # the views each step acts on, made once: every block reuses both buffers
    steps = list(zip(rows, rows[:, :, :width, None], rows[:, :, m:m + 1], rows[1:],
                     weights, weights[:, :, m:m + n_cubic]))
    square, multiply, matmul, add = np.square, np.multiply, np.matmul, np.add
    # a diverging path only poisons its own row; the states of each block
    # are tested as they are made (the start and the parameters are finite)
    finite = np.ones(n_paths, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, block):
            stop = min(start + block, n_steps)
            count = stop - start
            # a block of one step reaches one step back, so that its set-up
            # products run on two rows, and drops that row; the second
            # normals left in that row of the buffer serve, as any would
            lead = int(count == 1 < n_steps)
            span = slice(start - lead, stop)
            for gen, normals in zip(rng, second[:, lead:lead + count]):
                gen.standard_normal(out=normals)
            dws, dzs = _increment_pair(first[:, span], second[:, :lead + count], cfg.dt)
            for p in range(n_paths):
                f_p = forces[span, p] if forces.ndim == 3 else forces[span]
                c = (model.drift(rest[p], f_p)[:, :m] @ input_map[p].T
                     + dws[p] @ b_const.T + dzs[p] @ dz_maps[p])
                rows[1:count + 1, p, :m] = c[lead:]
                rows[1:count + 1, p, m:width] = (c @ reads[p].T)[lead:]
            j = noise_at
            for _, channel, _, gain in scaled:
                dw, dz = dws[:, lead:, channel].T, dzs[:, lead:, channel].T
                for d in (dz, dw, dw * cfg.dt - dz):
                    weights[:count, :, j] = gain * d
                    j += 1
            for x, x_read, e, x_next, g, g_cubic in steps[:count]:
                square(e, g_cubic)  # e^2 weighs the cubic terms
                multiply(x, g, x)  # the reads become the h_j
                matmul(step, x_read, product_read)
                add(x_next, product_row, x_next)
            finite &= np.isfinite(rows[1:count + 1, :, :m]).all(axis=(0, 2))
            done = count + (stop == n_steps)  # the last row carries over
            rows[:done, :, m:dim] = y[:, m:]
            for i in range(0, done, _MEASURE_BLOCK):
                keep(start + i, rows[i:min(i + _MEASURE_BLOCK, done), :, :dim])
            rows[0] = rows[count]
    diverged = ~finite
    if not paths and diverged[0]:
        raise NumericError(DIVERGED)
    if not collect:
        return WindowRun(times, diverged.reshape(paths))
    return Trajectory(times=times, states=states, accelerations=accelerations,
                      forces=forces, diverged=diverged.reshape(paths))


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

    ``rng`` is a Generator or a seed (``codec.check_seed``). Channels are
    the trailing axis of a 2-D series; 1-D input is treated as a single
    channel.
    """
    signal = np.asarray(signal, dtype=float)
    sigma_noise = noise_std_for_snr(signal, snr)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(check_seed(rng, "rng"))
    return signal + rng.standard_normal(signal.shape) * sigma_noise
