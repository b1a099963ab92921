"""Chain-topology stochastic nonlinear N-DOF systems and their state-space form.

Conventions used throughout:

* DOF numbers, stiffness parameter indices and observed-DOF sets are 1-based
  in the public API (``k1`` is the ground spring); array internals are 0-based.
* The second-order model is ``M x'' + C x' + K x + G(x) = F(t) + Sigma W'``
  with diagonal ``M`` and ``Sigma``, chain-assembled ``C`` and ``K``, and a
  cubic coupling nonlinearity ``G`` whose shape depends on the system kind.
* Every spring and damper j acts on the elongation ``(B x)_j`` of the
  bidiagonal operator ``B`` (spring 1 to ground, spring j >= 2 between DOFs
  j-1 and j), so ``K(k) = B^T diag(s * k) B`` and ``C = B^T diag(c) B``. The
  sign vector ``s`` is 1 except ``s_4 = -1`` for the negative-stiffness k4
  of the DVP element; the cubic acts on one elongation too. One compiled
  kernel of element forces serves the drift, the measurement and the
  filter's Euler transition alike; it works element-major, on contiguous
  rows, with the bits of the row-wise products.
* First-order state vectors come in two orderings: ``blocked``
  ``[x1..xN, v1..vN]`` (2-DOF benchmark) and ``interleaved``
  ``[x1, v1, x2, v2, ...]`` (7-DOF benchmark). Augmented states append the
  estimated stiffness entries after the kinematic block in index order.
* Forces are per-DOF harmonics ``F_i(t) = amp_i * sin(freq_i * t)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .codec import codec, decode
from .errors import InvalidParameterError

KIND_DUFFING_2DOF = "duffing_2dof"
KIND_DVP_7DOF = "dvp_7dof"
_KNOWN_KINDS = (KIND_DUFFING_2DOF, KIND_DVP_7DOF)

_BLOCKED = "blocked"
_INTERLEAVED = "interleaved"


def _as_vector(x, n: int, name: str) -> np.ndarray:
    v = decode(np.ndarray, x, name)
    if v.shape != (n,):
        raise InvalidParameterError(f"{name} must have shape ({n},), got {v.shape}")
    return v


@codec
@dataclass(frozen=True)
class MdofSystem:
    """Immutable description of one chain-topology benchmark system.

    Parameters
    ----------
    masses, stiffnesses, dampings : arrays (n_dof,)
        Per-DOF lumped mass (kg), spring constant (N/m) and damper (N s/m).
    force_amplitudes, force_frequencies : arrays (n_dof,)
        Harmonic force descriptors (N, rad/s).
    noise_sigmas : array (n_dof,)
        Diagonal stochastic-load intensities (N).
    nonlinear_coeff : float
        Cubic coefficient (N/m^3) of the attached oscillator.
    kind : str
        ``"duffing_2dof"`` or ``"dvp_7dof"``; fixes topology, nonlinearity
        and state ordering.
    frozen_indices : tuple of int
        1-based stiffness indices excluded from slow-time degradation.
    """

    masses: np.ndarray
    stiffnesses: np.ndarray
    dampings: np.ndarray
    force_amplitudes: np.ndarray
    force_frequencies: np.ndarray
    noise_sigmas: np.ndarray
    nonlinear_coeff: float
    kind: str
    frozen_indices: tuple[int, ...] = ()
    symmetric_consistent: bool = False

    def __post_init__(self):
        if self.kind not in _KNOWN_KINDS:
            raise InvalidParameterError(f"unknown system kind {self.kind!r}")
        n = 2 if self.kind == KIND_DUFFING_2DOF else 7
        for name in ("masses", "stiffnesses", "dampings", "force_amplitudes",
                     "force_frequencies", "noise_sigmas"):
            object.__setattr__(self, name, _as_vector(getattr(self, name), n, name))
        if np.any(self.masses <= 0.0):
            raise InvalidParameterError("masses must be strictly positive")
        if np.any(self.stiffnesses <= 0.0):
            raise InvalidParameterError("stiffnesses must be strictly positive")
        if np.any(self.dampings < 0.0) or np.any(self.noise_sigmas < 0.0):
            raise InvalidParameterError("dampings and noise_sigmas must be non-negative")
        object.__setattr__(self, "nonlinear_coeff",
                           float(decode(float, self.nonlinear_coeff, "nonlinear_coeff")))
        decode(bool, self.symmetric_consistent, "symmetric_consistent")
        frozen = tuple(sorted(int(i) for i in self.frozen_indices))
        if any(i < 1 or i > n for i in frozen):
            raise InvalidParameterError("frozen_indices must lie in 1..n_dof")
        object.__setattr__(self, "frozen_indices", frozen)

    # ---- topology -----------------------------------------------------------

    @property
    def n_dof(self) -> int:
        return self.masses.shape[0]

    @property
    def state_ordering(self) -> str:
        return _BLOCKED if self.kind == KIND_DUFFING_2DOF else _INTERLEAVED

    @property
    def elongation_operator(self) -> np.ndarray:
        """Bidiagonal B with (B x)_j the elongation of spring j (x_0 = ground)."""
        n = self.n_dof
        return np.eye(n) - np.eye(n, k=-1)

    @property
    def stiffness_signs(self) -> np.ndarray:
        """Sign of each spring's linear stiffness; -1 on the DVP k4 element."""
        signs = np.ones(self.n_dof)
        if self.kind == KIND_DVP_7DOF and not self.symmetric_consistent:
            signs[3] = -1.0
        return signs

    @property
    def cubic_element(self) -> int:
        """0-based spring whose elongation carries the cubic nonlinearity."""
        return 0 if self.kind == KIND_DUFFING_2DOF else 3

    # ---- forces -------------------------------------------------------------

    def force_at(self, t) -> np.ndarray:
        """Deterministic harmonic force; t scalar or (m,) -> (n,) or (m, n)."""
        t = np.asarray(t, dtype=float)
        return self.force_amplitudes * np.sin(np.multiply.outer(t, self.force_frequencies))


def build_duffing_2dof(
    *,
    masses: Sequence[float] = (20.0, 10.0),
    stiffnesses: Sequence[float] = (1000.0, 500.0),
    dampings: Sequence[float] = (10.0, 5.0),
    force_amplitudes: Sequence[float] = (10.0, 10.0),
    force_frequencies: Sequence[float] = (10.0, 10.0),
    noise_sigmas: Sequence[float] = (0.1, 0.1),
    nonlinear_coeff: float = 100.0,
) -> MdofSystem:
    """Two-mass chain with a hardening cubic spring at DOF 1.

    Defaults are the benchmark values (m = [20, 10] kg, k = [1000, 500] N/m,
    c = [10, 5] N s/m, harmonic forces 10 sin(10 t), sigma = 0.1).
    """
    return MdofSystem(
        masses=masses,
        stiffnesses=stiffnesses,
        dampings=dampings,
        force_amplitudes=force_amplitudes,
        force_frequencies=force_frequencies,
        noise_sigmas=noise_sigmas,
        nonlinear_coeff=nonlinear_coeff,
        kind=KIND_DUFFING_2DOF,
    )


def build_dvp_7dof(
    *,
    masses: Sequence[float] = (20.0, 20.0, 10.0, 10.0, 10.0, 10.0, 5.0),
    stiffnesses: Sequence[float] = (2000.0, 2000.0, 1000.0, 1000.0, 1000.0, 1000.0, 500.0),
    dampings: Sequence[float] = (20.0,) * 7,
    force_amplitudes: Sequence[float] = (10.0,) * 7,
    force_frequencies: Sequence[float] = (10.0,) * 7,
    noise_sigmas: Sequence[float] = (0.1,) * 7,
    nonlinear_coeff: float = 100.0,
    symmetric_consistent: bool = False,
) -> MdofSystem:
    """Seven-mass chain with a Duffing-van-der-Pol element between DOFs 3 and 4.

    The element combines a negative linear stiffness (the sign-flipped k4
    rows of the assembled matrix) with a hardening cubic in (x3 - x4), and
    drives multiplicative process noise on DOF 4. Spring 4 is excluded from
    degradation (``frozen_indices=(4,)``). ``symmetric_consistent=True``
    replaces the sign-flipped k4 block with a standard chain spring.
    """
    return MdofSystem(
        masses=masses,
        stiffnesses=stiffnesses,
        dampings=dampings,
        force_amplitudes=force_amplitudes,
        force_frequencies=force_frequencies,
        noise_sigmas=noise_sigmas,
        nonlinear_coeff=nonlinear_coeff,
        kind=KIND_DVP_7DOF,
        frozen_indices=(4,),
        symmetric_consistent=symmetric_consistent,
    )


# ---------------------------------------------------------------------------
# Degradation law
# ---------------------------------------------------------------------------


@codec
@dataclass(frozen=True)
class DegradationSchedule:
    """Exponential slow-time stiffness decay k(t_s) = k0 * exp(-rate * t_s).

    ``rate_per_day`` applies per day of service time; entries listed in
    ``frozen_indices`` (1-based) stay at their nominal value.
    """

    k0: np.ndarray
    rate_per_day: float = 0.5e-4
    frozen_indices: tuple[int, ...] = ()

    def __post_init__(self):
        k0 = np.asarray(self.k0, dtype=float)
        if k0.ndim != 1 or np.any(k0 <= 0.0):
            raise InvalidParameterError("k0 must be a positive vector")
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "rate_per_day",
                           float(decode(float, self.rate_per_day, "rate_per_day")))
        frozen = tuple(sorted(int(i) for i in self.frozen_indices))
        if any(i < 1 or i > k0.shape[0] for i in frozen):
            raise InvalidParameterError("frozen_indices must lie in 1..len(k0)")
        object.__setattr__(self, "frozen_indices", frozen)

    @classmethod
    def for_system(cls, system: MdofSystem, rate_per_day: float = 0.5e-4) -> "DegradationSchedule":
        return cls(
            k0=system.stiffnesses,
            rate_per_day=rate_per_day,
            frozen_indices=system.frozen_indices,
        )


def degraded_stiffness(schedule: DegradationSchedule, t_s: float) -> np.ndarray:
    """Stiffness vector after t_s days of service.

    Raises InvalidParameterError for negative t_s.
    """
    t_s = float(t_s)
    if t_s < 0.0:
        raise InvalidParameterError("service time t_s must be non-negative")
    delta = math.exp(-schedule.rate_per_day * t_s)
    k = schedule.k0 * delta
    for i in schedule.frozen_indices:
        k[i - 1] = schedule.k0[i - 1]
    return k


# ---------------------------------------------------------------------------
# First-order state-space form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateSpaceModel:
    """Ito diffusion dy = a(y, f) dt + b(y) dW for simulation and filtering.

    The filter does not call ``drift``: its Euler map is compiled once per
    window from the system by ``euler_transition``, which equals
    ``y + drift(y, f) * dt`` to rounding. ``drift`` serves the window
    kernel of ``simulate_window`` (one rest state against every step's
    force sample).

    Every callable is batched over leading axes: a state is ``(..., dim)``,
    one per path, and ``drift`` broadcasts the leading axes of the state
    and of the force sample ``(..., n_dof)``, so that one state takes a
    run of force samples without being copied. The partials of the strong
    Taylor-1.5 scheme are directional derivatives, so no ``(dim, dim)``
    matrix is formed per path:

    * ``drift_jacobian(y, f, v)`` is ``(da/dy) v`` for a direction ``v``;
      the window kernel takes the drift Jacobian at rest from it;
    * ``drift_hessian_quad(y, f, b)`` is
      ``0.5 sum_ij (b b^T)_ij d2a/dy_i dy_j`` for the dispersion ``b``
      ``(..., dim, n_channels)``; None where it vanishes identically, as
      for the chain models, whose drift is affine along every noise row;
    * ``dispersion_jacobian(y, u)`` is ``sum_j sum_i u_ji db_.j/dy_i`` for
      one direction per channel, ``u`` ``(..., n_channels, dim)``; None
      for the chain models, whose state-scaled noise the window kernel
      reads from ``scaled_noise``.

    ``scaled_noise`` lists ``(row, channel, state)`` for every dispersion
    entry that is a constant times the state entry ``y[state]``; all other
    entries are constant (see ``dispersion_split``). Augmented models carry
    the estimated stiffness entries at ``param_indices``, after the
    kinematic entries, with zero drift and zero dispersion rows.

    ``cubic_drift`` is ``(l, h, coeff)`` where the drift is affine in the
    kinematic entries apart from one cubic element: with the parameter
    entries held, ``a(y, f) = a(r, f) + A (y - r) + coeff (l . y)^3 h`` for
    the state ``r`` at rest (kinematic entries zero) and ``A`` the drift
    Jacobian at ``r``; ``l`` and ``h`` are ``(dim,)``. The window kernel of
    ``simulate_window`` needs it.
    """

    dim_state: int
    n_channels: int
    labels: tuple
    augmented_params: tuple
    param_indices: tuple
    drift: Callable
    dispersion: Callable
    drift_jacobian: Callable | None = None
    drift_hessian_quad: Callable | None = None
    dispersion_jacobian: Callable | None = None
    scaled_noise: tuple = ()
    cubic_drift: tuple | None = None


def dispersion_split(model: StateSpaceModel) -> tuple:
    """The constant dispersion and its state-scaled entries.

    Returns ``b_const`` ``(dim, n_channels)``, zero at every entry of
    ``model.scaled_noise``, and ``(row, channel, state, gain)`` per scaled
    entry, whose value is ``gain * y[state]``. InvalidParameterError unless
    each scaled entry is alone in its row and its channel.
    """
    b_const = model.dispersion(np.ones(model.dim_state))  # scaled entries at their gain
    scaled = []
    for row, channel, state in model.scaled_noise:
        if (np.count_nonzero(b_const[row]) != 1
                or np.count_nonzero(b_const[:, channel]) != 1):
            raise InvalidParameterError(
                "a state-scaled noise entry must be alone in its row and channel")
        scaled.append((row, channel, state, float(b_const[row, channel])))
        b_const[row, channel] = 0.0
    return b_const, tuple(scaled)


def _index_maps(n_dof: int, ordering: str) -> tuple:
    """Displacement and velocity positions in the state, as slices."""
    if ordering == _BLOCKED:
        return slice(0, n_dof), slice(n_dof, 2 * n_dof)
    return slice(0, 2 * n_dof, 2), slice(1, 2 * n_dof, 2)


def _augmentation(n_dof: int, augment_params: Iterable[int]) -> np.ndarray:
    """0-based stiffness indices read off the state tail, in state order."""
    aug = sorted(int(i) for i in augment_params)
    if any(i < 1 or i > n_dof for i in aug):
        raise InvalidParameterError("augment_params must be 1-based stiffness indices")
    if len(set(aug)) != len(aug):
        raise InvalidParameterError("augment_params must be unique")
    return np.array(aug, dtype=int) - 1


def _element_forces(system: MdofSystem, aug0: np.ndarray) -> tuple:
    """Compile the chain's element forces for one state layout.

    Every chain force acts along a spring elongation e = B x or its rate
    B v, so the node forces are B^T applied to the element forces
    w = s * k * e + c * B v + g(e), with g the cubic on ``cubic_element``.
    One product of S states with ``to_elements`` yields e, c * B v and s * k
    for the stiffness read off the state tail at ``aug0``. ``kernel(ev)``
    binds the one formula of w to a buffer ``ev`` of these element values,
    element-major ``(3n, S)`` and C-contiguous so that each block is
    contiguous: it makes the block and cubic-row views and a buffer for w
    ``(n, S)`` once, and returns ``forces()``, which fills w from what
    ``ev`` holds and returns that buffer. ``restoring(y, to_out)`` is
    w^T ``to_out`` for states ``(..., dim)``, a fresh array; it keeps one
    element buffer per state count. Both products keep the bits of the
    row-wise layout ``y @ to_elements``: states ``(S, dim)`` take the
    transposed ones, any other shape numpy's own dispatch (one vector
    product per state of a ``(..., 1, dim)`` block, which the transposed
    form does not reproduce). Returns ``to_elements``, ``kernel``,
    ``restoring`` and ``signed_k``, the signed stiffness not on the tail,
    which ``forces`` skips when every stiffness rides in the tail.
    """
    n = system.n_dof
    disp_idx, vel_idx = _index_maps(n, system.state_ordering)
    b = system.elongation_operator
    signs = system.stiffness_signs
    to_elements = np.zeros((2 * n + aug0.shape[0], 3 * n))
    to_elements[disp_idx, :n] = b.T
    to_elements[vel_idx, n:2 * n] = b.T * system.dampings
    to_elements[2 * n + np.arange(aug0.shape[0]), 2 * n + aug0] = signs[aug0]
    from_states = to_elements.T
    signed_k = signs * system.stiffnesses
    signed_k[aug0] = 0.0  # taken from the state instead
    fixed_k = None if not signed_k.any() else signed_k[:, None]
    cubic, coeff = system.cubic_element, system.nonlinear_coeff
    multiply, add, power = np.multiply, np.add, np.power

    def kernel(ev: np.ndarray) -> Callable:
        e, damper, tail_k, e_cubic = ev[:n], ev[n:2 * n], ev[2 * n:], ev[cubic]
        w = np.empty((n, ev.shape[1]))
        w_cubic, cube = w[cubic], np.empty(ev.shape[1])

        def forces() -> np.ndarray:
            if fixed_k is None:
                multiply(tail_k, e, w)
            else:
                multiply(add(fixed_k, tail_k, w), e, w)
            add(w, damper, w)
            multiply(coeff, power(e_cubic, 3, cube), cube)
            add(w_cubic, cube, w_cubic)
            return w

        return forces

    @functools.cache
    def buffered(count: int) -> tuple:
        ev = np.empty((3 * n, count))
        return ev, kernel(ev)

    def restoring(y: np.ndarray, to_out: np.ndarray) -> np.ndarray:
        if y.ndim == 2:
            ev, forces = buffered(y.shape[0])
            from_states.dot(y.T, out=ev)
            return forces().T.dot(to_out)
        ev, forces = buffered(math.prod(y.shape[:-1]))
        ev[...] = (y @ to_elements).reshape(-1, 3 * n).T
        return np.ascontiguousarray(forces().T).reshape(y.shape[:-1] + (n,)) @ to_out

    return to_elements, kernel, restoring, signed_k


def to_state_space(system: MdofSystem, augment_params: Iterable[int] = ()) -> StateSpaceModel:
    """Build the drift/dispersion model, optionally augmented with stiffness.

    ``augment_params`` lists 1-based stiffness indices appended to the state;
    their drift and dispersion rows are identically zero (degradation is not
    dynamic on the fast time-scale), so each path of a batch can carry its
    own stiffness there. With no augmentation the state is the plain
    kinematic vector of dimension 2 * n_dof. Everything that depends only on
    the system is computed here once, not on every call.

    The partials use the chain's structure: noise enters only the velocity
    rows, on a diagonal, and the drift is affine in the velocities, so the
    Hessian term of the Taylor-1.5 scheme vanishes and ``drift_hessian_quad``
    is None. The only state-dependent dispersion entry is the DVP element's
    channel 4, scaled by the DOF-4 displacement. The drift is linear in the
    kinematic entries for a given stiffness apart from the cubic element,
    which ``cubic_drift`` declares from the same compiled operators.
    ``drift`` shares the element kernel of ``acceleration_model``, with its
    element buffers kept per state count, so one model's ``drift`` is not
    for concurrent use from two threads either.
    """
    n = system.n_dof
    aug0 = _augmentation(n, augment_params)
    aug = tuple(int(i) + 1 for i in aug0)
    disp_idx, vel_idx = _index_maps(n, system.state_ordering)
    dim = 2 * n + len(aug)

    masses = system.masses
    to_acceleration = -system.elongation_operator / masses
    cubic, coeff = system.cubic_element, system.nonlinear_coeff
    to_elements, _, restoring, signed_k = _element_forces(system, aug0)

    labels = [""] * (2 * n)
    labels[disp_idx] = [f"x{i + 1}" for i in range(n)]
    labels[vel_idx] = [f"v{i + 1}" for i in range(n)]
    labels += [f"k{i}" for i in aug]

    b_const = np.zeros((dim, n))
    b_const[vel_idx] = np.diag(system.noise_sigmas / masses)
    scaled_noise = ()
    if system.kind == KIND_DVP_7DOF:  # the displacement of DOF 4 scales channel 4
        scaled_noise = ((range(2 * n)[vel_idx][3], 3, range(2 * n)[disp_idx][3]),)

    def drift(y, f) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        f = np.asarray(f, dtype=float)
        out = np.zeros(np.broadcast_shapes(y.shape[:-1], f.shape[:-1]) + (dim,))
        out[..., disp_idx] = y[..., vel_idx]
        # the restoring acceleration -M^-1 (G(x) + K(k) x + C v)
        out[..., vel_idx] = restoring(y, to_acceleration) + f / masses
        return out

    def dispersion(y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = np.empty(y.shape[:-1] + (dim, n))
        out[...] = b_const
        for row, channel, state in scaled_noise:
            out[..., row, channel] *= y[..., state]
        return out

    def elements(y: np.ndarray) -> tuple:
        """Elongations B x, damper forces c * B v and tail stiffnesses s * k."""
        ev = y @ to_elements
        return ev[..., :n], ev[..., n:2 * n], ev[..., 2 * n:]

    def drift_jacobian(y, f, v) -> np.ndarray:
        """(da/dy) v: the element tangents applied to the elements of v."""
        e, _, tail_k = elements(np.asarray(y, dtype=float))
        de, d_damper, d_tail_k = elements(v)
        tangent = signed_k + tail_k
        tangent[..., cubic] += 3.0 * coeff * e[..., cubic] ** 2
        w = tangent * de + d_damper + d_tail_k * e
        out = np.zeros(w.shape[:-1] + (dim,))
        out[..., disp_idx] = v[..., vel_idx]
        out[..., vel_idx] = w @ to_acceleration
        return out

    h = np.zeros(dim)
    h[vel_idx] = to_acceleration[cubic]  # acceleration of a unit cubic element force
    elongation = to_elements[:, cubic].copy()

    return StateSpaceModel(
        dim_state=dim,
        n_channels=n,
        labels=tuple(labels),
        augmented_params=aug,
        param_indices=tuple(range(2 * n, dim)),
        drift=drift,
        dispersion=dispersion,
        drift_jacobian=drift_jacobian,
        scaled_noise=scaled_noise,
        cubic_drift=(elongation, h, coeff),
    )


def check_observed_dofs(observed_dofs: Iterable[int], n_dof: int) -> tuple:
    """The observed DOF numbers as a tuple of ints; InvalidParameterError
    unless they are unique DOF numbers in 1..n_dof."""
    obs = tuple(int(i) for i in observed_dofs)
    if not obs:
        raise InvalidParameterError("observed_dofs must be nonempty")
    if any(i < 1 or i > n_dof for i in obs) or len(set(obs)) != len(obs):
        raise InvalidParameterError(
            f"observed_dofs must be unique DOF numbers in 1..{n_dof}, got {list(obs)}")
    return obs


def acceleration_model(
    system: MdofSystem,
    observed_dofs: Iterable[int],
    augment_params: Iterable[int] = (),
) -> Callable:
    """Measurement function for the selected DOF accelerations.

    Returns h(y) = rows of -M^-1 (G(x) + K x + C x'), the restoring-force
    acceleration; the deterministic force does not enter the measurement.
    ``augment_params`` must match the state layout h will be applied to:
    when nonempty, the stiffness entering K is read off the state tail.
    h shares the element kernel of the drift and of ``euler_transition``;
    where every stiffness rides in the tail it skips adding the all-zero
    fixed stiffness, which leaves its values unchanged, so the filter's
    measurement and a simulated window's accelerations are one function.

    h writes the element values into a buffer it keeps per state count
    (per sigma-point count in the filter) and reuses on every later call
    with that count; what it returns is a fresh array. Since the buffers
    are shared by every call, one h is not for concurrent use from two
    threads.
    """
    n = system.n_dof
    obs = check_observed_dofs(observed_dofs, n)
    obs0 = np.array([i - 1 for i in obs], dtype=int)
    *_, restoring, _ = _element_forces(system, _augmentation(n, augment_params))
    to_acceleration = (-system.elongation_operator / system.masses)[:, obs0]

    def h(y) -> np.ndarray:
        return restoring(np.asarray(y, dtype=float), to_acceleration)

    return h


def euler_transition(system: MdofSystem, augment_params: Iterable[int],
                     dt: float, forces: np.ndarray) -> Callable:
    """The filter's dynamic map over one window, compiled once.

    Returns ``transition(y, k)``, the Euler image y + a(y, f_k) dt of the
    states y ``(S, dim)`` of ``to_state_space(system, augment_params)``
    under the force sample ``forces[k]``. One product ``[Phi | E]^T y^T``
    gives both the linear part Phi (x + v dt, and identity on the
    velocities and the stiffness tail) and the element values E of
    ``_element_forces``; the element forces reach the velocity rows through
    one product with dt (-M^-1 B^T), and dt f_k / m, formed here for every
    sample of the window, is added last, all with the bits of the row-wise
    products ``y [Phi | E]``. This equals
    ``y + model.drift(y, f_k) * dt`` up to rounding: x + v dt is summed
    inside the product, and the force term is rounded on its own.

    The product ``[Phi | E]^T y^T`` is written into a buffer kept per
    sigma-point count, with the views of its linear block (transposed) and
    of its element values made once, and reused on every later call with
    that count; the image returned is a fresh array. Since the buffers are
    shared by every call, one transition is not for concurrent use from two
    threads.
    """
    n = system.n_dof
    aug0 = _augmentation(n, augment_params)
    dim = 2 * n + aug0.shape[0]
    disp, vel = (np.arange(2 * n)[idx]
                 for idx in _index_maps(n, system.state_ordering))
    to_elements, kernel, *_ = _element_forces(system, aug0)
    linear = np.eye(dim)
    linear[vel, disp] = dt
    stacked = np.hstack((linear, to_elements)).T
    to_velocity = np.zeros((n, dim))
    to_velocity[:, vel] = dt * (-system.elongation_operator / system.masses)
    pushes = np.zeros((forces.shape[0], dim))
    pushes[:, vel] = dt * (forces / system.masses)
    add = np.add

    @functools.cache
    def buffered(count: int) -> tuple:
        out = np.empty((dim + 3 * n, count))
        return out, out[:dim].T, kernel(out[dim:])

    def transition(y: np.ndarray, k: int) -> np.ndarray:
        out, moved, element_forces = buffered(y.shape[0])
        stacked.dot(y.T, out=out)
        image = element_forces().T.dot(to_velocity)
        add(image, moved, image)
        add(image, pushes[k], image)
        return image

    return transition
