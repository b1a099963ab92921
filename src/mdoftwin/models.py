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
  kernel evaluates the restoring acceleration for the drift and the
  measurement alike.
* First-order state vectors come in two orderings: ``blocked``
  ``[x1..xN, v1..vN]`` (2-DOF benchmark) and ``interleaved``
  ``[x1, v1, x2, v2, ...]`` (7-DOF benchmark). Augmented states append the
  estimated stiffness entries after the kinematic block in index order.
* Forces are per-DOF harmonics ``F_i(t) = amp_i * sin(freq_i * t)``.
"""

from __future__ import annotations

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

    # ---- assembled matrices -------------------------------------------------

    @property
    def n_dof(self) -> int:
        return self.masses.shape[0]

    @property
    def state_ordering(self) -> str:
        return _BLOCKED if self.kind == KIND_DUFFING_2DOF else _INTERLEAVED

    @property
    def mass(self) -> np.ndarray:
        """Diagonal mass matrix."""
        return np.diag(self.masses)

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

    def stiffness_matrix(self, k: np.ndarray | None = None) -> np.ndarray:
        """K(k) = B^T diag(s * k) B."""
        k = self.stiffnesses if k is None else np.asarray(k, dtype=float)
        b = self.elongation_operator
        return b.T @ ((self.stiffness_signs * k)[:, None] * b)

    @property
    def damping(self) -> np.ndarray:
        """C = B^T diag(c) B, a standard chain for both kinds."""
        b = self.elongation_operator
        return b.T @ (self.dampings[:, None] * b)

    # ---- forces -------------------------------------------------------------

    def force_at(self, t) -> np.ndarray:
        """Deterministic harmonic force; t scalar or (m,) -> (n,) or (m, n)."""
        t = np.asarray(t, dtype=float)
        return self.force_amplitudes * np.sin(np.multiply.outer(t, self.force_frequencies))

    # ---- nonlinearity -------------------------------------------------------

    def nonlinear_term(self, x: np.ndarray) -> np.ndarray:
        """Cubic coupling force G(x); batched over leading axes."""
        x = np.asarray(x, dtype=float)
        g = np.zeros_like(x)
        a = self.nonlinear_coeff
        if self.kind == KIND_DUFFING_2DOF:
            g[..., 0] = a * x[..., 0] ** 3
        else:
            d = a * (x[..., 2] - x[..., 3]) ** 3
            g[..., 2] = d
            g[..., 3] = -d
        return g


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
        object.__setattr__(self, "rate_per_day", float(self.rate_per_day))
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

    Every callable is batched over leading axes: a state is ``(..., dim)``,
    one per path, and ``drift`` takes the force sample ``(n_dof,)`` or one
    per path ``(..., n_dof)``. The analytic partials feed the strong
    Taylor-1.5 scheme as directional derivatives, so no ``(dim, dim)``
    matrix is formed per path:

    * ``drift_jacobian(y, f, v)`` is ``(da/dy) v`` for a direction ``v``;
      the scheme requires it, Euler-Maruyama does not;
    * ``drift_hessian_quad(y, f, b)`` is
      ``0.5 sum_ij (b b^T)_ij d2a/dy_i dy_j`` for the dispersion ``b``
      ``(..., dim, n_channels)``; None where it vanishes identically, that
      is where the drift is affine along every row the noise enters;
    * ``dispersion_jacobian(y, u)`` is ``sum_j sum_i u_ji db_.j/dy_i`` for
      one direction per channel, ``u`` ``(..., n_channels, dim)``; None for
      additive noise, which makes the L(b) correction terms vanish.

    ``scaled_noise`` lists ``(row, channel, state)`` for every dispersion
    entry that is a constant times the state entry ``y[state]``; all other
    entries are constant. Augmented models carry the estimated stiffness
    entries at ``param_indices`` with zero drift and zero dispersion rows.
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


def _restoring_acceleration(system: MdofSystem, aug0: np.ndarray,
                            rows=slice(None)) -> tuple:
    """Compile r(y) = -M^-1 (G(x) + K(k) x + C v) for one state layout.

    Every chain force acts along a spring elongation e = B x or its rate
    B v, so the node forces are B^T applied to the element forces
    s * k * e + c * B v + g(e), with g the cubic on ``cubic_element``.
    One product with the state yields e, c * B v and s * k for the
    stiffness read off the state tail at ``aug0``; a second applies
    -M^-1 B^T and keeps the DOFs selected by ``rows``. Batched over leading
    axes of y. Returns r, ``elements`` (the linear map giving those three
    element values) and ``signed_k``, the signed stiffness not on the tail.
    """
    n = system.n_dof
    disp_idx, vel_idx = _index_maps(n, system.state_ordering)
    b = system.elongation_operator
    signs = system.stiffness_signs
    to_elements = np.zeros((2 * n + aug0.shape[0], 3 * n))
    to_elements[disp_idx, :n] = b.T
    to_elements[vel_idx, n:2 * n] = b.T * system.dampings
    to_elements[2 * n + np.arange(aug0.shape[0]), 2 * n + aug0] = signs[aug0]
    signed_k = signs * system.stiffnesses
    signed_k[aug0] = 0.0  # taken from the state instead
    to_acceleration = (-b / system.masses)[:, rows]
    cubic, coeff = system.cubic_element, system.nonlinear_coeff

    def elements(y: np.ndarray) -> tuple:
        """Elongations B x, damper forces c * B v and tail stiffnesses s * k."""
        ev = y @ to_elements
        return ev[..., :n], ev[..., n:2 * n], ev[..., 2 * n:]

    def acceleration(y: np.ndarray) -> np.ndarray:
        e, damper, tail_k = elements(y)
        w = (signed_k + tail_k) * e + damper
        w[..., cubic] += coeff * e[..., cubic] ** 3
        return w @ to_acceleration

    return acceleration, elements, signed_k


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
    channel 4, scaled by the DOF-4 displacement.
    """
    n = system.n_dof
    aug0 = _augmentation(n, augment_params)
    aug = tuple(int(i) + 1 for i in aug0)
    disp_idx, vel_idx = _index_maps(n, system.state_ordering)
    dim = 2 * n + len(aug)

    masses = system.masses
    to_acceleration = -system.elongation_operator / masses
    cubic, coeff = system.cubic_element, system.nonlinear_coeff
    restoring, elements, signed_k = _restoring_acceleration(system, aug0)

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
        out = np.zeros_like(y)
        out[..., disp_idx] = y[..., vel_idx]
        out[..., vel_idx] = restoring(y) + np.asarray(f, dtype=float) / masses
        return out

    def dispersion(y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = np.empty(y.shape[:-1] + (dim, n))
        out[...] = b_const
        for row, channel, state in scaled_noise:
            out[..., row, channel] *= y[..., state]
        return out

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

    dispersion_jacobian = None
    if scaled_noise:
        def dispersion_jacobian(y, u) -> np.ndarray:
            out = np.zeros(u.shape[:-2] + (dim,))
            for row, channel, state in scaled_noise:
                out[..., row] += b_const[row, channel] * u[..., channel, state]
            return out

    return StateSpaceModel(
        dim_state=dim,
        n_channels=n,
        labels=tuple(labels),
        augmented_params=aug,
        param_indices=tuple(range(2 * n, dim)),
        drift=drift,
        dispersion=dispersion,
        drift_jacobian=drift_jacobian,
        dispersion_jacobian=dispersion_jacobian,
        scaled_noise=scaled_noise,
    )


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
    """
    obs = tuple(int(i) for i in observed_dofs)
    n = system.n_dof
    if not obs:
        raise InvalidParameterError("observed_dofs must be nonempty")
    if any(i < 1 or i > n for i in obs) or len(set(obs)) != len(obs):
        raise InvalidParameterError("observed_dofs must be unique DOF numbers in 1..n_dof")
    obs0 = np.array([i - 1 for i in obs], dtype=int)
    restoring, _, _ = _restoring_acceleration(
        system, _augmentation(n, augment_params), rows=obs0)

    def h(y) -> np.ndarray:
        return restoring(np.asarray(y, dtype=float))

    return h
