"""Unscented Kalman filtering for joint state and stiffness estimation.

The filter follows the standard scaled unscented transform: 2L + 1 sigma
points at mu and mu +/- sqrt(L + lambda) * cholesky-column, mean weights
W0 = lambda/(L + lambda), Wi = 1/(2(L + lambda)), and the covariance zeroth
weight corrected by (1 - alpha^2 + beta). With alpha = 0.001 the weights
reach O(1e6), so they are built so that the mean-weight sum is exactly one
in float64 (the symmetric weights get their low mantissa bits cleared until
2L * Wi is exactly representable, and W0 := 1 - 2L * Wi, which is then also
exact); the perturbation against the textbook formula is below 1e-14
relative. Weighted means are accumulated in deviation form, which is
algebraically identical once the weights sum to one. The weights are
computed once per state length and parameter set.

Beliefs are validated where they enter, in the public ``GaussianBelief``
constructor; those built by ``predict``/``update`` are symmetric by
construction and carry the Cholesky factor of ``repair_psd``'s PSD test for
the next ``sigma_points``. A sample thus costs three factorizations (two PSD
tests, one innovation factor); after an eigenvalue repair ``sigma_points``
falls back to ``cholesky_with_jitter``, the one jitter ladder, which also
factors the innovation covariance.

Every factorization and solve goes through the LAPACK pair of ``linalg``
(``dpotrf``/``dpotrs`` without the wrappers' input scans), called through
this module's name ``cho_factor``. ``run_filter`` calls ``predict`` and
``update`` once per sample through the module namespace, and they call
``sigma_points`` and ``cho_factor`` by name, so that the span tracer of
``perfbench`` (which replaces those four module attributes) sees every
sample and every factorization. A fused array loop over the window would
save a few percent more but would hide them from it.

The dynamic model is the first-order Euler map f(y) = y + a(y, f_t) dt and
the measurement model is the restoring-force acceleration; the process
noise Q(m-) = dt * b(m-) b(m-)^T reproduces the benchmark recipes,
including the predicted-mean factor of the 7-DOF multiplicative channel.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .codec import codec, write_csv
from .errors import InvalidParameterError, NumericError
from .linalg import cho_factor, cho_solve
from .models import MdofSystem, StateSpaceModel, acceleration_model
from .sde import uniform_step

logger = logging.getLogger(__name__)

_JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8, 1e-6)
_REPAIR_BOUND_FACTOR = 1e-6


@codec
@dataclass(frozen=True)
class UkfParams:
    """Scaled-transform parameters; defaults are the benchmark values."""

    alpha_f: float = 0.001
    beta: float = 2.0
    kappa: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha_f <= 1.0:
            raise InvalidParameterError("alpha_f must lie in (0, 1]")

    def scaling(self, length: int) -> tuple:
        """Return (lambda, L + lambda) for a state of the given length."""
        c = self.alpha_f * self.alpha_f * (length + self.kappa)
        if c <= 0.0:
            raise InvalidParameterError("L + lambda must be positive")
        return c - length, c


@dataclass
class GaussianBelief:
    """Filtering distribution N(mean, cov); covariance kept symmetric.

    Beliefs from ``predict``/``update`` carry chol(cov) until ``cov`` is
    reassigned; do not modify ``cov`` in place."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        n = self.mean.shape[0]
        if self.cov.shape != (n, n):
            raise InvalidParameterError("covariance shape does not match mean")
        skew = np.max(np.abs(self.cov - self.cov.T))
        scale = max(1.0, float(np.max(np.abs(self.cov))))
        if skew > 1e-8 * scale:
            raise InvalidParameterError("covariance is not symmetric")
        self.cov = 0.5 * (self.cov + self.cov.T)
        self._factor_of = None

    @classmethod
    def _from_filter(cls, mean, cov, factor) -> "GaussianBelief":
        """Belief with a covariance symmetric by construction; not re-validated."""
        belief = cls.__new__(cls)
        belief.mean, belief.cov, belief._factor_of = mean, cov, (cov, factor)
        return belief

    @property
    def carried_factor(self) -> np.ndarray | None:
        """Cholesky factor of ``cov`` computed by the filter, if any."""
        cov, factor = self._factor_of or (None, None)
        return factor if cov is self.cov else None

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.cov), 0.0, None))


@dataclass(frozen=True)
class SigmaPointSet:
    """2L + 1 points with mean/covariance weights; symmetric about the mean."""

    points: np.ndarray
    w_mean: np.ndarray
    w_cov: np.ndarray


@dataclass
class PsdRepairLog:
    """Counts covariance repairs and tracks the largest eigenvalue clipped."""

    count: int = 0
    max_magnitude: float = 0.0

    def record(self, magnitude: float, trace: float) -> None:
        self.count += 1
        self.max_magnitude = max(self.max_magnitude, magnitude)
        if magnitude > _REPAIR_BOUND_FACTOR * max(trace, 1e-300):
            logger.warning(
                "large PSD repair: clipped eigenvalue %.3e against trace %.3e",
                magnitude, trace)


def _trim_for_exact_multiple(w: float, q: int) -> float:
    """Clear low mantissa bits of w so that q * w is exactly representable."""
    if q <= 1:
        return w
    bits = int(q).bit_length()
    mant, exp = math.frexp(w)
    scaled = int(math.ldexp(mant, 53))
    scaled = (scaled >> bits) << bits
    return math.ldexp(float(scaled), exp - 53)


@functools.lru_cache(maxsize=64)
def ukf_weights(length: int, params: UkfParams) -> tuple:
    """Read-only mean and covariance weights with sum(w_mean) == 1 exactly."""
    _, c = params.scaling(length)
    wi = _trim_for_exact_multiple(1.0 / (2.0 * c), 2 * length)
    w0_mean = 1.0 - (2 * length) * wi
    w_mean = np.full(2 * length + 1, wi)
    w_mean[0] = w0_mean
    w_cov = w_mean.copy()
    w_cov[0] = w0_mean + (1.0 - params.alpha_f ** 2 + params.beta)
    w_mean.flags.writeable = False
    w_cov.flags.writeable = False
    return w_mean, w_cov


def cholesky_with_jitter(p: np.ndarray, context: str = "covariance") -> tuple:
    """Lower Cholesky factor of p + rung * scale * I at the first rung of
    the jitter ladder that factorizes, scale = trace(p) / n; returns the
    factor and the matrix it factors (p itself at rung 0)."""
    if not np.all(np.isfinite(p)):
        raise NumericError(f"{context}: matrix has non-finite entries")
    n = p.shape[0]
    scale = max(float(np.trace(p)) / n, 0.0)
    for jit in _JITTER_LADDER:
        used = p + (jit * scale) * np.eye(n) if jit else p
        try:
            return cho_factor(used), used
        except np.linalg.LinAlgError:
            continue
    raise NumericError(f"{context}: Cholesky failed after maximum jitter")


def repair_psd(p: np.ndarray, log: PsdRepairLog | None = None) -> tuple:
    """Symmetrize p and return it with its lower Cholesky factor; if p is not
    positive definite, clip negative eigenvalues to zero, record the repair
    magnitude and return the repaired matrix with factor None."""
    p = 0.5 * (p + p.T)
    try:
        return p, cho_factor(p)
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(p)
    magnitude = float(max(0.0, -w.min()))
    fixed = (v * np.clip(w, 0.0, None)) @ v.T
    fixed = 0.5 * (fixed + fixed.T)
    if log is not None:
        log.record(magnitude, float(np.trace(fixed)))
    return fixed, None


def sigma_points(belief: GaussianBelief, params: UkfParams) -> SigmaPointSet:
    """Scaled sigma points mu, mu +/- sqrt(L + lambda) * chol(P) columns."""
    length = belief.mean.shape[0]
    _, c = params.scaling(length)
    factor = belief.carried_factor
    if factor is None or not np.isfinite(factor).all():
        factor = cholesky_with_jitter(belief.cov, "sigma-point square root")[0]
    spread = np.sqrt(c) * factor
    points = np.empty((2 * length + 1, length))
    points[0] = belief.mean
    points[1:length + 1] = belief.mean + spread.T
    points[length + 1:] = belief.mean - spread.T
    w_mean, w_cov = ukf_weights(length, params)
    return SigmaPointSet(points=points, w_mean=w_mean, w_cov=w_cov)


def _weighted_mean(points: np.ndarray, w_mean: np.ndarray) -> np.ndarray:
    # deviation form; identical to sum_i w_i y_i because the weights sum to 1
    return points[0] + w_mean[1:] @ (points[1:] - points[0])


def _require_finite(values: np.ndarray, what: str) -> None:
    if np.isfinite(values).all():
        return
    bad = np.nonzero(~np.all(np.isfinite(np.atleast_2d(values)), axis=-1))[0]
    raise NumericError(f"non-finite {what} at sigma index {int(bad[0])}")


def predict(
    belief: GaussianBelief,
    dynamic_fn: Callable,
    q,
    params: UkfParams,
    repair_log: PsdRepairLog | None = None,
) -> GaussianBelief:
    """Unscented time update; ``q`` is a matrix or a function of the
    predicted mean."""
    sp = sigma_points(belief, params)
    propagated = np.asarray(dynamic_fn(sp.points), dtype=float)
    _require_finite(propagated, "propagated sigma point")
    mean = _weighted_mean(propagated, sp.w_mean)
    dev = propagated - mean
    cov = (dev * sp.w_cov[:, None]).T @ dev
    q_eval = q(mean) if callable(q) else q
    cov = cov + q_eval
    return GaussianBelief._from_filter(mean, *repair_psd(cov, repair_log))


def update(
    predicted: GaussianBelief,
    measurement_fn: Callable,
    z,
    r: np.ndarray,
    params: UkfParams,
    repair_log: PsdRepairLog | None = None,
) -> GaussianBelief:
    """Unscented measurement update with gain K = C S^-1."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    sp = sigma_points(predicted, params)
    z_points = np.asarray(measurement_fn(sp.points), dtype=float)
    if z_points.ndim == 1:
        z_points = z_points[:, None]
    _require_finite(z_points, "measurement sigma point")
    if z_points.shape[1] != z.shape[0]:
        raise InvalidParameterError(
            f"measurement dimension {z.shape[0]} does not match model output "
            f"{z_points.shape[1]}")

    z_mean = _weighted_mean(z_points, sp.w_mean)
    dz = z_points - z_mean
    s = (dz * sp.w_cov[:, None]).T @ dz + r
    s = 0.5 * (s + s.T)
    dy = sp.points - predicted.mean
    cross = (dy * sp.w_cov[:, None]).T @ dz

    factor, s_used = cholesky_with_jitter(s, "innovation covariance")
    gain = cho_solve(factor, cross.T).T
    mean = predicted.mean + gain @ (z - z_mean)
    cov = predicted.cov - gain @ s_used @ gain.T
    return GaussianBelief._from_filter(mean, *repair_psd(cov, repair_log))


# ---------------------------------------------------------------------------
# Noise models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
    """Process covariance (matrix or function of the predicted mean) plus
    measurement covariance."""

    q: object
    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise InvalidParameterError("R must be a square matrix")
        if np.max(np.abs(r - r.T)) > 1e-10 * max(1.0, float(np.max(np.abs(r)))):
            raise InvalidParameterError("R must be symmetric")
        r = 0.5 * (r + r.T)
        floor = -1e-10 * max(1.0, float(np.max(np.abs(r))))
        if float(np.linalg.eigvalsh(r).min()) < floor:
            raise InvalidParameterError("R must be positive semi-definite")
        object.__setattr__(self, "r", r)


def build_process_noise(
    model: StateSpaceModel,
    dt: float,
    scale_factors=None,
    extra_diag=None,
) -> Callable:
    """Q(m-) = dt * b(m-) b(m-)^T, optionally rescaled.

    ``scale_factors`` multiplies Q element-wise through outer(sqrt(s),
    sqrt(s)) (a scalar or per-state vector), which keeps Q PSD and scales
    the diagonal by s. Structurally zero rows (the parameter entries) stay
    zero under any scale; ``extra_diag`` adds variance there explicitly
    when the estimates need artificial process noise.

    Q is built once. The noise enters on a diagonal (each channel drives
    one row), so a dispersion entry in ``model.scaled_noise`` moves only
    its own diagonal entry of Q; each call recomputes that entry with the
    operations the full product applies to it, so the result is the same
    to the bit, and every other entry is constant.
    """
    if dt <= 0.0:
        raise InvalidParameterError("dt must be positive")
    dim = model.dim_state
    if scale_factors is None:
        scale_outer = None
    else:
        s = np.asarray(scale_factors, dtype=float) * np.ones(dim)
        if s.shape != (dim,) or np.any(s < 0.0):
            raise InvalidParameterError(
                "scale_factors must be non-negative and broadcast to the state")
        root = np.sqrt(s)
        scale_outer = np.outer(root, root)
    if extra_diag is None:
        extra = None
    else:
        extra = np.asarray(extra_diag, dtype=float) * np.ones(dim)
        if extra.shape != (dim,) or np.any(extra < 0.0):
            raise InvalidParameterError(
                "extra_diag must be non-negative and broadcast to the state")

    b_unit = model.dispersion(np.ones(dim))  # scaled entries at their factor
    for row, channel, _ in model.scaled_noise:
        if (np.count_nonzero(b_unit[row]) != 1
                or np.count_nonzero(b_unit[:, channel]) != 1):
            raise InvalidParameterError(
                "a state-scaled noise entry must be alone in its row and channel")
    q_const = dt * (b_unit @ b_unit.T)
    if scale_outer is not None:
        q_const = q_const * scale_outer
    if extra is not None:
        q_const = q_const + np.diag(extra)
    q_const.flags.writeable = False
    scaled = [(row, b_unit[row, channel], state)
              for row, channel, state in model.scaled_noise]

    def q_of(mean: np.ndarray) -> np.ndarray:
        if not scaled:
            return q_const
        q = q_const.copy()
        for row, gain, state in scaled:
            b = gain * mean[state]
            entry = dt * (b * b)
            if scale_outer is not None:
                entry = entry * scale_outer[row, row]
            if extra is not None:
                entry = entry + extra[row]
            q[row, row] = entry
        return q

    return q_of


# ---------------------------------------------------------------------------
# Window filtering
# ---------------------------------------------------------------------------


@dataclass
class FilterResult:
    """Belief trajectory over one measurement window plus terminal estimates."""

    times: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    labels: tuple
    final_belief: GaussianBelief
    param_names: tuple
    param_estimate: np.ndarray
    param_std: np.ndarray
    param_cov: np.ndarray
    psd_repairs: PsdRepairLog
    n_updates: int

    def to_csv(self, path) -> None:
        header = ["time"] + [f"mean_{s}" for s in self.labels] \
            + [f"std_{s}" for s in self.labels]
        write_csv(path, header, np.column_stack((self.times, self.means, self.stds)))

    def summary_dict(self) -> dict:
        return {
            "parameters": {
                name: {"estimate": est, "stddev": std} for name, est, std in zip(
                    self.param_names, self.param_estimate.tolist(), self.param_std.tolist())},
            "parameter_covariance": self.param_cov.tolist(),
            "psd_repairs": dataclasses.asdict(self.psd_repairs),
            "n_updates": int(self.n_updates),
        }


def run_filter(
    model: StateSpaceModel,
    system: MdofSystem,
    window,
    init: GaussianBelief,
    noise: NoiseModel,
    params: UkfParams,
) -> FilterResult:
    """Sequential predict/update over one measurement window.

    ``window`` provides ``times`` (uniform grid), ``accel`` (samples by
    observed channels), ``force`` (samples by DOF, one column per DOF of
    ``system``) and ``observed_dofs``.
    The dynamic map is one Euler step per measurement sample with the
    left-endpoint force injected; the measurement map is the selected
    restoring-force accelerations with stiffness read off the state tail.
    """
    times = np.asarray(window.times, dtype=float)
    dt = uniform_step(times)
    if init.mean.shape[0] != model.dim_state:
        raise InvalidParameterError("initial belief dimension does not match model")

    accel = np.asarray(window.accel, dtype=float)
    if accel.shape != (times.shape[0], len(window.observed_dofs)):
        raise InvalidParameterError(
            f"accel must be (n_samples, n_observed), got {accel.shape}")
    force = np.asarray(window.force, dtype=float)
    if force.shape != (times.shape[0], system.n_dof):
        raise InvalidParameterError(
            f"force must be (n_samples, n_dof) = ({times.shape[0]}, {system.n_dof}), "
            f"got {force.shape}")
    h = acceleration_model(system, window.observed_dofs,
                           augment_params=model.augmented_params)

    repair_log = PsdRepairLog()
    n_samples = times.shape[0]
    means = np.empty((n_samples, model.dim_state))
    stds = np.empty((n_samples, model.dim_state))
    belief = init
    means[0] = belief.mean
    stds[0] = belief.std

    for k in range(1, n_samples):
        f_prev = force[k - 1]

        def dynamic_fn(points, f_prev=f_prev):
            return points + model.drift(points, f_prev) * dt

        try:
            belief = predict(belief, dynamic_fn, noise.q, params, repair_log)
            belief = update(belief, h, accel[k], noise.r, params, repair_log)
        except NumericError as exc:
            raise NumericError(f"sample {k}: {exc}") from exc
        means[k] = belief.mean
        stds[k] = belief.std

    slots = list(model.param_indices)
    param_cov = belief.cov[np.ix_(slots, slots)] if slots else np.zeros((0, 0))
    return FilterResult(
        times=times,
        means=means,
        stds=stds,
        labels=model.labels,
        final_belief=belief,
        param_names=tuple(model.labels[i] for i in slots),
        param_estimate=belief.mean[slots].copy(),
        param_std=belief.std[slots].copy(),
        param_cov=param_cov,
        psd_repairs=repair_log,
        n_updates=n_samples - 1,
    )
