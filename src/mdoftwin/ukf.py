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
algebraically identical once the weights sum to one. The weights,
sqrt(L + lambda) and the sigma-point offsets are formed once per state
length and parameter set and kept on the ``UkfParams``, so a half-step
neither hashes the parameters nor rebuilds them; the sigma points are then
one product of the offsets with the belief's factor.

Every ``GaussianBelief`` holds ``factor`` = chol(cov), and a belief is
frozen, so the factor cannot go stale. The public constructor validates the
covariance and factors it through ``cholesky_with_jitter``, the one jitter
ladder; the beliefs of ``predict``/``update`` are symmetric by construction
and built without re-validation. A sample costs three factorizations (two
PSD tests, one innovation factor), and ``sigma_points`` only scales and
shifts the belief's factor. The measurement update subtracts K C^T, equal
to K S K^T, also for a jittered S. Every factorization and solve is the
LAPACK pair of ``linalg``, called through this module's name
``cho_factor``; ``run_filter`` calls ``predict`` and ``update`` once per
sample through the module namespace, and they call ``sigma_points`` by
name, so that the span tracer of ``perfbench`` (which replaces those four
module attributes) sees every sample and every factorization.

A half-step costs mostly numpy's per-call overhead, so its common path calls
no helper of this module beyond the traced names: it looks up its transform
once, takes an image that is already a 2-D float array as it is, tests
finiteness by a sum of squares (BLAS forms it faster than numpy reduces
``isfinite``), weighs the deviations by the transform's read-only weight
matrix of their shape (a same-shape product, with the bits of the broadcast
column), symmetrizes in place and tries the PSD test's ``cho_factor``, as
``repair_psd`` and ``cholesky_with_jitter`` do. Every other case enters its
slow path once: ``_as_image`` for other images, ``_require_finite`` when the
sum of squares is not finite (it names the sigma index, and a finite image
above ~1e154 passes), ``_clip_eigenvalues`` after a failed PSD test and
``_jitter_ladder`` after a failed innovation factor. Every product is
``ndarray.dot`` (less overhead than ``@``, the same bits), and every
returned array is fresh.

The dynamic model is the first-order Euler map f(y) = y + a(y, f_t) dt,
compiled once per window by ``models.euler_transition``, and the
measurement model is the restoring-force acceleration; the process
noise Q(m-) = dt * b(m-) b(m-)^T reproduces the benchmark recipes,
including the predicted-mean factor of the 7-DOF multiplicative channel.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .codec import codec, decode, write_csv
from .errors import InvalidParameterError, NumericError
from .linalg import all_finite, cho_factor, cho_solve
from .models import (MdofSystem, StateSpaceModel, acceleration_model,
                     dispersion_split, euler_transition)
from .sde import non_finite, uniform_step

logger = logging.getLogger(__name__)

_JITTER_LADDER = (1e-12, 1e-10, 1e-8, 1e-6)  # tried after p itself fails
_REPAIR_BOUND_FACTOR = 1e-6
_FLOAT = np.dtype(float)


@codec
@dataclass(frozen=True)
class UkfParams:
    """Scaled-transform parameters; defaults are the benchmark values."""

    alpha_f: float = 0.001
    beta: float = 2.0
    kappa: float = 0.0

    def __post_init__(self):
        for name in ("alpha_f", "beta", "kappa"):
            decode(float, getattr(self, name), name)
        if not 0.0 < self.alpha_f <= 1.0:
            raise InvalidParameterError("alpha_f must lie in (0, 1]")

    def scaling(self, length: int) -> float:
        """Return L + lambda for a state of the given length."""
        c = self.alpha_f * self.alpha_f * (length + self.kappa)
        if c <= 0.0:
            raise InvalidParameterError("L + lambda must be positive")
        return c

    @functools.cached_property
    def _transforms(self) -> dict:
        """The ``_Transform`` of each state length met so far."""
        return {}


@dataclass(frozen=True)
class GaussianBelief:
    """Filtering distribution N(mean, cov) with ``factor`` = chol(cov); the
    covariance is kept symmetric."""

    mean: np.ndarray
    cov: np.ndarray
    factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if not np.isfinite(mean).all():
            raise InvalidParameterError(f"belief mean must be finite, got {mean.tolist()}")
        cov = np.asarray(self.cov, dtype=float)
        n = mean.shape[0]
        if cov.shape != (n, n):
            raise InvalidParameterError("covariance shape does not match mean")
        skew = np.max(np.abs(cov - cov.T))
        scale = max(1.0, float(np.max(np.abs(cov))))
        if skew > 1e-8 * scale:
            raise InvalidParameterError("covariance is not symmetric")
        cov = 0.5 * (cov + cov.T)
        factor = cholesky_with_jitter(cov, "sigma-point square root")[0]
        self.__dict__.update(mean=mean, cov=cov, factor=factor)  # frozen

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.cov), 0.0, None))


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


class _Transform:
    """The scaled unscented transform of one state length and parameter set.

    ``w_mean`` and ``w_cov`` are read-only with sum(w_mean) == 1 exactly;
    the rows of ``offsets`` are 0 and +/- sqrt(L + lambda) times the unit
    vectors, so that the sigma points are mean + offsets @ chol(P)^T, each
    offset one exactly rounded product. ``weights[width]`` is w_cov in every
    column of a read-only ``(2L + 1, width)`` matrix, made once per image
    width: weighing deviations by it is a same-shape product, which costs
    less than the broadcast column and has its bits.
    """

    def __init__(self, length: int, params: UkfParams):
        c = params.scaling(length)
        wi = _trim_for_exact_multiple(1.0 / (2.0 * c), 2 * length)
        w0_mean = 1.0 - (2 * length) * wi
        w_mean = np.full(2 * length + 1, wi)
        w_mean[0] = w0_mean
        w_cov = w_mean.copy()
        w_cov[0] = w0_mean + (1.0 - params.alpha_f ** 2 + params.beta)
        w_mean.flags.writeable = False
        w_cov.flags.writeable = False
        self.w_mean, self.w_cov = w_mean, w_cov
        unit = math.sqrt(c) * np.eye(length)
        self.offsets = np.vstack((np.zeros(length), unit, -unit))
        self.weights = _WeightMatrices({1: w_cov[:, None]})


class _WeightMatrices(dict):
    """w_cov in every column of a read-only ``(2L + 1, width)`` matrix, keyed
    by the width: the column itself at width 1, the others made on their
    first lookup."""

    def __missing__(self, width: int) -> np.ndarray:
        matrix = self[width] = np.repeat(self[1], width, axis=1)
        matrix.flags.writeable = False
        return matrix


def _transform(length: int, params: UkfParams) -> _Transform:
    """The transform for a state length, built once per parameter set."""
    known = params._transforms
    if length not in known:
        known[length] = _Transform(length, params)
    return known[length]


def ukf_weights(length: int, params: UkfParams) -> tuple:
    """Read-only mean and covariance weights with sum(w_mean) == 1 exactly."""
    transform = _transform(length, params)
    return transform.w_mean, transform.w_cov


def cholesky_with_jitter(p: np.ndarray, context: str = "covariance") -> tuple:
    """Lower Cholesky factor of p, or else of p + rung * scale * I at the
    first rung of the jitter ladder that factorizes, scale = trace(p) / n;
    returns the factor and the matrix it factors. The scale is computed only
    when p itself fails."""
    if not all_finite(p):
        raise NumericError(f"{context}: matrix has non-finite entries")
    try:
        return cho_factor(p), p
    except np.linalg.LinAlgError:
        pass
    return _jitter_ladder(p, context)


def _jitter_ladder(p: np.ndarray, context: str) -> tuple:
    """``cholesky_with_jitter`` of a finite p that failed to factor."""
    n = p.shape[0]
    scale = max(float(np.trace(p)) / n, 0.0)
    for jit in _JITTER_LADDER:
        used = p + (jit * scale) * np.eye(n)
        try:
            return cho_factor(used), used
        except np.linalg.LinAlgError:
            continue
    raise NumericError(f"{context}: Cholesky failed after maximum jitter")


def repair_psd(p: np.ndarray, log: PsdRepairLog | None = None) -> tuple:
    """Symmetrize p and return it with its lower Cholesky factor; if p is not
    positive definite, clip negative eigenvalues to zero, record the repair
    magnitude and return the repaired matrix with the jitter ladder's
    factor. A non-finite p raises NumericError."""
    p = p + p.T  # an in-place p += p.T makes numpy buffer p.T
    p *= 0.5
    if not all_finite(p):
        raise NumericError("sigma-point square root: matrix has non-finite entries")
    try:
        return p, cho_factor(p)
    except np.linalg.LinAlgError:
        pass
    return _clip_eigenvalues(p, log)


def _clip_eigenvalues(p: np.ndarray, log: PsdRepairLog | None) -> tuple:
    """``repair_psd`` of a symmetric, finite p that failed to factor."""
    w, v = np.linalg.eigh(p)
    magnitude = float(max(0.0, -w.min()))
    fixed = (v * np.clip(w, 0.0, None)) @ v.T
    fixed = 0.5 * (fixed + fixed.T)
    if log is not None:
        log.record(magnitude, float(np.trace(fixed)))
    return fixed, cholesky_with_jitter(fixed, "sigma-point square root")[0]


def sigma_points(belief: GaussianBelief, params: UkfParams) -> np.ndarray:
    """Scaled sigma points mu, mu +/- sqrt(L + lambda) * chol(P) columns, as
    the rows of a (2L + 1, L) array; ``ukf_weights`` gives their weights."""
    length = belief.mean.shape[0]
    transform = params._transforms.get(length) or _transform(length, params)
    points = transform.offsets.dot(belief.factor.T)
    points += belief.mean
    return points


def _as_image(values) -> np.ndarray:
    """The sigma points' images as a float array, a 1-D one as one column."""
    image = np.asarray(values, dtype=float)
    return image[:, None] if image.ndim == 1 else image


def _require_finite(image: np.ndarray, what: str) -> None:
    """NumericError naming the first sigma point whose image is not finite,
    if any; for an image whose sum of squares is not finite, which a finite
    entry above ~1e154 also makes."""
    bad = np.nonzero(~np.all(np.isfinite(np.atleast_2d(image)), axis=-1))[0]
    if bad.size:
        raise NumericError(f"non-finite {what} at sigma index {int(bad[0])}")


def predict(
    belief: GaussianBelief,
    dynamic_fn: Callable,
    q,
    params: UkfParams,
    repair_log: PsdRepairLog | None = None,
) -> GaussianBelief:
    """Unscented time update; ``q`` is a matrix or, as from
    ``build_process_noise``, a function adding Q(predicted mean) onto a
    covariance."""
    length = belief.mean.shape[0]
    transform = params._transforms.get(length) or _transform(length, params)
    image = dynamic_fn(sigma_points(belief, params))
    if not (type(image) is np.ndarray and image.ndim == 2 and image.dtype is _FLOAT):
        image = _as_image(image)
    if not math.isfinite(np.vdot(image, image)):
        _require_finite(image, "propagated sigma point")
    # deviation form; identical to sum_i w_i y_i because the weights sum to 1
    first = image[0]
    dev = image - first
    mean = first + transform.w_mean.dot(dev)
    np.subtract(image, mean, out=dev)
    cov = (dev * transform.weights[dev.shape[1]]).T.dot(dev)
    cov = q(mean, cov) if callable(q) else cov + q
    cov = cov + cov.T  # repair_psd from here on
    cov *= 0.5
    if not (math.isfinite(np.vdot(cov, cov)) or np.isfinite(cov).all()):
        raise NumericError("sigma-point square root: matrix has non-finite entries")
    try:
        factor = cho_factor(cov)
    except np.linalg.LinAlgError:
        cov, factor = _clip_eigenvalues(cov, repair_log)
    predicted = GaussianBelief.__new__(GaussianBelief)  # symmetric: not re-validated
    predicted.__dict__.update(mean=mean, cov=cov, factor=factor)
    return predicted


def update(
    predicted: GaussianBelief,
    measurement_fn: Callable,
    z,
    r: np.ndarray,
    params: UkfParams,
    repair_log: PsdRepairLog | None = None,
) -> GaussianBelief:
    """Unscented measurement update with gain K = C S^-1."""
    if not (type(z) is np.ndarray and z.ndim == 1 and z.dtype is _FLOAT):
        z = np.atleast_1d(np.asarray(z, dtype=float))
    length = predicted.mean.shape[0]
    transform = params._transforms.get(length) or _transform(length, params)
    points = sigma_points(predicted, params)
    image = measurement_fn(points)
    if not (type(image) is np.ndarray and image.ndim == 2 and image.dtype is _FLOAT):
        image = _as_image(image)
    if not math.isfinite(np.vdot(image, image)):
        _require_finite(image, "measurement sigma point")
    first = image[0]
    dz = image - first
    z_mean = first + transform.w_mean.dot(dz)
    np.subtract(image, z_mean, out=dz)
    if dz.shape[1] != z.shape[0]:
        raise InvalidParameterError(
            f"measurement dimension {z.shape[0]} does not match model output "
            f"{dz.shape[1]}")

    weights = transform.weights
    s = (dz * weights[dz.shape[1]]).T.dot(dz)
    s += r
    s = s + s.T
    s *= 0.5
    # the points' deviations, weighed in place: the points are not read again
    deviations = np.subtract(points, predicted.mean, out=points)
    cross = np.multiply(deviations, weights[length], out=deviations).T.dot(dz)

    if not (math.isfinite(np.vdot(s, s)) or np.isfinite(s).all()):
        raise NumericError("innovation covariance: matrix has non-finite entries")
    try:
        factor = cho_factor(s)
    except np.linalg.LinAlgError:
        factor = _jitter_ladder(s, "innovation covariance")[0]
    gain = cho_solve(factor, cross.T).T
    mean = predicted.mean + gain.dot(z - z_mean)
    cov = predicted.cov - gain.dot(cross.T)  # K S K^T = K C^T, also under jitter
    cov = cov + cov.T  # repair_psd from here on
    cov *= 0.5
    if not (math.isfinite(np.vdot(cov, cov)) or np.isfinite(cov).all()):
        raise NumericError("sigma-point square root: matrix has non-finite entries")
    try:
        factor = cho_factor(cov)
    except np.linalg.LinAlgError:
        cov, factor = _clip_eigenvalues(cov, repair_log)
    updated = GaussianBelief.__new__(GaussianBelief)
    updated.__dict__.update(mean=mean, cov=cov, factor=factor)
    return updated


# ---------------------------------------------------------------------------
# Noise models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
    """Process covariance (a matrix, or a function of the predicted mean as
    ``build_process_noise`` returns it) plus measurement covariance.

    InvalidParameterError unless R is a finite, symmetric, positive
    semi-definite square matrix and a matrix Q is finite and square.
    """

    q: object
    r: np.ndarray

    def __post_init__(self):
        if not callable(self.q):
            q = np.asarray(self.q, dtype=float)
            if q.ndim != 2 or q.shape[0] != q.shape[1]:
                raise InvalidParameterError("Q must be a square matrix")
            if not np.isfinite(q).all():
                raise InvalidParameterError("Q must be finite")
            object.__setattr__(self, "q", q)
        r = np.asarray(self.r, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise InvalidParameterError("R must be a square matrix")
        if not np.isfinite(r).all():  # NaN would pass every test below
            raise InvalidParameterError("R must be finite")
        if np.max(np.abs(r - r.T)) > 1e-10 * max(1.0, float(np.max(np.abs(r)))):
            raise InvalidParameterError("R must be symmetric")
        r = 0.5 * (r + r.T)
        floor = -1e-10 * max(1.0, float(np.max(np.abs(r))))
        if float(np.linalg.eigvalsh(r).min()) < floor:
            raise InvalidParameterError("R must be positive semi-definite")
        object.__setattr__(self, "r", r)


def build_process_noise(model: StateSpaceModel, dt: float, scale=None) -> Callable:
    """Q(m-) = dt * b(m-) b(m-)^T, optionally rescaled.

    ``scale`` is a non-negative scalar s; Q is multiplied by sqrt(s) sqrt(s),
    the element of outer(sqrt(s), sqrt(s)), which keeps Q PSD and scales the
    diagonal by s. Structurally zero rows (the parameter entries) stay zero.

    Returns ``q_of(mean, cov=None)``: ``cov`` with Q(mean) added in place,
    or a new Q(mean). Q is built once. The noise enters on a diagonal (each
    channel drives one row), so a dispersion entry in ``model.scaled_noise``
    moves only its own diagonal entry of Q, which is zero in the constant
    part; each call adds that entry with the operations the full product
    applies to it, so the sum is the same to the bit.
    """
    if dt <= 0.0:
        raise InvalidParameterError("dt must be positive")
    if scale is None:
        factor = 1.0  # exact: x * 1.0 == x
    elif scale < 0.0:
        raise InvalidParameterError("scale must be non-negative")
    else:
        factor = math.sqrt(scale) * math.sqrt(scale)

    b_const, scaled = dispersion_split(model)
    q_const = dt * (b_const @ b_const.T) * factor
    q_const.flags.writeable = False

    def q_of(mean: np.ndarray, cov: np.ndarray | None = None) -> np.ndarray:
        cov = q_const.copy() if cov is None else np.add(cov, q_const, out=cov)
        for row, _, state, gain in scaled:
            b = gain * mean.item(state)
            cov[row, row] += dt * (b * b) * factor
        return cov

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
    ``system``) and ``observed_dofs``; NumericError naming the array and
    the sample of a non-finite value.
    The dynamic map is one Euler step per measurement sample with the
    left-endpoint force injected, compiled for the window by
    ``models.euler_transition`` from ``system`` and the augmentation of
    ``model``; the measurement map is the selected restoring-force
    accelerations with stiffness read off the state tail.
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
    for name, matrix, dims, size in (("Q", noise.q, "dim_state", model.dim_state),
                                     ("R", noise.r, "n_observed", accel.shape[1])):
        if not callable(matrix) and matrix.shape != (size, size):
            raise InvalidParameterError(
                f"{name} must be ({dims}, {dims}) = ({size}, {size}), got {matrix.shape}")
    problem = non_finite(window)
    if problem is not None:
        raise NumericError(problem)
    h = acceleration_model(system, window.observed_dofs,
                           augment_params=model.augmented_params)
    transition = euler_transition(system, model.augmented_params, dt, force)

    repair_log = PsdRepairLog()
    n_samples = times.shape[0]
    means = np.empty((n_samples, model.dim_state))
    variances = np.empty((n_samples, model.dim_state))
    belief = init
    means[0] = belief.mean
    variances[0] = belief.cov.diagonal()

    for k in range(1, n_samples):
        try:
            belief = predict(belief, functools.partial(transition, k=k - 1),
                             noise.q, params, repair_log)
            belief = update(belief, h, accel[k], noise.r, params, repair_log)
        except NumericError as exc:
            raise NumericError(f"sample {k}: {exc}") from exc
        means[k] = belief.mean
        variances[k] = belief.cov.diagonal()

    # GaussianBelief.std per sample, formed in place on the variances
    stds = np.sqrt(np.clip(variances, 0.0, None, out=variances), out=variances)
    slots = list(model.param_indices)
    param_cov = belief.cov[np.ix_(slots, slots)] if slots else np.zeros((0, 0))
    return FilterResult(
        times=times,
        means=means,
        stds=stds,
        labels=model.labels,
        param_names=tuple(model.labels[i] for i in slots),
        param_estimate=belief.mean[slots].copy(),
        param_std=belief.std[slots].copy(),
        param_cov=param_cov,
        psd_repairs=repair_log,
        n_updates=n_samples - 1,
    )
