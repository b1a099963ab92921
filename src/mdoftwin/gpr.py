"""Gaussian-process regression over the slow (service-time) scale.

One scalar GP per tracked stiffness parameter, trained by minimizing the
negative log marginal likelihood

    0.5 v^T (K + sn^2 I)^-1 v + 0.5 log|K + sn^2 I| + (n/2) log 2 pi

over (log lengthscale, log variance, log noise variance) with analytic
gradients, L-BFGS-B and Latin-hypercube multi-starts. A constant mean is
profiled out by generalized least squares; its uncertainty enters the
predictive variance through the universal-kriging correction term

    s^2 = sigma^2 - k*^T Kt^-1 k* + (1 - Phi^T Kt^-1 k*)^2 / (Phi^T Kt^-1 Phi)

with Kt = K + sn^2 I. Inputs (days) and targets (N/m) are standardized
internally and the transforms undone at prediction time.

Each formula is stated once: ``_kernel`` (K and dK/dlog l), ``_posterior``
(factorization of Kt, GLS mean, alpha) and ``_standardize``. The likelihood
and ``GpModel`` share the first two, ``train`` and ``GpModel`` the third, so
the served model is the posterior the likelihood scored, bit for bit.

Kt is factorized and solved through the LAPACK pair of ``linalg``
(``dpotrf``/``dpotrs``), which returns what scipy's ``cho_factor`` and
``cho_solve`` return, bit for bit, without their scans for non-finite
input. Finiteness is instead checked once where values enter: the training
data in ``train``, every field in ``GpModel`` and the query in ``predict``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .codec import codec
from .errors import InvalidParameterError, TrainingError
from .linalg import cho_factor, cho_solve

logger = logging.getLogger(__name__)

FAMILY_SE = "squared-exponential"
FAMILY_MATERN52 = "matern-5/2"
_FAMILIES = (FAMILY_SE, FAMILY_MATERN52)

_GRAM_JITTER = 1e-10
_CONFIDENCE_FACTOR = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class Kernel:
    """Stationary covariance function on the 1-D slow-time axis."""

    family: str = FAMILY_SE
    variance: float = 1.0
    lengthscale: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidParameterError(f"unknown kernel family {self.family!r}")
        if not (0.0 < self.variance < math.inf and 0.0 < self.lengthscale < math.inf):
            raise InvalidParameterError("variance and lengthscale must be positive and finite")

    def cross(self, a, b) -> np.ndarray:
        return _kernel(self.family, self.variance, self.lengthscale,
                       np.asarray(a, dtype=float), np.asarray(b, dtype=float))[0]

    def gram(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.cross(x, x)


def _kernel(family, variance, lengthscale, a, b):
    """K(a, b) and dK/dlog(lengthscale); dK/dlog(variance) is K itself."""
    r = np.abs(np.subtract.outer(a, b))
    if family == FAMILY_SE:
        s = (r / lengthscale) ** 2
        k = variance * np.exp(-0.5 * s)
        return k, k * s
    u = math.sqrt(5.0) * r / lengthscale
    e = np.exp(-u)
    return variance * (1.0 + u + u * u / 3.0) * e, variance * (u * u / 3.0) * (1.0 + u) * e


def _standardize(tau, v, floor, input_shift, input_scale, target_shift, target_scale):
    """Training inputs, targets and per-point noise floors in standardized units."""
    floor_std = None if floor is None else np.asarray(floor, dtype=float) / target_scale ** 2
    return (tau - input_shift) / input_scale, (v - target_shift) / target_scale, floor_std


def _posterior(gram, noise, floor, v, mean_spec):
    """Factorize Kt = gram + (noise + jitter) I + diag(floor), profile a
    constant mean by GLS and solve alpha = Kt^-1 (v - beta).

    Returns (lower Cholesky factor, beta, alpha, Phi^T Kt^-1 Phi), the last
    None for a zero mean. Raises LinAlgError if Kt is not positive definite.
    """
    n = gram.shape[0]
    kt = gram.copy()
    kt[np.diag_indices(n)] += noise + _GRAM_JITTER
    if floor is not None:
        kt[np.diag_indices(n)] += floor
    factor = cho_factor(kt)
    beta, gls_denom = 0.0, None
    if mean_spec == "constant":
        phi = np.ones(n)
        w = cho_solve(factor, phi)
        gls_denom = float(phi @ w)
        beta = float(w @ v) / gls_denom
    return factor, beta, cho_solve(factor, v - beta), gls_denom


@codec
@dataclass(frozen=True)
class GpTrainConfig:
    """Hyperparameter search settings (Latin-hypercube multi-start L-BFGS)."""

    kernel_family: str = FAMILY_SE
    mean_spec: str = "constant"  # or "zero"
    n_restarts: int = 5
    n_max: int = 500
    eps_tol: float = 1e-6
    seed: int = 0
    standardize: bool = True
    use_stddev_floor: bool = False
    lengthscale_range: tuple[float, float] = (1e-2, 1e2)
    variance_range: tuple[float, float] = (1e-2, 1e2)
    noise_range: tuple[float, float] = (1e-8, 1.0)

    def __post_init__(self):
        if self.kernel_family not in _FAMILIES:
            raise InvalidParameterError(f"unknown kernel family {self.kernel_family!r}")
        if self.mean_spec not in ("zero", "constant"):
            raise InvalidParameterError("mean_spec must be 'zero' or 'constant'")
        if self.n_restarts < 1 or self.n_max < 1:
            raise InvalidParameterError("n_restarts and n_max must be positive")


@dataclass
class GpPrediction:
    """Predictive mean/variance of the latent function, raw units."""

    inputs: np.ndarray
    mean: np.ndarray
    variance: np.ndarray

    @property
    def stddev(self) -> np.ndarray:
        return np.sqrt(self.variance)

    @property
    def confidence_band(self) -> tuple:
        half = _CONFIDENCE_FACTOR * self.stddev
        return self.mean - half, self.mean + half


@codec
@dataclass
class GpModel:
    """Trained GP: hyperparameters, data, transforms, cached factorization.

    ``noise_floor`` holds optional fixed per-point noise variances in raw
    target units (e.g. squared filter stddevs). The cached Cholesky factor,
    the GLS mean ``beta`` and the constant-mean ones vector are derived on
    construction, never serialized. Every value must be finite, since the
    factorization does not check.
    """

    kernel: Kernel
    mean_spec: str
    noise_variance: float
    train_inputs: np.ndarray
    train_targets: np.ndarray
    input_shift: float = 0.0
    input_scale: float = 1.0
    target_shift: float = 0.0
    target_scale: float = 1.0
    noise_floor: np.ndarray | None = None
    nlml: float = math.nan

    def __post_init__(self):
        self.train_inputs = np.asarray(self.train_inputs, dtype=float)
        self.train_targets = np.asarray(self.train_targets, dtype=float)
        if (self.train_inputs.ndim != 1
                or self.train_inputs.shape != self.train_targets.shape):
            raise InvalidParameterError("training inputs/targets must be matching vectors")
        if np.any(np.diff(self.train_inputs) <= 0.0):
            raise InvalidParameterError("training inputs must be strictly increasing")
        if self.noise_variance < 0.0:
            raise InvalidParameterError("noise variance must be non-negative")
        if not (self.input_scale > 0.0 and self.target_scale > 0.0):
            raise InvalidParameterError("input and target scales must be positive")
        if self.noise_floor is not None:
            self.noise_floor = np.asarray(self.noise_floor, dtype=float)
            if self.noise_floor.shape != self.train_inputs.shape:
                raise InvalidParameterError("noise_floor must match the training grid")
        values = (self.train_inputs, self.train_targets, self.noise_variance,
                  self.input_shift, self.input_scale, self.target_shift,
                  self.target_scale, () if self.noise_floor is None else self.noise_floor)
        if not all(np.isfinite(value).all() for value in values):
            raise InvalidParameterError("GP model values must be finite")
        self._ones = np.ones(self.train_inputs.shape[0])
        self._x_std, v, floor = _standardize(
            self.train_inputs, self.train_targets, self.noise_floor, self.input_shift,
            self.input_scale, self.target_shift, self.target_scale)
        try:
            self._factor, self.beta, self._alpha, self._gls_denom = _posterior(
                self.kernel.gram(self._x_std), self.noise_variance, floor, v,
                self.mean_spec)
        except np.linalg.LinAlgError as exc:
            raise InvalidParameterError(f"kernel matrix not positive definite: {exc}") from exc


# ---------------------------------------------------------------------------
# Likelihood and training
# ---------------------------------------------------------------------------


def negative_log_marginal_likelihood(
    log_theta: np.ndarray,
    x: np.ndarray,
    v: np.ndarray,
    family: str,
    mean_spec: str,
    floor: np.ndarray | None = None,
):
    """NLML and its gradient w.r.t. (log l, log s2, log sn2).

    A constant mean is profiled out by GLS; by the envelope theorem the
    gradient formula with the profiled residual is exact.
    """
    lengthscale, variance, noise = np.exp(log_theta)
    n = x.shape[0]
    k, dk_dlogl = _kernel(family, variance, lengthscale, x, x)
    factor, beta, alpha, _ = _posterior(k, noise, floor, v, mean_spec)
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor))))
    value = 0.5 * float((v - beta) @ alpha) + 0.5 * logdet + 0.5 * n * math.log(2.0 * math.pi)

    kt_inv = cho_solve(factor, np.eye(n))
    grad = np.empty(3)
    for i, dk in enumerate((dk_dlogl, k, noise * np.eye(n))):
        grad[i] = 0.5 * (float(np.sum(kt_inv * dk)) - float(alpha @ dk @ alpha))
    return value, grad


def _latin_hypercube(rng: np.random.Generator, n_points: int, log_ranges) -> np.ndarray:
    dims = len(log_ranges)
    samples = np.empty((n_points, dims))
    for d, (lo, hi) in enumerate(log_ranges):
        cells = (rng.permutation(n_points) + rng.uniform(size=n_points)) / n_points
        samples[:, d] = lo + cells * (hi - lo)
    return samples


def train(tau, v, config: GpTrainConfig = GpTrainConfig(),
          noise_floor=None) -> GpModel:
    """Fit hyperparameters by multi-start MLE and return the trained model.

    Requires at least 3 strictly increasing training pairs. ``noise_floor``
    gives fixed per-point noise variances in raw target units. Raises
    TrainingError if every restart fails to produce a usable likelihood.
    """
    tau = np.asarray(tau, dtype=float)
    v = np.asarray(v, dtype=float)
    if tau.ndim != 1 or tau.shape != v.shape:
        raise InvalidParameterError("tau and v must be matching vectors")
    if tau.shape[0] < 3:
        raise InvalidParameterError("need at least 3 training pairs")
    if not (np.isfinite(tau).all() and np.isfinite(v).all()):
        raise InvalidParameterError("tau and v must be finite")
    if np.any(np.diff(tau) <= 0.0):
        raise InvalidParameterError("training inputs must be strictly increasing")

    input_shift, input_scale, target_shift, target_scale = 0.0, 1.0, 0.0, 1.0
    if config.standardize:
        input_shift = float(np.mean(tau))
        input_scale = float(np.std(tau))
        if input_scale <= 0.0:
            raise InvalidParameterError("degenerate training inputs")
        target_shift = float(np.mean(v))
        spread = float(np.std(v))
        target_scale = spread if spread > 0.0 else 1.0
    x_std, v_std, floor_std = _standardize(tau, v, noise_floor, input_shift, input_scale,
                                           target_shift, target_scale)
    if floor_std is not None and (floor_std.shape != tau.shape
                                  or not np.all((floor_std >= 0.0) & (floor_std < math.inf))):
        raise InvalidParameterError("noise_floor must be finite and non-negative per point")

    log_ranges = [
        (math.log(config.lengthscale_range[0]), math.log(config.lengthscale_range[1])),
        (math.log(config.variance_range[0]), math.log(config.variance_range[1])),
        (math.log(config.noise_range[0]), math.log(config.noise_range[1])),
    ]
    rng = np.random.default_rng(config.seed)
    starts = [np.array([0.0, 0.0, math.log(1e-2)])]  # unit-scale heuristic
    starts.extend(_latin_hypercube(rng, config.n_restarts, log_ranges))
    bounds = [(-16.0, 16.0), (-16.0, 16.0), (math.log(1e-12), math.log(1e2))]

    _PENALTY = 1e25

    def objective(log_theta):
        # a singular kernel matrix marks an infeasible region, not a fatal
        # error; a flat penalty makes the line search back off
        try:
            return negative_log_marginal_likelihood(
                log_theta, x_std, v_std, config.kernel_family,
                config.mean_spec, floor_std)
        except np.linalg.LinAlgError:
            return _PENALTY, np.zeros(3)

    best_value, best_log_theta = math.inf, None
    for x0 in starts:
        state = {"prev": np.asarray(x0, dtype=float)}

        def callback(xk, state=state):
            eps = float(np.sum((xk - state["prev"]) ** 2))
            state["prev"] = np.array(xk, copy=True)
            if eps <= config.eps_tol:
                raise StopIteration

        # minimize ends at the callback's xk when the callback raises StopIteration
        try:
            result = minimize(
                objective, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                callback=callback, options={"maxiter": config.n_max})
        except np.linalg.LinAlgError:
            continue
        value = float(result.fun)
        if math.isfinite(value) and value < min(best_value, _PENALTY):
            best_value, best_log_theta = value, result.x

    if best_log_theta is None:
        raise TrainingError("all hyperparameter restarts failed")

    lengthscale, variance, noise = np.exp(best_log_theta)
    return GpModel(
        kernel=Kernel(family=config.kernel_family, variance=float(variance),
                      lengthscale=float(lengthscale)),
        mean_spec=config.mean_spec,
        noise_variance=float(noise),
        train_inputs=tau,
        train_targets=v,
        input_shift=input_shift,
        input_scale=input_scale,
        target_shift=target_shift,
        target_scale=target_scale,
        noise_floor=noise_floor,
        nlml=float(best_value),
    )


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def predict(model: GpModel, query) -> GpPrediction:
    """Predictive mean and latent-function variance at the query inputs;
    InvalidParameterError for a non-finite query."""
    query = np.atleast_1d(np.asarray(query, dtype=float))
    if not np.isfinite(query).all():
        raise InvalidParameterError("GP query times must be finite")
    xq = (query - model.input_shift) / model.input_scale
    k_star = model.kernel.cross(model._x_std, xq)  # (n, m)
    mean_std = model.beta + k_star.T @ model._alpha
    w = cho_solve(model._factor, k_star)
    var_std = model.kernel.variance - np.einsum("nm,nm->m", k_star, w)
    if model.mean_spec == "constant":
        u = 1.0 - model._ones @ w
        var_std = var_std + u * u / model._gls_denom
    negative = var_std < 0.0
    if np.any(negative):
        worst = float(var_std.min())
        if worst < -1e-8 * model.kernel.variance:
            logger.warning("clipped negative predictive variance %.3e", worst)
        var_std = np.clip(var_std, 0.0, None)
    mean = mean_std * model.target_scale + model.target_shift
    variance = var_std * model.target_scale ** 2
    return GpPrediction(inputs=query, mean=mean, variance=variance)


def track_parameters(
    times,
    values,
    stddevs=None,
    config: GpTrainConfig = GpTrainConfig(),
) -> list:
    """Train one independent GP per parameter column.

    ``values`` is (n_windows, n_params); ``stddevs`` of the same shape
    optionally provides per-window filter stddevs folded into fixed noise
    floors when ``config.use_stddev_floor`` is set.
    """
    times = np.asarray(times, dtype=float)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] != times.shape[0]:
        raise InvalidParameterError("values must have one row per window")
    if times.shape[0] < 3:
        raise InvalidParameterError("need at least 3 windows to train")
    floors = None
    if stddevs is not None and config.use_stddev_floor:
        stddevs = np.atleast_2d(np.asarray(stddevs, dtype=float))
        if stddevs.shape != values.shape:
            raise InvalidParameterError("stddevs must match values")
        floors = stddevs ** 2

    models = []
    for j in range(values.shape[1]):
        try:
            models.append(train(
                times, values[:, j], config,
                noise_floor=None if floors is None else floors[:, j]))
        except (InvalidParameterError, TrainingError) as exc:
            raise type(exc)(f"parameter column {j}: {exc}") from exc
    return models
