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

Each formula is stated once: ``_kernel`` (K, plus dK/dlog l for the
likelihood only; prediction evaluates K alone), ``_posterior``
(factorization of Kt, GLS mean, alpha) and ``_standardize``. The likelihood
and ``GpModel`` share the first two, ``train`` and ``GpModel`` the third, so
the served model is the posterior the likelihood scored, bit for bit.

Kt is factorized and solved through the LAPACK pair of ``linalg``
(``dpotrf``/``dpotrs``), which returns what scipy's ``cho_factor`` and
``cho_solve`` return, bit for bit, without their scans for non-finite
input. Finiteness is instead checked once where values enter: the training
data in ``train``, every field in ``GpModel`` and the query in ``predict``.

Prediction (Rasmussen & Williams 2006, Alg. 2.1, plus the GLS term) runs on
a ``GpStack``: J models of one kernel family and one training length, their
arrays stacked on a leading axis. The GPs of a twin are trained together on
one history, so a query for every tracked stiffness is one ``_kernel`` call
on (J, n, m), one posterior product and one variance reduction:

    mean = beta + alpha^T K*,   v = L^-1 K*,
    s^2  = sigma^2 - v^T v + (1 - (L^-1 1)^T v)^2 / (1^T Kt^-1 1).

L^-1, the inverse of the Cholesky factor of Kt (LAPACK ``dtrtri``), is
formed once per model, so that a query is a batched matrix product rather
than J triangular solves; at n <= 41 points the per-call overhead of J
solves costs more than the arithmetic. Each ``GpModel`` carries its
one-model stack, derived on construction; ``stack`` concatenates those.
Means agree with the per-solve formula to ~1e-15 relative and variances to
~1e-15 of sigma^2 absolute.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.optimize import minimize

from .codec import codec
from .errors import InvalidParameterError, TrainingError
from .linalg import cho_factor, cho_solve, tri_inverse

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


def _kernel(family, variance, lengthscale, a, b, with_grad=False):
    """K(a, b) over the last axes of the input arrays (..., n) and (..., m),
    and with ``with_grad`` the pair K, dK/dlog(lengthscale); dK/dlog(variance)
    is K itself. Leading axes and array-valued hyperparameters broadcast."""
    r = np.abs(a[..., :, None] - b[..., None, :])
    if family == FAMILY_SE:
        s = (r / lengthscale) ** 2
        k = variance * np.exp(-0.5 * s)
        return (k, k * s) if with_grad else k
    u = math.sqrt(5.0) * r / lengthscale
    e = np.exp(-u)
    k = variance * (1.0 + u + u * u / 3.0) * e
    return (k, variance * (u * u / 3.0) * (1.0 + u) * e) if with_grad else k


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
    """Trained GP: hyperparameters, data, transforms, cached posterior.

    ``noise_floor`` holds optional fixed per-point noise variances in raw
    target units (e.g. squared filter stddevs). The GLS mean ``beta`` and
    the model's one-model ``GpStack`` are derived on construction, never
    serialized. Every value must be finite, since the factorization does
    not check.
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
        kernel = self.kernel
        x_std, v, floor = _standardize(
            self.train_inputs, self.train_targets, self.noise_floor, self.input_shift,
            self.input_scale, self.target_shift, self.target_scale)
        try:
            factor, self.beta, alpha, gls_denom = _posterior(
                _kernel(kernel.family, kernel.variance, kernel.lengthscale, x_std, x_std),
                self.noise_variance, floor, v, self.mean_spec)
            l_inv = tri_inverse(factor)
        except np.linalg.LinAlgError as exc:
            raise InvalidParameterError(f"kernel matrix not positive definite: {exc}") from exc
        self._stack = GpStack(
            family=kernel.family, x_std=x_std[None],
            variance=np.full((1, 1, 1), kernel.variance),
            lengthscale=np.full((1, 1, 1), kernel.lengthscale),
            input_shift=np.full((1, 1), self.input_shift),
            input_scale=np.full((1, 1), self.input_scale),
            target_shift=np.full((1, 1), self.target_shift),
            target_scale=np.full((1, 1), self.target_scale),
            beta=np.full((1, 1), self.beta), alpha=alpha[None, None],
            l_inv=l_inv[None], l_inv_ones=l_inv.sum(axis=1)[None, None],
            gls_denom=np.full((1, 1), math.inf if gls_denom is None else gls_denom))


@dataclass(frozen=True)
class GpStack:
    """J trained GPs of one kernel family and one training length, stacked on
    a leading model axis for one batched prediction. Derived from the
    models, never serialized."""

    family: str
    x_std: np.ndarray  # (J, n) standardized training inputs
    variance: np.ndarray  # (J, 1, 1) kernel variance
    lengthscale: np.ndarray  # (J, 1, 1)
    input_shift: np.ndarray  # (J, 1), as the three transforms below
    input_scale: np.ndarray
    target_shift: np.ndarray
    target_scale: np.ndarray
    beta: np.ndarray  # (J, 1) GLS mean, 0 for a zero mean
    alpha: np.ndarray  # (J, 1, n) Kt^-1 (v - beta)
    l_inv: np.ndarray  # (J, n, n) inverse of the lower Cholesky factor L of Kt
    l_inv_ones: np.ndarray  # (J, 1, n) (L^-1 1)^T
    gls_denom: np.ndarray  # (J, 1) 1^T Kt^-1 1; inf for a zero mean, so no GLS term


def stack(models) -> GpStack:
    """One stack of trained GPs; InvalidParameterError naming the field when
    they differ in kernel family or training length."""
    stacks = [model._stack for model in models]
    first = stacks[0]
    for other in stacks[1:]:
        if other.family != first.family:
            raise InvalidParameterError(
                f"cannot stack GP models of kernel.family {first.family!r} "
                f"and {other.family!r}")
        if other.x_std.shape != first.x_std.shape:
            raise InvalidParameterError(
                f"cannot stack GP models with train_inputs of length "
                f"{first.x_std.shape[1]} and {other.x_std.shape[1]}")
    return GpStack(first.family, *(
        np.concatenate([getattr(one, f.name) for one in stacks])
        for f in fields(GpStack)[1:]))


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
    k, dk_dlogl = _kernel(family, variance, lengthscale, x, x, with_grad=True)
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
        result = minimize(
            objective, x0, jac=True, method="L-BFGS-B", bounds=bounds,
            callback=callback, options={"maxiter": config.n_max})
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


def predict(model: GpModel | GpStack, query) -> GpPrediction:
    """Predictive mean and latent-function variance at the m query inputs:
    (m,) arrays for a model, (J, m) for a stack of J models.
    InvalidParameterError for a query that is not a finite vector."""
    single = isinstance(model, GpModel)
    s = model._stack if single else model
    query = np.atleast_1d(np.asarray(query, dtype=float))
    if query.ndim != 1:
        raise InvalidParameterError("GP query times must be a vector")
    if not np.isfinite(query).all():
        raise InvalidParameterError("GP query times must be finite")
    xq = (query - s.input_shift) / s.input_scale  # (J, m)
    k_star = _kernel(s.family, s.variance, s.lengthscale, s.x_std, xq)  # (J, n, m)
    mean_std = s.beta + (s.alpha @ k_star)[:, 0]
    v = s.l_inv @ k_star
    u = 1.0 - (s.l_inv_ones @ v)[:, 0]
    var_std = s.variance[:, 0] - np.einsum("jnm,jnm->jm", v, v) + u * u / s.gls_denom
    if (var_std < 0.0).any():
        worst = var_std.min(axis=1)
        for value in worst[worst < -1e-8 * s.variance[:, 0, 0]]:
            logger.warning("clipped negative predictive variance %.3e", value)
        var_std = np.clip(var_std, 0.0, None)
    mean = mean_std * s.target_scale + s.target_shift
    variance = var_std * s.target_scale ** 2
    if single:
        return GpPrediction(inputs=query, mean=mean[0], variance=variance[0])
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
