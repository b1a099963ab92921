"""Gaussian-process regression over the slow (service-time) scale.

One scalar GP per tracked stiffness parameter, trained by minimizing the
negative log marginal likelihood

    0.5 v^T (K + sn^2 I)^-1 v + 0.5 log|K + sn^2 I| + (n/2) log 2 pi

over (log lengthscale, log variance, log noise variance) with analytic
gradients, L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) and Latin-hypercube
multi-starts. A constant mean is
profiled out by generalized least squares; its uncertainty enters the
predictive variance through the universal-kriging correction term

    s^2 = sigma^2 - k*^T Kt^-1 k* + (1 - Phi^T Kt^-1 k*)^2 / (Phi^T Kt^-1 Phi)

with Kt = K + sn^2 I. Inputs (days) and targets (N/m) are standardized
internally and the transforms undone at prediction time.

Each formula is stated once: ``_kernel`` (K, plus dK/dlog l for the
likelihood only; prediction evaluates K alone), ``_posterior``
(factorization of Kt, GLS mean, alpha) and ``_standardize``. The likelihood
and ``GpModel`` share the first two, training and ``GpModel`` the third, so
the served model is the posterior the likelihood scored, bit for bit.

Training runs every restart of every tracked stiffness in lockstep, in
one ``train`` call on the target columns: one L-BFGS-B run per (GP,
start), 36 on the 7-DOF twin, each a reverse-communication state of
scipy's ``setulb`` (from ``linalg.scipy_extension``) driven step for step as
``scipy.optimize.minimize(method="L-BFGS-B")`` drives it. Each round, every
run that asks for f and g at a new x is served by one batched
``negative_log_marginal_likelihood`` call: the kernel, its derivative and
the reductions are batched, the factorization and the solves run per
instance, and every instance's NLML and gradient equal those of a batch of
that instance alone, bit for bit. So the trained models equal those of one
``minimize`` per restart, bit for bit.

Kt is factorized and solved through the LAPACK pair of ``linalg``
(``dpotrf``/``dpotrs``), which returns what scipy's ``cho_factor`` and
``cho_solve`` return, bit for bit, without their scans for non-finite
input. Finiteness is instead checked once where values enter: the training
data in training, every field in ``GpModel`` and the query in ``predict``.

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

At these sizes a query costs numpy's per-call overhead, not arithmetic, so
the query path keeps the arithmetic of the first stacked form, bit for bit,
and cuts the calls and objects around it: the kernel runs in place on one
buffer of K*'s shape, the stack holds every array in the shape the query
meets it, the query's finiteness is a sum of squares
(``linalg.all_finite``), the clip test is one reduction and a prediction is
a slots dataclass.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .codec import check_seed, codec, decode
from .errors import InvalidParameterError, TrainingError
from .linalg import all_finite, cho_factor, cho_solve, scipy_extension, tri_inverse

_lbfgsb = scipy_extension("optimize", "_lbfgsb")

logger = logging.getLogger(__name__)

FAMILY_SE = "squared-exponential"
FAMILY_MATERN52 = "matern-5/2"
_FAMILIES = (FAMILY_SE, FAMILY_MATERN52)

_GRAM_JITTER = 1e-10
_CONFIDENCE_FACTOR = 1.959963984540054  # two-sided 95% normal quantile
# constants of the query path as 0-d arrays: a ufunc takes one of them with
# less overhead than a Python float, for the same result
_ONE, _MINUS_HALF = np.array(1.0), np.array(-0.5)
_REAL = np.dtype(float)  # taken for a query that has no dtype


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
    """K(a, b) for a column of inputs ``a`` (..., n, 1) and a row ``b``
    (..., 1, m) or (m,), and with ``with_grad`` the pair K, dK/dlog(lengthscale);
    dK/dlog(variance) is K itself. Leading axes and array-valued
    hyperparameters broadcast.

    Each step after the division by the lengthscale runs in place on one
    buffer of K's shape. The squared exponential squares the signed
    distance, as (-d)^2 = d^2 exactly."""
    if family == FAMILY_SE:
        s = (a - b) / lengthscale
        np.square(s, out=s)
        k = np.multiply(s, _MINUS_HALF, out=None if with_grad else s)
        np.exp(k, out=k)
        k *= variance
        return (k, np.multiply(s, k, out=s)) if with_grad else k
    r = np.abs(a - b)
    r *= math.sqrt(5.0)
    u = r / lengthscale
    e = np.negative(u)
    np.exp(e, out=e)
    quadratic = u * u
    quadratic /= 3.0
    u += 1.0
    k = u + quadratic
    k *= variance
    k *= e
    if not with_grad:
        return k
    quadratic *= variance
    quadratic *= u
    quadratic *= e
    return k, quadratic


def _standardize(tau, v, floor, input_shift, input_scale, target_shift, target_scale):
    """Training inputs, targets and per-point noise floors in standardized units."""
    floor_std = None if floor is None else np.asarray(floor, dtype=float) / target_scale ** 2
    return (tau - input_shift) / input_scale, (v - target_shift) / target_scale, floor_std


def _posterior(gram, noise, floor, v, mean_spec):
    """Per instance b of a stack: factorize Kt_b = gram_b + (noise_b + jitter) I
    + diag(floor_b), profile a constant mean by GLS and solve
    alpha_b = Kt_b^-1 (v_b - beta_b).

    ``gram`` is (B, n, n), ``noise`` (B,), ``v`` and ``floor`` (B, n), the
    floor None for none. Returns one entry per instance: (lower Cholesky
    factor, beta, alpha, Phi^T Kt^-1 Phi), the last None for a zero mean,
    or None where Kt_b is not positive definite.
    """
    n = gram.shape[-1]
    kt = gram.copy()
    diagonal = kt.reshape(-1, n * n)[:, ::n + 1]
    diagonal += (noise + _GRAM_JITTER)[:, None]
    if floor is not None:
        diagonal += floor
    phi = np.ones(n)
    posteriors = []
    for kt_b, v_b in zip(kt, v):
        try:
            factor = cho_factor(kt_b)
        except np.linalg.LinAlgError:
            posteriors.append(None)
            continue
        beta, gls_denom = 0.0, None
        if mean_spec == "constant":
            w = cho_solve(factor, phi)
            gls_denom = float(phi @ w)
            beta = float(w @ v_b) / gls_denom
        posteriors.append((factor, beta, cho_solve(factor, v_b - beta), gls_denom))
    return posteriors


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
        for name in ("n_restarts", "n_max"):
            if decode(int, getattr(self, name), name) < 1:
                raise InvalidParameterError(
                    f"{name} must be a positive integer, got {getattr(self, name)!r}")
        for name in ("lengthscale_range", "variance_range", "noise_range"):
            bounds = getattr(self, name)
            if len(bounds) != 2 or not all(0.0 < bound < math.inf for bound in bounds):
                raise InvalidParameterError(
                    f"{name} must be two finite positive bounds, got {bounds!r}")
        if not 0.0 <= self.eps_tol < math.inf:
            raise InvalidParameterError(
                f"eps_tol must be finite and non-negative, got {self.eps_tol!r}")
        check_seed(self.seed, "seed")


@dataclass(slots=True)
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
            if (self.noise_floor < 0.0).any():  # as train requires
                raise InvalidParameterError(
                    f"noise_floor must be non-negative per point, got {self.noise_floor.tolist()}")
        values = (self.train_inputs, self.train_targets, self.noise_variance,
                  self.input_shift, self.input_scale, self.target_shift,
                  self.target_scale, () if self.noise_floor is None else self.noise_floor)
        if not all(np.isfinite(value).all() for value in values):
            raise InvalidParameterError("GP model values must be finite")
        kernel = self.kernel
        x_std, v, floor = _standardize(
            self.train_inputs, self.train_targets, self.noise_floor, self.input_shift,
            self.input_scale, self.target_shift, self.target_scale)
        (posterior,) = _posterior(
            _kernel(kernel.family, kernel.variance, kernel.lengthscale, x_std[:, None],
                    x_std)[None],
            np.array([self.noise_variance]), None if floor is None else floor[None], v[None],
            self.mean_spec)
        if posterior is None:
            raise InvalidParameterError("kernel matrix not positive definite")
        factor, self.beta, alpha, gls_denom = posterior
        l_inv = tri_inverse(factor)
        target_scale = np.full((1, 1, 1), self.target_scale)
        column = (1, x_std.shape[0], 1)
        self._stack = GpStack(
            family=kernel.family, x_std=x_std.reshape(column),
            variance=np.full(column, kernel.variance),
            prior_variance=np.full((1, 1), kernel.variance),
            lengthscale=np.full(column, kernel.lengthscale),
            input_shift=np.full((1, 1, 1), self.input_shift),
            input_scale=np.full((1, 1, 1), self.input_scale),
            target_shift=np.full((1, 1, 1), self.target_shift),
            target_scale=target_scale, target_scale_sq=target_scale[0] ** 2,
            beta=np.full((1, 1, 1), self.beta), alpha=alpha[None, None],
            l_inv=l_inv[None], l_inv_ones=l_inv.sum(axis=1)[None, None],
            gls_denom=np.full((1, 1, 1), math.inf if gls_denom is None else gls_denom))


@dataclass(frozen=True)
class GpStack:
    """J trained GPs of one kernel family and one training length, stacked on
    a leading model axis for one batched prediction, each array shaped as
    the query uses it. The kernel's hyperparameters are repeated along the
    training inputs, in the (J, n, 1) shape of K* at one query time: numpy
    scales arrays of one shape without its broadcasting iterator, and a
    query of m times broadcasts them along its last axis. Derived from the
    models, never serialized."""

    family: str
    x_std: np.ndarray  # (J, n, 1) standardized training inputs, a column per model
    variance: np.ndarray  # (J, n, 1) kernel variance
    prior_variance: np.ndarray  # (J, 1) the same, as a row of the (J, m) variances
    lengthscale: np.ndarray  # (J, n, 1)
    input_shift: np.ndarray  # (J, 1, 1), as the three transforms below
    input_scale: np.ndarray
    target_shift: np.ndarray
    target_scale: np.ndarray
    target_scale_sq: np.ndarray  # (J, 1) target_scale ** 2
    beta: np.ndarray  # (J, 1, 1) GLS mean, 0 for a zero mean
    alpha: np.ndarray  # (J, 1, n) Kt^-1 (v - beta)
    l_inv: np.ndarray  # (J, n, n) inverse of the lower Cholesky factor L of Kt
    l_inv_ones: np.ndarray  # (J, 1, n) (L^-1 1)^T
    gls_denom: np.ndarray  # (J, 1, 1) 1^T Kt^-1 1; inf for a zero mean, so no GLS term


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


_PENALTY = 1e25  # the NLML of a Kt that is not positive definite: an infeasible region

# L-BFGS-B with the defaults of scipy.optimize.minimize(method="L-BFGS-B")
_MEMORY = 10
_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_PGTOL = 1e-5
_MAX_LINE_SEARCH = 20
_MAX_EVALUATIONS = 15000
# box on (log l, log s2, log sn2), both bounds active on every coordinate
_LOWER = np.array([-16.0, -16.0, math.log(1e-12)])
_UPPER = np.array([16.0, 16.0, math.log(1e2)])
_BOTH_BOUNDS = np.full(3, 2, dtype=np.int32)
# setulb's task codes: what it asks for, and why a run stopped
_START, _NEW_X, _FG, _STOP = 0, 1, 3, 5
_ITERATION_LIMIT, _EVALUATION_LIMIT, _HALTED = 504, 502, 505


def negative_log_marginal_likelihood(
    log_theta: np.ndarray,
    x: np.ndarray,
    v: np.ndarray,
    family: str,
    mean_spec: str,
    floor: np.ndarray | None = None,
):
    """NLML and its gradient w.r.t. (log l, log s2, log sn2) on the
    standardized grid ``x`` (n,) for B instances at once.

    ``log_theta`` is (B, 3), ``v`` and ``floor`` (B, n), the floor None for
    none. Returns the B values as a list and the gradients (B, 3), each
    equal to that of a batch of its instance alone, bit for bit. An
    instance whose Kt is not positive definite scores
    ``_PENALTY`` with a zero gradient: an infeasible region, not a fatal
    error, so that a line search backs off. A constant mean is profiled out
    by GLS; by the envelope theorem the gradient formula with the profiled
    residual is exact. The kernel, its derivatives and the reductions are
    batched; the factorization and the solves run per instance.
    """
    log_theta = np.asarray(log_theta, dtype=float)
    v = np.asarray(v, dtype=float)
    floor = None if floor is None else np.asarray(floor, dtype=float)
    x = np.asarray(x, dtype=float)
    lengthscale, variance, noise = np.exp(log_theta).T
    n_instances, n = v.shape
    k, dk_dlogl = _kernel(family, variance[:, None, None], lengthscale[:, None, None],
                          x[:, None], x, with_grad=True)
    posteriors = _posterior(k, noise, floor, v, mean_spec)
    # an instance that failed keeps zeros here and is overwritten below
    eye = np.eye(n)
    kt_inv, alpha = np.zeros((n_instances, n, n)), np.zeros((n_instances, n))
    beta, factor_diagonal = np.zeros((n_instances, 1)), np.ones((n_instances, n))
    failed = []
    for b, posterior in enumerate(posteriors):
        if posterior is None:
            failed.append(b)
            continue
        factor, beta[b], alpha[b], _ = posterior
        kt_inv[b] = cho_solve(factor, eye)
        factor_diagonal[b] = np.diag(factor)
    row, column = alpha[:, None, :], alpha[:, :, None]
    grads = np.empty((n_instances, 3))
    # dKt/dlog theta: dK/dlog l, K, and sn2 I
    for i, dk in enumerate((dk_dlogl, k, noise[:, None, None] * eye)):
        grads[:, i] = 0.5 * ((kt_inv * dk).sum(axis=(1, 2)) - ((row @ dk) @ column)[:, 0, 0])
    fit = ((v - beta)[:, None, :] @ column)[:, 0, 0]
    logdet = 2.0 * np.log(factor_diagonal).sum(axis=1)
    values = 0.5 * fit + 0.5 * logdet + 0.5 * n * math.log(2.0 * math.pi)
    values[failed] = _PENALTY
    grads[failed] = 0.0
    return values.tolist(), grads


def _latin_hypercube(rng: np.random.Generator, n_points: int, log_ranges) -> np.ndarray:
    dims = len(log_ranges)
    samples = np.empty((n_points, dims))
    for d, (lo, hi) in enumerate(log_ranges):
        cells = (rng.permutation(n_points) + rng.uniform(size=n_points)) / n_points
        samples[:, d] = lo + cells * (hi - lo)
    return samples


class _LbfgsbRun:
    """One L-BFGS-B run from one start, stepped through ``setulb`` as
    ``minimize`` steps it with its defaults, ``maxiter=max_iter`` and a
    callback that halts at an iterate whose squared step from the last one
    (from the unclipped start, for the first) is at most ``eps_tol``. The
    caller evaluates f and g at the clipped start, then at every new x the
    run asks for; a request at the last evaluated x reuses that evaluation.
    """

    def __init__(self, x0, eps_tol, max_iter):
        n, m = 3, _MEMORY
        self.x = np.clip(x0, _LOWER, _UPPER)
        self.previous = x0
        self.eps_tol, self.max_iter = eps_tol, max_iter
        self.f, self.g = np.array(0.0), np.zeros(n)
        self.evaluated = None  # (x, f, g) of the last evaluation
        self.n_iterations = self.n_evaluations = 0
        self.wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
        self.iwa = np.zeros(3 * n, dtype=np.int32)
        self.task, self.ln_task = np.zeros(2, dtype=np.int32), np.zeros(2, dtype=np.int32)
        self.lsave, self.isave = np.zeros(4, dtype=np.int32), np.zeros(44, dtype=np.int32)
        self.dsave = np.zeros(29)

    def serve(self, f, g):
        """Record f and g at the current x."""
        self.evaluated = (self.x.tolist(), f, g)
        self.n_evaluations += 1

    def advance(self) -> bool:
        """Step until the run asks for f and g at a new x (True) or stops."""
        task = self.task
        while True:
            if task[0] == _FG:
                if self.x.tolist() != self.evaluated[0]:
                    return True
                _, self.f, self.g = self.evaluated
            elif task[0] == _NEW_X:
                self.n_iterations += 1
                step = float(np.sum((self.x - self.previous) ** 2))
                self.previous = self.x.copy()
                if step <= self.eps_tol:
                    task[:] = _STOP, _HALTED
                if self.n_iterations >= self.max_iter:
                    task[:] = _STOP, _ITERATION_LIMIT
                elif self.n_evaluations > _MAX_EVALUATIONS:
                    task[:] = _STOP, _EVALUATION_LIMIT
            elif task[0] != _START:
                return False
            self.g = self.g.astype(np.float64)
            _lbfgsb.setulb(_MEMORY, self.x, _LOWER, _UPPER, _BOTH_BOUNDS, self.f, self.g,
                           _FACTR, _PGTOL, self.wa, self.iwa, task, self.lsave,
                           self.isave, self.dsave, _MAX_LINE_SEARCH, self.ln_task)


def _minimize_all(starts, x, v, floor, config):
    """Minimize the NLML of every column of ``v`` (J, n) from every start,
    all runs in lockstep: each round serves every run that asks for f and g
    at a new x from one batched likelihood call. Returns per column the lowest
    finite NLML below the penalty and its log theta, the first start's on a
    tie, or None where every start failed."""
    runs = [_LbfgsbRun(x0, config.eps_tol, config.n_max) for _ in v for x0 in starts]
    column = np.repeat(np.arange(v.shape[0]), len(starts))
    waiting = list(range(len(runs)))
    while waiting:
        values, grads = negative_log_marginal_likelihood(
            np.array([runs[i].x for i in waiting]), x, v[column[waiting]],
            config.kernel_family, config.mean_spec,
            None if floor is None else floor[column[waiting]])
        for i, value, grad in zip(waiting, values, grads):
            runs[i].serve(value, grad)
        waiting = [i for i in waiting if runs[i].advance()]

    best = []
    for j in range(v.shape[0]):
        best_value, best_log_theta = math.inf, None
        for run in runs[j * len(starts):(j + 1) * len(starts)]:
            value = float(run.f)
            if math.isfinite(value) and value < min(best_value, _PENALTY):
                best_value, best_log_theta = value, run.x
        best.append(None if best_log_theta is None else (best_value, best_log_theta))
    return best


def train(tau, v, config: GpTrainConfig = GpTrainConfig(), noise_floor=None):
    """Fit hyperparameters by multi-start MLE: one GP on the targets ``v``
    (n,), returned as a ``GpModel``, or one per column of ``v`` (n, J),
    returned as a list, all trained in one lockstep minimization.

    Requires at least 3 strictly increasing training inputs ``tau``.
    ``noise_floor``, shaped as ``v``, gives fixed per-point noise variances
    in raw target units. Raises TrainingError if every restart of a GP
    fails to produce a usable likelihood; with columns, errors name the
    column.
    """
    tau = np.asarray(tau, dtype=float)
    v = np.asarray(v, dtype=float)
    single = v.ndim == 1
    values = v[:, None] if single else v
    if tau.ndim != 1 or values.ndim != 2 or values.shape[0] != tau.shape[0]:
        raise InvalidParameterError(
            "tau and v must be matching vectors, or v one row per entry of tau")
    floors = None if noise_floor is None else np.asarray(noise_floor, dtype=float)
    if floors is not None:
        if floors.shape != v.shape:
            raise InvalidParameterError("noise_floor must match the training grid")
        floors = floors.reshape(values.shape)
    if tau.shape[0] < 3:
        raise InvalidParameterError("need at least 3 training pairs")
    if not np.isfinite(tau).all():
        raise InvalidParameterError("tau must be finite")
    if np.any(np.diff(tau) <= 0.0):
        raise InvalidParameterError("training inputs must be strictly increasing")
    input_shift = float(np.mean(tau))
    input_scale = float(np.std(tau))
    if input_scale <= 0.0:
        raise InvalidParameterError("degenerate training inputs")
    names = [""] if single else [f"parameter column {j}: " for j in range(values.shape[1])]

    transforms, v_std, floor_std = [], [], []
    for j, name in enumerate(names):
        v_j = values[:, j]
        if not np.isfinite(v_j).all():
            raise InvalidParameterError(f"{name}training targets must be finite")
        target_shift = float(np.mean(v_j))
        spread = float(np.std(v_j))
        target_scale = spread if spread > 0.0 else 1.0
        x_std, v_j, floor_j = _standardize(
            tau, v_j, None if floors is None else floors[:, j], input_shift, input_scale,
            target_shift, target_scale)
        if floor_j is not None and not np.all((floor_j >= 0.0) & (floor_j < math.inf)):
            raise InvalidParameterError(
                f"{name}noise_floor must be finite and non-negative per point")
        transforms.append((target_shift, target_scale))
        v_std.append(v_j)
        floor_std.append(floor_j)
    if not names:
        return []

    log_ranges = [tuple(math.log(bound) for bound in bounds) for bounds in (
        config.lengthscale_range, config.variance_range, config.noise_range)]
    rng = np.random.default_rng(config.seed)
    starts = [np.array([0.0, 0.0, math.log(1e-2)])]  # unit-scale heuristic
    starts.extend(_latin_hypercube(rng, config.n_restarts, log_ranges))
    best = _minimize_all(starts, x_std, np.array(v_std),
                         None if floors is None else np.array(floor_std), config)

    models = []
    for j, (name, fitted, (target_shift, target_scale)) in enumerate(
            zip(names, best, transforms)):
        if fitted is None:
            raise TrainingError(f"{name}all hyperparameter restarts failed")
        nlml, log_theta = fitted
        lengthscale, variance, noise = np.exp(log_theta)
        models.append(GpModel(
            kernel=Kernel(family=config.kernel_family, variance=float(variance),
                          lengthscale=float(lengthscale)),
            mean_spec=config.mean_spec, noise_variance=float(noise), train_inputs=tau,
            train_targets=values[:, j], input_shift=input_shift, input_scale=input_scale,
            target_shift=target_shift, target_scale=target_scale,
            noise_floor=None if floors is None else floors[:, j], nlml=nlml))
    return models[0] if single else models


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def predict(model: GpModel | GpStack, query) -> GpPrediction:
    """Predictive mean and latent-function variance at the m query inputs:
    (m,) arrays for a model, (J, m) for a stack of J models.
    InvalidParameterError for a query that is not a finite vector."""
    s = model._stack if isinstance(model, GpModel) else model
    try:
        if getattr(query, "dtype", _REAL).kind == "c":  # the cast would drop the imaginary part
            raise TypeError
        query = np.asarray(query, dtype=float)
    except (TypeError, ValueError):
        raise InvalidParameterError("GP query times must be real numbers") from None
    if query.ndim != 1:
        if query.ndim:
            raise InvalidParameterError("GP query times must be a vector")
        query = query.reshape(1)
    if not all_finite(query):
        raise InvalidParameterError("GP query times must be finite")
    xq = query - s.input_shift  # (J, 1, m)
    xq /= s.input_scale
    k_star = _kernel(s.family, s.variance, s.lengthscale, s.x_std, xq)  # (J, n, m)
    mean = s.alpha @ k_star  # (J, 1, m)
    mean += s.beta
    mean *= s.target_scale
    mean += s.target_shift
    v = s.l_inv @ k_star
    gls = s.l_inv_ones @ v  # (J, 1, m): 1 - (L^-1 1)^T v, squared, over 1^T Kt^-1 1
    np.subtract(_ONE, gls, out=gls)
    gls *= gls
    gls /= s.gls_denom
    var_std = np.einsum("jnm,jnm->jm", v, v)
    np.subtract(s.prior_variance, var_std, out=var_std)
    var_std += gls[:, 0]
    if var_std.min(initial=0.0) < 0.0:
        worst = var_std.min(axis=1)
        for value in worst[worst < -1e-8 * s.prior_variance[:, 0]]:
            logger.warning("clipped negative predictive variance %.3e", value)
        np.clip(var_std, 0.0, None, out=var_std)
    var_std *= s.target_scale_sq
    if s is model:
        return GpPrediction(query, mean[:, 0], var_std)
    return GpPrediction(query, mean[0, 0], var_std[0])


def track_parameters(
    times,
    values,
    stddevs=None,
    config: GpTrainConfig = GpTrainConfig(),
) -> list:
    """Train one independent GP per parameter column, all in one ``train``
    call, which checks the inputs.

    ``values`` is (n_windows, n_params); ``stddevs`` of the same shape
    optionally provides per-window filter stddevs folded into fixed noise
    floors (their squares) when ``config.use_stddev_floor`` is set.
    """
    floors = None
    if stddevs is not None and config.use_stddev_floor:
        floors = np.asarray(stddevs, dtype=float) ** 2
    return train(times, values, config, floors)
