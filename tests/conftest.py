"""Shared fixtures: tiny custom models, matrix-form oracles of the
second-order system, the reference Euler-Maruyama and Taylor-1.5 steppers of
any model and the L(b) partial they take for the chain models, the element
kernel and the filter sample as first written (the bit-for-bit references of
the compiled ones), the filter half-steps composed of the library's public
steps (the bit-for-bit references of the inline ones), finite-difference
oracles for the analytic partials, the
per-model GP predictor, the GP kernel and the stacked GP query as first
written (the byte-for-byte references of the in-place ones), GP training as
one scipy ``minimize`` per restart and the likelihood of one GP as a batch
of one, the window kernel's step loop on strided views (the bit-for-bit
reference of the one on contiguous rows), synthetic windows from the whole
batch's states (the byte-for-byte reference of the ones measured block by
block), a runner of scripts in a fresh interpreter, malformed snapshot
histories and fields and the strong-convergence study."""

import json
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize

import mdoftwin
from mdoftwin import gpr, ukf
from mdoftwin.errors import InvalidParameterError, NumericError, TrainingError
from mdoftwin.linalg import cho_factor, cho_solve, tri_inverse
from mdoftwin.models import (KIND_DUFFING_2DOF, StateSpaceModel, build_dvp_7dof,
                             degraded_stiffness, dispersion_split, to_state_space)
from mdoftwin.sde import (_check_state, _increment_pair, _window_operators, corrupt_with_snr,
                          noise_std_for_snr, simulate_window, uniform_step)
from mdoftwin.twin import CampaignConfig, TwinSnapshot
from mdoftwin.ukf import ukf_weights


def make_model(dim, n_channels, drift, dispersion, jacobian=None,
               hessian_quad=None, dispersion_jacobian=None, params=()):
    """Assemble a StateSpaceModel from plain callables for tests."""
    return StateSpaceModel(
        dim_state=dim,
        n_channels=n_channels,
        labels=tuple(f"y{i + 1}" for i in range(dim)),
        augmented_params=tuple(params),
        param_indices=tuple(),
        drift=drift,
        dispersion=dispersion,
        drift_jacobian=jacobian,
        drift_hessian_quad=hessian_quad,
        dispersion_jacobian=dispersion_jacobian,
    )


# ---- matrix-form oracles of M x'' + C x' + K x + G(x) -----------------------


def mass_matrix(system):
    """Diagonal mass matrix M."""
    return np.diag(system.masses)


def stiffness_matrix(system, k=None):
    """K(k) = B^T diag(s * k) B."""
    k = system.stiffnesses if k is None else np.asarray(k, dtype=float)
    b = system.elongation_operator
    return b.T @ ((system.stiffness_signs * k)[:, None] * b)


def damping_matrix(system):
    """C = B^T diag(c) B, a standard chain for both kinds."""
    b = system.elongation_operator
    return b.T @ (system.dampings[:, None] * b)


def nonlinear_term(system, x):
    """Cubic coupling force G(x); batched over leading axes."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    a = system.nonlinear_coeff
    if system.kind == KIND_DUFFING_2DOF:
        g[..., 0] = a * x[..., 0] ** 3
    else:
        d = a * (x[..., 2] - x[..., 3]) ** 3
        g[..., 2] = d
        g[..., 3] = -d
    return g


def with_dispersion_jacobian(model):
    """The chain model with the analytic ``dispersion_jacobian`` of its
    state-scaled noise entries, for the reference Taylor-1.5 stepper; the
    window kernel reads those entries from ``scaled_noise`` instead, so
    ``to_state_space`` gives none. Unchanged for additive noise."""
    if not model.scaled_noise:
        return model
    _, scaled = dispersion_split(model)

    def dispersion_jacobian(y, u):
        out = np.zeros(u.shape[:-2] + (model.dim_state,))
        for row, channel, state, gain in scaled:
            out[..., row] += gain * u[..., channel, state]
        return out

    return replace(model, dispersion_jacobian=dispersion_jacobian)


# ---- the element kernel and the filter sample as first written --------------


def state_positions(system):
    """Displacement and velocity positions in the state, as index arrays."""
    n = system.n_dof
    if system.state_ordering == "blocked":
        return np.arange(n), np.arange(n, 2 * n)
    return np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)


def rowwise_elements(system, augment_params, physical=False):
    """The element kernel in its first, row-wise layout: ``to_elements`` and
    ``forces``, which maps the product ``y @ to_elements`` ``(..., 3n)`` to
    the element forces ``(..., n)``, adding the signed stiffness even where
    it is all zero. ``forces`` takes the cubic element in the tangent form
    of the compiled kernel, (k + coeff e^2) e + d, which must equal it bit
    for bit; with ``physical`` it is the physical formula k e + d +
    coeff e^3 (``** 3``), which the kernel matches to a few ulp."""
    n = system.n_dof
    aug0 = np.array(sorted(augment_params), dtype=int) - 1
    disp, vel = state_positions(system)
    b = system.elongation_operator
    signs = system.stiffness_signs
    to_elements = np.zeros((2 * n + aug0.shape[0], 3 * n))
    to_elements[disp, :n] = b.T
    to_elements[vel, n:2 * n] = b.T * system.dampings
    to_elements[2 * n + np.arange(aug0.shape[0]), 2 * n + aug0] = signs[aug0]
    signed_k = signs * system.stiffnesses
    signed_k[aug0] = 0.0
    cubic, coeff = system.cubic_element, system.nonlinear_coeff

    def forces(ev):
        e, damper, tail_k = ev[..., :n], ev[..., n:2 * n], ev[..., 2 * n:]
        k = signed_k + tail_k
        if physical:
            w = k * e + damper
            w[..., cubic] += coeff * e[..., cubic] ** 3
            return w
        k[..., cubic] += coeff * (e[..., cubic] * e[..., cubic])
        return k * e + damper

    return to_elements, forces


def reference_restoring(system, augment_params, rows):
    """The restoring accelerations of the DOFs ``rows`` (0-based) by the
    row-wise kernel: element forces, then -M^-1 B^T. Generated accelerations
    and the filter's measurement must stay bit-identical to it."""
    to_elements, forces = rowwise_elements(system, augment_params)
    to_acceleration = (-system.elongation_operator / system.masses)[:, rows]
    return lambda y: forces(y @ to_elements) @ to_acceleration


def reference_drift(system, augment_params):
    """``to_state_space(system, augment_params).drift`` by the row-wise
    kernel."""
    to_elements, forces = rowwise_elements(system, augment_params)
    to_acceleration = -system.elongation_operator / system.masses
    disp, vel = state_positions(system)

    def drift(y, f):
        out = np.zeros_like(y)
        out[..., disp] = y[..., vel]
        out[..., vel] = forces(y @ to_elements) @ to_acceleration + f / system.masses
        return out

    return drift


def reference_transition(system, augment_params, dt, force, physical=False):
    """``models.euler_transition`` as first written: one row-wise product
    ``y @ [Phi | E]``, the element forces into the velocities, then the
    force term; ``physical`` as for ``rowwise_elements``."""
    to_elements, forces = rowwise_elements(system, augment_params, physical)
    n, dim = system.n_dof, to_elements.shape[0]
    disp, vel = state_positions(system)
    linear = np.eye(dim)
    linear[vel, disp] = dt
    stacked = np.hstack((linear, to_elements))
    to_velocity = np.zeros((n, dim))
    to_velocity[:, vel] = dt * (-system.elongation_operator / system.masses)
    pushes = np.zeros((force.shape[0], dim))
    pushes[:, vel] = dt * (force / system.masses)

    def transition(y, k):
        out = y @ stacked
        image = out[..., :dim] + forces(out[..., dim:]) @ to_velocity
        image += pushes[k]
        return image

    return transition


def textbook_filter(model, system, window, init, r, params):
    """``ukf.run_filter`` over a window, written as the textbook unscented
    predict/update: ``@`` products, out-of-place moments, Q(m) = dt b(m)
    b(m)^T from the dispersion, and each image and covariance checked on
    its own. The maps are the row-wise references above; the weights are
    the library's, whose sum is exactly one. Expects no covariance repair.
    Returns the means, stds and final stiffness covariance."""
    dt = uniform_step(window.times)
    obs0 = [d - 1 for d in window.observed_dofs]
    h = reference_restoring(system, model.augmented_params, obs0)
    transition = reference_transition(system, model.augmented_params, dt, window.force)
    length = model.dim_state
    w_mean, w_cov = ukf_weights(length, params)
    w_col = w_cov[:, None]
    unit = np.sqrt(params.scaling(length)) * np.eye(length)
    offsets = np.vstack((np.zeros(length), unit, -unit))

    def moments(fn, mean, factor):
        points = mean + offsets @ factor.T
        image = fn(points)
        assert np.isfinite(image).all()
        center = image[0] + w_mean @ (image - image[0])
        return points, center, image - center

    def factored(cov):
        cov = 0.5 * (cov + cov.T)
        assert np.isfinite(cov).all()
        return cov, cho_factor(cov)  # LinAlgError would call for a repair

    mean, cov, factor = init.mean, init.cov, init.factor
    means, variances = [mean], [cov.diagonal()]
    for k in range(1, window.times.shape[0]):
        _, mean, dev = moments(lambda y: transition(y, k - 1), mean, factor)
        b = model.dispersion(mean)
        cov, factor = factored((dev * w_col).T @ dev + dt * (b @ b.T))
        points, z_mean, dz = moments(h, mean, factor)
        s = (dz * w_col).T @ dz + r
        s = 0.5 * (s + s.T)
        assert np.isfinite(s).all()
        cross = ((points - mean) * w_col).T @ dz
        gain = cho_solve(cho_factor(s), cross.T).T
        mean = mean + gain @ (window.accel[k] - z_mean)
        cov, factor = factored(cov - gain @ cross.T)
        means.append(mean)
        variances.append(cov.diagonal())
    slots = list(model.param_indices)
    return (np.array(means), np.sqrt(np.clip(np.array(variances), 0.0, None)),
            cov[np.ix_(slots, slots)])


def _composed_moments(image, w_mean, what):
    image = np.asarray(image, dtype=float)
    if image.ndim == 1:
        image = image[:, None]
    bad = np.flatnonzero(~np.isfinite(image).all(axis=1))
    if bad.size:
        raise NumericError(f"non-finite {what} at sigma index {bad[0]}")
    center = image[0] + w_mean @ (image - image[0])
    return center, image - center


def composed_predict(belief, dynamic_fn, q, params, repair_log=None):
    """``ukf.predict`` composed of the library's public steps
    (``sigma_points``, ``ukf_weights`` and ``repair_psd``) and written with
    ``@`` and out-of-place moments; returns the mean, covariance and factor.
    A 1-D image is one column."""
    w_mean, w_cov = ukf_weights(belief.mean.shape[0], params)
    mean, dev = _composed_moments(dynamic_fn(ukf.sigma_points(belief, params)), w_mean,
                                  "propagated sigma point")
    cov = (dev * w_cov[:, None]).T @ dev
    cov = q(mean, cov) if callable(q) else cov + q
    return (mean, *ukf.repair_psd(cov, repair_log))


def composed_update(predicted, measurement_fn, z, r, params, repair_log=None):
    """``ukf.update`` composed as ``composed_predict`` is, with the
    innovation covariance factored by ``cholesky_with_jitter``."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    w_mean, w_cov = ukf_weights(predicted.mean.shape[0], params)
    points = ukf.sigma_points(predicted, params)
    z_mean, dz = _composed_moments(measurement_fn(points), w_mean, "measurement sigma point")
    s = (dz * w_cov[:, None]).T @ dz + r
    s = 0.5 * (s + s.T)
    cross = ((points - predicted.mean) * w_cov[:, None]).T @ dz
    factor, _ = ukf.cholesky_with_jitter(s, "innovation covariance")
    gain = cho_solve(factor, cross.T).T
    mean = predicted.mean + gain @ (z - z_mean)
    return (mean, *ukf.repair_psd(predicted.cov - gain @ cross.T, repair_log))


def strided_window_states(model, system, y0, duration, cfg):
    """The states of ``sde.simulate_window`` for a batch ``y0`` ``(P, dim)``,
    the system's force and the default generators, from its step loop as
    first written: the same operators and step inputs, with each step acting
    on strided ``(P, m + J)`` views of the states array and the weights of
    every step held in one array beside it. Non-finite rows are left as they
    come."""
    n_paths, dim = y0.shape
    n_steps = int(round(duration / cfg.dt))
    forces = system.force_at(np.arange(n_steps + 1) * cfg.dt)
    m = dim - len(model.param_indices)
    rest = y0.copy()
    rest[:, :m] = 0.0
    step, reads, n_cubic, a_lin, input_map, b_const, scaled = _window_operators(
        model, rest, cfg.dt)
    n_reads = reads.shape[1]
    width = m + n_reads
    work = np.empty((n_steps + 1, n_paths, max(dim, width)))
    rows = work[:, :, :width]
    weights = np.empty((n_steps, n_paths, n_reads))
    for p in range(n_paths):
        inc = sample_brownian_increments(np.random.default_rng(cfg.seed + p), cfg.dt,
                                         model.n_channels, n_steps)
        a_rest = model.drift(rest[p], forces[:n_steps])[:, :m]
        c = (a_rest @ input_map[p].T + inc.dw @ b_const.T
             + inc.dz @ (a_lin[p] @ b_const).T)
        rows[1:, p, :m] = c
        rows[1:, p, m:] = c @ reads[p].T
        j = n_cubic
        for _, channel, _, gain in scaled:
            dw, dz = inc.dw[:, channel], inc.dz[:, channel]
            for d in (dz, dw, dw * cfg.dt - dz):
                weights[:, p, j] = gain * d
                j += 1
    rows[0, :, :m] = y0[:, :m]
    rows[0, :, m:] = (reads @ y0[:, :m, None])[:, :, 0]
    product = np.empty((n_paths, width, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for x, o, e, x_next, g, g_cubic in zip(
                rows[:, :, :, None], rows[:, :, m:], rows[:, :, m:m + 1],
                rows[1:, :, :, None], weights, weights[:, :, :n_cubic]):
            np.multiply(e, e, out=g_cubic)
            np.multiply(o, g, out=o)
            np.matmul(step, x, out=product)
            np.add(x_next, product, out=x_next)
    states = work[:, :, :dim]
    states[:, :, m:] = y0[:, m:]
    return states


def full_state_windows(system, schedule, cfg, visits) -> list:
    """The clean and noisy accelerations and the noise levels of
    ``twin._synthesize``'s windows as first made, from the states of the
    whole batch: ``Trajectory.accelerations`` indexed by path and observed
    DOF. None for a diverged visit."""
    n = system.n_dof
    obs0 = [d - 1 for d in (cfg.observed_dofs or range(1, n + 1))]
    rngs = [np.random.default_rng(seed) for _, seed, _ in visits]
    model = to_state_space(system, augment_params=range(1, n + 1))
    times = np.arange(int(round(cfg.window_duration_s / cfg.integrator.dt)) + 1) \
        * cfg.integrator.dt
    force_clean = system.force_at(times)
    forces = np.stack([corrupt_with_snr(force_clean, cfg.snr_force, rng) for rng in rngs],
                      axis=1)
    y0 = np.zeros((len(visits), model.dim_state))
    y0[:, 2 * n:] = [degraded_stiffness(schedule, t_s) for t_s, _, _ in visits]
    traj = simulate_window(model, system, y0, cfg.window_duration_s, cfg.integrator,
                           forces=forces, rng=rngs)
    windows = []
    for p, rng in enumerate(rngs):
        if traj.diverged[p]:
            windows.append(None)
            continue
        clean = traj.accelerations[:, p, obs0]
        windows.append((corrupt_with_snr(clean, cfg.snr_accel, rng),
                        noise_std_for_snr(clean, cfg.snr_accel)))
    return windows


def run_fresh(script) -> str:
    """Run ``script`` in a new interpreter that imports this mdoftwin;
    return its standard output."""
    env = dict(os.environ)
    src = str(Path(mdoftwin.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


# ---- malformed histories of a 2-DOF snapshot ---------------------------------


_ENTRY = {"t_s": 0.0, "estimate": [1000.0, 500.0], "stddev": [1.0, 1.0],
          "psd_repairs": 0, "n_updates": 10}

# (snapshot field, its malformed value, the start of the error message)
MALFORMED_HISTORIES = [
    pytest.param("parameter_history", 5, "parameter_history must be a list", id="not-a-list"),
    pytest.param("parameter_history", ["junk"], "parameter_history[0] must be an object",
                 id="entry-not-an-object"),
    pytest.param("parameter_history", [{"t_s": "x"}],
                 "parameter_history[0].t_s must be of type float", id="entry-keys-missing"),
    pytest.param("parameter_history", [{"t_s": 0.0}], "parameter_history[0] is missing 'estimate'",
                 id="entry-time-only"),
    pytest.param("parameter_history", [{**_ENTRY, "note": ""}],
                 "parameter_history[0] has unknown key 'note'", id="entry-extra-key"),
    pytest.param("parameter_history", [{**_ENTRY, "t_s": "x"}],
                 "parameter_history[0].t_s must be of type float", id="time-text"),
    pytest.param("parameter_history", [_ENTRY, {**_ENTRY, "t_s": 0.0}],
                 "parameter_history[1].t_s must exceed", id="time-repeated"),
    pytest.param("parameter_history", [{**_ENTRY, "estimate": [math.nan, 500.0]}],
                 "parameter_history[0].estimate[0] must be finite", id="estimate-nan"),
    pytest.param("parameter_history", [{**_ENTRY, "estimate": ["junk", 500.0]}],
                 "parameter_history[0].estimate[0] must be of type float", id="estimate-text"),
    pytest.param("parameter_history", [{**_ENTRY, "stddev": [1.0]}],
                 "parameter_history[0]: estimate and stddev must hold 2", id="stddev-short"),
    pytest.param("parameter_history", [{**_ENTRY, "stddev": [-1.0, 1.0]}],
                 "parameter_history[0].stddev must be non-negative", id="stddev-negative"),
    pytest.param("parameter_history", [{**_ENTRY, "n_updates": -1}],
                 "parameter_history[0].n_updates must be non-negative", id="count-negative"),
    pytest.param("parameter_history", [{**_ENTRY, "psd_repairs": 1.5}],
                 "parameter_history[0].psd_repairs must be of type int", id="count-fraction"),
    pytest.param("rejected_windows", {}, "rejected_windows must be a list",
                 id="rejected-not-a-list"),
    pytest.param("rejected_windows", ["junk"], "rejected_windows[0] must be an object",
                 id="rejected-not-an-object"),
    pytest.param("rejected_windows", [{"t_s": 0.0, "reason": 3}],
                 "rejected_windows[0].reason must be of type str", id="rejected-reason"),
]


# ---- malformed nested fields of a 7-DOF snapshot -----------------------------


# (keys and list indices down to the field, its malformed value, the message
# of load, which names the field by its full path)
MALFORMED_FIELDS = [
    pytest.param(("config", "integrator", "dt"), -1.0,
                 "TwinSnapshot.config.integrator.dt must be positive", id="integrator-dt"),
    pytest.param(("gp_models", "k3", "noise_variance"), -0.1,
                 "TwinSnapshot.gp_models.k3.noise_variance must be non-negative", id="gp-noise"),
    pytest.param(("parameter_history", 1, "t_s"), 0.0,
                 "TwinSnapshot.parameter_history[1].t_s must exceed the previous entry's 0.0",
                 id="history-order"),
    pytest.param(("gp_models", "k3", "note"), "",
                 "TwinSnapshot.gp_models.k3 has unknown key 'note'", id="gp-unknown-key"),
    pytest.param(("gp_models", "k3", "kernel", "lengthscale"), -1.2,
                 "TwinSnapshot.gp_models.k3.kernel.lengthscale must be positive",
                 id="gp-lengthscale"),
    pytest.param(("system", "masses", 0), -1.0,
                 "TwinSnapshot.system.masses must be strictly positive", id="system-mass"),
]


def save_malformed_snapshot(path, field, value) -> None:
    """Save to ``path`` a 7-DOF snapshot with two history entries and a GP
    for k3, with ``field`` (keys and list indices) set to ``value``."""
    system = build_dvp_7dof()
    history = [{"t_s": t_s, "estimate": system.stiffnesses.tolist(), "stddev": [1.0] * 7,
                "psd_repairs": 0, "n_updates": 10} for t_s in (0.0, 50.0)]
    model = gpr.GpModel(kernel=gpr.Kernel(variance=2.0, lengthscale=1.2), mean_spec="constant",
                        noise_variance=1e-3, train_inputs=[0.0, 1.0, 2.5],
                        train_targets=[1.0, -0.5, 0.3])
    doc = TwinSnapshot(system=system, config=CampaignConfig(), parameter_history=history,
                       gp_models={"k3": model}).to_dict()
    *parents, last = field
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    Path(path).write_text(json.dumps(doc))


# ---- finite-difference oracles for the analytic partials (one state) -------


def fd_drift_jacobian(model, y, f_t, eps=1e-6):
    y = np.asarray(y, dtype=float)
    dim = y.shape[0]
    jac = np.empty((dim, dim))
    for i in range(dim):
        step = np.zeros(dim)
        step[i] = eps
        jac[:, i] = (model.drift(y + step, f_t) - model.drift(y - step, f_t)) / (2.0 * eps)
    return jac


def fd_dispersion_jacobian(model, y, eps=1e-6):
    """db[k, j, i] = d b_kj / d y_i."""
    y = np.asarray(y, dtype=float)
    dim = y.shape[0]
    db = np.empty((dim, model.n_channels, dim))
    for i in range(dim):
        step = np.zeros(dim)
        step[i] = eps
        db[:, :, i] = (model.dispersion(y + step) - model.dispersion(y - step)) / (2.0 * eps)
    return db


def fd_drift_hessian_quad(model, y, f_t, weight, eps=1e-4):
    """0.5 sum_ij weight[i,j] d2a/dy_i dy_j by central second differences."""
    y = np.asarray(y, dtype=float)
    dim = y.shape[0]
    out = np.zeros(dim)
    for i in range(dim):
        ei = np.zeros(dim)
        ei[i] = eps
        for j in range(i, dim):
            w = weight[i, j]
            if w == 0.0 and weight[j, i] == 0.0:
                continue
            ej = np.zeros(dim)
            ej[j] = eps
            d2 = (
                model.drift(y + ei + ej, f_t)
                - model.drift(y + ei - ej, f_t)
                - model.drift(y - ei + ej, f_t)
                + model.drift(y - ei - ej, f_t)
            ) / (4.0 * eps * eps)
            scale = w if i == j else w + weight[j, i]
            out += 0.5 * scale * d2
    return out


def fd_partials_model(model):
    """The same drift and dispersion, with every partial a finite-difference
    oracle in the library's directional form (single states only)."""
    def jacobian(y, f, v):
        return fd_drift_jacobian(model, y, f) @ v

    def hessian_quad(y, f, b):
        return fd_drift_hessian_quad(model, y, f, b @ b.T)

    def dispersion_jacobian(y, u):
        return np.einsum("kji,ji->k", fd_dispersion_jacobian(model, y), u)

    return make_model(model.dim_state, model.n_channels, model.drift,
                      model.dispersion, jacobian, hessian_quad,
                      dispersion_jacobian)


# ---- per-model GP prediction (GPML Alg. 2.1 plus the GLS term) -------------


def reference_kernel(family, variance, lengthscale, a, b, with_grad=False):
    """K(a, b), and with ``with_grad`` dK/dlog(lengthscale), over the last
    axes of (..., n) and (..., m) inputs, on |a - b| as first written: the
    bit-for-bit reference of ``gpr._kernel``."""
    r = np.abs(a[..., :, None] - b[..., None, :])
    if family == gpr.FAMILY_SE:
        s = (r / lengthscale) ** 2
        k = variance * np.exp(-0.5 * s)
        return (k, k * s) if with_grad else k
    u = math.sqrt(5.0) * r / lengthscale
    e = np.exp(-u)
    k = variance * (1.0 + u + u * u / 3.0) * e
    return (k, variance * (u * u / 3.0) * (1.0 + u) * e) if with_grad else k


def reference_predict(model, query):
    """Predictive mean and variance of one GP by Cholesky solves, the
    posterior recomputed from the model's fields; the oracle of the stacked
    prediction path."""
    kernel = model.kernel
    x, v, floor = gpr._standardize(
        model.train_inputs, model.train_targets, model.noise_floor, model.input_shift,
        model.input_scale, model.target_shift, model.target_scale)
    factor, beta, alpha, gls_denom = reference_posterior(
        reference_kernel(kernel.family, kernel.variance, kernel.lengthscale, x, x),
        model.noise_variance, floor, v, model.mean_spec)
    query = np.atleast_1d(np.asarray(query, dtype=float))
    xq = (query - model.input_shift) / model.input_scale
    k_star = reference_kernel(kernel.family, kernel.variance, kernel.lengthscale, x, xq)
    mean_std = beta + k_star.T @ alpha
    w = cho_solve(factor, k_star)
    var_std = kernel.variance - np.einsum("nm,nm->m", k_star, w)
    if model.mean_spec == "constant":
        u = 1.0 - np.ones(x.shape[0]) @ w
        var_std = var_std + u * u / gls_denom
    var_std = np.clip(var_std, 0.0, None)
    return gpr.GpPrediction(inputs=query,
                            mean=mean_std * model.target_scale + model.target_shift,
                            variance=var_std * model.target_scale ** 2)


def assert_matches_reference(prediction, model, query):
    """Means to rtol 1e-12; variances to 1e-10 of the raw prior variance."""
    oracle = reference_predict(model, query)
    np.testing.assert_allclose(prediction.mean, oracle.mean, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(
        prediction.variance, oracle.variance, rtol=0.0,
        atol=1e-10 * model.kernel.variance * model.target_scale ** 2)


# ---- the stacked GP query in plain numpy: its byte-for-byte oracle -------


def first_stack(models):
    """The stacked arrays of GP models as the query's compiled posterior lays
    them out, (J, n, 1) inputs and hyperparameters, (J, 1, 1) transforms and
    (J, 1) variance terms, each posterior recomputed from the model's
    fields."""
    parts = []
    for model in models:
        kernel = model.kernel
        x, v, floor = gpr._standardize(
            model.train_inputs, model.train_targets, model.noise_floor, model.input_shift,
            model.input_scale, model.target_shift, model.target_scale)
        factor, beta, alpha, gls_denom = reference_posterior(
            reference_kernel(kernel.family, kernel.variance, kernel.lengthscale, x, x),
            model.noise_variance, floor, v, model.mean_spec)
        n = x.shape[0]
        ones_solve = np.zeros(n) if gls_denom is None else cho_solve(factor, np.ones(n))
        parts.append(dict(
            x_std=x[None, :, None], input_shift=np.full((1, 1, 1), model.input_shift),
            input_scale=np.full((1, 1, 1), model.input_scale),
            variance=np.full((1, n, 1), kernel.variance),
            lengthscale=np.full((1, n, 1), kernel.lengthscale), alpha=alpha[None, None],
            target_scale=np.full((1, 1, 1), model.target_scale),
            mean_offset=np.full((1, 1, 1), model.target_scale * beta + model.target_shift),
            l_inv_gls=np.vstack((tri_inverse(factor), ones_solve))[None],
            gls_denom=np.full((1, 1), math.inf if gls_denom is None else gls_denom),
            prior_variance=np.full((1, 1), kernel.variance),
            target_scale_sq=np.full((1, 1), model.target_scale ** 2)))
    return SimpleNamespace(family=models[0].kernel.family, **{
        name: np.concatenate([part[name] for part in parts]) for name in parts[0]})


def first_predict(model, query):
    """``gpr.predict`` written out in plain numpy on ``first_stack``, for one
    GP model, a list of them or their ``first_stack``: the byte-for-byte
    oracle of the query path."""
    single = isinstance(model, gpr.GpModel)
    s = model if isinstance(model, SimpleNamespace) else first_stack(
        [model] if single else model)
    query = np.atleast_1d(np.asarray(query, dtype=float))
    xq = (query - s.input_shift) / s.input_scale  # (J, 1, m)
    k_star = reference_kernel(s.family, s.variance, s.lengthscale, s.x_std[..., 0], xq[:, 0])
    mean = ((s.alpha @ k_star) * s.target_scale + s.mean_offset)[:, 0]
    rows = s.l_inv_gls @ k_star
    v, gls = rows[:, :-1], rows[:, -1]
    var = s.prior_variance - (v ** 2).sum(axis=1) + (gls - 1.0) ** 2 / s.gls_denom
    if (var < 0.0).any():
        var = np.clip(var, 0.0, None)
    variance = var * s.target_scale_sq
    if single:
        return gpr.GpPrediction(inputs=query, mean=mean[0], variance=variance[0])
    return gpr.GpPrediction(inputs=query, mean=mean, variance=variance)


def first_predict_parameters(snapshot, future_ts):
    """``twin.predict_parameters`` as first written, on ``first_predict``."""
    names = sorted(snapshot.gp_models)
    stacked = first_predict([snapshot.gp_models[name] for name in names], future_ts)
    return {name: gpr.GpPrediction(stacked.inputs, stacked.mean[j], stacked.variance[j])
            for j, name in enumerate(names)}


def assert_same_bytes(prediction, oracle):
    """Inputs, means and variances equal to the oracle's, byte for byte."""
    for name in ("inputs", "mean", "variance"):
        got, want = getattr(prediction, name), getattr(oracle, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


# ---- GP training as first written: one scipy minimize per restart ---------


def reference_posterior(gram, noise, floor, v, mean_spec):
    """Factorize Kt = gram + (noise + jitter) I + diag(floor) of one GP,
    profile a constant mean by GLS and solve alpha = Kt^-1 (v - beta).
    Returns (factor, beta, alpha, Phi^T Kt^-1 Phi); LinAlgError if Kt is not
    positive definite."""
    n = gram.shape[0]
    kt = gram.copy()
    kt[np.diag_indices(n)] += noise + gpr._GRAM_JITTER
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


def reference_nlml(log_theta, x, v, family, mean_spec, floor=None):
    """NLML of one GP and its gradient, one trace and one quadratic form
    per hyperparameter; LinAlgError if Kt is not positive definite."""
    lengthscale, variance, noise = np.exp(log_theta)
    n = x.shape[0]
    k, dk_dlogl = reference_kernel(family, variance, lengthscale, x, x, with_grad=True)
    factor, beta, alpha, _ = reference_posterior(k, noise, floor, v, mean_spec)
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor))))
    value = 0.5 * float((v - beta) @ alpha) + 0.5 * logdet + 0.5 * n * math.log(2.0 * math.pi)
    kt_inv = cho_solve(factor, np.eye(n))
    grad = np.empty(3)
    for i, dk in enumerate((dk_dlogl, k, noise * np.eye(n))):
        grad[i] = 0.5 * (float(np.sum(kt_inv * dk)) - float(alpha @ dk @ alpha))
    return value, grad


def nlml_of_one(log_theta, x, v, family, mean_spec, floor=None):
    """``gpr.negative_log_marginal_likelihood`` on a batch of one instance:
    its value as a float and its gradient (3,)."""
    values, grads = gpr.negative_log_marginal_likelihood(
        np.asarray(log_theta, dtype=float)[None], x, np.asarray(v, dtype=float)[None],
        family, mean_spec, None if floor is None else np.asarray(floor, dtype=float)[None])
    return values[0], grads[0]


def scipy_minimize(objective, x0, eps_tol, max_iter):
    """One L-BFGS-B run of ``scipy.optimize.minimize`` in the GP's
    log-hyperparameter box, halted by a callback at an iterate whose squared
    step from the last one (from ``x0``, for the first) is at most
    ``eps_tol``."""
    state = {"prev": np.asarray(x0, dtype=float)}

    def callback(xk):
        eps = float(np.sum((xk - state["prev"]) ** 2))
        state["prev"] = np.array(xk, copy=True)
        if eps <= eps_tol:
            raise StopIteration

    # minimize ends at the callback's xk when the callback raises StopIteration
    bounds = [(-16.0, 16.0), (-16.0, 16.0), (math.log(1e-12), math.log(1e2))]
    return minimize(objective, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                    callback=callback, options={"maxiter": max_iter})


def scipy_train(tau, v, config, noise_floor=None):
    """``gpr.train`` as a loop of ``scipy.optimize.minimize`` L-BFGS-B runs,
    one per start, on ``reference_nlml``: the bit-for-bit oracle of the
    lockstep driver and the batched likelihood."""
    tau = np.asarray(tau, dtype=float)
    v = np.asarray(v, dtype=float)
    input_shift, input_scale = float(np.mean(tau)), float(np.std(tau))
    target_shift, spread = float(np.mean(v)), float(np.std(v))
    target_scale = spread if spread > 0.0 else 1.0
    x_std = (tau - input_shift) / input_scale
    v_std = (v - target_shift) / target_scale
    floor_std = (None if noise_floor is None
                 else np.asarray(noise_floor, dtype=float) / target_scale ** 2)
    log_ranges = [tuple(math.log(bound) for bound in bounds) for bounds in (
        config.lengthscale_range, config.variance_range, config.noise_range)]
    rng = np.random.default_rng(config.seed)
    starts = [np.array([0.0, 0.0, math.log(1e-2)])]
    starts.extend(gpr._latin_hypercube(rng, config.n_restarts, log_ranges))

    def objective(log_theta):
        try:
            return reference_nlml(log_theta, x_std, v_std, config.kernel_family,
                                  config.mean_spec, floor_std)
        except np.linalg.LinAlgError:
            return 1e25, np.zeros(3)

    best_value, best_log_theta = math.inf, None
    for x0 in starts:
        result = scipy_minimize(objective, x0, config.eps_tol, config.n_max)
        value = float(result.fun)
        if math.isfinite(value) and value < min(best_value, 1e25):
            best_value, best_log_theta = value, result.x
    if best_log_theta is None:
        raise TrainingError("all hyperparameter restarts failed")
    lengthscale, variance, noise = np.exp(best_log_theta)
    return gpr.GpModel(
        kernel=gpr.Kernel(family=config.kernel_family, variance=float(variance),
                          lengthscale=float(lengthscale)),
        mean_spec=config.mean_spec, noise_variance=float(noise), train_inputs=tau,
        train_targets=v, input_shift=input_shift, input_scale=input_scale,
        target_shift=target_shift, target_scale=target_scale, noise_floor=noise_floor,
        nlml=float(best_value))


# ---- the reference Euler-Maruyama and Taylor-1.5 steppers -------------------


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
    return BrownianIncrementPair(*_increment_pair(u1, rng.standard_normal(shape), dt))


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


# ---- scalar benchmark SDEs on the path axis ---------------------------------


def scalar_model(sigma, benchmark):
    """Scalar SDE whose independent paths are the library's leading path axis.

    Benchmarks: ``ou`` dy = -y dt + s dW; ``multiplicative``
    dy = -y dt + s y dW; ``cubic`` dy = -y^3 dt + s dW. States are
    ``(n_paths, 1)``, so the reference steppers advance all paths in one call.
    """
    if benchmark == "cubic":
        def drift(y, f):
            return -y ** 3

        def jacobian(y, f, v):
            return -3.0 * y ** 2 * v

        def hessian_quad(y, f, b):
            # 0.5 b^2 d2a/dy2 for the single state entry and channel
            return 0.5 * b[..., 0] ** 2 * (-6.0 * y)
    else:
        def drift(y, f):
            return -y

        def jacobian(y, f, v):
            return -v

        hessian_quad = None

    if benchmark == "multiplicative":
        def dispersion(y):
            return sigma * y[..., None]
    else:
        def dispersion(y):
            return np.full(y.shape + (1,), sigma)

    return make_model(1, 1, drift, dispersion, jacobian, hessian_quad,
                      dispersion_jacobian=None)


def _reference_step_ou(y, h, sigma, dw, dz):
    # strong Taylor-1.5 for dy = -y dt + sigma dW, written out by hand
    return y * (1.0 - h + 0.5 * h * h) + sigma * (dw - dz)


def _reference_step_multiplicative(y, h, sigma, dw, dz):
    # strong Taylor-1.5 for dy = -y dt + sigma y dW; the dz terms cancel
    return y * (1.0 - h + 0.5 * h * h + sigma * dw - sigma * dw * h
                + 0.5 * sigma * sigma * (dw * dw - h))


def _reference_step_cubic(y, h, sigma, dw, dz):
    # strong Taylor-1.5 for dy = -y^3 dt + sigma dW
    return (y - y ** 3 * h + sigma * dw - 3.0 * sigma * y ** 2 * dz
            + 0.5 * (3.0 * y ** 5 - 3.0 * sigma ** 2 * y) * h * h)


_REFERENCE_STEPS = {
    "ou": _reference_step_ou,
    "multiplicative": _reference_step_multiplicative,
    "cubic": _reference_step_cubic,
}


def strong_error_study(benchmark, n_paths=100, t_end=1.0, fine_dt=1e-5,
                       coarse_dts=(1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3),
                       sigma=0.5, y0=1.0, seed=2024):
    """Pathwise strong errors of EM and Taylor-1.5 against a fine reference.

    One shared Brownian path per sample path: fine-grid increment pairs are
    generated once, aggregated exactly onto every coarse grid
    (dz over a block adds the running dw transported by the fine step), and
    the reference is advanced with a hand-written scalar Taylor-1.5 rule so
    it is independent of the reference steppers under test.
    """
    rng = np.random.default_rng(seed)
    n_fine = int(round(t_end / fine_dt))
    ratios = [int(round(dt / fine_dt)) for dt in coarse_dts]
    assert all(abs(r * fine_dt - dt) < 1e-12 for r, dt in zip(ratios, coarse_dts))

    ref_step = _REFERENCE_STEPS[benchmark]
    y_ref = np.full(n_paths, y0)
    acc_dw = {dt: np.zeros(n_paths) for dt in coarse_dts}
    acc_dz = {dt: np.zeros(n_paths) for dt in coarse_dts}
    stored = {dt: ([], []) for dt in coarse_dts}
    sqrt_h = np.sqrt(fine_dt)
    dz_scale = 0.5 * fine_dt ** 1.5
    for i in range(n_fine):
        u1 = rng.standard_normal(n_paths)
        u2 = rng.standard_normal(n_paths)
        dwf = sqrt_h * u1
        dzf = dz_scale * (u1 + u2 / np.sqrt(3.0))
        for dt in coarse_dts:
            # dz over the block picks up the within-block Brownian drift
            acc_dz[dt] += dzf + acc_dw[dt] * fine_dt
            acc_dw[dt] += dwf
        y_ref = ref_step(y_ref, fine_dt, sigma, dwf, dzf)
        for dt, ratio in zip(coarse_dts, ratios):
            if (i + 1) % ratio == 0:
                stored[dt][0].append(acc_dw[dt].copy())
                stored[dt][1].append(acc_dz[dt].copy())
                acc_dw[dt][:] = 0.0
                acc_dz[dt][:] = 0.0

    model = scalar_model(sigma, benchmark)
    f_dummy = np.zeros(1)
    errors = {"euler-maruyama": [], "taylor15": []}
    for dt in coarse_dts:
        dws, dzs = stored[dt]
        y_em = np.full((n_paths, 1), y0)
        y_t15 = np.full((n_paths, 1), y0)
        for dw, dz in zip(dws, dzs):
            y_em = em_step(model, y_em, f_dummy, dw[:, None], dt)
            y_t15 = taylor15_step(
                model, y_t15, f_dummy,
                BrownianIncrementPair(dw=dw[:, None], dz=dz[:, None]), dt)
        errors["euler-maruyama"].append(np.mean(np.abs(y_em[:, 0] - y_ref)))
        errors["taylor15"].append(np.mean(np.abs(y_t15[:, 0] - y_ref)))
    return {
        "dts": np.array(coarse_dts),
        "em": np.array(errors["euler-maruyama"]),
        "taylor15": np.array(errors["taylor15"]),
    }


def fitted_slope(dts, errors):
    return float(np.polyfit(np.log(dts), np.log(errors), 1)[0])


@pytest.fixture(scope="session")
def ou_convergence():
    """Strong errors on the additive-noise scalar benchmark dy=-y dt+s dW."""
    return strong_error_study("ou")


@pytest.fixture(scope="session")
def multiplicative_convergence():
    """Strong errors on the multiplicative variant dy=-y dt+s y dW."""
    return strong_error_study("multiplicative")


@pytest.fixture(scope="session")
def cubic_convergence():
    """Strong errors on the cubic-drift benchmark dy=-y^3 dt+s dW.

    With a nonlinear drift the residual the Taylor-1.5 scheme drops first
    is O(dt^2) in local mean square, so the textbook strong order 1.5 is
    actually visible; on the linear OU both schemes do better (EM 1.0,
    Taylor-1.5 2.0) because the omitted terms vanish identically.
    """
    return strong_error_study("cubic")
