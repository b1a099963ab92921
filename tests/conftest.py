"""Shared fixtures: tiny custom models, finite-difference oracles for the
analytic partials, and the strong-convergence study."""

import numpy as np
import pytest

from mdoftwin.models import StateSpaceModel
from mdoftwin.sde import BrownianIncrementPair, em_step, taylor15_step


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


# ---- scalar benchmark SDEs on the path axis ---------------------------------


def scalar_model(sigma, benchmark):
    """Scalar SDE whose independent paths are the library's leading path axis.

    Benchmarks: ``ou`` dy = -y dt + s dW; ``multiplicative``
    dy = -y dt + s y dW; ``cubic`` dy = -y^3 dt + s dW. States are
    ``(n_paths, 1)``, so the library steppers advance all paths in one call.
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
    it is independent of the library steppers under test.
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
