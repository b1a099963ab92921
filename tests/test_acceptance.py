"""Acceptance gate: each numbered criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``[acceptance] criterion N: PASS/FAIL`` line per criterion; criteria 1-3
also print their wall time on a ``[timing] criterion N`` line.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from mdoftwin.cli import main as cli_main
from mdoftwin.gpr import GpModel, Kernel, _kernel, predict
from mdoftwin.models import (DegradationSchedule, build_duffing_2dof,
                             build_dvp_7dof, degraded_stiffness)
from mdoftwin.sde import IntegratorConfig
from mdoftwin.twin import (CampaignConfig, campaign_times, filter_window,
                           generate_window, new_snapshot, predict_parameters,
                           run_campaign)
from mdoftwin.ukf import (GaussianBelief, UkfParams, predict as ukf_predict,
                          ukf_weights, update as ukf_update)

from conftest import fitted_slope, nlml_of_one


def check(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail})")
    assert passed, f"criterion {criterion}: {detail}"


def report_time(criterion, elapsed):
    # a line of its own, so that reruns of the same code print the same
    # [acceptance] lines
    print(f"[timing] criterion {criterion}: {elapsed:.1f}s")


def recovery_errors(system, cfg, seed=None):
    """One synthetic window at nominal parameters, cold-started filter."""
    sched = DegradationSchedule.for_system(
        system, rate_per_day=cfg.degradation_rate_per_day)
    seed = cfg.master_seed if seed is None else seed
    t0 = time.monotonic()
    window = generate_window(system, sched, cfg, 0.0, seed, 0)
    result = filter_window(system, cfg, window)
    elapsed = time.monotonic() - t0
    rel = np.abs(result.param_estimate - system.stiffnesses) / system.stiffnesses
    return rel, elapsed, result


# ---------------------------------------------------------------------------
# Criteria 1-3: parameter recovery
# ---------------------------------------------------------------------------


def test_criterion_1_2dof_full_measurement_recovery():
    system = build_duffing_2dof()
    cfg = CampaignConfig()
    rel, elapsed, _ = recovery_errors(system, cfg)
    detail = (f"k1 err {100 * rel[0]:.2f}% (tol 2%), "
              f"k2 err {100 * rel[1]:.2f}% (tol 5%)")
    report_time(1, elapsed)
    check(1, rel[0] < 0.02 and rel[1] < 0.05 and elapsed < 30.0, detail)


def test_criterion_2_2dof_partial_measurement_recovery():
    system = build_duffing_2dof()
    cfg = replace(CampaignConfig(), observed_dofs=(1,))
    rel, elapsed, _ = recovery_errors(system, cfg)
    detail = f"DOF-1 only: k2 err {100 * rel[1]:.2f}% (tol 5%)"
    report_time(2, elapsed)
    check(2, rel[1] < 0.05 and elapsed < 30.0, detail)


def test_criterion_3_7dof_recovery():
    system = build_dvp_7dof()
    cfg = CampaignConfig()
    rel, elapsed, _ = recovery_errors(system, cfg)
    tight = all(rel[i] < 0.02 for i in (1, 2, 4))    # k2, k3, k5
    loose = all(rel[i] < 0.06 for i in (0, 5, 6))    # k1, k6, k7
    detail = ("err% " + ", ".join(f"k{i + 1}={100 * rel[i]:.2f}"
                                  for i in range(7))
              + "; tol 2% on k2,k3,k5 / 6% on k1,k6,k7")
    report_time(3, elapsed)
    check(3, tight and loose and elapsed < 300.0, detail)


# ---------------------------------------------------------------------------
# Criterion 4: slow-timescale tracking and extrapolation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tracking_campaign():
    """41-window 2-DOF campaign, windows up to day 1500 assimilated."""
    system = build_duffing_2dof()
    base = CampaignConfig(horizon_days=2000.0)
    cfg = replace(
        base,
        integrator=IntegratorConfig(dt=5e-4),
        ukf=replace(base.ukf, q_scale=4.0, warm_param_std_factor=0.02),
        gp=replace(base.gp, use_stddev_floor=True),
    )
    schedule = DegradationSchedule.for_system(system)
    snapshot = new_snapshot(system, cfg, schedule)
    assert campaign_times(cfg).shape[0] == 41
    run_campaign(snapshot, cutoff_days=1500.0)
    return system, schedule, snapshot


def test_criterion_4_gp_extrapolation(tracking_campaign):
    system, schedule, snapshot = tracking_campaign
    assert snapshot.windows_processed == 31
    truth = degraded_stiffness(schedule, 2000.0)
    predictions = predict_parameters(snapshot, [2000.0])
    errs = {}
    for j, name in enumerate(("k1", "k2")):
        errs[name] = abs(predictions[name].mean[0] - truth[j]) / truth[j]
    detail = (f"day-2000 forecast: k1 err {100 * errs['k1']:.2f}%, "
              f"k2 err {100 * errs['k2']:.2f}% (tol 2%)")
    check(4, errs["k1"] < 0.02 and errs["k2"] < 0.02, detail)


def test_criterion_4b_tracking_quality(tracking_campaign):
    # supporting check: the assimilated track itself stays close to truth
    system, schedule, snapshot = tracking_campaign
    times = snapshot.history_times
    est = snapshot.history_estimates
    truth = np.array([degraded_stiffness(schedule, t) for t in times])
    rel = np.abs(est - truth) / truth
    assert np.all(rel.mean(axis=0) < 0.02)


# ---------------------------------------------------------------------------
# Criterion 5: integrator strong orders
# ---------------------------------------------------------------------------


def test_criterion_5_integrator_orders(multiplicative_convergence,
                                       cubic_convergence, ou_convergence):
    em_half = fitted_slope(multiplicative_convergence["dts"],
                           multiplicative_convergence["em"])
    t15_generic = fitted_slope(cubic_convergence["dts"],
                               cubic_convergence["taylor15"])
    em_ou = fitted_slope(ou_convergence["dts"], ou_convergence["em"])
    t15_ou = fitted_slope(ou_convergence["dts"], ou_convergence["taylor15"])
    detail = (f"EM slope {em_half:.2f} in [0.4,0.7] (multiplicative scalar); "
              f"Taylor-1.5 slope {t15_generic:.2f} in [1.2,1.8] (cubic-drift "
              f"scalar); OU slopes EM {em_ou:.2f}, Taylor-1.5 {t15_ou:.2f}")
    passed = (0.4 <= em_half <= 0.7 and 1.2 <= t15_generic <= 1.8
              and 0.8 <= em_ou <= 1.2 and 1.8 <= t15_ou <= 2.3)
    check(5, passed, detail)


# ---------------------------------------------------------------------------
# Criterion 6: UKF equals the exact Kalman filter on linear-Gaussian systems
# ---------------------------------------------------------------------------


def test_criterion_6_ukf_kf_equivalence():
    params = UkfParams()
    worst = 0.0
    for dim in (2, 3, 4, 5, 6):
        rng = np.random.default_rng(400 + dim)
        n_obs = max(1, dim - 1)
        a_mat = rng.normal(size=(dim, dim))
        a_mat *= 0.9 / max(np.abs(np.linalg.eigvals(a_mat)))
        h_mat = rng.normal(size=(n_obs, dim))
        q_root = rng.normal(size=(dim, dim)) * 0.1
        q = q_root @ q_root.T + 0.01 * np.eye(dim)
        r_root = rng.normal(size=(n_obs, n_obs)) * 0.1
        r = r_root @ r_root.T + 0.05 * np.eye(n_obs)
        m_kf = rng.normal(size=dim)
        p_kf = np.eye(dim)
        belief = GaussianBelief(mean=m_kf.copy(), cov=p_kf.copy())
        truth = rng.normal(size=dim)
        for _ in range(50):
            truth = a_mat @ truth + rng.multivariate_normal(np.zeros(dim), q)
            z = h_mat @ truth + rng.multivariate_normal(np.zeros(n_obs), r)
            m_pred = a_mat @ m_kf
            p_pred = a_mat @ p_kf @ a_mat.T + q
            s = h_mat @ p_pred @ h_mat.T + r
            gain = p_pred @ h_mat.T @ np.linalg.inv(s)
            m_kf = m_pred + gain @ (z - h_mat @ m_pred)
            p_kf = p_pred - gain @ s @ gain.T
            p_kf = 0.5 * (p_kf + p_kf.T)
            belief = ukf_predict(belief, lambda pts: pts @ a_mat.T, q, params)
            belief = ukf_update(belief, lambda pts: pts @ h_mat.T, z, r,
                                params)
            worst = max(worst, float(np.max(np.abs(belief.mean - m_kf))))
    check(6, worst < 1e-6, f"max mean deviation {worst:.2e} (tol 1e-6), "
                           f"dims 2-6, 50 steps each")


# ---------------------------------------------------------------------------
# Criterion 7: GP invariant suite
# ---------------------------------------------------------------------------


def test_criterion_7_gp_invariants():
    rng = np.random.default_rng(71)
    # (a) PSD gram matrices over random input sets
    psd_ok = True
    for size in (2, 7, 30, 120, 200):
        x = np.sort(rng.uniform(-100.0, 100.0, size))
        for family in ("squared-exponential", "matern-5/2"):
            gram = _kernel(family, rng.uniform(0.5, 5.0), rng.uniform(0.5, 50.0),
                            x[:, None], x)
            gram[np.diag_indices(size)] += 1e-10
            psd_ok &= bool(np.linalg.eigvalsh(gram).min() > -1e-12)

    # (b) noise-free interpolation
    x = np.array([0.0, 1.0, 2.0, 3.5, 5.0])
    v = np.sin(x)
    model = GpModel(kernel=Kernel(variance=1.0, lengthscale=1.0),
                    mean_spec="zero", noise_variance=0.0,
                    train_inputs=x, train_targets=v)
    pred = predict(model, x)
    interp_err = float(np.max(np.abs(pred.mean - v)))

    # (c) prior variance recovery far from the data
    far = predict(model, np.array([5.0 + 12.0, -15.0]))
    prior_dev = float(np.max(np.abs(far.variance - 1.0)))

    # (d) likelihood gradient against central differences
    xg = np.sort(rng.uniform(-2.0, 2.0, 20))
    vg = np.cos(xg) + 0.05 * rng.standard_normal(20)
    grad_ok = True
    worst_rel = 0.0
    for _ in range(4):
        theta = rng.uniform(-1.0, 1.0, 3)
        _, grad = nlml_of_one(
            theta, xg, vg, "squared-exponential", "constant", None)
        for i in range(3):
            step = np.zeros(3)
            step[i] = 1e-6
            up, _ = nlml_of_one(
                theta + step, xg, vg, "squared-exponential", "constant", None)
            dn, _ = nlml_of_one(
                theta - step, xg, vg, "squared-exponential", "constant", None)
            fd = (up - dn) / 2e-6
            rel = abs(grad[i] - fd) / max(abs(fd), 1e-8)
            worst_rel = max(worst_rel, rel)
            grad_ok &= rel < 1e-5

    detail = (f"gram PSD {psd_ok}; interpolation err {interp_err:.1e} "
              f"(tol 1e-6); prior-variance dev {100 * prior_dev:.3f}% "
              f"(tol 1%); grad rel err {worst_rel:.1e} (tol 1e-5)")
    check(7, psd_ok and interp_err < 1e-6 and prior_dev < 0.01 and grad_ok,
          detail)


# ---------------------------------------------------------------------------
# Criterion 8: weight identities
# ---------------------------------------------------------------------------


def test_criterion_8_weight_identities():
    params = UkfParams(alpha_f=0.001, beta=2.0, kappa=0.0)
    worst = 0.0
    for length in range(1, 22):
        w_mean, _ = ukf_weights(length, params)
        worst = max(worst, abs(math.fsum(w_mean) - 1.0))
    check(8, worst <= 1e-12,
          f"max |sum(W_m) - 1| = {worst:.2e} over L=1..21 (tol 1e-12)")


# ---------------------------------------------------------------------------
# Criterion 9: byte-identical campaign reruns
# ---------------------------------------------------------------------------


def test_criterion_9_campaign_determinism(tmp_path):
    config = {
        "system": {"kind": "duffing_2dof"},
        "campaign": {"horizon_days": 400.0, "window_interval_days": 50.0,
                     "window_duration_s": 2.0, "master_seed": 7},
        "integrator": {"dt": 1e-3, "seed": 7},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config, indent=2))
    outputs = ("snapshot.json", "estimates.csv", "gp_track.csv",
               "config_echo.json")
    digests = []
    for run in ("run1", "run2"):
        out = tmp_path / run
        code = cli_main(["campaign", "--config", str(cfg_path),
                         "--out", str(out)])
        assert code == 0
        digests.append({name: (out / name).read_bytes() for name in outputs})
    identical = all(digests[0][name] == digests[1][name] for name in outputs)
    check(9, identical,
          "snapshot + CSVs byte-identical across reruns with the same seed")
    # reported terminal accuracy stays at the headline level
    rep_out = tmp_path / "report"
    assert cli_main(["report", "--snapshot", str(tmp_path / "run1" /
                                                 "snapshot.json"),
                     "--out", str(rep_out)]) == 0
    report = json.loads((rep_out / "report.json").read_text())
    for name, entry in report["parameters"].items():
        assert entry["accuracy_percent"] >= 95.0, (name, entry)
