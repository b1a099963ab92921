"""System builders, state-space assembly and degradation law."""

import math

import numpy as np
import pytest

from mdoftwin import models, twin
from mdoftwin.errors import InvalidParameterError
from mdoftwin.models import (DegradationSchedule, MdofSystem,
                             acceleration_model, build_duffing_2dof,
                             build_dvp_7dof, degraded_stiffness,
                             euler_transition, to_state_space)

from conftest import (damping_matrix, fd_drift_hessian_quad,
                      fd_drift_jacobian, fd_dispersion_jacobian, mass_matrix,
                      nonlinear_term, reference_drift, reference_restoring,
                      reference_transition, rowwise_elements, state_positions,
                      stiffness_matrix, with_dispersion_jacobian)


# ---------------------------------------------------------------------------
# Independent oracles: matrix-form equations coded directly from the
# second-order form, plus literal transcriptions of the benchmark drift rows.
# ---------------------------------------------------------------------------


def matrix_form_acceleration(system, x, v, k=None):
    """-M^-1 (G + K x + C v), assembled independently of the library path."""
    m_inv = np.diag(1.0 / system.masses)
    kmat = stiffness_matrix(system, k)
    cmat = damping_matrix(system)
    return -m_inv @ (nonlinear_term(system, x) + kmat @ x + cmat @ v)


def literal_drift_2dof(y, f, k, sys2):
    m1, m2 = sys2.masses
    c1, c2 = sys2.dampings
    k1, k2 = k
    a = sys2.nonlinear_coeff
    y1, y2, y3, y4 = y
    f1, f2 = f
    return np.array([
        y3,
        y4,
        f1 / m1 - (c1 * y3 + c2 * y3 - c2 * y4 + k1 * y1 + k2 * y1 - k2 * y2
                   + a * y1 ** 3) / m1,
        (c2 * y3 - c2 * y4 + k2 * y1 - k2 * y2) / m2 + f2 / m2,
    ])


def literal_drift_7dof(y, f, k, sys7):
    m = sys7.masses
    c = sys7.dampings
    a = sys7.nonlinear_coeff
    (y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12, y13, y14) = y
    k1, k2, k3, k4, k5, k6, k7 = k
    c1, c2, c3, c4, c5, c6, c7 = c
    f1, f2, f3, f4, f5, f6, f7 = f
    return np.array([
        y2,
        f1 / m[0] - (y1 * (k1 + k2) - c2 * y4 - k2 * y3 + y2 * (c1 + c2)) / m[0],
        y4,
        f2 / m[1] + (c2 * y2 - y3 * (k2 + k3) + c3 * y6 + k2 * y1 + k3 * y5
                     - y4 * (c2 + c3)) / m[1],
        y6,
        f3 / m[2] - (k4 * y7 - c4 * y8 - k3 * y3 - c3 * y4 + y5 * (k3 - k4)
                     + a * (y5 - y7) ** 3 + y6 * (c3 + c4)) / m[2],
        y8,
        f4 / m[3] + (c4 * y6 + c5 * y10 - k4 * y5 + k5 * y9 + y7 * (k4 - k5)
                     + a * (y5 - y7) ** 3 - y8 * (c4 + c5)) / m[3],
        y10,
        f5 / m[4] + (c5 * y8 - y9 * (k5 + k6) + c6 * y12 + k5 * y7 + k6 * y11
                     - y10 * (c5 + c6)) / m[4],
        y12,
        f6 / m[5] + (c6 * y10 - y11 * (k6 + k7) + c7 * y14 + k6 * y9 + k7 * y13
                     - y12 * (c6 + c7)) / m[5],
        y14,
        f7 / m[6] + (c7 * y12 - c7 * y14 + k7 * y11 - k7 * y13) / m[6],
    ])


def random_state(rng, system, augmented=False):
    n = system.n_dof
    x = rng.normal(0.0, 0.5, n)
    v = rng.normal(0.0, 2.0, n)
    if system.state_ordering == "blocked":
        y = np.concatenate([x, v])
    else:
        y = np.empty(2 * n)
        y[0::2] = x
        y[1::2] = v
    if augmented:
        k = system.stiffnesses * rng.uniform(0.8, 1.2, n)
        y = np.concatenate([y, k])
    return y


def split_state(system, y):
    n = system.n_dof
    if system.state_ordering == "blocked":
        return y[:n], y[n:2 * n]
    return y[0:2 * n:2], y[1:2 * n:2]


def sigma_point_batch(rng, system):
    """(2L + 1, L) augmented states, the shape the filter hands the kernel."""
    length = 3 * system.n_dof
    return np.stack([random_state(rng, system, augmented=True)
                     for _ in range(2 * length + 1)])


def build_dvp_7dof_symmetric():
    return build_dvp_7dof(symmetric_consistent=True)


# every sign layout of the stiffness: chain, DVP k4 flip, DVP made symmetric
ORACLE_BUILDS = pytest.mark.parametrize(
    "build", [build_duffing_2dof, build_dvp_7dof, build_dvp_7dof_symmetric])


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


class TestBuilders:
    def test_duffing_defaults(self):
        s = build_duffing_2dof()
        np.testing.assert_allclose(s.masses, [20.0, 10.0])
        np.testing.assert_allclose(s.stiffnesses, [1000.0, 500.0])
        np.testing.assert_allclose(s.dampings, [10.0, 5.0])
        np.testing.assert_allclose(s.force_amplitudes, [10.0, 10.0])
        np.testing.assert_allclose(s.force_frequencies, [10.0, 10.0])
        np.testing.assert_allclose(s.noise_sigmas, [0.1, 0.1])
        assert s.nonlinear_coeff == 100.0
        assert s.frozen_indices == ()

    def test_dvp_defaults(self):
        s = build_dvp_7dof()
        np.testing.assert_allclose(s.masses, [20, 20, 10, 10, 10, 10, 5])
        np.testing.assert_allclose(
            s.stiffnesses, [2000, 2000, 1000, 1000, 1000, 1000, 500])
        np.testing.assert_allclose(s.dampings, np.full(7, 20.0))
        assert s.nonlinear_coeff == 100.0
        assert s.frozen_indices == (4,)

    def test_duffing_nonlinearity(self):
        s = build_duffing_2dof()
        np.testing.assert_allclose(nonlinear_term(s, np.zeros(2)), [0.0, 0.0])
        np.testing.assert_allclose(
            nonlinear_term(s, np.array([2.0, 5.0])), [800.0, 0.0])

    def test_dvp_nonlinearity(self):
        s = build_dvp_7dof()
        x = np.zeros(7)
        x[2] = x[3] = 0.7
        np.testing.assert_allclose(nonlinear_term(s, x), np.zeros(7))
        x = np.zeros(7)
        x[2] = 1.0
        g = nonlinear_term(s, x)
        expected = np.zeros(7)
        expected[2] = 100.0
        expected[3] = -100.0
        np.testing.assert_allclose(g, expected)

    def test_nonlinearity_vanishes_at_origin(self):
        for s in (build_duffing_2dof(), build_dvp_7dof()):
            np.testing.assert_array_equal(
                nonlinear_term(s, np.zeros(s.n_dof)), np.zeros(s.n_dof))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_duffing_2dof(masses=(0.0, 10.0))
        with pytest.raises(InvalidParameterError):
            build_duffing_2dof(stiffnesses=(-1.0, 500.0))
        with pytest.raises(InvalidParameterError):
            build_dvp_7dof(masses=(1.0,) * 6)  # wrong length

    def test_immutability(self):
        s = build_duffing_2dof()
        with pytest.raises(AttributeError):
            s.nonlinear_coeff = 1.0


class TestAssembledMatrices:
    def test_2dof_stiffness_unit_displacements(self):
        # coefficients hand-expanded from the coupled equations
        s = build_duffing_2dof()
        k1, k2 = s.stiffnesses
        expected = np.array([[k1 + k2, -k2], [-k2, k2]])
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1.0
            np.testing.assert_allclose(stiffness_matrix(s) @ e, expected[:, i])

    def test_7dof_stiffness_matrix_verbatim(self):
        s = build_dvp_7dof(stiffnesses=(2100, 2200, 1300, 1400, 1500, 1600, 700))
        k1, k2, k3, k4, k5, k6, k7 = s.stiffnesses
        expected = np.array([
            [k1 + k2, -k2, 0, 0, 0, 0, 0],
            [-k2, k2 + k3, -k3, 0, 0, 0, 0],
            [0, -k3, k3 - k4, k4, 0, 0, 0],
            [0, 0, k4, -k4 + k5, -k5, 0, 0],
            [0, 0, 0, -k5, k5 + k6, -k6, 0],
            [0, 0, 0, 0, -k6, k6 + k7, -k7],
            [0, 0, 0, 0, 0, -k7, k7],
        ])
        for i in range(7):
            e = np.zeros(7)
            e[i] = 1.0
            np.testing.assert_allclose(stiffness_matrix(s) @ e, expected[:, i])

    def test_7dof_symmetric_consistent_variant(self):
        s = build_dvp_7dof(symmetric_consistent=True)
        kmat = stiffness_matrix(s)
        np.testing.assert_allclose(kmat, kmat.T)
        assert kmat[2, 2] == s.stiffnesses[2] + s.stiffnesses[3]
        assert kmat[2, 3] == -s.stiffnesses[3]

    def test_2dof_matrices_symmetric(self):
        s = build_duffing_2dof()
        np.testing.assert_allclose(stiffness_matrix(s), stiffness_matrix(s).T)
        np.testing.assert_allclose(damping_matrix(s), damping_matrix(s).T)

    def test_mass_and_noise_diagonal(self):
        s = build_dvp_7dof()
        np.testing.assert_allclose(mass_matrix(s), np.diag(s.masses))
        model = to_state_space(s)
        b = model.dispersion(np.ones(model.dim_state))  # the DOF-4 scale at 1
        vel = [model.labels.index(f"v{i + 1}") for i in range(s.n_dof)]
        np.testing.assert_allclose(b[vel], np.diag(s.noise_sigmas / s.masses))


# ---------------------------------------------------------------------------
# State-space form
# ---------------------------------------------------------------------------


class TestStateSpace:
    def test_dimensions(self):
        s2 = build_duffing_2dof()
        assert to_state_space(s2).dim_state == 4
        assert to_state_space(s2, (1, 2)).dim_state == 6
        s7 = build_dvp_7dof()
        assert to_state_space(s7).dim_state == 14
        assert to_state_space(s7, range(1, 8)).dim_state == 21

    def test_equilibrium(self):
        s = build_duffing_2dof()
        m = to_state_space(s)
        np.testing.assert_array_equal(
            m.drift(np.zeros(4), np.zeros(2)), np.zeros(4))

    def test_2dof_drift_matches_literal_rows(self):
        s = build_duffing_2dof()
        m = to_state_space(s)
        rng = np.random.default_rng(7)
        for _ in range(50):
            y = random_state(rng, s)
            f = rng.normal(0.0, 10.0, 2)
            np.testing.assert_allclose(
                m.drift(y, f), literal_drift_2dof(y, f, s.stiffnesses, s),
                rtol=1e-12, atol=1e-12)

    def test_7dof_drift_matches_literal_rows(self):
        s = build_dvp_7dof()
        m = to_state_space(s)
        rng = np.random.default_rng(11)
        for _ in range(50):
            y = random_state(rng, s)
            f = rng.normal(0.0, 10.0, 7)
            np.testing.assert_allclose(
                m.drift(y, f), literal_drift_7dof(y, f, s.stiffnesses, s),
                rtol=1e-12, atol=1e-12)

    @ORACLE_BUILDS
    def test_drift_equals_matrix_form(self, build):
        # velocity pass-through composed with -M^-1(G+Kx+Cv) + M^-1 F
        s = build()
        m = to_state_space(s)
        rng = np.random.default_rng(3)
        disp, vel = split_state(s, np.arange(2 * s.n_dof, dtype=float))
        for _ in range(100):
            y = random_state(rng, s)
            f = rng.normal(0.0, 10.0, s.n_dof)
            x, v = split_state(s, y)
            expected = np.zeros(2 * s.n_dof)
            expected[disp.astype(int)] = v
            expected[vel.astype(int)] = (
                matrix_form_acceleration(s, x, v) + f / s.masses)
            got = m.drift(y, f)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    @ORACLE_BUILDS
    def test_batched_augmented_drift_equals_matrix_form(self, build):
        # sigma-point arrays carry a different stiffness in every row
        s = build()
        n = s.n_dof
        m = to_state_space(s, range(1, n + 1))
        rng = np.random.default_rng(4)
        disp, vel = split_state(s, np.arange(2 * n))
        for _ in range(5):
            points = sigma_point_batch(rng, s)
            f = rng.normal(0.0, 10.0, n)
            got = m.drift(points, f)
            assert got.shape == points.shape
            for y, row in zip(points, got):
                x, v = split_state(s, y)
                expected = np.zeros(3 * n)
                expected[disp] = v
                expected[vel] = (matrix_form_acceleration(s, x, v, y[2 * n:])
                                 + f / s.masses)
                np.testing.assert_allclose(row, expected, rtol=1e-12, atol=1e-12)

    def test_augmented_drift_and_dispersion_param_rows_zero(self):
        s2 = build_duffing_2dof()
        m = to_state_space(s2, (1, 2))
        rng = np.random.default_rng(5)
        y = random_state(rng, s2, augmented=True)
        f = rng.normal(size=2)
        a = m.drift(y, f)
        np.testing.assert_array_equal(a[4:], [0.0, 0.0])
        b = m.dispersion(y)
        np.testing.assert_array_equal(b[4:], np.zeros((2, 2)))

    def test_augmented_drift_uses_state_stiffness(self):
        s = build_duffing_2dof()
        m = to_state_space(s, (1, 2))
        rng = np.random.default_rng(9)
        y = random_state(rng, s, augmented=True)
        f = rng.normal(size=2)
        k_aug = y[4:]
        expected = literal_drift_2dof(y[:4], f, k_aug, s)
        np.testing.assert_allclose(m.drift(y, f)[:4], expected, rtol=1e-12)

    def test_partial_augmentation(self):
        s = build_duffing_2dof()
        m = to_state_space(s, (2,))
        assert m.dim_state == 5
        assert m.labels[-1] == "k2"
        y = np.array([0.3, -0.2, 1.0, 0.5, 400.0])
        f = np.zeros(2)
        expected = literal_drift_2dof(y[:4], f, (s.stiffnesses[0], 400.0), s)
        np.testing.assert_allclose(m.drift(y, f)[:4], expected, rtol=1e-12)

    def test_7dof_dispersion_multiplicative_channel(self):
        s = build_dvp_7dof()
        m = to_state_space(s, range(1, 8))
        y = np.zeros(21)
        y[6] = 2.5  # y7 = x4
        b = m.dispersion(y)
        assert b[7, 3] == pytest.approx(0.1 / 10.0 * 2.5)
        # every other nonzero entry is sigma_i / m_i at the velocity row
        np.testing.assert_allclose(b[1, 0], 0.1 / 20.0)
        np.testing.assert_allclose(b[13, 6], 0.1 / 5.0)
        np.testing.assert_array_equal(b[14:], np.zeros((7, 7)))

    def test_batched_evaluation_matches_loop(self):
        s = build_dvp_7dof()
        m = to_state_space(s, range(1, 8))
        rng = np.random.default_rng(13)
        batch = np.stack([random_state(rng, s, augmented=True) for _ in range(9)])
        f = rng.normal(size=7)
        vec = m.drift(batch, f)
        for i in range(9):
            np.testing.assert_allclose(vec[i], m.drift(batch[i], f))
        bvec = m.dispersion(batch)
        for i in range(9):
            np.testing.assert_allclose(bvec[i], m.dispersion(batch[i]))

    def test_augment_validation(self):
        s = build_duffing_2dof()
        with pytest.raises(InvalidParameterError):
            to_state_space(s, (0,))
        with pytest.raises(InvalidParameterError):
            to_state_space(s, (3,))
        with pytest.raises(InvalidParameterError):
            to_state_space(s, (1, 1))


class TestAnalyticDerivatives:
    @pytest.mark.parametrize("build,augment", [
        (build_duffing_2dof, ()),
        (build_duffing_2dof, (1, 2)),
        (build_dvp_7dof, ()),
        (build_dvp_7dof, tuple(range(1, 8))),
    ])
    def test_jacobian_matches_finite_differences(self, build, augment):
        # the directional derivative along every basis direction at once
        # (one batch of directions) is the full Jacobian, column by column
        s = build()
        m = to_state_space(s, augment)
        rng = np.random.default_rng(21)
        for _ in range(5):
            y = random_state(rng, s, augmented=bool(augment))
            if augment and len(augment) != s.n_dof:
                y = y[:m.dim_state]
            f = rng.normal(0.0, 10.0, s.n_dof)
            columns = m.drift_jacobian(y, f, np.eye(m.dim_state))
            np.testing.assert_allclose(
                columns.T, fd_drift_jacobian(m, y, f), rtol=1e-5, atol=1e-4)

    @pytest.mark.parametrize("build,augment", [
        (build_duffing_2dof, (1, 2)),
        (build_dvp_7dof, tuple(range(1, 8))),
    ])
    def test_hessian_quad_matches_finite_differences(self, build, augment):
        # the chain declares the Taylor-1.5 Hessian term identically zero:
        # the drift is affine along every row the noise enters, so any
        # weight supported there has zero second differences, while the
        # same oracle does see the cubic's curvature on the displacements
        s = build()
        m = to_state_space(s, augment)
        assert m.drift_hessian_quad is None
        rng = np.random.default_rng(23)
        y = random_state(rng, s, augmented=True)
        f = rng.normal(0.0, 10.0, s.n_dof)
        noisy = np.any(m.dispersion(y) != 0.0, axis=1)
        w = rng.normal(size=(m.dim_state, m.dim_state))
        w = w + w.T
        np.testing.assert_allclose(
            fd_drift_hessian_quad(m, y, f, w * np.outer(noisy, noisy)),
            np.zeros(m.dim_state), rtol=1e-3, atol=1e-3)
        assert np.max(np.abs(fd_drift_hessian_quad(m, y, f, w))) > 1.0

    def test_dispersion_jacobian_matches_finite_differences(self):
        # one direction per channel; the batch of all unit (channel, state)
        # directions recovers the full derivative tensor of the dispersion,
        # whose state-scaled entries the model declares in scaled_noise
        s = build_dvp_7dof()
        m = with_dispersion_jacobian(to_state_space(s, range(1, 8)))
        rng = np.random.default_rng(29)
        y = random_state(rng, s, augmented=True)
        units = np.eye(m.n_channels * m.dim_state).reshape(
            -1, m.n_channels, m.dim_state)
        db = m.dispersion_jacobian(y, units)  # (n_channels * dim, dim)
        np.testing.assert_allclose(
            db.T.reshape(m.dim_state, m.n_channels, m.dim_state),
            fd_dispersion_jacobian(m, y), rtol=1e-6, atol=1e-9)

    def test_additive_system_has_no_dispersion_jacobian(self):
        s = build_duffing_2dof()
        assert to_state_space(s, (1, 2)).dispersion_jacobian is None


# ---------------------------------------------------------------------------
# Measurement model
# ---------------------------------------------------------------------------


class TestAccelerationModel:
    def test_zero_state(self):
        s = build_duffing_2dof()
        h = acceleration_model(s, (1, 2))
        np.testing.assert_array_equal(h(np.zeros(4)), [0.0, 0.0])

    def test_hand_evaluated_point(self):
        s = build_duffing_2dof()
        h = acceleration_model(s, (1, 2))
        np.testing.assert_allclose(
            h(np.array([1.0, 0.0, 0.0, 0.0])), [-80.0, 50.0])

    def test_partial_measurement_scalar_row(self):
        s = build_duffing_2dof()
        h1 = acceleration_model(s, (1,))
        h_full = acceleration_model(s, (1, 2))
        rng = np.random.default_rng(31)
        y = random_state(rng, s)
        np.testing.assert_allclose(h1(y), h_full(y)[:1])

    @ORACLE_BUILDS
    def test_full_stack_equals_matrix_form_oracle(self, build):
        s = build()
        h = acceleration_model(s, range(1, s.n_dof + 1))
        rng = np.random.default_rng(37)
        for _ in range(50):
            y = random_state(rng, s)
            x, v = split_state(s, y)
            np.testing.assert_allclose(
                h(y), matrix_form_acceleration(s, x, v), rtol=1e-12, atol=1e-12)

    @ORACLE_BUILDS
    def test_batched_augmented_measurement_equals_matrix_form(self, build):
        s = build()
        n = s.n_dof
        h = acceleration_model(s, range(1, n + 1), augment_params=range(1, n + 1))
        rng = np.random.default_rng(38)
        for _ in range(5):
            points = sigma_point_batch(rng, s)
            got = h(points)
            assert got.shape == (points.shape[0], n)
            for y, row in zip(points, got):
                x, v = split_state(s, y)
                np.testing.assert_allclose(
                    row, matrix_form_acceleration(s, x, v, y[2 * n:]),
                    rtol=1e-12, atol=1e-12)

    def test_7dof_measurement_matches_literal_rows(self):
        # acceleration rows of the printed drift, force removed
        s = build_dvp_7dof()
        h = acceleration_model(s, range(1, 8))
        rng = np.random.default_rng(41)
        y = random_state(rng, s)
        drift_rows = literal_drift_7dof(y, np.zeros(7), s.stiffnesses, s)
        np.testing.assert_allclose(h(y), drift_rows[1::2], rtol=1e-12)

    def test_augmented_measurement_reads_state_stiffness(self):
        s = build_duffing_2dof()
        h = acceleration_model(s, (1, 2), augment_params=(1, 2))
        y = np.array([1.0, 0.0, 0.0, 0.0, 800.0, 400.0])
        expected = -(800.0 + 400.0 + 100.0) / 20.0
        np.testing.assert_allclose(h(y)[0], expected)

    def test_validation(self):
        s = build_duffing_2dof()
        with pytest.raises(InvalidParameterError):
            acceleration_model(s, ())
        with pytest.raises(InvalidParameterError):
            acceleration_model(s, (3,))
        with pytest.raises(InvalidParameterError):
            acceleration_model(s, (1, 1))

    def test_fractional_dof_rejected(self):
        # int(1.5) used to turn the DOF number into 1
        with pytest.raises(InvalidParameterError,
                           match=r"^observed_dofs\[0\] must be of type int, got 1.5$"):
            models.check_observed_dofs([1.5], 2)
        assert models.check_observed_dofs(np.array([2, 1]), 2) == (2, 1)
        assert models.check_observed_dofs(range(1, 3), 2) == (1, 2)


# ---------------------------------------------------------------------------
# The filter's compiled transition and its measurement
# ---------------------------------------------------------------------------


def random_points(rng, system, augment_params, count):
    """``count`` states with the stiffness tail of ``augment_params``."""
    tail = np.array(sorted(augment_params), dtype=int) - 1
    return np.stack([
        np.concatenate([random_state(rng, system),
                        system.stiffnesses[tail] * rng.uniform(0.8, 1.2, tail.shape[0])])
        for _ in range(count)])


# blocked and interleaved layouts, both augment orders, partly and not augmented
LAYOUTS = pytest.mark.parametrize("build, augment", [
    (build_duffing_2dof, (1, 2)),
    (build_duffing_2dof, (2, 1)),
    (build_duffing_2dof, (2,)),
    (build_duffing_2dof, ()),
    (build_dvp_7dof, range(1, 8)),
    (build_dvp_7dof, (1, 3, 5)),
    (build_dvp_7dof_symmetric, range(1, 8)),
])


class TestEulerTransition:
    @LAYOUTS
    def test_equals_euler_step_of_the_drift(self, build, augment):
        # the transition rounds x + v dt and the force term differently, so
        # it agrees with the drift's Euler step to rounding of each row's
        # kinematic scale, and carries the stiffness tail through exactly
        s = build()
        model = to_state_space(s, augment)
        dt = 1e-3
        rng = np.random.default_rng(17)
        forces = rng.normal(0.0, 10.0, (6, s.n_dof))
        transition = euler_transition(s, augment, dt, forces)
        m = 2 * s.n_dof
        for k in range(forces.shape[0]):
            points = random_points(rng, s, augment, 2 * model.dim_state + 1)
            step = model.drift(points, forces[k]) * dt
            expected = points + step
            got = transition(points, k)
            assert got.shape == points.shape
            scale = (np.max(np.abs(points[:, :m]), axis=1)
                     + np.max(np.abs(step), axis=1))[:, None]
            assert np.all(np.abs(got[:, :m] - expected[:, :m]) <= 1e-13 * scale)
            np.testing.assert_array_equal(got[:, m:], points[:, m:])

    @LAYOUTS
    def test_measurement_equals_the_reference_kernel_bit_for_bit(self, build, augment):
        s = build()
        rows = np.arange(s.n_dof)
        h = acceleration_model(s, rows + 1, augment_params=augment)
        reference = reference_restoring(s, augment, rows)
        rng = np.random.default_rng(19)
        points, other = (random_points(rng, s, augment, 43) for _ in range(2))
        first = h(points)
        kept = first.copy()
        # the state count alternates 43 -> 3 -> 43 over the kept buffers, and
        # each call returns a fresh array, which a later call leaves alone
        for y in (points, points[:3], other):
            np.testing.assert_array_equal(h(y), reference(y))
        np.testing.assert_array_equal(first, kept)

    def test_validation(self):
        s = build_duffing_2dof()
        with pytest.raises(InvalidParameterError):
            euler_transition(s, (3,), 1e-3, np.zeros((2, 2)))


class TestElementKernelShapes:
    """The element-major kernel equals the row-wise one bit for bit on every
    shape the library hands it. numpy dispatches a product by shape (one
    vector product per state of a ``(..., 1, dim)`` block, a matrix product
    otherwise), so each shape is checked, not assumed."""

    @LAYOUTS
    def test_sigma_points(self, build, augment):
        # (2L + 1, dim), as the predict half-step passes them (the
        # measurement is held to the reference above)
        s = build()
        rng = np.random.default_rng(23)
        forces = rng.normal(0.0, 10.0, (3, s.n_dof))
        count = 2 * (2 * s.n_dof + len(augment)) + 1
        points, other = (random_points(rng, s, augment, count) for _ in range(2))
        transition = euler_transition(s, augment, 1e-3, forces)
        reference = reference_transition(s, augment, 1e-3, forces)
        first = transition(points, 2)
        kept = first.copy()
        # the sigma count alternates 2L + 1 -> 3 -> 2L + 1 over the kept
        # buffers, and each image is a fresh array, which a later call
        # leaves alone
        for y, k in ((points, 2), (points[:3], 0), (other, 1)):
            np.testing.assert_array_equal(transition(y, k), reference(y, k))
        np.testing.assert_array_equal(first, kept)
        np.testing.assert_array_equal(to_state_space(s, augment).drift(points, forces[1]),
                                      reference_drift(s, augment)(points, forces[1]))

    @pytest.mark.parametrize("paths", [1, 41])
    @pytest.mark.parametrize("build, augment", [
        (build_duffing_2dof, (1, 2)), (build_dvp_7dof, range(1, 8)),
        (build_duffing_2dof, ()), (build_dvp_7dof, ())])
    def test_measurement_blocks(self, build, augment, paths):
        # a Trajectory's accelerations are measured in (256, P, dim)
        # blocks and a shorter last one; a model whose kernel rows
        # outnumber its parameters leaves them as views of a wider array
        s = build()
        rows = np.arange(s.n_dof)
        h = acceleration_model(s, rows + 1, augment_params=augment)
        reference = reference_restoring(s, augment, rows)
        rng = np.random.default_rng(29)
        dim = 2 * s.n_dof + len(augment)
        states = random_points(rng, s, augment, 393 * paths).reshape(393, paths, dim)
        wide = np.zeros((393, paths, dim + 4))
        wide[..., :dim] = states
        for block in (states[:256], states[256:], wide[:256, :, :dim]):
            assert block.shape[1:] == (paths, dim)
            np.testing.assert_array_equal(h(block), reference(block))

    @pytest.mark.parametrize("build, augment", [
        (build_duffing_2dof, (1, 2)), (build_dvp_7dof, range(1, 8)),
        (build_dvp_7dof, ())])
    def test_drift_inputs(self, build, augment):
        # (n_steps, dim) rows; simulate_window passes one rest state per
        # path against its (n_steps, n_dof) forces, broadcast rather than
        # copied, where every element force is zero, so that it keeps the
        # bits of the copies; the steppers pass one state or one per path
        s = build()
        rng = np.random.default_rng(31)
        states = random_points(rng, s, augment, 5000)
        forces = rng.normal(0.0, 10.0, (5000, s.n_dof))
        drift, reference = to_state_space(s, augment).drift, reference_drift(s, augment)
        np.testing.assert_array_equal(drift(states, forces), reference(states, forces))
        for y in (states[0], states[:1], states[:3].reshape(3, 1, -1)):
            np.testing.assert_array_equal(drift(y, forces[0]), reference(y, forces[0]))
        rest = states[:3].copy()
        rest[:, :2 * s.n_dof] = 0.0
        per_path = forces.reshape(1000, 5, s.n_dof)[:, :3]
        for y, f in ((rest[0], forces), (rest, per_path)):
            copies = np.broadcast_to(y, f.shape[:-1] + y.shape[-1:]).copy()
            np.testing.assert_array_equal(drift(y, f), reference(copies, f))
        # away from rest a broadcast state keeps the bits of the one state
        np.testing.assert_array_equal(drift(states[0], forces[:50]),
                                      [drift(states[0], f) for f in forces[:50]])

    @pytest.mark.parametrize("build", [build_duffing_2dof, build_dvp_7dof])
    def test_single_states(self, build):
        s = build()
        rows = np.arange(s.n_dof)
        h = acceleration_model(s, rows + 1, augment_params=rows + 1)
        reference = reference_restoring(s, rows + 1, rows)
        points = random_points(np.random.default_rng(37), s, rows + 1, 3)
        for y in (points[0], points[:1], points[:2]):
            assert h(y).shape == y.shape[:-1] + (s.n_dof,)
            np.testing.assert_array_equal(h(y), reference(y))

    @pytest.mark.parametrize("build", [build_duffing_2dof, build_dvp_7dof])
    def test_generated_window_keeps_the_row_wise_accelerations(self, build, monkeypatch):
        # one visit is one path: the window is measured in (256, 1, dim) blocks
        system = build()
        cfg = twin.CampaignConfig(master_seed=1, window_duration_s=0.6)
        schedule = DegradationSchedule.for_system(system)
        window = twin.generate_window(system, schedule, cfg, 50.0, 2, 1)
        monkeypatch.setattr(twin, "acceleration_model", lambda s, dofs, augment_params:
                            reference_restoring(s, augment_params, [d - 1 for d in dofs]))
        again = twin.generate_window(system, schedule, cfg, 50.0, 2, 1)
        assert window.accel.tobytes() == again.accel.tobytes()


class TestCubicTangentForm:
    """The kernel takes the cubic element's force in tangent form,
    (k + coeff e^2) e + d, so it is not bitwise the physical formula
    k e + d + coeff e^3 with libm's ``pow``. Each form is within 2.5 eps of
    the exact force, relative to the sum T = |k e| + |d| + |coeff e^3| of
    its terms (five roundings at most, ``pow`` within one), so the two must
    agree within 6 eps T: a few ulp of the force where its terms do not
    cancel. Every state layout, stiffness source and both systems."""

    # the cubic element's stiffness fixed, in the tail, or alone in either
    AUGMENTS = pytest.mark.parametrize("build, augment", [
        (build_duffing_2dof, ()), (build_duffing_2dof, (1, 2)),
        (build_duffing_2dof, (2,)), (build_duffing_2dof, (1,)),
        (build_dvp_7dof, ()), (build_dvp_7dof, range(1, 8)),
        (build_dvp_7dof, (1, 2, 3, 5, 6, 7)), (build_dvp_7dof, (4,))])

    @staticmethod
    def points(system, augment, shape, scale):
        # sigma-point-like states, with displacements scaled so that the
        # cubic term ranges from a correction to the larger term
        rng = np.random.default_rng(41)
        y = random_points(rng, system, augment, math.prod(shape))
        y[:, :2 * system.n_dof] *= scale
        return y.reshape(shape + (y.shape[-1],))

    @staticmethod
    def term_scale(system, augment, y):
        to_elements, _, _, signed_k = models._element_forces(
            system, np.array(sorted(augment), dtype=int) - 1)
        n = system.n_dof
        ev = y @ to_elements
        e, d, k = ev[..., :n], ev[..., n:2 * n], signed_k + ev[..., 2 * n:]
        scale = np.abs(k * e) + np.abs(d)
        cubic = system.cubic_element
        scale[..., cubic] += system.nonlinear_coeff * np.abs(e[..., cubic]) ** 3
        return scale

    @AUGMENTS
    @pytest.mark.parametrize("shape", [(43,), (4, 3), ()])
    @pytest.mark.parametrize("scale", [1.0, 5.0])
    def test_restoring_forces(self, build, augment, shape, scale):
        # (S, dim) takes the transposed product, (..., dim) numpy's own;
        # an identity output leaves the element forces as they are
        s = build()
        n = s.n_dof
        y = self.points(s, augment, shape, scale)
        restoring = models._element_forces(s, np.array(sorted(augment), dtype=int) - 1)[2]
        to_elements, physical = rowwise_elements(s, augment, physical=True)
        got = restoring(y, np.eye(n))
        expected = physical(y @ to_elements)
        assert got.shape == expected.shape == y.shape[:-1] + (n,)
        bound = 6.0 * np.finfo(float).eps * self.term_scale(s, augment, y)
        assert np.all(np.abs(got - expected) <= bound)

    @AUGMENTS
    @pytest.mark.parametrize("scale", [1.0, 5.0])
    def test_transition(self, build, augment, scale):
        # only the velocity rows take element forces, through dt M^-1 B^T
        # (two terms per row, the product's rounding within eps of them on
        # each side); each image then adds the velocity and the force
        # term, within eps of the three on each side
        s = build()
        n, dt = s.n_dof, 1e-3
        dim = 2 * n + len(augment)
        vel = state_positions(s)[1]
        others = np.setdiff1d(np.arange(dim), vel)
        rng = np.random.default_rng(43)
        forces = rng.normal(0.0, 10.0, (3, n))
        y = self.points(s, augment, (2 * dim + 1,), scale)
        transition = euler_transition(s, augment, dt, forces)
        reference = reference_transition(s, augment, dt, forces, physical=True)
        eps = np.finfo(float).eps
        pushed = self.term_scale(s, augment, y).dot(np.abs(dt * s.elongation_operator / s.masses))
        for k in range(forces.shape[0]):
            got, expected = transition(y, k), reference(y, k)
            np.testing.assert_array_equal(got[:, others], expected[:, others])
            bound = 8.0 * eps * pushed + 2.0 * eps * (
                np.abs(y[:, vel]) + pushed + dt * np.abs(forces[k]) / s.masses)
            assert np.all(np.abs(got[:, vel] - expected[:, vel]) <= bound)


# ---------------------------------------------------------------------------
# Degradation law
# ---------------------------------------------------------------------------


class TestDegradation:
    def test_identity_at_zero(self):
        sched = DegradationSchedule(k0=np.array([1000.0, 500.0]))
        np.testing.assert_array_equal(
            degraded_stiffness(sched, 0.0), [1000.0, 500.0])

    def test_fifty_days(self):
        sched = DegradationSchedule(k0=np.array([1000.0]))
        np.testing.assert_allclose(
            degraded_stiffness(sched, 50.0)[0],
            1000.0 * math.exp(-0.0025), rtol=1e-12)
        assert degraded_stiffness(sched, 50.0)[0] == pytest.approx(997.503, abs=5e-4)

    def test_frozen_index(self):
        s = build_dvp_7dof()
        sched = DegradationSchedule.for_system(s)
        k = degraded_stiffness(sched, 12345.0)
        assert k[3] == 1000.0
        assert np.all(k[[0, 1, 2, 4, 5, 6]] < s.stiffnesses[[0, 1, 2, 4, 5, 6]])

    def test_monotone_non_increasing(self):
        sched = DegradationSchedule(k0=np.array([1000.0, 500.0]),
                                    frozen_indices=(2,))
        ts = np.linspace(0.0, 5000.0, 40)
        values = np.array([degraded_stiffness(sched, t) for t in ts])
        assert np.all(np.diff(values[:, 0]) < 0.0)
        assert np.all(values[:, 1] == 500.0)
        assert np.all(values > 0.0)

    def test_negative_time_rejected(self):
        sched = DegradationSchedule(k0=np.array([1.0]))
        with pytest.raises(InvalidParameterError):
            degraded_stiffness(sched, -1.0)

    @pytest.mark.parametrize("t_s", [math.nan, math.inf, -math.inf, "50", True])
    def test_bad_time_rejected(self, t_s):
        # NaN gave NaN stiffnesses and inf zeros; a window generated at a
        # NaN t_s failed later on a non-finite input state
        system = build_duffing_2dof()
        sched = DegradationSchedule.for_system(system)
        with pytest.raises(InvalidParameterError, match="^t_s must be"):
            degraded_stiffness(sched, t_s)
        cfg = twin.CampaignConfig(window_duration_s=0.2)
        with pytest.raises(InvalidParameterError, match="^t_s must be"):
            twin.generate_window(system, sched, cfg, t_s, 2, 1)

    @pytest.mark.parametrize("k0", [
        [math.nan, 500.0], [1000.0, math.inf], [-math.inf, 500.0], [1000.0, 0.0],
        [[1000.0, 500.0]], ["1000", "500"]])
    def test_bad_k0_rejected(self, k0):
        # the constructor took a NaN or infinite k0, which from_dict refuses
        with pytest.raises(InvalidParameterError, match="k0 (must|is not finite at sample)"):
            DegradationSchedule(k0=k0)


class TestSerialization:
    @pytest.mark.parametrize("build", [build_duffing_2dof, build_dvp_7dof])
    def test_round_trip(self, build):
        s = build()
        doc = s.to_dict()
        s2 = MdofSystem.from_dict(doc)
        assert s2.to_dict() == doc
        np.testing.assert_array_equal(s2.stiffnesses, s.stiffnesses)
        assert s2.frozen_indices == s.frozen_indices

    def test_missing_key_raises(self):
        with pytest.raises(InvalidParameterError):
            MdofSystem.from_dict({"kind": "duffing_2dof"})
