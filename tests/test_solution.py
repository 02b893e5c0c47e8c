"""Unit tests for the field evaluators."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetawave.curve import build_solution_params, period_lattice
from thetawave.elliptic import CurveParams
from thetawave.solution import (
    GridSpec,
    SampledField,
    eval_amp2,
    eval_p,
    eval_p_general,
    general_theta_data,
    sample_grid,
)
from thetawave.theta import theta_H

P689 = CurveParams(0.0, 6.0, 8.0, 9.0)


@pytest.fixture(scope="module")
def sp():
    return build_solution_params(P689)


class TestEvalP:
    def test_regression_origin(self, sp):
        # frozen from an independent high-precision evaluation
        assert eval_p(0.0, 0.0, sp) == pytest.approx(7.0 + 0.0j, abs=1e-12)

    def test_regression_generic_point(self, sp):
        amp2 = eval_amp2(0.1, 0.003, sp)
        assert amp2 == pytest.approx(55.91552581393856, rel=1e-12)

    def test_scalar_and_array_agree(self, sp):
        xs = np.array([0.0, 0.1, -0.2])
        vals = eval_p(xs, 0.01, sp)
        assert vals.shape == (3,)
        assert vals[1] == pytest.approx(eval_p(0.1, 0.01, sp), rel=1e-14)

    def test_amplitude_bounds(self, sp):
        # max |p| = a + b + c on the period cell, min > 0 (no vanishing)
        lat = period_lattice(P689, sp.ell)
        xs = np.linspace(0.0, 2 * lat.X, 301)[:, None]
        ts = np.linspace(0.0, 2 * lat.T, 151)[None, :]
        mag = np.abs(eval_p(xs, ts, sp))
        assert float(np.max(mag)) == pytest.approx(23.0, abs=1e-3)
        assert float(np.min(mag)) > 0.0

    def test_amp2_matches_modulus_squared(self, sp):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-0.5, 0.5, 25)
        ts = rng.uniform(-0.05, 0.05, 25)
        amp = eval_amp2(xs, ts, sp)
        assert np.max(np.abs(amp - np.abs(eval_p(xs, ts, sp)) ** 2)
                      / np.abs(amp)) < 1e-12

    def test_Z_translation(self, sp):
        # shifting Z translates the field in (x, t) through the phases
        z = np.array([0.1, 0.2])
        sp_z = dataclasses.replace(sp, Z=z)
        dx = 2.0 * z[1] / sp.k
        dt = 2.0 * z[0] / sp.kappa1
        dx_from_t = -sp.kappa2 * dt / sp.k  # zero here (lambda0 = 0)
        xs = np.linspace(-0.2, 0.2, 7)
        shifted = eval_p(xs + dx + dx_from_t, 0.01 + dt, sp)
        direct = eval_p(xs, 0.01, sp_z)
        assert np.max(np.abs(np.abs(shifted) - np.abs(direct))) < 1e-10


class TestComplexPhase:
    def test_half_b_period_amp2_real(self, sp):
        z = np.array([0.0, 0.5j * sp.frb_plus])
        sp_c = dataclasses.replace(sp, Z=z)
        val = eval_amp2(0.07, 0.002, sp_c)
        assert val >= 0.0

    def test_cross_phase_equivalence_second_slot(self, sp):
        # Z = (0, i*frb_plus/2) matches the real shift Z = (1/2, 0)
        sp_c = dataclasses.replace(sp, Z=np.array([0.0, 0.5j * sp.frb_plus]))
        sp_r = dataclasses.replace(sp, Z=np.array([0.5, 0.0]))
        xs = np.linspace(-0.3, 0.3, 11)
        a = eval_amp2(xs, 0.004, sp_c)
        b = eval_amp2(xs, 0.004, sp_r)
        assert np.max(np.abs(a - b)) < 1e-9 * np.max(np.abs(a))

    def test_cross_phase_equivalence_first_slot(self, sp):
        # Z = (i*frb_minus/2, 0) matches the real shift Z = (0, 1/2)
        sp_c = dataclasses.replace(sp, Z=np.array([0.5j * sp.frb_minus, 0.0]))
        sp_r = dataclasses.replace(sp, Z=np.array([0.0, 0.5]))
        xs = np.linspace(-0.3, 0.3, 11)
        a = eval_amp2(xs, 0.004, sp_c)
        b = eval_amp2(xs, 0.004, sp_r)
        assert np.max(np.abs(a - b)) < 1e-9 * np.max(np.abs(a))

    def test_amp2_at_witness_beyond_eight(self, sp):
        # Im Z2 = 5 frb_plus/2 has the reality witness N = (0, 10)
        sp_c = dataclasses.replace(
            sp, Z=np.array([0.0, 2.5j * sp.frb_plus]))
        xs = np.linspace(-0.3, 0.3, 11)
        amp = eval_amp2(xs, 0.004, sp_c)
        p = eval_p(xs, 0.004, sp_c)
        assert np.max(np.abs(amp - np.abs(p) ** 2) / amp) <= 1e-10

    def test_generic_complex_Z_rejected(self, sp):
        sp_bad = dataclasses.replace(sp, Z=np.array([0.0, 0.3j]))
        with pytest.raises(ValueError):
            eval_amp2(0.0, 0.0, sp_bad)

    @pytest.mark.parametrize("curve", [P689, CurveParams(0.7, 1.0, 2.0, 3.0)])
    @pytest.mark.parametrize("m", [1, 2])
    def test_first_slot_imaginary_shift_keeps_modulus(self, curve, m):
        # Z = (i*m*frb_minus/2, 0) has the modulus of the real shift
        # Z = (0, m/2) on both p routes, and |p|^2 = eval_amp2
        z_c = np.array([0.5j * m * build_solution_params(curve).frb_minus,
                        0.0])
        sp_c = build_solution_params(curve, z_c)
        sp_r = build_solution_params(curve, np.array([0.0, 0.5 * m]))
        rng = np.random.default_rng(m)
        xs = rng.uniform(-0.4, 0.4, 12)
        ts = rng.uniform(-0.03, 0.03, 12)
        ref = np.abs(eval_p(xs, ts, sp_r))
        p = eval_p(xs, ts, sp_c)
        for route in (p, eval_p_general(xs, ts, curve, z_c)):
            assert np.max(np.abs(np.abs(route) - ref) / ref) <= 1e-12
        amp = eval_amp2(xs, ts, sp_c)
        assert np.max(np.abs(amp - np.abs(p) ** 2) / amp) <= 1e-10


class TestGrid:
    def test_sample_grid_shape(self, sp):
        spec = GridSpec(0.0, 0.3, 0.0, 0.01, 5, 4)
        field = sample_grid(spec, sp)
        assert field.values.shape == (5, 4)
        assert field.values[2, 1] == pytest.approx(
            eval_p(spec.axes()[0][2], spec.axes()[1][1], sp), rel=1e-14)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, -1.0, 0.0, 1.0, 4, 4)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 0.0, 1.0, 1, 4)

    def test_sampled_field_validation(self, sp):
        spec = GridSpec(0.0, 0.3, 0.0, 0.01, 5, 4)
        with pytest.raises(ValueError):
            SampledField(grid=spec, values=np.zeros((4, 5)), params=sp)


class TestGeneralRoute:
    def test_matches_jacobi_route(self, sp):
        data = general_theta_data(P689)
        xs = np.linspace(-0.2, 0.2, 5)
        ts = np.full(5, 0.006)
        g = eval_p_general(xs, ts, P689, data=data)
        j = eval_p(xs, ts, sp)
        # equal modulus, constant phase offset
        assert np.max(np.abs(np.abs(g) - np.abs(j))) < 1e-10 * np.max(np.abs(j))
        ratio = g / j
        assert np.max(np.abs(ratio - ratio[0])) < 1e-10

    @pytest.mark.parametrize("curve", [P689, CurveParams(0.7, 1.0, 2.0, 3.0)])
    @pytest.mark.parametrize("z", [(0.0, 0.1), (0.3, -0.25), (0.0, 0.5),
                                   (0.2, -0.3 + 0.5j), (0.4, 2.5j)])
    def test_reads_z_as_jacobi_route(self, curve, z):
        # both routes read Z2 with one sign; the imaginary parts are in
        # units of (frb-, frb+), half-integers so that Z has a witness
        sp_c = build_solution_params(curve)
        Z = np.array([z[0].real + 1j * z[0].imag * sp_c.frb_minus,
                      z[1].real + 1j * z[1].imag * sp_c.frb_plus])
        sp_z = dataclasses.replace(sp_c, Z=Z)
        rng = np.random.default_rng(1)
        xs = rng.uniform(-1.0, 1.0, 9)
        ts = rng.uniform(-0.1, 0.1, 9)
        g = eval_p_general(xs, ts, curve, Z)
        j = eval_p(xs, ts, sp_z)
        assert np.max(np.abs(np.abs(g) - np.abs(j))) \
            <= 1e-13 * np.max(np.abs(j))
        ratio = g / j
        assert np.max(np.abs(ratio - ratio[0])) <= 1e-12

    @pytest.mark.parametrize("curve", [P689, CurveParams(0.7, 1.0, 2.0, 3.0)])
    @pytest.mark.parametrize("complex_z", [False, True])
    def test_outer_grid_matches_points(self, curve, complex_z):
        sp_c = build_solution_params(curve)
        Z = np.array([0.3, -0.2])
        if complex_z:
            # Z has the reality witness N = (4, 2)
            Z = Z + np.array([1j * sp_c.frb_minus, 0.5j * sp_c.frb_plus])
        sp_z = dataclasses.replace(sp_c, Z=Z)
        data = general_theta_data(curve, Z)
        lat = period_lattice(curve, sp_c.ell)
        xs, ts = GridSpec(-lat.X, lat.X, -lat.T, lat.T, 9, 7).axes()
        general = lambda x, t, d: eval_p_general(x, t, curve, data=d)
        grid, points = _outer_vs_points(general, xs, ts, data)
        assert grid.shape == (9, 7)
        assert np.max(np.abs(grid - points)) <= 1e-14 * np.max(np.abs(points))
        ref = np.abs(eval_p(xs[:, None], ts[None, :], sp_z))
        assert np.max(np.abs(np.abs(grid) - ref)) <= 1e-12 * np.max(ref)
        one = general(xs[4], ts[3], data)
        assert isinstance(one, complex)
        assert one == pytest.approx(grid[4, 3], rel=1e-14)


def _outer_vs_points(f, xs, ts, sp):
    """f on the outer grid (xs column, ts row) and on its flattened nodes."""
    X, T = np.meshgrid(xs, ts, indexing="ij")
    grid = f(xs[:, None], ts[None, :], sp)
    points = f(X.ravel(), T.ravel(), sp).reshape(X.shape)
    return grid, points


class TestSeparableEngine:
    """Grids and stencils go through 1-D theta axes; point-wise evaluation
    on scattered points is the reference they are held to."""

    def test_kappa2_zero_grid_is_bit_identical(self, sp):
        lat = period_lattice(P689, sp.ell)
        xs, ts = GridSpec(-lat.X, 2 * lat.X, -lat.T, 3 * lat.T, 64, 48).axes()
        grid, points = _outer_vs_points(eval_p, xs, ts, sp)
        assert np.array_equal(grid, points)

    @given(
        b=st.floats(1.0, 10.0),
        a_ratio=st.floats(0.3, 0.9),
        c_ratio=st.floats(1.05, 1.6),
        lambda0=st.floats(0.2, 1.0),
        z_re=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        half=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        complex_z=st.booleans(),
        # window start and length in periods; 16+ nodes per axis make the
        # grid's max|p| the field's scale
        x_cells=st.tuples(st.floats(-3.0, 0.0), st.floats(2.0, 5.0)),
        t_cells=st.tuples(st.floats(-3.0, 0.0), st.floats(2.0, 5.0)),
        nx=st.integers(16, 48),
        nt=st.integers(16, 48),
    )
    @settings(max_examples=40, deadline=None)
    def test_outer_grid_matches_points(self, b, a_ratio, c_ratio, lambda0,
                                       z_re, half, complex_z, x_cells,
                                       t_cells, nx, nt):
        curve = CurveParams(lambda0, a_ratio * b, b, c_ratio * b)
        sp_c = build_solution_params(curve)
        Z = np.array(z_re, dtype=complex)
        if complex_z:
            # Im Z = half-integer multiples of (frb-, frb+): the reality
            # condition holds with the even witness N = 2 * half
            Z = Z + 0.5j * np.array([sp_c.frb_minus * half[0],
                                     sp_c.frb_plus * half[1]])
        sp_z = dataclasses.replace(sp_c, Z=Z)
        lat = period_lattice(curve, sp_c.ell)
        xs = np.linspace(x_cells[0] * lat.X, (x_cells[0] + x_cells[1])
                         * lat.X, nx)
        ts = np.linspace(t_cells[0] * lat.T, (t_cells[0] + t_cells[1])
                         * lat.T, nt)
        for f in (eval_p, eval_amp2):
            grid, points = _outer_vs_points(f, xs, ts, sp_z)
            assert np.max(np.abs(grid - points)) \
                <= 1e-13 * np.max(np.abs(points))

    @pytest.mark.parametrize("lambda0", [0.0, 0.6])
    def test_denominator_zero_on_grid_node_raises(self, lambda0):
        curve = CurveParams(lambda0, 6.0, 8.0, 9.0)
        sp_l = build_solution_params(curve)
        lat = period_lattice(curve, sp_l.ell)
        spec = GridSpec(0.0, lat.X, 0.0, lat.T, 64, 48)
        xs, ts = spec.axes()
        x, t = xs[20], ts[30]
        # Newton on w -> H(u1, w) at the node's u1, then choose Z2 so that
        # u2 = w there
        u1 = sp_l.kappa1 * t
        H = lambda w: theta_H(u1, w, sp_l.frb_minus, sp_l.frb_plus)
        w, h = 0.5 + 1j * sp_l.frb_plus, 1e-6
        for _ in range(30):
            w = w - H(w) * 2.0 * h / (H(w + h) - H(w - h))
        assert abs(H(w)) < 1e-14
        z2 = (w - sp_l.k * x - sp_l.kappa2 * t) / 2.0
        sp_z = dataclasses.replace(sp_l, Z=np.array([0.0, z2]))
        with pytest.raises(ArithmeticError):
            sample_grid(spec, sp_z)
