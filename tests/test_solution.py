"""Unit tests for the field evaluators."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetawave import solution
from thetawave.curve import (build_solution_params, period_lattice,
                             period_matrix)
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
from thetawave.theta import riemann_theta2

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

    @pytest.mark.parametrize("curve", [P689, CurveParams(0.7, 6.0, 8.0, 9.0)])
    @pytest.mark.parametrize("shift", [(0.0, 1e8), (-1e8, 0.0)])
    def test_large_real_phase_keeps_precision(self, curve, shift):
        # p is 1-periodic in each Re Z_j, so an integer added to Re Z costs
        # all three routes no precision; the (x column, t row) grid takes
        # the outer-product path at lambda0 != 0
        z = np.array([0.375, 0.25])  # exact at 1e8 too
        sp_z = build_solution_params(curve, z)
        sp_far = build_solution_params(curve, z + np.array(shift))
        xs = np.linspace(-0.3, 0.3, 7)[:, None]
        ts = np.linspace(-0.02, 0.02, 5)[None, :]
        for route, a, b in [
                (eval_p, sp_z, sp_far), (eval_amp2, sp_z, sp_far),
                (lambda x, t, z: eval_p_general(
                    x, t, curve, data=general_theta_data(curve, z)),
                 z, z + np.array(shift))]:
            want, got = route(xs, ts, a), route(xs, ts, b)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

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
        for route in (p, eval_p_general(
                xs, ts, curve, data=general_theta_data(curve, z_c))):
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

    def test_sampled_field_validation(self):
        spec = GridSpec(0.0, 0.3, 0.0, 0.01, 5, 4)
        with pytest.raises(ValueError):
            SampledField(grid=spec, values=np.zeros((4, 5)))


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

    def test_data_of_another_curve_refused(self):
        # data of one curve next to another used to give the first's field
        data = general_theta_data(P689)
        with pytest.raises(ValueError, match="data must come from params"):
            eval_p_general(0.1, 0.01, CurveParams(0.7, 1.0, 2.0, 3.0),
                           data=data)

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
        g = eval_p_general(xs, ts, curve, data=general_theta_data(curve, Z))
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
        # Newton on w -> H(u1, w) = theta(u1/2, w/2 | B) at the node's u1,
        # then choose Z2 so that u2 = w there
        u1 = sp_l.kappa1 * t
        B = period_matrix(curve)
        H = lambda w: riemann_theta2(np.array([u1, w]) / 2, B)
        w, h = 0.5 + 1j * sp_l.frb_plus, 1e-6
        for _ in range(30):
            w = w - H(w) * 2.0 * h / (H(w + h) - H(w - h))
        assert abs(H(w)) < 1e-14
        z2 = (w - sp_l.k * x - sp_l.kappa2 * t) / 2.0
        sp_z = dataclasses.replace(sp_l, Z=np.array([0.0, z2]))
        with pytest.raises(ArithmeticError):
            sample_grid(spec, sp_z)


class TestRowBands:
    """Grids are evaluated in row bands of at most ``_BAND_BYTES``; the
    bands give the one-call values bit for bit.  ``_theta_outer`` is a
    matrix product per band, so this pins the BLAS rounding too."""

    @staticmethod
    def _spy(monkeypatch):
        """Record the row slices ``_in_bands`` hands to its band function."""
        seen = []
        real = solution._in_bands

        def spy(band, n, m):
            return real(lambda r: seen.append(r) or band(r), n, m)

        monkeypatch.setattr(solution, "_in_bands", spy)
        return seen

    @staticmethod
    def _witnessed(lambda0):
        # a complex phase with the witness N = (2, 4), so the quotient's
        # quasi-period factors are exercised too
        curve = CurveParams(lambda0, 6.0, 8.0, 9.0)
        s = build_solution_params(curve)
        Z = np.array([0.3 + 0.5j * s.frb_minus, -0.2 + 1j * s.frb_plus])
        return curve, build_solution_params(curve, Z)

    @pytest.mark.parametrize("lambda0", [0.0, 0.7])
    @pytest.mark.parametrize("budget, bands", [
        (1 << 20, 4), (1 << 17, 32), (16 * 512 * 511, 2)])
    def test_banded_grid_is_bit_identical(self, monkeypatch, lambda0,
                                          budget, bands):
        # 16 * 512 * 511 bytes hold 511 rows; the rows split 256 + 256, so
        # no band is one row (a vector product, which rounds otherwise)
        curve, sp_z = self._witnessed(lambda0)
        lat = period_lattice(curve, sp_z.ell)
        # no row at a multiple of the period, where every product is exact
        spec = GridSpec(-0.3 * lat.X, 1.9 * lat.X, 0.1 * lat.T, 2.0 * lat.T,
                        512, 512)
        xs, ts = spec.axes()
        one_call = eval_p(xs[:, None], ts[None, :], sp_z)
        monkeypatch.setattr(solution, "_BAND_BYTES", budget)
        seen = self._spy(monkeypatch)
        values = sample_grid(spec, sp_z).values
        assert len(seen) == bands
        assert np.array_equal(values, one_call)

    def test_one_band_is_one_call_without_copy(self, sp, monkeypatch):
        # 255 x 255 complex values fit 1 MiB: verify's default fine grid
        assert solution._BAND_BYTES == 1 << 20
        seen = self._spy(monkeypatch)
        lat = period_lattice(P689, sp.ell)
        sample_grid(GridSpec(0.0, lat.X, 0.0, lat.T, 255, 255), sp)
        assert seen == [slice(0, 255)]
        arr = np.zeros((5, 7), dtype=complex)
        assert solution._in_bands(lambda r: arr, 5, 7) is arr

    @pytest.mark.parametrize("n, m, rows", [
        (512, 512, 128), (509, 509, 128), (4, 3, 3), (7, 100, 3),
        (2049, 64, 1024)])
    def test_rows_split_evenly(self, monkeypatch, n, m, rows):
        monkeypatch.setattr(solution, "_BAND_BYTES", 16 * m * rows)
        seen = []
        out = solution._in_bands(
            lambda r: seen.append(r) or np.arange(r.start, r.stop)[:, None]
            * np.ones(m), n, m)
        assert np.array_equal(out[:, 0], np.arange(n))
        sizes = [r.stop - r.start for r in seen]
        assert seen[0].start == 0 and seen[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(seen, seen[1:]))
        assert max(sizes) <= rows and min(sizes) >= 2
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("lambda0", [0.0, 0.6])
    def test_zero_denominator_in_a_later_band_raises(self, monkeypatch,
                                                     lambda0):
        # the node of test_denominator_zero_on_grid_node_raises (row 20)
        # falls in the third of 6-row bands
        monkeypatch.setattr(solution, "_BAND_BYTES", 16 * 48 * 6)
        curve = CurveParams(lambda0, 6.0, 8.0, 9.0)
        sp_l = build_solution_params(curve)
        lat = period_lattice(curve, sp_l.ell)
        spec = GridSpec(0.0, lat.X, 0.0, lat.T, 64, 48)
        xs, ts = spec.axes()
        u1 = sp_l.kappa1 * ts[30]
        B = period_matrix(curve)
        H = lambda w: riemann_theta2(np.array([u1, w]) / 2, B)
        w, h = 0.5 + 1j * sp_l.frb_plus, 1e-6
        for _ in range(30):
            w = w - H(w) * 2.0 * h / (H(w + h) - H(w - h))
        z2 = (w - sp_l.k * xs[20] - sp_l.kappa2 * ts[30]) / 2.0
        sp_z = dataclasses.replace(sp_l, Z=np.array([0.0, z2]))
        with pytest.raises(ArithmeticError):
            sample_grid(spec, sp_z)
