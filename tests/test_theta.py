"""Unit tests for the Jacobi and genus-2 theta functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetawave.theta import (
    PeriodMatrix,
    jacobi_theta,
    riemann_theta2,
    theta_reduction_check,
)
from thetawave import theta
from thetawave.theta import _theta_outer

TAU = 1.3j


def brute_theta3(u, tau, terms=60):
    h = np.exp(1j * np.pi * tau)
    return 1.0 + 2.0 * sum(h ** (m * m) * np.cos(2.0 * np.pi * m * u)
                           for m in range(1, terms))


def brute_theta2(u, tau, terms=60):
    h = np.exp(1j * np.pi * tau)
    return 2.0 * sum(h ** ((m - 0.5) ** 2) * np.cos((2 * m - 1) * np.pi * u)
                     for m in range(1, terms))


class TestJacobiTheta:
    @given(st.floats(-3.0, 3.0), st.floats(-0.8, 0.8))
    @settings(max_examples=30, deadline=None)
    def test_matches_series(self, ur, ui):
        u = ur + 1j * ui
        t3, t2 = jacobi_theta(TAU, u)
        assert t3 == pytest.approx(brute_theta3(u, TAU), rel=1e-12)
        assert t2 == pytest.approx(brute_theta2(u, TAU), rel=1e-12)

    def test_real_period(self):
        # theta3(u + 1) = theta3(u), theta2(u + 1) = -theta2(u)
        u = 0.37 + 0.21j
        (s3, s2), (t3, t2) = jacobi_theta(TAU, u + 1.0), jacobi_theta(TAU, u)
        assert s3 == pytest.approx(t3, rel=1e-13)
        assert s2 == pytest.approx(-t2, rel=1e-13)

    def test_quasi_period(self):
        # both gain the same factor over one quasi-period
        u = 0.11 + 0.05j
        fac = np.exp(-1j * np.pi * TAU - 2j * np.pi * u)
        (s3, s2), (t3, t2) = jacobi_theta(TAU, u + TAU), jacobi_theta(TAU, u)
        assert s3 == pytest.approx(fac * t3, rel=1e-12)
        assert s2 == pytest.approx(fac * t2, rel=1e-12)

    def test_half_quasi_period_swap(self):
        # theta3(u + tau/2) = exp(-i*pi*tau/4 - i*pi*u) theta2(u)
        u = 0.23 - 0.4j
        fac = np.exp(-1j * np.pi * TAU / 4.0 - 1j * np.pi * u)
        s3, s2 = jacobi_theta(TAU, u + TAU / 2.0)
        t3, t2 = jacobi_theta(TAU, u)
        assert s3 == pytest.approx(fac * t2, rel=1e-12)
        assert s2 == pytest.approx(fac * t3, rel=1e-12)

    def test_large_imaginary_argument_stable(self):
        # reduction keeps the values finite where the raw series overflows
        for val in jacobi_theta(2.0j, 0.2 + 10.0j):
            assert np.isfinite(val.real) and np.isfinite(val.imag)
            assert abs(val) > 1e60  # the true value really is this large

    def test_unrepresentable_value_raises(self):
        # theta3 and theta2 at Im u = 40 exceed the binary64 range; the
        # evaluator must refuse rather than return inf
        with pytest.raises(OverflowError):
            jacobi_theta(2.0j, 0.2 + 40.0j)

    def test_vectorized(self):
        us = np.array([0.1, 0.2 + 0.3j, -1.7])
        for vals, one in zip(jacobi_theta(TAU, us), jacobi_theta(TAU, 0.1)):
            assert vals.shape == (3,)
            assert vals[0] == pytest.approx(one)

    @pytest.mark.parametrize("shape", [(), (0,), (3,), (2, 0), (2, 3)])
    def test_return_contract(self, shape):
        # a scalar u (a 0-d array too) gives a pair of Python complex, an
        # array (an empty one too) a pair of arrays of u's shape
        one = jacobi_theta(TAU, 0.2 + 0.1j)
        assert [type(v) for v in one] == [complex, complex]
        pair = jacobi_theta(TAU, np.full(shape, 0.2 + 0.1j))
        assert isinstance(pair, tuple) and len(pair) == 2
        for val, want in zip(pair, one):
            if shape:
                assert isinstance(val, np.ndarray) and val.shape == shape
            else:
                assert type(val) is complex
            assert np.all(val == want)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            jacobi_theta(1.0 - 0.5j, 0.0)


class TestThetaOuter:
    """The outer-grid evaluator against point-wise jacobi_theta."""

    AX = np.linspace(-3.1, 5.3, 17)[:, None]
    BT = np.linspace(-2.6, 1.7, 9)[None, :]

    @pytest.mark.parametrize("j", [2, 3])
    @pytest.mark.parametrize("c", [0.3 + 0.2j, -1.2 + 2.9j, 3.4 - 3.3j])
    def test_matches_pointwise(self, j, c):
        # Im c spans several quasi-periods, so the peeled factor is tested;
        # j picks the pair member: theta3 first, theta2 second
        grids = _theta_outer(self.BT, c, TAU)(self.AX)
        points = jacobi_theta(TAU, (self.AX + self.BT + c).ravel())
        assert len(grids) == 2 and len(points) == 2
        k = {3: 0, 2: 1}[j]
        grid, point = grids[k], points[k].reshape(grids[k].shape)
        assert np.max(np.abs(grid - point)) \
            <= 1e-13 * np.max(np.abs(point))

    def test_unrepresentable_value_raises(self):
        with pytest.raises(OverflowError):
            _theta_outer(self.BT, 0.2 + 40.0j, 2.0j)


class TestUnitShift:
    """theta3 has period 1 and theta2 changes sign under u -> u + 1, so the
    pair at u + 1 and at u - 1 is (theta3, -theta2) at u: the identity by
    which the solution's numerators read the denominator's pair.  Each
    shifted argument reduces to another representative, so the two agree
    to a few ulps of the largest modulus, not bit for bit."""

    TOL = 32 * np.finfo(float).eps

    # TAU and tau2 = 2i*frb_plus of the curve (0, 6, 8, 9)
    @pytest.mark.parametrize("tau", [TAU, 2j * 0.892665061023848])
    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
    def test_jacobi_theta(self, tau, scale):
        rng = np.random.default_rng(7)
        u = (rng.uniform(-scale, scale, 200)
             + 1j * rng.uniform(-3.0, 3.0, 200) * tau.imag)
        t3, t2 = jacobi_theta(tau, u)
        big = np.maximum(np.abs(t3), np.abs(t2))
        for s in (1.0, -1.0):
            s3, s2 = jacobi_theta(tau, u + s)
            assert np.all(np.abs(s3 - t3) <= self.TOL * big)
            assert np.all(np.abs(s2 + t2) <= self.TOL * big)

    @pytest.mark.parametrize("c", [0.3 + 0.2j, -1.2 + 2.9j,
                                   1e6 + 0.37 - 0.9j, -123456.7 + 1.4j])
    def test_theta_outer(self, c):
        ax = TestThetaOuter.AX
        t3, t2 = _theta_outer(TestThetaOuter.BT, c, TAU)(ax)
        big = max(np.max(np.abs(t3)), np.max(np.abs(t2)))
        for s in (1.0, -1.0):
            s3, s2 = _theta_outer(TestThetaOuter.BT, c + s, TAU)(ax)
            assert np.max(np.abs(s3 - t3)) <= self.TOL * big
            assert np.max(np.abs(s2 + t2)) <= self.TOL * big


class TestPeriodMatrix:
    def test_from_ratios(self):
        B = PeriodMatrix(1.3, 0.9)
        assert B.entries.tolist() == [[0.65j, -0.5], [-0.5, 0.45j]]

    def test_rejects_indefinite(self):
        # a ratio <= 0 leaves Im B indefinite or singular; NaN is refused too
        for frb in [(0.0, 0.9), (1.3, -0.0), (-1.3, 0.9), (1.3, -0.9),
                    (np.nan, 0.9), (1.3, np.nan)]:
            with pytest.raises(ValueError, match="> 0"):
                PeriodMatrix(*frb)

    def test_closed_forms_are_the_matrix_algebra(self):
        # b_coordinates solves Im(B) M = Im v and B @ n is the product with
        # the entries, for random ratios, points and integer vectors
        rng = np.random.default_rng(5)
        for _ in range(50):
            B = PeriodMatrix(*10.0 ** rng.uniform(-2.0, 2.0, 2))
            v = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2)) * 9.0
            M = B.b_coordinates(v)
            np.testing.assert_allclose(M @ B.entries.imag.T, v.imag,
                                       rtol=1e-15, atol=0.0)
            n = rng.integers(-40, 41, (7, 2)).astype(float)
            np.testing.assert_allclose(B @ n, n @ B.entries.T,
                                       rtol=1e-15, atol=0.0)


class TestRiemannTheta:
    def test_reduction_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-0.3, 0.3, 2)
            assert theta_reduction_check(u, 1.3383752627675033,
                                         0.8926650610238481) < 1e-10

    def test_truncation_robustness(self):
        # against the plain lattice sum over a 25 x 25 box, far wider than
        # the Gaussian decay needs
        B = PeriodMatrix(1.34, 0.89)
        u = np.array([0.31 + 0.6j, 0.17 - 0.2j])
        m = np.arange(-12, 13)
        m1, m2 = np.meshgrid(m, m, indexing="ij")
        Bm = B.entries
        brute = np.sum(np.exp(
            1j * np.pi * (Bm[0, 0] * m1 * m1 + 2.0 * Bm[0, 1] * m1 * m2
                          + Bm[1, 1] * m2 * m2)
            + 2j * np.pi * (m1 * u[0] + m2 * u[1])))
        assert riemann_theta2(u, B) == pytest.approx(brute, rel=1e-13)

    def test_batch_with_distinct_imaginary_parts(self):
        # the points' peaks differ, so the shared box is wider than each
        # point's own; B is well conditioned, so the extra terms and the
        # summation order stay at roundoff
        B = PeriodMatrix(1.34, 0.89)
        rng = np.random.default_rng(11)
        u = rng.uniform(-1.0, 1.0, (12, 2)) \
            + 1j * rng.uniform(-1.5, 1.5, (12, 2))
        batch = riemann_theta2(u, B)
        single = np.array([riemann_theta2(v, B) for v in u])
        assert np.max(np.abs(batch - single) / np.abs(single)) <= 1e-13

    def test_batch_beyond_one_block(self):
        # the box has at least (2*2 + 1)**2 terms, so this batch spans
        # several blocks
        B = PeriodMatrix(1.34, 0.89)
        rng = np.random.default_rng(12)
        n = theta._BLOCK_TERMS // 25 + 1
        u = rng.uniform(-1.0, 1.0, (n, 2)) + 1j * np.array([0.2, -0.1])
        batch = riemann_theta2(u, B)
        idx = np.concatenate([[0, n - 1], rng.integers(0, n, 30)])
        single = np.array([riemann_theta2(u[i], B) for i in idx])
        assert np.max(np.abs(batch[idx] - single) / np.abs(single)) <= 1e-13

    @pytest.mark.parametrize("shape", [(0,), (1,), (3,), (2, 4), (3, 0)])
    def test_batch_shape(self, shape):
        B = PeriodMatrix(1.1, 0.7)
        u = np.full(shape + (2,), 0.2 + 0.1j)
        one = riemann_theta2(np.array([0.2 + 0.1j, 0.2 + 0.1j]), B)
        assert isinstance(one, complex)
        out = riemann_theta2(u, B)
        assert out.shape == shape
        assert np.all(out == one)

    @pytest.mark.parametrize("u", [0.1j, np.zeros(3), np.zeros((2, 3))])
    def test_rejects_non_pair_argument(self, u):
        with pytest.raises(ValueError):
            riemann_theta2(u, PeriodMatrix(1.1, 0.7))

