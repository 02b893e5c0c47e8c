"""Unit tests for the verification instruments."""

import dataclasses
import math

import numpy as np
import pytest

from thetawave.curve import build_solution_params, period_lattice
from thetawave.elliptic import CurveParams
from thetawave.solution import GridSpec, eval_p
from thetawave.verify import (
    field_residual,
    nls_residual,
    residual_fit_k2,
    split_step_evolve,
    symmetry_suite,
)

P689 = CurveParams(0.0, 6.0, 8.0, 9.0)


@pytest.fixture(scope="module")
def sp():
    return build_solution_params(P689)


@pytest.fixture(scope="module")
def cell(sp):
    lat = period_lattice(P689, sp.ell)
    return GridSpec(0.0, lat.X, 0.0, lat.T, 64, 64)


class TestFieldResidual:
    def test_plane_wave_exact(self):
        # i p_t + p_xx + 2|p|^2 p = 0 exactly; the stencil sees only roundoff
        a = 3.0
        field = lambda x, t: a * np.exp(2j * a * a * t) * np.ones_like(
            np.asarray(x) + np.asarray(t))
        spec = GridSpec(0.0, 1.0, 0.0, 0.02, 32, 64)
        assert field_residual(field, spec, order=4) < 1e-8

    def test_wrong_field_large_residual(self):
        field = lambda x, t: 3.0 * np.exp(1j * (np.asarray(x)
                                                + np.asarray(t)))
        spec = GridSpec(0.0, 1.0, 0.0, 0.2, 32, 32)
        assert field_residual(field, spec, order=4) > 1e-2

    def test_order_validation(self, sp, cell):
        # only the fourth-order stencil exists
        for order in (2, 3):
            with pytest.raises(ValueError):
                field_residual(lambda x, t: eval_p(x, t, sp), cell,
                               order=order)


class TestNlsResidual:
    def test_two_phase_field_converges(self, sp, cell):
        rep = nls_residual(sp, cell, order=4)
        assert rep.residual_norm < 2e-5
        assert 3.3 < rep.order_estimate < 4.7

    def test_corruption_detected(self, sp, cell):
        bad = dataclasses.replace(sp, K2=sp.K2 + 0.1)
        rep = nls_residual(bad, cell, order=4)
        assert rep.residual_norm > 1e-4
        assert rep.order_estimate < 1.0


class TestResidualFitK2:
    def test_recovers_phase_constant(self, sp):
        lat = period_lattice(P689, sp.ell)
        spec = GridSpec(0.0, lat.X, 0.0, lat.T, 160, 160)
        fit = residual_fit_k2(P689, spec, order=4)
        assert fit == pytest.approx(sp.K2, abs=1e-5)


class TestSplitStep:
    def test_plane_wave_evolution(self):
        a, L, n = 2.0, 4.0, 128
        xs = np.linspace(0.0, L, n, endpoint=False)
        psi0 = a * np.ones(n, dtype=complex)
        t_end = 0.05
        steps = 500
        psi = split_step_evolve(psi0, L, t_end / steps, steps)
        ref = a * np.exp(2j * a * a * t_end)
        assert np.max(np.abs(psi - ref)) < 1e-8

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            split_step_evolve(np.ones(100, dtype=complex), 1.0, 1e-3, 10)

    def test_under_resolved_rejected(self):
        # white noise has a full spectral tail
        rng = np.random.default_rng(0)
        psi = rng.normal(size=128) + 1j * rng.normal(size=128)
        with pytest.raises(RuntimeError):
            split_step_evolve(psi, 1.0, 1e-3, 10)

    def test_two_phase_short_evolution(self, sp):
        lat = period_lattice(P689, sp.ell)
        L = 2.0 * lat.X
        n = 256
        xs = np.linspace(0.0, L, n, endpoint=False)
        t_end = lat.T / 10.0
        steps = 400
        psi = split_step_evolve(eval_p(xs, 0.0, sp), L, t_end / steps, steps)
        ref = eval_p(xs, t_end, sp)
        err = np.linalg.norm(psi - ref) / np.linalg.norm(ref)
        assert err < 1e-6


class TestSymmetrySuite:
    def test_all_pass_at_reference_point(self, sp):
        ledger = symmetry_suite(sp)
        failed = {k: v for k, v in ledger.items() if not v["passed"]}
        assert not failed, failed

    def test_deterministic(self, sp):
        a = symmetry_suite(sp, rng_seed=1)
        b = symmetry_suite(sp, rng_seed=1)
        assert a == b

    def test_t_periodicity_with_galilean_drift(self):
        # at lambda0 != 0, t -> t + 2T also moves u2 by kappa2*2T, so |p|
        # repeats only after the x shift -8*lambda0*T; at fixed x it does not
        curve = CurveParams(0.6, 6.0, 8.0, 9.0)
        sp_l = build_solution_params(curve)
        entry = symmetry_suite(sp_l)["t_periodicity"]
        assert entry["passed"] and entry["tol"] == 1e-9
        lat = period_lattice(curve, sp_l.ell)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-0.4, 0.4, 40)
        ts = rng.uniform(-0.03, 0.03, 40)
        absp = np.abs(eval_p(xs, ts, sp_l))
        fixed_x = np.abs(eval_p(xs, ts + 2.0 * lat.T, sp_l))
        assert np.max(np.abs(fixed_x - absp)) / np.max(absp) > 0.1

    def test_needs_provenance(self, sp):
        # SolutionParams refuses to be built without its curve
        with pytest.raises(ValueError):
            symmetry_suite(dataclasses.replace(sp, curve=None))
