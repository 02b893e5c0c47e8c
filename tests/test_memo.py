"""Per-curve data is computed once per (a, b, c) and shared immutably."""

import dataclasses

import pytest

from thetawave import elliptic
from thetawave.curve import b_period_errors, build_solution_params
from thetawave.elliptic import CurveParams, curve_integrals
from thetawave.solution import general_theta_data
from thetawave.verify import symmetry_suite


def test_one_quadrature_per_curve(monkeypatch):
    # a curve no other test touches, so the memo starts cold
    curve = CurveParams(0.4, 2.2, 3.9, 5.3)
    seen = []
    quad = elliptic._quad_integrals

    def counted(a, b, c, *rest):
        seen.append((a, b, c))
        return quad(a, b, c, *rest)

    monkeypatch.setattr(elliptic, "_quad_integrals", counted)
    sp = build_solution_params(curve)
    b_period_errors(curve)
    general_theta_data(curve)
    symmetry_suite(sp)
    # the suite's scaling check adds the one curve (1.7a, 1.7b, 1.7c)
    assert seen[0] == (2.2, 3.9, 5.3)
    assert len(seen) == len(set(seen)) == 2


def test_cross_check_runs_on_first_computation(monkeypatch):
    closed = elliptic._closed_integrals

    def skewed(a, b, c):
        ell = closed(a, b, c)
        return dataclasses.replace(ell, d_minus=ell.d_minus * (1.0 + 1e-6))

    monkeypatch.setattr(elliptic, "_closed_integrals", skewed)
    with pytest.raises(RuntimeError, match="d_minus"):
        curve_integrals(CurveParams(0.0, 2.1, 3.3, 4.7))


def test_shared_data_is_frozen():
    ell = curve_integrals(CurveParams(0.0, 6.0, 8.0, 9.0))
    assert curve_integrals(CurveParams(0.9, 6.0, 8.0, 9.0)) is ell
    with pytest.raises(dataclasses.FrozenInstanceError):
        ell.a_plus = 1.0
