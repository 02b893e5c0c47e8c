"""Per-curve data is computed once per (a, b, c) and shared immutably."""

import dataclasses

import pytest

from thetawave import curve as curve_mod
from thetawave import elliptic
from thetawave._quad import tanh_sinh
from thetawave.curve import (
    b_period_errors,
    build_solution_params,
    connector_calibration,
    phase_constants,
    second_kind_constants,
)
from thetawave.elliptic import CurveParams, curve_integrals
from thetawave.solution import general_theta_data
from thetawave.theta import PeriodMatrix
from thetawave.verify import symmetry_suite


def test_one_quadrature_per_curve(monkeypatch):
    # a curve no other test touches, so the memo starts cold
    curve = CurveParams(0.4, 2.2, 3.9, 5.3)
    seen = []
    quad = elliptic._quad_integrals

    def counted(a, b, c):
        seen.append((a, b, c))
        return quad(a, b, c)

    monkeypatch.setattr(elliptic, "_quad_integrals", counted)
    records = curve_mod._curve_data.cache_info().misses
    sp = build_solution_params(curve)
    b_period_errors(curve)
    connector_calibration(2.2, 3.9, 5.3)
    general_theta_data(curve)
    second_kind_constants(2.2, 3.9, 5.3)
    symmetry_suite(sp)
    # the suite's scaling check adds the one curve (1.7a, 1.7b, 1.7c)
    assert seen[0] == (2.2, 3.9, 5.3)
    assert len(seen) == len(set(seen)) == 2
    assert curve_mod._curve_data.cache_info().misses - records == 2


def test_fresh_record_costs_fourteen_quadratures(monkeypatch):
    calls = []

    def counted(f, length):
        calls.append(length)
        return tanh_sinh(f, length)

    for mod in (elliptic, curve_mod):
        monkeypatch.setattr(mod, "tanh_sinh", counted)
    # a curve no other test touches: its seven integrals, then p1 (2), q0
    # (3) and k2 (2); the record holds no k1
    build_solution_params(CurveParams(0.3, 2.7, 4.3, 6.1))
    assert len(calls) == 14
    calls.clear()
    # k2 is a read of the record; k1 is computed on demand, and only there
    assert phase_constants(2.7, 4.3, 6.1) == \
        build_solution_params(CurveParams(0.0, 2.7, 4.3, 6.1)).K2
    assert calls == []
    second_kind_constants(2.7, 4.3, 6.1)
    assert len(calls) == 4


def test_cross_check_runs_on_first_computation(monkeypatch):
    closed = elliptic._closed_integrals

    def skewed(a, b, c):
        ell = closed(a, b, c)
        return dataclasses.replace(ell, d_minus=ell.d_minus * (1.0 + 1e-6))

    monkeypatch.setattr(elliptic, "_closed_integrals", skewed)
    with pytest.raises(RuntimeError, match="d_minus"):
        curve_integrals(CurveParams(0.0, 2.1, 3.3, 4.7))


def test_b_periods_check_the_solution_matrix(monkeypatch):
    # a B that is off by 1e-6 must show in the contour check, so the check
    # has to read the B the solution reads
    from_ratios = PeriodMatrix.from_ratios.__func__

    def skewed(cls, frb_minus, frb_plus):
        entries = from_ratios(cls, frb_minus, frb_plus).entries.copy()
        entries[0, 1] += 1e-6
        entries[1, 0] += 1e-6
        return cls(entries)

    monkeypatch.setattr(PeriodMatrix, "from_ratios", classmethod(skewed))
    try:
        # a curve no other test touches, so its record is built skewed
        errs = b_period_errors(CurveParams(0.0, 2.3, 3.7, 4.9))
    finally:
        curve_mod._curve_data.cache_clear()
    assert errs["B12"] > 1e-8 and errs["B21"] > 1e-8
    assert errs["B11"] < 1e-8 and errs["B22"] < 1e-8


def test_shared_data_is_frozen():
    ell = curve_integrals(CurveParams(0.0, 6.0, 8.0, 9.0))
    assert curve_integrals(CurveParams(0.9, 6.0, 8.0, 9.0)) is ell
    with pytest.raises(dataclasses.FrozenInstanceError):
        ell.a_plus = 1.0
    record = curve_mod._curve_data(6.0, 8.0, 9.0)
    assert build_solution_params(CurveParams(0.9, 6.0, 8.0, 9.0)).ell \
        is record.ell
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.delta = 1.0
