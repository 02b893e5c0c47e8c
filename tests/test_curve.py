"""Unit tests for the curve-to-solution-parameter pipeline."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetawave import _quad as quad_mod
from thetawave import curve as curve_mod
from thetawave.curve import (
    SolutionParams,
    b_period_errors,
    build_solution_params,
    connector_calibration,
    period_lattice,
    period_matrix,
    phase_constants,
    reality_check,
    second_kind_constants,
    wave_vectors,
)
from thetawave.elliptic import CurveParams
from thetawave.theta import PeriodMatrix

P689 = CurveParams(0.0, 6.0, 8.0, 9.0)

# frozen from an independent high-precision evaluation
REF_689 = {
    "frb_minus": 1.3383752627675033,
    "frb_plus": 0.8926650610238481,
    "kappa1": 64.42525162402758,
    "k": 3.3977125156136352,
    "delta": 0.7812104723356435,
    "K0": 2.1247502378811971j,
    "K2": 138.70313520261662,
}


class TestBuildSolutionParams:
    def test_reference_point(self):
        sp = build_solution_params(P689)
        for name, ref in REF_689.items():
            got = getattr(sp, name)
            assert got == pytest.approx(ref, rel=1e-9), name

    def test_lambda0_shifts(self):
        lam = 0.5
        sp = build_solution_params(CurveParams(lam, 6.0, 8.0, 9.0))
        sp0 = build_solution_params(P689)
        assert sp.K1 == pytest.approx(-lam, abs=1e-12)
        assert sp.K2 == pytest.approx(sp0.K2 - 2.0 * lam * lam, rel=1e-9)
        assert sp.kappa2 == pytest.approx(8.0 * lam / sp.ell.a_plus,
                                          rel=1e-12)
        # the centred quantities are unchanged
        assert sp.frb_minus == sp0.frb_minus
        assert sp.delta == sp0.delta

    def test_K0_purely_imaginary_positive(self):
        sp = build_solution_params(P689)
        assert sp.K0.real == 0.0
        assert sp.K0.imag > 0.0


DERIVED = ("frb_minus", "frb_plus", "kappa1", "k", "kappa2", "delta", "K0",
           "K1", "ell")


class TestSolutionParamsFields:
    def test_init_fields(self):
        assert [f.name for f in dataclasses.fields(SolutionParams)
                if f.init] == ["curve", "Z", "K2"]

    @pytest.mark.parametrize("name", DERIVED + ("witness",))
    def test_derived_field_not_replaceable(self, name):
        sp = build_solution_params(P689)
        with pytest.raises(ValueError):
            dataclasses.replace(sp, **{name: getattr(sp, name)})

    def test_settable_fields_replace(self):
        sp = build_solution_params(P689)
        moved = dataclasses.replace(sp, Z=np.array([0.25, 0.0]), K2=0.0)
        assert moved.Z.tolist() == [0.25, 0.0] and moved.K2 == 0.0
        assert all(getattr(moved, n) == getattr(sp, n) for n in DERIVED)
        with pytest.raises(ValueError, match="provenance"):
            dataclasses.replace(sp, curve=None)

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_derived_fields_are_the_record(self, lam):
        sp = build_solution_params(CurveParams(lam, 6.0, 8.0, 9.0))
        cd = curve_mod._curve_data(6.0, 8.0, 9.0)
        ell = cd.ell
        want = {
            "frb_minus": cd.B.frb_minus, "frb_plus": cd.B.frb_plus,
            "kappa1": 4.0 / ell.a_minus, "k": 2.0 / ell.a_plus,
            "kappa2": 8.0 * lam / ell.a_plus,
            "delta": ell.b1_minus / ell.a_minus,
            "K0": cd.K0, "K1": -lam, "K2": cd.k2 - 2.0 * lam ** 2,
        }
        for name, value in want.items():
            assert getattr(sp, name) == value, name
        assert sp.ell is ell

    @pytest.mark.parametrize("z, want", [
        ((0.0, 0.0), [0, 0]),
        ((0.0, 0.5j * REF_689["frb_plus"]), [0, 2]),
        ((0.5j * REF_689["frb_minus"], 0.0), [2, 0]),
        ((0.0, 0.1j), None)])
    def test_witness_is_the_reality_check(self, z, want):
        Z = np.array(z, dtype=complex)
        sp = build_solution_params(P689, Z)
        found, N = reality_check(Z, period_matrix(P689))
        assert found == (want is not None)
        if want is None:
            assert sp.witness is None and N is None
        else:
            assert sp.witness.tolist() == N.tolist() == want

    def test_replace_recomputes_witness(self):
        sp = build_solution_params(P689)
        assert sp.witness.tolist() == [0, 0]
        off = dataclasses.replace(sp, Z=np.array([0.0, 0.1j]))
        assert off.witness is None
        half = 0.5j * sp.frb_plus
        on = dataclasses.replace(off, Z=np.array([0.0, half]))
        assert on.witness.tolist() == [0, 2]

    def test_equality_is_identity(self):
        # the ndarray fields Z and witness have no scalar ==, so a build
        # compares and hashes by identity
        sp = build_solution_params(P689)
        assert sp == sp
        assert sp != build_solution_params(P689)
        assert len({sp}) == 1

    @pytest.mark.parametrize("lam, v2", [(0.0, -0.0),
                                         (0.7, -4.756797521859089)])
    def test_wave_vectors_unchanged(self, lam, v2):
        # the values wave_vectors gave when it still took ``ell``
        wv = wave_vectors(CurveParams(lam, 6.0, 8.0, 9.0))
        assert wv.U.tolist() == [0.0, -1.6988562578068176]
        assert wv.V.tolist() == [32.21262581201379, v2]


class TestSecondKindConstants:
    def test_first_constant_vanishes(self):
        k1, _ = second_kind_constants(6.0, 8.0, 9.0)
        assert abs(k1) < 1e-10

    def test_small_a_closed_form(self):
        # at a -> 0 the second constant tends to b**2 + c**2
        k2 = phase_constants(1e-4, 8.0, 9.0)
        assert k2 == pytest.approx(145.0, abs=1e-3)


class TestBPeriods:
    # the last four have b-period integrands some 1e4 in size
    @pytest.mark.parametrize("abc", [
        (6.0, 8.0, 9.0), (1.0, 3.0, 9.0), (0.5, 2.0, 2.5),
        (0.1, 100.0, 300.00000000000006),
        (28.32167994957774, 45.00055249237433, 391.3070816533399),
        (70.02701388744157, 186.4288495134704, 316.4575829490708),
        (0.1, 100.0, 300.0)])
    def test_contour_vs_closed_form(self, abc):
        errs = b_period_errors(CurveParams(0.0, *abc))
        assert max(errs.values()) < 1e-8, errs

    # b log-uniform on [0.1, 500], a/b on [0.001, 0.999], (c - b)/b
    # log-uniform on [1e-3, 10]
    @given(st.floats(-1.0, math.log10(500.0)), st.floats(0.001, 0.999),
           st.floats(-3.0, 1.0))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_contour_converges_across_envelope(self, lb, ar, lg):
        b = 10.0 ** lb
        errs = b_period_errors(CurveParams(0.0, ar * b, b, b + b * 10.0 ** lg))
        assert max(errs.values()) < 1e-8, errs

    def test_non_converging_contour_names_curve(self, monkeypatch):
        # the curve's record is built at full depth; a two-level budget then
        # keeps a b-period segment's tanh-sinh from converging
        curve = CurveParams(0.5457413963790634, 0.1, 100.0,
                            300.00000000000006)
        build_solution_params(curve)
        monkeypatch.setattr(quad_mod, "_MAX_LEVEL", 2)
        with pytest.raises(RuntimeError) as exc:
            b_period_errors(curve)
        msg = str(exc.value)
        assert msg.count("a=0.1, b=100.0, c=300.00000000000006") == 1
        assert "tanh_sinh" in msg

    def test_named_error_keeps_quadrature_frames(self, monkeypatch):
        # naming the curve must not cut the traceback at the re-raise: it is
        # what locates the failing segment (trigger as in the test above)
        curve = CurveParams(0.5457413963790634, 0.1, 100.0,
                            300.00000000000006)
        build_solution_params(curve)
        monkeypatch.setattr(quad_mod, "_MAX_LEVEL", 2)
        with pytest.raises(RuntimeError) as exc:
            b_period_errors(curve)
        assert str(exc.value).count("a=0.1, b=100.0, c=300.00000000000006") \
            == 1
        assert "tanh_sinh" in [entry.name for entry in exc.traceback]


class TestConnector:
    def test_lattice_decomposition(self):
        D, n, m, resid = connector_calibration(6.0, 8.0, 9.0)
        assert resid < 1e-10
        assert tuple(n) == (0, 0)
        assert tuple(m) == (0, 0)
        sp = build_solution_params(P689)
        assert D[0] == pytest.approx(-0.5j * sp.delta, rel=1e-10)
        assert D[1] == pytest.approx(-0.5, rel=1e-10)

    # the reference curve and the 8 corners of the benchmark's curve sweep:
    # b in {0.1, 100}, a/b in {1e-3, 0.95}, c/b in {1.001, 3}
    @pytest.mark.parametrize("abc", [(6.0, 8.0, 9.0)] + [
        (ar * b, b, cr * b) for b in (0.1, 100.0) for ar in (1e-3, 0.95)
        for cr in (1.001, 3.0)])
    def test_representative_needs_no_lattice_shift(self, abc):
        _, n, m, resid = connector_calibration(*abc)
        assert tuple(n) == (0, 0)
        assert tuple(m) == (0, 0)
        assert resid < 1e-10


class TestPeriodLattice:
    def test_lattice_solves_linear_system(self):
        for lam in (0.0, 0.7, -0.3):
            curve = CurveParams(lam, 6.0, 8.0, 9.0)
            lat = period_lattice(curve)
            wv = wave_vectors(curve)
            e1 = lat.X1 * wv.U + lat.T1 * wv.V
            e2 = lat.X2 * wv.U + lat.T2 * wv.V
            tol = 4.0 * np.finfo(float).eps * (1.0 + abs(lam))
            assert np.allclose(e1, [1.0, 0.0], rtol=0.0, atol=tol)
            assert np.allclose(e2, [0.0, 1.0], rtol=0.0, atol=tol)

    @pytest.mark.parametrize("lam", [0.0, 0.7, -0.3])
    def test_closed_form(self, lam):
        # (X1, T1) = (-2 lambda0 A-, A-/2), (X2, T2) = (-A+, 0)
        curve = CurveParams(lam, 6.0, 8.0, 9.0)
        lat = period_lattice(curve)
        ell = build_solution_params(curve).ell
        assert (lat.X1, lat.T1, lat.X2, lat.T2) == (
            -2.0 * lam * ell.a_minus, ell.a_minus / 2.0, -ell.a_plus, 0.0)
        if lam == 0.0:
            assert math.copysign(1.0, lat.X1) == 1.0  # +0.0, not -0.0

    def test_basic_periods(self):
        lat = period_lattice(P689)
        sp = build_solution_params(P689)
        assert lat.X == pytest.approx(sp.ell.a_plus / 2.0)
        assert lat.T == pytest.approx(sp.ell.a_minus / 4.0)
        assert lat.Tprime is None

    def test_tprime_equals_T_at_special_lambda0(self):
        ell = build_solution_params(P689).ell
        lam = ell.a_plus / (2.0 * ell.a_minus)
        lat = period_lattice(CurveParams(lam, 6.0, 8.0, 9.0))
        assert lat.Tprime == pytest.approx(lat.T, rel=1e-14)

    def test_foreign_ell_refused(self):
        # X is A+/2 and X1, X2 solve P689's wave vectors, so an ell of
        # (1, 3, 9) would pair its X = 0.1803 with P689's X2 = -0.5886
        other = build_solution_params(CurveParams(0.0, 1.0, 3.0, 9.0)).ell
        with pytest.raises(ValueError, match="ell must come from params"):
            period_lattice(P689, other)
        own = period_lattice(P689, build_solution_params(P689).ell)
        assert own == period_lattice(P689)
        assert own.X == pytest.approx(-own.X2 / 2.0, rel=1e-12)


class TestRealityCheck:
    def setup_method(self):
        self.B = period_matrix(P689)
        self.sp = build_solution_params(P689)

    @given(st.tuples(st.floats(0.05, 20.0), st.floats(0.05, 20.0)),
           st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
           st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
           st.integers(0, 1), st.integers(-1000, 999))
    @settings(max_examples=300, deadline=None)
    def test_witness_is_twice_the_half_period_count(self, frb, m, re, slot,
                                                    k):
        # Im Z_j = m_j frb_j/2, whatever the real parts, has N = 2m; an odd
        # quarter multiple in one slot, or a 1e-6 offset, has none
        B = PeriodMatrix(*frb)
        Z = np.array(re) + 0.5j * np.array(frb) * np.array(m)
        ok, n = reality_check(Z, B)
        assert ok and n.tolist() == [2 * m[0], 2 * m[1]]
        quarter, offset = Z.copy(), Z.copy()
        quarter[slot] = re[slot] + 0.25j * (2 * k + 1) * frb[slot]
        offset[slot] += 1e-6j
        assert reality_check(quarter, B) == (False, None)
        assert reality_check(offset, B) == (False, None)

    def test_real_Z_passes(self):
        ok, n = reality_check(np.array([0.3, -0.2]), self.B)
        assert ok and tuple(n) == (0, 0)

    def test_half_b_period_passes(self):
        z = np.array([0.0, 0.5j * self.sp.frb_plus])
        ok, n = reality_check(z, self.B)
        assert ok
        assert tuple(n) == (0, 2)

    def test_generic_complex_rejected(self):
        ok, n = reality_check(np.array([0.0, 0.3j]), self.B)
        assert not ok and n is None

    def test_witness_beyond_eight(self):
        # 2 Im Z = 5 frb gives N = 10 in that slot
        z2 = np.array([0.0, 2.5j * self.sp.frb_plus])
        ok, n = reality_check(z2, self.B)
        assert ok and tuple(n) == (0, 10)
        z1 = np.array([2.5j * self.sp.frb_minus, 0.0])
        ok, n = reality_check(z1, self.B)
        assert ok and tuple(n) == (10, 0)

    @pytest.mark.parametrize("decade", [13, 16])
    def test_no_witness_beyond_binary64_resolution(self, decade):
        # binary64 rounds 2 Im Z_j by up to 2|Im Z_j| 2**-52; from about
        # 1e13 on that rounding alone passed the check, for 3 in 200 such
        # phases in [1e13, 1e14) and 188 in 200 in [1e16, 1e17)
        rng = np.random.default_rng(decade)
        for im in 10.0 ** rng.uniform(decade, decade + 1, 200):
            for z in (np.array([1j * im, 0.0]), np.array([0.0, 1j * im])):
                assert reality_check(z, self.B) == (False, None)

    def test_no_witness_at_huge_imaginary_part(self):
        # the rounded N used to overflow int64, with numpy's cast warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reality_check(np.array([0.0, 1e300j]), self.B) \
                == (False, None)

    @pytest.mark.parametrize("slot", [0, 1])
    def test_witness_up_to_the_bound(self, slot):
        # Im Z_j = m frb/2 has the witness 2m in slot j for each m with
        # |Im Z_j| below 2**51 * _REALITY_TOL/10, about 2.25e5
        frb = (self.sp.frb_minus, self.sp.frb_plus)[slot]
        top = int(2.0 ** 51 * curve_mod._REALITY_TOL / 10.0 / (frb / 2.0))
        for m in (1, 7, 1000, top):
            z = np.zeros(2, dtype=complex)
            z[slot] = 0.5j * m * frb
            ok, n = reality_check(z, self.B)
            assert ok and n[slot] == 2 * m and n[1 - slot] == 0
        z[slot] = 0.5j * (top + 1) * frb
        assert reality_check(z, self.B) == (False, None)

    def test_quarter_b_period_rejected_by_real_part(self):
        # N = (0, 1) matches Im(B N) = 2 Im Z, but Re(B N) = (-1/2, 0)
        z = np.array([0.0, 0.25j * self.sp.frb_plus])
        BN = self.B.entries @ np.array([0.0, 1.0])
        assert np.allclose(BN.imag, 2.0 * z.imag, rtol=0.0, atol=1e-12)
        ok, n = reality_check(z, self.B)
        assert not ok and n is None
