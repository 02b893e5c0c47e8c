"""Unit tests for the degenerate limits and their asymptotic tables."""

import dataclasses
import json
import math

import numpy as np
import pytest

from thetawave.curve import _quotient_constants, build_solution_params
from thetawave.elliptic import CurveParams, curve_integrals, legendre_K
from thetawave.limits import (
    AsymptoticParams,
    asymptotic_constants,
    dn_fit,
    dn_wave_theta,
    jacobi_dn,
    limit_distance,
    plane_wave_ab,
    plane_wave_cb,
)
from thetawave.solution import eval_p


class TestKinds:
    def test_small_parameter(self, run_cli):
        # each kind's collapsing gap: c - b, (b - a)/b and a
        for kind, curve in (("c_to_b", ["3", "5", "5.01"]),
                            ("a_to_b", ["4.95", "5", "9"]),
                            ("a_to_0", ["0.01", "8", "9"])):
            code, out, _ = run_cli(["limits", "--kind", kind, "--a", curve[0],
                                    "--b", curve[1], "--c", curve[2]])
            assert code == 0
            rep = json.loads(out)
            assert rep["small_parameter"] == pytest.approx(0.01), kind

    def test_invalid_kind(self):
        curve = CurveParams(0.0, 1.0, 2.0, 3.0)
        message = r"^kind must be one of \('c_to_b', 'a_to_b', 'a_to_0'\)$"
        with pytest.raises(ValueError, match=message):
            asymptotic_constants("b_to_c", curve)
        with pytest.raises(ValueError, match=message):
            limit_distance("b_to_c", curve, 1e-3)


class TestJacobiDn:
    @pytest.mark.parametrize("k", [0.0, 0.3, 0.9, 0.999])
    def test_against_scipy(self, k):
        ellipj = pytest.importorskip("scipy.special").ellipj
        us = np.linspace(-4.0, 4.0, 41)
        ref = ellipj(us, k * k)[2]
        assert np.max(np.abs(jacobi_dn(us, k) - ref)) < 1e-9

    def test_bounds(self):
        with pytest.raises(ValueError):
            jacobi_dn(0.5, 1.0)


class TestDegenerateFields:
    def test_plane_wave_cb_satisfies_equation(self):
        # i p_t + p_xx + 2|p|^2 p = 0 holds exactly for the plane wave
        lam, a = 0.4, 3.0
        x, t, h = 0.37, 0.12, 1e-5
        p = plane_wave_cb(x, t, lam, a)
        pt = (plane_wave_cb(x, t + h, lam, a)
              - plane_wave_cb(x, t - h, lam, a)) / (2 * h)
        pxx = (plane_wave_cb(x + h, t, lam, a) - 2 * p
               + plane_wave_cb(x - h, t, lam, a)) / h ** 2
        assert abs(1j * pt + pxx + 2 * abs(p) ** 2 * p) < 1e-4

    def test_plane_wave_ab_amplitude_and_phase(self):
        b, c = 5.0, 7.0
        p = plane_wave_ab(0.0, 0.0, 0.0, b, c)
        assert abs(p) == pytest.approx(c, rel=1e-14)
        phi = math.acos((c * c - 2 * b * b) / (c * c))
        assert np.angle(p) == pytest.approx(-phi / 2.0, rel=1e-12)

    def test_dn_wave_profile(self):
        # the a -> 0 field is a traveling dn-type wave of max b + c, min c - b
        b, c = 8.0, 9.0
        xs = np.linspace(-1.0, 1.0, 801)
        f = np.abs(dn_wave_theta(xs, 0.0, 0.0, b, c))
        assert float(np.max(f)) == pytest.approx(b + c, abs=1e-3)
        assert float(np.min(f)) == pytest.approx(c - b, abs=1e-3)


class TestDegenerateFieldRefusals:
    @pytest.mark.parametrize("a", [0.0, -3.0])
    def test_plane_wave_cb_needs_positive_a(self, a):
        with pytest.raises(ValueError, match="a > 0"):
            plane_wave_cb(0.1, 0.0, 0.4, a)

    @pytest.mark.parametrize("field", [plane_wave_ab, dn_wave_theta])
    @pytest.mark.parametrize("b, c", [(7.0, 7.0), (8.0, 7.0), (0.0, 7.0)])
    def test_need_b_between_0_and_c(self, field, b, c):
        with pytest.raises(ValueError, match="0 < b < c"):
            field(0.1, 0.0, 0.4, b, c)

    XS = np.linspace(-0.3, 0.3, 41)
    FS = 17.0 * jacobi_dn(17.0 * XS, 0.485)
    DN_FIT = "^dn_fit needs xs and fs finite, 1-D, of one length and at "

    @pytest.mark.parametrize("call, match", [
        (lambda xs, fs: dn_fit(xs, np.where(xs > 0.1, np.nan, fs)), DN_FIT),
        (lambda xs, fs: dn_fit(xs, np.where(xs > 0.1, np.inf, fs)), DN_FIT),
        (lambda xs, fs: dn_fit(np.where(xs > 0.1, -np.inf, xs), fs), DN_FIT),
        (lambda xs, fs: dn_fit(xs[:3], fs[:3]), DN_FIT),
        (lambda xs, fs: dn_fit(xs, fs[:-1]), DN_FIT),
        (lambda xs, fs: dn_fit(xs[:, None], fs[:, None]), DN_FIT),
        (lambda xs, fs: plane_wave_cb(0.1, 0.0, 0.4, math.nan), "a > 0"),
    ], ids=["nan-f", "inf-f", "inf-x", "3-samples", "mismatched", "2-d",
            "nan-a"])
    def test_malformed_input_refused(self, call, match):
        # refused naming dn_fit's input, not by a nan, a fit of its 4
        # parameters to 3 samples or a message of numpy or jacobi_dn
        with pytest.raises(ValueError, match=match):
            call(self.XS, self.FS)


class TestConvergence:
    def test_a_to_0_linear(self):
        b, c = 8.0, 9.0
        xs = np.linspace(-0.2, 0.2, 15)[:, None]
        ts = np.linspace(-0.01, 0.01, 5)[None, :]
        ref = dn_wave_theta(xs, ts, 0.0, b, c)
        sups = []
        for a in (1e-2, 1e-3, 1e-4):
            sp = build_solution_params(CurveParams(0.0, a, b, c))
            sups.append(float(np.max(np.abs(eval_p(xs, ts, sp) - ref))))
        assert sups[0] > sups[1] > sups[2]
        # linear rate in a
        assert sups[1] / sups[0] == pytest.approx(0.1, rel=0.3)

    def test_c_to_b_monotone(self):
        a, b = 6.0, 8.0
        xs = np.linspace(-0.1, 0.1, 11)[:, None]
        ts = np.linspace(-0.005, 0.005, 3)[None, :]
        ref = plane_wave_cb(xs, ts, 0.0, a)
        sups = []
        for eps in (1e-2, 1e-3, 1e-4):
            sp = build_solution_params(CurveParams(0.0, a, b, b + eps),
                                       np.array([0.0, 0.25]))
            sups.append(float(np.max(np.abs(eval_p(xs, ts, sp) - ref))))
        assert sups[0] > sups[1] > sups[2]


_SINGULAR = "has a singular step: a fit parameter moves no sample"


class TestDnFit:
    def test_recovers_known_profile(self):
        A, B, kt, x0 = 17.0, 17.0, 0.485, 0.03
        xs = np.linspace(-0.3, 0.3, 401)
        fs = A * jacobi_dn(B * (xs - x0), kt)
        Af, Bf, ktf, x0f = dn_fit(xs, fs)
        assert Af == pytest.approx(A, rel=1e-8)
        assert Bf == pytest.approx(B, rel=1e-8)
        assert ktf == pytest.approx(kt, rel=1e-6)
        assert x0f == pytest.approx(x0, abs=1e-8)

    def test_relation_check_rejects_wrong_k20(self):
        xs = np.linspace(-0.3, 0.3, 401)
        fs = 17.0 * jacobi_dn(17.0 * xs, 0.485)
        with pytest.raises(AssertionError):
            dn_fit(xs, fs, k20=200.0)


    def test_non_converging_fit_refused(self):
        # a straight line is no dn profile: the damped steps still lower
        # the residual after 100 iterations
        xs = np.linspace(-0.3, 0.3, 41)
        with pytest.raises(RuntimeError,
                           match="^dn profile fit did not converge$"):
            dn_fit(xs, 1.0 + xs)

    def test_a_not_b_refused(self):
        xs = np.linspace(-0.3, 0.3, 401)
        with pytest.raises(AssertionError,
                           match="^fit violates A = B: ") as exc:
            dn_fit(xs, 17.0 * jacobi_dn(20.0 * xs, 0.485), k20=1.0)
        A, B = map(float, str(exc.value).split(": ")[1].split(" vs "))
        assert (A, B) == (pytest.approx(17.0), pytest.approx(20.0))

    def test_profile_off_its_ode_refused(self):
        # A = B and A**2 = 2*k20/(2 - k**2) each hold to 0.9*tol; together
        # they leave the ODE residual 0.9*tol*(2 + k**2)*A**3 at the peak,
        # above its bound tol*A**3
        xs = np.linspace(-0.3, 0.3, 401)
        A, kt, tol = 17.0, 0.485, 1e-6
        B = A / (1.0 + 0.9 * tol)
        k20 = A * A * (2.0 - kt * kt) / (2.0 * (1.0 + 0.9 * tol))
        with pytest.raises(AssertionError,
                           match="^fitted profile fails its ODE$"):
            dn_fit(xs, A * jacobi_dn(B * xs, kt), k20=k20, tol=tol)

    @pytest.mark.parametrize("profile, refusal", [
        (lambda x: np.abs(x) + 1e-3, _SINGULAR),
        (lambda x: (x > 0.0) * 1.0, _SINGULAR),
        (lambda x: np.random.default_rng(0).uniform(size=x.size), _SINGULAR),
        (lambda x: 2.0 + np.cos(40.0 * x), "misses f by 0.338 of max |f|"),
        (lambda x: np.exp(-(x / 0.01) ** 2), "did not converge"),
        (lambda x: (np.exp(-((x - 0.15) / 0.05) ** 2)
                    + np.exp(-((x + 0.15) / 0.05) ** 2)),
         "misses f by 1 of max |f|"),
    ], ids=["abs", "step", "noise", "cos40", "narrow-gaussian",
            "two-peaks"])
    def test_singular_step_refused(self, profile, refusal):
        # a profile that is not dn-shaped is refused; the first three leave
        # a parameter that moves no sample, so the damped normal equations
        # are singular
        xs = np.linspace(-0.3, 0.3, 41)
        with pytest.raises(RuntimeError) as exc:
            dn_fit(xs, profile(xs))
        assert str(exc.value) == "dn profile fit " + refusal

    @pytest.mark.parametrize("kt, A, B, near", [
        (kt, A, B, 0.5 <= B / A <= 2.0)
        for kt in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999)
        for A in (1, 5, 17) for B in (3, 10, 17, 40)])
    def test_returns_only_a_fit_that_fits(self, kt, A, B, near):
        # B from A/6 to 40A; ``near`` marks a B within a factor 2 of the
        # start A = max f, and B's start from the peak curvature fits the
        # far ones as well: A, B and kt to 1e-10, and x0 up to the x period
        # 2K(kt)/B of the profile's peaks
        xs = np.linspace(-0.3, 0.3, 401)
        Af, Bf, ktf, x0f = dn_fit(xs, A * jacobi_dn(B * (xs - 0.01), kt))
        period = 2.0 * legendre_K(kt) / B
        x0f -= period * round((x0f - 0.01) / period)
        assert (Af, Bf, ktf, x0f) == pytest.approx((A, B, kt, 0.01),
                                                   rel=1e-10)

    def test_step_profile_refused(self):
        # a 1 -> 2 step is no dn profile: the best fit misses it by 0.25
        xs = np.linspace(-0.3, 0.3, 41)
        with pytest.raises(RuntimeError, match="^dn profile fit misses f by "):
            dn_fit(xs, np.where(xs < 0.0, 1.0, 2.0))

    @pytest.mark.parametrize("fs", [np.zeros(41), -np.ones(41)])
    def test_non_positive_profile_refused(self, fs):
        with pytest.raises(ValueError, match="positive somewhere"):
            dn_fit(np.linspace(-0.3, 0.3, 41), fs)


class TestAsymptoticTables:
    def test_c_to_b_power_entries(self):
        a, b, eps = 3.0, 5.0, 1e-6
        curve = CurveParams(0.0, a, b, b + eps)
        ap = asymptotic_constants("c_to_b", curve)
        ell = curve_integrals(curve)
        for name in ("a_plus", "b_plus", "a_minus", "b_minus", "b1_minus",
                     "d_minus", "f_minus"):
            num = getattr(ell, name)
            asy = getattr(ap.ell, name)
            assert abs(num - asy) / abs(num) < 1e-4, name
        sp = build_solution_params(curve)
        assert abs(ap.K0 - sp.K0) / abs(sp.K0) < 1e-4

    @pytest.mark.parametrize("c", [18.2, 40.0])
    def test_c_to_b_outside_its_limit_refused(self, c):
        # on (6, 8) the leading-order B1- turns negative beyond
        # c - b = 8b*k'**2/(1 + k')**2 = 10.14
        with pytest.raises(ValueError, match=r"c - b = .* c - b < 10\.14"):
            asymptotic_constants("c_to_b", CurveParams(0.0, 6.0, 8.0, c))

    def test_a_to_b_finite_entries(self):
        b, c, rel_gap = 5.0, 7.0, 1e-5
        curve = CurveParams(0.0, b * (1 - rel_gap), b, c)
        ap = asymptotic_constants("a_to_b", curve)
        ell = curve_integrals(curve)
        for name in ("a_plus", "b_minus", "b1_minus", "f_minus"):
            num = getattr(ell, name)
            assert abs(num - getattr(ap.ell, name)) / abs(num) < 1e-3, name
        assert ap.ell.b_plus == math.inf
        assert ap.ell.a_minus == math.inf

    def test_a_to_0_entries(self):
        b, c, a = 8.0, 9.0, 1e-4
        curve = CurveParams(0.0, a, b, c)
        ap = asymptotic_constants("a_to_0", curve)
        ell = curve_integrals(curve)
        for name in ("a_plus", "b_plus", "a_minus", "b1_minus", "f_minus"):
            num = getattr(ell, name)
            assert abs(num - getattr(ap.ell, name)) / abs(num) < 1e-6, name
        assert ap.ell.b_minus == math.inf
        assert ap.ell.d_minus == 0.0
        assert ell.d_minus < 1e-3


DERIVED = ("frb_minus", "frb_plus", "kappa1", "k", "kappa2", "delta", "K1")


class TestSharedMap:
    """The tables' derived fields are the solution's own map of their
    integrals, so they approach the solution's as the integrals do."""

    CASES = {"c_to_b": lambda lam, e: CurveParams(lam, 6.0, 8.0, 8.0 + e),
             "a_to_0": lambda lam, e: CurveParams(lam, e, 8.0, 9.0)}

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_derived_fields_are_the_map(self, kind, lam):
        ap = asymptotic_constants(kind, self.CASES[kind](lam, 1e-4))
        want = _quotient_constants(ap.ell, lam)
        for name in DERIVED:
            assert getattr(ap, name) == want[name], name

    def test_settable_fields(self):
        assert [f.name for f in dataclasses.fields(AsymptoticParams)
                if f.init] == ["ell", "K0", "K2", "Z", "lambda0"]

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_gap_to_solution_shrinks(self, kind):
        # c -> b converges linearly in eps, a -> 0 quadratically in a, down
        # to rounding; every finite field's gap falls about 100-fold
        gaps = []
        for eps in (1e-4, 1e-6):
            curve = self.CASES[kind](0.7, eps)
            ap = asymptotic_constants(kind, curve)
            sp = build_solution_params(curve)
            gaps.append({name: (abs(getattr(ap, name) - getattr(sp, name)),
                                abs(getattr(sp, name)))
                         for name in DERIVED + ("K0", "K2")
                         if math.isfinite(abs(getattr(ap, name)))})
        for name, (gap, scale) in gaps[1].items():
            assert gap <= max(gaps[0][name][0] / 50.0, 1e-12 * scale), name
