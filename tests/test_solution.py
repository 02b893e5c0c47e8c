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


# 30-digit references for p from mpmath 1.3.0 at mp.dps = 40, generated
# offline: -2i K0 H(u1 + i delta, u2 + 1) / H(u1, u2)
# * exp(2i (K1 x + K2 t) - 2 pi n delta), n = Im Z1 / frb_minus, with
# u1 = kappa1 t + 2 Z1, u2 = k x + kappa2 t + 2 Z2 and H(v, w) =
# theta3(v) theta3(w) + theta2(v) theta3(w) + theta3(v) theta2(w)
# - theta2(v) theta2(w) through mpmath.jtheta (theta_j(u | tau) =
# jtheta(j, pi u, exp(i pi tau)), tau = 2i frb_minus for v, 2i frb_plus for
# w), the numerator at u2 + 1 itself.  The record's binary64 constants, Z,
# x and t are taken as exact, so the references check the evaluation, not
# the constants.  Keys: (lambda0, m) on (lambda0, 6, 8, 9) with
# Z = (0, i m frb_plus / 2).  First list: nodes (i, j) of the 64 x 64
# sample_grid over (2X, 2T), with their x and t; second: scattered eval_p
# points.
P_REFS = {
    (0.0, 0): (
        [
            ((0, 0), 0.0, 0.0,
             "6.99999999999999711275021897851",
             "0.0"),
            ((3, 50), 0.028030062814450626, 0.024637879516012613,
             "-0.345734084395380080845116981006",
             "6.43679181463622325559916684277"),
            ((9, 17), 0.08409018844335188, 0.008376879035444288,
             "3.40890245510638930380842794619",
             "5.18619880364011049328942974412"),
            ((20, 30), 0.18686708542967084, 0.014782727709607566,
             "-1.60747188136920259929845961888",
             "0.00131530884789939555194154619416"),
            ((27, 63), 0.25227056533005565, 0.03104372819017589,
             "-7.32495427430475302723013866194",
             "7.74172875394943157773561821289"),
            ((36, 8), 0.3363607537734075, 0.003942060722562018,
             "7.70172787174177246238102308284",
             "7.90372553054438106632571041952"),
            ((44, 41), 0.41110758794527585, 0.02020306120313034,
             "5.83301837313935388865955032077",
             "2.81107076233606755428951871713"),
            ((58, 25), 0.5419145477460454, 0.012318939758006306,
             "2.22704497139229732014308072156",
             "4.65413888861664287911399565343"),
            ((63, 57), 0.5886313191034631, 0.028087182648254376,
             "-2.81153859461189396824103227916",
             "6.26987981748398659676392405575"),
        ], [
            (-1.3, 0.0, "7.96428248654887699901340286623",
             "0.0"),
            (-0.47, -0.083, "4.75592235285844290153862765859",
             "3.1979267034025518165329368601"),
            (0.0, 0.0211, "1.2261260566109727072517659527",
             "5.58707981279054646500650071238"),
            (0.129, 0.0457, "-2.81681017544565217761033876632",
             "-1.58057547656102702841579914368"),
            (0.58, -0.0312, "-4.90469361336651519929925215764",
             "-5.00015301568978420135652773099"),
            (0.9, 0.07, "13.2497041550840214396669296112",
             "1.22515847063597538409498070817"),
            (1.2345, -0.0064, "4.84825728846152927935480089372",
             "-4.4049142599306257863559790337"),
            (2.75, 0.119, "-4.69176075946003576790871567198",
             "8.05521130797793644441885602411"),
            (4.1, -0.2, "-4.17090463993039289211486595834",
             "-2.86375284417134885617372218165"),
        ]),
    (0.7, 0): (
        [
            ((0, 0), 0.0, 0.0,
             "6.99999999999999711275021897851",
             "0.0"),
            ((3, 50), 0.028030062814450626, 0.024637879516012613,
             "1.04437270735454287713604300419",
             "6.77799314327909498060076933207"),
            ((9, 17), 0.08409018844335188, 0.008376879035444288,
             "3.76074448063085400766935660195",
             "5.15603301991042155700553704361"),
            ((20, 30), 0.18686708542967084, 0.014782727709607566,
             "-7.05856983974236601951306678118",
             "-3.37649636329494046999747065353"),
            ((27, 63), 0.25227056533005565, 0.03104372819017589,
             "-3.57646631422242673379988848007",
             "9.99218207428518335269079700758"),
            ((36, 8), 0.3363607537734075, 0.003942060722562018,
             "10.2680093005259841872050736788",
             "3.26019609354430931075699142379"),
            ((44, 41), 0.41110758794527585, 0.02020306120313034,
             "5.04494466300278893712794097215",
             "1.84966453337444679601276185985"),
            ((58, 25), 0.5419145477460454, 0.012318939758006306,
             "5.01728192672240460933406612726",
             "1.6027013427855650705281426715"),
            ((63, 57), 0.5886313191034631, 0.028087182648254376,
             "3.44432854089357232846686284784",
             "6.36659991810464463659923370723"),
        ], [
            (-1.3, 0.0, "-1.9642493869018779247357864818",
             "7.7182588626972573068646473866"),
            (-0.47, -0.083, "1.05904690813916063583709331253",
             "5.60414767203782794498465227751"),
            (0.0, 0.0211, "1.8102345776917698373317975676",
             "5.40158100083834742249142239254"),
            (0.129, 0.0457, "14.6756276998644389878408476461",
             "-4.93790088216690420608461286796"),
            (0.58, -0.0312, "-7.57122484860642667576336014831",
             "-0.312636257259117635978365520232"),
            (0.9, 0.07, "-3.11364790566628262153408231463",
             "-5.50541207308892623257578501712"),
            (1.2345, -0.0064, "-4.90380434970176002469215800729",
             "-4.231924417074340475725070148"),
            (2.75, 0.119, "-2.0435404076900518153759444615",
             "-7.561394438570690210145213259"),
            (4.1, -0.2, "-0.155082105185745771768372191796",
             "-5.08278112520147530620566841328"),
        ]),
    (0.0, 1): (
        [
            ((0, 0), 0.0, 0.0,
             "4.99999999999999865872820369506",
             "2.06703210982639826915931611179e-42"),
            ((3, 50), 0.028030062814450626, 0.024637879516012613,
             "-2.96028783696168835296446605824",
             "5.09734152614244815183481602513"),
            ((9, 17), 0.08409018844335188, 0.008376879035444288,
             "6.2681651687584065824773142028",
             "1.90397895814295438641240854893"),
            ((20, 30), 0.18686708542967084, 0.014782727709607566,
             "4.73771980754245947793478913682",
             "7.96910061756616588728713308813"),
            ((27, 63), 0.25227056533005565, 0.03104372819017589,
             "9.67500149726285079806644868784",
             "-10.2254887171937850089961624513"),
            ((36, 8), 0.3363607537734075, 0.003942060722562018,
             "0.785092416440466429457619881494",
             "-13.892843526121263131748140963"),
            ((44, 41), 0.41110758794527585, 0.02020306120313034,
             "-3.43314774515782979352779356726",
             "8.17978867572969859942358743018"),
            ((58, 25), 0.5419145477460454, 0.012318939758006306,
             "4.92767980296762351444349236999",
             "4.93398801169646455984057762325"),
            ((63, 57), 0.5886313191034631, 0.028087182648254376,
             "-3.34053019837459317086369613996",
             "4.03313185708775896553269965645"),
        ], [
            (-1.3, 0.0, "3.32744056457262677524079890095",
             "1.44252630459478463828200867698e-40"),
            (-0.47, -0.083, "7.0705572446142108091071518032",
             "-2.13332400805115941308380919672"),
            (0.0, 0.0211, "-1.34563041416552945008061122079",
             "6.41232511864356896390644081137"),
            (0.129, 0.0457, "-7.85828179620609133777506769019",
             "-1.78431989469782184857179416768"),
            (0.58, -0.0312, "-3.44165598097062703090288601862",
             "-3.61932671682995604320651991122"),
            (0.9, 0.07, "-6.67711557032061540011137504816",
             "-11.2646127308895259557571143576"),
            (1.2345, -0.0064, "5.81217721637579914646952381871",
             "-1.09016927672647924722439226139"),
            (2.75, 0.119, "-6.12822993555811343418113448012",
             "-4.73958334865408691652472343634"),
            (4.1, -0.2, "-4.96752519491270249862705272452",
             "-4.89995476524469290546423766922"),
        ]),
}


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

    def test_inconsistent_k0_amp2_refused(self, sp):
        # K0 is derived, so no constructor input reaches the check: a K0
        # off the imaginary axis, set past the frozen dataclass, makes
        # K0**2 and so |p|**2 complex
        sp_bad = dataclasses.replace(sp)
        object.__setattr__(sp_bad, "K0", sp.K0 * (1.0 + 1.0j))
        with pytest.raises(ArithmeticError, match="^squared amplitude came "
                           "out complex; delta or K0 is inconsistent$"):
            eval_amp2(0.1, 0.01, sp_bad)

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


class TestMpmathReferences:
    @pytest.mark.parametrize("lambda0, m", sorted(P_REFS))
    def test_grid_and_points(self, lambda0, m):
        # within 2e-15 of max|p|, the grid through its row-by-column
        # products (at lambda0 != 0, _theta_outer's), the points one by one
        curve = CurveParams(lambda0, 6.0, 8.0, 9.0)
        frb_plus = build_solution_params(curve).frb_plus
        sp_z = build_solution_params(curve, np.array([0.0,
                                                      0.5j * m * frb_plus]))
        lat = period_lattice(curve, sp_z.ell)
        spec = GridSpec(0.0, 2.0 * lat.X, 0.0, 2.0 * lat.T, 64, 64)
        xs, ts = spec.axes()
        values = sample_grid(spec, sp_z).values
        nodes, points = P_REFS[lambda0, m]
        assert [(xs[i], ts[j]) for (i, j), x, t, *_ in nodes] \
            == [(x, t) for _, x, t, *_ in nodes]
        x, t = np.array([row[:2] for row in points]).T
        got = np.concatenate([[values[ij] for ij, *_ in nodes],
                              eval_p(x, t, sp_z)])
        want = np.array([complex(float(re), float(im))
                         for *_, re, im in nodes + points])
        assert np.max(np.abs(got - want)) \
            <= 2e-15 * np.max(np.abs(values))


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

    def test_non_finite_sampled_field_refused(self):
        values = np.ones((5, 4), dtype=complex)
        values[2, 1] = complex(1.0, np.nan)
        with pytest.raises(ValueError, match="^field values must be finite$"):
            SampledField(grid=GridSpec(0.0, 0.3, 0.0, 0.01, 5, 4),
                         values=values)


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

    def test_failed_connector_decomposition_refused(self, monkeypatch):
        # no curve is known to reach the check: the residual that
        # connector_calibration returns is set above its 1e-8 bound
        calibration = solution.connector_calibration

        def off_lattice(a, b, c):
            return (*calibration(a, b, c)[:3], 1e-6)

        monkeypatch.setattr(solution, "connector_calibration", off_lattice)
        with pytest.raises(ArithmeticError, match=r"^connector vector fails "
                           r"its lattice decomposition \(1\.000e-06\)$"):
            general_theta_data(P689)

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


class TestThetaCalls:
    """Every numerator reads the denominator's u2 pair with theta2 negated
    (theta(u2 + 1)), so the u2 theta runs once per evaluation."""

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        real = getattr(solution, name)
        monkeypatch.setattr(solution, name,
                            lambda *a: calls.append(a) or real(*a))
        return calls

    def test_point_path(self, sp, monkeypatch):
        calls = self._count(monkeypatch, "jacobi_theta")
        eval_p(0.13, 0.021, sp)
        assert len(calls) == 3
        eval_amp2(0.13, 0.021, sp)
        assert len(calls) == 3 + 4

    def test_kappa2_zero_grid(self, sp, monkeypatch):
        calls = self._count(monkeypatch, "jacobi_theta")
        outer = self._count(monkeypatch, "_theta_outer")
        sample_grid(GridSpec(0.0, 0.5, 0.0, 0.03, 64, 48), sp)
        assert (len(calls), len(outer)) == (3, 0)

    def test_outer_grid_builds_one_product(self, monkeypatch):
        sp_l = build_solution_params(CurveParams(0.7, 6.0, 8.0, 9.0))
        calls = self._count(monkeypatch, "jacobi_theta")
        outer = self._count(monkeypatch, "_theta_outer")
        sample_grid(GridSpec(0.0, 0.5, 0.0, 0.03, 64, 48), sp_l)
        assert (len(calls), len(outer)) == (2, 1)


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
