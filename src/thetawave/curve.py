"""From curve parameters to the full parameter set of the two-phase solution.

Everything here works on the centred curve w**2 = (mu**2 + a**2)
(mu**2 + b**2)(mu**2 + c**2), obtained by shifting the spectral parameter by
lambda0.  The branch cuts are the vertical segments [ia, ib], [-ib, -ia] and
the two rays [ic, i*inf), [-i*inf, -ic].  The second-kind differentials

    dOmega1 = -i (mu**3 + p1*mu) / w dmu,
    dOmega2 = -i (4*mu**4 + 2*s1*mu**2 + q0) / w dmu,

are normalized to have vanishing a-periods; p1 kills the odd moment over the
a2-type cycle and q0 the even moment over the a1-type cycle.  Their
asymptotic constants K1, K2 give the plane-wave phase of the solution, and
their b-periods must reproduce 2*pi*i times the closed-form wave vectors U
and V, which is what ``b_period_errors`` measures.

The constants are extracted along the path from the branch point i*a down
the imaginary axis to 0 and out the positive real axis, where w**2 > 0 keeps
the principal square root trivially on one sheet.  The tail integrands are
conjugate-rationalized so the subtraction of the growing part costs no
precision.  One-sided paths of this kind determine the constants only up to
half b-periods; the returned values carry the fixed offsets (+pi/A+ for the
first constant, +2*pi/A- for the second) that select the representative
entering the theta-function solution.  Both offsets are pinned down
numerically by an independent PDE-residual fit and by the degenerate limits
of the solution.

Everything the solution takes from the curve depends on (a, b, c) alone: the
seven integrals, p1, q0, the centred K2, delta, K0 and B.  One memoized
record per (a, b, c) holds them; lambda0 and Z enter ``SolutionParams``
only as closed-form transforms (K1 = -lambda0, K2 - 2*lambda0**2,
kappa2 = 8*lambda0/A+, the theta-argument shift 2Z) and Z's witness.  The
centred K1 vanishes identically; ``second_kind_constants`` computes it on
demand, as a cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._quad import tanh_sinh
from .elliptic import (
    CurveParams,
    EllipticConstants,
    _naming_curve,
    curve_integrals,
)
from .theta import PeriodMatrix

__all__ = [
    "SolutionParams",
    "WaveVectors",
    "PeriodLattice",
    "build_solution_params",
    "phase_constants",
    "second_kind_constants",
    "wave_vectors",
    "period_matrix",
    "period_lattice",
    "reality_check",
    "b_period_errors",
    "connector_calibration",
]

# largest mismatch of a reality witness: |Im(B N) - 2 Im Z| and the
# distance of Re(B N) from the integers
_REALITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SolutionParams:
    """Everything the theta-quotient solution formula needs.  Only the
    curve, the phase Z and K2 are set; the other fields are read off the
    curve's record, so they always describe the curve.  ``witness`` is
    Z's reality witness N (``reality_check``), None when Z has none."""

    curve: CurveParams
    Z: np.ndarray
    K2: float
    frb_minus: float = field(init=False)
    frb_plus: float = field(init=False)
    kappa1: float = field(init=False)
    k: float = field(init=False)
    kappa2: float = field(init=False)
    delta: float = field(init=False)
    K0: complex = field(init=False)
    K1: float = field(init=False)
    ell: EllipticConstants = field(init=False)
    witness: np.ndarray | None = field(init=False)

    def __post_init__(self):
        if self.curve is None:
            raise ValueError("solution params need curve provenance")
        z = np.asarray(self.Z, dtype=complex)
        if z.shape != (2,) or not np.all(np.isfinite(z)):
            raise ValueError("initial phase Z must be a finite complex "
                             "2-vector")
        cd = _curve_data(self.curve.a, self.curve.b, self.curve.c)
        ell, lam0 = cd.ell, self.curve.lambda0
        for name, val in (
                ("Z", z), ("frb_minus", cd.frb_minus),
                ("frb_plus", cd.frb_plus), ("kappa1", 4.0 / ell.a_minus),
                ("k", 2.0 / ell.a_plus), ("kappa2", 8.0 * lam0 / ell.a_plus),
                ("delta", cd.delta), ("K0", cd.K0), ("K1", -lam0),
                ("ell", ell), ("witness", reality_check(z, cd.B)[1])):
            object.__setattr__(self, name, val)


@dataclass(frozen=True)
class WaveVectors:
    """Wave vectors U = (0, -1/A+) and V = (2/A-, -4*lambda0/A+)."""

    U: np.ndarray
    V: np.ndarray


@dataclass(frozen=True)
class PeriodLattice:
    """Translations (X_j, T_j) with X_j U + T_j V = e_j, and the basic
    periods X = A+/2, T = A-/4, Tprime = A+/(8*lambda0) (None at lambda0=0).
    """

    X1: float
    T1: float
    X2: float
    T2: float
    X: float
    T: float
    Tprime: float | None


# ---------------------------------------------------------------------------
# the second-kind differentials: normalization and asymptotic constants

def _axis_moment(j, a, b, c):
    """int_0^a y**j dy / sqrt((a^2-y^2)(b^2-y^2)(c^2-y^2))."""
    def f(u, v):
        y = u
        return y ** j / np.sqrt(
            v * (2.0 * a - v) * (b - y) * (b + y) * (c - y) * (c + y)
        )
    return tanh_sinh(f, a)


def _cut_integral(f, a, b, c):
    """int_a^b f(y) dy / sqrt(g) over the cut [ia, ib],
    g = (y^2-a^2)(b^2-y^2)(c^2-y^2)."""
    def integrand(u, v):
        y = a + u
        return f(y) / np.sqrt(u * (y + a) * v * (y + b) * (c - y) * (c + y))
    return tanh_sinh(integrand, b - a)


def _w_real(x, a, b, c):
    return np.sqrt((x * x + a * a) * (x * x + b * b) * (x * x + c * c))


def _real_axis_tail(near_f, far_f, c):
    """Integrate over (0, inf), split at c.  ``near_f(x)`` covers (0, c);
    ``far_f(y)`` is the integrand after x = c/y (Jacobian included), written
    in the reciprocal variable so huge x never appears."""
    return (tanh_sinh(lambda u, v: near_f(u), c)
            + tanh_sinh(lambda u, v: far_f(u), 1.0))


@dataclass(frozen=True)
class _CurveData:
    """What the solution takes from the centred curve (a, b, c): p1, q0,
    the centred k2, and the period data frb-, frb+, delta, K0, B."""

    ell: EllipticConstants
    p1: float
    q0: float
    k2: float
    frb_minus: float
    frb_plus: float
    delta: float
    K0: complex
    B: PeriodMatrix


@functools.lru_cache(maxsize=256)
def _curve_data(a, b, c):
    ell = curve_integrals(CurveParams(0.0, a, b, c))
    with _naming_curve(a, b, c):
        a2, b2, c2 = a * a, b * b, c * c
        s1 = a2 + b2 + c2
        e2 = a2 * b2 + a2 * c2 + b2 * c2
        e3 = a2 * b2 * c2
        # a-cycle normalization of dOmega1 and dOmega2
        p1 = (_cut_integral(lambda y: y ** 3, a, b, c)
              / _cut_integral(lambda y: y ** 1, a, b, c))
        q0 = -(4.0 * _axis_moment(4, a, b, c)
               - 2.0 * s1 * _axis_moment(2, a, b, c)) \
            / _axis_moment(0, a, b, c)

        a4_2 = 4.0 * s1 * s1 + 8.0 * q0 - 16.0 * e2
        a2_2 = 4.0 * s1 * q0 - 16.0 * e3
        a0_2 = q0 * q0

        def r2_near(x):
            w = _w_real(x, a, b, c)
            n = 4.0 * x ** 4 + 2.0 * s1 * x * x + q0
            x2 = x * x
            return ((a4_2 * x2 + a2_2) * x2 + a0_2) / (w * (n + 4.0 * x * w))

        def r2_far(u):
            # x = c/u; numerator over x**8, denominator over x**7
            y2 = (u / c) ** 2
            W = np.sqrt((1.0 + a * a * y2) * (1.0 + b * b * y2)
                        * (1.0 + c * c * y2))
            num = (u / (c * c)) * (a4_2 + y2 * (a2_2 + y2 * a0_2))
            den = W * (4.0 + 2.0 * s1 * y2 + q0 * y2 * y2 + 4.0 * W)
            return num / den

        k2 = _real_axis_tail(r2_near, r2_far, c) + 2.0 * math.pi / ell.a_minus
    frbm = ell.b_minus / ell.a_minus
    frbp = ell.b_plus / ell.a_plus
    delta = ell.b1_minus / ell.a_minus
    K0 = 1j * c * math.exp(ell.d_minus * delta - ell.f_minus)
    return _CurveData(ell, p1, q0, k2, frbm, frbp, delta, K0,
                      PeriodMatrix.from_ratios(frbm, frbp))


def second_kind_constants(a, b, c):
    """Asymptotic constants (first, second) of the normalized second-kind
    Abelian integrals on the centred curve, in the representative entering
    the solution formula.  The first constant vanishes identically for this
    symmetric family; only this cross-check computes it, on demand."""
    cd = _curve_data(a, b, c)
    p1, a2, b2, c2 = cd.p1, a * a, b * b, c * c
    with _naming_curve(a, b, c):
        # vertical leg from i*a to 0 contributes only to the first constant
        k1_vert = p1 * _axis_moment(1, a, b, c) - _axis_moment(3, a, b, c)
        a4_1 = 2.0 * p1 - (a2 + b2 + c2)
        a2_1 = p1 * p1 - (a2 * b2 + a2 * c2 + b2 * c2)
        a0_1 = -(a2 * b2 * c2)

        def r1_near(x):
            w = _w_real(x, a, b, c)
            n = x ** 3 + p1 * x
            x2 = x * x
            return ((a4_1 * x2 + a2_1) * x2 + a0_1) / (w * (n + w))

        def r1_far(u):
            # x = c/u; everything divided through by x**6
            y2 = (u / c) ** 2
            W = np.sqrt((1.0 + a * a * y2) * (1.0 + b * b * y2)
                        * (1.0 + c * c * y2))
            num = (a4_1 + y2 * (a2_1 + y2 * a0_1)) / c
            return num / (W * (1.0 + p1 * y2 + W))

        return (k1_vert + _real_axis_tail(r1_near, r1_far, c)
                + math.pi / cd.ell.a_plus), cd.k2


def phase_constants(a, b, c):
    """The second asymptotic constant (the plane-wave frequency content of
    the solution before the lambda0 shift)."""
    return _curve_data(a, b, c).k2


# ---------------------------------------------------------------------------
# pipeline

def build_solution_params(params: CurveParams, Z=None) -> SolutionParams:
    """The centred curve's record with lambda0 and Z applied."""
    k2 = _curve_data(params.a, params.b, params.c).k2
    Z = np.zeros(2, dtype=complex) if Z is None else Z
    return SolutionParams(params, Z, k2 - 2.0 * params.lambda0 ** 2)


def wave_vectors(params: CurveParams):
    ell = curve_integrals(params)
    U = np.array([0.0, -1.0 / ell.a_plus])
    V = np.array([2.0 / ell.a_minus, -4.0 * params.lambda0 / ell.a_plus])
    return WaveVectors(U=U, V=V)


def period_matrix(params: CurveParams):
    """B of the curve (a, b, c), read from its record."""
    return _curve_data(params.a, params.b, params.c).B


def period_lattice(params: CurveParams, ell: EllipticConstants | None = None):
    """Solve X_j U + T_j V = e_j in closed form."""
    ell = ell or curve_integrals(params)
    wv = wave_vectors(params)
    M = np.column_stack([wv.U, wv.V])  # [X_j, T_j] solves M @ (X, T) = e_j
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if det == 0.0:
        raise ValueError("wave vectors are linearly dependent")
    inv = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det
    s1 = inv @ np.array([1.0, 0.0])
    s2 = inv @ np.array([0.0, 1.0])
    lam0 = params.lambda0
    return PeriodLattice(
        X1=s1[0], T1=s1[1], X2=s2[0], T2=s2[1],
        X=ell.a_plus / 2.0,
        T=ell.a_minus / 4.0,
        Tprime=None if lam0 == 0.0 else ell.a_plus / (8.0 * lam0),
    )


def reality_check(Z, B: PeriodMatrix):
    """The integer witness N with 2*Im Z = Im(B N) and Re(B N) integral.
    Im B is positive definite, so the only candidate is the rounded
    B-coordinate vector of 2Z.  Returns (found, N or None); no N once
    |Im Z_j| > 2**51 * _REALITY_TOL/10 (2.2e5), where binary64 cannot tell."""
    Z = np.asarray(Z, dtype=complex)
    # written as <= here and below so that a NaN phase is refused
    if not np.all(2.0 * np.abs(Z.imag) * 2.0 ** -52 <= _REALITY_TOL / 10.0):
        return False, None
    N = np.round(B.b_coordinates(2.0 * Z))
    BN = B.entries @ N
    ok = (np.all(np.abs(BN.imag - 2.0 * Z.imag) <= _REALITY_TOL)
          and np.all(np.abs(BN.real - np.round(BN.real)) <= _REALITY_TOL))
    return (True, N.astype(int)) if ok else (False, None)


# ---------------------------------------------------------------------------
# contour cross-checks on the curve

def _segment_cut(poly, a, b, c):
    """2 * int over the cut segment [ia, ib]: 2 int_a^b poly(iy)/sqrt(g) dy,
    g = (y^2-a^2)(b^2-y^2)(c^2-y^2)."""
    return 2.0 * _cut_integral(lambda y: poly(1j * y), a, b, c)


def _segment_between(poly, a, b, c):
    """2 * int over [ib, ic] (off the cuts, w real there):
    2 int_b^c poly(iy)*i/sqrt(g) dy, g = (y^2-a^2)(y^2-b^2)(c^2-y^2)."""
    def f(u, v):
        y = b + u
        g = (y - a) * (y + a) * u * (y + b) * v * (c + y)
        return poly(1j * y) * 1j / np.sqrt(g)
    return 2.0 * tanh_sinh(f, c - b)


def b_period_errors(params: CurveParams):
    """Absolute errors of the contour b-periods against the closed forms.

    Checks the columns of the solution's B (holomorphic differentials) and
    b-periods(dOmega1, dOmega2) = 2*pi*i*(U, V), with the centred curve's
    ``wave_vectors`` (lambda0 = 0)."""
    a, b, c = params.a, params.b, params.c
    cd = _curve_data(a, b, c)
    B = cd.B.entries
    wv = wave_vectors(CurveParams(0.0, a, b, c))
    U, V = 2j * math.pi * wv.U, 2j * math.pi * wv.V
    s1 = a * a + b * b + c * c

    dU1 = lambda mu: 1j / (2.0 * cd.ell.a_minus) + 0.0 * mu
    dU2 = lambda mu: -1j * mu / (2.0 * cd.ell.a_plus)
    dO1 = lambda mu: -1j * (mu ** 3 + cd.p1 * mu)
    dO2 = lambda mu: -1j * (4.0 * mu ** 4 + 2.0 * s1 * mu * mu + cd.q0)

    with _naming_curve(a, b, c):
        return {
            "B11": abs(_segment_cut(dU1, a, b, c) - B[0, 0]),
            # the symmetric b1 representative: the cut route minus the
            # second a-cycle, whose one nonzero period is dU2's normalization 1
            "B12": abs(_segment_cut(dU2, a, b, c) - 1.0 - B[0, 1]),
            "B21": abs(_segment_between(dU1, a, b, c) - B[1, 0]),
            "B22": abs(_segment_between(dU2, a, b, c) - B[1, 1]),
            "U1": abs(_segment_cut(dO1, a, b, c) - U[0]),
            "U2": abs(_segment_between(dO1, a, b, c) - U[1]),
            "V1": abs(_segment_cut(dO2, a, b, c) - V[0]),
            "V2": abs(_segment_between(dO2, a, b, c) - V[1]),
        }


# ---------------------------------------------------------------------------
# connector vector between the two points at infinity

def _connector_vector(a, b, c):
    """The vector of normalized holomorphic integrals between the two points
    at infinity, computed as twice the integral from the branch point i*c
    along the straight path i*c + s, s in (0, inf).

    Along that path every factor of w**2 stays in the upper half plane, so
    the principal square root of each factor is continuous and the branch
    with w ~ +mu**3 at infinity is selected automatically."""
    ell = curve_integrals(CurveParams(0.0, a, b, c))

    def w_path(s):
        mu = s + 1j * c
        f_c = np.sqrt(s * (s + 2j * c))
        return mu, f_c * np.sqrt(mu * mu + a * a) * np.sqrt(mu * mu + b * b)

    def f_near(num):
        def f(s):
            mu, w = w_path(s)
            return num(mu) / w
        return f

    def g_of(h):
        # w = s**3 * g(h) with h = u/c = 1/s; every factor tends to 1
        one = (1.0 + 1j * c * h) ** 2
        return (np.sqrt(1.0 + 2j * c * h)
                * np.sqrt(one + a * a * h * h)
                * np.sqrt(one + b * b * h * h))

    def f_far_const(u):
        # integrand dmu/w after s = c/u, with the Jacobian c/u**2
        return u / (c * c * g_of(u / c))

    def f_far_mu(u):
        # integrand mu*dmu/w after the same substitution
        return (1.0 + 1j * c * (u / c)) / (c * g_of(u / c))

    return np.array([
        1j / ell.a_minus * _real_axis_tail(f_near(lambda mu: 1.0),
                                           f_far_const, c),
        -1j / ell.a_plus * _real_axis_tail(f_near(lambda mu: mu), f_far_mu, c),
    ])


def connector_calibration(a, b, c):
    """Express the computed connector vector as the canonical representative
    (-i*delta/2, -1/2) plus a lattice vector m + B n of the period matrix.

    Returns (D, n, m, residual): the computed vector, the integer lattice
    coordinates, and the leftover after subtracting the decomposition, which
    measures the internal consistency of the contour machinery.  n is the
    rounded B-coordinate vector of D minus the representative, and m the
    rounded real part of what B n leaves."""
    cd = _curve_data(a, b, c)
    D = _connector_vector(a, b, c)
    offset = D - np.array([-0.5j * cd.delta, -0.5])
    n = np.round(cd.B.b_coordinates(offset))
    r = offset - cd.B.entries @ n
    m = np.round(r.real)
    return D, n.astype(int), m.astype(int), float(np.max(np.abs(r - m)))
