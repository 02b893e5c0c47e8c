"""Evaluation of the two-phase solution p(x, t) and its squared amplitude.

The working formula is the Jacobi-theta quotient

    p(x, t) = -2i K0 * H(u1 + i*delta, u2 + 1) / H(u1, u2)
              * exp{2i K1 x + 2i K2 t},
    u1 = kappa1*t + 2*Z1,   u2 = k*x + kappa2*t + 2*Z2,

with H the two-factor combination from :mod:`thetawave.theta`.  The squared
amplitude has its own closed form (``eval_amp2``), which must agree with
|p|**2; the genus-2 Riemann-theta form (``eval_p_general``) provides a third,
structurally independent route that must agree up to one global phase.

Full grids (``sample_grid`` and the stencils of :mod:`thetawave.verify`) are
evaluated in row bands of at most ``_BAND_BYTES`` (1 MiB) of complex values
into one preallocated array, and the thetas that depend on t alone once per
grid; a grid that fits one band (verify's default 128**2 and 255**2) is one
call.  Bands bound the peak memory of a large grid without slowing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import (
    SolutionParams,
    build_solution_params,
    connector_calibration,
    period_matrix,
    wave_vectors,
)
from .elliptic import CurveParams
from .theta import _H, _theta_outer, jacobi_theta, riemann_theta2

__all__ = [
    "GridSpec",
    "SampledField",
    "eval_p",
    "eval_amp2",
    "sample_grid",
    "eval_p_general",
    "general_theta_data",
]

_DENOM_RTOL = 1e-13
_BAND_BYTES = 1 << 20  # bytes of complex values in one row band of a grid


@dataclass(frozen=True)
class GridSpec:
    """Rectangular (x, t) evaluation grid."""

    x0: float
    x1: float
    t0: float
    t1: float
    nx: int
    nt: int

    def __post_init__(self):
        if not (np.all(np.isfinite([self.x0, self.x1, self.t0, self.t1]))
                and self.x1 > self.x0 and self.t1 > self.t0):
            raise ValueError("need finite x0 < x1 and t0 < t1")
        if self.nx < 2 or self.nt < 2:
            raise ValueError("need nx >= 2 and nt >= 2")

    def axes(self):
        return (np.linspace(self.x0, self.x1, self.nx),
                np.linspace(self.t0, self.t1, self.nt))


@dataclass(frozen=True)
class SampledField:
    """Complex field values on a grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.nx, self.grid.nt):
            raise ValueError("values must be an nx-by-nt matrix")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)


def _reduced_phase(Z):
    """Z less the nearest integer to each Re Z_j (half to even).  p is
    1-periodic in each Re Z_j, so this costs a large real phase no
    precision; |Re Z_j| <= 1/2 passes bit for bit."""
    return Z - np.array([float(round(float(r))) for r in Z.real])


def _quotient_terms(t, sp: SolutionParams, signs):
    """x -> (den, nums): the denominator H(u1, u2), which must stay clear of
    zero, and the numerators H(u1 + s*i*delta, u2 + s) for s in ``signs``,
    where u1 = kappa1*t + 2*Z1 and u2 = k*x + kappa2*t + 2*Z2.  What depends
    on t alone is computed here once, so row bands of a grid that share one
    row t compute it once.

    At kappa2 = 0, u2 is formed on x's shape alone and broadcasting against
    u1 forms the grid, so a theta runs on n points instead of n**2.  With
    kappa2 != 0 on an outer grid (x a column, t a row), the u2 thetas are
    ``_theta_outer``'s column-by-row products.  Other inputs are evaluated
    point by point."""
    t = np.asarray(t)
    tau1 = 2j * sp.frb_minus
    tau2 = 2j * sp.frb_plus
    z = _reduced_phase(sp.Z)
    u1 = sp.kappa1 * t + 2.0 * z[0]
    c = 2.0 * z[1]
    theta1 = [(jacobi_theta(3, u, tau1), jacobi_theta(2, u, tau1))
              for u in [u1] + [u1 + s * 1j * sp.delta for s in signs]]
    row = sp.kappa2 != 0.0 and t.ndim == 2 and t.shape[0] == 1
    if row:
        bt = sp.kappa2 * t
        outer = [(_theta_outer(3, bt, cs, tau2), _theta_outer(2, bt, cs, tau2))
                 for cs in [c] + [c + s for s in signs]]

    def terms(x):
        x = np.asarray(x)
        if row and x.ndim == 2 and x.shape[1] == 1:
            kx = sp.k * x
            theta2 = ((f3(kx), f2(kx)) for f3, f2 in outer)
        else:
            u2 = (sp.k * x + c if sp.kappa2 == 0.0
                  else sp.k * x + sp.kappa2 * t + c)
            theta2 = ((jacobi_theta(3, u, tau2), jacobi_theta(2, u, tau2))
                      for u in [u2] + [u2 + s for s in signs])
        (t31, t21), (t32, t22) = theta1[0], next(theta2)
        den = _H(t31, t21, t32, t22)
        scale = (np.abs(t31) + np.abs(t21)) * (np.abs(t32) + np.abs(t22))
        if np.any(np.abs(den) < _DENOM_RTOL * scale):
            raise ArithmeticError(
                "theta denominator vanishes; the solution parameters do not "
                "describe a smooth real solution"
            )
        del t32, t22, scale  # grid-sized; free them before the numerators
        return den, [_H(*a, *b) for a, b in zip(theta1[1:], theta2)]

    return terms


def _p_at(t, sp: SolutionParams):
    """x -> p(x, t), with what depends on t alone computed once."""
    terms = _quotient_terms(t, sp, (1.0,))
    # Im Z1 = n*frb_minus moves u1 by n quasi-periods tau1 = 2i*frb_minus;
    # theta(u + n*tau1) = exp(-i*pi*n^2*tau1 - 2*pi*i*n*u) theta(u), so the
    # numerator's extra i*delta leaves exp(2*pi*n*delta) in the quotient
    n = sp.Z[0].imag / sp.frb_minus

    def p(x):
        den, (num,) = terms(x)
        phase = np.exp(2j * (sp.K1 * np.asarray(x) + sp.K2 * np.asarray(t))
                       - 2.0 * np.pi * n * sp.delta)
        out = -2j * sp.K0 * num / den * phase
        return complex(out) if np.ndim(out) == 0 else out

    return p


def eval_p(x, t, sp: SolutionParams):
    """The solution p(x, t).  Vectorized over broadcastable x, t."""
    return _p_at(t, sp)(x)


def _require_witness(sp: SolutionParams):
    """Refuse a phase Z without a reality witness: the field is not real."""
    if sp.witness is None:
        raise ValueError("complex initial phase Z fails the reality condition "
                         "2 Im Z = Im(B N); the amplitude would not be real")


def eval_amp2(x, t, sp: SolutionParams):
    """|p|**2 by its own closed form.

    Must come out real and non-negative; a complex initial phase Z is
    accepted only when the reality condition has an integer witness.
    """
    _require_witness(sp)
    den, (plus, minus) = _quotient_terms(t, sp, (1.0, -1.0))(x)
    val = -4.0 * sp.K0 ** 2 * plus * minus / (den * den)
    mag = np.abs(val)
    if np.any(np.abs(np.imag(val)) > 1e-10 * np.maximum(mag, 1.0)):
        raise ArithmeticError(
            "squared amplitude came out complex; delta or K0 is inconsistent"
        )
    out = np.real(val)
    return float(out) if np.ndim(out) == 0 else out


def _in_bands(band, n, m):
    """The (n, m) complex array whose rows r hold ``band(r)``, for row
    slices r of at most ``_BAND_BYTES`` of values each.  An array that fits
    one band is ``band(slice(0, n))`` itself: no preallocation, no copy.
    Bands split the rows evenly, so none is a single row while a band holds
    three or more: numpy takes a one-row matrix product as a vector
    product, whose rounding differs."""
    rows = max(1, _BAND_BYTES // (16 * m))
    if n <= rows:
        return band(slice(0, n))
    k = -(-n // rows)
    out = np.empty((n, m), dtype=complex)
    for i in range(k):
        r = slice(i * n // k, (i + 1) * n // k)
        out[r] = band(r)
    return out


def sample_grid(spec: GridSpec, sp: SolutionParams) -> SampledField:
    """Evaluate p on the full grid, in row bands (each vectorized over t)."""
    xs, ts = spec.axes()
    p = _p_at(ts[None, :], sp)
    values = _in_bands(lambda r: p(xs[r, None]), spec.nx, spec.nt)
    return SampledField(grid=spec, values=values)


# ---------------------------------------------------------------------------
# the genus-2 Riemann-theta route

def general_theta_data(params: CurveParams, Z=None):
    """The ingredients of the genus-2 form: the solution params, period
    matrix B, wave vectors, connector vector D and the phase constants
    adjusted for D's lattice representative (``eval_p_general``'s data)."""
    sp = build_solution_params(params, Z)
    B = period_matrix(params)
    wv = wave_vectors(params)
    D, n, _, resid = connector_calibration(params.a, params.b, params.c)
    if resid > 1e-8:
        raise ArithmeticError(
            f"connector vector fails its lattice decomposition ({resid:.3e})"
        )
    # moving D by the lattice vector m + B n multiplies the theta quotient
    # by exp(-2*pi*i*n.(Ux + Vt + Z)) plus a constant; fold the linear part
    # into the plane-wave constants
    K1g = sp.K1 - math.pi * float(n @ wv.U)
    K2g = sp.K2 - math.pi * float(n @ wv.V)
    return sp, B, wv, D, K1g, K2g


def eval_p_general(x, t, params: CurveParams, data=None):
    """p(x, t) through the genus-2 Riemann theta directly.  Vectorized over
    broadcastable x, t.

    Agrees with ``eval_p`` in modulus exactly and in phase up to one global
    unimodular constant (the free normalization of the general form).
    ``data`` is ``general_theta_data(params, Z)``, which carries the phase
    Z; without it Z = 0.  Data of another curve is a ValueError.
    """
    if data is None:
        data = general_theta_data(params)
    elif params != data[0].curve:
        raise ValueError("data must come from params")
    sp, B, wv, D, K1g, K2g = data
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(t, dtype=float))
    # v2 = -x/A+ runs against u2 = 2x/A+ in eval_p and theta is even in
    # its second slot, so the phase enters v as (Z1, -Z2)
    z = _reduced_phase(sp.Z) * np.array([1.0, -1.0])
    # Im z = Im(B) M moves v by B M off a real point; theta(v + B M)
    # = exp(-i*pi*M.B.M - 2*pi*i*M.v) theta(v), so the shift by -D leaves
    # exp(2*pi*i*M.D) in the quotient
    quasi = 2j * np.pi * (B.b_coordinates(z) @ D)
    # U and V are real, so Im v = Im z at every point: one lattice box
    v = x[..., None] * wv.U + t[..., None] * wv.V + z
    out = (-2j * sp.K0 * riemann_theta2(v - D, B) / riemann_theta2(v, B)
           * np.exp(2j * (K1g * x + K2g * t) - quasi))
    return complex(out) if np.ndim(out) == 0 else out
