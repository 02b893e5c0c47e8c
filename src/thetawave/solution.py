"""Evaluation of the two-phase solution p(x, t) and its squared amplitude.

The working formula is the Jacobi-theta quotient

    p(x, t) = -2i K0 * H(u1 + i*delta, u2 + 1) / H(u1, u2)
              * exp{2i K1 x + 2i K2 t},
    u1 = kappa1*t + 2*Z1,   u2 = k*x + kappa2*t + 2*Z2,

with H the two-factor combination from :mod:`thetawave.theta`.  The squared
amplitude has its own closed form (``eval_amp2``), which must agree with
|p|**2; the genus-2 Riemann-theta form (``eval_p_general``) provides a third,
structurally independent route that must agree up to one global phase.
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
    reality_check,
    wave_vectors,
)
from .elliptic import CurveParams
from .theta import _H_with_scale, riemann_theta2

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
        if not (self.x1 > self.x0 and self.t1 > self.t0):
            raise ValueError("need x1 > x0 and t1 > t0")
        if self.nx < 2 or self.nt < 2:
            raise ValueError("need nx >= 2 and nt >= 2")

    def axes(self):
        return (np.linspace(self.x0, self.x1, self.nx),
                np.linspace(self.t0, self.t1, self.nt))


@dataclass(frozen=True)
class SampledField:
    """Complex field values on a grid, with provenance."""

    grid: GridSpec
    values: np.ndarray
    params: SolutionParams

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.nx, self.grid.nt):
            raise ValueError("values must be an nx-by-nt matrix")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)


def _quotient_terms(x, t, sp: SolutionParams, signs):
    """The denominator H(u1, u2), which must stay clear of zero, and the
    numerators H(u1 + s*i*delta, u2 + s) for s in ``signs``, where
    u1 = kappa1*t + 2*Z1 and u2 = k*x + kappa2*t + 2*Z2.

    At kappa2 = 0, u2 is formed on x's shape alone and broadcasting against
    u1 forms the grid, so a theta runs on n points instead of n**2.  With
    kappa2 != 0 on an outer grid (x a column, t a row), u2 goes to the theta
    as the separable triple (k*x, kappa2*t, 2*Z2).  Other inputs are
    evaluated point by point."""
    x = np.asarray(x)
    t = np.asarray(t)
    u1 = sp.kappa1 * t + 2.0 * sp.Z[0]
    c = 2.0 * sp.Z[1]
    if sp.kappa2 == 0.0:
        u2 = sp.k * x + c
        shift = lambda s: u2 + s
    elif x.ndim == t.ndim == 2 and x.shape[1] == 1 and t.shape[0] == 1:
        u2 = (sp.k * x, sp.kappa2 * t, c)
        shift = lambda s: u2[:2] + (c + s,)
    else:
        u2 = sp.k * x + sp.kappa2 * t + c
        shift = lambda s: u2 + s
    den, scale = _H_with_scale(u1, u2, sp.frb_minus, sp.frb_plus)
    if np.any(np.abs(den) < _DENOM_RTOL * scale):
        raise ArithmeticError(
            "theta denominator vanishes; the solution parameters do not "
            "describe a smooth real solution"
        )
    nums = [_H_with_scale(u1 + s * 1j * sp.delta, shift(s),
                          sp.frb_minus, sp.frb_plus)[0] for s in signs]
    return den, nums


def eval_p(x, t, sp: SolutionParams):
    """The solution p(x, t).  Vectorized over broadcastable x, t."""
    den, (num,) = _quotient_terms(x, t, sp, (1.0,))
    # Im Z1 = n*frb_minus moves u1 by n quasi-periods tau1 = 2i*frb_minus;
    # theta(u + n*tau1) = exp(-i*pi*n^2*tau1 - 2*pi*i*n*u) theta(u), so the
    # numerator's extra i*delta leaves exp(2*pi*n*delta) in the quotient
    n = sp.Z[0].imag / sp.frb_minus
    phase = np.exp(2j * (sp.K1 * np.asarray(x) + sp.K2 * np.asarray(t))
                   - 2.0 * np.pi * n * sp.delta)
    out = -2j * sp.K0 * num / den * phase
    return complex(out) if np.ndim(out) == 0 else out


def eval_amp2(x, t, sp: SolutionParams):
    """|p|**2 by its own closed form.

    Must come out real and non-negative; a complex initial phase Z is
    accepted only when the reality condition has an integer witness.
    """
    if np.any(sp.Z.imag != 0.0):
        ok, _ = reality_check(sp.Z, period_matrix(sp.curve))
        if not ok:
            raise ValueError(
                "complex initial phase Z fails the reality condition "
                "2 Im Z = Im(B N); the amplitude would not be real"
            )
    den, (plus, minus) = _quotient_terms(x, t, sp, (1.0, -1.0))
    val = -4.0 * sp.K0 ** 2 * plus * minus / (den * den)
    mag = np.abs(val)
    if np.any(np.abs(np.imag(val)) > 1e-10 * np.maximum(mag, 1.0)):
        raise ArithmeticError(
            "squared amplitude came out complex; delta or K0 is inconsistent"
        )
    out = np.real(val)
    return float(out) if np.ndim(out) == 0 else out


def sample_grid(spec: GridSpec, sp: SolutionParams) -> SampledField:
    """Evaluate p on the full grid (rows vectorized over t)."""
    xs, ts = spec.axes()
    values = eval_p(xs[:, None], ts[None, :], sp)
    return SampledField(grid=spec, values=values, params=sp)


# ---------------------------------------------------------------------------
# the genus-2 Riemann-theta route

def general_theta_data(params: CurveParams, Z=None):
    """Assemble the ingredients of the genus-2 form: the period matrix B,
    wave vectors, connector vector D with its lattice coordinates, and the
    phase constants adjusted for the lattice representative of D."""
    sp = build_solution_params(params, Z)
    B = period_matrix(params)
    wv = wave_vectors(params, sp.ell)
    D, n, m, resid = connector_calibration(params.a, params.b, params.c)
    if resid > 1e-8:
        raise ArithmeticError(
            f"connector vector fails its lattice decomposition ({resid:.3e})"
        )
    # moving D by the lattice vector m + B n multiplies the theta quotient
    # by exp(-2*pi*i*n.(Ux + Vt + Z)) plus a constant; fold the linear part
    # into the plane-wave constants
    K1g = sp.K1 - math.pi * float(n @ wv.U)
    K2g = sp.K2 - math.pi * float(n @ wv.V)
    return sp, B, wv, D, n, K1g, K2g


def eval_p_general(x, t, params: CurveParams, Z=None, data=None):
    """p(x, t) through the genus-2 Riemann theta directly.  Vectorized over
    broadcastable x, t.

    Agrees with ``eval_p`` in modulus exactly and in phase up to one global
    unimodular constant (the free normalization of the general form).
    ``data`` may carry a precomputed ``general_theta_data`` result.
    """
    if data is None:
        data = general_theta_data(params, Z)
    sp, B, wv, D, n, K1g, K2g = data
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(t, dtype=float))
    # v2 = -x/A+ runs against u2 = 2x/A+ in eval_p and theta is even in
    # its second slot, so the phase enters v as (Z1, -Z2)
    z = sp.Z * np.array([1.0, -1.0])
    # Im z = Im(B) M moves v by B M off a real point; theta(v + B M)
    # = exp(-i*pi*M.B.M - 2*pi*i*M.v) theta(v), so the shift by -D leaves
    # exp(2*pi*i*M.D) in the quotient
    quasi = 2j * np.pi * (B.b_coordinates(z) @ D)
    # U and V are real, so Im v = Im z at every point: one lattice box
    v = x[..., None] * wv.U + t[..., None] * wv.V + z
    out = (-2j * sp.K0 * riemann_theta2(v - D, B) / riemann_theta2(v, B)
           * np.exp(2j * (K1g * x + K2g * t) - quasi))
    return complex(out) if np.ndim(out) == 0 else out
