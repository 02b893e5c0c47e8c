"""Independent numerical verification of the evaluated solution.

Three mutually independent instruments: finite-difference residuals of the
governing equation i p_t + p_xx + 2|p|**2 p = 0 with Richardson order
estimates, a Strang split-step Fourier evolution compared against the
analytic field at a later time, and a ledger of symmetry, periodicity and
reality checks.  A frequency-fit variant of the residual pins down the
plane-wave constant K2 without assuming its value.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .curve import SolutionParams, build_solution_params, period_lattice
from .elliptic import CurveParams
from .solution import GridSpec, eval_amp2, eval_p

__all__ = [
    "ResidualReport",
    "field_residual",
    "nls_residual",
    "residual_fit_k2",
    "split_step_evolve",
    "symmetry_suite",
]


@dataclass(frozen=True)
class ResidualReport:
    """Normalized residual of the governing equation on a grid."""

    grid: GridSpec
    residual_norm: float
    order_estimate: float


def _stencil_residual(field, spec: GridSpec, order):
    """Field values p on the grid interior and i p_t + p_xx + 2|p|**2 p
    there, by fourth-order central differences (``order`` must be 4)."""
    if order != 4:
        raise ValueError(f"stencil order must be 4, got {order}")
    if min(spec.nx, spec.nt) <= 4:
        # the stencil needs 2 nodes on each side of an interior node
        raise ValueError(f"an order-4 stencil needs nx and nt above 4, got "
                         f"nx={spec.nx}, nt={spec.nt}")
    xs, ts = spec.axes()
    h = xs[1] - xs[0]
    k = ts[1] - ts[0]
    X = xs[2:-2][:, None]
    T = ts[2:-2][None, :]
    p = field(X, T)
    pxx = (-field(X + 2 * h, T) + 16.0 * field(X + h, T) - 30.0 * p
           + 16.0 * field(X - h, T) - field(X - 2 * h, T)) / (12.0 * h ** 2)
    pt = (-field(X, T + 2 * k) + 8.0 * field(X, T + k)
          - 8.0 * field(X, T - k) + field(X, T - 2 * k)) / (12.0 * k)
    return p, 1j * pt + pxx + 2.0 * np.abs(p) ** 2 * p


def field_residual(field, spec: GridSpec, order=4):
    """Max-norm residual of i p_t + p_xx + 2|p|**2 p on the grid interior,
    normalized by max |p|**3.  ``field(x, t)`` must broadcast and is
    re-evaluated exactly at every stencil node."""
    p, res = _stencil_residual(field, spec, order)
    scale = float(np.max(np.abs(p))) ** 3
    return float(np.max(np.abs(res))) / scale


def nls_residual(sp: SolutionParams, spec: GridSpec, order=4):
    """Residual report for the analytic two-phase field, with the Richardson
    order estimate from a resolution-doubled grid."""
    field = lambda x, t: eval_p(x, t, sp)
    coarse = field_residual(field, spec, order)
    fine_spec = dataclasses.replace(
        spec, nx=2 * spec.nx - 1, nt=2 * spec.nt - 1
    )
    fine = field_residual(field, fine_spec, order)
    order_est = math.log2(coarse / fine) if fine > 0.0 else math.inf
    return ResidualReport(grid=fine_spec, residual_norm=fine,
                          order_estimate=order_est)


def residual_fit_k2(params: CurveParams, spec: GridSpec, order=4):
    """Determine K2 from the equation itself.

    With the plane-wave frequency removed (K2 set to zero) the field F
    satisfies i F_t + F_xx + 2|F|**2 F = 2 K2 F, so K2 is the least-squares
    frequency Re<F, G> / (2 <F, F>).  Independent of the contour route."""
    sp0 = dataclasses.replace(build_solution_params(params), K2=0.0)
    F, G = _stencil_residual(lambda x, t: eval_p(x, t, sp0), spec, order)
    return float(np.real(np.vdot(F, G)) / (2.0 * np.real(np.vdot(F, F))))


def split_step_evolve(initial, L, dt, steps):
    """Strang split-step Fourier evolution of the governing equation on a
    periodic domain of length L.  Returns the evolved complex line sample."""
    psi = np.asarray(initial, dtype=complex).copy()
    n = psi.size
    if n < 2 or n & (n - 1):
        raise ValueError("sample count must be a power of two")
    if not (L > 0.0 and dt > 0.0 and steps > 0):
        raise ValueError("need positive domain length, dt and steps")
    spec = np.fft.fft(psi)
    tail = int(n // 8)
    lo = n // 2 - tail
    hi = n // 2 + tail
    if np.max(np.abs(spec[lo:hi])) > 1e-10 * np.max(np.abs(spec)):
        raise RuntimeError(
            "initial data is under-resolved: spectral tail above 1e-10 of "
            "the peak mode"
        )
    kx = 2.0 * math.pi * np.fft.fftfreq(n, d=L / n)
    linear = np.exp(-1j * kx * kx * dt)
    for _ in range(steps):
        psi = psi * np.exp(1j * np.abs(psi) ** 2 * dt)
        psi = np.fft.ifft(linear * np.fft.fft(psi))
        psi = psi * np.exp(1j * np.abs(psi) ** 2 * dt)
    return psi


def _ledger_entry(error, tol):
    return {"passed": bool(error <= tol), "error": float(error),
            "tol": float(tol)}


def symmetry_suite(sp: SolutionParams, rng_seed=0):
    """Run the symmetry, periodicity and reality checks; return a ledger
    mapping check name to {passed, error, tol}."""
    cp = sp.curve
    lat = period_lattice(cp, sp.ell)
    rng = np.random.default_rng(rng_seed)
    xs = rng.uniform(-0.4, 0.4, 40)
    ts = rng.uniform(-0.03, 0.03, 40)
    ledger = {}

    p = eval_p(xs, ts, sp)
    amp = eval_amp2(xs, ts, sp)
    ledger["amplitude_consistency"] = _ledger_entry(
        np.max(np.abs(amp - np.abs(p) ** 2) / np.abs(amp)), 1e-10
    )

    s = 1.7
    sp_s = build_solution_params(
        CurveParams(s * cp.lambda0, s * cp.a, s * cp.b, s * cp.c), sp.Z
    )
    ledger["scaling"] = _ledger_entry(
        np.max(np.abs(s * eval_p(s * xs, s * s * ts, sp)
                      - eval_p(xs, ts, sp_s))
               / np.max(np.abs(p))), 1e-9
    )

    lam = 0.5
    sp_0 = build_solution_params(CurveParams(0.0, cp.a, cp.b, cp.c), sp.Z)
    sp_b = build_solution_params(CurveParams(lam, cp.a, cp.b, cp.c), sp.Z)
    boost = (eval_p(xs + 4.0 * lam * ts, ts, sp_0)
             * np.exp(-2j * lam * xs - 4j * lam * lam * ts))
    ledger["galilean"] = _ledger_entry(
        np.max(np.abs(eval_p(xs, ts, sp_b) - boost)) / np.max(np.abs(p)),
        1e-9,
    )

    absp = np.abs(p)
    lattice_err = max(
        np.max(np.abs(np.abs(eval_p(xs + lat.X1, ts + lat.T1, sp)) - absp)),
        np.max(np.abs(np.abs(eval_p(xs + lat.X2, ts + lat.T2, sp)) - absp)),
    )
    ledger["lattice_periodicity"] = _ledger_entry(
        lattice_err / np.max(absp), 1e-9
    )

    ledger["x_periodicity"] = _ledger_entry(
        np.max(np.abs(np.abs(eval_p(xs + 2.0 * lat.X, ts, sp)) - absp))
        / np.max(absp), 1e-9
    )
    # t -> t + 2T returns u1 to itself; it moves u2 by kappa2*2T, which the
    # x shift -8*lambda0*T cancels (the Galilean drift; zero at lambda0 = 0)
    ledger["t_periodicity"] = _ledger_entry(
        np.max(np.abs(np.abs(eval_p(xs - 8.0 * cp.lambda0 * lat.T,
                                    ts + 2.0 * lat.T, sp)) - absp))
        / np.max(absp), 1e-9
    )

    # half-b-period complex phase versus its real-shift equivalent; Z has a
    # reality witness N (eval_amp2 above refuses it otherwise), so z_c has
    # the witness N + (0, 2)
    sp_c = dataclasses.replace(
        sp, Z=sp.Z + np.array([0.0, 0.5j * sp.frb_plus]))
    sp_r = dataclasses.replace(sp, Z=sp.Z + np.array([0.5, 0.0]))
    err = np.max(np.abs(eval_amp2(xs, ts, sp_c) - eval_amp2(xs, ts, sp_r)))
    ledger["complex_phase_reality"] = _ledger_entry(
        err / np.max(absp) ** 2, 1e-10
    )
    return ledger
