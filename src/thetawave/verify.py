"""Independent numerical verification of the evaluated solution.

Three mutually independent instruments: finite-difference residuals of the
governing equation i p_t + p_xx + 2|p|**2 p = 0 with Richardson order
estimates, a split-step Fourier evolution compared against the analytic
field at a later time (second-order Strang steps at two step sizes,
Richardson-extrapolated to fourth order), and a ledger of symmetry,
periodicity and reality checks.  A frequency-fit variant of the residual
pins down the plane-wave constant K2 without assuming its value.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .curve import SolutionParams, build_solution_params, period_lattice
from .elliptic import CurveParams
from .limits import (LimitCase, asymptotic_constants, dn_wave_theta,
                     plane_wave_ab, plane_wave_cb)
from .solution import (GridSpec, _in_bands, _require_witness, eval_amp2,
                       eval_p)

__all__ = [
    "ResidualReport",
    "field_residual",
    "nls_residual",
    "residual_fit_k2",
    "split_step_evolve",
    "symmetry_suite",
    "verify_ledger",
]


@dataclass(frozen=True)
class ResidualReport:
    """Normalized residual of the governing equation on a grid."""

    residual_norm: float
    order_estimate: float


def _stencil_residual(field, spec: GridSpec, order):
    """Field values p on the grid interior and i p_t + p_xx + 2|p|**2 p
    there, by fourth-order central differences of the field evaluated once
    on the grid's nodes (``order`` must be 4).  Both arrays are built in
    row bands (``solution._in_bands``); p is a view of the node values."""
    if order != 4:
        raise ValueError(f"stencil order must be 4, got {order}")
    if min(spec.nx, spec.nt) <= 4:
        # the stencil needs 2 nodes on each side of an interior node
        raise ValueError(f"an order-4 stencil needs nx and nt above 4, got "
                         f"nx={spec.nx}, nt={spec.nt}")
    xs, ts = spec.axes()
    h = xs[1] - xs[0]
    k = ts[1] - ts[0]
    P = np.broadcast_to(
        _in_bands(lambda r: field(xs[r, None], ts[None, :]), spec.nx, spec.nt),
        (spec.nx, spec.nt))

    def residual(r):
        # interior rows r, from P's rows r and the 2-row halo on each side
        Q = P[r.start:r.stop + 4]
        p = Q[2:-2, 2:-2]
        pxx = (-Q[4:, 2:-2] + 16.0 * Q[3:-1, 2:-2] - 30.0 * p
               + 16.0 * Q[1:-3, 2:-2] - Q[:-4, 2:-2]) / (12.0 * h ** 2)
        pt = (-Q[2:-2, 4:] + 8.0 * Q[2:-2, 3:-1]
              - 8.0 * Q[2:-2, 1:-3] + Q[2:-2, :-4]) / (12.0 * k)
        return 1j * pt + pxx + 2.0 * np.abs(p) ** 2 * p

    return P[2:-2, 2:-2], _in_bands(residual, spec.nx - 4, spec.nt - 4)


def field_residual(field, spec: GridSpec, order=4):
    """Max-norm residual of i p_t + p_xx + 2|p|**2 p on the grid interior,
    normalized by max |p|**3.  ``field(x, t)`` must broadcast; it is
    called on (rows, 1) columns and the (1, nt) row, once per row band
    (once for a grid of at most ``solution._BAND_BYTES``), and so evaluated
    once at every node of the grid."""
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
    return ResidualReport(residual_norm=fine, order_estimate=order_est)


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
    periodic domain of length L.  Returns the evolved complex line sample.
    The nonlinear flow keeps |psi|, so adjacent nonlinear half-steps fuse:
    N(dt/2) L N(dt) L ... L N(dt/2), with steps + 1 nonlinear factors."""
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
    for step in range(steps):
        psi = psi * np.exp(1j * np.abs(psi) ** 2 * (2.0 * dt if step else dt))
        psi = np.fft.ifft(linear * np.fft.fft(psi))
    return psi * np.exp(1j * np.abs(psi) ** 2 * dt)


def _richardson_split_step(initial, L, t_end, steps):
    """(4 S(steps) - S(steps/2)) / 3 at t_end, where S(m) is
    ``split_step_evolve`` with m steps of t_end/m (``steps`` even).
    Strang's global error expands in even powers of dt, so the
    combination is fourth order."""
    fine = split_step_evolve(initial, L, t_end / steps, steps)
    coarse = split_step_evolve(initial, L, t_end / (steps // 2), steps // 2)
    return (4.0 * fine - coarse) / 3.0


def _ledger_entry(error, tol):
    return {"passed": bool(error <= tol), "error": float(error),
            "tol": float(tol)}


def symmetry_suite(sp: SolutionParams):
    """Run the symmetry, periodicity and reality checks; return a ledger
    mapping check name to {passed, error, tol}."""
    cp = sp.curve
    lat = period_lattice(cp, sp.ell)
    rng = np.random.default_rng(0)
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

    def drift(dx, dt):
        """max | |p(x + dx, t + dt)| - |p(x, t)| | / max |p| on the samples."""
        return (np.max(np.abs(np.abs(eval_p(xs + dx, ts + dt, sp)) - absp))
                / np.max(absp))

    ledger["lattice_periodicity"] = _ledger_entry(
        max(drift(lat.X1, lat.T1), drift(lat.X2, lat.T2)), 1e-9)
    ledger["x_periodicity"] = _ledger_entry(drift(2.0 * lat.X, 0.0), 1e-9)
    # t -> t + 2T returns u1 to itself; it moves u2 by kappa2*2T, which the
    # x shift -8*lambda0*T cancels (the Galilean drift; zero at lambda0 = 0)
    ledger["t_periodicity"] = _ledger_entry(
        drift(-8.0 * cp.lambda0 * lat.T, 2.0 * lat.T), 1e-9)

    # half-b-period complex phase versus its real-shift equivalent; Z has a
    # reality witness N (sp.witness; eval_amp2 above refuses None), so z_c
    # has the witness N + (0, 2)
    sp_c = dataclasses.replace(
        sp, Z=sp.Z + np.array([0.0, 0.5j * sp.frb_plus]))
    sp_r = dataclasses.replace(sp, Z=sp.Z + np.array([0.5, 0.0]))
    err = np.max(np.abs(eval_amp2(xs, ts, sp_c) - eval_amp2(xs, ts, sp_r)))
    ledger["complex_phase_reality"] = _ledger_entry(
        err / np.max(absp) ** 2, 1e-10
    )
    return ledger


def verify_ledger(sp: SolutionParams, nx, nt, corrupt_k2=False, limit=None,
                  eps=1e-4):
    """The ``verify`` ledger and its verdict, as (ledger, passed): the FD
    residual on an (nx, nt) period cell, the split-step (lambda0 = 0 only:
    512 samples over one x period, evolved to T by ``split_step_evolve``
    with 1,000 and with 500 steps, Richardson-extrapolated, l2 gate 1e-5),
    ``symmetry_suite`` and, for ``limit``, the unjudged distance at ``eps``;
    ``corrupt_k2`` adds 0.1 to K2 and runs the residual alone.  A phase
    Z without a reality witness is refused before any evaluation."""
    _require_witness(sp)
    curve = sp.curve
    lat = period_lattice(curve, sp.ell)
    ledger = {}

    if corrupt_k2:
        sp = dataclasses.replace(sp, K2=sp.K2 + 0.1)
    spec = GridSpec(0.0, lat.X, 0.0, lat.T, nx, nt)
    rep = nls_residual(sp, spec, order=4)
    ledger["residual"] = {
        "passed": bool(rep.residual_norm < 1e-6
                       and 3.3 <= rep.order_estimate <= 4.7),
        "residual_norm": rep.residual_norm,
        "order_estimate": rep.order_estimate,
    }

    if curve.lambda0 == 0.0 and not corrupt_k2:
        n = 512
        L = 2.0 * lat.X
        xs = np.linspace(0.0, L, n, endpoint=False)
        evolved = _richardson_split_step(eval_p(xs, 0.0, sp), L, lat.T,
                                         1000)
        ref = eval_p(xs, lat.T, sp)
        err = float(np.linalg.norm(evolved - ref) / np.linalg.norm(ref))
        ledger["split_step"] = {"passed": err < 1e-5, "l2_error": err}

    if not corrupt_k2:
        ledger["symmetries"] = symmetry_suite(sp)

    if limit is not None:
        lam0, a, b, c = curve.lambda0, curve.a, curve.b, curve.c
        xs = np.linspace(-0.2, 0.2, 21)[:, None]
        ts = np.linspace(-0.01, 0.01, 5)[None, :]
        if limit == "c_to_b":
            deg = CurveParams(lam0, a, b, b + eps)
            ref = plane_wave_cb(xs, ts, lam0, a)
        elif limit == "a_to_b":
            deg = CurveParams(lam0, b * (1.0 - eps), b, c)
            ref = plane_wave_ab(xs, ts, lam0, b, c)
        else:
            deg = CurveParams(lam0, eps, b, c)
            ref = dn_wave_theta(xs, ts, lam0, b, c)
        # the phase Z at which the degenerate field is the limit's
        Z = np.array(asymptotic_constants(LimitCase(limit, deg)).Z)
        spd = build_solution_params(deg, Z)
        sup = float(np.max(np.abs(eval_p(xs, ts, spd) - ref)))
        ledger["limit"] = {"kind": limit, "eps": eps, "sup_distance": sup}

    # the limit entry carries no verdict and the symmetry verdicts sit one
    # level down
    verdicts = [e for e in ledger.values() if "passed" in e]
    verdicts += ledger.get("symmetries", {}).values()
    return ledger, all(e["passed"] for e in verdicts)
