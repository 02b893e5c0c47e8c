"""Independent numerical verification of the evaluated solution.

Three mutually independent instruments: finite-difference residuals of the
governing equation i p_t + p_xx + 2|p|**2 p = 0 with Richardson order
estimates, a split-step Fourier evolution compared against the analytic
field at a later time (second-order Strang steps at two step sizes,
Richardson-extrapolated to fourth order; the two evolutions advance in one
loop, as the rows of one array), and a ledger of symmetry, periodicity and
reality checks.  A frequency-fit variant of the residual pins down the
plane-wave constant K2 without assuming its value.  With two or more
usable CPUs, ``verify_ledger`` evolves its split-step in a forked child
(``_fork.in_order``) while it computes the other two instruments, else in
process; the same bytes.  An unresolved split-step line is refused first.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import _fork, solution
from .curve import SolutionParams, build_solution_params, period_lattice
from .elliptic import CurveParams
from .solution import (GridSpec, _p_at, _reduced_phase, _require_witness,
                       eval_amp2, eval_p)

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


def _require_stencil_grid(spec: GridSpec):
    """Refuse a grid too small for the order-4 stencil, which needs 2 nodes
    on each side of an interior node."""
    if min(spec.nx, spec.nt) <= 4:
        raise ValueError(f"an order-4 stencil needs nx and nt above 4, got "
                         f"nx={spec.nx}, nt={spec.nt}")


def _stencil_bands(at, spec: GridSpec, order):
    """(p, res) for row bands of the grid interior: the field values p on
    those rows and i p_t + p_xx + 2|p|**2 p there, by fourth-order central
    differences (``order`` must be 4).  ``at(t)`` is x -> the field at
    (x, t), built once for the grid's (1, nt) row of t and called on
    (rows, 1) columns: each x row once, in order, in the bands of
    ``solution._row_slices``.  A band holds about 8 arrays of its size at
    once, so it gets an eighth of ``solution._BAND_BYTES`` of field rows,
    and at least 3 so that no band is a single row.  Each band is a fresh
    array: the previous band's last 4 rows (its halo), then its new rows."""
    if order != 4:
        raise ValueError(f"stencil order must be 4, got {order}")
    _require_stencil_grid(spec)
    xs, ts = spec.axes()
    h = xs[1] - xs[0]
    k = ts[1] - ts[0]
    p_at = at(ts[None, :])

    def residual(B):
        # the interior of the rows B, with B's first and last 2 as halo
        p = B[2:-2, 2:-2]
        pxx = (-B[4:, 2:-2] + 16.0 * B[3:-1, 2:-2] - 30.0 * p
               + 16.0 * B[1:-3, 2:-2] - B[:-4, 2:-2]) / (12.0 * h ** 2)
        pt = (-B[2:-2, 4:] + 8.0 * B[2:-2, 3:-1]
              - 8.0 * B[2:-2, 1:-3] + B[2:-2, :-4]) / (12.0 * k)
        return p, 1j * pt + pxx + 2.0 * np.abs(p) ** 2 * p

    rows = max(3, solution._BAND_BYTES // 8 // (16 * spec.nt))
    B = np.empty((0, spec.nt), dtype=complex)
    for r in solution._row_slices(spec.nx, rows):
        B = np.concatenate([B[-4:], p_at(xs[r, None])])
        if len(B) > 4:
            yield residual(B)


def _residual_norm(at, spec: GridSpec, order):
    """Max |i p_t + p_xx + 2|p|**2 p| on the interior of the grid, reduced
    band by band from ``_stencil_bands(at, spec, order)``, normalized by
    max |p|**3."""
    peaks = np.array([(np.max(np.abs(p)), np.max(np.abs(res)))
                      for p, res in _stencil_bands(at, spec, order)])
    scale = float(np.max(peaks[:, 0])) ** 3
    return float(np.max(peaks[:, 1])) / scale


def field_residual(field, spec: GridSpec, order=4):
    """Max-norm residual of i p_t + p_xx + 2|p|**2 p on the grid interior,
    normalized by max |p|**3.  ``field(x, t)`` must broadcast; it is
    called on (rows, 1) columns and the (1, nt) row, once per row band of
    ``_stencil_bands`` (once for a grid of at most an eighth of
    ``solution._BAND_BYTES``), and so evaluated once at every node of the
    grid."""
    at = lambda t: lambda x: np.broadcast_to(field(x, t), (x.size, t.size))
    return _residual_norm(at, spec, order)


def _residual_pairs(sp: SolutionParams, spec: GridSpec, order):
    """(fine grid, ResidualReport) for the two-phase field on the grid pairs
    (spec, its 2n - 1 grid), (that grid, its 2n - 1 grid), ...: each grid
    evaluated (``solution._p_at``) and reduced once."""
    at = lambda t: _p_at(t, sp)
    coarse = _residual_norm(at, spec, order)
    while True:
        spec = dataclasses.replace(spec, nx=2 * spec.nx - 1,
                                   nt=2 * spec.nt - 1)
        fine = _residual_norm(at, spec, order)
        order_est = math.log2(coarse / fine) if fine > 0.0 else math.inf
        yield spec, ResidualReport(fine, order_est)
        coarse = fine


def nls_residual(sp: SolutionParams, spec: GridSpec, order=4):
    """Residual report for the analytic two-phase field, with the Richardson
    order estimate from a resolution-doubled grid (``_residual_pairs``)."""
    return next(_residual_pairs(sp, spec, order))[1]


def residual_fit_k2(params: CurveParams, spec: GridSpec, order=4):
    """Determine K2 from the equation itself.

    With the plane-wave frequency removed (K2 set to zero) the field F
    satisfies i F_t + F_xx + 2|F|**2 F = 2 K2 F, so K2 is the least-squares
    frequency Re<F, G> / (2 <F, F>), in row sums as the bands come: the
    same bits for any band size.  Independent of the contour route."""
    sp0 = dataclasses.replace(build_solution_params(params), K2=0.0)
    fg, ff = np.sum(np.concatenate(
        [[np.sum(F.real * G.real + F.imag * G.imag, axis=1),
          np.sum(F.real * F.real + F.imag * F.imag, axis=1)]
         for F, G in _stencil_bands(lambda t: _p_at(t, sp0), spec, order)],
        axis=1), axis=1)
    return float(fg / (2.0 * ff))


def _resolved(psi):
    """Whether the line ``psi`` of n samples has its spectral tail, the
    modes n/2 - n/8 to n/2 + n/8, at most 1e-10 of its peak mode."""
    spec = np.abs(np.fft.fft(psi))
    mid, tail = psi.size // 2, psi.size // 8
    return not np.max(spec[mid - tail:mid + tail]) > 1e-10 * np.max(spec)


def _checked_line(initial, L, dt, steps):
    """``initial`` as a complex copy, or the refusal of data that is not
    one line of samples, a sample count that is not a power of two, a
    non-positive L, dt or step count, or initial data whose spectral tail
    exceeds 1e-10 of the peak mode."""
    psi = np.asarray(initial, dtype=complex).copy()
    if psi.ndim != 1:
        raise ValueError("initial data must be one line of samples")
    n = psi.size
    if n < 2 or n & (n - 1):
        raise ValueError("sample count must be a power of two")
    if not (L > 0.0 and dt > 0.0 and steps > 0):
        raise ValueError("need positive domain length, dt and steps")
    if not _resolved(psi):
        raise RuntimeError(
            "initial data is under-resolved: spectral tail above 1e-10 of "
            "the peak mode"
        )
    return psi


def _strang_rows(psi, L, dts, steps):
    """Strang split-step evolution of the rows of ``psi`` (one or two rows
    of n samples on a periodic domain of length L), in place.  Row 0 takes
    ``steps`` steps of dts[0]; row 1 takes steps / 2 steps of dts[1], one
    on each even step of row 0, so that both rows share that step's FFT
    calls.  The nonlinear flow keeps |psi|, so adjacent nonlinear
    half-steps fuse: N(dt/2) L N(dt) L ... L N(dt/2).  Each nonlinear
    factor is cos + i sin of the real angle |psi|**2 dt, bit for bit
    numpy's exp of the imaginary angle at a fraction of its cost."""
    rows, n = psi.shape
    kx = 2.0 * math.pi * np.fft.fftfreq(n, d=L / n)
    linear = np.array([np.exp(-1j * kx * kx * dt) for dt in dts])
    half = np.array(dts)[:, None]
    full = 2.0 * half
    angle = np.empty(psi.shape)
    phase = np.empty(psi.shape, dtype=complex)
    # the first a rows of each array: all rows step on even steps, row 0
    # alone on odd ones
    views = {a: (psi[:a], angle[:a], phase[:a], linear[:a], full[:a])
             for a in {1, rows}}

    def nonlinear(p, th, ph, scale):
        # p times exp(i |p|**2 scale), in place and with p's operand first
        np.abs(p, out=th)
        np.square(th, out=th)
        np.multiply(th, scale, out=th)
        np.cos(th, out=ph.real)
        np.sin(th, out=ph.imag)
        np.multiply(p, ph, out=p)

    for step in range(steps):
        p, th, ph, lin, f = views[1 if step % 2 else rows]
        nonlinear(p, th, ph, f if step else half)
        spec = np.fft.fft(p)
        np.multiply(lin, spec, out=spec)
        p[...] = np.fft.ifft(spec)
    nonlinear(psi, angle, phase, half)
    return psi


def split_step_evolve(initial, L, dt, steps):
    """Strang split-step Fourier evolution of the governing equation on a
    periodic domain of length L: ``steps`` steps of dt, with steps + 1
    nonlinear factors.  Returns the evolved complex line sample."""
    psi = _checked_line(initial, L, dt, steps)
    return _strang_rows(psi[None, :], L, (dt,), steps)[0]


def _richardson_pair(psi, L, t_end, steps):
    """(4 S(steps) - S(steps/2)) / 3 at t_end for a line ``psi`` that
    ``_checked_line`` passed and an even ``steps``, where S(m) is the
    Strang evolution with m steps of t_end/m, bit for bit
    ``split_step_evolve``'s.  Strang's global error expands in even powers
    of dt, so the combination is fourth order.  The two evolutions advance
    together as the rows of one array, S(steps/2) stepping with every
    second step of S(steps)."""
    fine, coarse = _strang_rows(np.array([psi, psi]), L,
                                (t_end / steps, t_end / (steps // 2)), steps)
    return (4.0 * fine - coarse) / 3.0


def _ledger_entry(error, tol):
    return {"passed": bool(error <= tol), "error": float(error),
            "tol": float(tol)}


# symmetry_suite's 40 points (x/X, t/T): the R2 sequence (u_k, v_k) =
# frac(1/2 + k/rho, 1/2 + k/rho**2), k = 1..40, rho the plastic number
# (rho**3 = rho + 1), mapped linearly onto the box |x/X| <= 1.36, |t/T| <= 1.93
_PLASTIC = 1.324717957244746
_SAMPLES = np.array([(0.5 + np.arange(1, 41) * (1.0 / _PLASTIC)) % 1.0,
                     (0.5 + np.arange(1, 41) * (1.0 / _PLASTIC ** 2)) % 1.0])
_SAMPLES = (2.0 * _SAMPLES - 1.0) * [[1.36], [1.93]]
_SAMPLES.flags.writeable = False


def symmetry_suite(sp: SolutionParams):
    """Symmetry, periodicity and reality checks at 40 points of the box
    |x| <= 1.36 X, |t| <= 1.93 T of the period lattice, placed by the R2
    low-discrepancy sequence (``_SAMPLES``, no random draws), as a ledger:
    check name -> {passed, error, tol}."""
    cp = sp.curve
    lat = period_lattice(cp, sp.ell)
    xs, ts = _SAMPLES * [[lat.X], [lat.T]]
    ledger = {}

    # the five point sets on sp in one call: the samples, the scaled
    # samples (s x, s**2 t), lattice vectors 1 and 2 and the x period 2X.
    # Im u is the same at every point, so each set keeps its own values
    # bit for bit
    s = 1.7
    p, p_s, *shifted = eval_p(
        np.array([xs, s * xs, xs + lat.X1, xs + lat.X2, xs + 2.0 * lat.X]),
        np.array([ts, s * s * ts, ts + lat.T1, ts + lat.T2, ts]), sp)
    amp = eval_amp2(xs, ts, sp)
    ledger["amplitude_consistency"] = _ledger_entry(
        np.max(np.abs(amp - np.abs(p) ** 2) / np.abs(amp)), 1e-10
    )

    sp_s = build_solution_params(
        CurveParams(s * cp.lambda0, s * cp.a, s * cp.b, s * cp.c), sp.Z
    )
    ledger["scaling"] = _ledger_entry(
        np.max(np.abs(s * p_s - eval_p(xs, ts, sp_s))
               / np.max(np.abs(p))), 1e-9
    )

    lam = 0.5 * cp.b / 8.0  # 0.5 on the reference curve, where b = 8
    sp_0 = build_solution_params(CurveParams(0.0, cp.a, cp.b, cp.c), sp.Z)
    sp_b = build_solution_params(CurveParams(lam, cp.a, cp.b, cp.c), sp.Z)
    boost = (eval_p(xs + 4.0 * lam * ts, ts, sp_0)
             * np.exp(-2j * lam * xs - 4j * lam * lam * ts))
    ledger["galilean"] = _ledger_entry(
        np.max(np.abs(eval_p(xs, ts, sp_b) - boost)) / np.max(np.abs(p)),
        1e-9,
    )

    absp = np.abs(p)
    # max | |p(x + dx, t + dt)| - |p(x, t)| | / max |p| for each shift.
    # Lattice vector 1 is t -> t + 2T, which returns u1 to itself, with the
    # Galilean x drift X1 = -8*lambda0*T that cancels its move of u2
    drift1, drift2, drift_x = (np.max(np.abs(np.abs(shifted) - absp), axis=1)
                               / np.max(absp))
    ledger["lattice_periodicity"] = _ledger_entry(max(drift1, drift2), 1e-9)
    ledger["x_periodicity"] = _ledger_entry(drift_x, 1e-9)
    ledger["t_periodicity"] = _ledger_entry(drift1, 1e-9)

    # half-b-period complex phase versus its real-shift equivalent; Z has a
    # reality witness N (sp.witness; eval_amp2 above refuses None), so z_c
    # has the witness N + (0, 2)
    sp_c = dataclasses.replace(
        sp, Z=sp.Z + np.array([0.0, 0.5j * sp.frb_plus]))
    # shifted from the reduced phase: at |Re Z_j| >= 2**52, Re Z + 0.5
    # rounds back to Re Z
    sp_r = dataclasses.replace(
        sp, Z=_reduced_phase(sp.Z) + np.array([0.5, 0.0]))
    err = np.max(np.abs(eval_amp2(xs, ts, sp_c) - eval_amp2(xs, ts, sp_r)))
    ledger["complex_phase_reality"] = _ledger_entry(
        err / np.max(absp) ** 2, 1e-10
    )
    return ledger


def _residual_entry(sp: SolutionParams, spec: GridSpec):
    """The ledger's residual entry: the first pair of ``_residual_pairs``
    from ``spec``, gate 1e-6 with an order estimate in 3.3-4.7.  A residual
    that fails its gate while its order is in that range converges but is
    not yet resolved, so the next pair is read: at most three pairs, and
    never a fine grid of more than 1017 per side (128 -> 255, 509, 1017
    from the default grid).  The entry records the fine grid it read."""
    pairs = _residual_pairs(sp, spec, order=4)
    for _ in range(3):
        fine, rep = next(pairs)
        converging = 3.3 <= rep.order_estimate <= 4.7
        passed = rep.residual_norm < 1e-6 and converging
        if passed or not converging or 2 * max(fine.nx, fine.nt) - 1 > 1017:
            break
    return {"passed": bool(passed), "residual_norm": rep.residual_norm,
            "order_estimate": rep.order_estimate,
            "grid": [fine.nx, fine.nt]}


def verify_ledger(sp: SolutionParams, nx, nt):
    """The ``verify`` ledger and its verdict, as (ledger, passed): the FD
    residual on an (nx, nt) period cell, the split-step (lambda0 = 0 only:
    the fewest of 128, 256 or 512 samples over one x period that resolve
    the field, evolved to T by Strang split-steps, 1,000 and 500 of them
    in one loop, Richardson-extrapolated, l2 gate 1e-5) and
    ``symmetry_suite``, all of them on ``sp`` as given.  A phase Z without
    a reality witness and a grid too small for the stencil are refused
    before any evaluation, a line unresolved at 512 samples before any
    instrument.
    The residual (``_residual_entry``, which refines an unresolved one)
    and ``symmetry_suite`` run in this process, in that order, and the
    pair after them or, with two or more usable CPUs, beside them in a
    forked child (``_fork.in_order``): the same ledger and errors; a child
    that ends early is an OSError naming the split-step."""
    _require_witness(sp)
    curve = sp.curve
    lat = period_lattice(curve, sp.ell)
    spec = GridSpec(0.0, lat.X, 0.0, lat.T, nx, nt)
    _require_stencil_grid(spec)
    pair = []
    if curve.lambda0 == 0.0:
        L = 2.0 * lat.X
        # the smallest resolved line; one unresolved at 512 is refused
        for n in (128, 256, 512):
            xs = np.linspace(0.0, L, n, endpoint=False)
            line = eval_p(xs, 0.0, sp)
            if _resolved(line):
                break
        psi = _checked_line(line, L, lat.T, 1000)
        pair = [("evolving the split-step",
                 lambda: _richardson_pair(psi, L, lat.T, 1000).tobytes())]

    # the pair evolves in a forked child while the residual and the
    # symmetries run here
    tasks = [("checking the residual and the symmetries",
              lambda: (_residual_entry(sp, spec), symmetry_suite(sp)))] + pair
    (residual, symmetries), *evolved = _fork.in_order(
        tasks, _fork.processes(len(tasks)))
    ledger = {"residual": residual}
    if evolved:
        ref = eval_p(xs, lat.T, sp)
        diff = np.frombuffer(evolved[0], complex) - ref
        err = float(np.linalg.norm(diff) / np.linalg.norm(ref))
        ledger["split_step"] = {"passed": err < 1e-5, "l2_error": err}
    passed = all(e["passed"] for e in [*ledger.values(),
                                       *symmetries.values()])
    ledger["symmetries"] = symmetries
    return ledger, passed
