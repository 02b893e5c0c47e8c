"""The three workloads of the thetawave benchmark: seeded inputs, the timed
op of each input, and the output check that classifies it.

An op is what one user does with one curve: a CLI command run in-process
through ``thetawave.cli.main(argv)``, or a short sequence of public library
calls.  Only ``Workload.run`` is timed; ``Workload.check`` runs afterwards,
untimed, and may call the library again to recompute reference values.

Library functions are always looked up on the ``thetawave`` package at call
time, so that the tracer's wrappers (see ``tracer.py``) see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
import traceback
from dataclasses import dataclass

import numpy as np

import thetawave
import thetawave.cli
import thetawave.solution

REF_CURVE = (0.0, 6.0, 8.0, 9.0)


@dataclass(frozen=True)
class Outcome:
    """Classification of one op.

    ok          -- the op completed and its output passed every check
    reason      -- why it failed (exception type, exit code, ledger entry or
                   failed check); None when ok
    silent      -- the program reported success but its output is wrong; a
                   failure the program reports itself is not silent
    """

    ok: bool
    reason: str | None = None
    silent: bool = False


def _argv(curve):
    lam, a, b, c = curve
    return ["--lambda0", repr(lam), "--a", repr(a), "--b", repr(b),
            "--c", repr(c)]


def _cli(argv):
    """Run the CLI in-process; return (exit code, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = thetawave.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _exit_reason(code, err):
    last = err.strip().splitlines()[-1] if err.strip() else ""
    return f"exit {code}: {last}"


def _strata(rng, n):
    """n draws from U(0, 1), one in each of n equal strata, in random order.

    Curves are drawn as a Latin hypercube: each parameter takes one value
    from every 1/n-th of its range.  Every curve still follows the stated
    distribution, but each run covers the whole range evenly, so that no
    seed's run leans toward one end of a range."""
    order = list(range(n))
    rng.shuffle(order)
    return [(k + rng.random()) / n for k in order]


def _moderate_curves(rng, n):
    """The reference curve, then b log-uniform on [1, 10], a/b in [0.3, 0.9],
    c/b in [1.05, 1.6]; every second seeded curve has lambda0 in [0.2, 1]."""
    m = n - 1
    ub, ua, uc = _strata(rng, m), _strata(rng, m), _strata(rng, m)
    ul = iter(_strata(rng, m // 2))
    curves = [REF_CURVE]
    for i in range(m):
        b = 10.0 ** ub[i]
        a = b * (0.3 + 0.6 * ua[i])
        c = b * (1.05 + 0.55 * uc[i])
        lam = 0.2 + 0.8 * next(ul) if i % 2 == 1 else 0.0
        curves.append((lam, a, b, c))
    return curves


class VerifyRef:
    """``thetawave verify`` at default flags: the time to a verified field."""

    name = "verify-ref"
    op_seconds = 1.25  # nominal op time on a 2-core host; sizes a run only
    min_ops = 2

    def inputs(self, seed, n):
        rng = random.Random(f"{self.name}/{seed}")
        return [{"curve": c} for c in _moderate_curves(rng, n)]

    def run(self, inp, workdir):
        return _cli(["verify"] + _argv(inp["curve"]))

    def bytes_out(self, inp, raw, workdir):
        return len(raw[1].encode())

    def check(self, inp, raw, workdir):
        code, out, err = raw
        if code not in (0, 1):
            return Outcome(False, _exit_reason(code, err))
        failing = []
        for name, entry in json.loads(out).items():
            if name == "symmetries":
                failing += [f"symmetries.{sub} error={e['error']:.3g} "
                            f"tol={e['tol']:.3g}"
                            for sub, e in entry.items() if not e["passed"]]
            elif not entry.get("passed", True):
                failing.append(name + "".join(
                    f" {k}={v:.4g}" for k, v in entry.items()
                    if isinstance(v, float)))
        if code == 0 and failing:
            return Outcome(False, "exit 0 with failed ledger entries: "
                           + "; ".join(failing), silent=True)
        if code == 1 and not failing:
            return Outcome(False, "exit 1 with every ledger entry passed",
                           silent=True)
        if failing:
            return Outcome(False, "exit 1: " + "; ".join(failing))
        return Outcome(True)


class GridExport:
    """``thetawave grid`` at 512 x 512 over the default (2X, 2T) window,
    formats rotating through csv, json and pgm."""

    name = "grid-export"
    op_seconds = 1.27
    min_ops = 3
    formats = ("csv", "json", "pgm")
    n = 512
    samples = 32

    def inputs(self, seed, n):
        rng = random.Random(f"{self.name}/{seed}")
        return [{"curve": c, "format": self.formats[i % 3],
                 "cells": [(rng.randrange(self.n), rng.randrange(self.n))
                           for _ in range(self.samples)]}
                for i, c in enumerate(_moderate_curves(rng, n))]

    def _path(self, inp, workdir):
        return os.path.join(workdir, "field." + inp["format"])

    def run(self, inp, workdir):
        path = self._path(inp, workdir)
        return _cli(["grid"] + _argv(inp["curve"])
                    + ["--nx", str(self.n), "--nt", str(self.n),
                       "--format", inp["format"], "--out", path])

    def _files(self, inp, workdir):
        path = self._path(inp, workdir)
        return [path, path + ".json"] if inp["format"] == "pgm" else [path]

    def bytes_out(self, inp, raw, workdir):
        return sum(os.path.getsize(f) for f in self._files(inp, workdir)
                   if os.path.exists(f))

    def check(self, inp, raw, workdir):
        try:
            return self._check(inp, raw, workdir)
        finally:
            for f in self._files(inp, workdir):
                if os.path.exists(f):
                    os.remove(f)

    def _check(self, inp, raw, workdir):
        code, _, err = raw
        if code != 0:
            return Outcome(False, _exit_reason(code, err))
        curve = thetawave.CurveParams(*inp["curve"])
        sp = thetawave.build_solution_params(curve)
        lat = thetawave.period_lattice(curve, sp.ell)
        spec = thetawave.GridSpec(0.0, 2.0 * lat.X, 0.0, 2.0 * lat.T,
                                  self.n, self.n)
        path = self._path(inp, workdir)
        if inp["format"] == "pgm":
            bad = self._check_pgm(path, spec, sp)
        else:
            bad = self._check_table(path, inp, spec, sp)
        return Outcome(False, bad, silent=True) if bad else Outcome(True)

    def _check_pgm(self, path, spec, sp):
        n = self.n
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path + ".json") as fh:
            side = json.load(fh)
        header = f"P5\n{n} {n}\n255\n".encode()
        if not data.startswith(header) or len(data) != len(header) + n * n:
            return f"pgm header or size wrong ({len(data)} bytes)"
        if (side["nx"], side["nt"]) != (n, n):
            return "pgm side file has the wrong grid size"
        mag = np.abs(thetawave.sample_grid(spec, sp).values)
        lo, hi = float(np.min(mag)), float(np.max(mag))
        if max(abs(side["min"] - lo), abs(side["max"] - hi)) > 1e-12 * hi:
            return (f"pgm side min/max {side['min']!r}/{side['max']!r} "
                    f"differ from {lo!r}/{hi!r}")
        return None

    def _check_table(self, path, inp, spec, sp):
        """csv or json: header, shape, axes, and seeded cells against
        eval_p (complex values for csv, |p| for json)."""
        n, fmt = self.n, inp["format"]
        if fmt == "csv":
            with open(path) as fh:
                header = fh.readline().strip()
            table = np.loadtxt(path, delimiter=",", skiprows=1)
            if header != "x,t,abs_p,re_p,im_p" or table.shape != (n * n, 5):
                return f"csv header {header!r} or shape {table.shape} wrong"
            file_x, file_t = table[::n, 0], table[:n, 1]
            absp = table[:, 2].reshape(n, n)
            values = (table[:, 3] + 1j * table[:, 4]).reshape(n, n)
        else:
            with open(path) as fh:
                payload = json.load(fh)
            absp = np.asarray(payload["abs_p"], dtype=float)
            if sorted(payload) != ["abs_p", "t", "x"] or absp.shape != (n, n):
                return f"json keys or shape {absp.shape} wrong"
            file_x, file_t = np.asarray(payload["x"]), np.asarray(payload["t"])
            values = absp
        xs, ts = spec.axes()
        if (np.max(np.abs(file_x - xs)) > 1e-12 * xs[-1]
                or np.max(np.abs(file_t - ts)) > 1e-12 * ts[-1]):
            return f"{fmt} axes differ from the (2X, 2T) window"
        i, j = np.array(inp["cells"]).T
        want = thetawave.eval_p(xs[i], ts[j], sp)
        if fmt == "json":
            want = np.abs(want)
        dev = float(np.max(np.abs(values[i, j] - want)))
        scale = float(np.max(absp))
        if dev > 1e-12 * scale:
            return (f"{fmt} cells differ from eval_p by {dev:.3g} "
                    f"(max|p| {scale:.6g})")
        return None


# regime thresholds for the extra ``thetawave limits`` step of curve-sweep
_NEAR_A0 = 0.01      # a/b below this: a -> 0
_NEAR_CB = 0.01      # (c - b)/b below this: c -> b
_NEAR_AB = 0.1       # (b - a)/b below this: a -> b


def limit_kind(curve):
    """The degenerate regime a curve is close to, or None."""
    _, a, b, c = curve
    if a / b < _NEAR_A0:
        return "a_to_0"
    if (c - b) / b < _NEAR_CB:
        return "c_to_b"
    if (b - a) / b < _NEAR_AB:
        return "a_to_b"
    return None


class CurveSweep:
    """Release of one distinct curve per op: the parameter report, the
    b-period cross-checks, and the three field routes at 16 points."""

    name = "curve-sweep"
    op_seconds = 0.055
    min_ops = 10
    points = 16

    def inputs(self, seed, n):
        """The 8 corners of the envelope (b, a/b, c/b at their extremes),
        then a Latin hypercube of seeded curves: b log-uniform on
        [0.1, 100], a/b log-uniform on [1e-3, 0.95], c/b - 1 log-uniform on
        [1e-3, 2].  Every second curve has lambda0 in [0.2, 1]."""
        rng = random.Random(f"{self.name}/{seed}")
        lo_a, lo_c = math.log10(0.95), math.log10(2.0)
        corners = [(ub, ua, uc) for ub in (0.0, 1.0) for ua in (0.0, 1.0)
                   for uc in (0.0, 1.0)][:n]
        m = n - len(corners)
        draws = corners + list(zip(_strata(rng, m), _strata(rng, m),
                                   _strata(rng, m)))
        ul = iter(_strata(rng, n // 2))
        out = []
        for i, (ub, ua, uc) in enumerate(draws):
            b = 10.0 ** (-1.0 + 3.0 * ub)
            a = b * 10.0 ** (-3.0 + (lo_a + 3.0) * ua)
            c = b * (1.0 + 10.0 ** (-3.0 + (lo_c + 3.0) * uc))
            lam = 0.2 + 0.8 * next(ul) if i % 2 else 0.0
            pts = [(rng.random(), rng.random()) for _ in range(self.points)]
            out.append({"curve": (lam, a, b, c), "points": pts})
        return out

    def run(self, inp, workdir):
        tw = thetawave
        curve_argv = _argv(inp["curve"])
        res = {"params": _cli(["params"] + curve_argv)}
        if res["params"][0] != 0:
            return res
        curve = tw.CurveParams(*inp["curve"])
        res["b_periods"] = tw.b_period_errors(curve)
        data = tw.solution.general_theta_data(curve)
        sp = data[0]
        xi, eta = np.array(inp["points"]).T
        xs = xi * sp.ell.a_plus        # (0, 2X) with X = A+/2
        ts = eta * sp.ell.a_minus / 2.0  # (0, 2T) with T = A-/4
        res["p"] = tw.eval_p(xs, ts, sp)
        res["amp2"] = tw.eval_amp2(xs, ts, sp)
        res["general"] = tw.eval_p_general(xs, ts, curve, data=data)
        kind = limit_kind(inp["curve"])
        if kind is not None:
            res["limits"] = _cli(["limits", "--kind", kind] + curve_argv)
        return res

    def bytes_out(self, inp, raw, workdir):
        return sum(len(raw[k][1].encode()) for k in ("params", "limits")
                   if k in raw)

    def check(self, inp, raw, workdir):
        code, out, err = raw["params"]
        if code != 0:
            return Outcome(False, "params " + _exit_reason(code, err))
        report = json.loads(out)
        if not report["reality"]["passed"]:
            return Outcome(False, "params: reality witness missing at Z = 0")
        errs = raw["b_periods"]
        worst = max(errs, key=errs.get)
        if not errs[worst] < 1e-8:
            return Outcome(False, f"b_period_errors {worst}={errs[worst]:.3g}"
                           " >= 1e-8")
        p, amp2, gen = raw["p"], raw["amp2"], raw["general"]
        amp_err = float(np.max(np.abs(amp2 - np.abs(p) ** 2) / np.abs(amp2)))
        if not amp_err < 1e-10:
            return Outcome(False, f"|p|^2 consistency {amp_err:.3g} >= 1e-10")
        mod_err = float(np.max(np.abs(np.abs(gen) - np.abs(p)))
                        / np.max(np.abs(p)))
        if not mod_err < 1e-9:
            return Outcome(False, f"genus-2 modulus {mod_err:.3g} >= 1e-9")
        if "limits" in raw:
            code, out, err = raw["limits"]
            if code != 0:
                return Outcome(False, "limits " + _exit_reason(code, err))
            if json.loads(out)["kind"] != limit_kind(inp["curve"]):
                return Outcome(False, "limits report names the wrong kind",
                               silent=True)
        return Outcome(True)


WORKLOADS = {w.name: w for w in (VerifyRef(), GridExport(), CurveSweep())}


def _exception_reason(exc):
    """Exception type and message, with the package call path that raised
    it, from the entry point the op called to the raising function."""
    calls = [f.name for f in traceback.extract_tb(exc.__traceback__)
             if f"{os.sep}thetawave{os.sep}" in f.filename]
    path = f" [in {' -> '.join(dict.fromkeys(calls))}]" if calls else ""
    return f"{type(exc).__name__}: {exc}{path}"


@dataclass
class RunRecord:
    """What one pass over a workload's inputs produced."""

    op_times: list
    outcomes: list
    bytes_out: int


def run_ops(workload, inputs, workdir, tracer=None):
    """Run the ops one after another, timing each; an op that raises is
    recorded as failed and the run goes on."""
    times, outcomes, nbytes = [], [], 0
    for inp in inputs:
        span = tracer.op() if tracer is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                raw = workload.run(inp, workdir)
        except Exception as exc:  # the op failed; the run must go on
            times.append(time.perf_counter() - t0)
            outcomes.append(Outcome(False, _exception_reason(exc)))
            continue
        times.append(time.perf_counter() - t0)
        nbytes += workload.bytes_out(inp, raw, workdir)
        try:
            outcomes.append(workload.check(inp, raw, workdir))
        except (ValueError, KeyError, TypeError, OSError) as exc:
            outcomes.append(Outcome(False, f"output unreadable: "
                                    f"{type(exc).__name__}: {exc}",
                                    silent=True))
    return RunRecord(times, outcomes, nbytes)
