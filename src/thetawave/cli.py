"""Command-line front end.

Subcommands: ``params`` (parameter report as JSON), ``grid`` (field export
as CSV/JSON/PGM), ``scan`` (period and nome scans over a branch point),
``verify`` (residual, evolution and symmetry suites), ``limits``
(asymptotic-versus-numeric comparison for a degenerate regime).

All outputs are deterministic: no timestamps, stable key order, 17
significant digits for floating-point values.  Exit codes: 0 success,
1 verification failure, 2 invalid parameters, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .curve import (
    build_solution_params,
    period_lattice,
    period_matrix,
    reality_check,
    wave_vectors,
)
from .elliptic import CurveParams, curve_integrals
from .limits import LimitCase, asymptotic_constants
from .solution import GridSpec, eval_p, sample_grid
from .verify import nls_residual, split_step_evolve, symmetry_suite

_FMT = "%.17g"


def _f(x):
    """Round-trippable float formatting."""
    return float(_FMT % x) if math.isfinite(x) else x


def _c(z):
    return {"re": _f(z.real), "im": _f(z.imag)}


def _parser():
    p = argparse.ArgumentParser(
        prog="thetawave",
        description="Two-phase periodic fields of the focusing NLS equation",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON config file; flags win")
        sp.add_argument("--lambda0", type=float, default=None)
        sp.add_argument("--a", type=float, default=None)
        sp.add_argument("--b", type=float, default=None)
        sp.add_argument("--c", type=float, default=None)
        sp.add_argument("--z-re1", type=float, default=None)
        sp.add_argument("--z-im1", type=float, default=None)
        sp.add_argument("--z-re2", type=float, default=None)
        sp.add_argument("--z-im2", type=float, default=None)
        sp.add_argument("--x0", type=float, default=None)
        sp.add_argument("--x1", type=float, default=None)
        sp.add_argument("--t0", type=float, default=None)
        sp.add_argument("--t1", type=float, default=None)
        sp.add_argument("--nx", type=int, default=None)
        sp.add_argument("--nt", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", default=None,
                        choices=["csv", "json", "pgm"])

    for name in ("params", "grid", "scan", "verify", "limits"):
        sp = sub.add_parser(name)
        add_common(sp)
        if name == "grid":
            sp.add_argument("--abs-only", action="store_true",
                            help="omit the re_p,im_p CSV columns")
        if name == "scan":
            sp.add_argument("--vary", choices=["a", "c"], default=None)
            sp.add_argument("--start", type=float, default=None)
            sp.add_argument("--stop", type=float, default=None)
            sp.add_argument("--num", type=int, default=None)
        if name == "verify":
            sp.add_argument("--corrupt-k2", action="store_true")
            sp.add_argument("--limit", default=None,
                            choices=["c_to_b", "a_to_b", "a_to_0"])
            sp.add_argument("--eps", type=float, default=None)
        if name == "limits":
            sp.add_argument("--kind", default=None,
                            choices=["c_to_b", "a_to_b", "a_to_0"])
    return p


_DEFAULTS = {
    "lambda0": 0.0, "a": 6.0, "b": 8.0, "c": 9.0,
    "z_re1": 0.0, "z_im1": 0.0, "z_re2": 0.0, "z_im2": 0.0,
    "x0": None, "x1": None, "t0": None, "t1": None,
    "nx": 128, "nt": 128, "out": None, "format": "csv",
}


def _config_value(key, val):
    """A config-file value checked against the type of its flag."""
    if key not in _DEFAULTS:
        raise ValueError(f"unknown config key {key!r}")
    if key in ("nx", "nt"):
        ok = isinstance(val, int) and not isinstance(val, bool)
    elif key == "format":
        ok = val in ("csv", "json", "pgm")
    elif key == "out":
        ok = val is None or isinstance(val, str)
    else:
        ok = (isinstance(val, (int, float)) and not isinstance(val, bool)) \
            or (val is None and _DEFAULTS[key] is None)
    if not ok:
        raise ValueError(f"config key {key!r} has invalid value {val!r}")
    return val


def _resolve(args):
    """Merge defaults, config file and flags (flags win)."""
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key, val in loaded.items():
            key = key.replace("-", "_")
            cfg[key] = _config_value(key, val)
    for key in list(cfg):
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _curve(cfg):
    return CurveParams(cfg["lambda0"], cfg["a"], cfg["b"], cfg["c"])


def _phase(cfg):
    return np.array([cfg["z_re1"] + 1j * cfg["z_im1"],
                     cfg["z_re2"] + 1j * cfg["z_im2"]])


def _grid_spec(cfg, lat):
    x0 = cfg["x0"] if cfg["x0"] is not None else 0.0
    x1 = cfg["x1"] if cfg["x1"] is not None else 2.0 * lat.X
    t0 = cfg["t0"] if cfg["t0"] is not None else 0.0
    t1 = cfg["t1"] if cfg["t1"] is not None else 2.0 * lat.T
    return GridSpec(x0, x1, t0, t1, cfg["nx"], cfg["nt"])


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def cmd_params(cfg):
    curve = _curve(cfg)
    Z = _phase(cfg)
    sp = build_solution_params(curve, Z)
    ell = sp.ell
    lat = period_lattice(curve, ell)
    B = period_matrix(curve, ell)
    wv = wave_vectors(curve, ell)
    found, witness = reality_check(Z, B)
    report = {
        "curve": {"lambda0": _f(curve.lambda0), "a": _f(curve.a),
                  "b": _f(curve.b), "c": _f(curve.c)},
        "elliptic": {k: _f(getattr(ell, k)) for k in (
            "a_plus", "b_plus", "a_minus", "b_minus", "b1_minus",
            "d_minus", "f_minus")},
        "solution": {
            "frb_minus": _f(sp.frb_minus), "frb_plus": _f(sp.frb_plus),
            "kappa1": _f(sp.kappa1), "k": _f(sp.k),
            "kappa2": _f(sp.kappa2), "delta": _f(sp.delta),
            "K0": _c(sp.K0), "K1": _f(sp.K1), "K2": _f(sp.K2),
            "Z": [_c(z) for z in Z],
        },
        "wave_vectors": {"U": [_f(v) for v in wv.U],
                         "V": [_f(v) for v in wv.V]},
        "periods": {
            "X": _f(lat.X), "T": _f(lat.T),
            "Tprime": None if lat.Tprime is None else _f(lat.Tprime),
            "lattice": {"X1": _f(lat.X1), "T1": _f(lat.T1),
                        "X2": _f(lat.X2), "T2": _f(lat.T2)},
        },
        # the nome-style quantities as defined alongside the period ratios
        # (h = exp(-2*pi*frb)); a smaller value means weaker harmonics
        "h_minus": _f(math.exp(-2.0 * math.pi * sp.frb_minus)),
        "h_plus": _f(math.exp(-2.0 * math.pi * sp.frb_plus)),
        "reality": {"passed": found,
                    "witness": None if witness is None
                    else [int(n) for n in witness]},
    }
    _emit(json.dumps(report, indent=2) + "\n", cfg["out"])
    return 0


def _write_pgm(path, field):
    mag = np.abs(field.values)
    lo, hi = float(np.min(mag)), float(np.max(mag))
    span = hi - lo if hi > lo else 1.0
    img = np.round((mag.T - lo) / span * 255.0).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    with open(path, "wb") as fh:
        fh.write(header + img.tobytes())
    g = field.grid
    side = {"min": _f(lo), "max": _f(hi), "nx": g.nx, "nt": g.nt,
            "x0": _f(g.x0), "x1": _f(g.x1), "t0": _f(g.t0), "t1": _f(g.t1)}
    with open(path + ".json", "w") as fh:
        fh.write(json.dumps(side, indent=2) + "\n")


def cmd_grid(cfg, abs_only=False):
    curve = _curve(cfg)
    sp = build_solution_params(curve, _phase(cfg))
    lat = period_lattice(curve, sp.ell)
    spec = _grid_spec(cfg, lat)
    field = sample_grid(spec, sp)
    xs, ts = spec.axes()
    fmt = cfg["format"]
    if fmt == "pgm":
        if cfg["out"] is None:
            raise OSError("pgm output requires --out")
        _write_pgm(cfg["out"], field)
        return 0
    if fmt == "json":
        payload = {
            "x": [_f(v) for v in xs],
            "t": [_f(v) for v in ts],
            "abs_p": [[_f(v) for v in row] for row in np.abs(field.values)],
        }
        _emit(json.dumps(payload, indent=2) + "\n", cfg["out"])
        return 0
    lines = ["x,t,abs_p" if abs_only else "x,t,abs_p,re_p,im_p"]
    for i, x in enumerate(xs):
        for j, t in enumerate(ts):
            v = field.values[i, j]
            row = [_FMT % x, _FMT % t, _FMT % abs(v)]
            if not abs_only:
                row += [_FMT % v.real, _FMT % v.imag]
            lines.append(",".join(row))
    _emit("\n".join(lines) + "\n", cfg["out"])
    return 0


def cmd_scan(cfg, vary, start, stop, num):
    if vary is None or start is None or stop is None:
        raise ValueError("scan needs --vary, --start and --stop")
    num = num or 40
    lines = ["value,X,T,h_minus,h_plus"]
    for val in np.linspace(start, stop, num):
        if vary == "a":
            curve = CurveParams(cfg["lambda0"], float(val), cfg["b"], cfg["c"])
        else:
            curve = CurveParams(cfg["lambda0"], cfg["a"], cfg["b"], float(val))
        ell = curve_integrals(curve)
        lat = period_lattice(curve, ell)
        hm = math.exp(-2.0 * math.pi * ell.b_minus / ell.a_minus)
        hp = math.exp(-2.0 * math.pi * ell.b_plus / ell.a_plus)
        lines.append(",".join(
            _FMT % v for v in (val, lat.X, lat.T, hm, hp)))
    _emit("\n".join(lines) + "\n", cfg["out"])
    return 0


def cmd_verify(cfg, corrupt_k2=False, limit=None, eps=None):
    curve = _curve(cfg)
    sp = build_solution_params(curve, _phase(cfg))
    lat = period_lattice(curve, sp.ell)
    ledger = {}

    if corrupt_k2:
        sp = dataclasses.replace(sp, K2=sp.K2 + 0.1)
    spec = GridSpec(0.0, lat.X, 0.0, lat.T, cfg["nx"], cfg["nt"])
    rep = nls_residual(sp, spec, order=4)
    ledger["residual"] = {
        "passed": bool(rep.residual_norm < 1e-6
                       and 3.3 <= rep.order_estimate <= 4.7),
        "residual_norm": _f(rep.residual_norm),
        "order_estimate": _f(rep.order_estimate),
    }

    if curve.lambda0 == 0.0 and not corrupt_k2:
        n = 512
        L = 2.0 * lat.X
        xs = np.linspace(0.0, L, n, endpoint=False)
        steps = 4000
        evolved = split_step_evolve(eval_p(xs, 0.0, sp), L,
                                    lat.T / steps, steps)
        ref = eval_p(xs, lat.T, sp)
        err = float(np.linalg.norm(evolved - ref) / np.linalg.norm(ref))
        ledger["split_step"] = {"passed": err < 1e-5, "l2_error": _f(err)}

    if not corrupt_k2:
        suite = symmetry_suite(sp)
        ledger["symmetries"] = {
            name: {"passed": entry["passed"], "error": _f(entry["error"]),
                   "tol": _f(entry["tol"])}
            for name, entry in suite.items()
        }

    if limit is not None:
        from .limits import dn_wave_theta, plane_wave_ab, plane_wave_cb
        eps = eps or 1e-4
        b, c = cfg["b"], cfg["c"]
        xs = np.linspace(-0.2, 0.2, 21)[:, None]
        ts = np.linspace(-0.01, 0.01, 5)[None, :]
        if limit == "c_to_b":
            deg = CurveParams(0.0, cfg["a"], b, b + eps)
            spd = build_solution_params(deg, np.array([0.0, 0.25]))
            ref = plane_wave_cb(xs, ts, 0.0, cfg["a"])
        elif limit == "a_to_b":
            deg = CurveParams(0.0, b * (1.0 - eps), b, c)
            spd = build_solution_params(deg, np.array([0.25, 0.0]))
            ref = plane_wave_ab(xs, ts, 0.0, b, c)
        else:
            deg = CurveParams(0.0, eps, b, c)
            spd = build_solution_params(deg)
            ref = dn_wave_theta(xs, ts, 0.0, b, c)
        sup = float(np.max(np.abs(eval_p(xs, ts, spd) - ref)))
        ledger["limit"] = {"kind": limit, "eps": _f(eps),
                           "sup_distance": _f(sup)}

    # the limit entry carries no verdict and the symmetry verdicts sit one
    # level down
    verdicts = [e for e in ledger.values() if "passed" in e]
    verdicts += ledger.get("symmetries", {}).values()
    ok = all(e["passed"] for e in verdicts)
    _emit(json.dumps(ledger, indent=2) + "\n", cfg["out"])
    return 0 if ok else 1


def cmd_limits(cfg, kind):
    if kind is None:
        raise ValueError("limits needs --kind")
    curve = _curve(cfg)
    case = LimitCase(kind, curve)
    ap = asymptotic_constants(case)
    ell = curve_integrals(curve)
    names = ("a_plus", "b_plus", "a_minus", "b_minus", "b1_minus",
             "d_minus", "f_minus")
    table = {}
    for name in names:
        num = getattr(ell, name)
        asy = getattr(ap.ell, name)
        rel = (abs(num - asy) / abs(num)) if math.isfinite(asy) and num != 0 \
            else None
        table[name] = {"numeric": _f(num),
                       "asymptotic": asy if not math.isfinite(asy)
                       else _f(asy),
                       "rel_err": None if rel is None else _f(rel)}
    report = {
        "kind": kind,
        "small_parameter": _f(case.small),
        "integrals": table,
        "derived": {
            "frb_minus": ap.frb_minus, "frb_plus": ap.frb_plus,
            "kappa1": _f(ap.kappa1), "k": _f(ap.k),
            "kappa2": _f(ap.kappa2), "delta": _f(ap.delta),
            "K0": _c(ap.K0), "K1": _f(ap.K1), "K2": _f(ap.K2),
            "Z": [list(ap.Z)[0], list(ap.Z)[1]],
        },
    }
    _emit(json.dumps(report, indent=2) + "\n", cfg["out"])
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        if args.command == "params":
            return cmd_params(cfg)
        if args.command == "grid":
            return cmd_grid(cfg, abs_only=args.abs_only)
        if args.command == "scan":
            return cmd_scan(cfg, args.vary, args.start, args.stop, args.num)
        if args.command == "verify":
            return cmd_verify(cfg, corrupt_k2=args.corrupt_k2,
                              limit=args.limit, eps=args.eps)
        return cmd_limits(cfg, args.kind)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
