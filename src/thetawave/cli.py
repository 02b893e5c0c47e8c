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
import itertools
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
from .limits import _KINDS, LimitCase, asymptotic_constants
from .solution import GridSpec, eval_p, sample_grid
from .verify import nls_residual, split_step_evolve, symmetry_suite

_FMT = "%.17g"

# the flags every subcommand shares: name -> (type, or the tuple of allowed
# values; default).  The parser, the defaults and the --config check all
# read this table.
_FLAGS = {
    "lambda0": (float, 0.0), "a": (float, 6.0), "b": (float, 8.0),
    "c": (float, 9.0),
    "z_re1": (float, 0.0), "z_im1": (float, 0.0),
    "z_re2": (float, 0.0), "z_im2": (float, 0.0),
    "x0": (float, None), "x1": (float, None),
    "t0": (float, None), "t1": (float, None),
    "nx": (int, 128), "nt": (int, 128),
    "out": (str, None), "format": (("csv", "json", "pgm"), "csv"),
}

# the largest nx or nt that grid and verify accept: 4x the largest grid in
# use, so that a mistyped size fails before it allocates
_MAX_NODES = 2048


def _c(z):
    return {"re": z.real, "im": z.imag}


def _parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags win")
    for key, (kind, _) in _FLAGS.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(kind, tuple):
            common.add_argument(flag, choices=kind)
        else:
            common.add_argument(flag, type=kind)

    p = argparse.ArgumentParser(
        prog="thetawave",
        description="Two-phase periodic fields of the focusing NLS equation",
    )
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("params", parents=[common])
    grid = sub.add_parser("grid", parents=[common])
    grid.add_argument("--abs-only", action="store_true",
                      help="omit the re_p,im_p CSV columns")
    scan = sub.add_parser("scan", parents=[common])
    scan.add_argument("--vary", choices=["a", "c"])
    scan.add_argument("--start", type=float)
    scan.add_argument("--stop", type=float)
    scan.add_argument("--num", type=int, default=40)
    verify = sub.add_parser("verify", parents=[common])
    verify.add_argument("--corrupt-k2", action="store_true")
    verify.add_argument("--limit", choices=_KINDS)
    verify.add_argument("--eps", type=float, default=1e-4)
    limits = sub.add_parser("limits", parents=[common])
    limits.add_argument("--kind", choices=_KINDS)
    return p


def _config_value(key, val):
    """A config-file value checked against the type of its flag."""
    if key not in _FLAGS:
        raise ValueError(f"unknown config key {key!r}")
    kind, default = _FLAGS[key]
    if val is None:
        ok = default is None
    elif isinstance(kind, tuple):
        ok = val in kind
    else:
        ok = (isinstance(val, (int, float) if kind is float else kind)
              and not isinstance(val, bool))
    if not ok:
        raise ValueError(f"config key {key!r} has invalid value {val!r}")
    # a JSON integer for a float flag becomes the float the flag would give
    return float(val) if kind is float and val is not None else val


def _resolve(args):
    """Merge defaults, config file and flags (flags win)."""
    cfg = {key: default for key, (_, default) in _FLAGS.items()}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key, val in loaded.items():
            key = key.replace("-", "_")
            cfg[key] = _config_value(key, val)
    for key in cfg:
        flag = getattr(args, key)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _curve(cfg):
    return CurveParams(cfg["lambda0"], cfg["a"], cfg["b"], cfg["c"])


def _phase(cfg):
    return np.array([cfg["z_re1"] + 1j * cfg["z_im1"],
                     cfg["z_re2"] + 1j * cfg["z_im2"]])


def _grid_size(cfg):
    """(nx, nt), refused above _MAX_NODES."""
    if max(cfg["nx"], cfg["nt"]) > _MAX_NODES:
        raise ValueError(f"nx and nt must be at most {_MAX_NODES}")
    return cfg["nx"], cfg["nt"]


def _grid_spec(cfg, lat):
    x0 = cfg["x0"] if cfg["x0"] is not None else 0.0
    x1 = cfg["x1"] if cfg["x1"] is not None else 2.0 * lat.X
    t0 = cfg["t0"] if cfg["t0"] is not None else 0.0
    t1 = cfg["t1"] if cfg["t1"] is not None else 2.0 * lat.T
    return GridSpec(x0, x1, t0, t1, *_grid_size(cfg))


def _emit(chunks, out):
    """Write the text chunks to the file ``out``, or to stdout if None."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w") as fh:
            fh.writelines(chunks)


def _emit_json(obj, out):
    # streamed: one json.dumps string of a 512**2 grid holds tens of MiB
    chunks = json.JSONEncoder(indent=2).iterencode(obj)
    _emit(itertools.chain(chunks, ["\n"]), out)


def _solution_constants(s):
    """The phase constants of a SolutionParams or AsymptoticParams."""
    return {"frb_minus": s.frb_minus, "frb_plus": s.frb_plus,
            "kappa1": s.kappa1, "k": s.k, "kappa2": s.kappa2,
            "delta": s.delta, "K0": _c(s.K0), "K1": s.K1, "K2": s.K2}


def cmd_params(cfg):
    curve = _curve(cfg)
    Z = _phase(cfg)
    sp = build_solution_params(curve, Z)
    ell = sp.ell
    lat = period_lattice(curve, ell)
    B = period_matrix(curve)
    wv = wave_vectors(curve, ell)
    found, witness = reality_check(Z, B)
    report = {
        "curve": dataclasses.asdict(curve),
        "elliptic": dataclasses.asdict(ell),
        "solution": {**_solution_constants(sp), "Z": [_c(z) for z in Z]},
        "wave_vectors": {"U": wv.U.tolist(), "V": wv.V.tolist()},
        "periods": {
            "X": lat.X, "T": lat.T, "Tprime": lat.Tprime,
            "lattice": {"X1": lat.X1, "T1": lat.T1,
                        "X2": lat.X2, "T2": lat.T2},
        },
        # the nome-style quantities as defined alongside the period ratios
        # (h = exp(-2*pi*frb)); a smaller value means weaker harmonics
        "h_minus": math.exp(-2.0 * math.pi * sp.frb_minus),
        "h_plus": math.exp(-2.0 * math.pi * sp.frb_plus),
        "reality": {"passed": found,
                    "witness": None if witness is None
                    else [int(n) for n in witness]},
    }
    _emit_json(report, cfg["out"])
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
    side = {"min": lo, "max": hi, "nx": g.nx, "nt": g.nt,
            "x0": g.x0, "x1": g.x1, "t0": g.t0, "t1": g.t1}
    _emit_json(side, path + ".json")


def _csv_blocks(xs, ts, values, abs_only):
    """The CSV text, one block of rows per x; each axis formatted once."""
    yield "x,t,abs_p\n" if abs_only else "x,t,abs_p,re_p,im_p\n"
    tf = [_FMT % t for t in ts]
    cell = ",%s,%.17g\n" if abs_only else ",%s,%.17g,%.17g,%.17g\n"
    for x, row in zip(xs, values):
        # the scalar abs: the array np.abs differs from it in the last bit
        cols = [[abs(v) for v in row]]
        if not abs_only:
            cols += [row.real.tolist(), row.imag.tolist()]
        line = _FMT % x + cell
        yield "".join([line % c for c in zip(tf, *cols)])


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
            raise ValueError("pgm output requires --out")
        _write_pgm(cfg["out"], field)
    elif fmt == "json":
        _emit_json({"x": xs.tolist(), "t": ts.tolist(),
                    "abs_p": np.abs(field.values).tolist()}, cfg["out"])
    else:
        _emit(_csv_blocks(xs, ts, field.values, abs_only), cfg["out"])
    return 0


def cmd_scan(cfg, vary, start, stop, num):
    if vary is None or start is None or stop is None:
        raise ValueError("scan needs --vary, --start and --stop")
    if num < 1:
        raise ValueError(f"--num must be at least 1, got {num}")
    lines = ["value,X,T,h_minus,h_plus\n"]
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
            _FMT % v for v in (val, lat.X, lat.T, hm, hp)) + "\n")
    _emit(lines, cfg["out"])
    return 0


def cmd_verify(cfg, corrupt_k2=False, limit=None, eps=1e-4):
    if not eps > 0.0:
        raise ValueError(f"--eps must be positive, got {eps}")
    curve = _curve(cfg)
    sp = build_solution_params(curve, _phase(cfg))
    lat = period_lattice(curve, sp.ell)
    ledger = {}

    if corrupt_k2:
        sp = dataclasses.replace(sp, K2=sp.K2 + 0.1)
    spec = GridSpec(0.0, lat.X, 0.0, lat.T, *_grid_size(cfg))
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
        steps = 4000
        evolved = split_step_evolve(eval_p(xs, 0.0, sp), L,
                                    lat.T / steps, steps)
        ref = eval_p(xs, lat.T, sp)
        err = float(np.linalg.norm(evolved - ref) / np.linalg.norm(ref))
        ledger["split_step"] = {"passed": err < 1e-5, "l2_error": err}

    if not corrupt_k2:
        ledger["symmetries"] = symmetry_suite(sp)

    if limit is not None:
        from .limits import dn_wave_theta, plane_wave_ab, plane_wave_cb
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
        ledger["limit"] = {"kind": limit, "eps": eps, "sup_distance": sup}

    # the limit entry carries no verdict and the symmetry verdicts sit one
    # level down
    verdicts = [e for e in ledger.values() if "passed" in e]
    verdicts += ledger.get("symmetries", {}).values()
    ok = all(e["passed"] for e in verdicts)
    _emit_json(ledger, cfg["out"])
    return 0 if ok else 1


def cmd_limits(cfg, kind):
    if kind is None:
        raise ValueError("limits needs --kind")
    curve = _curve(cfg)
    case = LimitCase(kind, curve)
    ap = asymptotic_constants(case)
    table = {}
    for name, num in dataclasses.asdict(curve_integrals(curve)).items():
        asy = getattr(ap.ell, name)
        rel = (abs(num - asy) / abs(num)) if math.isfinite(asy) and num != 0 \
            else None
        table[name] = {"numeric": num, "asymptotic": asy, "rel_err": rel}
    report = {
        "kind": kind,
        "small_parameter": case.small,
        "integrals": table,
        "derived": {**_solution_constants(ap), "Z": list(ap.Z)},
    }
    _emit_json(report, cfg["out"])
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
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        # RuntimeError: a quadrature that does not converge on a curve
        # outside the numerically supported envelope
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
