"""Command-line front end.

Subcommands: ``params`` (parameter report as JSON), ``grid`` (field export
as CSV/JSON/PGM), ``scan`` (period and nome scans over a branch point),
``verify`` (residual, evolution and symmetry suites), ``limits``
(asymptotic-versus-numeric comparison for a degenerate regime).

All outputs are deterministic: no timestamps, stable key order.  CSV
(``grid``, ``scan``) writes a float as ``'%.17g' % v``, 17 significant
digits; JSON writes ``repr(v)``, the shortest text that reads back as v.
``grid`` formats its csv and json cells a band of whole x rows at a time,
by the array kernel of ``_text``, byte for byte that text, on up to one
process per usable CPU (``_fork.in_order``).  Exit codes: 0 success,
1 verification failure, 2 invalid parameters, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import _fork, _text
from .curve import (_quotient_constants, build_solution_params,
                    period_lattice, wave_vectors)
from .elliptic import CurveParams, curve_integrals
from .limits import _KINDS, asymptotic_constants, limit_distance
from .solution import GridSpec, sample_grid
from .verify import verify_ledger

_FMT = "%.17g"

# the flags the subcommands share, grouped by the subcommands that read
# them: name -> (type, or the tuple of allowed values; default).  The parser,
# the defaults and the --config check all read this table.
_COMMANDS = ("params", "grid", "scan", "verify", "limits")
_FLAGS = {
    _COMMANDS: {
        "lambda0": (float, 0.0), "a": (float, 6.0), "b": (float, 8.0),
        "c": (float, 9.0), "out": (str, None)},
    ("params", "grid", "verify"): {
        "z_re1": (float, 0.0), "z_im1": (float, 0.0),
        "z_re2": (float, 0.0), "z_im2": (float, 0.0)},
    ("grid", "verify"): {"nx": (int, 128), "nt": (int, 128)},
    ("grid",): {
        "x0": (float, None), "x1": (float, None),
        "t0": (float, None), "t1": (float, None),
        "format": (("csv", "json", "pgm"), "csv")},
}

# the largest nx or nt that grid and verify accept, and the largest scan
# --num: 4x the largest grid in use, so that a mistyped size fails before
# it allocates
_MAX_NODES = 2048

# the grid cells per process of _in_order: w processes format at least
# w * _FORK_CELLS cells.  On 2 cores (BENCH_30.json "cutoff": 41 rounds, the
# median and quartiles in ms), 2 processes against one read json 192 x 192
# 19.7 [17.9, 21.2] against 22.5 [20.0, 23.8] and 224 x 224 23.2 [20.8,
# 24.6] against 29.6 [25.3, 31.5]; csv 192 x 192 27.8 [25.6, 30.8] against
# 32.2 [25.6, 34.2] and 224 x 224 34.4 [32.3, 36.4] against 43.4 [37.1,
# 48.0].  A further child costs the parent about 4 ms, a quarter of what
# 25,088 json cells take
_FORK_CELLS = 112 * 224

# the least cells of a band of whole x rows that grid formats at once
_BAND_CELLS = 2048


def _c(z):
    return {"re": z.real, "im": z.imag}


def _shared(command):
    """The shared flags ``command`` reads: name -> (type; default)."""
    return {key: spec for commands, group in _FLAGS.items()
            if command in commands for key, spec in group.items()}


def _parser():
    p = argparse.ArgumentParser(
        prog="thetawave",
        description="Two-phase periodic fields of the focusing NLS equation",
    )
    sub = p.add_subparsers(dest="command", required=True)
    cmd = {}
    for name in _COMMANDS:
        cmd[name] = sub.add_parser(name)
        cmd[name].set_defaults(parser=cmd[name])
        # a group lists them apart in --help and skips a slow metavar check
        shared = cmd[name].add_argument_group("shared flags")
        shared.add_argument("--config", help="JSON config file; flags win")
        for key, (kind, _) in _shared(name).items():
            opts = {"choices": kind} if isinstance(kind, tuple) \
                else {"type": kind}
            shared.add_argument("--" + key.replace("_", "-"), **opts)
    cmd["grid"].add_argument("--abs-only", action="store_true",
                             help="omit the re_p,im_p CSV columns")
    cmd["scan"].add_argument("--vary", choices=["a", "c"])
    cmd["scan"].add_argument("--start", type=float)
    cmd["scan"].add_argument("--stop", type=float)
    cmd["scan"].add_argument("--num", type=int, default=40)
    cmd["verify"].add_argument("--corrupt-k2", action="store_true")
    cmd["verify"].add_argument("--limit", choices=_KINDS)
    cmd["verify"].add_argument("--eps", type=float)
    cmd["limits"].add_argument("--kind", choices=_KINDS)
    return p


def _config_value(flags, key, val):
    """A config-file value checked against the type of its flag."""
    kind, default = flags[key]
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
    flags = _shared(args.command)
    cfg = {key: default for key, (_, default) in flags.items()}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key, val in loaded.items():
            key = key.replace("-", "_")
            if key not in flags:
                raise ValueError(f"{args.command} reads no config key {key!r}")
            cfg[key] = _config_value(flags, key, val)
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


def _real_solution(cfg):
    """The solution params, refused when Z has no reality witness."""
    sp = build_solution_params(_curve(cfg), _phase(cfg))
    if sp.witness is None:
        raise ValueError("--z-im1 and --z-im2 fail the reality condition "
                         "2 Im Z = Im(B N); the field would not be real")
    return sp


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
    _emit([json.dumps(obj, indent=2), "\n"], out)


def _solution_constants(s):
    """The phase constants of a SolutionParams or AsymptoticParams."""
    return {"frb_minus": s.frb_minus, "frb_plus": s.frb_plus,
            "kappa1": s.kappa1, "k": s.k, "kappa2": s.kappa2,
            "delta": s.delta, "K0": _c(s.K0), "K1": s.K1, "K2": s.K2}


def _nome(frb):
    """exp(-2*pi*frb): the nome of the field's thetas (modulus 2i*frb)."""
    return math.exp(-2.0 * math.pi * frb)


def cmd_params(cfg):
    curve = _curve(cfg)
    sp = build_solution_params(curve, _phase(cfg))
    lat = period_lattice(curve, sp.ell)
    wv = wave_vectors(curve)
    report = {
        "curve": dataclasses.asdict(curve),
        "elliptic": dataclasses.asdict(sp.ell),
        "solution": {**_solution_constants(sp), "Z": [_c(z) for z in sp.Z]},
        "wave_vectors": {"U": wv.U.tolist(), "V": wv.V.tolist()},
        "periods": {
            "X": lat.X, "T": lat.T, "Tprime": lat.Tprime,
            "lattice": {"X1": lat.X1, "T1": lat.T1,
                        "X2": lat.X2, "T2": lat.T2},
        },
        "h_minus": _nome(sp.frb_minus),
        "h_plus": _nome(sp.frb_plus),
        "reality": {"passed": sp.witness is not None,
                    "witness": None if sp.witness is None
                    else sp.witness.tolist()},
    }
    _emit_json(report, cfg["out"])
    return 0


def _abs(values):
    """|p| in every format: libm's hypot, as abs(complex).  np.abs differs
    in the last bit and moves with numpy's SIMD dispatch; np.hypot does not."""
    return np.hypot(values.real, values.imag)


def _write_pgm(path, field):
    mag = _abs(field.values)
    lo, hi = float(np.min(mag)), float(np.max(mag))
    span = hi - lo if hi > lo else 1.0
    # in place, in the order of round((mag - lo) / span * 255)
    mag -= lo
    mag /= span
    mag *= 255.0
    np.round(mag, out=mag)
    img = mag.T.astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    with open(path, "wb") as fh:
        fh.write(header + img.tobytes())
    g = field.grid
    side = {"min": lo, "max": hi, "nx": g.nx, "nt": g.nt,
            "x0": g.x0, "x1": g.x1, "t0": g.t0, "t1": g.t1}
    _emit_json(side, path + ".json")


def _in_order(block, starts, cells):
    """block(starts[0]), block(starts[1]), ..., in order: block returns
    ASCII bytes, yielded as text.  ``_fork.in_order`` runs the blocks on
    one process per usable CPU and per _FORK_CELLS cells; a child that
    ends early is an OSError naming its block's first row."""
    w = _fork.processes(min(len(starts), cells // _FORK_CELLS))
    tasks = [(f"formatting row {i}", functools.partial(block, i))
             for i in starts]
    for data in _fork.in_order(tasks, w):
        yield data.decode()


def _band_starts(nx, nt):
    """The first x row of each band of whole rows and at least
    _BAND_CELLS cells."""
    return range(0, nx, -(-_BAND_CELLS // nt))


def _ascii(texts):
    """The texts as NUL-padded rows of bytes, as wide as the longest."""
    rows = np.array([t.encode() for t in texts])
    return rows.view(np.uint8).reshape(len(texts), rows.itemsize)


def _squeeze(buf):
    """The bytes of ``buf`` without its NULs."""
    return buf.tobytes().translate(None, b"\0")


def _csv_blocks(xs, ts, values, abs_only):
    """The CSV text, one block per band of x rows: x formatted once per
    row and t once per grid, the cells' values by the _text kernel."""
    yield "x,t,abs_p\n" if abs_only else "x,t,abs_p,re_p,im_p\n"
    xt, tt = _ascii([_FMT % x for x in xs]), _ascii([_FMT % t for t in ts])
    wx, wt, nt = xt.shape[1], tt.shape[1], len(ts)
    starts = _band_starts(len(xs), nt)
    k = 1 if abs_only else 3

    def block(i):
        band = values[i:i + starts.step]
        cols = [_abs(band), band.real, band.imag][:k]
        text = _text.g17(np.concatenate([c.ravel() for c in cols]))
        # each line: x, t and k times a comma and a value, then a newline
        buf = np.empty((len(band), nt, wx + wt + 2 + k * (_text.WIDTH + 1)),
                       np.uint8)
        buf[:, :, :wx] = xt[i:i + len(band), None]
        buf[:, :, wx] = ord(",")
        buf[:, :, wx + 1:wx + 1 + wt] = tt
        cells = buf[:, :, wx + 1 + wt:-1].reshape(len(band), nt, k, -1)
        cells[..., 0] = ord(",")
        cells[..., 1:] = np.moveaxis(text.reshape(k, len(band), nt, -1), 0, 2)
        buf[:, :, -1] = ord("\n")
        return _squeeze(buf)

    yield from _in_order(block, starts, values.size)


def _json_blocks(xs, ts, mag):
    """The text json.JSONEncoder(indent=2) writes for {"x": xs, "t": ts,
    "abs_p": mag} and a newline, one band of ``mag``'s rows per chunk:
    floats as float.__repr__ writes them, the cells by the _text kernel."""

    def array(values, pad):
        inner = " " * pad
        return ("[\n" + inner + (",\n" + inner).join(map(repr, values))
                + "\n" + inner[2:] + "]")

    yield ('{\n  "x": ' + array(xs.tolist(), 4) + ',\n  "t": '
           + array(ts.tolist(), 4) + ',\n  "abs_p": [\n    ')
    nt = mag.shape[1]
    starts = _band_starts(len(mag), nt)
    cell = np.frombuffer(b",\n" + b" " * 6, np.uint8)
    w = len(cell) + _text.WIDTH

    def block(i):
        band = mag[i:i + starts.step]
        # each row: ",\n    " but before row 0, "[", the cells, "\n    ]"
        buf = np.empty((len(band), nt * w + 12), np.uint8)
        buf[:, :6] = cell[:6]
        buf[:, -6:] = np.frombuffer(b"\n    ]", np.uint8)
        cells = buf[:, 6:-6].reshape(len(band), nt, w)
        cells[:, :, :len(cell)] = cell
        cells[:, 0, 0] = ord("[")
        cells[:, :, len(cell):] = _text.shortest(band.ravel()).reshape(
            len(band), nt, _text.WIDTH)
        if i == 0:
            buf[0, :6] = 0
        return _squeeze(buf)

    yield from _in_order(block, starts, mag.size)
    yield "\n  ]\n}\n"


def cmd_grid(cfg, abs_only=False):
    fmt = cfg["format"]
    if abs_only and fmt != "csv":
        raise ValueError(f"--abs-only applies to csv only, not --format {fmt}")
    if fmt == "pgm" and cfg["out"] is None:
        raise ValueError("pgm output requires --out")
    sp = _real_solution(cfg)
    spec = _grid_spec(cfg, period_lattice(sp.curve, sp.ell))
    field = sample_grid(spec, sp)
    xs, ts = spec.axes()
    if fmt == "pgm":
        _write_pgm(cfg["out"], field)
        return 0
    blocks = _json_blocks(xs, ts, _abs(field.values)) if fmt == "json" \
        else _csv_blocks(xs, ts, field.values, abs_only)
    # closed at once on an error, which reaps _fork.in_order's children
    with contextlib.closing(blocks):
        _emit(blocks, cfg["out"])
    return 0


def cmd_scan(cfg, vary, start, stop, num):
    if vary is None or start is None or stop is None:
        raise ValueError("scan needs --vary, --start and --stop")
    for flag, val in (("--start", start), ("--stop", stop),
                      ("--stop minus --start", stop - start)):
        if not math.isfinite(val):
            raise ValueError(f"{flag} must be finite, got {val}")
    if num < 1:
        raise ValueError(f"--num must be at least 1, got {num}")
    if num > _MAX_NODES:
        raise ValueError(f"--num must be at most {_MAX_NODES}, got {num}")
    lines = ["value,X,T,h_minus,h_plus\n"]
    for val in np.linspace(start, stop, num):
        curve = _curve({**cfg, vary: float(val)})
        ell = curve_integrals(curve)
        lat = period_lattice(curve, ell)
        qc = _quotient_constants(ell, curve.lambda0)
        row = (val, lat.X, lat.T, _nome(qc["frb_minus"]),
               _nome(qc["frb_plus"]))
        lines.append(",".join(_FMT % v for v in row) + "\n")
    _emit(lines, cfg["out"])
    return 0


def cmd_verify(cfg, corrupt_k2=False, limit=None, eps=None):
    if eps is not None and limit is None:
        raise ValueError("--eps applies only with --limit")
    eps = 1e-4 if eps is None else eps
    if not eps > 0.0:
        raise ValueError(f"--eps must be positive, got {eps}")
    sp = _real_solution(cfg)
    nx, nt = _grid_size(cfg)
    # every eps refusal comes before the ledger evaluates anything
    entry = {"limit": limit_distance(limit, sp.curve, eps)} if limit else {}
    if corrupt_k2:
        # the negative control: a wrong plane-wave frequency
        sp = dataclasses.replace(sp, K2=sp.K2 + 0.1)
    ledger, passed = verify_ledger(sp, nx, nt)
    _emit_json({**ledger, **entry}, cfg["out"])
    return 0 if passed else 1


def cmd_limits(cfg, kind):
    if kind is None:
        raise ValueError("limits needs --kind")
    curve = _curve(cfg)
    ap = asymptotic_constants(kind, curve)
    table = {}
    for name, num in dataclasses.asdict(curve_integrals(curve)).items():
        asy = getattr(ap.ell, name)
        rel = (abs(num - asy) / abs(num)) if math.isfinite(asy) and num != 0 \
            else None
        table[name] = {"numeric": num, "asymptotic": asy, "rel_err": rel}
    report = {
        "kind": kind,
        "small_parameter": _KINDS[kind][0](curve),
        "integrals": table,
        "derived": {**_solution_constants(ap), "Z": list(ap.Z)},
    }
    _emit_json(report, cfg["out"])
    return 0


def main(argv=None):
    args, rest = _parser().parse_known_args(argv)
    if rest:
        # the subcommand's parser, so that its usage line is printed
        args.parser.error(f"unrecognized arguments: {' '.join(rest)}")
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
