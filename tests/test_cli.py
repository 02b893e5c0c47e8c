"""Unit tests for the command-line interface."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thetawave.cli import _json_blocks, _parser, _resolve, main
from thetawave.curve import build_solution_params, period_lattice
from thetawave.elliptic import CurveParams
from thetawave.solution import GridSpec, sample_grid

BASE = ["--lambda0", "0", "--a", "6", "--b", "8", "--c", "9"]
FRB_PLUS = float(
    build_solution_params(CurveParams(0.0, 6.0, 8.0, 9.0)).frb_plus)
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestParams:
    def test_json_report(self, capsys):
        code, out = run(capsys, ["params"] + BASE)
        assert code == 0
        rep = json.loads(out)
        assert rep["elliptic"]["a_plus"] == pytest.approx(
            0.5886313191034631, rel=1e-12)
        assert rep["periods"]["X"] == pytest.approx(0.29431565955173156)
        assert rep["periods"]["Tprime"] is None
        assert rep["reality"]["passed"] is True
        assert 0.0 < rep["h_plus"] < 1.0
        assert rep["h_minus"] < rep["h_plus"]

    def test_tprime_present_with_lambda0(self, capsys):
        code, out = run(capsys, ["params", "--lambda0", "0.5", "--a", "6",
                                 "--b", "8", "--c", "9"])
        assert code == 0
        rep = json.loads(out)
        assert rep["periods"]["Tprime"] is not None
        assert rep["solution"]["K1"] == pytest.approx(-0.5)

    def test_invalid_ordering_exit_2(self, capsys):
        code, _ = run(capsys, ["params", "--a", "9", "--b", "8", "--c", "6"])
        assert code == 2

    def test_non_converging_curve_exit_2(self, capsys):
        # c - b = 1e-8 lies outside the envelope where tanh-sinh converges
        code = main(["params", "--a", "6", "--b", "8", "--c", "8.00000001"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("a, b, c", [
        ("1e-200", "2e-200", "3e-200"),
        ("1e-170", "1", "2"),
        ("1", "2", "1e160"),
    ])
    def test_under_or_overflowing_curve_exit_2(self, capsys, a, b, c):
        # a**2, b**2 - a**2 or c**2 - b**2 leaves the binary64 range
        code = main(["params", "--a", a, "--b", b, "--c", c])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        for name, val in (("a", a), ("b", b), ("c", c)):
            assert f"{name}={float(val)}" in captured.err

    def test_route_disagreement_prints_plain_floats(self, capsys):
        # the quadrature of a_plus underflows to 0 at this scale, so the
        # two routes disagree; the message gives both values as floats
        code = main(["params", "--a", "1e150", "--b", "2e150", "--c", "3e150"])
        captured = capsys.readouterr()
        assert code == 2
        assert "quadrature 0.0 and closed form" in captured.err
        assert "np.float64" not in captured.err

    @pytest.mark.parametrize("a, b, c", [("1e-160", "1", "2"),
                                         ("1", "2", "1e154"),
                                         ("7.999999992", "8", "9")])
    def test_quadrature_exit_2_starts_stderr(self, a, b, c):
        # the integrand divides by zero or overflows in the seven integrals
        # (first two), or a second-kind moment does not converge (last); no
        # numpy warning may come ahead of the error line, which names the
        # curve once
        res = subprocess.run(
            [sys.executable, "-m", "thetawave.cli", "params",
             "--a", a, "--b", b, "--c", c],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
            text=True, timeout=120)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")
        assert "tanh_sinh" in res.stderr
        named = f"a={float(a)}, b={float(b)}, c={float(c)}"
        assert res.stderr.count(named) == 1

    def test_witness_beyond_eight(self, capsys):
        code, out = run(capsys, ["params"] + BASE
                        + ["--z-im2", repr(2.5 * FRB_PLUS)])
        assert code == 0
        assert json.loads(out)["reality"] == {"passed": True,
                                              "witness": [0, 10]}

    def test_deterministic(self, capsys):
        _, out1 = run(capsys, ["params"] + BASE)
        _, out2 = run(capsys, ["params"] + BASE)
        assert out1 == out2


class TestGrid:
    def test_csv_output(self, capsys):
        code, out = run(capsys, ["grid"] + BASE
                        + ["--nx", "3", "--nt", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,t,abs_p,re_p,im_p"
        assert len(lines) == 1 + 3 * 2
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(7.0, abs=1e-10)

    def test_abs_only_header(self, capsys):
        code, out = run(capsys, ["grid"] + BASE
                        + ["--nx", "2", "--nt", "2", "--abs-only"])
        assert code == 0
        assert out.splitlines()[0] == "x,t,abs_p"

    def test_roundtrip_precision(self, capsys):
        _, out = run(capsys, ["grid"] + BASE + ["--nx", "2", "--nt", "2"])
        row = out.strip().splitlines()[1].split(",")
        # 17 significant digits round-trip binary64 exactly
        assert float(row[2]) == float("%.17g" % float(row[2]))

    def test_pgm_output(self, capsys, tmp_path):
        out_path = tmp_path / "field.pgm"
        code, _ = run(capsys, ["grid"] + BASE
                      + ["--nx", "8", "--nt", "8", "--format", "pgm",
                         "--out", str(out_path)])
        assert code == 0
        raw = out_path.read_bytes()
        assert raw.startswith(b"P5\n8 8\n255\n")
        assert len(raw) == len(b"P5\n8 8\n255\n") + 64
        side = json.loads((tmp_path / "field.pgm.json").read_text())
        assert side["max"] > side["min"] > 0.0

    def test_pgm_without_out_exit_2(self, capsys, monkeypatch):
        # refused before any of the field is evaluated
        def no_grid(*args):
            raise AssertionError("sample_grid ran before the refusal")
        monkeypatch.setattr("thetawave.cli.sample_grid", no_grid)
        code = main(["grid"] + BASE + ["--nx", "4", "--nt", "4",
                                       "--format", "pgm"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: pgm output requires --out\n"

    @pytest.mark.parametrize("command", ["grid", "verify"])
    @pytest.mark.parametrize("nx, nt", [("2049", "2"), ("2", "2049")])
    def test_grid_size_bound_exit_2(self, capsys, command, nx, nt):
        code = main([command, "--nx", nx, "--nt", nt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "2048" in captured.err

    def test_json_format(self, capsys):
        code, out = run(capsys, ["grid"] + BASE
                        + ["--nx", "2", "--nt", "2", "--format", "json"])
        assert code == 0
        rep = json.loads(out)
        assert len(rep["abs_p"]) == 2


    @pytest.mark.parametrize("lambda0, nx, nt", [
        ("0", 512, 512), ("0.7", 37, 23)])
    def test_json_matches_encoder(self, capsys, lambda0, nx, nt):
        # the rows are written one at a time; the text is the encoder's
        window = ["--x0", "-0.1", "--x1", "0.5", "--t0", "0", "--t1", "0.05"]
        code, out = run(capsys, ["grid", "--lambda0", lambda0, "--nx",
                                 str(nx), "--nt", str(nt), "--format",
                                 "json"] + window)
        assert code == 0
        spec = GridSpec(-0.1, 0.5, 0.0, 0.05, nx, nt)
        sp = build_solution_params(CurveParams(float(lambda0), 6.0, 8.0,
                                               9.0))
        xs, ts = spec.axes()
        doc = {"x": xs.tolist(), "t": ts.tolist(),
               "abs_p": np.abs(sample_grid(spec, sp).values).tolist()}
        assert out == json.JSONEncoder(indent=2).encode(doc) + "\n"

    def test_json_blocks_write_floats_as_the_encoder(self):
        mag = np.array([[0.0, -0.0, 5e-324], [1e308, 0.1, 1.0 / 3.0]])
        axis = np.array([-1e-300, 2.5])
        text = "".join(_json_blocks(axis, axis[::-1], mag))
        doc = {"x": axis.tolist(), "t": axis[::-1].tolist(),
               "abs_p": mag.tolist()}
        assert text == json.JSONEncoder(indent=2).encode(doc) + "\n"

    def test_pgm_bytes_match_former_scaling(self, capsys, tmp_path):
        # scaled in place; the bytes are those of
        # round((|p|.T - lo) / span * 255) on a 300 x 200 grid
        out_path = tmp_path / "field.pgm"
        code, _ = run(capsys, ["grid", "--lambda0", "0.7", "--nx", "300",
                               "--nt", "200", "--format", "pgm", "--out",
                               str(out_path)])
        assert code == 0
        curve = CurveParams(0.7, 6.0, 8.0, 9.0)
        sp = build_solution_params(curve)
        lat = period_lattice(curve, sp.ell)
        spec = GridSpec(0.0, 2.0 * lat.X, 0.0, 2.0 * lat.T, 300, 200)
        mag = np.abs(sample_grid(spec, sp).values)
        lo, hi = float(np.min(mag)), float(np.max(mag))
        img = np.round((mag.T - lo) / (hi - lo) * 255.0).astype(np.uint8)
        assert out_path.read_bytes() == b"P5\n300 200\n255\n" + img.tobytes()

class TestScan:
    def test_vary_c_monotone(self, capsys):
        code, out = run(capsys, ["scan", "--lambda0", "0", "--a", "3",
                                 "--b", "5", "--vary", "c", "--start", "5.5",
                                 "--stop", "7.0", "--num", "4"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "value,X,T,h_minus,h_plus"
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        xs = [r[1] for r in rows]
        # X increases as c decreases toward b: decreasing along increasing c
        assert xs == sorted(xs, reverse=True)

    def test_vary_a_monotone(self, capsys):
        code, out = run(capsys, ["scan", "--a", "3", "--b", "5", "--c", "7",
                                 "--vary", "a", "--start", "0.5", "--stop",
                                 "4.5", "--num", "5"])
        assert code == 0
        rows = [list(map(float, ln.split(",")))
                for ln in out.strip().splitlines()[1:]]
        assert [r[0] for r in rows] == [0.5, 1.5, 2.5, 3.5, 4.5]
        # X and T grow as a rises toward b
        for col in (1, 2):
            vals = [r[col] for r in rows]
            assert all(lo < hi for lo, hi in zip(vals, vals[1:]))

    def test_missing_vary_exit_2(self, capsys):
        code, _ = run(capsys, ["scan"] + BASE)
        assert code == 2

    def test_default_num(self, capsys):
        code, out = run(capsys, ["scan", "--a", "3", "--b", "5", "--vary",
                                 "c", "--start", "5.5", "--stop", "9"])
        assert code == 0
        assert len(out.splitlines()) == 1 + 40

    @pytest.mark.parametrize("num", ["0", "-2"])
    def test_num_below_one_exit_2(self, capsys, num):
        # an explicit 0 used to fall back to the default 40 rows
        code = main(["scan", "--a", "3", "--b", "5", "--vary", "c",
                     "--start", "5.5", "--stop", "9", "--num", num])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert f"--num must be at least 1, got {num}" in captured.err

    @pytest.mark.parametrize("num", ["2049", "1000000000000"])
    def test_num_above_bound_exit_2(self, capsys, num):
        # 10**12 used to reach np.linspace, whose MemoryError traceback
        # exited 1, the "verification failed" code
        code = main(["scan", "--vary", "c", "--start", "9.5", "--stop", "12",
                     "--num", num])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert f"--num must be at most 2048, got {num}" in captured.err

    @pytest.mark.parametrize("bounds, flag, value", [
        (["--start", "9.5", "--stop", "inf"], "--stop", "inf"),
        (["--start=-inf", "--stop", "12"], "--start", "-inf"),
        (["--start", "nan", "--stop", "12"], "--start", "nan")])
    def test_non_finite_bound_one_error_line(self, bounds, flag, value):
        # np.linspace used to warn before c's own check refused the curve
        res = subprocess.run(
            [sys.executable, "-m", "thetawave.cli", "scan", "--vary", "c",
             *bounds], env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, timeout=120)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"error: {flag} must be finite, got {value}\n"


class TestVerify:
    def test_passes_at_reference(self, capsys):
        code, out = run(capsys, ["verify"] + BASE
                        + ["--nx", "128", "--nt", "128"])
        assert code == 0
        ledger = json.loads(out)
        assert ledger["residual"]["passed"]
        assert ledger["split_step"]["passed"]
        assert all(v["passed"] for v in ledger["symmetries"].values())

    def test_corruption_exit_1(self, capsys):
        code, out = run(capsys, ["verify"] + BASE
                        + ["--nx", "96", "--nt", "96", "--corrupt-k2"])
        assert code == 1
        ledger = json.loads(out)
        assert not ledger["residual"]["passed"]
        assert ledger["residual"]["residual_norm"] > 1e-4

    def test_passes_at_first_slot_imaginary_shift(self, capsys):
        # Z1 = i*frb_minus/2 has the reality witness N = (2, 0)
        code, out = run(capsys, ["verify", "--z-im1", "0.6691876313837515"])
        assert code == 0
        ledger = json.loads(out)
        assert ledger["symmetries"]["amplitude_consistency"]["passed"]

    def test_passes_at_full_b_period_shift(self, capsys):
        # Im Z2 = 2 frb_plus has the witness (0, 8); the ledger's shifted
        # phase needs (0, 10)
        code, out = run(capsys, ["verify"] + BASE
                        + ["--z-im2", repr(2.0 * FRB_PLUS)])
        assert code == 0
        ledger = json.loads(out)
        assert ledger["symmetries"]["complex_phase_reality"]["passed"]

    @pytest.mark.parametrize("flag, value", [("--nt", "4"), ("--nx", "3")])
    def test_grid_below_stencil_width_exit_2(self, capsys, flag, value):
        code = main(["verify"] + BASE + [flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        # names the flag and its value (numpy's own message names neither)
        assert f"{flag[2:]}={value}" in captured.err

    @pytest.mark.parametrize("eps", ["0", "-0.0001", "nan"])
    def test_eps_not_positive_exit_2(self, capsys, eps):
        # an explicit 0 used to run silently at the default 1e-4
        code = main(["verify", "--limit", "a_to_0", "--eps", eps])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "--eps must be positive" in captured.err

    def test_limit_entry_carries_no_verdict(self, capsys):
        code, out = run(capsys, ["verify"] + BASE + ["--limit", "a_to_0"])
        assert code == 0
        ledger = json.loads(out)
        assert "passed" not in ledger["limit"]
        assert ledger["limit"]["sup_distance"] < 1e-3

    @pytest.mark.parametrize("kind", ["c_to_b", "a_to_b", "a_to_0"])
    def test_limit_converges_at_lambda0(self, capsys, kind):
        # the degenerate curve and its reference field both carry --lambda0;
        # --corrupt-k2 on a 5 x 5 grid leaves out the split-step and
        # symmetry stages, which the limit entry does not read
        sups = {}
        for lambda0 in ("0", "0.7"):
            sups[lambda0] = []
            for eps in ("1e-2", "1e-3", "1e-4"):
                _, out = run(capsys, ["verify", "--corrupt-k2", "--nx", "5",
                                      "--nt", "5", "--limit", kind, "--eps",
                                      eps, "--lambda0", lambda0])
                sups[lambda0].append(
                    json.loads(out)["limit"]["sup_distance"])
            first, mid, last = sups[lambda0]
            assert first > mid > last
            assert last < 0.5
        # ignoring --lambda0 would repeat the lambda0 = 0 distances
        assert sups["0.7"] != sups["0"]


class TestLimits:
    def test_a_to_0_report(self, capsys):
        code, out = run(capsys, ["limits", "--kind", "a_to_0", "--lambda0",
                                 "0", "--a", "0.001", "--b", "8",
                                 "--c", "9"])
        assert code == 0
        rep = json.loads(out)
        assert rep["integrals"]["a_plus"]["rel_err"] < 1e-5
        assert rep["derived"]["K2"] == pytest.approx(145.0)

    def test_a_to_b_report(self, capsys):
        code, out = run(capsys, ["limits", "--kind", "a_to_b", "--a",
                                 "4.9995", "--b", "5", "--c", "9"])
        assert code == 0
        rep = json.loads(out)
        assert rep["small_parameter"] == pytest.approx(1e-4, rel=1e-9)
        for name in ("a_plus", "b_minus", "b1_minus"):
            assert rep["integrals"][name]["rel_err"] < 1e-4, name

    def test_c_to_b_report(self, capsys):
        code, out = run(capsys, ["limits", "--kind", "c_to_b", "--a", "6",
                                 "--b", "8", "--c", "8.001"])
        assert code == 0
        rep = json.loads(out)
        # b1_minus and f_minus converge only logarithmically in c - b
        for name in ("a_plus", "b_plus", "a_minus", "b_minus", "d_minus"):
            assert rep["integrals"][name]["rel_err"] < 5e-4, name

    def test_missing_kind_exit_2(self, capsys):
        code, _ = run(capsys, ["limits"] + BASE)
        assert code == 2


class TestConfig:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"a": 6, "b": 8, "c": 9, "nx": 3, "nt": 3}))
        code, out = run(capsys, ["grid", "--config", str(cfg), "--nt", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 3 * 2  # nx from config, nt from flag

    def test_missing_config_exit_3(self, capsys):
        code, _ = run(capsys, ["params", "--config", "/nonexistent.json"])
        assert code == 3

    @pytest.mark.parametrize("key, value", [
        ("lambda0", 0.5), ("a", 6.5), ("b", 8.5), ("c", 9.5),
        ("z_re1", 0.25), ("z_im1", 0.125), ("z_re2", -0.25),
        ("z_im2", 0.375), ("x0", -1.0), ("x1", 2.5), ("t0", -0.5),
        ("t1", 0.75), ("nx", 32), ("nt", 24), ("out", "field.csv"),
        ("format", "json"),
    ])
    def test_config_and_flag_resolve_alike(self, tmp_path, key, value):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: value}))
        flag = "--" + key.replace("_", "-")
        parser = _parser()
        via_config = _resolve(parser.parse_args(
            ["grid", "--config", str(cfg_file)]))
        via_flag = _resolve(parser.parse_args(["grid", flag, str(value)]))
        assert via_config == via_flag
        assert via_flag[key] == value
        assert via_flag != _resolve(parser.parse_args(["grid"]))

    def test_integer_config_prints_as_its_flag(self, capsys, tmp_path):
        # K1 = -lambda0 is -0.0 for the float 0.0 but 0 for the integer 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda0": 0, "a": 6, "b": 8, "c": 9}))
        _, via_config = run(capsys, ["params", "--config", str(cfg)])
        _, via_flags = run(capsys, ["params"] + BASE)
        assert via_config == via_flags

    @pytest.mark.parametrize("command, payload", [
        ("params", [6, 8, 9]),
        ("params", {"a": "x"}),
        ("grid", {"nx": 16.5}),
        ("params", {"lamda0": 0.5}),
    ])
    def test_malformed_config_exit_2(self, capsys, tmp_path, command,
                                     payload):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        code = main([command, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def test_runtime_imports_no_scipy():
    # scipy is a test-only dependency; importing it would add about 0.3 s
    # to every CLI call
    probe = """
import contextlib, io, sys
import thetawave
from thetawave.cli import main
for argv in (["params"], ["grid", "--format", "json"],
             ["limits", "--kind", "a_to_0"], ["verify", "--limit", "a_to_0"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = {**os.environ, "PYTHONPATH": SRC}
    res = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


CURVE = {"--lambda0", "--a", "--b", "--c", "--out"}
PHASE = {"--z-re1", "--z-im1", "--z-re2", "--z-im2"}
SIZE = {"--nx", "--nt"}
WINDOW = {"--x0", "--x1", "--t0", "--t1", "--format"}

# subcommand -> (the shared flags it reads, its own flags)
OPTIONS = {
    "params": (CURVE | PHASE, set()),
    "grid": (CURVE | PHASE | SIZE | WINDOW, {"--abs-only"}),
    "scan": (CURVE, {"--vary", "--start", "--stop", "--num"}),
    "verify": (CURVE | PHASE | SIZE, {"--corrupt-k2", "--limit", "--eps"}),
    "limits": (CURVE, {"--kind"}),
}


class TestSharedFlags:
    @pytest.mark.parametrize("command, count", [
        ("params", 9), ("grid", 16), ("scan", 5), ("verify", 11),
        ("limits", 5)])
    def test_parser_takes_only_flags_read(self, command, count):
        sub = next(a for a in _parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        taken = {s for a in sub.choices[command]._actions
                 for s in a.option_strings} - {"-h", "--help"}
        shared, own = OPTIONS[command]
        assert len(shared) == count
        assert taken == shared | own | {"--config"}

    @pytest.mark.parametrize("argv", [
        ["params", "--nx", "64"], ["grid", "--kind", "a_to_0"],
        ["scan", "--z-im2", "0.1"], ["verify", "--x1", "1"],
        ["verify", "--format", "pgm"], ["limits", "--format", "pgm"]])
    def test_unread_flag_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in captured.err

    @pytest.mark.parametrize("argv", [
        ["verify", "--x1", "1"], ["scan", "--z-im2", "0.1"]])
    def test_unread_flag_gets_subcommand_usage(self, capsys, argv):
        with pytest.raises(SystemExit):
            main(argv)
        err = capsys.readouterr().err
        assert err.startswith(f"usage: thetawave {argv[0]} [-h]")
        assert f"thetawave {argv[0]}: error: unrecognized arguments: " \
            f"{' '.join(argv[1:])}\n" in err

    @pytest.mark.parametrize("command, key, value", [
        ("params", "nx", 64), ("grid", "kind", "a_to_0"),
        ("scan", "z_im2", 0.1), ("verify", "x1", 1.0),
        ("limits", "format", "pgm")])
    def test_unread_config_key_exit_2(self, capsys, tmp_path, command, key,
                                      value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = main([command, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert repr(key) in captured.err and command in captured.err

    def test_null_config_value(self, capsys, tmp_path):
        # null stands for a flag left unset, so only a flag whose default
        # is unset takes it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": None}))
        _, via_config = run(capsys, ["params", "--config", str(cfg)])
        _, via_flags = run(capsys, ["params"])
        assert via_config == via_flags
        cfg.write_text(json.dumps({"a": None}))
        code = main(["params", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: config key 'a' has invalid value None\n"


class TestRealityRefusal:
    # Im Z2 = frb+/4 and 0.1 have no reality witness on (0, 6, 8, 9); grid
    # used to release |p| up to 832 there, and verify refused only after
    # the residual and split-step had run
    @pytest.mark.parametrize("command", ["grid", "verify"])
    @pytest.mark.parametrize("z_im2", [repr(FRB_PLUS / 4.0), "0.1"])
    def test_unwitnessed_phase_exit_2(self, capsys, command, z_im2):
        code = main([command, "--z-im2", z_im2, "--nx", "16", "--nt", "16"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --z-im1 and --z-im2 fail "
                                       "the reality condition")

    def test_witnessed_phase_grid_exit_0(self, capsys):
        # Im Z2 = frb+/2 has the witness (0, 2)
        code, out = run(capsys, ["grid", "--z-im2", repr(FRB_PLUS / 2.0),
                                 "--nx", "16", "--nt", "16"])
        assert code == 0
        assert len(out.splitlines()) == 1 + 16 * 16

    def test_params_reports_without_refusing(self, capsys):
        code, out = run(capsys, ["params", "--z-im2", "0.1"])
        assert code == 0
        assert json.loads(out)["reality"] == {"passed": False,
                                              "witness": None}

    @pytest.mark.parametrize("argv", [
        ["params"], ["grid", "--nx", "16", "--nt", "16"],
        ["verify", "--nx", "16", "--nt", "16"]])
    def test_phase_beyond_binary64_resolution(self, argv):
        # params used to report the false witness [0, -2**63], after
        # numpy's int64 cast warning
        res = subprocess.run(
            [sys.executable, "-m", "thetawave.cli", *argv, "--z-im2", "1e300"],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
            text=True, timeout=120)
        if argv == ["params"]:
            assert res.returncode == 0
            assert res.stderr == ""
            assert json.loads(res.stdout)["reality"] == {"passed": False,
                                                         "witness": None}
        else:
            assert res.returncode == 2
            assert res.stdout == ""
            assert res.stderr.startswith("error: --z-im1 and --z-im2 fail "
                                         "the reality condition")
            assert len(res.stderr.splitlines()) == 1


class TestNonFiniteInputs:
    @pytest.mark.parametrize("argv", [
        ["params", "--z-re1", "nan"], ["params", "--z-re2", "inf"],
        ["grid", "--z-re1", "nan", "--nx", "4", "--nt", "4"],
        ["verify", "--z-im2=-inf"]])
    def test_non_finite_phase_exit_2(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: initial phase Z ")

    def test_nan_phase_in_config_exit_2(self, capsys, tmp_path):
        # json.load takes the literal NaN
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"z_im1": NaN}')
        code = main(["params", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: initial phase Z ")

    @pytest.mark.parametrize("bound", ["--x1=inf", "--t1=inf", "--x0=-inf"])
    def test_infinite_grid_bound_one_error_line(self, bound):
        res = subprocess.run(
            [sys.executable, "-m", "thetawave.cli", "grid", bound],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
            text=True, timeout=120)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: need finite x0 < x1 and t0 < t1\n"

    def test_non_finite_integrand_exit_2(self, capsys):
        code = main(["params", "--a", "1e-160", "--b", "1", "--c", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error: curve a=1e-160, b=1.0, c=2.0: "
                                "non-finite integrand values in tanh_sinh\n")


class TestLambda0Bound:
    # 2*lambda0**2 (the K2 shift) overflows binary64 above 9.48e153; K2
    # used to come out -Infinity, or the report died on an OverflowError
    @pytest.mark.parametrize("lam", ["1e154", "1e160"])
    @pytest.mark.parametrize("argv", [
        ["params"], ["limits", "--kind", "c_to_b", "--c", "8.001"],
        ["grid", "--nx", "16", "--nt", "16"],
        ["verify", "--nx", "16", "--nt", "16"],
        ["scan", "--vary", "c", "--start", "9.5", "--stop", "12", "--num",
         "3"]])
    def test_overflowing_lambda0_exit_2(self, capsys, argv, lam):
        code = main(argv + ["--lambda0", lam])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: need 2*lambda0**2 finite in "
                                f"binary64, got lambda0={float(lam)}\n")

    def test_lambda0_below_bound_reports_finite_json(self, capsys):
        def refuse(name):
            raise ValueError(f"non-finite JSON constant {name}")
        code, out = run(capsys, ["params", "--lambda0", "9e153"])
        assert code == 0
        rep = json.loads(out, parse_constant=refuse)
        assert rep["solution"]["K2"] < 0.0
