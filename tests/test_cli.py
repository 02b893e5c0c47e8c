"""Unit tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thetawave.cli import _parser, _resolve, main
from thetawave.curve import build_solution_params
from thetawave.elliptic import CurveParams

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

    @pytest.mark.parametrize("a, b, c", [("1e-160", "1", "2"),
                                         ("1", "2", "1e154")])
    def test_quadrature_exit_2_starts_stderr(self, a, b, c):
        # the integrand divides by zero or overflows here; no numpy warning
        # may come ahead of the error line
        res = subprocess.run(
            [sys.executable, "-m", "thetawave.cli", "params",
             "--a", a, "--b", b, "--c", c],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
            text=True, timeout=120)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")

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

    def test_pgm_without_out_exit_2(self, capsys):
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


class TestLimits:
    def test_a_to_0_report(self, capsys):
        code, out = run(capsys, ["limits", "--kind", "a_to_0", "--lambda0",
                                 "0", "--a", "0.001", "--b", "8",
                                 "--c", "9"])
        assert code == 0
        rep = json.loads(out)
        assert rep["integrals"]["a_plus"]["rel_err"] < 1e-5
        assert rep["derived"]["K2"] == pytest.approx(145.0)

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
