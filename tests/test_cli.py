"""Unit tests for the command-line interface."""

import argparse
import json
import os
from pathlib import Path

import numpy as np
import pytest

import thetawave._text as _text
import thetawave.cli as cli
import thetawave.verify as verify
from thetawave.cli import _json_blocks, _parser, _resolve, main
from thetawave.curve import build_solution_params, period_lattice
from thetawave.elliptic import CurveParams
from thetawave.solution import GridSpec, sample_grid

BASE = ["--lambda0", "0", "--a", "6", "--b", "8", "--c", "9"]
FRB_PLUS = float(
    build_solution_params(CurveParams(0.0, 6.0, 8.0, 9.0)).frb_plus)
GOLDEN = Path(__file__).resolve().parent / "golden"


def hypot(values):
    """|p| as grid writes it for every format: the libm hypot."""
    return np.hypot(values.real, values.imag)


class TestParams:
    def test_json_report(self, run_cli):
        code, out, _ = run_cli(["params"] + BASE)
        assert code == 0
        rep = json.loads(out)
        assert rep["elliptic"]["a_plus"] == pytest.approx(
            0.5886313191034631, rel=1e-12)
        assert rep["periods"]["X"] == pytest.approx(0.29431565955173156)
        assert rep["periods"]["Tprime"] is None
        assert rep["reality"]["passed"] is True
        assert 0.0 < rep["h_plus"] < 1.0
        assert rep["h_minus"] < rep["h_plus"]

    def test_tprime_present_with_lambda0(self, run_cli):
        code, out, _ = run_cli(["params", "--lambda0", "0.5", "--a", "6",
                                "--b", "8", "--c", "9"])
        assert code == 0
        rep = json.loads(out)
        assert rep["periods"]["Tprime"] is not None
        assert rep["solution"]["K1"] == pytest.approx(-0.5)

    def test_invalid_ordering_exit_2(self, run_cli):
        assert run_cli(["params", "--a", "9", "--b", "8", "--c", "6"])[0] == 2

    def test_non_converging_curve_exit_2(self, run_cli):
        # c - b = 1e-8 lies outside the envelope where tanh-sinh converges
        code, out, err = run_cli(["params", "--a", "6", "--b", "8", "--c",
                                  "8.00000001"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("a, b, c", [
        ("1e-200", "2e-200", "3e-200"),
        ("1e-170", "1", "2"),
        ("1", "2", "1e160"),
    ])
    def test_under_or_overflowing_curve_exit_2(self, run_cli, a, b, c):
        # a**2, b**2 - a**2 or c**2 - b**2 leaves the binary64 range
        code, out, err = run_cli(["params", "--a", a, "--b", b, "--c", c])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        for name, val in (("a", a), ("b", b), ("c", c)):
            assert f"{name}={float(val)}" in err

    def test_route_disagreement_prints_plain_floats(self, run_cli):
        # the quadrature of a_plus underflows to 0 at this scale, so the
        # two routes disagree; the message gives both values as floats
        code, out, err = run_cli(["params", "--a", "1e150", "--b", "2e150",
                                  "--c", "3e150"])
        assert code == 2
        assert "quadrature 0.0 and closed form" in err
        assert "np.float64" not in err

    @pytest.mark.parametrize("a, b, c", [("1e-160", "1", "2"),
                                         ("1", "2", "1e154"),
                                         ("7.999999992", "8", "9")])
    def test_quadrature_exit_2_starts_stderr(self, python, a, b, c):
        # the integrand divides by zero or overflows in the seven integrals
        # (first two), or a second-kind moment does not converge (last); no
        # numpy warning may come ahead of the error line, which names the
        # curve once
        res = python.run("-m", "thetawave.cli", "params", "--a", a, "--b", b,
                         "--c", c)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")
        assert "tanh_sinh" in res.stderr
        named = f"a={float(a)}, b={float(b)}, c={float(c)}"
        assert res.stderr.count(named) == 1

    def test_witness_beyond_eight(self, run_cli):
        code, out, _ = run_cli(["params"] + BASE
                       + ["--z-im2", repr(2.5 * FRB_PLUS)])
        assert code == 0
        assert json.loads(out)["reality"] == {"passed": True,
                                              "witness": [0, 10]}

    def test_deterministic(self, run_cli):
        _, out1, _ = run_cli(["params"] + BASE)
        _, out2, _ = run_cli(["params"] + BASE)
        assert out1 == out2


class TestGrid:
    def test_csv_output(self, run_cli):
        code, out, _ = run_cli(["grid"] + BASE
                       + ["--nx", "3", "--nt", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,t,abs_p,re_p,im_p"
        assert len(lines) == 1 + 3 * 2
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(7.0, abs=1e-10)

    def test_abs_only_header(self, run_cli):
        code, out, _ = run_cli(["grid"] + BASE
                       + ["--nx", "2", "--nt", "2", "--abs-only"])
        assert code == 0
        assert out.splitlines()[0] == "x,t,abs_p"

    def test_roundtrip_precision(self, run_cli):
        _, out, _ = run_cli(["grid"] + BASE + ["--nx", "2", "--nt", "2"])
        row = out.strip().splitlines()[1].split(",")
        # 17 significant digits round-trip binary64 exactly
        assert float(row[2]) == float("%.17g" % float(row[2]))

    def test_pgm_output(self, run_cli, tmp_path):
        out_path = tmp_path / "field.pgm"
        code, _, _ = run_cli(["grid"] + BASE
                     + ["--nx", "8", "--nt", "8", "--format", "pgm",
                        "--out", str(out_path)])
        assert code == 0
        raw = out_path.read_bytes()
        assert raw.startswith(b"P5\n8 8\n255\n")
        assert len(raw) == len(b"P5\n8 8\n255\n") + 64
        side = json.loads((tmp_path / "field.pgm.json").read_text())
        assert side["max"] > side["min"] > 0.0

    def test_pgm_without_out_exit_2(self, run_cli, monkeypatch):
        # refused before any of the field is evaluated
        def no_grid(*args):
            raise AssertionError("sample_grid ran before the refusal")
        monkeypatch.setattr("thetawave.cli.sample_grid", no_grid)
        code, out, err = run_cli(["grid"] + BASE + ["--nx", "4", "--nt",
                                                    "4", "--format", "pgm"])
        assert (code, out) == (2, "")
        assert err == "error: pgm output requires --out\n"

    @pytest.mark.parametrize("command", ["grid", "verify"])
    @pytest.mark.parametrize("nx, nt", [("2049", "2"), ("2", "2049")])
    def test_grid_size_bound_exit_2(self, run_cli, command, nx, nt):
        code, out, err = run_cli([command, "--nx", nx, "--nt", nt])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert "2048" in err

    def test_json_format(self, run_cli):
        code, out, _ = run_cli(["grid"] + BASE
                       + ["--nx", "2", "--nt", "2", "--format", "json"])
        assert code == 0
        rep = json.loads(out)
        assert len(rep["abs_p"]) == 2


    @pytest.mark.parametrize("lambda0, nx, nt", [
        ("0", 512, 512), ("0.7", 37, 23)])
    def test_json_matches_encoder(self, run_cli, lambda0, nx, nt):
        # the rows are written one at a time; the text is the encoder's
        window = ["--x0", "-0.1", "--x1", "0.5", "--t0", "0", "--t1", "0.05"]
        code, out, _ = run_cli(["grid", "--lambda0", lambda0, "--nx",
                                str(nx), "--nt", str(nt), "--format",
                                "json"] + window)
        assert code == 0
        spec = GridSpec(-0.1, 0.5, 0.0, 0.05, nx, nt)
        sp = build_solution_params(CurveParams(float(lambda0), 6.0, 8.0,
                                               9.0))
        xs, ts = spec.axes()
        doc = {"x": xs.tolist(), "t": ts.tolist(),
               "abs_p": hypot(sample_grid(spec, sp).values).tolist()}
        assert out == json.JSONEncoder(indent=2).encode(doc) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "abs-only", "json"])
    @pytest.mark.parametrize("lambda0", [0.0, 0.7])
    def test_text_matches_per_value_formatting(self, run_cli, lambda0, fmt):
        # the oracle: the per-value Python formatting the text kernel
        # replaced; the scalar abs for csv, its array form np.hypot for json
        argv = ["--lambda0", str(lambda0), "--nx", "64", "--nt", "64"]
        argv += ["--abs-only"] if fmt == "abs-only" else ["--format", fmt]
        code, out, _ = run_cli(["grid"] + argv)
        curve = CurveParams(lambda0, 6.0, 8.0, 9.0)
        sp = build_solution_params(curve)
        lat = period_lattice(curve, sp.ell)
        spec = GridSpec(0.0, 2.0 * lat.X, 0.0, 2.0 * lat.T, 64, 64)
        xs, ts = spec.axes()
        values = sample_grid(spec, sp).values
        if fmt == "json":
            doc = {"x": xs.tolist(), "t": ts.tolist(),
                   "abs_p": hypot(values).tolist()}
            want = json.JSONEncoder(indent=2).encode(doc) + "\n"
        elif fmt == "abs-only":
            want = "x,t,abs_p\n" + "".join(
                "%.17g,%.17g,%.17g\n" % (x, t, abs(v))
                for x, row in zip(xs, values) for t, v in zip(ts, row))
        else:
            want = "x,t,abs_p,re_p,im_p\n" + "".join(
                "%.17g,%.17g,%.17g,%.17g,%.17g\n"
                % (x, t, abs(v), v.real, v.imag)
                for x, row in zip(xs, values) for t, v in zip(ts, row))
        assert (code, out) == (0, want)

    @pytest.mark.parametrize("fmt", ["json", "pgm"])
    def test_abs_only_other_format_exit_2(self, run_cli, tmp_path, fmt):
        path = tmp_path / "field"
        code, out, err = run_cli(["grid", "--nx", "4", "--nt", "4",
                                  "--abs-only", "--format", fmt, "--out",
                                  str(path)])
        assert (code, out) == (2, "")
        assert err == ("error: --abs-only applies to csv only, not "
                       f"--format {fmt}\n")
        assert not path.exists()

    def test_json_blocks_write_floats_as_the_encoder(self):
        mag = np.array([[0.0, -0.0, 5e-324], [1e308, 0.1, 1.0 / 3.0]])
        axis = np.array([-1e-300, 2.5])
        text = "".join(_json_blocks(axis, axis[::-1], mag))
        doc = {"x": axis.tolist(), "t": axis[::-1].tolist(),
               "abs_p": mag.tolist()}
        assert text == json.JSONEncoder(indent=2).encode(doc) + "\n"

    def test_pgm_bytes_match_former_scaling(self, run_cli, tmp_path):
        # scaled in place; the bytes are those of
        # round((|p|.T - lo) / span * 255) on a 300 x 200 grid
        out_path = tmp_path / "field.pgm"
        code, _, _ = run_cli(["grid", "--lambda0", "0.7", "--nx", "300",
                              "--nt", "200", "--format", "pgm", "--out",
                              str(out_path)])
        assert code == 0
        curve = CurveParams(0.7, 6.0, 8.0, 9.0)
        sp = build_solution_params(curve)
        lat = period_lattice(curve, sp.ell)
        spec = GridSpec(0.0, 2.0 * lat.X, 0.0, 2.0 * lat.T, 300, 200)
        mag = hypot(sample_grid(spec, sp).values)
        lo, hi = float(np.min(mag)), float(np.max(mag))
        img = np.round((mag.T - lo) / (hi - lo) * 255.0).astype(np.uint8)
        assert out_path.read_bytes() == b"P5\n300 200\n255\n" + img.tobytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedGrid:
    """grid's csv and json text formatted by forked children: the cells per
    process patched to 1 and os.sched_getaffinity to 1, 2 or 3 CPUs, or the
    tuned cells on 2 CPUs against 1."""

    @pytest.fixture
    def forced(self, monkeypatch, forks):
        """forced(cpus, fork_cells=1): force the forked path on cpus usable
        CPUs."""
        def set_cpus(cpus, fork_cells=1):
            monkeypatch.setattr(cli, "_FORK_CELLS", fork_cells)
            # one x row per band, so that every row can go to a child
            monkeypatch.setattr(cli, "_BAND_CELLS", 1)
            forks.cpus(cpus)

        return set_cpus

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("name, argv", [
        ("grid_csv", ["--nx", "16", "--nt", "16"]),
        ("grid_csv_abs_lambda0", ["--lambda0", "0.6", "--nx", "16", "--nt",
                                  "16", "--abs-only"]),
        ("grid_json", ["--nx", "16", "--nt", "16", "--format", "json"]),
        ("grid_json_lambda0", ["--lambda0", "0.6", "--nx", "8", "--nt", "8",
                               "--format", "json"])])
    def test_golden_bytes(self, run_cli, forks, forced, name, argv, cpus):
        argv = ["grid"] + argv
        one_process = run_cli(argv)
        forced(cpus)
        assert run_cli(argv) == one_process
        assert one_process[1] == (GOLDEN / f"{name}.out").read_text()
        assert len(forks.pids) == cpus - 1
        forks.assert_all_reaped()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fewer_rows_than_cpus(self, run_cli, forks, forced, fmt):
        argv = ["grid", "--nx", "2", "--nt", "5", "--format", fmt]
        one_process = run_cli(argv)
        forced(3)
        assert run_cli(argv) == one_process
        assert len(forks.pids) == 1
        forks.assert_all_reaped()

    def test_failing_child_exit_3(self, run_cli, forks, forced, monkeypatch):
        parent = os.getpid()
        g17 = _text.g17

        def g17_in_parent_only(v):
            if os.getpid() != parent:
                raise ValueError("a child cannot format")
            return g17(v)

        # the csv bands call the kernel through the module
        monkeypatch.setattr(_text, "g17", g17_in_parent_only)
        forced(2)
        code, out, err = run_cli(["grid", "--nx", "8", "--nt", "8"])
        assert code == 3
        # the child's traceback, then the parent's one error line
        err = err.splitlines()
        assert err[0] == "Traceback (most recent call last):"
        assert "ValueError: a child cannot format" in err
        assert [ln for ln in err if ln.startswith("i/o error:")] == [err[-1]]
        assert err[-1] == ("i/o error: the process formatting row 1 ended "
                           "early")
        # the header and row 0, which the parent formats: no more
        assert len(out.splitlines()) == 1 + 8
        forks.assert_all_reaped()

    def test_failing_fork_formats_in_parent(self, run_cli, forks, forced):
        argv = ["grid", "--nx", "6", "--nt", "4"]
        one_process = run_cli(argv)
        forced(3)
        forks.fail_from(2)
        assert run_cli(argv) == one_process
        # the first child was forked, then killed and reaped
        assert len(forks.pids) == 1
        forks.assert_all_reaped()

    @pytest.mark.parametrize("nx, nt, children", [
        (16, 16, 0), (159, 160, 0), (160, 160, 1), (240, 160, 2)])
    def test_children_per_fork_cells(self, run_cli, forks, forced, nx, nt,
                                     children):
        # 64 CPUs, but a process for every 80 x 160 cells only
        forced(64, 80 * 160)
        argv = ["grid", "--nx", str(nx), "--nt", str(nt), "--abs-only"]
        assert run_cli(argv)[0] == 0
        assert len(forks.pids) == children
        forks.assert_all_reaped()

    @pytest.mark.parametrize("nx, children", [(223, 0), (224, 1)])
    def test_two_processes_from_224_squared(self, run_cli, forks, nx,
                                            children):
        # the tuned _FORK_CELLS and band size, on 64 CPUs
        forks.cpus(64)
        argv = ["grid", "--nx", str(nx), "--nt", "224", "--abs-only"]
        assert run_cli(argv)[0] == 0
        assert len(forks.pids) == children
        forks.assert_all_reaped()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_two_cpus_write_the_one_cpu_bytes(self, run_cli, forks, fmt):
        # the tuned _FORK_CELLS and band size: 256**2 cells are above the
        # 224**2 from which grid formats its text in two processes
        argv = ["grid", "--lambda0", "0.7", "--nx", "256", "--nt", "256",
                "--format", fmt]
        forks.cpus(1)
        one_cpu = run_cli(argv)
        assert one_cpu[::2] == (0, "")
        forks.cpus(2)
        assert run_cli(argv) == one_cpu
        assert len(forks.pids) == 1
        forks.assert_all_reaped()

    def test_failing_parent_reaps_children(self, run_cli, forks, forced,
                                           monkeypatch):
        parent = os.getpid()
        g17 = _text.g17

        def g17_in_children_only(v):
            if os.getpid() == parent:
                raise ValueError("the parent cannot format")
            return g17(v)

        monkeypatch.setattr(_text, "g17", g17_in_children_only)
        forced(3)
        assert run_cli(["grid", "--nx", "8", "--nt", "8"])[::2] == (
            2, "error: the parent cannot format\n")
        assert len(forks.pids) == 2
        forks.assert_all_reaped()

    ARGS = ["-m", "thetawave.cli", "grid", "--nx", "300", "--nt", "300"]

    def test_pipe_gets_in_process_bytes(self, run_cli, python, monkeypatch):
        # a child that flushed the stdout buffer it inherited would repeat
        # the header; on one CPU nothing is forked and this still holds
        res = python.run(*self.ARGS, buffered=True)
        monkeypatch.setattr(cli, "_FORK_CELLS", 10**9)
        assert (res.returncode, res.stdout) == run_cli(self.ARGS[2:])[:2]
        assert res.stdout.count("x,t,abs_p") == 1
        assert res.stderr == ""

    def test_closed_pipe_exit_3(self, python):
        proc = python.popen(*self.ARGS, buffered=True)
        assert proc.stdout.readline() == b"x,t,abs_p,re_p,im_p\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 3
        # the parent has exited, and stderr is at EOF only if no forked
        # child still holds it: a read that would block raises here
        os.set_blocking(proc.stderr.fileno(), False)
        err = b""
        while chunk := os.read(proc.stderr.fileno(), 4096):
            err += chunk
        proc.stderr.close()
        assert err.startswith(b"i/o error: ")
        assert err.count(b"\n") == 1


class TestScan:
    def test_vary_c_monotone(self, run_cli):
        code, out, _ = run_cli(["scan", "--lambda0", "0", "--a", "3",
                                "--b", "5", "--vary", "c", "--start", "5.5",
                                "--stop", "7.0", "--num", "4"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "value,X,T,h_minus,h_plus"
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        xs = [r[1] for r in rows]
        # X increases as c decreases toward b: decreasing along increasing c
        assert xs == sorted(xs, reverse=True)

    def test_vary_a_monotone(self, run_cli):
        code, out, _ = run_cli(["scan", "--a", "3", "--b", "5", "--c", "7",
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

    @pytest.mark.parametrize("vary, start, stop", [
        ("c", "5.5", "9"), ("a", "0.5", "4.5")])
    def test_nomes_match_params(self, run_cli, vary, start, stop):
        # scan and params print the one nome exp(-2*pi*frb) of each curve
        _, out, _ = run_cli(["scan", "--a", "3", "--b", "5", "--c", "7",
                             "--vary", vary, "--start", start, "--stop",
                             stop, "--num", "9"])
        for line in out.splitlines()[1:]:
            val, _, _, hm, hp = line.split(",")
            curve = {"a": "3", "b": "5", "c": "7", vary: val}
            _, rep, _ = run_cli(["params"] + [
               s for k, v in curve.items() for s in (f"--{k}", v)])
            rep = json.loads(rep)
            assert (float(hm), float(hp)) == (rep["h_minus"], rep["h_plus"])

    def test_missing_vary_exit_2(self, run_cli):
        assert run_cli(["scan"] + BASE)[0] == 2

    def test_default_num(self, run_cli):
        code, out, _ = run_cli(["scan", "--a", "3", "--b", "5", "--vary",
                                "c", "--start", "5.5", "--stop", "9"])
        assert code == 0
        assert len(out.splitlines()) == 1 + 40

    @pytest.mark.parametrize("num", ["0", "-2"])
    def test_num_below_one_exit_2(self, run_cli, num):
        # an explicit 0 used to fall back to the default 40 rows
        code, out, err = run_cli(["scan", "--a", "3", "--b", "5", "--vary",
                                  "c", "--start", "5.5", "--stop", "9",
                                  "--num", num])
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert f"--num must be at least 1, got {num}" in err

    @pytest.mark.parametrize("num", ["2049", "1000000000000"])
    def test_num_above_bound_exit_2(self, run_cli, num):
        # 10**12 used to reach np.linspace, whose MemoryError traceback
        # exited 1, the "verification failed" code
        code, out, err = run_cli(["scan", "--vary", "c", "--start", "9.5",
                                  "--stop", "12", "--num", num])
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert f"--num must be at most 2048, got {num}" in err

    @pytest.mark.parametrize("bounds, flag, value", [
        (["--start", "9.5", "--stop", "inf"], "--stop", "inf"),
        (["--start=-inf", "--stop", "12"], "--start", "-inf"),
        (["--start", "nan", "--stop", "12"], "--start", "nan")])
    def test_non_finite_bound_one_error_line(self, python, bounds, flag,
                                             value):
        # np.linspace used to warn before c's own check refused the curve
        res = python.run("-m", "thetawave.cli", "scan", "--vary", "c",
                         *bounds)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"error: {flag} must be finite, got {value}\n"

    @pytest.mark.parametrize("bounds, width", [
        (["--start=-1e308", "--stop", "1e308"], "inf"),
        (["--start", "1e308", "--stop=-1e308"], "-inf")])
    def test_overflowing_range_one_error_line(self, python, bounds, width):
        # finite bounds whose difference overflows used to warn in
        # np.linspace before c's own check refused the curve
        res = python.run("-m", "thetawave.cli", "scan", "--vary", "c",
                         *bounds)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == ("error: --stop minus --start must be finite, "
                              f"got {width}\n")


class TestVerify:
    def test_passes_at_reference(self, run_cli):
        code, out, _ = run_cli(["verify"] + BASE
                       + ["--nx", "128", "--nt", "128"])
        assert code == 0
        ledger = json.loads(out)
        assert ledger["residual"]["passed"]
        assert ledger["split_step"]["passed"]
        assert all(v["passed"] for v in ledger["symmetries"].values())

    def test_corruption_exit_1(self, run_cli):
        code, out, _ = run_cli(["verify"] + BASE
                       + ["--nx", "96", "--nt", "96", "--corrupt-k2"])
        assert code == 1
        ledger = json.loads(out)
        assert not ledger["residual"]["passed"]
        assert ledger["residual"]["residual_norm"] > 1e-4

    def test_corruption_faces_every_instrument(self, run_cli):
        # K2 + 0.1 goes through the whole ledger: the residual, the
        # split-step against the K2 + 0.1 field at T and the scaling
        # check, whose rescaled curve is built afresh, fail
        code, out, _ = run_cli(["verify", "--corrupt-k2"])
        assert code == 1
        ledger = json.loads(out)
        assert list(ledger) == ["residual", "split_step", "symmetries"]
        assert not ledger["residual"]["passed"]
        assert not ledger["split_step"]["passed"]
        assert [name for name, e in ledger["symmetries"].items()
                if not e["passed"]] == ["scaling"]

    def test_passes_at_first_slot_imaginary_shift(self, run_cli):
        # Z1 = i*frb_minus/2 has the reality witness N = (2, 0)
        code, out, _ = run_cli(["verify", "--z-im1", "0.6691876313837515"])
        assert code == 0
        ledger = json.loads(out)
        assert ledger["symmetries"]["amplitude_consistency"]["passed"]

    def test_passes_at_full_b_period_shift(self, run_cli):
        # Im Z2 = 2 frb_plus has the witness (0, 8); the ledger's shifted
        # phase needs (0, 10)
        code, out, _ = run_cli(["verify"] + BASE
                       + ["--z-im2", repr(2.0 * FRB_PLUS)])
        assert code == 0
        ledger = json.loads(out)
        assert ledger["symmetries"]["complex_phase_reality"]["passed"]

    @pytest.mark.parametrize("flag, value", [("--nt", "4"), ("--nx", "3")])
    def test_grid_below_stencil_width_exit_2(self, run_cli, flag, value):
        code, out, err = run_cli(["verify"] + BASE + [flag, value])
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        # names the flag and its value (numpy's own message names neither)
        assert f"{flag[2:]}={value}" in err

    @pytest.mark.parametrize("eps", ["0", "-0.0001", "nan"])
    def test_eps_not_positive_exit_2(self, run_cli, eps):
        # an explicit 0 used to run silently at the default 1e-4
        code, out, err = run_cli(["verify", "--limit", "a_to_0", "--eps", eps])
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert "--eps must be positive" in err

    @pytest.mark.parametrize("eps", ["0.5", "1e-4", "0"])
    def test_eps_without_limit_exit_2(self, run_cli, monkeypatch, eps):
        # eps is read only by --limit; without it the flag used to be
        # silently ignored.  Refused before any evaluation
        calls = []
        monkeypatch.setattr(verify, "_residual_pairs",
                            lambda *a, **k: calls.append(a))
        code, out, err = run_cli(["verify", "--eps", eps])
        assert (code, out, calls) == (2, "", [])
        assert err == "error: --eps applies only with --limit\n"

    @pytest.mark.parametrize("kind, eps", [
        ("c_to_b", "1e-300"), ("a_to_b", "1"), ("a_to_b", "3"),
        ("a_to_0", "8"), ("a_to_0", "20")])
    def test_limit_eps_without_curve_exit_2(self, run_cli, monkeypatch, kind,
                                            eps):
        # b + 1e-300 == b, b*(1 - eps) <= 0 and a = eps >= b leave no
        # degenerate curve; refused before the ledger is evaluated
        calls = []
        monkeypatch.setattr(verify, "_residual_pairs",
                            lambda *a, **k: calls.append(a))
        code, out, err = run_cli(["verify", "--limit", kind, "--eps", eps])
        assert (code, out, calls) == (2, "", [])
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "eps" in lines[0] and kind in lines[0]

    def test_limit_eps_outside_c_to_b_table_exit_2(self, run_cli,
                                                   monkeypatch):
        # (6, 8, 19) is a valid curve, but c - b = 11 exceeds the c_to_b
        # table's bound 10.14; refused naming --eps, before the ledger
        calls = []
        monkeypatch.setattr(verify, "_residual_pairs",
                            lambda *a, **k: calls.append(a))
        code, out, err = run_cli(["verify", "--limit", "c_to_b", "--eps",
                                  "11"])
        assert (code, out, calls) == (2, "", [])
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --eps 11.0")
        assert "c_to_b" in lines[0] and "c - b < 10.14" in lines[0]

    @pytest.mark.parametrize("kind", ["c_to_b", "a_to_b"])
    def test_limit_eps_unbuildable_curve_exit_2(self, run_cli, monkeypatch,
                                                kind):
        # a valid degenerate curve whose quadratures do not converge is
        # refused naming --eps, not the curve, before the ledger
        calls = []
        monkeypatch.setattr(verify, "_residual_pairs",
                            lambda *a, **k: calls.append(a))
        code, out, err = run_cli(["verify", "--limit", kind, "--eps", "1e-9"])
        assert (code, out, calls) == (2, "", [])
        assert err == (f"error: no {kind} curve at --eps 1e-09 "
                                "builds: its integrals do not converge this "
                                "close to the limit\n")

    def test_limit_entry_carries_no_verdict(self, run_cli):
        code, out, _ = run_cli(["verify"] + BASE + ["--limit", "a_to_0"])
        assert code == 0
        ledger = json.loads(out)
        assert "passed" not in ledger["limit"]
        assert ledger["limit"]["sup_distance"] < 1e-3

    @pytest.mark.parametrize("kind", ["c_to_b", "a_to_b", "a_to_0"])
    def test_limit_converges_at_lambda0(self, run_cli, kind):
        # the degenerate curve and its reference field both carry --lambda0;
        # a 5 x 5 grid keeps the residual, which the limit entry does not
        # read, cheap
        sups = {}
        for lambda0 in ("0", "0.7"):
            sups[lambda0] = []
            for eps in ("1e-2", "1e-3", "1e-4"):
                _, out, _ = run_cli(["verify", "--nx", "5", "--nt", "5",
                                     "--limit", kind, "--eps", eps,
                                     "--lambda0", lambda0])
                sups[lambda0].append(
                    json.loads(out)["limit"]["sup_distance"])
            first, mid, last = sups[lambda0]
            assert first > mid > last
            assert last < 0.5
        # ignoring --lambda0 would repeat the lambda0 = 0 distances
        assert sups["0.7"] != sups["0"]


class TestLimits:
    def test_a_to_0_report(self, run_cli):
        code, out, _ = run_cli(["limits", "--kind", "a_to_0", "--lambda0",
                                "0", "--a", "0.001", "--b", "8",
                                "--c", "9"])
        assert code == 0
        rep = json.loads(out)
        assert rep["integrals"]["a_plus"]["rel_err"] < 1e-5
        assert rep["derived"]["K2"] == pytest.approx(145.0)

    def test_a_to_b_report(self, run_cli):
        code, out, _ = run_cli(["limits", "--kind", "a_to_b", "--a",
                                "4.9995", "--b", "5", "--c", "9"])
        assert code == 0
        rep = json.loads(out)
        assert rep["small_parameter"] == pytest.approx(1e-4, rel=1e-9)
        for name in ("a_plus", "b_minus", "b1_minus"):
            assert rep["integrals"][name]["rel_err"] < 1e-4, name

    def test_c_to_b_report(self, run_cli):
        code, out, _ = run_cli(["limits", "--kind", "c_to_b", "--a", "6",
                                "--b", "8", "--c", "8.001"])
        assert code == 0
        rep = json.loads(out)
        for name in ("a_plus", "b_plus", "a_minus", "b_minus", "b1_minus",
                     "d_minus", "f_minus"):
            assert rep["integrals"][name]["rel_err"] < 5e-4, name

    def test_c_to_b_outside_its_limit_exit_2(self, run_cli):
        # the leading-order a_plus of (6, 8, 40) is a negative period
        code, out, err = run_cli(["limits", "--kind", "c_to_b", "--a", "6",
                                  "--b", "8", "--c", "40"])
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "c - b = 32.0" in lines[0] and "c - b < 10.14" in lines[0]

    def test_missing_kind_exit_2(self, run_cli):
        assert run_cli(["limits"] + BASE)[0] == 2


class TestConfig:
    def test_config_file_with_flag_override(self, run_cli, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"a": 6, "b": 8, "c": 9, "nx": 3, "nt": 3}))
        code, out, _ = run_cli(["grid", "--config", str(cfg), "--nt", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 3 * 2  # nx from config, nt from flag

    def test_missing_config_exit_3(self, run_cli):
        assert run_cli(["params", "--config", "/nonexistent.json"])[0] == 3

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

    def test_integer_config_prints_as_its_flag(self, run_cli, tmp_path):
        # K1 = -lambda0 is -0.0 for the float 0.0 but 0 for the integer 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda0": 0, "a": 6, "b": 8, "c": 9}))
        _, via_config, _ = run_cli(["params", "--config", str(cfg)])
        _, via_flags, _ = run_cli(["params"] + BASE)
        assert via_config == via_flags

    @pytest.mark.parametrize("command, payload", [
        ("params", [6, 8, 9]),
        ("params", {"a": "x"}),
        ("grid", {"nx": 16.5}),
        ("params", {"lamda0": 0.5}),
    ])
    def test_malformed_config_exit_2(self, run_cli, tmp_path, command,
                                     payload):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        code, out, err = run_cli([command, "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


def test_runtime_imports_no_scipy(python):
    # scipy is a test-only dependency; importing it would add about 0.3 s
    # to every CLI call.  numpy.random (numpy 2.x loads it on first use) adds
    # 10-14 ms and about 6 MiB resident; it may load only where a bare
    # import numpy already does (numpy 1.x).  numpy.polynomial (0.74 MiB,
    # about 3.6 ms) loads on no CLI path: the Gauss rules are built in place
    probe = """
import contextlib, io, json, sys
import numpy
eager = "numpy.random" in sys.modules
import thetawave
from thetawave.cli import main
for argv in (["params"], ["grid", "--format", "json"],
             ["limits", "--kind", "a_to_0"], ["verify"],
             ["verify", "--limit", "a_to_0"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps([sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  eager, "numpy.random" in sys.modules,
                  "numpy.polynomial" in sys.modules]))
"""
    res = python.run("-c", probe)
    assert res.returncode == 0, res.stderr
    scipy, eager, random, polynomial = json.loads(res.stdout)
    assert scipy == []
    assert eager or not random
    assert not polynomial


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
    def test_unread_config_key_exit_2(self, run_cli, tmp_path, command, key,
                                      value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run_cli([command, "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert repr(key) in err and command in err

    def test_null_config_value(self, run_cli, tmp_path):
        # null stands for a flag left unset, so only a flag whose default
        # is unset takes it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": None}))
        _, via_config, _ = run_cli(["params", "--config", str(cfg)])
        _, via_flags, _ = run_cli(["params"])
        assert via_config == via_flags
        cfg.write_text(json.dumps({"a": None}))
        code, out, err = run_cli(["params", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err == "error: config key 'a' has invalid value None\n"


class TestRealityRefusal:
    # Im Z2 = frb+/4 and 0.1 have no reality witness on (0, 6, 8, 9); grid
    # used to release |p| up to 832 there, and verify refused only after
    # the residual and split-step had run
    @pytest.mark.parametrize("command", ["grid", "verify"])
    @pytest.mark.parametrize("z_im2", [repr(FRB_PLUS / 4.0), "0.1"])
    def test_unwitnessed_phase_exit_2(self, run_cli, command, z_im2):
        code, out, err = run_cli([command, "--z-im2", z_im2, "--nx", "16",
                                  "--nt", "16"])
        assert (code, out) == (2, "")
        assert err.startswith("error: --z-im1 and --z-im2 fail "
                                       "the reality condition")

    def test_witnessed_phase_grid_exit_0(self, run_cli):
        # Im Z2 = frb+/2 has the witness (0, 2)
        code, out, _ = run_cli(["grid", "--z-im2", repr(FRB_PLUS / 2.0),
                                "--nx", "16", "--nt", "16"])
        assert code == 0
        assert len(out.splitlines()) == 1 + 16 * 16

    def test_params_reports_without_refusing(self, run_cli):
        code, out, _ = run_cli(["params", "--z-im2", "0.1"])
        assert code == 0
        assert json.loads(out)["reality"] == {"passed": False,
                                              "witness": None}

    @pytest.mark.parametrize("argv", [
        ["params"], ["grid", "--nx", "16", "--nt", "16"],
        ["verify", "--nx", "16", "--nt", "16"]])
    def test_phase_beyond_binary64_resolution(self, python, argv):
        # params used to report the false witness [0, -2**63], after
        # numpy's int64 cast warning
        res = python.run("-m", "thetawave.cli", *argv, "--z-im2", "1e300")
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
    def test_non_finite_phase_exit_2(self, run_cli, argv):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: initial phase Z ")

    def test_nan_phase_in_config_exit_2(self, run_cli, tmp_path):
        # json.load takes the literal NaN
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"z_im1": NaN}')
        code, out, err = run_cli(["params", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err.startswith("error: initial phase Z ")

    @pytest.mark.parametrize("bound", ["--x1=inf", "--t1=inf", "--x0=-inf"])
    def test_infinite_grid_bound_one_error_line(self, python, bound):
        res = python.run("-m", "thetawave.cli", "grid", bound)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: need finite x0 < x1 and t0 < t1\n"

    @pytest.mark.parametrize("window", [["--x0=-1e308", "--x1", "1e308"],
                                        ["--t0=-1e308", "--t1", "1e308"]])
    def test_overflowing_grid_width_one_error_line(self, python, window):
        # finite bounds whose width overflows used to reach np.linspace,
        # which warned, and the field check refused the result
        res = python.run("-m", "thetawave.cli", "grid", *window, "--nx", "4",
                         "--nt", "4")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: need finite widths x1 - x0 and t1 - t0\n"

    def test_non_finite_integrand_exit_2(self, run_cli):
        code, out, err = run_cli(["params", "--a", "1e-160", "--b", "1",
                                  "--c", "2"])
        assert (code, out) == (2, "")
        assert err == ("error: curve a=1e-160, b=1.0, c=2.0: "
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
    def test_overflowing_lambda0_exit_2(self, run_cli, argv, lam):
        code, out, err = run_cli(argv + ["--lambda0", lam])
        assert (code, out) == (2, "")
        assert err == (f"error: need 2*lambda0**2 finite in "
                                f"binary64, got lambda0={float(lam)}\n")

    def test_lambda0_below_bound_reports_finite_json(self, run_cli):
        def refuse(name):
            raise ValueError(f"non-finite JSON constant {name}")
        code, out, _ = run_cli(["params", "--lambda0", "9e153"])
        assert code == 0
        rep = json.loads(out, parse_constant=refuse)
        assert rep["solution"]["K2"] < 0.0
