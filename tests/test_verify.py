"""Unit tests for the verification instruments."""

import dataclasses
import inspect
import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from thetawave import solution, verify
from thetawave.curve import build_solution_params, period_lattice
from thetawave.elliptic import CurveParams
from thetawave.limits import (dn_wave_theta, limit_distance, plane_wave_ab,
                              plane_wave_cb)
from thetawave.solution import GridSpec, _p_at, eval_p
from thetawave.verify import (
    _checked_line,
    _resolved,
    _richardson_pair,
    _stencil_bands,
    field_residual,
    nls_residual,
    residual_fit_k2,
    split_step_evolve,
    symmetry_suite,
    verify_ledger,
)

P689 = CurveParams(0.0, 6.0, 8.0, 9.0)
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def sp():
    return build_solution_params(P689)


@pytest.fixture(scope="module")
def cell(sp):
    lat = period_lattice(P689, sp.ell)
    return GridSpec(0.0, lat.X, 0.0, lat.T, 64, 64)


class TestFieldResidual:
    def test_plane_wave_exact(self):
        # i p_t + p_xx + 2|p|^2 p = 0 exactly; the stencil sees only roundoff
        a = 3.0
        field = lambda x, t: a * np.exp(2j * a * a * t) * np.ones_like(
            np.asarray(x) + np.asarray(t))
        spec = GridSpec(0.0, 1.0, 0.0, 0.02, 32, 64)
        assert field_residual(field, spec, order=4) < 1e-8
        # a field of t alone, a (1, nt) row, broadcasts over the x rows
        row = lambda x, t: a * np.exp(2j * a * a * t)
        assert field_residual(row, spec, order=4) < 1e-8

    def test_travelling_plane_wave(self):
        # a exp(i(kx + w t)) solves the equation at w = 2a^2 - k^2; at
        # k != 0 a stencil value taken from the wrong x node shows
        a, k = 3.0, 2.0
        spec = GridSpec(0.0, 1.0, 0.0, 0.02, 128, 64)
        wave = lambda w: lambda x, t: a * np.exp(1j * (k * x + w * t))
        assert field_residual(wave(2 * a * a - k * k), spec) < 1e-8
        assert field_residual(wave(2 * a * a + k * k), spec) > 1e-2

    def test_field_called_once_per_grid(self, sp, cell):
        shapes = []

        def field(x, t):
            shapes.append((np.shape(x), np.shape(t)))
            return eval_p(x, t, sp)

        field_residual(field, cell, order=4)
        assert shapes == [((cell.nx, 1), (1, cell.nt))]

    def test_wrong_field_large_residual(self):
        field = lambda x, t: 3.0 * np.exp(1j * (np.asarray(x)
                                                + np.asarray(t)))
        spec = GridSpec(0.0, 1.0, 0.0, 0.2, 32, 32)
        assert field_residual(field, spec, order=4) > 1e-2

    def test_order_validation(self, sp, cell):
        # only the fourth-order stencil exists
        for order in (2, 3):
            with pytest.raises(ValueError):
                field_residual(lambda x, t: eval_p(x, t, sp), cell,
                               order=order)


class TestNlsResidual:
    def test_two_phase_field_converges(self, sp, cell):
        rep = nls_residual(sp, cell, order=4)
        assert rep.residual_norm < 2e-5
        assert 3.3 < rep.order_estimate < 4.7

    def test_corruption_detected(self, sp, cell):
        bad = dataclasses.replace(sp, K2=sp.K2 + 0.1)
        rep = nls_residual(bad, cell, order=4)
        assert rep.residual_norm > 1e-4
        assert rep.order_estimate < 1.0

    def test_each_grid_built_once_and_its_rows_called_once(self, sp, cell,
                                                           monkeypatch):
        # the coarse grid and the (2n - 1)^2 refinement: one field per
        # grid, built for its row of t and called on its x rows in bands
        # that cover each row once, in order, none a single row
        builds = []

        def counting(t, params):
            p = _p_at(t, params)
            columns = []
            builds.append((np.shape(t), columns))

            def column(x):
                columns.append(np.array(x))
                return p(x)

            return column

        monkeypatch.setattr("thetawave.verify._p_at", counting)
        # 1/16 MiB bands: 8 rows of the coarse grid, 4 of the fine one
        monkeypatch.setattr(solution, "_BAND_BYTES", 1 << 16)
        nls_residual(sp, cell, order=4)
        fine = dataclasses.replace(cell, nx=2 * cell.nx - 1,
                                   nt=2 * cell.nt - 1)
        assert [b[0] for b in builds] == [(1, cell.nt), (1, fine.nt)]
        for spec, (_, columns) in zip((cell, fine), builds):
            rows = (1 << 16) // 8 // (16 * spec.nt)
            sizes = [np.shape(x) for x in columns]
            assert len(sizes) == -(-spec.nx // rows) > 1
            assert all(s[1] == 1 and 2 <= s[0] <= rows for s in sizes)
            assert np.array_equal(np.concatenate(columns)[:, 0],
                                  spec.axes()[0])


class TestRowBands:
    """The stencil evaluates its grid in row bands of at most an eighth of
    ``solution._BAND_BYTES`` and reduces its residual band by band, with a
    4-row halo; the bands give the one-band values bit for bit."""

    @pytest.mark.parametrize("n", [128, 255])
    def test_default_grids_band_layout(self, sp, n):
        # verify's 128 x 128 grid and its 255 x 255 refinement: the fewest
        # bands of at most 128 KiB of field rows, each of 2 rows or more,
        # that call each x row once and in order
        lat = period_lattice(P689, sp.ell)
        spec = GridSpec(0.0, lat.X, 0.0, lat.T, n, n)
        columns = []

        def field(x, t):
            assert np.shape(t) == (1, n)
            columns.append(np.array(x))
            return eval_p(x, t, sp)

        field_residual(field, spec)
        rows = solution._BAND_BYTES // 8 // (16 * n)
        assert rows == {128: 64, 255: 32}[n]
        sizes = [len(x) for x in columns]
        assert len(sizes) == -(-n // rows)
        assert max(sizes) <= rows and min(sizes) >= 2
        assert np.array_equal(np.concatenate(columns)[:, 0], spec.axes()[0])

    @pytest.mark.parametrize("lambda0", [0.0, 0.7])
    def test_residual_memory_does_not_grow_with_the_grid(self, lambda0):
        # nls_residual on 128^2, 255^2 and 509^2 (fine grids 255^2, 509^2
        # and 1017^2) and residual_fit_k2 on those three: a full grid of
        # complex values would be 1, 4 and 16 MiB (1/4, 1 and 4 MiB for
        # residual_fit_k2), and the banded stencil holds a few bands at once
        curve = CurveParams(lambda0, 6.0, 8.0, 9.0)
        sp_l = build_solution_params(curve)
        lat = period_lattice(curve, sp_l.ell)
        for run in (lambda spec: nls_residual(sp_l, spec),
                    lambda spec: residual_fit_k2(curve, spec)):
            run(GridSpec(0.0, lat.X, 0.0, lat.T, 8, 8))
            peaks = []
            tracemalloc.start()
            try:
                for n in (128, 255, 509):
                    spec = GridSpec(0.0, lat.X, 0.0, lat.T, n, n)
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                    run(spec)
                    peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            assert max(peaks) < 3 << 20, peaks
            assert peaks[-1] < 1.5 * peaks[0], peaks

    @pytest.mark.parametrize("lambda0", [0.0, 0.7])
    def test_banded_residuals_are_bit_identical(self, monkeypatch, lambda0):
        curve = CurveParams(lambda0, 6.0, 8.0, 9.0)
        sp_l = build_solution_params(curve)
        lat = period_lattice(curve, sp_l.ell)
        spec = GridSpec(0.0, lat.X, 0.0, lat.T, 300, 260)
        rows = []

        def field(x, t):
            rows.append(np.shape(x)[0])
            return eval_p(x, t, sp_l)

        got = {}
        # one band, then 10 bands of 30 rows (the default 1 MiB), then 100
        # of 3
        for budget in (1 << 30, 1 << 20, 1 << 17):
            monkeypatch.setattr(solution, "_BAND_BYTES", budget)
            rows.clear()
            p, res = map(np.concatenate, zip(*_stencil_bands(
                lambda t: lambda x: field(x, t), spec, 4)))
            got[budget] = (rows[:], p, res, field_residual(field, spec),
                           residual_fit_k2(curve, spec))
        assert [g[0] for g in got.values()] == [
            [300], [30] * 10, [3] * 100]
        ref = got[1 << 30]
        assert ref[1].shape == ref[2].shape == (296, 256)
        for g in got.values():
            assert np.array_equal(g[1], ref[1])
            assert np.array_equal(g[2], ref[2])
            assert g[3:] == ref[3:]

    @pytest.mark.parametrize("lambda0", [0.0, 0.7])
    def test_t_thetas_built_once_per_grid(self, monkeypatch, lambda0):
        # 300 x 300 takes 2 bands and its 599 x 599 refinement 6; each grid
        # builds the thetas of t alone, and at lambda0 != 0 the row factors
        # of _theta_outer, once
        curve = CurveParams(lambda0, 6.0, 8.0, 9.0)
        sp_l = build_solution_params(curve)
        lat = period_lattice(curve, sp_l.ell)
        spec = GridSpec(0.0, lat.X, 0.0, lat.T, 300, 300)
        builds = {"_quotient_terms": [], "_theta_outer": []}
        for name, calls in builds.items():
            real = getattr(solution, name)
            monkeypatch.setattr(solution, name, lambda *a, real=real,
                                calls=calls: calls.append(1) or real(*a))
        outer = int(lambda0 != 0.0)
        nls_residual(sp_l, spec)
        assert [len(c) for c in builds.values()] == [2, 2 * outer]
        residual_fit_k2(curve, spec)
        assert [len(c) for c in builds.values()] == [3, 3 * outer]


class TestResidualFitK2:
    def test_recovers_phase_constant(self, sp):
        lat = period_lattice(P689, sp.ell)
        spec = GridSpec(0.0, lat.X, 0.0, lat.T, 160, 160)
        fit = residual_fit_k2(P689, spec, order=4)
        assert fit == pytest.approx(sp.K2, abs=1e-5)


class TestSplitStep:
    def test_plane_wave_evolution(self):
        a, L, n = 2.0, 4.0, 128
        xs = np.linspace(0.0, L, n, endpoint=False)
        psi0 = a * np.ones(n, dtype=complex)
        t_end = 0.05
        steps = 500
        psi = split_step_evolve(psi0, L, t_end / steps, steps)
        ref = a * np.exp(2j * a * a * t_end)
        assert np.max(np.abs(psi - ref)) < 1e-8

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            split_step_evolve(np.ones(100, dtype=complex), 1.0, 1e-3, 10)

    def test_under_resolved_rejected(self):
        # white noise has a full spectral tail
        rng = np.random.default_rng(0)
        psi = rng.normal(size=128) + 1j * rng.normal(size=128)
        with pytest.raises(RuntimeError):
            split_step_evolve(psi, 1.0, 1e-3, 10)

    def test_two_phase_short_evolution(self, sp):
        lat = period_lattice(P689, sp.ell)
        L = 2.0 * lat.X
        n = 256
        xs = np.linspace(0.0, L, n, endpoint=False)
        t_end = lat.T / 10.0
        steps = 400
        psi = split_step_evolve(eval_p(xs, 0.0, sp), L, t_end / steps, steps)
        ref = eval_p(xs, t_end, sp)
        err = np.linalg.norm(psi - ref) / np.linalg.norm(ref)
        assert err < 1e-6

    @pytest.mark.parametrize("steps", [1, 2, 400])
    def test_fused_matches_strang_reference(self, sp, steps):
        # the unfused Strang step N(dt/2) L N(dt/2) is the reference
        lat = period_lattice(P689, sp.ell)
        L, n, dt = 2.0 * lat.X, 512, lat.T / 4000
        psi0 = eval_p(np.linspace(0.0, L, n, endpoint=False), 0.0, sp)
        linear = np.exp(-1j * (2.0 * math.pi * np.fft.fftfreq(n, d=L / n))
                        ** 2 * dt)
        ref = psi0.copy()
        for _ in range(steps):
            ref = ref * np.exp(1j * np.abs(ref) ** 2 * dt)
            ref = np.fft.ifft(linear * np.fft.fft(ref))
            ref = ref * np.exp(1j * np.abs(ref) ** 2 * dt)
        psi = split_step_evolve(psi0, L, dt, steps)
        assert np.linalg.norm(psi - ref) / np.linalg.norm(ref) < 1e-12

    @pytest.mark.parametrize("steps", [1, 2, 7, 400])
    def test_matches_fused_reference_bit_for_bit(self, sp, steps):
        # N(dt/2) L N(dt) L ... L N(dt/2), each factor numpy's exp of the
        # imaginary angle and each product in this operand order
        lat = period_lattice(P689, sp.ell)
        L, n, dt = 2.0 * lat.X, 512, lat.T / 4000
        psi0 = eval_p(np.linspace(0.0, L, n, endpoint=False), 0.0, sp)
        linear = np.exp(-1j * (2.0 * math.pi * np.fft.fftfreq(n, d=L / n))
                        ** 2 * dt)
        ref = psi0.copy()
        for step in range(steps):
            ref = ref * np.exp(1j * np.abs(ref) ** 2
                               * (2.0 * dt if step else dt))
            ref = np.fft.ifft(linear * np.fft.fft(ref))
        ref = ref * np.exp(1j * np.abs(ref) ** 2 * dt)
        assert np.array_equal(split_step_evolve(psi0, L, dt, steps), ref)

    def test_cos_sin_phase_is_exp_bit_for_bit(self):
        # the evolution builds exp(i theta) as cos(theta) + i sin(theta);
        # 10**6 angles, uniform over verify's range (below 0.2) and
        # log-uniform from 1e-12 to 10
        rng = np.random.default_rng(0)
        theta = np.concatenate([rng.uniform(0.0, 0.2, 500_000),
                                10.0 ** rng.uniform(-12.0, 1.0, 500_000)])
        phase = np.empty(theta.shape, dtype=complex)
        np.cos(theta, out=phase.real)
        np.sin(theta, out=phase.imag)
        assert np.array_equal(phase, np.exp(1j * theta))


def _extrapolated_error(sp, steps):
    # the verify setup: the fewest of 128, 256 or 512 samples over one x
    # period that resolve the field, evolved to T
    lat = period_lattice(sp.curve, sp.ell)
    L = 2.0 * lat.X
    for n in (128, 256, 512):
        xs = np.linspace(0.0, L, n, endpoint=False)
        if _resolved(eval_p(xs, 0.0, sp)):
            break
    psi = _checked_line(eval_p(xs, 0.0, sp), L, lat.T, steps)
    out = _richardson_pair(psi, L, lat.T, steps)
    ref = eval_p(xs, lat.T, sp)
    return float(np.linalg.norm(out - ref) / np.linalg.norm(ref))


class TestRichardsonSplitStep:
    @pytest.mark.parametrize("curve", [P689, CurveParams(0.0, 1.0, 2.0,
                                                         3.0)])
    @pytest.mark.parametrize("steps", [2, 10, 1000])
    def test_is_two_evolutions_bit_for_bit(self, curve, steps):
        # the rows of the batched loop are the two single evolutions
        sp_c = build_solution_params(curve)
        lat = period_lattice(curve, sp_c.ell)
        L, T = 2.0 * lat.X, lat.T
        psi0 = eval_p(np.linspace(0.0, L, 512, endpoint=False), 0.0, sp_c)
        ref = (4.0 * split_step_evolve(psi0, L, T / steps, steps)
               - split_step_evolve(psi0, L, 2.0 * T / steps, steps // 2)) / 3.0
        pair = _richardson_pair(_checked_line(psi0, L, T, steps), L, T, steps)
        assert np.array_equal(pair, ref)

    def test_fourth_order(self, sp):
        # halving every step size divides the error by 2**4
        coarse = _extrapolated_error(sp, 500)
        fine = _extrapolated_error(sp, 1000)
        assert fine < 1e-7
        assert coarse / fine == pytest.approx(16.0, rel=0.25)

    def test_wrong_field_caught(self, sp):
        # the extrapolated evolution of a field with K2 off by 0.1 ends far
        # from that field at T, so the check is not blind
        bad = dataclasses.replace(sp, K2=sp.K2 + 0.1)
        assert _extrapolated_error(bad, 1000) > 1e-3

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_odd_half_b_period_phases_pass(self, sp, m):
        # Im Z2 = m*frb+/2 gives a correct field whose Strang-4,000 error
        # (1.12e-5) sat above the 1e-5 gate
        sp_m = build_solution_params(P689,
                                     np.array([0.0, 0.5j * m * sp.frb_plus]))
        ledger, passed = verify_ledger(sp_m, 128, 128)
        assert ledger["split_step"]["passed"]
        assert ledger["split_step"]["l2_error"] < 1e-6
        assert passed

    def test_odd_half_b_period_phase_cli(self, run_cli):
        # Im Z2 = frb+/2 on (0, 6, 8, 9)
        code, out, _ = run_cli(["verify", "--z-im2", "0.446332530511924"])
        assert code == 0
        assert json.loads(out)["split_step"]["passed"]


def _white_noise(n):
    rng = np.random.default_rng(0)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _tail_mode(x, L):
    # mode 50 of the period L: in the spectral tail band of 128 samples
    # (modes 48 to 80), not in that of 256 (96 to 160)
    return 1e-6 * np.cos(2.0 * math.pi * 50.0 * x / L)


class TestLineChoice:
    """``verify_ledger`` evolves the fewest of 128, 256 or 512 samples whose
    spectral tail passes ``_checked_line``'s test (``_resolved``); a line
    unresolved at 512 is refused as ``split_step_evolve`` refuses it."""

    def test_predicate_is_the_refusal(self):
        # a band-limited line: unresolved at 128 samples, resolved at 256
        def line(n):
            x = np.linspace(0.0, 1.0, n, endpoint=False)
            return np.exp(2j * math.pi * x) + _tail_mode(x, 1.0)

        assert [_resolved(line(n)) for n in (128, 256, 512)] == [
            False, True, True]
        assert not _resolved(_white_noise(512))
        with pytest.raises(RuntimeError, match="spectral tail"):
            split_step_evolve(line(128), 1.0, 1e-3, 10)
        split_step_evolve(line(256), 1.0, 1e-3, 10)

    @staticmethod
    def _record(monkeypatch, sp, extra):
        # lists that fill with the sizes of the lines verify_ledger samples
        # (its 1-D evaluations of 128 samples or more), each with
        # extra(x, L) added, and with the size that it evolves: the line
        # that it checks before the pair starts, in this process whether
        # or not the pair then runs in a forked child
        L = 2.0 * period_lattice(sp.curve, sp.ell).X
        sampled, evolved = [], []

        def sampling(x, t, params):
            p = eval_p(x, t, params)
            if np.ndim(x) == 1 and np.size(x) >= 128:
                sampled.append(np.size(x))
                p = p + extra(x, L)
            return p

        def evolving(psi, *args):
            evolved.append(np.size(psi))
            return _checked_line(psi, *args)

        monkeypatch.setattr("thetawave.verify.eval_p", sampling)
        monkeypatch.setattr("thetawave.verify._checked_line", evolving)
        return sampled, evolved

    def test_reference_line_at_128(self, sp, monkeypatch):
        sampled, evolved = self._record(monkeypatch, sp, lambda x, L: 0.0)
        verify_ledger(sp, 16, 16)
        # the line at 0 and the reference at T
        assert (sampled, evolved) == ([128, 128], [128])

    def test_tail_at_128_chosen_at_256(self, sp, monkeypatch):
        sampled, evolved = self._record(monkeypatch, sp, _tail_mode)
        verify_ledger(sp, 16, 16)
        assert (sampled, evolved) == ([128, 256, 256], [256])

    def test_unresolved_at_512_refused(self, sp, monkeypatch):
        rng = np.random.default_rng(0)
        noise = lambda x, L: 1e-6 * rng.normal(size=np.size(x))
        sampled, evolved = self._record(monkeypatch, sp, noise)
        with pytest.raises(RuntimeError, match="spectral tail"):
            verify_ledger(sp, 16, 16)
        assert (sampled, evolved) == ([128, 256, 512], [512])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedPair:
    """At lambda0 = 0 ``verify_ledger`` evolves its split-step pair in a
    forked child when two CPUs are usable (os.sched_getaffinity patched),
    and in process on one CPU or when the fork fails.  At 300 x 300 the
    residual takes 2 row bands and its refinement 6."""

    @pytest.mark.parametrize("argv", [
        [], ["--z-im2", "0.446332530511924"], ["--nx", "300", "--nt", "300"]],
        ids=["Z0", "half-b-period", "300"])
    def test_same_bytes_forked_and_in_process(self, run_cli, forks, argv):
        argv = ["verify"] + argv
        forks.cpus(2)
        forked = run_cli(argv)
        assert len(forks.pids) == 1
        forks.cpus(1)
        one_cpu = run_cli(argv)
        forks.cpus(2)
        forks.fail_from(1)
        no_fork = run_cli(argv)
        assert len(forks.pids) == 1
        assert forked == one_cpu == no_fork
        code, out, err = forked
        assert (code, err) == (0, "")
        assert json.loads(out)["split_step"]["passed"]
        if argv == ["verify"]:
            assert out == (GOLDEN / "verify.out").read_text()
        forks.assert_all_reaped()

    def test_child_exits_without_returning_or_flushing(self, python):
        # the parent waits for the child to exit before the reap would kill
        # it: a child that returned into the caller would go on to print
        # the results itself, and one that flushed the block-buffered
        # stdout it inherited would repeat "before"
        script = ("import os, sys\n"
                  "from thetawave import _fork\n"
                  "sys.stdout.write('before\\n')\n"
                  "tasks = [('computing', lambda: b'here'),\n"
                  "         ('writing', lambda: b'block')]\n"
                  "results = _fork.in_order(tasks, 2)\n"
                  "print(next(results), next(results))\n"
                  "# the exit status, left for the reap on close\n"
                  "info = os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)\n"
                  "print(info.si_code == os.CLD_EXITED, info.si_status)\n"
                  "results.close()\n")
        res = python.run("-c", script, buffered=True, timeout=60)
        assert (res.returncode, res.stdout, res.stderr) == (
            0, "before\nb'here' b'block'\nTrue 0\n", "")

    @pytest.mark.parametrize("target, exc", [
        ("_residual_pairs", ArithmeticError),
        ("symmetry_suite", ArithmeticError),
        ("symmetry_suite", KeyboardInterrupt)])
    def test_parent_error_reaps_the_child(self, sp, forks, monkeypatch,
                                          target, exc):
        def failing(*args, **kwargs):
            raise exc("the parent fails")

        monkeypatch.setattr(f"thetawave.verify.{target}", failing)
        forks.cpus(2)
        with pytest.raises(exc, match="the parent fails"):
            verify_ledger(sp, 16, 16)
        assert len(forks.pids) == 1
        forks.assert_all_reaped()

    def test_child_that_ends_early_names_the_split_step(self, run_cli, forks,
                                                        monkeypatch):
        def failing(*args):
            raise RuntimeError("the evolution fails")

        # the child runs the module's kernel, patched before the fork
        monkeypatch.setattr("thetawave.verify._strang_rows", failing)
        forks.cpus(2)
        code, out, err = run_cli(["verify"])
        assert (code, out) == (3, "")
        # the child's traceback, then the parent's one error line
        lines = err.splitlines()
        assert lines[0] == "Traceback (most recent call last):"
        assert "RuntimeError: the evolution fails" in lines
        assert lines[-1] == ("i/o error: the process evolving the split-step "
                             "ended early")
        assert len(forks.pids) == 1
        forks.assert_all_reaped()
        # in process, the cause itself
        forks.cpus(1)
        assert run_cli(["verify"])[::2] == (
            2, "error: the evolution fails\n")
        assert len(forks.pids) == 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_unresolved_line_refused_before_any_instrument(self, sp, forks,
                                                           monkeypatch, n):
        # a line unresolved at 512 samples is refused before the residual,
        # the symmetries and the fork, on one CPU as on two
        rng = np.random.default_rng(0)
        ran = []

        def noisy(x, t, params):
            p = eval_p(x, t, params)
            if np.ndim(x) == 1 and np.size(x) >= 128:
                p = p + 1e-6 * rng.normal(size=np.size(x))
            return p

        def failing(name):
            def run(*args, **kwargs):
                ran.append(name)
                raise ArithmeticError(f"{name} ran")
            return run

        monkeypatch.setattr("thetawave.verify.eval_p", noisy)
        for name in ("_residual_pairs", "symmetry_suite"):
            monkeypatch.setattr(f"thetawave.verify.{name}", failing(name))
        monkeypatch.setattr("thetawave._fork.in_order", failing("in_order"))
        forks.cpus(n)
        with pytest.raises(RuntimeError, match="under-resolved"):
            verify_ledger(sp, 16, 16)
        assert (ran, forks.pids) == ([], [])
        forks.assert_all_reaped()


class TestSplitStepRefusals:
    """``split_step_evolve(psi, L, dt, steps)`` refuses by the exception
    and message of ``_checked_line``, the check of the line that
    ``verify_ledger`` hands to its Richardson pair (t_end in dt's place)."""

    @pytest.mark.parametrize("psi, L, dt, steps, exc", [
        (np.ones(100, dtype=complex), 1.0, 1e-3, 10, ValueError),
        (np.ones(1, dtype=complex), 1.0, 1e-3, 10, ValueError),
        (np.ones((1, 128), dtype=complex), 1.0, 1e-3, 10, ValueError),
        (np.ones(128, dtype=complex), 0.0, 1e-3, 10, ValueError),
        (np.ones(128, dtype=complex), -1.0, 1e-3, 10, ValueError),
        (np.ones(128, dtype=complex), 1.0, 0.0, 10, ValueError),
        (np.ones(128, dtype=complex), 1.0, -1e-3, 10, ValueError),
        (np.ones(128, dtype=complex), 1.0, 1e-3, 0, ValueError),
        (np.ones(128, dtype=complex), 1.0, 1e-3, -2, ValueError),
        # white noise has a full spectral tail
        (_white_noise(128), 1.0, 1e-3, 10, RuntimeError),
    ], ids=["n100", "n1", "2d", "L0", "L-", "dt0", "dt-", "steps0", "steps-",
            "tail"])
    def test_same_refusal(self, psi, L, dt, steps, exc):
        with pytest.raises(exc) as single:
            split_step_evolve(psi, L, dt, steps)
        with pytest.raises(exc) as check:
            _checked_line(psi, L, dt, steps)
        assert str(check.value) == str(single.value)


class TestSymmetrySuite:
    def test_all_pass_at_reference_point(self, sp):
        ledger = symmetry_suite(sp)
        failed = {k: v for k, v in ledger.items() if not v["passed"]}
        assert not failed, failed

    def test_deterministic(self, sp):
        a = symmetry_suite(sp)
        b = symmetry_suite(sp)
        assert a == b

    def test_t_periodicity_with_galilean_drift(self):
        # at lambda0 != 0, t -> t + 2T also moves u2 by kappa2*2T, so |p|
        # repeats only after the x shift -8*lambda0*T; at fixed x it does not
        curve = CurveParams(0.6, 6.0, 8.0, 9.0)
        sp_l = build_solution_params(curve)
        entry = symmetry_suite(sp_l)["t_periodicity"]
        assert entry["passed"] and entry["tol"] == 1e-9
        lat = period_lattice(curve, sp_l.ell)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-0.4, 0.4, 40)
        ts = rng.uniform(-0.03, 0.03, 40)
        absp = np.abs(eval_p(xs, ts, sp_l))
        fixed_x = np.abs(eval_p(xs, ts + 2.0 * lat.T, sp_l))
        assert np.max(np.abs(fixed_x - absp)) / np.max(absp) > 0.1

    @pytest.mark.parametrize("lambda0", [0.0, 0.6, -0.3])
    def test_t_periodicity_is_lattice_vector_1(self, lambda0):
        # (X1, T1) = (-8*lambda0*T, 2*T) bit for bit: the scalings are
        # powers of two; the ledger reads the drift along it
        curve = CurveParams(lambda0, 6.0, 8.0, 9.0)
        sp_l = build_solution_params(curve)
        lat = period_lattice(curve, sp_l.ell)
        assert (lat.X1, lat.T1) == (-8.0 * lambda0 * lat.T, 2.0 * lat.T)
        xs = lat.X * verify._SAMPLES[0]
        ts = lat.T * verify._SAMPLES[1]
        absp = np.abs(eval_p(xs, ts, sp_l))
        drift = (np.max(np.abs(np.abs(eval_p(xs + lat.X1, ts + lat.T1, sp_l))
                               - absp)) / np.max(absp))
        assert symmetry_suite(sp_l)["t_periodicity"]["error"] == drift

    def test_samples_cover_the_box(self):
        # the 40 points (x/X, t/T) lie in |x/X| <= 1.36, |t/T| <= 1.93 and
        # leave no cell of the box's 4 x 4 split empty
        xs, ts = verify._SAMPLES
        assert xs.shape == ts.shape == (40,)
        assert np.all(np.abs(xs) <= 1.36) and np.all(np.abs(ts) <= 1.93)
        cells = {(math.floor(2.0 * (x / 1.36 + 1.0)),
                  math.floor(2.0 * (t / 1.93 + 1.0))) for x, t in zip(xs, ts)}
        assert cells == {(i, j) for i in range(4) for j in range(4)}

    def test_needs_provenance(self, sp):
        # SolutionParams refuses to be built without its curve
        with pytest.raises(ValueError):
            symmetry_suite(dataclasses.replace(sp, curve=None))


class TestScaledCurves:
    @pytest.mark.parametrize("j", [-5, 0, 3, 10, 30])
    def test_every_entry_passes(self, j):
        # the symmetry samples sit in lattice units and the Galilean boost
        # scales with b, so no check reads phases that grow as b**2; at
        # (6, 8, 9)*1e3, samples in fixed windows read scaling 3.0e-9
        s = 10.0 ** j
        sp_s = build_solution_params(CurveParams(0.0, 6 * s, 8 * s, 9 * s))
        ledger, passed = verify_ledger(sp_s, 128, 128)
        entries = [ledger["residual"], ledger["split_step"],
                   *ledger["symmetries"].values()]
        assert all(e["passed"] for e in entries), ledger
        assert passed


class TestVerifyLedger:
    def test_checks_the_params_it_is_given(self):
        # verify --corrupt-k2 perturbs its input; the ledger has no mode
        assert list(inspect.signature(verify_ledger).parameters) == [
            "sp", "nx", "nt"]

    @pytest.mark.parametrize("corrupt_k2", [False, True])
    def test_unwitnessed_phase_refused_before_evaluation(self, monkeypatch,
                                                         corrupt_k2):
        # Im Z2 = 0.1 has no reality witness; the field has a pole there.
        # Every evaluation of the field builds its quotient's terms
        calls = []
        real = solution._quotient_terms
        monkeypatch.setattr(solution, "_quotient_terms",
                            lambda *a: calls.append(1) or real(*a))
        sp_z = build_solution_params(P689, np.array([0.0, 0.1j]))
        if corrupt_k2:
            sp_z = dataclasses.replace(sp_z, K2=sp_z.K2 + 0.1)
        with pytest.raises(ValueError, match="reality condition"):
            verify_ledger(sp_z, 128, 128)
        assert calls == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("lambda0", [0.0, 0.7])
    def test_small_grid_refused_before_evaluation(self, monkeypatch, run_cli,
                                                  forks, lambda0):
        # two usable CPUs, on which a lambda0 = 0 ledger forks its pair
        calls = []
        forks.cpus(2)
        real = solution._quotient_terms
        sp_l = build_solution_params(CurveParams(lambda0, 6.0, 8.0, 9.0))
        monkeypatch.setattr(solution, "_quotient_terms",
                            lambda *a: calls.append(1) or real(*a))
        message = "an order-4 stencil needs nx and nt above 4, got nx=4, nt=4"
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify_ledger(sp_l, 4, 4)
        assert (forks.pids, calls) == ([], [])
        code, _, err = run_cli(["verify", "--lambda0", str(lambda0), "--nx",
                                "4", "--nt", "4"])
        assert (code, err) == (2, f"error: {message}\n")
        assert (forks.pids, calls) == ([], [])

    @pytest.mark.parametrize("flags, kwargs", [
        ([], {}),
        (["--corrupt-k2"], {"dK2": 0.1}),
        (["--limit", "a_to_0"], {"limit": "a_to_0"}),
        (["--lambda0", "0.6"], {}),
    ])
    def test_matches_cli(self, run_cli, flags, kwargs):
        # the CLI prints the library's ledger of its params, K2 + 0.1 with
        # --corrupt-k2, with --limit and limits' entry appended, and exits
        # 1 on its verdict
        code, out, _ = run_cli(["verify"] + flags)
        lambda0 = 0.6 if "--lambda0" in flags else 0.0
        sp_l = build_solution_params(CurveParams(lambda0, 6.0, 8.0, 9.0))
        if "dK2" in kwargs:
            sp_l = dataclasses.replace(sp_l, K2=sp_l.K2 + kwargs["dK2"])
        limit = kwargs.get("limit")
        ledger, passed = verify_ledger(sp_l, 128, 128)
        if limit is not None:
            ledger["limit"] = limit_distance(limit, sp_l.curve, 1e-4)
        assert json.dumps(ledger) == json.dumps(json.loads(out))
        assert passed == (code == 0)

    @pytest.mark.parametrize("kind, Z", [
        ("c_to_b", [0.0, 0.25]), ("a_to_b", [0.25, 0.0]),
        ("a_to_0", [0.0, 0.0])])
    def test_limit_distance_at_asymptotic_phase(self, sp, kind, Z):
        # verify --limit's entry evaluates the degenerate curve at the phase
        # Z that limits.asymptotic_constants gives; those phases are pinned
        eps = 1e-3
        entry = limit_distance(kind, sp.curve, eps)
        deg = {"c_to_b": CurveParams(0.0, 6.0, 8.0, 8.0 + eps),
               "a_to_b": CurveParams(0.0, 8.0 * (1.0 - eps), 8.0, 9.0),
               "a_to_0": CurveParams(0.0, eps, 8.0, 9.0)}[kind]
        ref = {"c_to_b": lambda x, t: plane_wave_cb(x, t, 0.0, 6.0),
               "a_to_b": lambda x, t: plane_wave_ab(x, t, 0.0, 8.0, 9.0),
               "a_to_0": lambda x, t: dn_wave_theta(x, t, 0.0, 8.0, 9.0)}
        xs = np.linspace(-0.2, 0.2, 21)[:, None]
        ts = np.linspace(-0.01, 0.01, 5)[None, :]
        field = eval_p(xs, ts, build_solution_params(deg, np.array(Z)))
        sup = float(np.max(np.abs(field - ref[kind](xs, ts))))
        assert entry == {"kind": kind, "eps": eps, "sup_distance": sup}


class TestResidualLadder:
    """A residual that fails its 1e-6 gate while its order estimate is in
    3.3-4.7 reads the next pair of ``_residual_pairs``, whose fine grid is
    2n - 1 per side: at most three pairs, never a fine grid above 1017 per
    side, and each grid reduced once; the entry records the fine grid it
    read."""

    # CHANGES.md's first FOUND curve: the residual alone fails at 128^2
    FOUND = CurveParams(0.6042821382556394, 3.0167782833424237,
                        3.4500506964534954, 3.9506482596589896)

    @staticmethod
    def _ledger(curve, n=128):
        return verify_ledger(build_solution_params(curve), n, n)

    def test_found_curve_passes_at_509(self, run_cli):
        sp_f = build_solution_params(self.FOUND)
        lat = period_lattice(self.FOUND, sp_f.ell)
        rep = nls_residual(sp_f, GridSpec(0.0, lat.X, 0.0, lat.T, 128, 128))
        assert rep.residual_norm == pytest.approx(1.3166e-6, rel=1e-4)
        assert 3.3 <= rep.order_estimate <= 4.7
        ledger, passed = self._ledger(self.FOUND)
        entry = ledger["residual"]
        assert entry["passed"] and passed
        assert entry["grid"] == [509, 509]
        assert entry["residual_norm"] == pytest.approx(8.276e-8, rel=1e-3)
        argv = ["verify", "--lambda0", repr(self.FOUND.lambda0), "--a",
                repr(self.FOUND.a), "--b", repr(self.FOUND.b), "--c",
                repr(self.FOUND.c)]
        code, out, _ = run_cli(argv)
        assert code == 0
        assert json.loads(out) == ledger

    @pytest.mark.parametrize("c, grid", [(80.0, 509), (160.0, 1017)])
    def test_wide_curves_pass_refined(self, c, grid):
        # the residual entry only: these curves still fail their split-step
        entry = self._ledger(CurveParams(0.0, 6.0, 8.0, c))[0]["residual"]
        assert entry["passed"]
        assert entry["grid"] == [grid, grid]
        assert entry["residual_norm"] == pytest.approx(1.19e-7, rel=1e-2)

    def test_reference_and_negative_control_stay_at_255(self, run_cli):
        # the reference curve's entry keeps its bits; K2 + 0.1 reads order
        # -0.014, outside the range, so it is not refined either
        assert self._ledger(P689)[0]["residual"] == {
            "passed": True, "residual_norm": 6.079502733528271e-07,
            "order_estimate": 3.8828537379890053, "grid": [255, 255]}
        code, out, _ = run_cli(["verify", "--corrupt-k2"])
        assert code == 1
        assert json.loads(out)["residual"] == {
            "passed": False, "residual_norm": 0.00037898930371190083,
            "order_estimate": -0.014379709219817806, "grid": [255, 255]}

    @staticmethod
    def _reduced(monkeypatch):
        # the grids _residual_norm reduces, in order
        grids = []
        real = verify._residual_norm

        def counting(at, spec, order):
            grids.append((spec.nx, spec.nt))
            return real(at, spec, order)

        monkeypatch.setattr(verify, "_residual_norm", counting)
        return grids

    def test_each_grid_reduced_once(self, monkeypatch):
        # three pairs from 128^2 on four grids, not six
        sp_w = build_solution_params(CurveParams(0.0, 6.0, 8.0, 160.0))
        lat = period_lattice(sp_w.curve, sp_w.ell)
        grids = self._reduced(monkeypatch)
        entry = verify._residual_entry(
            sp_w, GridSpec(0.0, lat.X, 0.0, lat.T, 128, 128))
        assert entry["passed"] and entry["grid"] == [1017, 1017]
        assert grids == [(128, 128), (255, 255), (509, 509), (1017, 1017)]

    def test_600_not_refined(self, run_cli, monkeypatch):
        # its first fine grid, 1199, is above 1017 already
        grids = self._reduced(monkeypatch)
        code, out, _ = run_cli(["verify", "--lambda0", "0.7", "--nx", "600",
                                "--nt", "600"])
        assert code == 0
        assert grids == [(600, 600), (1199, 1199)]
        assert json.loads(out)["residual"]["grid"] == [1199, 1199]

    @pytest.mark.parametrize("nx, nt, report, grids", [
        # converging but failing: refined twice from 128, once from 255
        (128, 128, (2e-6, 4.0), [(128, 128), (255, 255), (509, 509)]),
        (255, 255, (2e-6, 4.0), [(255, 255), (509, 509)]),
        # at most twice, however small the grid
        (5, 5, (2e-6, 4.0), [(5, 5), (9, 9), (17, 17)]),
        # the larger side sets the cap
        (128, 300, (2e-6, 4.0), [(128, 300)]),
        # the order outside 3.3-4.7, or a passing residual
        (128, 128, (2e-6, 3.2), [(128, 128)]),
        (128, 128, (2e-6, 4.8), [(128, 128)]),
        (128, 128, (9e-7, 4.0), [(128, 128)]),
    ])
    def test_calls_counted(self, monkeypatch, nx, nt, report, grids):
        # the coarse grid of each pair read
        calls = []

        def fixed(sp, spec, order):
            while True:
                calls.append((spec.nx, spec.nt))
                spec = dataclasses.replace(spec, nx=2 * spec.nx - 1,
                                           nt=2 * spec.nt - 1)
                yield spec, verify.ResidualReport(*report)

        monkeypatch.setattr(verify, "_residual_pairs", fixed)
        sp07 = build_solution_params(CurveParams(0.7, 6.0, 8.0, 9.0))
        entry = verify_ledger(sp07, nx, nt)[0]["residual"]
        assert calls == grids
        assert entry["grid"] == [2 * n - 1 for n in calls[-1]]
        assert entry["residual_norm"] == report[0]
