"""Self-checks of the benchmark.  Run from the repository root with

    python3 -m pytest -q perfbench/checks.py

The file is not named ``test_*.py`` so that the package's own test suite
does not collect it: these checks run the benchmark and take one to two
minutes.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

COUNT_STATS = (".calls", ".pts", ".steps", ".nodes", ".bytes_out",
               ".integrals_per_curve")


@contextlib.contextmanager
def _scratch_dir():
    """A temporary directory inside the checkout's benchmark scratch."""
    run.SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=run.SCRATCH))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.SCRATCH.rmdir()


@pytest.fixture
def workdir():
    with _scratch_dir() as path:
        yield str(path)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], capture_output=True, text=True, cwd=cwd,
                          timeout=170)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat(name):
    """Two traced runs with one seed give identical counts."""
    counts = []
    for _ in range(2):
        proc = _bench("--workload", name, "--seed", "7", "--seconds", "1",
                      "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        assert list(metrics) == [n for n, _, _ in run.PER_LAYER]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith(COUNT_STATS)})
    assert counts[0] == counts[1]


@pytest.mark.parametrize("name", ["verify-ref", "curve-sweep"])
def test_self_times_add_up(name, workdir):
    """Per-layer self times sum to the traced run_s, give or take the
    tracing overhead."""
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(3, workload.min_ops)
    untraced = sum(workloads.run_ops(workload, inputs, workdir).op_times)
    tr = tracer.Tracer()
    with tr.installed():
        record = workloads.run_ops(workload, inputs, workdir, tr)
    run_s = sum(record.op_times)
    layers = sum(st.self_s for key, st in tr.stats.items()
                 if key != "bench.op")
    assert layers <= run_s
    assert run_s - layers <= max(run_s - untraced, 0.0) + 0.02 * run_s
    assert tr.self_total() == pytest.approx(
        tr.stats["bench.op"].incl_s, rel=1e-9)


def test_out_of_envelope_op_fails_without_ending_run(workdir):
    """c - b = 1e-8 raises in tanh_sinh: one failed op, the run goes on."""
    workload = workloads.WORKLOADS["curve-sweep"]
    good = workload.inputs(5, 2)
    bad = dict(good[0], curve=(0.0, 1.0, 2.0, 2.0 + 1e-8))
    record = workloads.run_ops(workload, [good[0], bad, good[1]], workdir)
    assert len(record.op_times) == 3
    assert [o.ok for o in record.outcomes] == [True, False, True]
    reason = record.outcomes[1].reason
    assert reason.startswith("RuntimeError") and "tanh_sinh" in reason


def test_stripped_checkout_exits_nonzero():
    """Without the package sources the benchmark fails and prints no
    result."""
    with _scratch_dir() as stripped:
        shutil.copytree(HERE, stripped / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", stripped)
        proc = _bench("--workload", "curve-sweep", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=stripped)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.PER_LAYER
