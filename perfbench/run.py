"""Run one workload of the thetawave benchmark and print its metrics.

    python3 perfbench/run.py --workload curve-sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The lines before it name every metric with its
unit, the run metadata, and every failed op.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

SETUP_REPEATS = 7
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import thetawave\n"
    "d = time.perf_counter() - t\n"
    "print(d if thetawave.__file__.startswith(sys.argv[1]) else -1.0)\n"
)

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p90_s", "s"),
    ("peak_rss_mib", "MiB"),
]

# name, unit, better; a name is <layer>.<function>.<stat>
PER_LAYER = [
    ("theta.jacobi_theta.calls", "count", "lower"),
    ("theta.jacobi_theta.pts", "count", "lower"),
    ("theta.jacobi_theta.self_s", "s", "lower"),
    ("theta.jacobi_theta.pts_per_s", "1/s", "higher"),
    ("theta.riemann_theta2.calls", "count", "lower"),
    ("theta.riemann_theta2.self_s", "s", "lower"),
    ("verify.field_residual.calls", "count", "lower"),
    ("verify.field_residual.incl_s", "s", "lower"),
    ("verify.nls_residual.incl_s", "s", "lower"),
    ("verify.split_step_evolve.calls", "count", "lower"),
    ("verify.split_step_evolve.steps", "count", "lower"),
    ("verify.split_step_evolve.incl_s", "s", "lower"),
    ("verify.symmetry_suite.calls", "count", "lower"),
    ("verify.symmetry_suite.incl_s", "s", "lower"),
    ("cli.cmd_grid.self_s", "s", "lower"),
    ("cli.cmd_verify.self_s", "s", "lower"),
    ("cli.cmd_params.self_s", "s", "lower"),
    ("cli.bytes_out", "B", "lower"),
    ("quad.tanh_sinh.calls", "count", "lower"),
    ("quad.tanh_sinh.self_s", "s", "lower"),
    ("quad.tanh_sinh.nodes", "count", "lower"),
    ("elliptic.curve_integrals.calls", "count", "lower"),
    ("elliptic.curve_integrals.self_s", "s", "lower"),
    ("elliptic.curve_integrals.incl_s", "s", "lower"),
    ("elliptic.integrals_per_curve", "1", "lower"),
    ("curve.build_solution_params.calls", "count", "lower"),
    ("curve.build_solution_params.incl_s", "s", "lower"),
    ("curve.second_kind_constants.calls", "count", "lower"),
    ("curve.second_kind_constants.incl_s", "s", "lower"),
    ("curve.b_period_errors.incl_s", "s", "lower"),
    ("curve.connector_calibration.incl_s", "s", "lower"),
    ("curve.reality_check.self_s", "s", "lower"),
    ("solution.eval_p.calls", "count", "lower"),
    ("solution.eval_p.pts", "count", "lower"),
    ("solution.eval_p.incl_s", "s", "lower"),
    ("solution.eval_amp2.pts", "count", "lower"),
    ("solution.eval_amp2.incl_s", "s", "lower"),
    ("solution.sample_grid.pts", "count", "lower"),
    ("solution.sample_grid.incl_s", "s", "lower"),
    ("solution.sample_grid.pts_per_s", "1/s", "higher"),
    ("solution.eval_p_general.pts", "count", "lower"),
    ("solution.eval_p_general.incl_s", "s", "lower"),
    ("solution.eval_p_general.pts_per_s", "1/s", "higher"),
    ("solution.general_theta_data.incl_s", "s", "lower"),
    ("limits.asymptotic_constants.calls", "count", "lower"),
    ("limits.asymptotic_constants.incl_s", "s", "lower"),
    ("bench.op.self_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_probe():
    """Import time of thetawave in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    value = float(out.strip().splitlines()[-1])
    if value < 0.0:
        raise RuntimeError("a fresh interpreter imported thetawave from "
                           "outside src/")
    return value


def _run_with_probes(workload, inputs, workdir):
    """Run the ops in SETUP_REPEATS - 1 slices, with one fresh-interpreter
    import before each slice.  The set-up samples then span the whole run,
    not its first seconds, so one slow moment of the host moves fewer of
    them.  Returns the combined record and the import times."""
    import workloads  # not at the top: it imports thetawave, timed in main
    k = SETUP_REPEATS - 1
    cuts = [round(i * len(inputs) / k) for i in range(k + 1)]
    setup, record = [], workloads.RunRecord([], [], 0)
    for lo, hi in zip(cuts, cuts[1:]):
        setup.append(_import_probe())
        part = workloads.run_ops(workload, inputs[lo:hi], workdir)
        record.op_times += part.op_times
        record.outcomes += part.outcomes
        record.bytes_out += part.bytes_out
    return record, setup


def _metadata():
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                           "unset (library default)"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def layer_metrics(tr, record, untraced_run_s):
    """The PER_LAYER metrics of a traced pass."""
    run_s = sum(record.op_times)
    special = {
        "cli.bytes_out": record.bytes_out,
        "elliptic.integrals_per_curve":
            tr.stats["elliptic.curve_integrals"].calls / len(tr.curves)
            if tr.curves else 0.0,
        "trace.run_s": run_s,
        "trace.untraced_run_s": untraced_run_s,
        "trace.overhead_s": run_s - untraced_run_s,
    }
    values = {}
    for name, _, _ in PER_LAYER:
        if name in special:
            values[name] = special[name]
            continue
        key, stat = name.rsplit(".", 1)
        st = tr.stats[key]
        if stat == "pts_per_s":
            values[name] = st.pts / st.incl_s if st.incl_s > 0.0 else 0.0
        else:
            values[name] = getattr(st, stat)
    return values


def _untraced_run_s(args):
    """run_s of the same inputs untraced, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"untraced pass exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"][
        "run_s"]["value"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "thetawave" / "__init__.py").is_file():
        return _fail(f"no thetawave sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import thetawave
    first_import = time.perf_counter() - t0
    if not Path(thetawave.__file__).resolve().is_relative_to(SRC):
        return _fail(f"thetawave was imported from {thetawave.__file__}")

    import tracer
    import workloads
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS))
    n_ops = max(workload.min_ops, round(args.seconds / workload.op_seconds))
    inputs = workload.inputs(args.seed, n_ops)

    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        if args.trace:
            untraced = _untraced_run_s(args)
            tr = tracer.Tracer()
            with tr.installed():
                record = workloads.run_ops(workload, inputs, workdir, tr)
        else:
            record, setup = _run_with_probes(workload, inputs, workdir)
            setup.append(first_import)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()

    times = record.op_times
    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = layer_metrics(tr, record, untraced)
    else:
        units = dict(END_TO_END)
        values = {
            "setup_s": statistics.median(setup),
            "run_s": sum(times),
            "op_p90_s": statistics.quantiles(times, n=10,
                                             method="inclusive")[-1],
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    failures = [
        {"workload": args.workload, "seed": args.seed, "op": i,
         "input": {"curve": list(inp["curve"]),
                   **({"format": inp["format"]} if "format" in inp else {})},
         "reason": out.reason, "silent": out.silent}
        for i, (inp, out) in enumerate(zip(inputs, record.outcomes))
        if not out.ok
    ]
    n_failed = len(failures)
    print(f"workload {args.workload}  seed {args.seed}  ops {len(times)}  "
          f"trace {args.trace}")
    print("meta " + json.dumps(_metadata()))
    print("op_s " + " ".join(f"{t:.4f}" for t in times))
    for name, value in values.items():
        print(f"metric {name} = {value!r} {units[name]}")
    print(f"info op_p50_s = {statistics.median(times)!r} s")
    print(f"info fail_ratio = {n_failed / len(times)!r} 1  "
          f"({n_failed} of {len(times)} ops)")
    for failure in failures:
        print("failure " + json.dumps(failure))
    print(json.dumps({
        "correct": not any(f["silent"] for f in failures),
        "attempted": len(times),
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
