"""CLI goldens: the stdout and exit code of representative commands must
stay byte-identical across refactors, and with numpy's AVX-512 loops on or
off.

Each case's stdout is stored in ``golden/<name>.out``.  Regenerate the files
only for an intended output change, with ``python tests/test_golden.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"

# name -> (argv, exit code[, the case whose golden file it must print])
CASES = {
    "params": (["params"], 0),
    "params_lambda0": (["params", "--lambda0", "0.7"], 0),
    "grid_csv": (["grid", "--nx", "16", "--nt", "16"], 0),
    # p is 1-periodic in Re Z2, and 2**52 is an integer
    "grid_csv_z_re2": (["grid", "--nx", "16", "--nt", "16", "--z-re2",
                        "4503599627370496"], 0, "grid_csv"),
    "grid_json": (["grid", "--nx", "16", "--nt", "16", "--format", "json"], 0),
    "grid_csv_abs_lambda0": (["grid", "--lambda0", "0.6", "--nx", "16",
                              "--nt", "16", "--abs-only"], 0),
    "grid_json_lambda0": (["grid", "--lambda0", "0.6", "--nx", "8",
                           "--nt", "8", "--format", "json"], 0),
    "params_z_im2": (["params", "--z-im2", "0.446332530511924"], 0),
    "scan_c": (["scan", "--a", "3", "--b", "5", "--vary", "c",
                "--start", "5.5", "--stop", "9", "--num", "5"], 0),
    "limits_a_to_0": (["limits", "--kind", "a_to_0", "--a", "0.001",
                       "--b", "8", "--c", "9"], 0),
    "verify": (["verify"], 0),
    # the symmetry suite's half real shift, too, is taken from the reduced
    # phase: at 2**52, Re Z1 + 0.5 rounds back to Re Z1
    "verify_z_re1": (["verify", "--z-re1", "4503599627370496"], 0, "verify"),
    "verify_corrupt_k2": (["verify", "--corrupt-k2"], 1),
    "verify_lambda0": (["verify", "--lambda0", "0.7"], 0),
    "verify_limit_a_to_0": (["verify", "--limit", "a_to_0"], 0),
}


def _want(name):
    """The exit code and the golden stdout of the case ``name``."""
    argv, want_code, *golden = CASES[name]
    return want_code, (GOLDEN / f"{(golden or [name])[0]}.out").read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(run_cli, name):
    code, out, _ = run_cli(CASES[name][0])
    assert (code, out) == _want(name)


# numpy's runtime-dispatched targets above AVX2
_AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
# every case in one process, with the targets of NPY_DISABLE_CPU_FEATURES
# checked off first; prints JSON: name -> [exit code, stdout].  Its argument
# is the directory of this module
_ALL_CASES = (
    "import contextlib, io, json, os, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from test_golden import CASES, _cpu\n"
    "from thetawave.cli import main\n"
    "off = os.environ.get('NPY_DISABLE_CPU_FEATURES', '').split()\n"
    "on = [name for name in off if _cpu()[0][name]]\n"
    "assert not on, f'still dispatched: {on}'\n"
    "got = {}\n"
    "for name, (argv, *_) in CASES.items():\n"
    "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
    "        got[name] = main(argv), out.getvalue()\n"
    "print(json.dumps(got))\n"
)


def _cpu():
    """numpy's (CPU features found at runtime, targets it dispatches)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_features__, umath.__cpu_dispatch__


def test_same_bytes_without_avx512(python):
    features, dispatch = _cpu()
    if not features.get("AVX512F"):
        pytest.skip("no AVX512F on this host, so the default run already "
                    "runs without AVX-512")
    missing = [name for name in _AVX512 if name not in dispatch]
    if missing:
        pytest.skip(f"numpy {np.__version__} does not dispatch {missing} at "
                    "runtime")
    res = python.run("-c", _ALL_CASES, str(TESTS), timeout=600,
                     NPY_DISABLE_CPU_FEATURES=" ".join(_AVX512))
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout)
    assert [name for name in CASES if tuple(got[name]) != _want(name)] == []


if __name__ == "__main__":
    # thetawave must be importable, as it is when installed
    res = subprocess.run([sys.executable, "-c", _ALL_CASES, str(TESTS)],
                         stdout=subprocess.PIPE, text=True, check=True)
    got = json.loads(res.stdout)
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, want_code, *golden) in CASES.items():
        if golden:
            continue  # another case writes the file it prints
        code, out = got[name]
        if code != want_code:
            raise SystemExit(f"{name}: exit {code}, expected {want_code}")
        (GOLDEN / f"{name}.out").write_text(out)
