"""CLI goldens: the stdout and exit code of representative commands must
stay byte-identical across refactors.

Each case's stdout is stored in ``golden/<name>.out``.  Regenerate the files
only for an intended output change, with ``python tests/test_golden.py``.
"""

import contextlib
import io
from pathlib import Path

import pytest

from thetawave.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, exit code)
CASES = {
    "params": (["params"], 0),
    "params_lambda0": (["params", "--lambda0", "0.7"], 0),
    "grid_csv": (["grid", "--nx", "16", "--nt", "16"], 0),
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
    "verify_corrupt_k2": (["verify", "--corrupt-k2"], 1),
    "verify_limit_a_to_0": (["verify", "--limit", "a_to_0"], 0),
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    argv, want_code = CASES[name]
    code, out = _run(argv)
    assert code == want_code
    assert out == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, want_code) in CASES.items():
        code, out = _run(argv)
        if code != want_code:
            raise SystemExit(f"{name}: exit {code}, expected {want_code}")
        (GOLDEN / f"{name}.out").write_text(out)
