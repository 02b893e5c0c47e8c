"""Run the tier-1 test suite and check that exactly the documented failures
fail.

Three tests in ``tests/test_acceptance.py`` encode claims that the code
shows to be unattainable as stated; they are kept, unedited, as failing
tests.  "Green" therefore means: every other test passes and these three
fail.  Usage, from anywhere:

    python tools/tier1.py [extra pytest arguments]

Exit 0 when the set of failed or errored tests is exactly the documented
one; exit 1 when a further test fails, when one of the three starts to
pass, or when pytest itself breaks.  Needs only the standard library and
the test dependencies (``pip install -e ".[test]"``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXPECTED = {
    "tests/test_acceptance.py::TestCriterion5PhaseConstants"
    "::test_k2_limit_a_to_b",
    "tests/test_acceptance.py::TestCriterion7ComplexPhaseReality"
    "::test_half_b_period_matches_half_real_shift_second_slot",
    "tests/test_acceptance.py::TestCriterion10NegativeControl"
    "::test_corruption_magnitude",
}


def _node_id(case):
    """The pytest node ID of a JUnit <testcase>: its classname holds the
    module path and the class, both dotted."""
    parts = case.get("classname", "").split(".")
    name = case.get("name", "")
    for i in range(len(parts), 0, -1):
        path = Path(*parts[:i]).with_suffix(".py")
        if (ROOT / path).is_file():
            return "::".join([path.as_posix(), *parts[i:], name])
    return "::".join([*filter(None, parts), name])


def _outcomes(xml_path):
    """(node IDs run, node IDs that failed or errored)."""
    ran, bad = set(), set()
    for case in ET.parse(xml_path).iter("testcase"):
        node = _node_id(case)
        ran.add(node)
        if case.find("failure") is not None or case.find("error") is not None:
            bad.add(node)
    return ran, bad


def main(argv):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        xml_path = Path(tmp) / "tier1.xml"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q",
             "--continue-on-collection-errors", f"--junitxml={xml_path}",
             *argv],
            cwd=ROOT, env=env)
        if proc.returncode not in (0, 1) or not xml_path.is_file():
            print(f"tier1: pytest exited {proc.returncode} without a "
                  f"result to check", file=sys.stderr)
            return 1
        ran, bad = _outcomes(xml_path)
    problems = [f"tier1: unexpected failure: {n}"
                for n in sorted(bad - EXPECTED)]
    problems += [f"tier1: documented failure now passes: {n}"
                 for n in sorted((EXPECTED - bad) & ran)]
    problems += [f"tier1: documented failure did not run: {n}"
                 for n in sorted(EXPECTED - ran)]
    for line in problems:
        print(line, file=sys.stderr)
    if problems:
        return 1
    print(f"tier1: {len(ran) - len(bad)} passed, and the {len(bad)} "
          f"documented failures failed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
