"""Run the tier-1 test suite and check that exactly the documented failures
fail.

Three tests in ``tests/test_acceptance.py`` encode claims that the code
shows to be unattainable as stated; they are kept, unedited, as failing
tests.  "Green" therefore means: every other test passes and these three
fail.  Usage, from anywhere:

    python tools/tier1.py [extra pytest arguments]

Exit 0 when the set of failed or errored tests is exactly the documented
one; exit 1 when a further test fails or a test module does not import
(either is named), when one of the three starts to pass, or when pytest
itself breaks.  A skipped test counts as neither passed nor failed, and
the summary line gives both counts (without scipy, its oracle skips), with
the node ID and reason of each skipped test under it.
Needs only the standard library, pytest and hypothesis.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

EXPECTED = {
    "tests/test_acceptance.py::TestCriterion5PhaseConstants"
    "::test_k2_limit_a_to_b",
    "tests/test_acceptance.py::TestCriterion7ComplexPhaseReality"
    "::test_half_b_period_matches_half_real_shift_second_slot",
    "tests/test_acceptance.py::TestCriterion10NegativeControl"
    "::test_corruption_magnitude",
}


class _Recorder:
    """pytest plugin: the node IDs of the tests run, of the tests skipped
    (with the reason), and of the tests and collected modules that failed or
    errored."""

    def __init__(self):
        self.ran, self.skipped, self.bad = set(), {}, set()

    def pytest_runtest_logreport(self, report):
        self.ran.add(report.nodeid)
        if report.failed:
            self.bad.add(report.nodeid)
        elif report.skipped:
            # a skip's longrepr is (path, line number, "Skipped: <reason>")
            self.skipped[report.nodeid] = report.longrepr[2]

    def pytest_collectreport(self, report):
        if report.failed:
            self.bad.add(report.nodeid)


def main(argv):
    # from ROOT, pyproject.toml supplies the testpaths and the src path
    os.chdir(ROOT)
    rec = _Recorder()
    code = pytest.main(["-q", "--continue-on-collection-errors", *argv],
                       plugins=[rec])
    if code not in (0, 1):
        print(f"tier1: pytest exited {int(code)} without a result to check",
              file=sys.stderr)
        return 1
    bad = rec.bad
    skipped = {n: why for n, why in rec.skipped.items() if n not in bad}
    ran = rec.ran - skipped.keys()
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
    print(f"tier1: {len(ran - bad)} passed, {len(skipped)} skipped, and the "
          f"{len(bad)} documented failures failed")
    for node, why in sorted(skipped.items()):
        print(f"  skipped {node}: {why}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
