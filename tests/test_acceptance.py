"""The acceptance suite: every entry of fasmon's check table at the full
level, one test per check.

Each test records the check's [PASS]/[FAIL] line (echoed in the terminal
summary) before asserting, so a red run still shows the measured numbers.
Tolerances, sample counts and seeds live in fasmon.validation, which
``fasmon validate --full`` runs as well.
"""

import pytest

from fasmon.validation import CHECKS, run_check


@pytest.mark.parametrize("index", range(len(CHECKS)),
                         ids=[check.name for check in CHECKS])
def test_check(index, acceptance_report):
    ok, line = run_check(index, full=True)
    acceptance_report(line)
    print(line)
    assert ok, line
