"""Shared test configuration.

The acceptance module names its tests ``test_criterion_<n>_...``; after
the run, one line per criterion is printed so the gate can be read off
directly from the terminal summary, with the seconds its tests took
together, setup and call phases both.  Setup counts because criteria
3, 4a and 5 share one module fixture, ``all_pairs_run``: its seconds
show under criterion 3, whose test sets it up first.

The ``pinned`` fixture checks a verification suite's record against
its pin in `SUITE_PINS`, so a test that runs a suite also pins every
check name and value it reports.
"""

import hashlib
import json
import re

import pytest

#: per suite, the first 16 hex digits of the sha256 of its record as
#: sorted JSON, with ``seconds`` (the one field that varies between
#: runs) dropped; they change only with a deliberate change to a suite
SUITE_PINS = {
    "distance": "ae8845ce92cc7754",
    "counts": "481f000cf5a14da9",
    "ideal-bound": "524fa5b30cc75ced",
    "correlation": "2946d8e7d43aee0d",
    "sc-diameter": "cd33c13b5fb55073",
    "sc-radius": "8ffdeb8fe31155d5",
    "sc-radius-lb": "ad7172b9d3982f91",
    "even-d-conjecture": "b40c6f1f6d976dae",
    "cssc": "1209f2de1702ea04",
    "tssc": "ba46e7fa3865106e",
    "chvatal": "caa9e4e4f287ee34",
}


@pytest.fixture
def pinned():
    """Assert that a suite report's record still hashes to its pin."""

    def check(report):
        record = report.to_record()
        del record["seconds"]
        text = json.dumps(record, sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert digest == SUITE_PINS[report.name], report.name

    return check

_CRITERION = re.compile(r"test_criterion_(\d+)[a-z]?_([a-z0-9_]+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    seconds = {}
    # passed setups are filed under the empty status, so read them all
    for reports in terminalreporter.stats.values():
        for report in reports:
            m = _CRITERION.search(getattr(report, "nodeid", None) or "")
            if m and getattr(report, "when", None) in ("setup", "call"):
                key = int(m.group(1))
                seconds[key] = seconds.get(key, 0.0) + report.duration
    for status in ("passed", "failed", "error", "xfailed", "xpassed",
                   "skipped"):
        for report in terminalreporter.stats.get(status, []):
            when = getattr(report, "when", "call")
            if when != "call" and status not in ("error",):
                continue
            m = _CRITERION.search(report.nodeid)
            if not m:
                continue
            key = int(m.group(1))
            label = m.group(2).replace("_", " ")
            outcomes.setdefault(key, []).append((label, status))
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num, entries in sorted(outcomes.items()):
        statuses = {s for _, s in entries}
        if statuses <= {"passed"}:
            verdict = "PASS"
        elif statuses <= {"passed", "xfailed"}:
            verdict = "PASS (documented defect xfailed)"
        else:
            verdict = "FAIL"
        label = entries[0][0]
        terminalreporter.write_line(
            f"criterion {num}: {verdict} - {label} "
            f"({seconds.get(num, 0.0):.1f} s)"
        )
