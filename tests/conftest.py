"""Shared test configuration.

The acceptance module names its tests ``test_criterion_<n>_...``; after
the run, one line per criterion is printed so the gate can be read off
directly from the terminal summary, with the seconds its tests took
together, setup and call phases both.  Setup counts because criteria
3, 4a and 5 share one module fixture, ``all_pairs_run``: its seconds
show under criterion 3, whose test sets it up first.
"""

import re

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
