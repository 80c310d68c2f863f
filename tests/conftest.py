import _pyio
import csv
import os
import pathlib

import pytest

from cbdetect import Task, synth_fixture

# one pass/fail line per acceptance criterion, shown in the terminal
# summary regardless of capture settings
ACCEPTANCE_DETAILS: dict[str, str] = {}
_acceptance_results: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    status = "PASS" if report.passed else "FAIL"
    _acceptance_results.append((status, report.nodeid.split("::")[-1]))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for status, name in _acceptance_results:
        detail = ACCEPTANCE_DETAILS.get(name)
        line = f"{status}  {name}"
        if detail:
            line += f" :: {detail}"
        terminalreporter.write_line(line)


@pytest.fixture
def aggression_fixture():
    return synth_fixture(2, Task.AGGRESSION, seed=1)


@pytest.fixture
def cyberbullying_fixture():
    return synth_fixture(3, Task.CYBERBULLYING, seed=1)


@pytest.fixture
def write_csv(tmp_path):
    def _write(name, fieldnames, rows):
        path = tmp_path / name
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
        return path

    return _write


@pytest.fixture
def crlf_platform(monkeypatch):
    """Files opened through ``pathlib`` behave as on a platform whose line
    separator is ``\\r\\n``: text mode with ``newline=None`` translates each
    written ``\\n``."""
    monkeypatch.setattr(os, "linesep", "\r\n")
    monkeypatch.setattr(pathlib.Path, "open", lambda self, *a, **k: _pyio.open(self, *a, **k))
