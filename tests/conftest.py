import difflib
import re
from pathlib import Path

import pytest

from ekor_atlas.siegel import siegel_context
from helpers import build_gl3_twisted

_ACCEPTANCE_LINES = []
_LEDGER = Path(__file__).with_name("acceptance_lines.txt")
_LEDGER_DIFF = []


@pytest.fixture(scope="session")
def criterion():
    """Record one pass/fail line per acceptance criterion, then assert."""
    def record(tag, ok, detail=""):
        line = f"[{'PASS' if ok else 'FAIL'}] {tag}"
        if detail:
            line += f": {detail}"
        print(line)
        _ACCEPTANCE_LINES.append(line)
        assert ok, line
    return record


def pytest_collection_modifyitems(config, items):
    """A warning raised in a test under tests/ fails it.  This is a mark,
    not a filterwarnings entry in pyproject.toml, because that entry would
    also turn the ResourceWarning that perfbench/run.py leaves into
    failures of perfbench/tests."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


def pytest_sessionfinish(session, exitstatus):
    """When all nine criteria ran (and no -k narrowed the run), their lines,
    with C1's timing masked, must equal the ledger acceptance_lines.txt."""
    tags = {line.split()[1] for line in _ACCEPTANCE_LINES}
    if session.config.option.keyword or tags != {f"C{i}" for i in range(1, 10)}:
        return
    got = [re.sub(r", \d+\.\d+s$", ", #.##s", line) for line in _ACCEPTANCE_LINES]
    want = _LEDGER.read_text().splitlines()
    _LEDGER_DIFF.extend(difflib.unified_diff(want, got, str(_LEDGER.name),
                                             "this run", lineterm=""))
    if _LEDGER_DIFF:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
    if _LEDGER_DIFF:
        terminalreporter.section("acceptance ledger differs")
        for line in _LEDGER_DIFF:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def ctx1():
    return siegel_context(1)


@pytest.fixture(scope="session")
def ctx2():
    return siegel_context(2)


@pytest.fixture(scope="session")
def ctx3():
    return siegel_context(3)


@pytest.fixture(scope="session")
def ctx4():
    return siegel_context(4)


@pytest.fixture(scope="session")
def gl3_twisted():
    return build_gl3_twisted()
