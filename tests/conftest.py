import pytest

from ekor_atlas.siegel import siegel_context
from helpers import build_gl3_twisted

_ACCEPTANCE_LINES = []


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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
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
