from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

ACCEPTANCE_RESULTS: dict[str, tuple[bool, str]] = {}


def record_acceptance(name: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS[name] = (ok, detail)


@pytest.fixture
def side_table_calls(monkeypatch):
    """One entry per `meander._side_table` call through any module of the
    package that binds it; the involution and side-record caches start
    empty."""
    from seaweeds import meander
    side_table = meander._side_table
    calls: list[int] = []

    def spy(n, comps):
        calls.append(n)
        return side_table(n, comps)

    for name, module in list(sys.modules.items()):
        if (name.startswith("seaweeds.")
                and getattr(module, "_side_table", None) is side_table):
            monkeypatch.setattr(module, "_side_table", spy)
    meander.involution.cache_clear()
    meander._side_record.cache_clear()
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for name in sorted(ACCEPTANCE_RESULTS):
        ok, detail = ACCEPTANCE_RESULTS[name]
        status = "PASS" if ok else "FAIL"
        line = f"{name}: {status}"
        if detail:
            line += f"  ({detail})"
        tw.write_line(line)
