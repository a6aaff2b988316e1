"""Shared fixtures: parsed copies of the shipped example documents.

Everything in the package is an immutable value, so the parsed documents
are session-scoped; tests may share them freely.
"""
import os
import sys
from pathlib import Path

import pytest

import tmkit

FIXTURES = Path(tmkit.__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def read_fixture(name: str) -> str:
    return fixture_path(name).read_text()


def tmkit_command(*args):
    """A fresh interpreter running the CLI, for tests of the real stdout."""
    return [sys.executable, "-m", "tmkit", *map(str, args)]


def tmkit_env(**variables: str) -> dict[str, str]:
    """The environment for a fresh interpreter that imports this tmkit."""
    source = str(Path(tmkit.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=source, **variables)


#: Line breaks to ``str.splitlines`` besides "\n"; scenario and argument
#: files end a line at "\n" only, as ``.tm`` files do.
ODD_LINE_BREAKS = ["\r", "\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


#: Strings a JSON writer must escape or pass through with care: quotes,
#: backslashes, control characters, non-ASCII and a lone surrogate.
ODD_NAMES = [
    "",
    "E1",
    "café über 日本",
    'say "hi"',
    "back\\slash",
    "tab\there\nline\rcr\x00nul\x1f\x7f",
    "\U0001f600 and \ud800 alone",
    "</script>  ",
]


def load_scenario(name: str) -> tmkit.Scenario:
    path = FIXTURES / "scenarios" / f"{name}.scenario"
    return tmkit.parse_scenario(path.read_text(), name)


@pytest.fixture(scope="session")
def atm_doc() -> tmkit.Document:
    return tmkit.parse(read_fixture("atm.tm"))


@pytest.fixture(scope="session")
def ordering_doc() -> tmkit.Document:
    return tmkit.parse(read_fixture("ordering.tm"))


@pytest.fixture(scope="session")
def ordering_chart() -> tmkit.FlowchartDoc:
    return tmkit.load_flowchart(read_fixture("ordering_chart.json"))


@pytest.fixture(scope="session")
def carroll() -> tmkit.Argument:
    return tmkit.parse_argument(read_fixture("carroll.arg"))
