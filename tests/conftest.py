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
