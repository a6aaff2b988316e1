"""The command line runs with the cyclic collector off.

tmkit's records hold no references back to what holds them, so a command
makes no reference cycles, and the collector's passes would free nothing.
``_Main.main`` turns the collector off while a command runs and back on
afterwards if it was on.  The first tests pin that premise: run in
process with the collector off, after one warm-up run, a command leaves
nothing for ``gc.collect()`` to free.  A record that points back to its
model, or an exception kept alive by a frame that it holds, fails here.
At exit, a process that imported the command line freezes its objects,
so the interpreter's last collections skip them.
"""
import gc
import io
import subprocess
import sys
from random import Random

import pytest
from click.testing import CliRunner

import tmkit.dsl
from tmkit import format_document, to_json
from tmkit.cli import main

from conftest import fixture_path, tmkit_env
from generators import loop_document, ring_document

SCENARIOS = {
    "atm": ["atm_happy", "atm_wrong_password"],
    "ordering": [
        "ordering_all_yes", "ordering_invalid", "ordering_out_of_stock",
        "ordering_payment_fail",
    ],
}


def run(args) -> int:
    """Run the command as the console script does, with its output thrown
    away; return its exit code."""
    streams = sys.stdout, sys.stderr
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    sys.stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    try:
        main([str(a) for a in args], prog_name="tmkit")
    except SystemExit as exc:
        return exc.code
    finally:
        sys.stdout, sys.stderr = streams
    return 0


def fixture_commands(tmp):
    """Every command the shipped fixtures go through."""
    arg = lambda name: fixture_path(f"{name}.arg")
    commands = [
        ("events", fixture_path("ordering.tm"), "--coverage"),
        ("import", fixture_path("ordering_chart.json")),
        ("validate-arg", arg("carroll")),
        ("validate-arg", arg("converse")),
        ("prove", arg("carroll")),
        ("prove", arg("converse")),
    ]
    for model, scenarios in SCENARIOS.items():
        tm = fixture_path(f"{model}.tm")
        commands += [
            ("check", tm),
            ("simplify", tm),
            ("export", tm, "--format", "json"),
            ("export", tm, "--format", "dot"),
            ("export", tm, "--format", "dot", "--part", "chronology"),
        ]
        for name in scenarios:
            scenario = fixture_path(f"scenarios/{name}.scenario")
            trace = tmp / f"{name}.json"
            commands += [
                ("simulate", tm, "--scenario", scenario, "-o", trace),
                ("conform", tm, trace),
                ("report", tm, "--scenario", scenario),
            ]
    return commands


def ring_commands(tmp, n):
    doc = ring_document(n, Random(n))
    tm, js = tmp / f"ring{n}.tm", tmp / f"ring{n}.json"
    tm.write_text(format_document(doc), encoding="utf-8")
    js.write_text(to_json(doc), encoding="utf-8")
    return [
        ("check", tm),
        ("check", js),
        ("simplify", tm),
        ("export", tm, "--format", "json"),
        ("export", tm, "--format", "dot"),
    ]


def loop_commands(tmp):
    doc, text = loop_document(30, Random(30))
    tm, scenario = tmp / "loops.tm", tmp / "loops.scenario"
    tm.write_text(format_document(doc), encoding="utf-8")
    scenario.write_text(text, encoding="utf-8")
    trace = tmp / "loops.json"
    return [
        ("simulate", tm, "--scenario", scenario, "-o", trace),
        ("conform", tm, trace),
        ("report", tm, "--scenario", scenario),
        ("export", tm, "--format", "dot", "--part", "chronology"),
    ]


def bad_models(tmp):
    """A model that validation refuses (exit 1) and one that does not
    parse (exit 2)."""
    broken, garbled = tmp / "broken.tm", tmp / "garbled.tm"
    broken.write_text(
        "model broken { thimac a { process p } thimac b { process q } a/p -> b/q }\n"
    )
    garbled.write_text("model garbled { thimac a { process } }\n")
    return broken, garbled


def failing_commands(tmp):
    """An exit-1 path, exit-2 paths, and the version and usage paths."""
    broken, garbled = bad_models(tmp)
    return [
        ("check", broken),
        ("check", garbled),
        ("check", tmp / "missing.tm"),
        ("check",),
        ("--version",),
    ]


def test_commands_make_no_cycles(tmp_path):
    commands = (
        fixture_commands(tmp_path)
        + ring_commands(tmp_path, 20)
        + ring_commands(tmp_path, 200)
        + loop_commands(tmp_path)
        + failing_commands(tmp_path)
    )
    codes = {}
    freed = {}
    for args in commands:
        label = " ".join(str(a).rsplit("/", 1)[-1] for a in args)
        run(args)  # warm up: the first run imports what it needs
        gc.collect()
        gc.disable()
        try:
            codes[label] = run(args)
            freed[label] = gc.collect()
        finally:
            gc.enable()
    assert {label for label, n in freed.items() if n} == set(), freed
    assert set(codes.values()) == {0, 1, 2}, codes


# ---------------------------------------------------------------------------
# scoping


@pytest.fixture()
def seen(monkeypatch):
    """Whether the collector was on at each call of ``dsl.parse``."""
    states = []
    parse = tmkit.dsl.parse

    def recording_parse(text):
        states.append(gc.isenabled())
        return parse(text)

    monkeypatch.setattr(tmkit.dsl, "parse", recording_parse)
    return states


def scoping_cases(tmp):
    """(arguments, exit code, the collector's state at each parse)"""
    broken, garbled = bad_models(tmp)
    return [
        (["check", fixture_path("atm.tm")], 0, [False]),
        (["check", broken], 1, [False]),
        (["check", garbled], 2, [False]),
        (["check", "--no-such-option", broken], 2, []),
    ]


@pytest.mark.parametrize("on_before", [True, False])
def test_the_collector_is_off_only_while_a_command_runs(tmp_path, seen, on_before):
    for args, code, states in scoping_cases(tmp_path):
        seen.clear()
        if not on_before:
            gc.disable()
        try:
            result = CliRunner().invoke(main, [str(a) for a in args])
            after = gc.isenabled()
        finally:
            gc.enable()
        assert result.exit_code == code, (args, result.output)
        assert seen == states, args
        assert after is on_before, args


def test_the_process_freezes_its_objects_at_exit():
    code = (
        "import atexit, gc\n"
        # registered first, so it runs after the command line's exit hook
        "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
        "import tmkit.cli\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=tmkit_env(), capture_output=True, text=True
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "True\n", "")
