"""The command-line front end: outputs, exit codes, and stream discipline."""
import json
import os
import re
import subprocess
import sys
import time
from random import Random

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit.cli import main
from tmkit.model import MAX_DEPTH

from conftest import fixture_path, read_fixture, tmkit_command, tmkit_env
from generators import mutate

runner = CliRunner()


def invoke(*args, **kwargs):
    return runner.invoke(main, [str(a) for a in args], **kwargs)


def model_arg():
    return fixture_path("ordering.tm")


def scenario_arg(name):
    return fixture_path(f"scenarios/{name}.scenario")


@pytest.fixture()
def broken_model(tmp_path):
    path = tmp_path / "broken.tm"
    path.write_text(
        "model broken {\n"
        "  thimac a { process p }\n"
        "  thimac b { process q }\n"
        "  a/p -> b/q\n"
        "}\n"
    )
    return path


def test_version():
    result = invoke("--version")
    assert result.exit_code == 0
    assert result.output == "tmkit, version 0.1.0\n"


# ---------------------------------------------------------------------------
# check


def test_check_reports_warnings_but_passes(atm_doc):
    result = invoke("check", fixture_path("atm.tm"))
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[-1] == "0 errors, 2 warnings"
    assert all(line.startswith("warning R3 ") for line in lines[:-1])


def test_check_fails_on_errors(broken_model):
    result = invoke("check", broken_model)
    assert result.exit_code == 1
    assert "error R2 " in result.stdout
    # the stranded processes also draw reachability warnings
    assert result.stdout.splitlines()[-1] == "1 errors, 2 warnings"


def test_check_warns_of_a_trigger_that_a_storage_sources(tmp_path):
    path = tmp_path / "stored.tm"
    path.write_text(
        "model m { thimac t { create a  process p  storage s  a -> s  s -> p  s ~> p } }\n"
    )
    result = invoke("check", path)
    assert result.exit_code == 0
    assert result.stdout == (
        "warning R4 trigger1: trigger source t/s is a storage; "
        "triggers normally originate at a process or create\n"
        "0 errors, 1 warnings\n"
    )


def test_check_rejects_unparseable_input(tmp_path):
    path = tmp_path / "bad.tm"
    path.write_text("model {\n")
    result = invoke("check", path)
    assert result.exit_code == 2
    assert result.stderr.startswith("error: line 1, col 7: ")


def test_check_rejects_a_repeated_event_id_at_the_second(tmp_path):
    path = tmp_path / "events.tm"
    path.write_text(
        "model m {\n  thimac t { create a }\n}\n"
        'events {\n  event E1 "x" { t/a }\n  event E1 "y" { t/a }\n}\n'
    )
    result = invoke("check", path)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == (
        "error: line 6, col 9: expected a fresh event id, found 'E1' "
        "(already declared)\n"
    )


def test_missing_file_is_a_usage_error(tmp_path):
    result = invoke("check", tmp_path / "nowhere.tm")
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# simplify


def test_simplify_prints_the_reduced_model():
    result = invoke("simplify", model_arg())
    assert result.exit_code == 0
    assert result.stdout.startswith("model ordering_process {\n")
    assert " transfer " not in result.stdout
    assert result.stderr == (
        "note: events and chronology dropped; "
        "their regions name removed actions\n"
    )


def test_simplify_writes_to_a_file(tmp_path):
    out = tmp_path / "reduced.tm"
    result = invoke("simplify", model_arg(), "-o", out)
    assert result.exit_code == 0
    assert result.stdout == ""
    assert out.read_text().startswith("model ordering_process {\n")


DROPPED = "dropped; no two distinct surviving actions stand in for its ends"


@pytest.mark.parametrize(
    "text, notes, kept",
    [
        (
            # the transfer x leads to no surviving action
            "model m { thimac t { create a  process p  release r  transfer x\n"
            "  a -> p  p -> r  r -> x\n"
            '  p ~> x if "go"  a ~> p  a ~> r } }\n'
            'events { event E1 "start" { t/a } }\n',
            [
                "events and chronology dropped; their regions name removed actions",
                f"trigger trigger1 t/p ~> t/x {DROPPED}",
                f"trigger trigger3 t/a ~> t/r {DROPPED}",
            ],
            ["a ~> p"],
        ),
        (
            # the transport chain from r leads back to p, the trigger's source
            "model m {\n"
            "  thimac t { create a  process p  release r  transfer x\n"
            "             transfer z  receive rc\n"
            "    a -> p  p -> r  r -> x  z -> rc  rc -> p  p ~> r  x -> u/y }\n"
            "  thimac u { transfer y  y -> t/z }\n"
            "}\n",
            [f"trigger trigger1 t/p ~> t/r {DROPPED}"],
            [],
        ),
    ],
    ids=["dead-end", "lands-on-its-source"],
)
def test_simplify_notes_each_trigger_it_drops(tmp_path, text, notes, kept):
    path = tmp_path / "drops.tm"
    path.write_text(text)
    assert invoke("check", path).stdout == "0 errors, 0 warnings\n"
    result = invoke("simplify", path)
    assert result.exit_code == 0
    assert result.stderr == "".join(f"note: {note}\n" for note in notes)
    triggers = [line.strip() for line in result.stdout.splitlines() if "~>" in line]
    assert triggers == kept


def test_simplify_moves_a_trigger_source_backward(tmp_path):
    path = tmp_path / "back.tm"
    path.write_text(
        "model m {\n"
        "  thimac a { create c  release r  transfer t  release u\n"
        "    c -> r  r -> t  t -> b/t2  u -> t\n"
        '    r ~> b/p if "go"  u ~> b/p }\n'
        "  thimac b { transfer t2  receive rc  process p  t2 -> rc  rc -> p }\n"
        "}\n"
    )
    result = invoke("simplify", path)
    assert result.exit_code == 0
    # u has nothing flowing into it, so its trigger has no survivor to move to
    assert result.stderr == f"note: trigger trigger2 a/u ~> b/p {DROPPED}\n"
    triggers = [line.strip() for line in result.stdout.splitlines() if "~>" in line]
    assert triggers == ['c ~> b/p if "go"']


def test_simplify_refuses_a_model_with_errors(tmp_path):
    # needs a transport on board: with nothing to remove, simplify is the
    # identity and never reaches its error gate
    path = tmp_path / "broken.tm"
    path.write_text(
        "model broken {\n"
        "  thimac a { process p  release r }\n"
        "  thimac b { process q }\n"
        "  a/p -> b/q\n"
        "  a/p -> a/r\n"
        "}\n"
    )
    result = invoke("simplify", path)
    assert result.exit_code == 1
    assert "error R2 " in result.stderr
    assert "error: cannot simplify a model that has errors" in result.stderr


# ---------------------------------------------------------------------------
# events


def test_events_lists_the_catalog():
    result = invoke("events", model_arg())
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 16
    assert lines[0].startswith("E1: ")
    assert lines[0].endswith(" actions)")


def test_events_coverage_when_everything_is_covered():
    result = invoke("events", model_arg(), "--coverage")
    assert result.exit_code == 0
    assert result.stdout == ""
    assert result.stderr == "note: every action is covered\n"


def test_events_coverage_lists_gaps():
    result = invoke("events", fixture_path("atm.tm"), "--coverage")
    assert result.exit_code == 0
    assert result.stdout.splitlines() == [
        "atm/ok_handle",
        "atm/ok_in",
        "atm/ok_rcv",
        "bank/ok_out",
        "bank/ok_rel",
        "bank/ok_sig",
    ]


def test_events_notes_when_there_are_none(tmp_path):
    path = tmp_path / "plain.tm"
    path.write_text("model plain {\n  thimac t { create a }\n}\n")
    result = invoke("events", path)
    assert result.exit_code == 0
    assert result.stderr == "note: no events defined\n"


# ---------------------------------------------------------------------------
# simulate / conform


def test_simulate_emits_a_json_trace():
    result = invoke(
        "simulate", model_arg(), "--scenario", scenario_arg("ordering_all_yes")
    )
    assert result.exit_code == 0
    trace = json.loads(result.stdout)
    assert trace["scenario"] == "ordering_all_yes"
    assert len(trace["steps"]) == 12
    assert trace["steps"][-1]["event"] == "E16"


def test_simulate_needs_a_chronology(tmp_path):
    path = tmp_path / "plain.tm"
    path.write_text("model plain {\n  thimac t { create a }\n}\n")
    result = invoke("simulate", path, "--scenario", scenario_arg("ordering_all_yes"))
    assert result.exit_code == 2
    assert "no chronology to simulate" in result.stderr


def test_simulate_fails_when_the_scenario_runs_dry(tmp_path):
    empty = tmp_path / "empty.scenario"
    empty.write_text("# no decisions\n")
    result = invoke("simulate", model_arg(), "--scenario", empty)
    assert result.exit_code == 1
    assert "error: " in result.stderr


def test_simulate_names_a_guard_that_holds_an_equals_sign(tmp_path):
    model = tmp_path / "bank.tm"
    model.write_text(
        "model bank { thimac t { process a } }\n"
        'events { event E1 "x" { t/a } event E2 "y" { t/a } }\n'
        'chronology { E1 -> E2 if "balance >= amount" }\n'
    )
    scenario = tmp_path / "rich.scenario"
    scenario.write_text("balance >= amount = T\n")
    result = invoke("simulate", model, "--scenario", scenario)
    assert result.exit_code == 0, result.stderr
    assert [step["event"] for step in json.loads(result.stdout)["steps"]] == [
        "E1", "E2",
    ]


def test_simulate_names_a_quoted_guard_that_holds_a_hash(tmp_path):
    model = tmp_path / "items.tm"
    model.write_text(
        "model items { thimac t { process a } }\n"
        'events { event E1 "x" { t/a } event E2 "y" { t/a } }\n'
        'chronology { E1 -> E2 if "item #1 ok" }\n'
    )
    scenario = tmp_path / "items.scenario"
    scenario.write_text('"item #1 ok" = T  # quoted, so the # is the guard\'s\n')
    result = invoke("simulate", model, "--scenario", scenario)
    assert result.exit_code == 0, result.stderr
    assert [step["event"] for step in json.loads(result.stdout)["steps"]] == [
        "E1", "E2",
    ]


def test_a_guard_with_outer_spaces_cannot_be_named(tmp_path):
    model = tmp_path / "spaced.tm"
    model.write_text(
        "model spaced { thimac t { process a } }\n"
        'events { event E1 "x" { t/a } event E2 "y" { t/a } }\n'
        'chronology { E1 -> E2 if " ok" }\n'
    )
    scenario = tmp_path / "s.scenario"
    scenario.write_text(" ok = T\n")  # the label is read as "ok"
    result = invoke("simulate", model, "--scenario", scenario)
    assert result.exit_code == 1
    assert result.stderr == (
        "error: scenario 's' has no decision left for guard ' ok' at step 0\n"
    )


def test_conform_round_trip(tmp_path):
    trace_file = tmp_path / "trace.json"
    invoke(
        "simulate", model_arg(),
        "--scenario", scenario_arg("ordering_invalid"), "-o", trace_file,
    )
    result = invoke("conform", model_arg(), trace_file)
    assert result.exit_code == 0
    assert result.stdout == "ok\n"

    data = json.loads(trace_file.read_text())
    data["steps"][-1]["event"] = "E16"
    trace_file.write_text(json.dumps(data))
    result = invoke("conform", model_arg(), trace_file)
    assert result.exit_code == 1
    assert result.stdout.startswith("violation at step ")


def test_conform_needs_a_chronology(tmp_path):
    path = tmp_path / "plain.tm"
    path.write_text("model plain {\n  thimac t { create a }\n}\n")
    trace_file = tmp_path / "trace.json"
    trace_file.write_text('{"steps": []}')
    result = invoke("conform", path, trace_file)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: model has no chronology to conform against\n"


def test_conform_rejects_unreadable_traces(tmp_path):
    trace_file = tmp_path / "trace.json"
    trace_file.write_text("{nope")
    result = invoke("conform", model_arg(), trace_file)
    assert result.exit_code == 2
    assert "not valid JSON" in result.stderr


@pytest.mark.parametrize(
    "trace, complaint",
    [
        ({"steps": [{"event": "E1", "index": "x"}]}, "index 'x' is not an integer"),
        ({"steps": [{"event": "E1", "index": None}]}, "index None is not an integer"),
        ({"steps": 5}, "'steps' list"),
    ],
)
def test_conform_refuses_malformed_trace_steps(tmp_path, trace, complaint):
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps(trace))
    result = invoke("conform", model_arg(), trace_file)
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ") and complaint in result.stderr
    assert "Traceback" not in result.output + result.stderr


def test_conform_still_reads_string_indexes(tmp_path):
    trace_file = tmp_path / "trace.json"
    invoke(
        "simulate", model_arg(),
        "--scenario", scenario_arg("ordering_invalid"), "-o", trace_file,
    )
    data = json.loads(trace_file.read_text())
    for step in data["steps"]:
        step["index"] = str(step["index"])
    trace_file.write_text(json.dumps(data))
    result = invoke("conform", model_arg(), trace_file)
    assert result.exit_code == 0
    assert result.stdout == "ok\n"


def test_conform_refuses_a_trace_that_starts_past_an_initial_event(tmp_path):
    trace_file = tmp_path / "trace.json"
    trace_file.write_text('{"steps": [{"event": "E9"}]}')
    result = invoke("conform", model_arg(), trace_file)
    assert result.exit_code == 1
    assert result.stdout == "violation at step 0: E9 is not an initial event\n"


def event_chain(count, back_edge=""):
    """``.tm`` text whose chronology is the chain E1 -> ... -> E``count``,
    every event over the one action, plus ``back_edge`` if given."""
    events = "".join(f'  event E{k} "e" {{ t/a }}\n' for k in range(1, count + 1))
    edges = "".join(f"  E{k} -> E{k + 1}\n" for k in range(1, count))
    return (
        "model m {\n  thimac t { create a }\n}\n"
        f"events {{\n{events}}}\nchronology {{\n{edges}{back_edge}}}\n"
    )


def test_a_chronology_deeper_than_the_recursion_limit_checks(tmp_path):
    count = 3000
    assert count > sys.getrecursionlimit()
    path = tmp_path / "deep.tm"
    path.write_text(event_chain(count))
    result = invoke("check", path)
    assert result.exit_code == 0
    assert result.stdout == "0 errors, 0 warnings\n"

    path.write_text(event_chain(count, f"  E{count} -> E2\n"))
    result = invoke("check", path)
    cycle = " -> ".join(f"E{k}" for k in [*range(2, count + 1), 2])
    assert_unusable(result, "")
    assert result.stderr == f"error: cycle without a loop bound: {cycle}\n"


# ---------------------------------------------------------------------------
# prove / validate-arg


def test_prove_prints_the_chain():
    result = invoke("prove", fixture_path("carroll.arg"))
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 9
    assert lines[0] == "x -> y [premise 6]"
    assert lines[-1] == "t -> ~u [contrapositive of 3]"


def test_prove_fails_when_no_chain_exists():
    result = invoke("prove", fixture_path("converse.arg"))
    assert result.exit_code == 1
    assert result.stderr == "error: no derivation found\n"


def test_validate_arg_accepts_a_valid_argument():
    result = invoke("validate-arg", fixture_path("carroll.arg"))
    assert result.exit_code == 0
    assert result.stdout == "valid (1024 assignments checked)\n"


def test_validate_arg_prints_the_countermodel():
    result = invoke("validate-arg", fixture_path("converse.arg"))
    assert result.exit_code == 1
    assert result.stdout == "invalid: p=F q=T\n"


def test_validate_arg_rejects_fresh_goal_variables(tmp_path):
    path = tmp_path / "fresh.arg"
    path.write_text("a -> b\n|- a -> z\n")
    result = invoke("validate-arg", path)
    assert result.exit_code == 2
    assert "absent from every premise" in result.stderr


def _chain_file(tmp_path, count, goal_consequent):
    names = [f"v{k:02d}" for k in range(count)]
    lines = [f"{a} -> {b}" for a, b in zip(names, names[1:])]
    lines.append(f"|- v00 -> {goal_consequent.format(last=names[-1])}")
    path = tmp_path / "chain.arg"
    path.write_text("\n".join(lines) + "\n")
    return path, names


@pytest.mark.parametrize(
    "goal_consequent, exit_code, stdout",
    [
        ("{last}", 0, "valid (16777216 assignments checked)\n"),
        # the chain forces every variable true, the last row a table reads
        ("~{last}", 1, "invalid: {countermodel}\n"),
    ],
    ids=["valid", "all-true-countermodel"],
)
def test_validate_arg_decides_24_variables_without_enumerating(
    tmp_path, goal_consequent, exit_code, stdout
):
    path, names = _chain_file(tmp_path, 24, goal_consequent)
    began = time.perf_counter()
    result = invoke("validate-arg", path)
    elapsed = time.perf_counter() - began
    assert result.exit_code == exit_code
    countermodel = " ".join(f"{name}=T" for name in names)
    assert result.stdout == stdout.format(countermodel=countermodel)
    assert elapsed < 1.0, f"validate-arg took {elapsed:.2f} s"


def test_validate_arg_keeps_the_24_variable_cap(tmp_path):
    path, _ = _chain_file(tmp_path, 25, "{last}")
    result = invoke("validate-arg", path)
    assert_unusable(
        result, "25 variables would need 2**25 assignments; the cap is 24"
    )


def test_prove_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.arg"
    path.write_text("a -> \n")
    result = invoke("prove", path)
    assert result.exit_code == 2


@pytest.mark.parametrize("command", ["prove", "validate-arg"])
def test_a_vacuous_implication_names_its_line(tmp_path, command):
    path = tmp_path / "vacuous.arg"
    path.write_text("a -> b\n|- a -> b\n~b -> ~b\n")
    result = invoke(command, path)
    assert_unusable(result, "line 3: implication ~b -> itself is vacuous")
    assert result.stderr == "error: line 3: implication ~b -> itself is vacuous\n"


def test_prove_prints_a_backward_chain_byte_for_byte(tmp_path):
    # Each link n_k -> n_k+1 is stated as its contrapositive, on a shuffled
    # line, so every step of the proof is "contrapositive of" that line.
    rng = Random(18)
    names = [f"n{k:04d}" for k in range(2001)]
    rng.shuffle(names)
    links = list(range(2000))
    rng.shuffle(links)
    line_of = {link: line for line, link in enumerate(links, start=1)}
    path = tmp_path / "backward.arg"
    path.write_text(
        "".join(f"~{names[k + 1]} -> ~{names[k]}\n" for k in links)
        + f"|- {names[0]} -> {names[-1]}\n"
    )
    result = invoke("prove", path)
    assert result.exit_code == 0
    assert result.stdout == "".join(
        f"{names[k]} -> {names[k + 1]} [contrapositive of {line_of[k]}]\n"
        for k in range(2000)
    )


# ---------------------------------------------------------------------------
# import / export / report


def test_import_prints_model_text_and_notes():
    result = invoke("import", fixture_path("ordering_chart.json"))
    assert result.exit_code == 0
    assert result.stdout.startswith("model ordering_chart {\n")
    assert result.stderr == (
        "note: end node 'done' dropped; a run simply stops there\n"
        "note: edge receive_goods -> done dropped with its end node\n"
    )


def test_import_rejects_bad_charts(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x"}')
    result = invoke("import", path)
    assert result.exit_code == 2
    assert result.stderr.startswith("error: flowchart: ")


def test_export_json_round_trips():
    result = invoke("export", model_arg(), "--format", "json")
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["name"] == "ordering_process"


def test_export_dot():
    result = invoke("export", model_arg(), "--format", "dot")
    assert result.exit_code == 0
    assert result.stdout.startswith('digraph "ordering_process" {\n')

    result = invoke(
        "export", model_arg(), "--format", "dot", "--part", "chronology"
    )
    assert result.exit_code == 0
    assert result.stdout.startswith('digraph "chronology" {\n')


def test_export_part_is_for_dot_only():
    result = invoke(
        "export", model_arg(), "--format", "json", "--part", "chronology"
    )
    assert result.exit_code == 2
    assert "applies to dot output only" in result.stderr


def test_export_chronology_dot_needs_a_chronology(tmp_path):
    path = tmp_path / "plain.tm"
    path.write_text("model plain {\n  thimac t { create a }\n}\n")
    result = invoke(
        "export", path, "--format", "dot", "--part", "chronology"
    )
    assert result.exit_code == 2
    assert "no chronology to draw" in result.stderr


def test_report_walks_scenarios():
    result = invoke(
        "report", model_arg(),
        "--scenario", scenario_arg("ordering_all_yes"),
        "--scenario", scenario_arg("ordering_invalid"),
    )
    assert result.exit_code == 0
    assert result.stdout.startswith("report on ordering_process\n")
    assert "walk: ordering_all_yes" in result.stdout
    assert "walk: ordering_invalid" in result.stdout
    assert "12. E16: " in result.stdout


def test_report_fails_when_a_walk_runs_dry(tmp_path):
    empty = tmp_path / "empty.scenario"
    empty.write_text("# no decisions\n")
    result = invoke("report", model_arg(), "--scenario", empty)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == (
        "error: scenario 'empty' has no decision left for guard 'order valid' "
        "at step 1\n"
    )


def test_report_needs_a_chronology_for_walks(tmp_path):
    path = tmp_path / "plain.tm"
    path.write_text("model plain {\n  thimac t { create a }\n}\n")
    result = invoke(
        "report", path, "--scenario", scenario_arg("ordering_all_yes")
    )
    assert result.exit_code == 2
    assert "no chronology to walk" in result.stderr


# ---------------------------------------------------------------------------
# stream discipline


def test_output_is_plain_by_default():
    result = invoke("simplify", model_arg(), color=True)
    assert "\x1b[" not in result.stderr


def test_tmkit_color_styles_stderr_only():
    result = invoke(
        "simplify", model_arg(), color=True, env={"TMKIT_COLOR": "1"}
    )
    assert "\x1b[" in result.stderr
    assert "\x1b[" not in result.stdout


# ---------------------------------------------------------------------------
# unusable input: exit 2 with a message, never a traceback


def assert_unusable(result, message):
    """Exit 2, and the last stderr line is the error (notes may precede it)."""
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.splitlines()[-1].startswith("error: ")
    assert message in result.stderr


def model_json(tmp_path, **changes):
    path = tmp_path / "model.json"
    data = json.loads(invoke("export", model_arg(), "--format", "json").stdout)
    path.write_text(json.dumps(dict(data, **changes)))
    return path


@pytest.mark.parametrize(
    "command",
    [
        ["check", "bad.tm"],
        ["check", "bad.json"],
        ["prove", "bad.arg"],
        ["validate-arg", "bad.arg"],
        ["import", "bad.json"],
        ["simulate", model_arg(), "--scenario", "bad.scenario"],
        ["report", model_arg(), "--scenario", "bad.scenario"],
        ["conform", model_arg(), "bad.json"],
    ],
)
def test_undecodable_files_are_unusable_input(tmp_path, command):
    bad = tmp_path / command[-1]
    bad.write_bytes(b"\xff\xfe model")
    result = invoke(*command[:-1], bad)
    assert result.stderr == (
        f"error: cannot read {str(bad)!r} as UTF-8: invalid start byte at byte 0\n"
    )
    assert_unusable(result, "")


@pytest.mark.parametrize(
    "args",
    [
        ["simplify", model_arg()],
        ["import", fixture_path("ordering_chart.json")],
        ["export", model_arg(), "--format", "json"],
    ],
)
def test_unwritable_outputs_are_unusable_input(tmp_path, args):
    out = tmp_path / "missing" / "out"
    result = invoke(*args, "-o", out)
    assert_unusable(result, f"No such file or directory: {str(out)!r}\n")


@pytest.mark.parametrize("to_file", [False, True])
def test_unencodable_output_is_unusable_input(tmp_path, to_file):
    path = model_json(
        tmp_path, events=[], chronology=None,
        actions=[{"id": "client/submit", "kind": "process", "owner": "client",
                  "label": "\ud800", "anchor": None}],
        flows=[], triggers=[], storages=[],
    )
    out = tmp_path / "out.tm"
    result = invoke("simplify", path, *(["-o", out] if to_file else []))
    assert_unusable(result, "cannot encode the output as UTF-8: ")
    assert result.stdout == ""
    assert not out.exists()


def test_a_model_that_cannot_be_written_is_unusable_input(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "name": "m",
        "thimacs": [{"id": "t", "name": "t", "parent": None, "note": None}],
        "actions": [
            {"id": id_, "kind": "process", "owner": "t", "label": None,
             "anchor": None}
            for id_ in ("a/b", "t/a/b")
        ],
        "storages": [],
        "flows": [{"id": "f1", "from": "a/b", "to": "t/a/b"}],
        "triggers": [],
        "events": [],
        "chronology": None,
    }))
    result = invoke("simplify", path)
    assert_unusable(result, "cannot be written unambiguously")


@pytest.mark.parametrize("command", ["simulate", "report"])
def test_a_chronology_without_events_is_unusable_input(tmp_path, command):
    path = tmp_path / "empty.tm"
    path.write_text("model m { }\nchronology { }\n")
    result = invoke(command, path, "--scenario", scenario_arg("ordering_all_yes"))
    assert_unusable(result, "")
    assert result.stderr == "error: chronology has no initial event\n"


def test_deeply_nested_thimacs_check_clean(tmp_path):
    path = tmp_path / "deep.tm"
    path.write_text("model m {\n" + "thimac t {\n" * 500 + "}\n" * 500 + "}\n")
    result = invoke("check", path)
    assert result.exit_code == 0
    assert result.stdout == "0 errors, 0 warnings\n"


def nested_chain(depth):
    """``.tm`` text for thimacs t0 .. t(depth-1), each inside the last."""
    return (
        "model m {\n"
        + "".join(f"thimac t{i} {{ process p{i}\n" for i in range(depth))
        + "}\n" * depth
        + "}\n"
    )


def thimacs_json(parents):
    """A model document of bare thimacs, from ``(id, parent)`` pairs."""
    return json.dumps({
        "name": "m",
        "thimacs": [
            {"id": tid, "name": tid, "note": None, "parent": parent}
            for tid, parent in parents
        ],
        "actions": [], "storages": [], "flows": [], "triggers": [],
        "events": [], "chronology": None,
    })


def nested_chain_json(depth):
    return thimacs_json((f"t{i}", f"t{i - 1}" if i else None) for i in range(depth))


@pytest.mark.parametrize(
    "name, text, complaint",
    [
        (
            "deep.tm", nested_chain,
            f"error: line {MAX_DEPTH + 2}, col 8: expected at most {MAX_DEPTH} "
            f"nested thimacs, found thimac t{MAX_DEPTH} at depth {MAX_DEPTH + 1}\n",
        ),
        (
            "deep.json", nested_chain_json,
            f"error: thimac 't{MAX_DEPTH}' is nested {MAX_DEPTH + 1} deep, "
            f"over the limit of {MAX_DEPTH}\n",
        ),
    ],
    ids=["tm", "json"],
)
def test_nesting_past_max_depth_is_unusable_input(tmp_path, name, text, complaint):
    path = tmp_path / name
    path.write_text(text(MAX_DEPTH))
    assert invoke("check", path).exit_code == 0
    path.write_text(text(MAX_DEPTH + 1))
    result = invoke("check", path)
    assert_unusable(result, "")
    assert result.stderr == complaint


@pytest.mark.parametrize(
    "args", [["check"], ["export", "--format", "json"]], ids=["check", "export"]
)
def test_a_20000_deep_chain_is_refused_quickly(tmp_path, args):
    path = tmp_path / "deep.tm"
    path.write_text(nested_chain(20_000))
    start = time.perf_counter()
    result = invoke(*args, path)
    assert time.perf_counter() - start < 10
    assert_unusable(result, f"at depth {MAX_DEPTH + 1}")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "args",
    [
        ["check", fixture_path("atm.tm")],
        ["simulate", model_arg(), "--scenario", scenario_arg("ordering_all_yes")],
    ],
    ids=["check", "simulate"],
)
def test_a_full_stdout_is_unusable_input(args):
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            tmkit_command(*args), stdout=full, stderr=subprocess.PIPE,
            text=True, env=tmkit_env(), timeout=60,
        )
    assert result.returncode == 2
    assert result.stderr == "error: [Errno 28] No space left on device\n"


def test_a_closed_stdout_pipe_keeps_clicks_quiet_exit():
    process = subprocess.Popen(
        tmkit_command("check", fixture_path("atm.tm")),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=tmkit_env(),
    )
    process.stdout.close()  # before the child can write
    _, stderr = process.communicate(timeout=60)
    assert process.returncode == 1
    assert stderr == b""


@pytest.mark.parametrize(
    "args, what",
    [
        (["check", "{deep}"], "document"),
        (["import", "{deep}"], "flowchart"),
        (["conform", model_arg(), "{deep}"], "trace"),
    ],
)
def test_deeply_nested_json_is_not_valid_json(tmp_path, args, what):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    result = invoke(*[deep if a == "{deep}" else a for a in args])
    assert_unusable(result, f"error: {what} is not valid JSON: ")


def test_a_containment_cycle_is_not_written_as_an_empty_model(tmp_path):
    path = model_json(
        tmp_path, events=[], chronology=None, actions=[], storages=[],
        flows=[], triggers=[],
        thimacs=[
            {"id": "t", "name": "t", "parent": "u", "note": None},
            {"id": "u", "name": "u", "parent": "t", "note": None},
        ],
    )
    for args in (["simplify"], ["export", "--format", "dot"]):
        result = invoke(args[0], path, *args[1:])
        assert_unusable(result, "thimac 't' is in a containment cycle")
        assert result.stdout == ""


def test_check_reports_containment_cycles_and_missing_parents(tmp_path):
    path = tmp_path / "cycles.json"
    path.write_text(thimacs_json([
        ("w", "y"), ("x", "z"), ("y", "x"), ("z", "y"),  # w under a cycle
        ("a", "c"), ("b", "a"), ("c", "b"), ("d", "b"), ("g", "d"),
        ("e", "ghost"), ("f", None),
    ]))
    result = invoke("check", path)
    assert result.exit_code == 1
    assert result.stdout == (
        "error R5 w: containment cycle: y -> x -> z -> y\n"
        "error R5 a: containment cycle: a -> c -> b -> a\n"
        "error R5 d: containment cycle: b -> a -> c -> b\n"
        "error R5 g: containment cycle: b -> a -> c -> b\n"
        "error R6 e: parent thimac 'ghost' does not exist\n"
        "5 errors, 0 warnings\n"
    )


def test_a_100000_member_parent_cycle_is_refused_quickly(tmp_path):
    count = 100_000
    path = tmp_path / "ring.json"
    path.write_text(
        thimacs_json((f"t{i}", f"t{(i - 1) % count}") for i in range(count))
    )
    start = time.perf_counter()
    result = invoke("check", path)
    assert time.perf_counter() - start < 20
    assert_unusable(result, "")
    assert result.stderr == (
        f"error: thimac 't0' is nested {count} deep, over the limit of {MAX_DEPTH}\n"
    )


def test_a_duplicate_chronology_edge_is_unusable_input(tmp_path):
    data = json.loads(invoke("export", model_arg(), "--format", "json").stdout)
    data["chronology"]["edges"].append(data["chronology"]["edges"][0])
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data))
    result = invoke("check", path)
    assert_unusable(result, "duplicate chronology edge E1 -> E2")


@pytest.mark.parametrize(
    "trace, complaint",
    [
        ({"steps": ""}, "'steps' list"),
        ({"steps": {}}, "'steps' list"),
        ({"steps": [{"event": "E1", "index": True}]}, "index True is not"),
        ({"steps": [{"event": "E1", "index": 0.9}]}, "index 0.9 is not"),
        ({"steps": [{"event": ["E1"]}]}, "event ['E1'] is not a string"),
        ({"scenario": 5, "steps": []}, "scenario 5 is not a string"),
    ],
)
def test_conform_no_longer_coerces_trace_steps(tmp_path, trace, complaint):
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps(trace))
    result = invoke("conform", model_arg(), trace_file)
    assert_unusable(result, complaint)


LONG_INT = "9" * 4301  # one digit past what Python converts by default


@pytest.mark.parametrize(
    "command, name, text, complaint",
    [
        (
            ["check"],
            "in.tm",
            "model m { thimac t { create a } }\n"
            'events { event E1 "x" { t/a } event E2 "y" { t/a } }\n'
            f"chronology {{ E1 -> E2 max {LONG_INT} }}\n",
            "line 3, col 27: expected a shorter bound, found 4301 digits",
        ),
        (
            ["check"], "in.json", f"[{LONG_INT}]",
            "document holds an integer too long to read (over 4300 digits)",
        ),
        (
            ["import"], "in.json", f"[{LONG_INT}]",
            "flowchart holds an integer too long to read (over 4300 digits)",
        ),
        (
            ["conform", model_arg()],
            "in.json",
            f'{{"steps": [{{"event": "E1", "index": {LONG_INT}}}]}}',
            "trace holds an integer too long to read (over 4300 digits)",
        ),
    ],
    ids=["dsl-bound", "document", "flowchart", "trace"],
)
def test_integers_too_long_to_convert_are_unusable_input(
    tmp_path, command, name, text, complaint
):
    path = tmp_path / name
    path.write_text(text)
    assert_unusable(invoke(*command, path), complaint)


def test_simplify_writes_nothing_it_could_not_parse_back(tmp_path):
    data = json.loads(invoke("export", model_arg(), "--format", "json").stdout)
    data["actions"][0]["label"] = "two\nlines"
    path, out = tmp_path / "model.json", tmp_path / "out.tm"
    path.write_text(json.dumps(data))
    result = invoke("simplify", path, "-o", out)
    assert_unusable(result, "holds a line break")
    assert not out.exists()


def _rename_thimac(data, old, new):
    for thimac in data["thimacs"]:
        thimac["id"] = new if thimac["id"] == old else thimac["id"]
    for node in (*data["actions"], *data["storages"]):
        node["owner"] = new if node["owner"] == old else node["owner"]


def _set_anchor(data, action_id, anchor):
    for action in data["actions"]:
        if action["id"] == action_id:
            action["anchor"] = anchor


@pytest.mark.parametrize(
    "edit, complaint",
    [
        (lambda d: d.update(name="my model"), "'my model' as a bare model name"),
        (lambda d: d.update(name="thimac"), "'thimac' as a bare model name"),
        (
            lambda d: _set_anchor(d, "ordering/check_order", "a b"),
            "'a b' as a bare anchor",
        ),
        (lambda d: _rename_thimac(d, "stock", "t x"), "'t x' as a bare thimac name"),
    ],
    ids=["spaced-name", "keyword-name", "spaced-anchor", "spaced-thimac"],
)
def test_simplify_writes_no_bare_word_that_parse_refuses(tmp_path, edit, complaint):
    data = json.loads(invoke("export", model_arg(), "--format", "json").stdout)
    edit(data)
    path, out = tmp_path / "model.json", tmp_path / "out.tm"
    path.write_text(json.dumps(data))
    result = invoke("simplify", path, "-o", out)
    assert_unusable(result, complaint)
    assert not out.exists()


def _rename_model_node(data, old, new):
    for node in (*data["actions"], *data["storages"]):
        node["id"] = new if node["id"] == old else node["id"]
    for edge in (*data["flows"], *data["triggers"]):
        edge["from"] = new if edge["from"] == old else edge["from"]
        edge["to"] = new if edge["to"] == old else edge["to"]
    for event in data["events"]:
        event["region"] = [new if m == old else m for m in event["region"]]


def test_simplify_writes_no_reference_that_parse_refuses(tmp_path):
    # loaded from JSON, an id need not be a containment path
    data = json.loads(invoke("export", model_arg(), "--format", "json").stdout)
    _rename_model_node(data, "client/make_order", "client//make_order")
    path, out = tmp_path / "model.json", tmp_path / "out.tm"
    path.write_text(json.dumps(data))
    result = invoke("simplify", path, "-o", out)
    assert_unusable(
        result,
        "cannot write 'client//make_order' as a bare reference: parse refuses it",
    )
    assert not out.exists()


def _rename_lane(chart, old, new):
    chart["lanes"] = [new if lane == old else lane for lane in chart["lanes"]]
    for node in chart["nodes"]:
        node["lane"] = new if node["lane"] == old else node["lane"]


def _rename_node(chart, old, new):
    for node in chart["nodes"]:
        node["id"] = new if node["id"] == old else node["id"]
    for edge in chart["edges"]:
        edge["from"] = new if edge["from"] == old else edge["from"]
        edge["to"] = new if edge["to"] == old else edge["to"]


@pytest.mark.parametrize(
    "edit, complaint",
    [
        (lambda c: _rename_lane(c, "client", "event"), "'event' as a bare thimac name"),
        (lambda c: _rename_node(c, "handle_oos", "max"), "'max' as a bare action name"),
    ],
    ids=["keyword-lane", "keyword-node"],
)
def test_import_writes_no_keyword_as_a_name(tmp_path, edit, complaint):
    chart = json.loads(read_fixture("ordering_chart.json"))
    edit(chart)
    path, out = tmp_path / "chart.json", tmp_path / "out.tm"
    path.write_text(json.dumps(chart))
    assert_unusable(invoke("import", path, "-o", out), complaint)
    assert not out.exists()


# ---------------------------------------------------------------------------
# start-up: each command loads only the layers it runs

#: Runs the CLI on its arguments, then prints to stderr, as its last line,
#: the tmkit modules the run loaded, and ``json`` and ``dataclasses`` if it
#: loaded them.
LOADED_PROBE = """\
import sys
from tmkit.cli import main
try:
    main(sys.argv[1:])
finally:
    loaded = (
        m for m in sys.modules
        if m.startswith("tmkit") or m in ("json", "dataclasses")
    )
    print(*sorted(loaded), file=sys.stderr)
"""

STARTUP = ["tmkit", "tmkit.cli", "tmkit.errors"]
TM_LAYERS = ["tmkit.dsl", "tmkit.dynamics", "tmkit.model"]
JSON_LAYERS = ["json", "tmkit.convert", "tmkit.dynamics", "tmkit.model"]


def modules_loaded_by(*args):
    result = subprocess.run(
        [sys.executable, "-c", LOADED_PROBE, *map(str, args)],
        capture_output=True, text=True, env=tmkit_env(),
    )
    assert result.returncode in (0, 1), result.stderr
    return result.stderr.splitlines()[-1].split()


# No command loads ``dataclasses``.  Reading a ``.tm`` file loads no
# writer; the report and the chronology's DOT load no ``convert``, and
# neither does the model's DOT.  Only ``simulate``, ``conform`` and a
# ``report`` with a walk load ``walk``; only ``check``, ``report`` and
# ``simplify`` load ``rules``; only ``import`` loads ``flowchart``.  A
# command that reads no ``.tm`` file loads no ``dsl``, even where it writes
# model text (``import``, ``simplify`` on a ``.json`` file).
@pytest.mark.parametrize(
    "args, layers",
    [
        (["--version"], []),
        (["prove", fixture_path("carroll.arg")], ["tmkit.logic"]),
        (["validate-arg", fixture_path("carroll.arg")], ["tmkit.logic"]),
        (["check", fixture_path("atm.tm")], TM_LAYERS + ["tmkit.rules"]),
        (["check", "{json}"], JSON_LAYERS + ["tmkit.rules"]),
        (["events", fixture_path("atm.tm")], TM_LAYERS),
        (["events", "{json}", "--coverage"], JSON_LAYERS),
        (
            ["simplify", fixture_path("atm.tm")],
            TM_LAYERS + ["tmkit.rules", "tmkit.writer"],
        ),
        (["simplify", "{json}"], JSON_LAYERS + ["tmkit.rules", "tmkit.writer"]),
        (["report", fixture_path("atm.tm")], TM_LAYERS + ["tmkit.report", "tmkit.rules"]),
        (
            ["report", fixture_path("atm.tm"), "--scenario", scenario_arg("atm_happy")],
            TM_LAYERS + ["tmkit.report", "tmkit.rules", "tmkit.walk"],
        ),
        (["export", "--format", "dot", fixture_path("atm.tm")], TM_LAYERS + ["tmkit.writer"]),
        (["export", "--format", "json", "{json}"], JSON_LAYERS),
        (
            ["export", "--format", "dot", "--part", "chronology", fixture_path("ordering.tm")],
            TM_LAYERS + ["tmkit.report"],
        ),
        (
            ["simulate", fixture_path("atm.tm"), "--scenario", scenario_arg("atm_happy")],
            TM_LAYERS + ["json", "tmkit.walk"],
        ),
        (["conform", fixture_path("atm.tm"), "{trace}"], TM_LAYERS + ["json", "tmkit.walk"]),
        (
            ["import", fixture_path("ordering_chart.json")],
            JSON_LAYERS + ["tmkit.flowchart", "tmkit.writer"],
        ),
    ],
)
def test_a_command_loads_only_the_layers_it_runs(args, layers, tmp_path):
    if "{trace}" in args:
        trace = tmp_path / "trace.json"
        scenario = scenario_arg("atm_happy")
        trace.write_text(invoke("simulate", args[1], "--scenario", scenario).stdout)
        args = [trace if arg == "{trace}" else arg for arg in args]
    if "{json}" in args:
        model = tmp_path / "atm.json"
        model.write_text(invoke("export", fixture_path("atm.tm"), "--format", "json").stdout)
        args = [model if arg == "{json}" else arg for arg in args]
    assert modules_loaded_by(*args) == sorted(STARTUP + layers)


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_command_keeps_its_docstring_as_help(command):
    cmd = main.commands[command]
    assert cmd.help
    assert cmd.help == cmd.callback.__doc__


# ---------------------------------------------------------------------------
# fuzz: whatever bytes come in, exit 0, 1 or 2 and no traceback

_FUZZ_COMMANDS = [
    ["check", "{tm}"],
    ["check", "{json}"],
    ["simplify", "{json}", "-o", "{out}"],
    ["events", "{tm}"],
    ["events", "{json}", "--coverage"],
    ["simulate", "{json}", "--scenario", "{scenario}"],
    ["conform", "{tm}", "{trace}"],
    ["prove", "{arg}"],
    ["validate-arg", "{arg}"],
    ["import", "{chart}"],
    ["export", "{json}", "--format", "json"],
    ["export", "{tm}", "--format", "dot"],
    ["export", "{json}", "--format", "dot", "--part", "chronology"],
    ["report", "{tm}", "--scenario", "{scenario}"],
]


@pytest.fixture(scope="module")
def fuzz_inputs():
    """Each input role's canonical text."""
    ordering = read_fixture("ordering.tm")
    scenario = scenario_arg("ordering_all_yes")
    return {
        "tm": ordering,
        "json": invoke("export", model_arg(), "--format", "json").stdout,
        "scenario": scenario.read_text(),
        "trace": invoke("simulate", model_arg(), "--scenario", scenario).stdout,
        "arg": read_fixture("carroll.arg"),
        "chart": read_fixture("ordering_chart.json"),
    }


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def fuzzed(draw, canonical):
    """Arbitrary bytes, arbitrary text, or the canonical text with a few
    random edits: JSON edits on a decoded copy (which may put arbitrary
    JSON values in), splices on plain text (sometimes a run of digits too
    long for ``int()``)."""
    kind = draw(st.sampled_from(["bytes", "text", "edited"]))
    if kind == "bytes":
        return draw(st.binary(max_size=80))
    if kind == "text":
        return draw(st.text(max_size=60)).encode("utf-8", "surrogatepass")
    rng = draw(st.randoms(use_true_random=False))
    try:
        data = json.loads(canonical)
    except ValueError:
        text = canonical
        for _ in range(rng.randint(1, 3)):
            start = rng.randrange(len(text) + 1)
            end = min(len(text), start + rng.randint(0, 12))
            insert = LONG_INT if rng.random() < 0.1 else draw(st.text(max_size=6))
            text = text[:start] + insert + text[end:]
        return text.encode("utf-8", "surrogatepass")
    values = draw(st.lists(json_values, min_size=1, max_size=3))
    for _ in range(rng.randint(1, 3)):
        data = mutate(rng, data, values)
    return json.dumps(data).encode()


@given(
    command=st.sampled_from(_FUZZ_COMMANDS),
    pick=st.integers(min_value=0),
    data=st.data(),
)
@settings(max_examples=400, deadline=None)
def test_fuzzed_inputs_never_crash_the_cli(
    tmp_path_factory, fuzz_inputs, command, pick, data
):
    work = tmp_path_factory.mktemp("fuzz")
    roles = [a[1:-1] for a in command if a.startswith("{") and a != "{out}"]
    target = roles[pick % len(roles)]
    args = []
    for arg in command:
        if not arg.startswith("{"):
            args.append(arg)
            continue
        role = arg[1:-1]
        path = work / f"{role}.{role if role in ('tm', 'json') else 'in'}"
        if role == "out":
            path = work / "out"
        elif role == target:
            path.write_bytes(data.draw(fuzzed(fuzz_inputs[role]), label=role))
        else:
            path.write_text(fuzz_inputs[role])
        args.append(path)
    result = invoke(*args)
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        result.exception
    )


# ---------------------------------------------------------------------------
# records in messages

#: A record's repr, as ``!r`` or ``repr()`` would put it in a message.
RECORD_REPR = re.compile(
    r"\b(?:Thimac|Action|Storage|Flow|Trigger|Diagnostic|Event|ChronEdge"
    r"|Scenario|Trace|Violation|ConformanceResult|SourceSpan|FlowNode"
    r"|FlowEdge|FlowchartDoc|Literal|Origin|Implication)\("
)


def test_no_output_or_message_shows_a_record_repr(tmp_path, broken_model):
    from test_acceptance import criterion_8_commands

    files = {
        "vacuous.arg": "a -> b\n|- a -> b\n~b -> ~b\n",
        "unprovable.arg": "a -> b\n|- b -> a\n",
        "chart.json": '{"name": "x"}',
        "stray.json": '{"steps": [{"event": "E99"}]}',
        "dry.scenario": "",
        "bad.tm": "model m { thimac t { create a a -> ghost } }",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    ordering = fixture_path("ordering.tm")
    failing = [
        ["check", broken_model],
        ["check", tmp_path / "bad.tm"],
        ["prove", tmp_path / "vacuous.arg"],
        ["prove", tmp_path / "unprovable.arg"],
        ["validate-arg", tmp_path / "unprovable.arg"],
        ["import", tmp_path / "chart.json"],
        ["conform", ordering, tmp_path / "stray.json"],
        ["simulate", ordering, "--scenario", tmp_path / "dry.scenario"],
    ]
    for args in criterion_8_commands(tmp_path) + failing:
        result = invoke(*args)
        assert not RECORD_REPR.search(result.stdout + result.stderr), args
        assert result.exit_code != 0 or args not in failing, args
