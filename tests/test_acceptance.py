"""Acceptance checks for the shipped corpus, one criterion per test.

Each test prints a single ``criterion N: PASS`` line once its assertions
hold (run with ``-s`` to see them); a failing test is the FAIL line.
"""
import subprocess
import time
from random import Random

import networkx as nx
from click.testing import CliRunner

from tmkit import (
    conformance,
    derive,
    format_document,
    format_proof,
    from_json,
    import_flowchart,
    parse,
    simplify,
    simulate,
    structurally_equal_documents,
    to_json,
    truth_table_validate,
    validate,
)
from tmkit.cli import main
from tmkit.dynamics import Document
from tmkit.model import TRANSPORT_KINDS

from conftest import (
    fixture_path,
    load_scenario,
    read_fixture,
    tmkit_command,
    tmkit_env,
)
from generators import random_argument, random_document
from test_logic import validate_by_enumeration


def test_criterion_1_carroll_argument(carroll):
    started = time.perf_counter()
    path = derive(carroll)
    valid, countermodel, checked = truth_table_validate(carroll)
    elapsed = time.perf_counter() - started

    assert format_proof(path) == (
        "x -> y [premise 6]\n"
        "y -> ~s [premise 9]\n"
        "~s -> ~r [premise 2]\n"
        "~r -> w [contrapositive of 5]\n"
        "w -> v [contrapositive of 8]\n"
        "v -> p [premise 4]\n"
        "p -> q [premise 1]\n"
        "q -> t [premise 7]\n"
        "t -> ~u [contrapositive of 3]\n"
    )
    assert (valid, countermodel, checked) == (True, None, 1024)
    assert elapsed < 1.0
    print(
        f"criterion 1: PASS — 9-step chain derived and confirmed over "
        f"1024 assignments in {elapsed:.3f}s"
    )


def test_criterion_2_derivation_soundness():
    derivable = 0
    for seed in range(1000):
        argument = random_argument(Random(seed))
        verdict = truth_table_validate(argument)
        assert validate_by_enumeration(argument) == verdict, f"seed {seed}"
        path = derive(argument)
        if path is None:
            continue
        derivable += 1
        valid, countermodel, _ = verdict
        assert valid, (
            f"seed {seed}: derived a chain but the truth table found "
            f"{countermodel}"
        )
    assert derivable > 0
    print(
        f"criterion 2: PASS — {derivable}/1000 arguments derivable, "
        f"zero unsound derivations, 1000/1000 verdicts matching "
        f"enumeration"
    )


def test_criterion_3_atm_fixture(atm_doc):
    assert not any(d.severity == "error" for d in validate(atm_doc.model))
    assert [e.id for e in atm_doc.events] == [f"E{i}" for i in range(1, 33)]

    happy = simulate(atm_doc.chronology, load_scenario("atm_happy"))
    ids = happy.event_ids
    assert ids[0] == "E1"
    assert "E31" in ids
    assert ids[-1] == "E2"
    assert conformance(happy, atm_doc.chronology).ok

    wrong = simulate(atm_doc.chronology, load_scenario("atm_wrong_password"))
    retries = sum(
        1
        for a, b in zip(wrong.event_ids, wrong.event_ids[1:])
        if (a, b) == ("E18", "E13")
    )
    assert retries == 3
    assert wrong.event_ids[-1] == "E17"
    assert conformance(wrong, atm_doc.chronology).ok
    print(
        "criterion 3: PASS — 32 events, zero errors, happy path "
        "E1..E31..E2, three retries then E17"
    )


def test_criterion_4_ordering_fixture(ordering_doc):
    assert [e.id for e in ordering_doc.events] == [
        f"E{i}" for i in range(1, 17)
    ]
    expected = {
        "ordering_all_yes": (
            "E1", "E2", "E4", "E5", "E8", "E9", "E10", "E11", "E12",
            "E13", "E15", "E16",
        ),
        "ordering_invalid": ("E1", "E2", "E3"),
        "ordering_out_of_stock": ("E1", "E2", "E4", "E5", "E6", "E7"),
        "ordering_payment_fail": (
            "E1", "E2", "E4", "E5", "E8", "E9", "E10", "E11", "E12",
            "E13", "E14",
        ),
    }
    for name, event_ids in expected.items():
        trace = simulate(ordering_doc.chronology, load_scenario(name))
        assert trace.event_ids == event_ids, name
        assert conformance(trace, ordering_doc.chronology).ok, name
    print(
        "criterion 4: PASS — 16 events, all-yes ends at E16, invalid "
        "ends at E3, all traces conform"
    )


def _closure(nodes, edges):
    reachable = {}
    adjacency = {}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
    for start in nodes:
        seen = set()
        queue = list(adjacency.get(start, ()))
        while queue:
            current = queue.pop()
            if current in seen:
                continue
            seen.add(current)
            queue.extend(adjacency.get(current, ()))
        reachable[start] = seen
    return reachable


def test_criterion_5_simplify_ordering(ordering_doc):
    model = ordering_doc.model
    reduced = simplify(model)

    assert not any(a.kind in TRANSPORT_KINDS for a in reduced.actions)
    transports = sum(1 for a in model.actions if a.kind in TRANSPORT_KINDS)
    assert len(reduced.actions) == len(model.actions) - transports

    survivors = {a.id for a in reduced.actions} | {s.id for s in reduced.storages}
    before = _closure(survivors, [(f.src, f.dst) for f in model.flows])
    after = _closure(survivors, [(f.src, f.dst) for f in reduced.flows])
    for a in survivors:
        for b in survivors:
            if a != b:
                assert (b in before[a] & survivors) == (b in after[a]), (a, b)

    again = simplify(reduced)
    assert structurally_equal_documents(Document(again), Document(reduced))
    print(
        f"criterion 5: PASS — {transports} transports removed, "
        f"{len(reduced.actions)} actions survive, reachability intact, "
        f"idempotent"
    )


def _flow_graph(model):
    names = {t.id: t.name for t in model.thimacs}
    graph = nx.DiGraph()
    for action in model.actions:
        graph.add_node(action.id, kind=action.kind, owner=names[action.owner])
    for storage in model.storages:
        graph.add_node(storage.id, kind="storage", owner=names[storage.owner])
    for flow in model.flows:
        graph.add_edge(flow.src, flow.dst)
    return graph


def test_criterion_6_importer_equivalence(ordering_chart, ordering_doc):
    imported_model, _ = import_flowchart(ordering_chart)
    assert not any(d.severity == "error" for d in validate(imported_model))

    from_chart = simplify(imported_model)
    by_hand = simplify(ordering_doc.model)
    matcher = nx.algorithms.isomorphism.DiGraphMatcher(
        _flow_graph(from_chart),
        _flow_graph(by_hand),
        node_match=lambda a, b: a["kind"] == b["kind"] and a["owner"] == b["owner"],
    )
    assert matcher.is_isomorphic()

    mapping = matcher.mapping
    chart_triggers = {
        (mapping[t.src], mapping[t.dst]): t.condition
        for t in from_chart.triggers
    }
    hand_triggers = {(t.src, t.dst): t.condition for t in by_hand.triggers}
    assert chart_triggers == hand_triggers
    print(
        f"criterion 6: PASS — simplified import is isomorphic to the "
        f"simplified hand-built model ({len(mapping)} nodes matched)"
    )


def test_criterion_7_round_trips():
    checked = 0
    for name in ("atm.tm", "ordering.tm"):
        doc = parse(read_fixture(name))
        canonical = format_document(doc)
        assert format_document(parse(canonical)) == canonical
        assert structurally_equal_documents(parse(format_document(doc)), doc)
        assert structurally_equal_documents(from_json(to_json(doc)), doc)
        assert to_json(from_json(to_json(doc))) == to_json(doc)
        checked += 1
    for seed in range(500):
        doc = random_document(Random(seed))
        assert structurally_equal_documents(parse(format_document(doc)), doc)
        assert format_document(parse(format_document(doc))) == format_document(doc)
        assert structurally_equal_documents(from_json(to_json(doc)), doc)
        assert to_json(from_json(to_json(doc))) == to_json(doc)
        checked += 1
    print(f"criterion 7: PASS — {checked} documents round-tripped losslessly")


def criterion_8_commands(tmp_path):
    """The command lines criterion 8 reruns, after writing the trace that
    ``conform`` reads into ``tmp_path``."""
    trace_file = tmp_path / "trace.json"
    CliRunner().invoke(
        main,
        [
            "simulate", str(fixture_path("ordering.tm")),
            "--scenario", str(fixture_path("scenarios/ordering_all_yes.scenario")),
            "-o", str(trace_file),
        ],
    )

    atm = str(fixture_path("atm.tm"))
    ordering = str(fixture_path("ordering.tm"))
    return [
        ["check", atm],
        ["check", ordering],
        ["simplify", ordering],
        ["events", atm],
        ["events", ordering, "--coverage"],
        ["simulate", ordering, "--scenario",
         str(fixture_path("scenarios/ordering_all_yes.scenario"))],
        ["simulate", atm, "--scenario",
         str(fixture_path("scenarios/atm_wrong_password.scenario"))],
        ["conform", ordering, str(trace_file)],
        ["prove", str(fixture_path("carroll.arg"))],
        ["validate-arg", str(fixture_path("carroll.arg"))],
        ["validate-arg", str(fixture_path("converse.arg"))],
        ["import", str(fixture_path("ordering_chart.json"))],
        ["export", ordering, "--format", "json"],
        ["export", atm, "--format", "dot"],
        ["export", ordering, "--format", "dot", "--part", "chronology"],
        ["report", ordering, "--scenario",
         str(fixture_path("scenarios/ordering_payment_fail.scenario"))],
    ]


def test_criterion_8_byte_identical_runs(tmp_path):
    runner = CliRunner()
    commands = criterion_8_commands(tmp_path)
    for args in commands:
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.stdout_bytes == second.stdout_bytes, args
        assert first.stderr_bytes == second.stderr_bytes, args
        assert first.exit_code == second.exit_code, args
    print(
        f"criterion 8: PASS — {len(commands)} command lines reran "
        f"byte-identically"
    )


def test_criterion_8_holds_across_hash_seeds(tmp_path):
    # Reruns in one process share its string hash seed, so set and dict
    # orders that follow the hash only show up across interpreters.
    commands = criterion_8_commands(tmp_path)
    for args in commands:
        first, second = (
            subprocess.run(
                tmkit_command(*args), capture_output=True,
                env=tmkit_env(PYTHONHASHSEED=seed), timeout=60,
            )
            for seed in ("1", "2")
        )
        assert first.stdout == second.stdout, args
        assert first.stderr == second.stderr, args
        assert first.returncode == second.returncode, args
    print(
        f"criterion 8: PASS — {len(commands)} command lines gave the same "
        f"bytes under hash seeds 1 and 2"
    )
