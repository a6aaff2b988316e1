"""Flowchart import, DOT and JSON output, and plain-text reports."""
import json
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit import (
    ChronEdge,
    ConvertError,
    Document,
    ModelBuilder,
    Scenario,
    build_chronology,
    chronology_to_dot,
    define_event,
    from_json,
    generate_report,
    import_flowchart,
    load_flowchart,
    structurally_equal_documents,
    to_dot,
    to_json,
    validate,
)

from generators import random_document

seeds = st.integers(min_value=0, max_value=10_000)


def chart_text(nodes, edges, lanes=("a", "b")):
    def edge_obj(edge):
        obj = {"from": edge[0], "to": edge[1]}
        if len(edge) > 2:
            obj["guard"] = edge[2]
        return obj

    return json.dumps(
        {
            "name": "chart",
            "lanes": list(lanes),
            "nodes": [
                {"id": n[0], "lane": n[1], "kind": n[2]} for n in nodes
            ],
            "edges": [edge_obj(e) for e in edges],
        }
    )


def imported(nodes, edges, lanes=("a", "b")):
    return import_flowchart(load_flowchart(chart_text(nodes, edges, lanes)))


# ---------------------------------------------------------------------------
# loading charts


def test_the_shipped_chart_loads(ordering_chart):
    assert ordering_chart.name == "ordering_chart"
    assert len(ordering_chart.lanes) == 5
    assert len(ordering_chart.nodes) == 12
    assert len(ordering_chart.edges) == 14


def test_load_rejects_non_json():
    with pytest.raises(ConvertError, match="flowchart is not valid JSON"):
        load_flowchart("{nope")


def test_schema_errors_point_at_the_offending_element():
    text = json.dumps(
        {"name": "c", "lanes": ["a"], "nodes": [{"id": "x", "lane": "a"}],
         "edges": []}
    )
    with pytest.raises(ConvertError, match=r"\$\.nodes\[0\]"):
        load_flowchart(text)


def test_load_rejects_inconsistent_charts():
    with pytest.raises(ConvertError, match="declares a lane twice"):
        load_flowchart(chart_text([], [], lanes=("a", "a")))
    with pytest.raises(ConvertError, match="duplicate node id"):
        load_flowchart(chart_text([("x", "a", "start"), ("x", "a", "end")], []))
    with pytest.raises(ConvertError, match="unknown lane"):
        load_flowchart(chart_text([("x", "c", "start")], []))
    with pytest.raises(ConvertError, match="edge references unknown node"):
        load_flowchart(chart_text([("x", "a", "start")], [("x", "y")]))
    with pytest.raises(ConvertError, match="self-edge"):
        load_flowchart(chart_text([("x", "a", "activity")], [("x", "x")]))
    with pytest.raises(ConvertError, match="duplicate edge x -> y"):
        load_flowchart(
            chart_text(
                [("x", "a", "start"), ("y", "a", "activity")],
                [("x", "y"), ("x", "y")],
            )
        )


@pytest.mark.parametrize(
    "nodes,edges,complaint",
    [
        pytest.param(
            [("s", "a", "start"), ("x", "a", "activity")],
            [("x", "s")],
            "edge into start node",
            id="into-start",
        ),
        pytest.param(
            [("e", "a", "end"), ("x", "a", "activity")],
            [("e", "x")],
            "edge out of end node",
            id="out-of-end",
        ),
        pytest.param(
            [("d", "a", "decision"), ("x", "a", "activity")],
            [("d", "x")],
            "unguarded branch",
            id="unguarded-decision",
        ),
        pytest.param(
            [("x", "a", "activity"), ("y", "a", "activity")],
            [("x", "y", "g")],
            "only decisions branch",
            id="guard-on-activity",
        ),
        pytest.param(
            [("x", "a", "activity"), ("y", "a", "activity"),
             ("z", "a", "activity")],
            [("x", "y"), ("x", "z")],
            "implicit split",
            id="implicit-split",
        ),
        pytest.param(
            [("m", "a", "message-send"), ("x", "a", "activity")],
            [("m", "x")],
            "sends within its own lane",
            id="send-to-own-lane",
        ),
        pytest.param(
            [("m", "a", "message-send"), ("y", "b", "activity")],
            [("y", "m")],
            "the sender is unidentifiable",
            id="cross-lane-into-send",
        ),
        pytest.param(
            [("r", "a", "message-receive"), ("x", "a", "activity")],
            [("x", "r")],
            "receives from its own lane",
            id="receive-from-own-lane",
        ),
        pytest.param(
            [("r", "a", "message-receive"), ("y", "b", "activity")],
            [("r", "y")],
            "the receiver is unidentifiable",
            id="cross-lane-out-of-receive",
        ),
    ],
)
def test_unmappable_charts_are_refused(nodes, edges, complaint):
    with pytest.raises(ConvertError, match=complaint):
        imported(nodes, edges)


# ---------------------------------------------------------------------------
# the mapping


def test_each_node_kind_maps_to_its_machinery():
    model, notes = imported(
        [
            ("go", "a", "start"),
            ("work", "a", "activity"),
            ("send", "a", "message-send"),
            ("get", "b", "message-receive"),
            ("fin", "b", "activity"),
            ("stop", "b", "end"),
        ],
        [
            ("go", "work"),
            ("work", "send"),
            ("send", "get"),
            ("get", "fin"),
            ("fin", "stop"),
        ],
    )
    kinds = {a.id: a.kind for a in model.actions}
    assert kinds == {
        "a/go": "create",
        "a/work": "process",
        "a/send": "release",
        "a/send_out": "transfer",
        "b/get_in": "transfer",
        "b/get": "receive",
        "b/fin": "process",
    }
    assert {(f.src, f.dst) for f in model.flows} == {
        ("a/send", "a/send_out"),
        ("b/get_in", "b/get"),
        ("a/go", "a/work"),
        ("a/work", "a/send"),
        ("a/send_out", "b/get_in"),
        ("b/get", "b/fin"),
    }
    assert not model.triggers
    assert notes == (
        "end node 'stop' dropped; a run simply stops there",
        "edge fin -> stop dropped with its end node",
    )
    assert validate(model) == ()


def test_same_lane_illegal_hop_is_bridged():
    model, _ = imported(
        [("s", "a", "start"), ("x", "a", "activity"), ("y", "a", "activity")],
        [("s", "x"), ("x", "y")],
    )
    assert {(f.src, f.dst) for f in model.flows} == {
        ("a/s", "a/x"),
        ("a/x", "a/x_to_y_rel"),
        ("a/x_to_y_rel", "a/x_to_y_tr"),
        ("a/x_to_y_tr", "a/x_to_y_rcv"),
        ("a/x_to_y_rcv", "a/y"),
    }
    assert validate(model) == ()


def test_cross_lane_hop_builds_both_sides():
    model, _ = imported(
        [("s", "a", "start"), ("x", "a", "activity"), ("y", "b", "activity")],
        [("s", "x"), ("x", "y")],
    )
    assert {(f.src, f.dst) for f in model.flows} == {
        ("a/s", "a/x"),
        ("a/x", "a/x_to_y_rel"),
        ("a/x_to_y_rel", "a/x_to_y_out"),
        ("a/x_to_y_out", "b/x_to_y_in"),
        ("b/x_to_y_in", "b/x_to_y_rcv"),
        ("b/x_to_y_rcv", "b/y"),
    }
    assert validate(model) == ()


def test_guarded_branches_become_triggers_at_the_chain_head():
    model, _ = imported(
        [
            ("s", "a", "start"),
            ("d", "a", "decision"),
            ("x", "a", "activity"),
            ("y", "b", "activity"),
        ],
        [("s", "d"), ("d", "x", "yes"), ("d", "y", "no")],
    )
    triggers = {(t.src, t.dst): t.condition for t in model.triggers}
    assert triggers == {
        ("a/d", "a/d_to_x_rel"): "yes",
        ("a/d", "a/d_to_y_rel"): "no",
    }
    assert validate(model) == ()


def test_dropped_guard_is_called_out():
    _, notes = imported(
        [("s", "a", "start"), ("d", "a", "decision"), ("e", "a", "end"),
         ("x", "a", "activity")],
        [("s", "d"), ("d", "e", "give up"), ("d", "x", "carry on")],
    )
    assert "edge d -> e dropped with its end node (guard 'give up' lost)" in notes


def test_the_shipped_chart_imports_clean(ordering_chart):
    model, notes = import_flowchart(ordering_chart)
    assert validate(model) == ()
    assert notes == (
        "end node 'done' dropped; a run simply stops there",
        "edge receive_goods -> done dropped with its end node",
    )


# ---------------------------------------------------------------------------
# DOT


def dot_doc():
    builder = ModelBuilder("demo")
    builder.add_thimac('say "hi"', id="t")
    builder.add_thimac("inner", parent="t", id="t/u")
    builder.add_action("create", "t", id="t/a")
    builder.add_action("process", "t/u", id="t/u/b")
    builder.add_storage("t", "box", id="t/box")
    builder.add_flow("t/a", "t/box")
    builder.add_flow("t/a", "t/u/b")
    builder.add_trigger("t/u/b", "t/a", condition="again")
    return builder.build()


def test_to_dot_draws_every_element_once():
    model = dot_doc()
    text = to_dot(model)
    lines = text.splitlines()
    assert lines[0] == 'digraph "demo" {'
    assert lines[1] == "  rankdir=LR;"
    assert lines[-1] == "}"
    assert text.count("subgraph") == len(model.thimacs)
    assert text.count("shape=box") == len(model.actions)
    assert text.count("shape=cylinder") == len(model.storages)
    assert text.count(" -> ") == len(model.flows) + len(model.triggers)
    assert text.count("{") == text.count("}")


def test_to_dot_escapes_and_styles():
    text = to_dot(dot_doc())
    assert 'label="say \\"hi\\"";' in text
    assert '"t/u/b" [shape=box, label="process: b"];' in text
    assert '"t/box" [shape=cylinder, label="box"];' in text
    assert '"t/u/b" -> "t/a" [style=dashed, label="again"];' in text
    assert 'subgraph "cluster_t/u" {' in text


def test_chronology_to_dot():
    builder = ModelBuilder("m")
    builder.add_thimac("t", id="t")
    builder.add_action("create", "t", id="t/a")
    model = builder.build()
    events = [
        define_event(model, "E1", "step 1", ["t/a"]),
        define_event(model, "E2", "step 2", ["t/a"]),
    ]
    graph = build_chronology(
        events, [ChronEdge("E1", "E2", "go")], {("E1", "E2"): 2}
    )
    text = chronology_to_dot(graph)
    assert '"E1" [shape=box, label="E1\\nstep 1"];' in text
    assert '"E1" -> "E2" [label="go; max 2"];' in text


def test_chronology_to_dot_escapes_event_ids():
    quoted, slashed = 'say "hi"', "back\\slash"
    text = json.dumps({
        "name": "m",
        "thimacs": [{"id": "t", "name": "t", "parent": None, "note": None}],
        "actions": [{"id": "t/a", "kind": "create", "owner": "t",
                     "label": None, "anchor": None}],
        "storages": [], "flows": [], "triggers": [],
        "events": [{"id": quoted, "label": "one", "region": ["t/a"]},
                   {"id": slashed, "label": "two", "region": ["t/a"]}],
        "chronology": {"edges": [{"from": quoted, "to": slashed,
                                  "guard": None, "max": None}]},
    })
    lines = chronology_to_dot(from_json(text).chronology).splitlines()
    assert lines[2:5] == [
        '  "say \\"hi\\"" [shape=box, label="say \\"hi\\"\\none"];',
        '  "back\\\\slash" [shape=box, label="back\\\\slash\\ntwo"];',
        '  "say \\"hi\\"" -> "back\\\\slash";',
    ]


# ---------------------------------------------------------------------------
# JSON


def test_to_json_is_canonical(ordering_doc):
    data = json.loads(to_json(ordering_doc))
    assert list(data) == [
        "name", "thimacs", "actions", "storages", "flows", "triggers",
        "events", "chronology",
    ]
    assert all(list(f) == ["id", "from", "to"] for f in data["flows"])
    for event in data["events"]:
        assert event["region"] == sorted(event["region"])
    for edge in data["chronology"]["edges"]:
        assert list(edge) == ["from", "to", "guard", "max"]


def test_json_round_trips_the_shipped_documents(atm_doc, ordering_doc):
    for doc in (atm_doc, ordering_doc):
        again = from_json(to_json(doc))
        assert structurally_equal_documents(doc, again)
        assert to_json(again) == to_json(doc)


def test_a_bare_model_serializes_as_a_document():
    model = dot_doc()
    data = json.loads(to_json(model))
    assert data["events"] == []
    assert data["chronology"] is None
    assert from_json(to_json(model)).chronology is None


def mutated_json(doc, mutate):
    data = json.loads(to_json(doc))
    mutate(data)
    return json.dumps(data)


def test_from_json_is_permissive_about_model_problems(ordering_doc):
    text = mutated_json(
        ordering_doc,
        lambda d: d["flows"].append(
            {"id": "f999", "from": "client/submit", "to": "client/ghost"}
        ),
    )
    doc = from_json(text)
    assert any("ghost" in d.message for d in validate(doc.model))


def test_from_json_still_refuses_duplicate_ids(ordering_doc):
    text = mutated_json(
        ordering_doc, lambda d: d["thimacs"].append(dict(d["thimacs"][0]))
    )
    with pytest.raises(ConvertError, match="duplicate id"):
        from_json(text)


def test_from_json_rejects_garbage():
    with pytest.raises(ConvertError, match="document is not valid JSON"):
        from_json("{nope")
    with pytest.raises(ConvertError, match="'thimacs' is a required property"):
        from_json('{"name": "m"}')


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_json_round_trips_generated_documents(seed):
    doc = random_document(Random(seed))
    again = from_json(to_json(doc))
    assert structurally_equal_documents(doc, again)
    assert to_json(again) == to_json(doc)


# ---------------------------------------------------------------------------
# reports


def report_doc():
    builder = ModelBuilder("m")
    builder.add_thimac("t", id="t")
    builder.add_action("create", "t", id="t/a")
    model = builder.build()
    events = (
        define_event(model, "E1", "kick off", ["t/a"]),
        define_event(model, "E2", "wrap up", ["t/a"]),
    )
    graph = build_chronology(events, [ChronEdge("E1", "E2")])
    return Document(model, events, graph)


def test_generate_report():
    text = generate_report(report_doc(), [Scenario("go")])
    assert text == (
        "report on m\n"
        "===========\n"
        "\n"
        "thimacs\n"
        "-------\n"
        "- t: 1 actions, 0 storages\n"
        "\n"
        "validation\n"
        "----------\n"
        "0 errors, 0 warnings\n"
        "\n"
        "events\n"
        "------\n"
        "- E1: kick off (region: 1 actions)\n"
        "- E2: wrap up (region: 1 actions)\n"
        "\n"
        "walk: go\n"
        "--------\n"
        "1. E1: kick off\n"
        "2. E2: wrap up\n"
    )


def test_report_lists_validation_findings():
    builder = ModelBuilder("shaky")
    builder.add_thimac("t", id="t")
    builder.add_action("receive", "t", id="t/r")
    text = generate_report(Document(builder.build()))
    assert "0 errors, 1 warnings" in text
    assert "- warning R3 t/r: " in text


def test_report_needs_a_chronology_to_walk():
    doc = Document(report_doc().model)
    with pytest.raises(ConvertError, match="no chronology to walk"):
        generate_report(doc, [Scenario("go")])
