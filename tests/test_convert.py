"""Flowchart import, DOT and JSON output, and plain-text reports."""
import ast
import json
import re
import subprocess
import sys
from collections import Counter
from functools import reduce
from operator import getitem, itemgetter
from pathlib import Path
from random import Random

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit import (
    ChronEdge,
    ConvertError,
    Document,
    DynamicsError,
    ModelBuilder,
    Scenario,
    TmkitError,
    build_chronology,
    chronology_to_dot,
    define_event,
    format_document,
    from_json,
    generate_report,
    import_flowchart,
    load_flowchart,
    parse,
    structurally_equal_documents,
    to_dot,
    to_json,
    validate,
)
from tmkit import convert, flowchart
from tmkit.convert import MODEL_SCHEMA
from tmkit.flowchart import (
    FLOW_NODE_KINDS, FLOWCHART_SCHEMA, FlowchartDoc, FlowEdge, FlowNode,
)
from tmkit.errors import decode_json
from tmkit.model import (
    LEGAL_FLOW_PAIRS, Action, Flow, StaticModel, Storage, Thimac, Trigger, check_depth,
)

from conftest import ODD_NAMES, read_fixture
from generators import ODD_VALUES, mutate, random_chart, random_document

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
        pytest.param(
            [("x", "a", "activity"), ("y", "a", "activity"),
             ("x_to_y_rel", "a", "activity")],
            [("x", "y")],
            "node 'x_to_y_rel' and edge x -> y both make the action 'a/x_to_y_rel'",
            id="node-and-bridge",
        ),
        pytest.param(
            [("m", "a", "message-send"), ("m_out", "a", "activity")],
            [],
            "node 'm' and node 'm_out' both make the action 'a/m_out'",
            id="two-nodes",
        ),
        pytest.param(
            [("x", "a", "activity"), ("y_to_z", "a", "activity"),
             ("x_to_y", "a", "activity"), ("z", "a", "activity")],
            [("x", "y_to_z"), ("x_to_y", "z")],
            "edge x -> y_to_z and edge x_to_y -> z both make the action "
            "'a/x_to_y_to_z_rel'",
            id="two-bridges",
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


def import_by_cases(chart):
    """The importer as first written, one hand-coded case per node kind
    and per kind of hop.  Kept as the reference for the table-driven
    ``import_flowchart``.  Its refusals are the ones first written too:
    with no id-clash check, a clash reaches the builder as a ModelError."""
    nodes_by_id = {n.id: n for n in chart.nodes}
    flowchart._reject_unmappable(chart, nodes_by_id)

    notes = []
    builder = ModelBuilder(chart.name)
    for lane in chart.lanes:
        builder.add_thimac(lane, id=lane)

    for node in chart.nodes:
        path = f"{node.lane}/{node.id}"
        if node.kind == "start":
            builder.add_action("create", node.lane, node.label, id=path)
        elif node.kind in ("activity", "decision"):
            builder.add_action("process", node.lane, node.label, id=path)
        elif node.kind == "message-send":
            builder.add_action("release", node.lane, node.label, id=path)
            builder.add_action("transfer", node.lane, id=f"{path}_out")
            builder.add_flow(path, f"{path}_out")
        elif node.kind == "message-receive":
            builder.add_action("transfer", node.lane, id=f"{path}_in")
            builder.add_action("receive", node.lane, node.label, id=path)
            builder.add_flow(f"{path}_in", path)
        else:
            notes.append(f"end node {node.id!r} dropped; a run simply stops there")

    for edge in chart.edges:
        src, dst = nodes_by_id[edge.src], nodes_by_id[edge.dst]
        if dst.kind == "end":
            suffix = f" (guard {edge.guard!r} lost)" if edge.guard else ""
            notes.append(f"edge {edge.src} -> {edge.dst} dropped with its end node{suffix}")
            continue
        head = wire_edge_by_cases(builder, edge, src, dst)
        if edge.guard is not None:
            builder.add_trigger(f"{src.lane}/{src.id}", head, condition=edge.guard)

    return builder.build(), tuple(notes)


def endpoints_by_cases(src, dst):
    if src.kind == "message-send":
        exit_id, exit_kind = f"{src.lane}/{src.id}_out", "transfer"
    elif src.kind == "message-receive":
        exit_id, exit_kind = f"{src.lane}/{src.id}", "receive"
    elif src.kind == "start":
        exit_id, exit_kind = f"{src.lane}/{src.id}", "create"
    else:
        exit_id, exit_kind = f"{src.lane}/{src.id}", "process"
    if dst.kind == "message-send":
        entry = f"{dst.lane}/{dst.id}"
    elif dst.kind == "message-receive":
        entry = f"{dst.lane}/{dst.id}_in"
    else:
        entry = f"{dst.lane}/{dst.id}"
    return exit_id, entry, exit_kind


def entry_kind_by_cases(dst):
    if dst.kind == "message-send":
        return "release"
    if dst.kind == "message-receive":
        return "transfer"
    return "process"


def wire_edge_by_cases(builder, edge, src, dst):
    exit_id, entry_id, exit_kind = endpoints_by_cases(src, dst)
    stem = f"{edge.src}_to_{edge.dst}"

    if src.lane == dst.lane:
        if (exit_kind, entry_kind_by_cases(dst)) in LEGAL_FLOW_PAIRS:
            builder.add_flow(exit_id, entry_id)
            return entry_id
        rel = f"{src.lane}/{stem}_rel"
        out = f"{src.lane}/{stem}_tr"
        rcv = f"{src.lane}/{stem}_rcv"
        builder.add_action("release", src.lane, id=rel)
        builder.add_action("transfer", src.lane, id=out)
        builder.add_action("receive", src.lane, id=rcv)
        builder.add_flow(exit_id, rel)
        builder.add_flow(rel, out)
        builder.add_flow(out, rcv)
        builder.add_flow(rcv, entry_id)
        return rel

    if src.kind == "message-send":
        sender_out, head = exit_id, None
    else:
        rel = f"{src.lane}/{stem}_rel"
        sender_out = f"{src.lane}/{stem}_out"
        builder.add_action("release", src.lane, id=rel)
        builder.add_action("transfer", src.lane, id=sender_out)
        builder.add_flow(exit_id, rel)
        builder.add_flow(rel, sender_out)
        head = rel

    if dst.kind == "message-receive":
        builder.add_flow(sender_out, entry_id)
        receiver_head = entry_id
    else:
        inp = f"{dst.lane}/{stem}_in"
        rcv = f"{dst.lane}/{stem}_rcv"
        builder.add_action("transfer", dst.lane, id=inp)
        builder.add_action("receive", dst.lane, id=rcv)
        builder.add_flow(sender_out, inp)
        builder.add_flow(inp, rcv)
        builder.add_flow(rcv, entry_id)
        receiver_head = inp

    return head if head is not None else receiver_head


def import_outcome(importer, chart):
    try:
        model, notes = importer(chart)
    except TmkitError as exc:
        return type(exc).__name__, str(exc)
    return to_json(model), notes


def test_every_chart_node_kind_has_actions_listed():
    assert tuple(flowchart._NODE_ACTIONS) == FLOW_NODE_KINDS


@given(seeds)
@settings(max_examples=400, deadline=None)
def test_the_importer_matches_the_case_by_case_reference(ordering_chart, seed):
    generated = load_flowchart(json.dumps(random_chart(Random(seed))))
    for chart in (generated, ordering_chart):
        expected = import_outcome(import_by_cases, chart)
        outcome = import_outcome(import_flowchart, chart)
        if expected[0] == "ModelError":  # only an id clash, refused up front now
            clash = expected[1].removeprefix("duplicate id ")
            assert outcome[0] == "ConvertError"
            assert outcome[1].endswith(f" both make the action {clash}")
        else:
            assert outcome == expected


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


def every_optional_field_doc():
    """A document that holds every optional field both null and set."""
    model = StaticModel(
        "full",
        thimacs=(Thimac("t", "t"), Thimac("t/u", "u", "t", "a note")),
        actions=(
            Action("t/a", "create", "t"),
            Action("t/u/b", "process", "t/u", "a label", "7"),
        ),
        storages=(Storage("t/s", "t", "s"),),
        flows=(Flow("f1", "t/a", "t/u/b"),),
        triggers=(
            Trigger("g1", "t/a", "t/u/b"),
            Trigger("g2", "t/u/b", "t/a", "when ready"),
        ),
    )
    events = (
        define_event(model, "E1", "start", ["t/a"]),
        define_event(model, "E2", "go on", ["t/u/b", "t/a"]),
        define_event(model, "E3", "stop", ["t/u/b"]),
    )
    edges = [
        ChronEdge("E1", "E2"), ChronEdge("E2", "E3"), ChronEdge("E3", "E2", "again"),
    ]
    graph = build_chronology(events, edges, {("E3", "E2"): 3})
    return Document(model, events, graph)


SECTION_KEYS = {
    "thimacs": ["id", "name", "parent", "note"],
    "actions": ["id", "kind", "owner", "label", "anchor"],
    "storages": ["id", "owner", "name"],
    "flows": ["id", "from", "to"],
    "triggers": ["id", "from", "to", "condition"],
    "events": ["id", "label", "region"],
}


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
    for doc in (ordering_doc, every_optional_field_doc()):
        data = json.loads(to_json(doc))
        for section, keys in SECTION_KEYS.items():
            assert all(list(entry) == keys for entry in data[section]), section
        assert list(data["chronology"]) == ["edges"]
    assert all(data[section] for section in SECTION_KEYS)  # the full document


def to_json_by_hand(doc):
    """The writer that spelled out each section's keys, before
    ``convert._SECTIONS`` held them: the reference ``to_json`` must match."""
    if isinstance(doc, StaticModel):
        doc = Document(doc)
    model = doc.model
    chronology = None
    if doc.chronology is not None:
        chronology = {
            "edges": [
                {
                    "from": e.src,
                    "to": e.dst,
                    "guard": e.guard,
                    "max": doc.chronology.loop_bounds.get((e.src, e.dst)),
                }
                for e in doc.chronology.edges
            ]
        }
    payload = {
        "name": model.name,
        "thimacs": [
            {"id": t.id, "name": t.name, "parent": t.parent, "note": t.note}
            for t in model.thimacs
        ],
        "actions": [
            {
                "id": a.id,
                "kind": a.kind,
                "owner": a.owner,
                "label": a.label,
                "anchor": a.anchor,
            }
            for a in model.actions
        ],
        "storages": [
            {"id": s.id, "owner": s.owner, "name": s.name} for s in model.storages
        ],
        "flows": [{"id": f.id, "from": f.src, "to": f.dst} for f in model.flows],
        "triggers": [
            {"id": t.id, "from": t.src, "to": t.dst, "condition": t.condition}
            for t in model.triggers
        ],
        "events": [
            {"id": e.id, "label": e.label, "region": sorted(e.region)}
            for e in doc.events
        ],
        "chronology": chronology,
    }
    return json.dumps(payload, indent=2) + "\n"


def test_the_full_document_holds_every_optional_field_null_and_set():
    data = json.loads(to_json_by_hand(every_optional_field_doc()))
    optional = [
        ("thimacs", "parent"), ("thimacs", "note"), ("actions", "label"),
        ("actions", "anchor"), ("triggers", "condition"),
    ]
    rows = [(data[section], key) for section, key in optional]
    rows += [(data["chronology"]["edges"], key) for key in ("guard", "max")]
    for entries, key in rows:
        values = [entry[key] for entry in entries]
        assert None in values and any(v is not None for v in values), key


def test_to_json_matches_the_hand_written_writer(atm_doc, ordering_doc):
    for doc in (atm_doc, ordering_doc, every_optional_field_doc(), dot_doc()):
        assert to_json(doc) == to_json_by_hand(doc)
        again = from_json(to_json(doc))
        assert to_json(again) == to_json_by_hand(again)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_to_json_matches_the_hand_written_writer_on_generated_documents(seed):
    doc = random_document(Random(seed))
    assert to_json(doc) == to_json_by_hand(doc)


def odd_strings_doc(text):
    """A document whose names, labels, notes, anchor, conditions and
    guards all hold ``text``."""
    model = StaticModel(
        text,
        thimacs=(Thimac("t", text, None, text),),
        actions=(Action("t/a", "create", "t", text, text), Action("t/b", "process", "t", text)),
        storages=(Storage("t/s", "t", text),),
        flows=(Flow("f1", "t/a", "t/b"),),
        triggers=(Trigger("g1", "t/b", "t/a", text),),
    )
    events = (
        define_event(model, "E1", text, ["t/a"]),
        define_event(model, "E2", text, ["t/b", "t/a"]),
        define_event(model, "E3", text, ["t/b"]),
    )
    edges = [
        ChronEdge("E1", "E2", text), ChronEdge("E2", "E3"), ChronEdge("E3", "E2", text + "!"),
    ]
    return Document(model, events, build_chronology(events, edges, {("E3", "E2"): 2}))


@pytest.mark.parametrize("text", ODD_NAMES)
def test_to_json_writes_odd_strings_as_json_dumps_does(text):
    doc = odd_strings_doc(text)
    assert to_json(doc) == to_json_by_hand(doc)
    again = from_json(to_json(doc))
    assert to_json(again) == to_json_by_hand(again) == to_json(doc)


def test_to_json_writes_empty_lists_and_a_missing_chronology():
    model = StaticModel(
        "bare", thimacs=(Thimac("t", "t"),), actions=(Action("t/a", "create", "t"),)
    )
    event = define_event(model, "E1", "one", ["t/a"])
    for doc in (
        Document(model),
        Document(model, (event,)),
        Document(model, (event,), build_chronology((event,), [])),
    ):
        text = to_json(doc)
        assert text == to_json_by_hand(doc)
        assert '  "storages": [],\n' in text
    assert '  "events": [],\n  "chronology": null\n}\n' in to_json(Document(model))
    assert '    "edges": []\n  }\n}\n' in text


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


def test_an_integral_float_loop_bound_loads_as_an_integer(atm_doc):
    def bounds_as_floats(data):
        for edge in data["chronology"]["edges"]:
            if edge["max"] is not None:
                edge["max"] = float(edge["max"])

    doc = from_json(mutated_json(atm_doc, bounds_as_floats))
    text = format_document(doc)
    assert "  E18 -> E13 max 3\n" in text
    assert structurally_equal_documents(parse(text), atm_doc)
    assert to_json(doc) == to_json(atm_doc)
    assert chronology_to_dot(doc.chronology) == chronology_to_dot(atm_doc.chronology)


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


def test_from_json_refuses_a_repeated_event_id_without_a_chronology(ordering_doc):
    # with no chronology to refuse it, a second E1 would replace the first
    def repeat_first_event(data):
        data["chronology"] = None
        data["events"].append(dict(data["events"][0], label="again"))

    text = mutated_json(ordering_doc, repeat_first_event)
    with pytest.raises(ConvertError, match="^duplicate event id 'E1'$"):
        from_json(text)


def test_ids_are_unique_across_the_model_sections(ordering_doc):
    def flow_named_as_thimac(data):
        data["flows"][0]["id"] = data["thimacs"][0]["id"]

    text = mutated_json(ordering_doc, flow_named_as_thimac)
    with pytest.raises(ConvertError, match="^duplicate id 'client'$"):
        from_json(text)


def test_from_json_rejects_garbage():
    with pytest.raises(ConvertError, match="document is not valid JSON"):
        from_json("{nope")
    with pytest.raises(ConvertError, match="'thimacs' is a required property"):
        from_json('{"name": "m"}')


def test_deeply_nested_json_is_not_valid_json():
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(ConvertError, match="document is not valid JSON"):
        from_json(deep)
    with pytest.raises(ConvertError, match="flowchart is not valid JSON"):
        load_flowchart(deep)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_json_round_trips_generated_documents(seed):
    doc = random_document(Random(seed))
    again = from_json(to_json(doc))
    assert structurally_equal_documents(doc, again)
    assert to_json(again) == to_json(doc)


# ---------------------------------------------------------------------------
# schema checking

SCHEMA_KEYWORDS = {
    "type", "enum", "pattern", "minimum", "minItems", "items", "required",
    "properties", "additionalProperties",
}


def subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from subschemas(sub)
    if "items" in schema:
        yield from subschemas(schema["items"])


@pytest.mark.parametrize("schema", [MODEL_SCHEMA, FLOWCHART_SCHEMA])
def test_schemas_use_only_the_keywords_the_checker_reads(schema):
    for sub in subschemas(schema):
        assert set(sub) <= SCHEMA_KEYWORDS, sorted(set(sub) - SCHEMA_KEYWORDS)
        types = sub.get("type", [])
        assert set(types if isinstance(types, list) else [types]) <= set(
            convert._PYTHON_TYPES
        )
        assert sub.get("additionalProperties", False) is False
        for name in sub.get("properties", {}):
            # such names print as ``$.name``; others would need brackets
            assert re.fullmatch(r"[a-zA-Z][a-zA-Z0-9_]*", name)


#: Every JSON type, with the edges of ``integer`` and ``minimum``: bools,
#: integral and fractional floats, and floats that are no number.
TYPED_VALUES = [
    True, False, 0, 7, -1, 1.0, 2.5, float("inf"), float("nan"), "", "s", None, [], {},
]
TYPED_SCHEMAS = [
    *({"type": t} for t in ("object", "array", "string", "null", "integer")),
    {"type": ["string", "null"]},
    {"type": ["integer", "null"]},
    {"minimum": 1},
    {"type": ["integer", "null"], "minimum": 1},
]


@pytest.mark.parametrize("schema", TYPED_SCHEMAS, ids=json.dumps)
def test_both_schema_checks_read_the_type_table_as_jsonschema_does(schema):
    validator = jsonschema.Draft202012Validator(schema)
    for value in TYPED_VALUES:
        verdicts = (
            convert._violation(value, schema) is None,
            convert._conforms([value], schema),
            validator.is_valid(value),
        )
        assert len(set(verdicts)) == 1, (value, verdicts)


@pytest.mark.parametrize("schema", [MODEL_SCHEMA, FLOWCHART_SCHEMA])
def test_schema_patterns_are_anchored(schema):
    patterns = [sub["pattern"] for sub in subschemas(schema) if "pattern" in sub]
    assert patterns or schema is MODEL_SCHEMA
    for pattern in patterns:
        assert pattern.startswith("^") and pattern.endswith("$")


def test_ids_with_a_trailing_newline_are_refused():
    with pytest.raises(ConvertError, match=r"lanes\[0\]: 'a\\n' does not match"):
        load_flowchart(chart_text([], [], lanes=("a\n",)))
    with pytest.raises(ConvertError, match=r"nodes\[0\]\.id: 'x\\n' does not match"):
        load_flowchart(chart_text([("x\n", "a", "start")], []))


def test_schema_messages_keep_their_wording():
    chart = {"name": "c", "lanes": ["a"], "nodes": [], "edges": []}
    cases = [
        ({"name": "m"}, MODEL_SCHEMA, "$: 'thimacs' is a required property"),
        (
            {**chart, "zz": 1, "aa": 2},
            FLOWCHART_SCHEMA,
            "$: Additional properties are not allowed ('aa', 'zz' were unexpected)",
        ),
        ({**chart, "lanes": []}, FLOWCHART_SCHEMA, "$.lanes: [] should be non-empty"),
        (
            {**chart, "nodes": [{"id": "x", "lane": "a", "kind": "box"}]},
            FLOWCHART_SCHEMA,
            "$.nodes[0].kind: 'box' is not one of ['start', 'end', 'activity', "
            "'decision', 'message-send', 'message-receive']",
        ),
    ]
    thimac_gaps = json.loads(to_json(report_doc()))
    del thimac_gaps["thimacs"][0]["name"]
    thimac_gaps["thimacs"][0]["zz"] = 1
    two_bad = json.loads(to_json(report_doc()))
    two_bad["thimacs"][0]["id"] = 1
    two_bad["actions"][0]["kind"] = "box"
    cases += [
        # of several violations, the first in the schema's key order
        (thimac_gaps, MODEL_SCHEMA, "$.thimacs[0]: 'name' is a required property"),
        (two_bad, MODEL_SCHEMA, "$.thimacs[0].id: 1 is not of type 'string'"),
        (
            {**chart, "nodes": [{"id": "x", "lane": "a", "kind": "box", "zz": 1}]},
            FLOWCHART_SCHEMA,
            "$.nodes[0]: Additional properties are not allowed ('zz' was unexpected)",
        ),
    ]
    for data, schema, message in cases:
        assert convert._violation(data, schema) == message
        check_against_jsonschema(data, schema)

    doc = json.loads(to_json(report_doc()))
    edge = doc["chronology"]["edges"][0]
    for value, message in (
        (0, "0 is less than the minimum of 1"),
        (True, "True is not of type 'integer', 'null'"),
        (2.5, "2.5 is not of type 'integer', 'null'"),
        (2.0, None),
    ):
        edge["max"] = value
        found = convert._violation(doc, MODEL_SCHEMA)
        assert found == (message and f"$.chronology.edges[0].max: {message}")

    # an integral float bound loads as the int it names, and writes as one
    loaded = from_json(json.dumps(doc))
    assert loaded.chronology.loop_bounds == {("E1", "E2"): 2}
    assert type(loaded.chronology.loop_bounds["E1", "E2"]) is int
    assert '        "max": 2\n' in to_json(loaded)

    # the schema is checked before ids: a bad bound wins over a duplicate id
    edge["max"] = 0
    doc["thimacs"].append(dict(doc["thimacs"][0]))
    message = "document: $.chronology.edges[0].max: 0 is less than the minimum of 1"
    for loader in (from_json, from_json_by_walk):
        with pytest.raises(ConvertError) as refused:
            loader(json.dumps(doc))
        assert str(refused.value) == message


def _anchored_pattern(validator, pattern, instance, schema):
    if validator.is_type(instance, "string") and not re.fullmatch(pattern, instance):
        yield jsonschema.ValidationError(f"{instance!r} does not match {pattern!r}")


# jsonschema with JSON Schema's whole-string ``pattern``: the oracle
AnchoredValidator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator, {"pattern": _anchored_pattern}
)

ORACLES = {
    id(schema): (AnchoredValidator(schema), jsonschema.Draft202012Validator(schema))
    for schema in (MODEL_SCHEMA, FLOWCHART_SCHEMA)
}


def check_against_jsonschema(data, schema):
    anchored, stock = ORACLES[id(schema)]
    errors = list(anchored.iter_errors(data))
    found = [f"{e.json_path}: {e.message}" for e in errors]
    ours = convert._violation(data, schema)
    assert (ours is None) == (not found)
    assert convert._conforms([data], schema) == (not found)
    if len(found) == 1:
        assert ours == found[0]
    elif found:
        assert ours in found
    # stock jsonschema differs only on strings that end in a newline
    assert [f"{e.json_path}: {e.message}" for e in stock.iter_errors(data)] == [
        message
        for message, e in zip(found, errors)
        if not (e.validator == "pattern" and e.instance.endswith("\n"))
    ]


@given(seeds)
@settings(max_examples=300, deadline=None)
def test_schema_checker_agrees_with_jsonschema(ordering_doc, seed):
    rng = Random(seed)
    data, schema = rng.choice([
        (lambda: to_json(ordering_doc), MODEL_SCHEMA),
        (lambda: to_json(random_document(rng)), MODEL_SCHEMA),
        (lambda: read_fixture("ordering_chart.json"), FLOWCHART_SCHEMA),
    ])
    data = json.loads(data())
    for _ in range(rng.randint(1, 3)):
        data = mutate(rng, data)
    check_against_jsonschema(data, schema)


def from_json_by_walk(text):
    """``from_json`` as it was before ``convert._conforms``: the schema
    walk over every value, then the build.  The reference ``from_json``
    must match, result for result and error for error."""
    data = decode_json(text, "document", ConvertError)
    found = convert._violation(data, MODEL_SCHEMA)
    if found:
        raise ConvertError(f"document: {found}")

    ids = set()
    sections = {}
    for section, (record, properties) in convert._SECTIONS.items():
        row = itemgetter(*properties)
        records = []
        for entry in data[section]:
            item = record(*row(entry))
            if item.id in ids:
                raise ConvertError(f"duplicate id {item.id!r}")
            ids.add(item.id)
            records.append(item)
        sections[section] = tuple(records)
    model = StaticModel(data["name"], **sections)
    check_depth(model)

    events = {}
    for event_id, label, region in map(itemgetter(*convert._EVENT), data["events"]):
        if event_id in events:
            raise ConvertError(f"duplicate event id {event_id!r}")
        events[event_id] = define_event(model, event_id, label, region)

    chronology = None
    if data["chronology"] is not None:
        edges = []
        bounds = {}
        entries = data["chronology"]["edges"]
        for src, dst, guard, bound in map(itemgetter(*convert._CHRON_EDGE), entries):
            edges.append(ChronEdge(src, dst, guard))
            if bound is not None:
                bounds[(src, dst)] = int(bound)
        chronology = build_chronology(events.values(), edges, bounds)

    return Document(model, tuple(events.values()), chronology)


def load_flowchart_by_walk(text):
    """``load_flowchart`` as it was before ``convert._conforms``: the
    reference for charts, as ``from_json_by_walk`` is for documents."""
    data = decode_json(text, "flowchart", ConvertError)
    found = convert._violation(data, FLOWCHART_SCHEMA)
    if found:
        raise ConvertError(f"flowchart: {found}")

    lanes = tuple(data["lanes"])
    lane_set = set(lanes)
    if len(lane_set) != len(lanes):
        raise ConvertError("flowchart declares a lane twice")
    nodes = tuple(FlowNode(*map(n.get, flowchart._CHART_NODE)) for n in data["nodes"])
    seen = set()
    for node in nodes:
        if node.id in seen:
            raise ConvertError(f"duplicate node id {node.id!r}")
        seen.add(node.id)
        if node.lane not in lane_set:
            raise ConvertError(f"node {node.id!r} sits in unknown lane {node.lane!r}")
    edges = tuple(FlowEdge(*map(e.get, flowchart._CHART_EDGE)) for e in data["edges"])
    pairs = set()
    for edge in edges:
        for ref in (edge.src, edge.dst):
            if ref not in seen:
                raise ConvertError(f"edge references unknown node {ref!r}")
        if edge.src == edge.dst:
            raise ConvertError(f"self-edge on {edge.src!r}")
        if (edge.src, edge.dst) in pairs:
            raise ConvertError(f"duplicate edge {edge.src} -> {edge.dst}")
        pairs.add((edge.src, edge.dst))
    return FlowchartDoc(data["name"], lanes, nodes, edges, data.get("description"))


def load_outcome(loader, text):
    try:
        loaded = loader(text)
    except TmkitError as exc:
        return type(exc).__name__, str(exc)
    return to_json(loaded) if isinstance(loaded, Document) else loaded


@given(seeds)
@settings(max_examples=500, deadline=None)
def test_the_loaders_match_the_walk_first_references(ordering_doc, seed):
    rng = Random(seed)
    document = (MODEL_SCHEMA, from_json, from_json_by_walk)
    chart = (FLOWCHART_SCHEMA, load_flowchart, load_flowchart_by_walk)
    source, (schema, loader, reference) = rng.choice([
        (lambda: to_json(random_document(rng)), document),
        (lambda: to_json(ordering_doc), document),
        (lambda: json.dumps(random_chart(rng)), chart),
        (lambda: read_fixture("ordering_chart.json"), chart),
    ])
    data = json.loads(source())
    for _ in range(rng.randint(0, 3)):
        data = mutate(rng, data)
    # the fast check accepts exactly what the walk accepts
    verdict = convert._violation(data, schema)
    assert convert._conforms([data], schema) == (verdict is None), verdict
    text = json.dumps(data)
    assert load_outcome(loader, text) == load_outcome(reference, text)


#: What ``single_edits`` puts in place of a value: beside ``ODD_VALUES``,
#: a float with a fraction that is no less than a loop bound's minimum.
EDIT_VALUES = (*ODD_VALUES, 2.5)


def single_edits(data):
    """Copies of ``data`` with one value replaced by each of
    ``EDIT_VALUES``, or dropped, for every value in it in turn."""
    paths = [()]
    for path in paths:
        value = reduce(getitem, path, data)
        if isinstance(value, dict):
            paths.extend(path + (key,) for key in value)
        elif isinstance(value, list):
            paths.extend(path + (index,) for index in range(len(value)))
    for *route, last in paths[1:]:
        for edit in range(len(EDIT_VALUES) + 1):
            copy = json.loads(json.dumps(data))
            container = reduce(getitem, route, copy)
            if edit == len(EDIT_VALUES):
                del container[last]
            else:
                container[last] = EDIT_VALUES[edit]
            yield copy


def test_the_loaders_match_the_references_on_every_single_edit():
    document = json.loads(to_json(every_optional_field_doc()))
    chart = json.loads(
        chart_text([("x", "a", "decision"), ("y", "b", "activity")], [("x", "y", "g")])
    )
    chart["nodes"][0]["label"] = "choose"
    chart["description"] = "two lanes"
    for data, schema, loader, reference in [
        (document, MODEL_SCHEMA, from_json, from_json_by_walk),
        (chart, FLOWCHART_SCHEMA, load_flowchart, load_flowchart_by_walk),
    ]:
        for edited in single_edits(data):
            verdict = convert._violation(edited, schema)
            assert convert._conforms([edited], schema) == (verdict is None), verdict
            text = json.dumps(edited)
            assert load_outcome(loader, text) == load_outcome(reference, text)


def test_each_document_key_is_spelled_once():
    """Keys with one owner in the format tables are written nowhere else
    in ``convert.py``: the schemas, templates and loaders read the tables."""
    tree = ast.parse(Path(convert.__file__).read_text())
    strings = Counter(
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )
    for key in ("anchor", "parent", "note", "condition", "region", "max"):
        assert strings[key] == 1, key


def test_the_cli_imports_without_jsonschema():
    src = str(Path(convert.__file__).parents[1])
    probe = "import sys, tmkit.cli; print('jsonschema' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {probe}"],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "False\n"


PACKAGE = Path(convert.__file__).parent


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in PACKAGE.glob("*.py")),
)
def test_modules_use_every_name_they_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


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
    with pytest.raises(DynamicsError, match="no chronology to walk"):
        generate_report(doc, [Scenario("go")])
