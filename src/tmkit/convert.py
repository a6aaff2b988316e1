"""Interchange: flowchart import, DOT and JSON output, plain-text reports.

The flowchart side accepts a swimlane chart (JSON) and rebuilds it as a
model: lanes become thimacs, and each node becomes the actions that
``_NODE_ACTIONS`` lists for its kind.  Every hop that the flow rules
forbid -- activity to activity, lane to lane -- is legalized by inserting
the release/transfer/receive machinery that a chart leaves implicit.
Guarded branches out of a decision become triggers, so the decision
logic survives the trip.

JSON serialization is canonical: fixed key order, every key always
present, ``null`` rather than omission.  ``_SECTIONS`` states the format
of the five model sections once; ``MODEL_SCHEMA``, ``to_json`` and
``from_json`` are all built from it.  Loading is deliberately more
permissive than the builder -- dangling references and self-loops come
back as models that ``validate`` can complain about, not as exceptions.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from operator import attrgetter, itemgetter
from typing import Iterable, Optional, Union

from .dynamics import (
    ChronEdge,
    ChronologyGraph,
    Document,
    Scenario,
    build_chronology,
    define_event,
    simulate,
)
from .dsl import containment_walk, escape
from .errors import TmkitError, decode_json
from .model import (
    ACTION_KINDS,
    LEGAL_FLOW_PAIRS,
    Action,
    Flow,
    ModelBuilder,
    StaticModel,
    Storage,
    Thimac,
    Trigger,
    check_depth,
    validate,
)


class ConvertError(TmkitError):
    pass


# ---------------------------------------------------------------------------
# flowcharts

_IDENT = r"^[A-Za-z_][A-Za-z0-9_]*$"

FLOW_NODE_KINDS = (
    "start",
    "end",
    "activity",
    "decision",
    "message-send",
    "message-receive",
)

_STRING = {"type": "string"}
_NULLABLE = {"type": ["string", "null"]}
_NAME = {"type": "string", "pattern": _IDENT}


def _object(properties: dict, *optional: str) -> dict:
    """The schema of an object with ``properties``, each required unless
    named in ``optional``, and no other keys."""
    return {
        "type": "object",
        "required": [name for name in properties if name not in optional],
        "additionalProperties": False,
        "properties": properties,
    }


def _array(items: dict, **extra: object) -> dict:
    return {"type": "array", **extra, "items": items}


#: Chart nodes and edges as ``{json key: schema}``, keys in ``FlowNode``'s
#: and ``FlowEdge``'s field order (``from`` is ``src``, ``to`` is ``dst``).
_CHART_NODE = {
    "id": _NAME,
    "lane": _STRING,
    "kind": {"enum": list(FLOW_NODE_KINDS)},
    "label": _STRING,
}
_CHART_EDGE = {"from": _STRING, "to": _STRING, "guard": _STRING}

FLOWCHART_SCHEMA = _object(
    {
        "name": _NAME,
        "description": _STRING,
        "lanes": _array(_NAME, minItems=1),
        "nodes": _array(_object(_CHART_NODE, "label")),
        "edges": _array(_object(_CHART_EDGE, "guard")),
    },
    "description",
)


@dataclass(frozen=True)
class FlowNode:
    id: str
    lane: str
    kind: str
    label: Optional[str] = None


@dataclass(frozen=True)
class FlowEdge:
    src: str
    dst: str
    guard: Optional[str] = None


@dataclass(frozen=True)
class FlowchartDoc:
    name: str
    lanes: tuple[str, ...]
    nodes: tuple[FlowNode, ...]
    edges: tuple[FlowEdge, ...]
    description: Optional[str] = None


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    # a bool is not an integer; a float with no fraction is
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}


def _violation(value: object, schema: dict, path: str = "$") -> Optional[str]:
    """The first way ``value`` breaks ``schema``, as ``"path: message"``,
    or None.  Keywords are read depth first in the schema's own order, and
    only those the two schemas here use; paths and messages keep the
    wording of the Python JSON Schema validator this replaced.  A
    ``pattern`` must match the whole string, as JSON Schema's ``$`` does,
    so a trailing newline is no match."""
    for keyword, rule in schema.items():
        if keyword == "type":
            names = rule if isinstance(rule, list) else [rule]
            if not any(_TYPES[name](value) for name in names):
                listed = ", ".join(map(repr, names))
                return f"{path}: {value!r} is not of type {listed}"
        elif keyword == "enum":
            if value not in rule:
                return f"{path}: {value!r} is not one of {rule!r}"
        elif keyword == "pattern":
            if isinstance(value, str) and not re.fullmatch(rule, value):
                return f"{path}: {value!r} does not match {rule!r}"
        elif keyword == "minimum":
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if number and value < rule:
                return f"{path}: {value!r} is less than the minimum of {rule!r}"
        elif isinstance(value, list):
            if keyword == "minItems" and len(value) < rule:
                short = "should be non-empty" if rule == 1 else "is too short"
                return f"{path}: {value!r} {short}"
            if keyword == "items":
                for index, item in enumerate(value):
                    found = _violation(item, rule, f"{path}[{index}]")
                    if found:
                        return found
        elif isinstance(value, dict):
            if keyword == "required":
                for name in rule:
                    if name not in value:
                        return f"{path}: {name!r} is a required property"
            elif keyword == "additionalProperties" and rule is False:
                known = schema.get("properties", {})
                extras = sorted(k for k in value if k not in known)
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    listed = ", ".join(map(repr, extras))
                    return (
                        f"{path}: Additional properties are not allowed "
                        f"({listed} {verb} unexpected)"
                    )
            elif keyword == "properties":
                for name, subschema in rule.items():
                    if name in value:
                        found = _violation(value[name], subschema, f"{path}.{name}")
                        if found:
                            return found
    return None


def _check_schema(data: object, schema: dict, what: str) -> None:
    found = _violation(data, schema)
    if found:
        raise ConvertError(f"{what}: {found}")


def load_flowchart(text: str) -> FlowchartDoc:
    data = decode_json(text, "flowchart", ConvertError)
    _check_schema(data, FLOWCHART_SCHEMA, "flowchart")

    lanes = tuple(data["lanes"])
    if len(set(lanes)) != len(lanes):
        raise ConvertError("flowchart declares a lane twice")
    nodes = tuple(FlowNode(*map(n.get, _CHART_NODE)) for n in data["nodes"])
    seen: set[str] = set()
    for node in nodes:
        if node.id in seen:
            raise ConvertError(f"duplicate node id {node.id!r}")
        seen.add(node.id)
        if node.lane not in lanes:
            raise ConvertError(f"node {node.id!r} sits in unknown lane {node.lane!r}")
    edges = tuple(FlowEdge(*map(e.get, _CHART_EDGE)) for e in data["edges"])
    pairs: set[tuple[str, str]] = set()
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


#: Each chart node kind's actions as ``(id suffix, kind)``, in flow order.
#: The action with no suffix carries the node's label and any guard
#: trigger; a kind with no actions (end) is dropped, since a run just stops.
_NODE_ACTIONS: dict[str, tuple[tuple[str, str], ...]] = {
    "start": (("", "create"),),
    "end": (),
    "activity": (("", "process"),),
    "decision": (("", "process"),),
    "message-send": (("", "release"), ("_out", "transfer")),
    "message-receive": (("_in", "transfer"), ("", "receive")),
}
_SAME_LANE_BRIDGE = (("_rel", "release"), ("_tr", "transfer"), ("_rcv", "receive"))


def import_flowchart(chart: FlowchartDoc) -> tuple[StaticModel, tuple[str, ...]]:
    """Rebuild a flowchart as a model.

    Returns the model plus notes about whatever the mapping had to drop
    (end nodes and their edges have no counterpart: a run just stops).
    Raises :class:`ConvertError` for charts the mapping cannot express
    faithfully -- unguarded decision branches, guards anywhere else,
    implicit splits, message nodes pointed the wrong way, or two nodes or
    edges that would make the same action id.
    """
    nodes_by_id = {n.id: n for n in chart.nodes}
    _reject_unmappable(chart, nodes_by_id)

    notes: list[str] = []
    builder = ModelBuilder(chart.name)
    for lane in chart.lanes:
        builder.add_thimac(lane, id=lane)
    maker: dict[str, str] = {}  # action id -> the node or edge that made it

    def claim(action_id: str, claimant: str) -> str:
        if maker.setdefault(action_id, claimant) != claimant:
            raise ConvertError(
                f"{maker[action_id]} and {claimant} both make the action {action_id!r}"
            )
        return action_id

    for node in chart.nodes:
        actions = _NODE_ACTIONS[node.kind]
        if not actions:
            notes.append(f"end node {node.id!r} dropped; a run simply stops there")
        path = f"{node.lane}/{node.id}"
        ids = [
            builder.add_action(
                kind,
                node.lane,
                None if suffix else node.label,
                id=claim(path + suffix, f"node {node.id!r}"),
            )
            for suffix, kind in actions
        ]
        for src, dst in zip(ids, ids[1:]):
            builder.add_flow(src, dst)

    for edge in chart.edges:
        src, dst = nodes_by_id[edge.src], nodes_by_id[edge.dst]
        if not _NODE_ACTIONS[dst.kind]:
            suffix = f" (guard {edge.guard!r} lost)" if edge.guard else ""
            notes.append(f"edge {edge.src} -> {edge.dst} dropped with its end node{suffix}")
            continue
        # the source's last action, the bridge, then the target's first
        chain = [f"{src.lane}/{src.id}{_NODE_ACTIONS[src.kind][-1][0]}"]
        claimant = f"edge {edge.src} -> {edge.dst}"
        for action_id, lane, kind in _bridge(edge, src, dst):
            chain.append(builder.add_action(kind, lane, id=claim(action_id, claimant)))
        chain.append(f"{dst.lane}/{dst.id}{_NODE_ACTIONS[dst.kind][0][0]}")
        for a, b in zip(chain, chain[1:]):
            builder.add_flow(a, b)
        if edge.guard is not None:  # at the first node the token moves to
            builder.add_trigger(f"{src.lane}/{src.id}", chain[1], condition=edge.guard)

    return builder.build(), tuple(notes)


def _reject_unmappable(chart: FlowchartDoc, nodes_by_id: dict[str, FlowNode]) -> None:
    outgoing: dict[str, list[FlowEdge]] = {n.id: [] for n in chart.nodes}
    incoming: dict[str, list[FlowEdge]] = {n.id: [] for n in chart.nodes}
    for edge in chart.edges:
        outgoing[edge.src].append(edge)
        incoming[edge.dst].append(edge)

    for node in chart.nodes:
        if node.kind == "start" and incoming[node.id]:
            raise ConvertError(f"edge into start node {node.id!r}")
        if node.kind == "end" and outgoing[node.id]:
            raise ConvertError(f"edge out of end node {node.id!r}")
        if node.kind == "decision":
            for edge in outgoing[node.id]:
                if edge.guard is None:
                    raise ConvertError(
                        f"decision {node.id!r} has an unguarded branch to "
                        f"{edge.dst!r}"
                    )
        else:
            for edge in outgoing[node.id]:
                if edge.guard is not None:
                    raise ConvertError(
                        f"guard {edge.guard!r} on an edge out of "
                        f"{node.kind} {node.id!r}; only decisions branch"
                    )
            if len(outgoing[node.id]) > 1:
                raise ConvertError(
                    f"{node.kind} {node.id!r} has {len(outgoing[node.id])} "
                    f"outgoing edges; an implicit split cannot be expressed"
                )
        if node.kind == "message-send":
            for edge in outgoing[node.id]:
                if nodes_by_id[edge.dst].lane == node.lane:
                    raise ConvertError(
                        f"message-send {node.id!r} sends within its own lane"
                    )
            for edge in incoming[node.id]:
                if nodes_by_id[edge.src].lane != node.lane:
                    raise ConvertError(
                        f"cross-lane edge into message-send {node.id!r}; "
                        f"the sender is unidentifiable"
                    )
        if node.kind == "message-receive":
            for edge in incoming[node.id]:
                if nodes_by_id[edge.src].lane == node.lane:
                    raise ConvertError(
                        f"message-receive {node.id!r} receives from its own lane"
                    )
            for edge in outgoing[node.id]:
                if nodes_by_id[edge.dst].lane != node.lane:
                    raise ConvertError(
                        f"cross-lane edge out of message-receive {node.id!r}; "
                        f"the receiver is unidentifiable"
                    )


def _bridge(edge: FlowEdge, src: FlowNode, dst: FlowNode) -> list[tuple[str, str, str]]:
    """The actions that bridge ``edge`` where the flow rules require, as
    ``(id, lane, kind)`` in flow order."""
    exit_kind = _NODE_ACTIONS[src.kind][-1][1]
    entry_kind = _NODE_ACTIONS[dst.kind][0][1]
    steps: list[tuple[str, str, str]] = []
    if src.lane != dst.lane:  # each side unless it already has its transfer
        if exit_kind != "transfer":
            steps += [(src.lane, "_rel", "release"), (src.lane, "_out", "transfer")]
        if entry_kind != "transfer":
            steps += [(dst.lane, "_in", "transfer"), (dst.lane, "_rcv", "receive")]
    elif (exit_kind, entry_kind) not in LEGAL_FLOW_PAIRS:
        steps = [(src.lane, suffix, kind) for suffix, kind in _SAME_LANE_BRIDGE]
    stem = f"{edge.src}_to_{edge.dst}"
    return [(f"{lane}/{stem}{suffix}", lane, kind) for lane, suffix, kind in steps]


# ---------------------------------------------------------------------------
# DOT


def to_dot(doc: Union[Document, StaticModel]) -> str:
    """Graphviz text: one cluster per thimac, boxes for actions,
    cylinders for storages, dashed edges for triggers."""
    model = doc.model if isinstance(doc, Document) else doc
    lines = [f'digraph "{escape(model.name)}" {{', "  rankdir=LR;"]
    for opening, thimac, depth in containment_walk(model):
        pad = "  " * depth
        if not opening:
            lines.append(pad + "}")
            continue
        lines.append(f'{pad}subgraph "cluster_{escape(thimac.id)}" {{')
        lines.append(f'{pad}  label="{escape(thimac.name)}";')
        for action in model.actions_of(thimac.id):
            local = action.id.rsplit("/", 1)[-1]
            lines.append(
                f'{pad}  "{escape(action.id)}" '
                f'[shape=box, label="{escape(f"{action.kind}: {local}")}"];'
            )
        for storage in model.storages_of(thimac.id):
            lines.append(
                f'{pad}  "{escape(storage.id)}" '
                f'[shape=cylinder, label="{escape(storage.name)}"];'
            )
    for flow in model.flows:
        lines.append(f'  "{escape(flow.src)}" -> "{escape(flow.dst)}";')
    for trigger in model.triggers:
        attrs = "style=dashed"
        if trigger.condition is not None:
            attrs += f', label="{escape(trigger.condition)}"'
        lines.append(
            f'  "{escape(trigger.src)}" -> "{escape(trigger.dst)}" '
            f"[{attrs}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def chronology_to_dot(chronology: ChronologyGraph) -> str:
    lines = ['digraph "chronology" {', "  rankdir=LR;"]
    for event in chronology.events:
        label = f"{escape(event.id)}\\n{escape(event.label)}"
        lines.append(f'  "{escape(event.id)}" [shape=box, label="{label}"];')
    for edge in chronology.edges:
        parts = []
        if edge.guard is not None:
            parts.append(escape(edge.guard))
        bound = chronology.loop_bounds.get((edge.src, edge.dst))
        if bound is not None:
            parts.append(f"max {bound}")
        attrs = f' [label="{"; ".join(parts)}"]' if parts else ""
        lines.append(f'  "{escape(edge.src)}" -> "{escape(edge.dst)}"{attrs};')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON

#: The model sections of a document, in document order: each one's record
#: type and ``{json key: schema}``, whose keys name the record's fields in
#: order (``from`` is ``src``, ``to`` is ``dst``); the section names are
#: ``StaticModel``'s fields.  This table is the one statement of their
#: format: ``MODEL_SCHEMA``, ``to_json`` and ``from_json`` all read it.
_SECTIONS: dict[str, tuple[type, dict[str, dict]]] = {
    "thimacs": (
        Thimac,
        {"id": _STRING, "name": _STRING, "parent": _NULLABLE, "note": _NULLABLE},
    ),
    "actions": (
        Action,
        {
            "id": _STRING,
            "kind": {"enum": list(ACTION_KINDS)},
            "owner": _STRING,
            "label": _NULLABLE,
            "anchor": _NULLABLE,
        },
    ),
    "storages": (Storage, {"id": _STRING, "owner": _STRING, "name": _STRING}),
    "flows": (Flow, {"id": _STRING, "from": _STRING, "to": _STRING}),
    "triggers": (
        Trigger,
        {"id": _STRING, "from": _STRING, "to": _STRING, "condition": _NULLABLE},
    ),
}

_CHRON_EDGE = {
    "from": _STRING,
    "to": _STRING,
    "guard": _NULLABLE,
    "max": {"type": ["integer", "null"], "minimum": 1},
}

MODEL_SCHEMA = _object(
    {
        "name": _STRING,
        **{
            section: _array(_object(properties))
            for section, (_, properties) in _SECTIONS.items()
        },
        "events": _array(
            _object(
                {
                    "id": _STRING,
                    "label": _STRING,
                    "region": _array(_STRING, minItems=1),
                }
            )
        ),
        "chronology": dict(
            _object({"edges": _array(_object(_CHRON_EDGE))}),
            type=["object", "null"],
        ),
    }
)


def to_json(doc: Union[Document, StaticModel]) -> str:
    """Canonical JSON: fixed key order, all keys present, sorted regions."""
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
    payload: dict[str, object] = {"name": model.name}
    for section, (record, properties) in _SECTIONS.items():
        keys = tuple(properties)
        row = attrgetter(*(field.name for field in fields(record)))
        payload[section] = [dict(zip(keys, row(r))) for r in getattr(model, section)]
    payload["events"] = [
        {"id": e.id, "label": e.label, "region": sorted(e.region)} for e in doc.events
    ]
    payload["chronology"] = chronology
    return json.dumps(payload, indent=2) + "\n"


def from_json(text: str) -> Document:
    """Load a document from canonical JSON.

    The model part is taken as-is -- dangling references, self-loops and
    the like are for ``validate`` to report -- but duplicate ids and
    nesting deeper than ``MAX_DEPTH`` are refused outright, and events
    and chronology must make sense.
    """
    data = decode_json(text, "document", ConvertError)
    _check_schema(data, MODEL_SCHEMA, "document")

    ids: set[str] = set()
    sections = {}
    for section, (record, properties) in _SECTIONS.items():
        entries = data[section]
        for entry in entries:
            if entry["id"] in ids:
                raise ConvertError(f"duplicate id {entry['id']!r}")
            ids.add(entry["id"])
        row = itemgetter(*properties)
        sections[section] = tuple(record(*row(entry)) for entry in entries)
    model = StaticModel(data["name"], **sections)
    check_depth(model)

    events = {}
    for entry in data["events"]:
        if entry["id"] in events:
            raise ConvertError(f"duplicate event id {entry['id']!r}")
        events[entry["id"]] = define_event(
            model, entry["id"], entry["label"], entry["region"]
        )

    chronology = None
    if data["chronology"] is not None:
        edges = []
        bounds = {}
        for entry in data["chronology"]["edges"]:
            edges.append(ChronEdge(entry["from"], entry["to"], entry["guard"]))
            if entry["max"] is not None:
                bounds[(entry["from"], entry["to"])] = int(entry["max"])
        chronology = build_chronology(events.values(), edges, bounds)

    return Document(model, tuple(events.values()), chronology)


# ---------------------------------------------------------------------------
# reports


def generate_report(doc: Document, scenarios: Iterable[Scenario] = ()) -> str:
    """Plain-text summary: thimac inventory, validation findings, event
    catalog, and a walk per requested scenario."""
    model = doc.model
    title = f"report on {model.name}"
    lines = [title, "=" * len(title), ""]

    lines += ["thimacs", "-------"]
    if not model.thimacs:
        lines.append("(none)")
    for thimac in model.thimacs:
        lines.append(
            f"- {thimac.id}: {len(model.actions_of(thimac.id))} actions, "
            f"{len(model.storages_of(thimac.id))} storages"
        )
    lines.append("")

    diagnostics = validate(model)
    errors = sum(1 for d in diagnostics if d.severity == "error")
    warnings = len(diagnostics) - errors
    lines += ["validation", "----------"]
    lines.append(f"{errors} errors, {warnings} warnings")
    for diagnostic in diagnostics:
        lines.append(f"- {diagnostic}")
    lines.append("")

    if doc.events:
        lines += ["events", "------"]
        for event in doc.events:
            lines.append(
                f"- {event.id}: {event.label} (region: {len(event.region)} actions)"
            )
        lines.append("")

    for scenario in scenarios:
        if doc.chronology is None:
            raise ConvertError("document has no chronology to walk")
        trace = simulate(doc.chronology, scenario)
        heading = f"walk: {scenario.name}"
        lines += [heading, "-" * len(heading)]
        for event_id, index in trace.steps:
            label = doc.events_by_id[event_id].label
            lines.append(f"{index + 1}. {event_id}: {label}")
        lines.append("")

    return "\n".join(lines).rstrip("\n") + "\n"
