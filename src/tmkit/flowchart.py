"""Swimlane flowcharts: read a chart (JSON) and rebuild it as a model.

A chart's lanes become thimacs, and each node becomes the actions that
``_NODE_ACTIONS`` lists for its kind.  Every hop that the flow rules
forbid -- activity to activity, lane to lane -- is legalized by inserting
the release/transfer/receive machinery that a chart leaves implicit.
Guarded branches out of a decision become triggers, so the decision
logic survives the trip.

A chart is checked against ``FLOWCHART_SCHEMA`` by the schema checker in
``convert``, and refused with its :class:`ConvertError`.  Only ``tmkit
import`` loads this module.
"""
from __future__ import annotations

from collections import namedtuple

from .convert import _STRING, ConvertError, _array, _check_schema, _object
from .dynamics import _WORD
from .errors import decode_json
from .model import LEGAL_FLOW_PAIRS, ModelBuilder, StaticModel

_IDENT = f"^{_WORD}$"  # a chart id is one word of the DSL
_NAME = {"type": "string", "pattern": _IDENT}

FLOW_NODE_KINDS = (
    "start",
    "end",
    "activity",
    "decision",
    "message-send",
    "message-receive",
)

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


class FlowNode(namedtuple("FlowNode", "id lane kind label", defaults=(None,))):
    __slots__ = ()


class FlowEdge(namedtuple("FlowEdge", "src dst guard", defaults=(None,))):
    __slots__ = ()


class FlowchartDoc(
    namedtuple("FlowchartDoc", "name lanes nodes edges description", defaults=(None,))
):
    __slots__ = ()


def load_flowchart(text: str) -> FlowchartDoc:
    data = decode_json(text, "flowchart", ConvertError)
    _check_schema(data, FLOWCHART_SCHEMA, "flowchart")

    lanes = tuple(data["lanes"])
    lane_set = set(lanes)
    if len(lane_set) != len(lanes):
        raise ConvertError("flowchart declares a lane twice")
    nodes = tuple(FlowNode(*map(n.get, _CHART_NODE)) for n in data["nodes"])
    seen: set[str] = set()
    for node in nodes:
        if node.id in seen:
            raise ConvertError(f"duplicate node id {node.id!r}")
        seen.add(node.id)
        if node.lane not in lane_set:
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
    # The edges, in the order they are made, go in after every action.  Each
    # action id holds a '/', and the lanes come first, so the auto ids are
    # those of adding each edge as it is made.
    flows: list[tuple[str, str]] = []
    triggers: list[tuple[str, str, str]] = []

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
        flows += zip(ids, ids[1:])

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
        flows += zip(chain, chain[1:])
        if edge.guard is not None:  # at the first node the token moves to
            triggers.append((f"{src.lane}/{src.id}", chain[1], edge.guard))

    builder.add_flows(flows)
    builder.add_triggers(triggers)
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
