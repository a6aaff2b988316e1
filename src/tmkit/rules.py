"""The model rules: ``validate`` checks rules R1-R8, and ``simplify``
collapses the transport machinery.  Only ``check``, ``report`` and
``simplify`` run them, so only those commands load this module.
"""
from __future__ import annotations

from collections import deque
from itertools import groupby
from operator import itemgetter
from typing import Iterator, Optional

from .errors import TmkitError
from .model import (
    LEGAL_FLOW_PAIRS,
    TRANSPORT_KINDS,
    Diagnostic,
    Flow,
    StaticModel,
    Trigger,
    fresh_ids,
    grouped,
)


class SimplifyError(TmkitError):
    """``simplify`` refused a model that has validation errors."""

    def __init__(self, diagnostics: tuple["Diagnostic", ...]):
        self.diagnostics = diagnostics
        lines = ", ".join(str(d) for d in diagnostics)
        super().__init__(f"model has validation errors: {lines}")


def tally(diagnostics: tuple[Diagnostic, ...]) -> str:
    """The ``N errors, M warnings`` line that counts ``diagnostics``."""
    errors = sum(1 for d in diagnostics if d.severity == "error")
    return f"{errors} errors, {len(diagnostics) - errors} warnings"


# ---------------------------------------------------------------------------
# validation


def validate(model: StaticModel) -> tuple[Diagnostic, ...]:
    """Check rules R1-R8 and return diagnostics in a fixed order.

    Never raises: structurally broken models (dangling references,
    containment cycles) come back as R5/R6 errors.
    """
    flows, triggers = _resolved(model, model.flows), _resolved(model, model.triggers)
    out: list[Diagnostic] = []
    out.extend(_check_flow_legality(flows))  # R1 + R2
    out.extend(_check_receive_inputs(model, flows))  # R3
    out.extend(_check_trigger_sources(model))  # R4
    out.extend(_check_containment(model))  # R5
    out.extend(_check_references(model))  # R6
    out.extend(_check_self_loops(model))  # R7
    out.extend(_check_reachability(model, flows + triggers))  # R8
    return tuple(out)


def _errors(model: StaticModel) -> tuple[Diagnostic, ...]:
    """``validate``'s errors, in its order, from the rules that can find
    one; R3, R4 and R8 only warn."""
    out: list[Diagnostic] = []
    out.extend(_check_flow_legality(_resolved(model, model.flows)))  # R1 + R2
    out.extend(_check_containment(model))  # R5
    out.extend(_check_references(model))  # R6
    out.extend(_check_self_loops(model))  # R7
    return tuple(out)


def _resolved(model: StaticModel, edges: tuple) -> list:
    """Each edge whose endpoints both exist, with their ``(kind, owner)``;
    an edge with a missing endpoint is judged by R6 alone."""
    nodes = model.nodes
    return [
        (edge, nodes[edge.src], nodes[edge.dst])
        for edge in edges
        if edge.src in nodes and edge.dst in nodes
    ]


def _check_flow_legality(flows) -> Iterator[Diagnostic]:
    for flow, (src_kind, src_owner), (dst_kind, dst_owner) in flows:
        if src_owner == dst_owner:
            if (src_kind, dst_kind) not in LEGAL_FLOW_PAIRS:
                yield Diagnostic(
                    "error",
                    "R1",
                    flow.id,
                    f"flow {flow.src} -> {flow.dst} connects "
                    f"{src_kind} to {dst_kind}, which is not a legal pair "
                    f"inside one thimac",
                )
        elif not (src_kind == "transfer" and dst_kind == "transfer"):
            yield Diagnostic(
                "error",
                "R2",
                flow.id,
                f"flow {flow.src} -> {flow.dst} crosses thimacs but is "
                f"{src_kind} to {dst_kind}; only transfer to transfer may "
                f"cross",
            )


def _check_receive_inputs(model, flows) -> Iterator[Diagnostic]:
    fed = {flow.dst for flow, (src_kind, _), _ in flows if src_kind == "transfer"}
    for action in model.actions:
        if action.kind == "receive" and action.id not in fed:
            yield Diagnostic(
                "warning",
                "R3",
                action.id,
                "receive has no incoming flow from a transfer",
            )


def _check_trigger_sources(model) -> Iterator[Diagnostic]:
    for trigger in model.triggers:
        kind = model.node_kind(trigger.src)
        if kind is not None and kind not in ("process", "create"):
            yield Diagnostic(
                "warning",
                "R4",
                trigger.id,
                f"trigger source {trigger.src} is a {kind}; triggers "
                f"normally originate at a process or create",
            )


def _check_containment(model) -> Iterator[Diagnostic]:
    # Every thimac whose chain meets a cycle is reported, except a cycle
    # member once an earlier thimac has met its cycle (each cycle is known
    # by its first member).
    met: set[str] = set()
    for thimac in model.thimacs:
        _, cycle, place = model.ancestry[thimac.id]
        if not cycle or (cycle[place] == thimac.id and cycle[0] in met):
            continue
        met.add(cycle[0])
        loop = (*cycle[place:], *cycle[:place], cycle[place])
        yield Diagnostic(
            "error", "R5", thimac.id, "containment cycle: " + " -> ".join(loop)
        )


def _check_references(model) -> Iterator[Diagnostic]:
    def dangling(subject: str, ref: str, what: str) -> Diagnostic:
        return Diagnostic("error", "R6", subject, f"{what} {ref!r} does not exist")

    for thimac in model.thimacs:
        if thimac.parent is not None and thimac.parent not in model.thimacs_by_id:
            yield dangling(thimac.id, thimac.parent, "parent thimac")
    for node in (*model.actions, *model.storages):
        if node.owner not in model.thimacs_by_id:
            yield dangling(node.id, node.owner, "owner thimac")
    for edge in (*model.flows, *model.triggers):
        for ref in (edge.src, edge.dst):
            if ref not in model.nodes:
                yield dangling(edge.id, ref, "endpoint")


def _check_self_loops(model) -> Iterator[Diagnostic]:
    # The builder refuses self-loops, but models assembled directly or
    # deserialized from JSON may still carry them.
    for edge in (*model.flows, *model.triggers):
        if edge.src == edge.dst:
            yield Diagnostic(
                "error", "R7", edge.id, f"self-loop on {edge.src}"
            )


def _check_reachability(model, edges) -> Iterator[Diagnostic]:
    adjacency = grouped((edge.src, edge.dst) for edge, _, _ in edges)
    seeds = [a.id for a in model.actions if a.kind in ("create", "receive")]
    reached = set(seeds)
    frontier = list(seeds)
    while frontier:
        node = frontier.pop()
        for nxt in adjacency.get(node, ()):
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    for action in model.actions:
        if action.id not in reached:
            yield Diagnostic(
                "warning",
                "R8",
                action.id,
                "action cannot be reached from any create or receive",
            )


# ---------------------------------------------------------------------------
# simplification


def simplify(model: StaticModel) -> StaticModel:
    """Collapse transport machinery (release/transfer/receive).

    Every flow path ``a -> (transport)+ -> b`` between surviving nodes
    becomes the direct flow ``a -> b``; triggers with a removed endpoint
    are re-anchored to the nearest surviving node along the removed chain.
    The input model is left untouched.

    A model with nothing to remove is returned as-is.  That makes the
    pass idempotent: its own output is an abstraction whose direct flows
    no longer obey the transport legality rules, and must not be turned
    away by the error gate below.
    """
    removed = {a.id for a in model.actions if a.kind in TRANSPORT_KINDS}
    if not removed:
        return model

    errors = _errors(model)
    if errors:
        raise SimplifyError(errors)
    kept_actions = tuple(a for a in model.actions if a.id not in removed)

    flows: list[Flow] = []
    present: set[tuple[str, str]] = set()
    for flow in model.flows:
        if flow.src not in removed and flow.dst not in removed:
            flows.append(flow)
            present.add((flow.src, flow.dst))

    triggers: list[Trigger] = []
    for trigger in model.triggers:
        src, dst = trigger.src, trigger.dst
        if src in removed:
            src = _nearest_surviving(model, src, removed, forward=False)
        if dst in removed:
            dst = _nearest_surviving(model, dst, removed, forward=True)
        if src is None or dst is None or src == dst:
            continue
        triggers.append(Trigger(trigger.id, src, dst, trigger.condition))

    # New flows are flow_s1, flow_s2, ..., skipping ids the output keeps.
    parts = (model.thimacs, kept_actions, model.storages, flows, triggers)
    new_ids = fresh_ids("flow_s", {element.id for part in parts for element in part})
    for flow in model.flows:
        # Chase each surviving node's outgoing flows through removed nodes.
        if flow.src in removed or flow.dst not in removed:
            continue
        start = flow.src
        for _, end in _through_removed(model, flow.dst, removed, forward=True):
            if end == start or (start, end) in present:
                continue
            flows.append(Flow(next(new_ids), start, end))
            present.add((start, end))

    return model._replace(
        actions=kept_actions, flows=tuple(flows), triggers=tuple(triggers)
    )


def _through_removed(
    model: StaticModel, first: str, removed: set[str], forward: bool
) -> Iterator[tuple[int, str]]:
    """Surviving nodes reachable from ``first`` via removed nodes only, each
    with its distance in flows, lazily in breadth-first discovery order.
    ``first`` must itself be removed."""
    flows = model.flows_from if forward else model.flows_into
    seen = {first}
    queue = deque([(first, 0)])
    while queue:
        node, depth = queue.popleft()
        for edge in flows.get(node, ()):
            nxt = edge.dst if forward else edge.src
            if nxt in seen:
                continue
            seen.add(nxt)
            if nxt in removed:
                queue.append((nxt, depth + 1))
            else:
                yield depth + 1, nxt


def _nearest_surviving(
    model: StaticModel, node: str, removed: set[str], forward: bool
) -> Optional[str]:
    """Closest surviving node along flows from ``node``; lexicographically
    smallest id on a distance tie, None when the chain dead-ends."""
    found = _through_removed(model, node, removed, forward)
    for _, ties in groupby(found, itemgetter(0)):
        return min(survivor for _, survivor in ties)
    return None
