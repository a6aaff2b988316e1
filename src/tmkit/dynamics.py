"""Events and chronologies: the dynamic layer over a static model.

An event is a region -- a weakly connected set of actions -- realized in
time.  A chronology orders events by precedence edges; branch points carry
guard labels, and back-edges carry an iteration budget so that every walk
terminates.  ``simulate`` replays a chronology under a scenario (recorded
guard decisions) and yields a trace; ``conformance`` checks a trace against
a chronology without raising.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .errors import TmkitError, decode_json
from .model import Flow, StaticModel, grouped


class DynamicsError(TmkitError):
    """Base class for event/chronology construction and simulation errors."""


class UnknownActionError(DynamicsError):
    pass


class DisconnectedRegionError(DynamicsError):
    def __init__(self, event_id: str, components: list[list[str]]):
        self.components = components
        rendered = "; ".join("{" + ", ".join(c) + "}" for c in components)
        super().__init__(
            f"region of {event_id} is not weakly connected: {rendered}"
        )


class UnknownEventError(DynamicsError):
    pass


class UnboundedCycleError(DynamicsError):
    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__(
            "cycle without a loop bound: " + " -> ".join(cycle + cycle[:1])
        )


class NoInitialEventError(DynamicsError):
    pass


class ScenarioError(DynamicsError):
    """A scenario file or decision table is malformed."""


class SimulationError(DynamicsError):
    """A run cannot proceed."""


class ScenarioExhaustedError(SimulationError):
    """A guard was consulted more times than the scenario recorded."""


class NoEnabledSuccessorError(SimulationError):
    """Every guard at a branch evaluated false and there is no fallback."""


@dataclass(frozen=True)
class Event:
    id: str
    label: str
    region: frozenset[str]


@dataclass(frozen=True)
class ChronEdge:
    src: str
    dst: str
    guard: Optional[str] = None


@dataclass(frozen=True)
class ChronologyGraph:
    events: tuple[Event, ...]
    edges: tuple[ChronEdge, ...]
    loop_bounds: Mapping[tuple[str, str], int] = field(default_factory=dict)

    @cached_property
    def events_by_id(self) -> dict[str, Event]:
        return {e.id: e for e in self.events}

    @cached_property
    def successors(self) -> dict[str, tuple[ChronEdge, ...]]:
        return grouped((edge.src, edge) for edge in self.edges)

    @cached_property
    def initial_events(self) -> tuple[str, ...]:
        targets = {e.dst for e in self.edges}
        return tuple(sorted(e.id for e in self.events if e.id not in targets))

    def has_edge(self, src: str, dst: str) -> bool:
        return any(e.dst == dst for e in self.successors.get(src, ()))


@dataclass(frozen=True)
class Scenario:
    name: str
    decisions: Mapping[str, tuple[bool, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class Trace:
    steps: tuple[tuple[str, int], ...]  # (event id, 0-based step index)
    scenario: str

    @property
    def event_ids(self) -> tuple[str, ...]:
        return tuple(event for event, _ in self.steps)


@dataclass(frozen=True)
class Violation:
    step: int
    message: str

    def __str__(self) -> str:
        return f"step {self.step}: {self.message}"


@dataclass(frozen=True)
class ConformanceResult:
    ok: bool
    violation: Optional[Violation] = None


@dataclass(frozen=True)
class Document:
    """A static model bundled with its dynamic layer."""

    model: StaticModel
    events: tuple[Event, ...] = ()
    chronology: Optional[ChronologyGraph] = None

    @cached_property
    def events_by_id(self) -> dict[str, Event]:
        return {e.id: e for e in self.events}


# ---------------------------------------------------------------------------
# events


def define_event(
    model: StaticModel, event_id: str, label: str, region: Iterable[str]
) -> Event:
    """Build an event after checking its region against the model.

    The region must be a nonempty set of action ids that is weakly
    connected under flows and triggers; storages adjacent to region
    actions count as connecting tissue (a region that touches a storage
    from both sides is one region, not two).
    """
    members = frozenset(region)
    if not members:
        raise DynamicsError(f"event {event_id} has an empty region")
    for node in sorted(members):
        if node not in model.actions_by_id:
            raise UnknownActionError(
                f"event {event_id} references {node!r}, which is not an action"
            )
    components = _weak_components(model, members)
    if len(components) > 1:
        raise DisconnectedRegionError(event_id, components)
    return Event(event_id, label, members)


def _weak_components(model: StaticModel, members: frozenset[str]) -> list[list[str]]:
    """Weak components of the region, as sorted member lists ordered by
    their least vertex.  Storages on a flow with a member endpoint join the
    graph as vertices, so only edges incident to the region are visited."""
    bridge_storages = {
        node
        for member in members
        for edge in model.edges_at.get(member, ())
        if isinstance(edge, Flow)
        for node in (edge.src, edge.dst)
        if node in model.storages_by_id
    }
    vertices = members | bridge_storages
    components: list[list[str]] = []
    unvisited = set(vertices)
    for start in sorted(vertices):
        if start not in unvisited:
            continue
        stack = [start]
        unvisited.discard(start)
        component = []
        while stack:
            node = stack.pop()
            if node in members:
                component.append(node)
            for edge in model.edges_at.get(node, ()):
                for nxt in (edge.src, edge.dst):
                    if nxt in unvisited:
                        unvisited.discard(nxt)
                        stack.append(nxt)
        if component:
            components.append(sorted(component))
    return components


def check_coverage(model: StaticModel, events: Iterable[Event]) -> tuple[str, ...]:
    """Action ids that appear in no event's region, sorted."""
    covered: set[str] = set()
    for event in events:
        for node in event.region:
            if node not in model.actions_by_id:
                raise UnknownActionError(
                    f"event {event.id} references {node!r}, which is not an action"
                )
        covered |= event.region
    return tuple(sorted(set(model.actions_by_id) - covered))


# ---------------------------------------------------------------------------
# chronology


def build_chronology(
    events: Iterable[Event],
    edges: Iterable[ChronEdge | tuple],
    loop_bounds: Optional[Mapping[tuple[str, str], int]] = None,
) -> ChronologyGraph:
    """Assemble a chronology, rejecting unknown events, unbounded cycles,
    and graphs with no initial (in-degree zero) event."""
    event_tuple = tuple(events)
    ids = [e.id for e in event_tuple]
    if len(ids) != len(set(ids)):
        dupe = next(i for i in ids if ids.count(i) > 1)
        raise DynamicsError(f"duplicate event id {dupe!r}")
    known = set(ids)

    edge_tuple = tuple(
        e if isinstance(e, ChronEdge) else ChronEdge(*e) for e in edges
    )
    for edge in edge_tuple:
        for ref in (edge.src, edge.dst):
            if ref not in known:
                raise UnknownEventError(f"chronology references unknown event {ref!r}")

    edge_pairs: set[tuple[str, str]] = set()
    for edge in edge_tuple:
        if (edge.src, edge.dst) in edge_pairs:
            raise DynamicsError(
                f"duplicate chronology edge {edge.src} -> {edge.dst}"
            )
        edge_pairs.add((edge.src, edge.dst))

    bounds = dict(loop_bounds or {})
    for pair, budget in bounds.items():
        if pair not in edge_pairs:
            raise UnknownEventError(
                f"loop bound on nonexistent edge {pair[0]} -> {pair[1]}"
            )
        if budget < 1:
            raise DynamicsError(
                f"loop bound on {pair[0]} -> {pair[1]} must be at least 1"
            )

    cycle = _find_cycle(
        known, [(e.src, e.dst) for e in edge_tuple if (e.src, e.dst) not in bounds]
    )
    if cycle is not None:
        raise UnboundedCycleError(cycle)

    graph = ChronologyGraph(event_tuple, edge_tuple, bounds)
    if event_tuple and not graph.initial_events:
        raise NoInitialEventError("every event has a predecessor")
    return graph


def _find_cycle(
    vertices: set[str], edges: list[tuple[str, str]]
) -> Optional[list[str]]:
    """The first cycle a depth-first search from the least vertex meets,
    as the path from its entry vertex; None for an acyclic graph.  The
    search keeps its own stack, so path length is not bounded by Python's
    recursion limit."""
    adjacency: dict[str, list[str]] = {}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {v: WHITE for v in vertices}

    for vertex in sorted(vertices):
        if color[vertex] != WHITE:
            continue
        color[vertex] = GREY
        path = [vertex]
        pending = [iter(adjacency.get(vertex, ()))]
        while pending:
            for nxt in pending[-1]:
                if color[nxt] == GREY:
                    return path[path.index(nxt):]
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    path.append(nxt)
                    pending.append(iter(adjacency.get(nxt, ())))
                    break
            else:
                color[path.pop()] = BLACK
                pending.pop()
    return None


# ---------------------------------------------------------------------------
# simulation


def simulate(chronology: ChronologyGraph, scenario: Scenario) -> Trace:
    """Deterministic walk of a chronology under recorded decisions.

    At each event, guarded successor edges are consulted in declaration
    order, consuming the next recorded choice for their guard label; the
    first edge whose guard holds (and whose loop budget, if any, is not
    exhausted) is taken.  Failing that, an unguarded back-edge with
    remaining budget is preferred over a plain unguarded edge, so loops
    run until their budget hits zero and then fall through to the
    alternative.  The walk ends at an event with no takeable successor;
    a branch whose guards all evaluate false with no fallback is an error.
    """
    if not chronology.initial_events:
        raise NoInitialEventError("chronology has no initial event")
    current = chronology.initial_events[0]

    budgets = dict(chronology.loop_bounds)
    cursors: dict[str, int] = {}
    steps: list[tuple[str, int]] = [(current, 0)]

    while True:
        candidates = chronology.successors.get(current, ())
        if not candidates:
            break
        taken = _pick_edge(candidates, budgets, cursors, scenario, len(steps) - 1)
        if taken is None:
            break
        pair = (taken.src, taken.dst)
        if pair in budgets:
            budgets[pair] -= 1
        current = taken.dst
        steps.append((current, len(steps)))
    return Trace(tuple(steps), scenario.name)


def _pick_edge(
    candidates: Sequence[ChronEdge],
    budgets: dict[tuple[str, str], int],
    cursors: dict[str, int],
    scenario: Scenario,
    step: int,
) -> Optional[ChronEdge]:
    def blocked(edge: ChronEdge) -> bool:
        return budgets.get((edge.src, edge.dst), 1) <= 0

    guarded = [e for e in candidates if e.guard is not None]
    for edge in guarded:
        choices = scenario.decisions.get(edge.guard)
        cursor = cursors.get(edge.guard, 0)
        if choices is None or cursor >= len(choices):
            raise ScenarioExhaustedError(
                f"scenario {scenario.name!r} has no decision left for guard "
                f"{edge.guard!r} at step {step}"
            )
        cursors[edge.guard] = cursor + 1
        if choices[cursor] and not blocked(edge):
            return edge

    unguarded = [e for e in candidates if e.guard is None]
    for edge in unguarded:  # loop continuations first
        if (edge.src, edge.dst) in budgets and not blocked(edge):
            return edge
    for edge in unguarded:
        if (edge.src, edge.dst) not in budgets:
            return edge

    if guarded and not unguarded:
        raise NoEnabledSuccessorError(
            f"all guards false at {candidates[0].src} (step {step}) and no "
            f"unguarded successor exists"
        )
    return None  # only exhausted back-edges remain: the run ends here


def conformance(trace: Trace, chronology: ChronologyGraph) -> ConformanceResult:
    """Does the trace follow chronology edges and respect loop bounds?

    Never raises; the first violation is returned as data.
    """
    def fail(step: int, message: str) -> ConformanceResult:
        return ConformanceResult(False, Violation(step, message))

    counts: dict[tuple[str, str], int] = {}
    previous: Optional[str] = None
    for position, (event_id, index) in enumerate(trace.steps):
        if index != position:
            return fail(position, f"step index {index} out of sequence")
        if event_id not in chronology.events_by_id:
            return fail(position, f"unknown event {event_id!r}")
        if previous is not None:
            if not chronology.has_edge(previous, event_id):
                return fail(position, f"no edge {previous} -> {event_id}")
            pair = (previous, event_id)
            if pair in chronology.loop_bounds:
                counts[pair] = counts.get(pair, 0) + 1
                if counts[pair] > chronology.loop_bounds[pair]:
                    return fail(
                        position,
                        f"edge {previous} -> {event_id} taken "
                        f"{counts[pair]} times, over its loop bound "
                        f"{chronology.loop_bounds[pair]}",
                    )
        previous = event_id
    return ConformanceResult(True, None)


# ---------------------------------------------------------------------------
# scenario and trace files


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse ``guard = T,F,...`` lines (``#`` comments allowed)."""
    decisions: dict[str, tuple[bool, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'guard = T,F,...'")
        label, _, values = line.partition("=")
        label = label.strip()
        if not label:
            raise ScenarioError(f"line {lineno}: empty guard label")
        if label in decisions:
            raise ScenarioError(f"line {lineno}: duplicate guard {label!r}")
        choices = []
        for token in values.split(","):
            token = token.strip()
            if token == "T":
                choices.append(True)
            elif token == "F":
                choices.append(False)
            else:
                raise ScenarioError(
                    f"line {lineno}: expected T or F, found {token!r}"
                )
        decisions[label] = tuple(choices)
    return Scenario(name, decisions)


def trace_to_json(trace: Trace) -> str:
    payload = {
        "scenario": trace.scenario,
        "steps": [
            {"index": index, "event": event} for event, index in trace.steps
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def trace_from_json(text: str) -> Trace:
    payload = decode_json(text, "trace", ScenarioError)
    if not isinstance(payload, dict) or not isinstance(payload.get("steps"), list):
        raise ScenarioError("trace must be an object with a 'steps' list")
    steps = []
    for entry in payload["steps"]:
        if not isinstance(entry, dict) or "event" not in entry:
            raise ScenarioError("each trace step needs an 'event' field")
        index = _step_index(entry.get("index", len(steps)))
        steps.append((_name(entry["event"], "event"), index))
    return Trace(tuple(steps), _name(payload.get("scenario", "trace"), "scenario"))


def _name(raw: object, what: str) -> str:
    if not isinstance(raw, str):
        raise ScenarioError(f"trace {what} {raw!r} is not a string")
    return raw


def _step_index(raw: object) -> int:
    """An int, an integral float, or a string ``int()`` reads.  A bool or a
    fractional float is refused, though ``int()`` would take it."""
    if not isinstance(raw, bool) and not (
        isinstance(raw, float) and not raw.is_integer()
    ):
        try:
            return int(raw)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ScenarioError(f"trace step index {raw!r} is not an integer")


def structurally_equal_documents(a: Document, b: Document) -> bool:
    from .model import structurally_equal

    if not structurally_equal(a.model, b.model):
        return False
    if {e.id: (e.label, e.region) for e in a.events} != {
        e.id: (e.label, e.region) for e in b.events
    }:
        return False
    ca, cb = a.chronology, b.chronology
    if (ca is None) != (cb is None):
        return False
    if ca is None or cb is None:
        return True
    if {e.id for e in ca.events} != {e.id for e in cb.events}:
        return False
    if sorted((e.src, e.dst, e.guard or "") for e in ca.edges) != sorted(
        (e.src, e.dst, e.guard or "") for e in cb.edges
    ):
        return False
    return dict(ca.loop_bounds) == dict(cb.loop_bounds)
