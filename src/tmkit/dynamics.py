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
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .errors import TmkitError, decode_json
from .model import Flow, StaticModel, grouped, structurally_equal


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


_Pair = tuple[str, str]
# one entry of ChronologyGraph.step_plan: guarded, looping, fallback
_Step = tuple[tuple[tuple[str, _Pair], ...], tuple[_Pair, ...], Optional[_Pair]]


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

    @cached_property
    def edge_pairs(self) -> frozenset[_Pair]:
        """Every edge as ``(src, dst)``; ``build_chronology`` refuses a
        repeated pair, so a pair names exactly one edge."""
        return frozenset((e.src, e.dst) for e in self.edges)

    @cached_property
    def step_plan(self) -> dict[str, _Step]:
        """What ``simulate`` reads at each event with successors, in
        declaration order: the guarded edges as ``(guard, (src, dst))``,
        the bounded unguarded edges' pairs, and the first unbounded
        unguarded edge's pair (None if there is none)."""
        plan = {}
        for src, edges in self.successors.items():
            guarded = tuple(
                (e.guard, (src, e.dst)) for e in edges if e.guard is not None
            )
            unguarded = [(src, e.dst) for e in edges if e.guard is None]
            looping = tuple(p for p in unguarded if p in self.loop_bounds)
            fallback = next(
                (p for p in unguarded if p not in self.loop_bounds), None
            )
            plan[src] = (guarded, looping, fallback)
        return plan

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self.edge_pairs


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
    _require_actions(model, event_id, members)
    components = _weak_components(model, members)
    if len(components) > 1:
        raise DisconnectedRegionError(event_id, components)
    return Event(event_id, label, members)


def _require_actions(model: StaticModel, event_id: str, region: frozenset[str]) -> None:
    """Raise ``UnknownActionError`` naming the least region member that is
    not an action, so the message does not depend on set order."""
    unknown = [node for node in region if node not in model.actions_by_id]
    if unknown:
        raise UnknownActionError(
            f"event {event_id} references {min(unknown)!r}, which is not an action"
        )


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
        _require_actions(model, event.id, event.region)
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
    counts = Counter(ids)
    if len(counts) != len(ids):
        dupe = next(i for i in ids if counts[i] > 1)
        raise DynamicsError(f"duplicate event id {dupe!r}")
    known = set(counts)

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

    plan = chronology.step_plan
    decisions = scenario.decisions
    budgets = dict(chronology.loop_bounds)
    cursors: dict[str, int] = {}
    walk = [current]

    while current in plan:
        guarded, looping, fallback = plan[current]
        taken = fallback
        for guard, pair in guarded:
            choices = decisions.get(guard)
            cursor = cursors.get(guard, 0)
            if choices is None or cursor >= len(choices):
                raise ScenarioExhaustedError(
                    f"scenario {scenario.name!r} has no decision left for guard "
                    f"{guard!r} at step {len(walk) - 1}"
                )
            cursors[guard] = cursor + 1
            if choices[cursor] and budgets.get(pair, 1) > 0:
                taken = pair
                break
        else:
            for pair in looping:  # loop continuations first
                if budgets[pair] > 0:
                    taken = pair
                    break
        if taken is None:
            if guarded and not looping:
                raise NoEnabledSuccessorError(
                    f"all guards false at {current} (step {len(walk) - 1}) "
                    f"and no unguarded successor exists"
                )
            break  # only exhausted back-edges remain: the run ends here
        if taken in budgets:
            budgets[taken] -= 1
        current = taken[1]
        walk.append(current)
    return Trace(tuple(zip(walk, range(len(walk)))), scenario.name)


def conformance(trace: Trace, chronology: ChronologyGraph) -> ConformanceResult:
    """Does the trace follow chronology edges and respect loop bounds?

    Never raises; the first violation is returned as data.
    """
    def fail(step: int, message: str) -> ConformanceResult:
        return ConformanceResult(False, Violation(step, message))

    known = chronology.events_by_id
    pairs = chronology.edge_pairs
    bounds = chronology.loop_bounds
    counts: dict[tuple[str, str], int] = {}
    previous: Optional[str] = None
    for position, (event_id, index) in enumerate(trace.steps):
        if index != position:
            return fail(position, f"step index {index} out of sequence")
        if event_id not in known:
            return fail(position, f"unknown event {event_id!r}")
        if previous is not None:
            pair = (previous, event_id)
            if pair not in pairs:
                return fail(position, f"no edge {previous} -> {event_id}")
            if pair in bounds:
                counts[pair] = taken = counts.get(pair, 0) + 1
                if taken > bounds[pair]:
                    return fail(
                        position,
                        f"edge {previous} -> {event_id} taken "
                        f"{taken} times, over its loop bound {bounds[pair]}",
                    )
        previous = event_id
    return ConformanceResult(True, None)


# ---------------------------------------------------------------------------
# scenario and trace files


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse ``guard = T,F,...`` lines (``#`` comments allowed)."""
    decisions: dict[str, tuple[bool, ...]] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'guard = T,F,...'")
        label, _, values = line.rpartition("=")  # values hold no "="
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


_TRACE_STEP = '    {\n      "index": %d,\n      "event": %s\n    }'


def trace_to_json(trace: Trace) -> str:
    """The bytes ``json.dumps(payload, indent=2) + "\\n"`` writes for
    ``{"scenario": ..., "steps": [{"index": ..., "event": ...}, ...]}``,
    from a template; names go through the encoder ``json.dumps`` uses."""
    encode = json.encoder.encode_basestring_ascii
    steps = ",\n".join(
        [_TRACE_STEP % (index, encode(event)) for event, index in trace.steps]
    )
    body = f"[\n{steps}\n  ]" if steps else "[]"
    return f'{{\n  "scenario": {encode(trace.scenario)},\n  "steps": {body}\n}}\n'


def trace_from_json(text: str) -> Trace:
    payload = decode_json(text, "trace", ScenarioError)
    if not isinstance(payload, dict) or not isinstance(payload.get("steps"), list):
        raise ScenarioError("trace must be an object with a 'steps' list")
    steps = []
    for entry in payload["steps"]:
        if not isinstance(entry, dict) or "event" not in entry:
            raise ScenarioError("each trace step needs an 'event' field")
        index = entry.get("index", len(steps))
        if type(index) is not int:  # a bool, float or str is checked
            index = _step_index(index)
        event = entry["event"]
        if type(event) is not str:
            event = _name(event, "event")
        steps.append((event, index))
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
