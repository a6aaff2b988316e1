"""Events and chronologies: the dynamic layer over a static model.

An event is a region -- a weakly connected set of actions -- realized in
time.  A chronology orders events by precedence edges; branch points carry
guard labels, and back-edges carry an iteration budget so that every walk
terminates.  ``simulate`` replays a chronology under a scenario (recorded
guard decisions) and yields a trace; ``conformance`` checks a trace against
a chronology without raising.
"""
from __future__ import annotations

import re
from collections import Counter, namedtuple
from functools import cached_property
from itertools import starmap
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .errors import TmkitError, _list, _template, decode_json
from .model import Flow, Frozen, StaticModel, grouped, structurally_equal


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


class Event(namedtuple("Event", "id label region")):
    """``region`` is a frozenset of action ids."""

    __slots__ = ()


class ChronEdge(namedtuple("ChronEdge", "src dst guard", defaults=(None,))):
    __slots__ = ()


_Pair = tuple[str, str]
# one entry of ChronologyGraph.step_plan: guarded, looping, fallback
_Step = tuple[tuple[tuple[str, _Pair], ...], tuple[_Pair, ...], Optional[_Pair]]


class ChronologyGraph(Frozen):
    """Events, the edges between them, and each bounded edge's budget as
    ``{(src, dst): bound}`` (a fresh empty dict by default)."""

    _fields = ("events", "edges", "loop_bounds")

    def __init__(
        self,
        events: tuple[Event, ...],
        edges: tuple[ChronEdge, ...],
        loop_bounds: Optional[Mapping[tuple[str, str], int]] = None,
    ) -> None:
        self._set(events, edges, {} if loop_bounds is None else loop_bounds)

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


class Scenario(
    namedtuple("Scenario", "name decisions", defaults=(MappingProxyType({}),))
):
    """``decisions`` maps each guard to its recorded choices, in order."""

    __slots__ = ()


class Trace(namedtuple("Trace", "steps scenario")):
    """``steps`` holds ``(event id, 0-based step index)`` pairs."""

    __slots__ = ()

    @property
    def event_ids(self) -> tuple[str, ...]:
        return tuple(event for event, _ in self.steps)


class Violation(namedtuple("Violation", "step message")):
    __slots__ = ()

    def __str__(self) -> str:
        return f"step {self.step}: {self.message}"


class ConformanceResult(
    namedtuple("ConformanceResult", "ok violation", defaults=(None,))
):
    __slots__ = ()


class Document(Frozen):
    """A static model bundled with its dynamic layer."""

    _fields = ("model", "events", "chronology")

    def __init__(
        self,
        model: StaticModel,
        events: tuple[Event, ...] = (),
        chronology: Optional[ChronologyGraph] = None,
    ) -> None:
        self._set(model, events, chronology)

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
    actions = model.actions_by_id
    if not actions.keys() >= region:
        unknown = min(node for node in region if node not in actions)
        raise UnknownActionError(
            f"event {event_id} references {unknown!r}, which is not an action"
        )


def _weak_components(model: StaticModel, members: frozenset[str]) -> list[list[str]]:
    """Weak components of the region, as sorted member lists ordered by
    their least vertex.  Storages on a flow with a member endpoint join the
    graph as vertices, so only edges incident to the region are visited.
    A search from any member that reaches every member settles a connected
    region; only a disconnected one is searched again in order."""
    edges_at, storages = model.edges_at, model.storages_by_id
    vertices = set(members)
    for member in members:
        for edge in edges_at.get(member, ()):
            if isinstance(edge, Flow):
                if edge.src in storages:
                    vertices.add(edge.src)
                if edge.dst in storages:
                    vertices.add(edge.dst)
    first = next(iter(members))
    if len(_reach(edges_at, first, set(vertices), members)) == len(members):
        return [sorted(members)]
    components = []
    for start in sorted(vertices):
        if start in vertices:
            component = _reach(edges_at, start, vertices, members)
            if component:
                components.append(sorted(component))
    return components


def _reach(
    edges_at: Mapping[str, list],
    start: str,
    unvisited: set[str],
    members: frozenset[str],
) -> list[str]:
    """The members that ``start`` reaches through ``unvisited``, which
    loses every vertex the search takes.  The search stops once it has
    reached every member."""
    unvisited.discard(start)
    stack, reached = [start], [start] if start in members else []
    while stack and len(reached) < len(members):
        for edge in edges_at.get(stack.pop(), ()):
            for node in (edge.src, edge.dst):
                if node in unvisited:
                    unvisited.discard(node)
                    stack.append(node)
                    if node in members:
                        reached.append(node)
    return reached


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

    edge_tuple = tuple(starmap(ChronEdge, edges))
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
    """Does the trace start at an initial event, follow chronology edges
    and respect loop bounds?

    Never raises; the first violation is returned as data.  The trace is
    checked a column at a time first (``_conforms``); only one that fails
    is walked step by step (``_first_violation``), which words the
    violation, so the walk stays the one source of each message.
    """
    if _conforms(trace.steps, chronology):
        return ConformanceResult(True, None)
    return _first_violation(trace, chronology)


def _conforms(steps: tuple[tuple[str, int], ...], chronology: ChronologyGraph) -> bool:
    """Whether ``_first_violation`` finds none in ``steps``, decided over
    whole columns with C-level builtins: the indices are ``range(n)``,
    every event is known, the first is initial, every pair of consecutive
    steps is an edge, and no bounded edge is taken more often than its
    bound.  A step that is no pair, or an event that cannot be hashed,
    is left to the walk."""
    if not steps:
        return True
    try:
        events, indices = zip(*steps, strict=True)
        if not chronology.events_by_id.keys() >= set(events):
            return False
    except (TypeError, ValueError):
        return False
    if indices != tuple(range(len(indices))):
        return False
    if events[0] not in chronology.initial_events:
        return False
    taken = Counter(zip(events, events[1:]))
    return taken.keys() <= chronology.edge_pairs and all(
        taken[pair] <= bound for pair, bound in chronology.loop_bounds.items()
    )


def _first_violation(trace: Trace, chronology: ChronologyGraph) -> ConformanceResult:
    """The walk: the first step that breaks the chronology, as data."""
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
        if previous is None:
            if event_id not in chronology.initial_events:
                return fail(position, f"{event_id} is not an initial event")
        else:
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


#: A string literal as the DSL writes it, which ``dsl`` lexes with and a
#: scenario line may quote its guard in.  \\ and \" are escapes and any
#: other backslash is text; a string ends on its own line.  The close is
#: optional, so the greedy first try matches and never backtracks to read a
#: final \" as text: a reader checks the ``CLOSE`` group.
_OPEN_STRING = r'"[^"\\\n]*(?:\\[\\"]?[^"\\\n]*)*'  # all but the close
_STRING = f'{_OPEN_STRING}(?P<CLOSE>")?'
_STRING_RE = re.compile(_STRING)
_ESCAPE_RE = re.compile(r'\\([\\"])')


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse ``guard = T,F,...`` lines (``#`` comments allowed).  A line
    whose first non-blank character is ``"`` quotes its guard as the DSL
    quotes a string; any other line's guard is the text before its last
    ``=``, stripped."""
    decisions: dict[str, tuple[bool, ...]] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.lstrip()
        if line.startswith('"'):
            label, values = _quoted_guard(line, lineno)
        else:
            line = line.split("#", 1)[0].rstrip()
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


def _quoted_guard(line: str, lineno: int) -> tuple[str, str]:
    """The guard and the values of a scenario line that starts with ``"``."""
    match = _STRING_RE.match(line)
    if match["CLOSE"] is None:
        raise ScenarioError(f"line {lineno}: expected '\"' to close the guard")
    rest = line[match.end():].split("#", 1)[0].strip()
    if not rest.startswith("="):
        raise ScenarioError(f"line {lineno}: expected '=' after the quoted guard")
    return _ESCAPE_RE.sub(r"\1", match.group()[1:-1]), rest[1:]


_TRACE = _template(("scenario", "steps"), 0) + "\n"
_TRACE_STEP = _template(("index", "event"), 2)


def trace_to_json(trace: Trace) -> str:
    """The bytes ``json.dumps(payload, indent=2) + "\\n"`` writes for
    ``{"scenario": ..., "steps": [{"index": ..., "event": ...}, ...]}``,
    from templates; names go through the encoder ``json.dumps`` uses.
    Each distinct event is encoded once, into a step template that keeps
    ``%d`` for the index, so a bool or integral float in a hand-built
    trace still writes a JSON integer.  The steps' templates make one
    template for the whole trace, and one ``%`` fills in every index."""
    # here, so that commands that write no JSON never load it
    from json.encoder import encode_basestring_ascii as encode

    def literal(name: str) -> str:  # ``name`` encoded, as template text
        return encode(name).replace("%", "%%")

    if not trace.steps:
        return _TRACE % (encode(trace.scenario), "[]")
    events, indices = zip(*trace.steps, strict=True)  # every step a pair
    templates = {event: _TRACE_STEP % ("%d", literal(event)) for event in set(events)}
    steps = _list(list(map(templates.__getitem__, events)), 1)
    return _TRACE % (literal(trace.scenario), steps) % indices


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
    if a.events_by_id != b.events_by_id:
        return False
    ca, cb = a.chronology, b.chronology
    if (ca is None) != (cb is None):
        return False
    if ca is None or cb is None:
        return True
    if {e.id for e in ca.events} != {e.id for e in cb.events}:
        return False
    if Counter(ca.edges) != Counter(cb.edges):
        return False
    return dict(ca.loop_bounds) == dict(cb.loop_bounds)
