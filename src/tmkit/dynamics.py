"""Events and chronologies: the dynamic layer over a static model.

An event is a region -- a weakly connected set of actions -- realized in
time.  A chronology orders events by precedence edges; branch points carry
guard labels, and back-edges carry an iteration budget so that every walk
terminates.  Walking a chronology -- scenarios, ``simulate``, traces and
``conformance`` -- is in ``walk``, which only the commands that walk load.

The lexical rules that the DSL's reader and its writer share, with
scenario files and the DOT writers, are stated here too, since every model
command loads this module: the string literal, a word, a name and an
integer, the keywords, how a name resolves inside a thimac, and
``escape``.  So the writer (``format_document``) asks these patterns, not
the lexer, whether a word reads back, and a command that writes model text
without reading any (``import``, ``simplify x.json``) loads no ``dsl``.
"""
from __future__ import annotations

import re
from collections import Counter, namedtuple
from functools import cached_property
from itertools import starmap
from typing import Container, Iterable, Mapping, Optional

from .errors import TmkitError
from .model import ACTION_KINDS, Flow, Frozen, StaticModel, grouped, structurally_equal


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


class Event(namedtuple("Event", "id label region")):
    """``region`` is a frozenset of action ids."""

    __slots__ = ()


class ChronEdge(namedtuple("ChronEdge", "src dst guard", defaults=(None,))):
    __slots__ = ()


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
    def edge_pairs(self) -> frozenset[tuple[str, str]]:
        """Every edge as ``(src, dst)``; ``build_chronology`` refuses a
        repeated pair, so a pair names exactly one edge."""
        return frozenset((e.src, e.dst) for e in self.edges)

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self.edge_pairs


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
# lexical rules


#: A string literal as the DSL writes it, which ``dsl`` lexes with and a
#: scenario line may quote its guard in.  \\ and \" are escapes and any
#: other backslash is text; a string ends on its own line.  The close is
#: optional, so the greedy first try matches and never backtracks to read a
#: final \" as text: a reader checks the ``CLOSE`` group.
_OPEN_STRING = r'"[^"\\\n]*(?:\\[\\"]?[^"\\\n]*)*'  # all but the close
_STRING = f'{_OPEN_STRING}(?P<CLOSE>")?'
_STRING_RE = re.compile(_STRING)
_ESCAPE_RE = re.compile(r'\\([\\"])')

#: A name of the DSL is words joined by '/'; a chart id is one word.
_WORD = "[A-Za-z_][A-Za-z0-9_]*"
_NAME = f"{_WORD}(?:/{_WORD})*"
_INT = "[0-9]+"  # not \d, which takes any Unicode digit

#: The words that open a declaration or a clause; none names a node.
KEYWORDS = frozenset(
    {
        "model",
        "thimac",
        "storage",
        "events",
        "event",
        "chronology",
        "if",
        "max",
        *ACTION_KINDS,
    }
)


class FormatError(TmkitError):
    """A model cannot be written back as text without changing meaning."""


def _resolve(name: str, owner: Optional[str], nodes: Container[str]) -> Optional[str]:
    """The node ``name`` means inside thimac ``owner``: ``owner/name`` if
    that exists, else the same from each enclosing ``/``-prefix of
    ``owner`` outward, down to ``name`` itself; None if none exists."""
    while owner is not None:
        path = f"{owner}/{name}"
        if path in nodes:
            return path
        head, slash, _ = owner.rpartition("/")
        owner = head if slash else None
    return name if name in nodes else None


def escape(text: str) -> str:
    """Backslash-escape ``\\`` and ``"`` for a double-quoted string, as
    the parser spells a string in its messages and ``writer`` writes one.
    DOT quotes its strings the same way, so the DOT writers in ``writer``
    and ``report`` use this too."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


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
