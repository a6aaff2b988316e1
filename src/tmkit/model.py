"""Static region models.

A model is a set of thimacs (things-that-are-machines) owning actions and
storages, wired together by flows (solid arrows: things moving between
actions) and triggers (dashed arrows: one action setting off another,
optionally under a condition).

Models are immutable values.  They are assembled through ``ModelBuilder``,
which checks references as elements are added; everything after that --
``validate``, ``simplify`` -- is a pure function returning new values.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import count, groupby
from operator import itemgetter
from typing import Iterable, Iterator, Optional, TypeVar

from .errors import TmkitError

ACTION_KINDS = ("create", "process", "release", "transfer", "receive")

#: Action kinds removed by ``simplify``: the machinery that merely moves
#: things around, as opposed to the kinds that originate or change them.
TRANSPORT_KINDS = frozenset({"release", "transfer", "receive"})

_STORAGE = "storage"

_K = TypeVar("_K")
_V = TypeVar("_V")

#: Legal (from-kind, to-kind) pairs for a flow whose endpoints share an
#: owner.  Kept as data so the table can be amended in one place.
LEGAL_FLOW_PAIRS = frozenset(
    {
        ("create", "process"),
        ("create", "release"),
        ("receive", "process"),
        ("receive", "release"),
        ("process", "release"),
        ("release", "transfer"),
        ("transfer", "receive"),
    }
    # Any non-transfer action may read or write a storage.
    | {(kind, _STORAGE) for kind in ("create", "process", "receive", "release")}
    | {(_STORAGE, kind) for kind in ("create", "process", "receive", "release")}
)


class ModelError(TmkitError):
    """A model could not be assembled as requested."""


#: The deepest a thimac may be nested; a top-level thimac is at depth 1.
#: Node ids are containment paths, so the bytes of ids (and of every
#: message or file that names them) grow with the square of the depth:
#: a chain 2,000 deep made ``check`` print 10 MB, and one 20,000 deep
#: ran ``export`` out of memory.  At 1,500, a chain with one process per
#: thimac makes ``check`` print 5.7 MB and ``export --format json`` 23 MB
#: at 85 MB peak RSS; the limit stays above Python's default recursion
#: limit of 1,000, which the parser and the writers do not depend on.
MAX_DEPTH = 1500


class NestingError(ModelError):
    """A thimac is nested deeper than ``MAX_DEPTH``."""

    def __init__(self, name: str, depth: int):
        self.depth = depth
        super().__init__(
            f"thimac {name!r} is nested {depth} deep, over the limit of {MAX_DEPTH}"
        )


class SimplifyError(TmkitError):
    """``simplify`` refused a model that has validation errors."""

    def __init__(self, diagnostics: tuple["Diagnostic", ...]):
        self.diagnostics = diagnostics
        lines = ", ".join(str(d) for d in diagnostics)
        super().__init__(f"model has validation errors: {lines}")


@dataclass(frozen=True)
class Thimac:
    id: str
    name: str
    parent: Optional[str] = None
    note: Optional[str] = None


@dataclass(frozen=True)
class Action:
    id: str
    kind: str
    owner: str
    label: Optional[str] = None
    anchor: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ACTION_KINDS:
            raise ModelError(f"unknown action kind {self.kind!r} for {self.id!r}")


@dataclass(frozen=True)
class Storage:
    id: str
    owner: str
    name: str


@dataclass(frozen=True)
class Flow:
    id: str
    src: str
    dst: str


@dataclass(frozen=True)
class Trigger:
    id: str
    src: str
    dst: str
    condition: Optional[str] = None


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    rule: str  # "R1" .. "R8"
    subject: str  # id of the offending element
    message: str

    def __str__(self) -> str:
        return f"{self.severity} {self.rule} {self.subject}: {self.message}"


@dataclass(frozen=True)
class StaticModel:
    """An immutable model.

    The lookups below read indexes that are built on first use and cached,
    so each index costs one pass over the model however often it is asked.
    The grouped indexes keep declaration order within each group.  ``nodes``
    gives each action and storage id its ``(kind, owner)`` (a storage's kind
    is ``"storage"``); the validator and the formatter resolve endpoints there.
    """

    name: str
    thimacs: tuple[Thimac, ...] = ()
    actions: tuple[Action, ...] = ()
    storages: tuple[Storage, ...] = ()
    flows: tuple[Flow, ...] = ()
    triggers: tuple[Trigger, ...] = ()

    # -- lookups -----------------------------------------------------------

    @cached_property
    def thimacs_by_id(self) -> dict[str, Thimac]:
        return {t.id: t for t in self.thimacs}

    @cached_property
    def actions_by_id(self) -> dict[str, Action]:
        return {a.id: a for a in self.actions}

    @cached_property
    def storages_by_id(self) -> dict[str, Storage]:
        return {s.id: s for s in self.storages}

    @cached_property
    def nodes(self) -> dict[str, tuple[str, str]]:
        """Node id -> ``(kind, owner)``; an action wins an id a storage shares."""
        out = {s.id: (_STORAGE, s.owner) for s in self.storages}
        out.update((a.id, (a.kind, a.owner)) for a in self.actions)
        return out

    def node_kind(self, node_id: str) -> Optional[str]:
        """Kind of a flow endpoint: an action kind, ``"storage"``, or None."""
        return self.nodes.get(node_id, (None, None))[0]

    def node_owner(self, node_id: str) -> Optional[str]:
        return self.nodes.get(node_id, (None, None))[1]

    @cached_property
    def flows_from(self) -> dict[str, tuple[Flow, ...]]:
        return grouped((f.src, f) for f in self.flows)

    @cached_property
    def flows_into(self) -> dict[str, tuple[Flow, ...]]:
        return grouped((f.dst, f) for f in self.flows)

    @cached_property
    def edges_at(self) -> dict[str, tuple[Flow | Trigger, ...]]:
        """Node id -> the flows, then the triggers, that have it as an
        endpoint (whether or not the other endpoint exists)."""
        return grouped(
            (node, edge)
            for edge in (*self.flows, *self.triggers)
            for node in (edge.src, edge.dst)
        )

    @cached_property
    def children_by_parent(self) -> dict[Optional[str], tuple[Thimac, ...]]:
        return grouped((t.parent, t) for t in self.thimacs)

    @cached_property
    def actions_by_owner(self) -> dict[str, tuple[Action, ...]]:
        return grouped((a.owner, a) for a in self.actions)

    @cached_property
    def storages_by_owner(self) -> dict[str, tuple[Storage, ...]]:
        return grouped((s.owner, s) for s in self.storages)

    @cached_property
    def ancestry(self) -> dict[str, tuple[int, tuple[str, ...], int]]:
        """Thimac id -> ``(depth, cycle, place)``, from one walk up each
        parent chain.  ``depth`` counts the distinct thimacs on the chain,
        the thimac itself included; a chain ends at a missing parent or
        where it meets itself.  ``cycle`` is the containment cycle the chain
        runs into (empty if none), one tuple shared by all who meet it, and
        ``cycle[place]`` is where the chain enters it."""
        known = self.thimacs_by_id
        out: dict[str, tuple[int, tuple[str, ...], int]] = {}
        for start in known:
            if start in out:
                continue
            path: dict[str, int] = {}
            node: Optional[str] = start
            while node in known and node not in out and node not in path:
                path[node] = len(path)
                node = known[node].parent
            tail = tuple(path)
            if node in path:  # the walk closed a cycle
                cycle = tail[path[node]:]
                tail = tail[: path[node]]
                for place, member in enumerate(cycle):
                    out[member] = (len(cycle), cycle, place)
            depth, cycle, place = out.get(node, (0, (), 0))
            for member in reversed(tail):
                depth += 1
                out[member] = (depth, cycle, place)
        return out

    def children_of(self, thimac_id: Optional[str]) -> tuple[Thimac, ...]:
        return self.children_by_parent.get(thimac_id, ())

    def actions_of(self, thimac_id: str) -> tuple[Action, ...]:
        return self.actions_by_owner.get(thimac_id, ())

    def storages_of(self, thimac_id: str) -> tuple[Storage, ...]:
        return self.storages_by_owner.get(thimac_id, ())


def grouped(pairs: Iterable[tuple[_K, _V]]) -> dict[_K, tuple[_V, ...]]:
    """Values grouped by key, each group in the order the pairs came."""
    out: dict[_K, list[_V]] = {}
    for key, value in pairs:
        out.setdefault(key, []).append(value)
    return {k: tuple(v) for k, v in out.items()}


def check_depth(model: StaticModel) -> None:
    """Raise ``NestingError`` for the first thimac deeper than
    ``MAX_DEPTH``, as ``StaticModel.ancestry`` measures depth, so dangling
    and cyclic parents are measured too."""
    for thimac in model.thimacs:
        depth = model.ancestry[thimac.id][0]
        if depth > MAX_DEPTH:
            raise NestingError(thimac.name, depth)


class ModelBuilder:
    """Accumulates elements, rejecting dangling references and duplicate
    ids at the point of insertion, then freezes into a ``StaticModel``.
    The parser declares into one, so ``_claim`` is the only duplicate-id
    check a ``.tm`` file meets."""

    def __init__(self, name: str):
        self.name = name
        self._thimacs: list[Thimac] = []
        self._actions: list[Action] = []
        self._storages: list[Storage] = []
        self._flows: list[Flow] = []
        self._triggers: list[Trigger] = []
        self._ids: set[str] = set()
        self._depths: dict[str, int] = {}  # thimac id -> nesting depth
        self.node_ids: set[str] = set()  # actions and storages; read by the parser
        self._counters: dict[str, int] = {}

    # -- id management -----------------------------------------------------

    def _claim(self, explicit: Optional[str], prefix: str) -> str:
        if explicit is not None:
            if explicit in self._ids:
                raise ModelError(f"duplicate id {explicit!r}")
            self._ids.add(explicit)
            return explicit
        n = self._counters.get(prefix, 0)
        while True:
            n += 1
            candidate = f"{prefix}{n}"
            if candidate not in self._ids:
                break
        self._counters[prefix] = n
        self._ids.add(candidate)
        return candidate

    def _require_node(self, node_id: str, what: str) -> None:
        if node_id not in self.node_ids:
            raise ModelError(f"{what} references unknown node {node_id!r}")

    def _require_thimac(self, thimac_id: str, what: str) -> None:
        if thimac_id not in self._depths:
            raise ModelError(f"{what} references unknown thimac {thimac_id!r}")

    # -- element insertion ---------------------------------------------------

    def add_thimac(
        self,
        name: str,
        parent: Optional[str] = None,
        note: Optional[str] = None,
        id: Optional[str] = None,
    ) -> str:
        depth = 1
        if parent is not None:
            self._require_thimac(parent, "thimac")
            depth = self._depths[parent] + 1
            if depth > MAX_DEPTH:
                raise NestingError(name, depth)
        tid = self._claim(id, "thimac")
        self._thimacs.append(Thimac(tid, name, parent, note))
        self._depths[tid] = depth
        return tid

    def add_action(
        self,
        kind: str,
        owner: str,
        label: Optional[str] = None,
        anchor: Optional[str] = None,
        id: Optional[str] = None,
    ) -> str:
        self._require_thimac(owner, "action")
        aid = self._claim(id, "action")
        self._actions.append(Action(aid, kind, owner, label, anchor))
        self.node_ids.add(aid)
        return aid

    def add_storage(
        self, owner: str, name: str, id: Optional[str] = None
    ) -> str:
        self._require_thimac(owner, "storage")
        sid = self._claim(id, "storage")
        self._storages.append(Storage(sid, owner, name))
        self.node_ids.add(sid)
        return sid

    def add_flow(self, src: str, dst: str, id: Optional[str] = None) -> str:
        self._require_node(src, "flow")
        self._require_node(dst, "flow")
        if src == dst:
            raise ModelError(f"flow may not loop on {src!r}")
        fid = self._claim(id, "flow")
        self._flows.append(Flow(fid, src, dst))
        return fid

    def add_trigger(
        self,
        src: str,
        dst: str,
        condition: Optional[str] = None,
        id: Optional[str] = None,
    ) -> str:
        self._require_node(src, "trigger")
        self._require_node(dst, "trigger")
        if src == dst:
            raise ModelError(f"trigger may not loop on {src!r}")
        tid = self._claim(id, "trigger")
        self._triggers.append(Trigger(tid, src, dst, condition))
        return tid

    def build(self) -> StaticModel:
        return StaticModel(
            name=self.name,
            thimacs=tuple(self._thimacs),
            actions=tuple(self._actions),
            storages=tuple(self._storages),
            flows=tuple(self._flows),
            triggers=tuple(self._triggers),
        )


# ---------------------------------------------------------------------------
# validation


def validate(model: StaticModel) -> tuple[Diagnostic, ...]:
    """Check rules R1-R8 and return diagnostics in a fixed order.

    Never raises: structurally broken models (dangling references,
    containment cycles) come back as R5/R6 errors.
    """
    # Each flow and trigger whose endpoints both exist, with their
    # ``(kind, owner)``; an edge with a missing endpoint is judged by R6 alone.
    nodes = model.nodes
    flows, triggers = (
        [
            (edge, nodes[edge.src], nodes[edge.dst])
            for edge in edges
            if edge.src in nodes and edge.dst in nodes
        ]
        for edges in (model.flows, model.triggers)
    )
    out: list[Diagnostic] = []
    out.extend(_check_flow_legality(flows))  # R1 + R2
    out.extend(_check_receive_inputs(model, flows))  # R3
    out.extend(_check_trigger_sources(model))  # R4
    out.extend(_check_containment(model))  # R5
    out.extend(_check_references(model))  # R6
    out.extend(_check_self_loops(model))  # R7
    out.extend(_check_reachability(model, flows + triggers))  # R8
    return tuple(out)


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
        src = model.actions_by_id.get(trigger.src)
        if src is not None and src.kind not in ("process", "create"):
            yield Diagnostic(
                "warning",
                "R4",
                trigger.id,
                f"trigger source {trigger.src} is a {src.kind}; triggers "
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

    errors = tuple(d for d in validate(model) if d.severity == "error")
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
    taken = {element.id for part in parts for element in part}
    fresh_ids = (i for i in (f"flow_s{n}" for n in count(1)) if i not in taken)
    for flow in model.flows:
        # Chase each surviving node's outgoing flows through removed nodes.
        if flow.src in removed or flow.dst not in removed:
            continue
        start = flow.src
        for _, end in _through_removed(model, flow.dst, removed, forward=True):
            if end == start or (start, end) in present:
                continue
            flows.append(Flow(next(fresh_ids), start, end))
            present.add((start, end))

    return StaticModel(
        name=model.name,
        thimacs=model.thimacs,
        actions=kept_actions,
        storages=model.storages,
        flows=tuple(flows),
        triggers=tuple(triggers),
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


# ---------------------------------------------------------------------------
# structural comparison


def structurally_equal(a: StaticModel, b: StaticModel) -> bool:
    """Equality up to edge identifiers and declaration order.

    Nodes (thimacs, actions, storages) must agree id-for-id; flows and
    triggers are compared as multisets of endpoints (and condition),
    since their ids are generated plumbing.
    """
    if (a.name, a.thimacs_by_id, a.actions_by_id, a.storages_by_id) != (
        b.name, b.thimacs_by_id, b.actions_by_id, b.storages_by_id
    ):
        return False
    if sorted((f.src, f.dst) for f in a.flows) != sorted(
        (f.src, f.dst) for f in b.flows
    ):
        return False
    return sorted((t.src, t.dst, t.condition or "") for t in a.triggers) == sorted(
        (t.src, t.dst, t.condition or "") for t in b.triggers
    )
