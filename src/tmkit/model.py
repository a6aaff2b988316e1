"""Static region models.

A model is a set of thimacs (things-that-are-machines) owning actions and
storages, wired together by flows (solid arrows: things moving between
actions) and triggers (dashed arrows: one action setting off another,
optionally under a condition).

Models are immutable values.  They are assembled through ``ModelBuilder``,
which checks references as elements are added; everything after that --
``validate``, ``simplify``, both in ``rules`` -- is a pure function
returning new values.
The elements are named tuples, so an element equals any tuple with the
same values: ``StaticModel`` keeps each kind in its own section, and no
comparison here mixes two kinds.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from functools import cached_property
from itertools import count, islice
from operator import eq
from typing import Container, Iterable, Iterator, Optional, TypeVar

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


class Thimac(namedtuple("Thimac", "id name parent note", defaults=(None, None))):
    __slots__ = ()


class Action(
    namedtuple("Action", "id kind owner label anchor", defaults=(None, None))
):
    """An action of one of the ``ACTION_KINDS``.  The kind is checked in
    ``__new__``, and ``_make`` (so ``_replace`` too) goes through it."""

    __slots__ = ()

    def __new__(
        cls,
        id: str,
        kind: str,
        owner: str,
        label: Optional[str] = None,
        anchor: Optional[str] = None,
    ) -> "Action":
        if kind not in ACTION_KINDS:
            raise ModelError(f"unknown action kind {kind!r} for {id!r}")
        return tuple.__new__(cls, (id, kind, owner, label, anchor))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Action":
        return cls(*iterable)


class Storage(namedtuple("Storage", "id owner name")):
    __slots__ = ()


class Flow(namedtuple("Flow", "id src dst")):
    __slots__ = ()


class Trigger(namedtuple("Trigger", "id src dst condition", defaults=(None,))):
    __slots__ = ()


class Diagnostic(namedtuple("Diagnostic", "severity rule subject message")):
    """``severity`` is "error" or "warning", ``rule`` one of "R1" to "R8",
    and ``subject`` the id of the offending element."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.severity} {self.rule} {self.subject}: {self.message}"


class Frozen:
    """Base of the immutable classes that cache indexes on first use
    (``functools.cached_property``, which writes to ``__dict__``).  A
    subclass lists its fields in ``_fields`` and sets them once, in
    ``__init__``, through ``_set``.  Instances compare and hash by their
    fields, as frozen dataclasses do, refuse assignment with an
    ``AttributeError``, and change with ``_replace``, as named tuples do."""

    _fields: tuple[str, ...] = ()

    def _set(self, *values: object) -> None:
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def _replace(self, **changes: object):
        """A copy with the fields in ``changes`` set to new values."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values())
        )
        return f"{type(self).__qualname__}({fields})"


class StaticModel(Frozen):
    """An immutable model.

    The lookups below read indexes that are built on first use and cached,
    so each index costs one pass over the model however often it is asked.
    The grouped indexes keep declaration order within each group.  ``nodes``
    gives each action and storage id its ``(kind, owner)`` (a storage's kind
    is ``"storage"``); the validator and the formatter resolve endpoints there.
    """

    _fields = ("name", "thimacs", "actions", "storages", "flows", "triggers")

    def __init__(
        self,
        name: str,
        thimacs: tuple[Thimac, ...] = (),
        actions: tuple[Action, ...] = (),
        storages: tuple[Storage, ...] = (),
        flows: tuple[Flow, ...] = (),
        triggers: tuple[Trigger, ...] = (),
    ) -> None:
        self._set(name, thimacs, actions, storages, flows, triggers)

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
    def edges_at(self) -> dict[str, list[Flow | Trigger]]:
        """Node id -> the flows, then the triggers, that have it as an
        endpoint (whether or not the other endpoint exists).  ``parse``
        builds this index for its region checks, so its groups are the
        lists it was built in, not tuple copies: read them, never change
        them."""
        out: dict[str, list[Flow | Trigger]] = {}
        for edge in (*self.flows, *self.triggers):
            out.setdefault(edge.src, []).append(edge)
            out.setdefault(edge.dst, []).append(edge)
        return out

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


def fresh_ids(prefix: str, taken: Container[str]) -> Iterator[str]:
    """``prefix1``, ``prefix2``, ..., skipping each id in ``taken`` as it
    stands when that id is drawn."""
    for n in count(1):
        id = f"{prefix}{n}"
        if id not in taken:
            yield id


class ModelBuilder:
    """Accumulates elements, rejecting dangling references and duplicate
    ids at the point of insertion, then freezes into a ``StaticModel``.
    The parser declares into one, so ``_claim`` is the only duplicate-id
    check a ``.tm`` file meets.  Flows and triggers also go in by the
    batch (``add_flows``, ``add_triggers``), checked as the one-edge
    calls check them."""

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
        self._fresh: dict[str, Iterator[str]] = {}  # prefix -> its auto ids

    # -- id management -----------------------------------------------------

    def _auto_ids(self, prefix: str) -> Iterator[str]:
        """``prefix``'s auto ids, one generator per prefix."""
        fresh = self._fresh.get(prefix)
        if fresh is None:
            fresh = self._fresh[prefix] = fresh_ids(prefix, self._ids)
        return fresh

    def _claim(self, id: Optional[str], prefix: str) -> str:
        """``id``, or if it is None the next of ``prefix``'s auto ids."""
        ids = self._ids
        if id is None:
            id = next(self._auto_ids(prefix))
        elif id in ids:
            raise ModelError(f"duplicate id {id!r}")
        ids.add(id)
        return id

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
        ids = None if id is None else [id]
        return self._add_edges(self._flows, Flow, "flow", [(src, dst)], ids)[0]

    def add_flows(self, edges: Iterable[tuple[str, str]]) -> list[str]:
        """Add each ``(src, dst)`` as a flow with an auto id, in order, and
        return their ids.  The batch is checked as ``add_flow`` checks one
        flow; a refused flow raises that call's ``ModelError``, and the
        flows before it stay added."""
        return self._add_edges(self._flows, Flow, "flow", list(edges))

    def add_trigger(
        self,
        src: str,
        dst: str,
        condition: Optional[str] = None,
        id: Optional[str] = None,
    ) -> str:
        ids = None if id is None else [id]
        rows = [(src, dst, condition)]
        return self._add_edges(self._triggers, Trigger, "trigger", rows, ids)[0]

    def add_triggers(
        self, edges: Iterable[tuple[str, str, Optional[str]]]
    ) -> list[str]:
        """Add each ``(src, dst, condition)`` as a trigger with an auto id,
        in order, as ``add_flows`` adds flows."""
        return self._add_edges(self._triggers, Trigger, "trigger", list(edges))

    def _add_edges(
        self,
        edges: list,
        record: type,
        what: str,
        rows: list[tuple],
        ids: Optional[list[Optional[str]]] = None,
    ) -> list[str]:
        """Check a batch of ``Flow``s or ``Trigger``s, each row its fields
        after the id, and append them to ``edges``.  ``what`` names them in
        messages and prefixes their auto ids; ``ids`` holds each one's id,
        or None for an auto id, and is None when every id is.

        The endpoints and self-loops of the whole batch are checked by set
        operations; only a batch that holds a refused edge is walked, for
        the first one.  A refused edge raises the ``ModelError`` that adding
        the rows one by one would raise, and the edges before it stay
        added."""
        if not rows:
            return []
        srcs, dsts, *extra = zip(*rows)
        nodes = self.node_ids
        refused, refusal = len(rows), None
        if not (nodes.issuperset(srcs) and nodes.issuperset(dsts)) or any(
            map(eq, srcs, dsts)
        ):
            for refused, (src, dst) in enumerate(zip(srcs, dsts)):
                if src not in nodes or dst not in nodes:
                    end = dst if src in nodes else src
                    refusal = ModelError(f"{what} references unknown node {end!r}")
                    break
                if src == dst:
                    refusal = ModelError(f"{what} may not loop on {src!r}")
                    break
        if ids is None:
            claimed = list(islice(self._auto_ids(what), refused))
            self._ids.update(claimed)
        else:
            claimed = []
            try:
                for id in ids[:refused]:
                    claimed.append(self._claim(id, what))
            except ModelError as exc:  # a duplicate id, before ``refused``
                refusal = exc
        edges.extend(map(record, claimed, srcs, dsts, *extra))  # as many as claimed
        if refusal is not None:
            raise refusal
        return claimed

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
# structural comparison


def structurally_equal(a: StaticModel, b: StaticModel) -> bool:
    """Equality up to edge identifiers and declaration order.

    Nodes (thimacs, actions, storages) must agree id-for-id; flows and
    triggers are compared as multisets of endpoints (and condition, where
    an absent one is not an empty one), since their ids are generated
    plumbing.
    """
    if (a.name, a.thimacs_by_id, a.actions_by_id, a.storages_by_id) != (
        b.name, b.thimacs_by_id, b.actions_by_id, b.storages_by_id
    ):
        return False
    if Counter((f.src, f.dst) for f in a.flows) != Counter(
        (f.src, f.dst) for f in b.flows
    ):
        return False
    return Counter((t.src, t.dst, t.condition) for t in a.triggers) == Counter(
        (t.src, t.dst, t.condition) for t in b.triggers
    )
