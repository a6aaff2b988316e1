"""Walks of a chronology: scenarios, simulation, traces and conformance.

``simulate`` replays a chronology under a scenario (recorded guard
decisions) and yields a trace; ``conformance`` checks a trace against a
chronology without raising.  Only the commands that walk -- ``simulate``,
``conform`` and ``report`` -- load this module.

A walk runs on event numbers, each event's place in
``chronology.events``: ``_Plan`` indexes every event's successors,
guards and bounded edges by number, the walk keeps a list of budgets,
and it records itself as a list of numbers.  The trace file and the
report's walk lines are filled in from one template per event.
``conformance`` walks a trace step by step, which words each message.
``tmkit conform`` decides on the trace file's columns first, on int codes
for its pairs of steps (``conform_json``), and reads and walks step by
step only a trace that they refuse.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from itertools import count
from operator import add, itemgetter
from types import MappingProxyType
from typing import Iterator, Mapping, Optional

from .dynamics import (
    _ESCAPE_RE,
    _STRING_RE,
    ChronologyGraph,
    DynamicsError,
    Event,
    NoInitialEventError,
    SimulationError,
)
from .errors import _list, _template, decode_json


class ScenarioError(DynamicsError):
    """A scenario file or decision table is malformed."""


class ScenarioExhaustedError(SimulationError):
    """A guard was consulted more times than the scenario recorded."""


class NoEnabledSuccessorError(SimulationError):
    """Every guard at a branch evaluated false and there is no fallback."""


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


# ---------------------------------------------------------------------------
# the step plan


class _Plan:
    """A chronology indexed by event number, built once per chronology
    (``_plan``).

    ``ids`` holds each number's event id: the events in order, then any
    edge endpoint that is no event (only a hand-built graph has one);
    ``number`` maps the events' ids alone to their numbers.  ``moves[i]``
    is None at an event with no successors, else ``(guarded, looping,
    fallback)`` in declaration order: the guarded edges as ``(guard,
    target, slot)``, the bounded unguarded edges as ``(target, slot)``,
    and the first unbounded unguarded edge's target (None if there is
    none).  ``forward[i]`` is that target when it is event ``i``'s only
    move, else None.  A guard indexes ``guards``, a slot indexes
    ``budgets``, one per bounded edge, and an unbounded guarded edge's
    slot is None.  A pair of steps ``(i, j)`` has the code ``scaled[i] +
    j``: ``edges`` holds every edge's code, and ``bounds`` maps each
    bounded edge's code to its bound."""

    def __init__(self, chronology: ChronologyGraph) -> None:
        ids = [event.id for event in chronology.events]
        self.number = {event_id: place for place, event_id in enumerate(ids)}
        number = dict(self.number)
        for edge in chronology.edges:
            for end in (edge.src, edge.dst):
                if end not in number:
                    number[end] = len(ids)
                    ids.append(end)
        self.ids = tuple(ids)
        self.scaled = [place * len(ids) for place in range(len(ids))]
        self.initial = frozenset(map(number.__getitem__, chronology.initial_events))

        loop_bounds = chronology.loop_bounds
        guards: dict[str, int] = {}
        slots: dict[tuple[str, str], int] = {}
        self.budgets: list[int] = []
        self.edges: set[int] = set()
        self.bounds: dict[int, int] = {}
        self.moves: list = [None] * len(ids)
        self.forward: list = [None] * len(ids)
        for src, edges in chronology.successors.items():
            guarded, looping, fallback = [], [], None
            for edge in edges:
                pair, target = (src, edge.dst), number[edge.dst]
                code = self.scaled[number[src]] + target
                self.edges.add(code)
                slot = None
                if pair in loop_bounds:
                    self.bounds[code] = loop_bounds[pair]
                    slot = slots.get(pair)
                    if slot is None:
                        slot = slots[pair] = len(self.budgets)
                        self.budgets.append(loop_bounds[pair])
                if edge.guard is not None:
                    guard = guards.setdefault(edge.guard, len(guards))
                    guarded.append((guard, target, slot))
                elif slot is not None:
                    looping.append((target, slot))
                elif fallback is None:
                    fallback = target
            self.moves[number[src]] = (tuple(guarded), tuple(looping), fallback)
            if not guarded and not looping:
                self.forward[number[src]] = fallback
        self.guards = tuple(guards)


def _plan(chronology: ChronologyGraph) -> _Plan:
    """The chronology's plan, built on its first walk and kept in its
    ``__dict__``, where the chronology caches its own indexes."""
    plan = chronology.__dict__.get("_plan")
    if plan is None:
        plan = chronology.__dict__["_plan"] = _Plan(chronology)
    return plan


# ---------------------------------------------------------------------------
# simulation

_END = object()  # a guard's recorded choices have run out


def _in_order(recorded: object) -> Iterator:
    """A guard's recorded choices, one per consultation: None records
    none, and any value but a tuple or list is read as a sequence, its
    length and its items asked for only as the walk takes them."""
    if type(recorded) in (tuple, list):
        return iter(recorded)
    return _by_index(recorded)


def _by_index(recorded: object) -> Iterator:
    """``recorded[0]``, ``recorded[1]``, ... while the cursor is below
    ``len(recorded)``, both asked for at each consultation."""
    if recorded is None:
        return
    cursor = 0
    while cursor < len(recorded):
        yield recorded[cursor]
        cursor += 1


def _walk(chronology: ChronologyGraph, scenario: Scenario) -> list[int]:
    """The numbers of the events ``simulate`` walks through, in order."""
    if not chronology.initial_events:
        raise NoInitialEventError("chronology has no initial event")
    plan = _plan(chronology)
    forward, moves = plan.forward, plan.moves
    budgets = list(plan.budgets)
    decisions = scenario.decisions
    choices: list = [None] * len(plan.guards)  # each guard's, on first use
    current = plan.number[chronology.initial_events[0]]
    walk = [current]
    append = walk.append

    while True:
        target = forward[current]
        if target is None:
            move = moves[current]
            if move is None:
                break
            guarded, looping, fallback = move
            for guard, target, slot in guarded:
                left = choices[guard]
                if left is None:
                    left = choices[guard] = _in_order(decisions.get(plan.guards[guard]))
                choice = next(left, _END)
                if choice is _END:
                    raise ScenarioExhaustedError(
                        f"scenario {scenario.name!r} has no decision left for "
                        f"guard {plan.guards[guard]!r} at step {len(walk) - 1}"
                    )
                if choice and (slot is None or budgets[slot] > 0):
                    break
            else:
                for target, slot in looping:  # loop continuations first
                    if budgets[slot] > 0:
                        break
                else:
                    target, slot = fallback, None
                    if target is None:
                        if guarded and not looping:
                            raise NoEnabledSuccessorError(
                                f"all guards false at {plan.ids[current]} "
                                f"(step {len(walk) - 1}) and no unguarded "
                                f"successor exists"
                            )
                        break  # only exhausted back-edges remain: the run ends
            if slot is not None:
                budgets[slot] -= 1
        current = target
        append(target)
    return walk


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
    walk = _walk(chronology, scenario)
    ids = _plan(chronology).ids
    return Trace(tuple(zip(map(ids.__getitem__, walk), count())), scenario.name)


def walk_lines(
    chronology: ChronologyGraph, events_by_id: Mapping[str, Event], scenario: Scenario
) -> str:
    """The numbered steps of the walk under ``scenario``, one line each,
    ``index. id: label`` with the label from ``events_by_id``, counted
    from 1: filled in from one template per visited event."""
    walk = _walk(chronology, scenario)
    ids = _plan(chronology).ids

    def line(number: int) -> str:
        event_id = ids[number]
        return "%d. " + f"{event_id}: {events_by_id[event_id].label}".replace("%", "%%")

    return "\n".join(_laid_out(walk, line)) % tuple(range(1, len(walk) + 1))


def _laid_out(keys, template) -> list[str]:
    """``template(key)`` for each step's key, made once per distinct key."""
    made = {key: template(key) for key in set(keys)}
    return list(map(made.__getitem__, keys))


# ---------------------------------------------------------------------------
# conformance


def conformance(trace: Trace, chronology: ChronologyGraph) -> ConformanceResult:
    """Does the trace start at an initial event, follow chronology edges
    and respect loop bounds?

    Never raises; the first violation is returned as data.  The trace is
    walked step by step, which words each message.  ``tmkit conform``
    decides on a trace file's columns first (``conform_json``) and walks
    only a trace that they refuse.
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


def _conforms(events, chronology: ChronologyGraph) -> bool:
    """Whether a walk through ``events``, indexed in sequence, keeps to
    the chronology: every event is known, the first is initial, every
    pair of steps is an edge, and no bounded edge is taken more often
    than its bound.  Decided on event numbers and pair codes with
    C-level builtins."""
    plan = _plan(chronology)
    try:
        numbers = list(map(plan.number.__getitem__, events))
    except (KeyError, TypeError):  # an unknown or unhashable event
        return False
    if numbers[0] not in plan.initial:
        return False
    taken = Counter(map(add, map(plan.scaled.__getitem__, numbers), numbers[1:]))
    return taken.keys() <= plan.edges and all(
        taken[code] <= bound for code, bound in plan.bounds.items()
    )


# ---------------------------------------------------------------------------
# scenario files

_CHOICES = {"T": True, "F": False}


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse ``guard = T,F,...`` lines (``#`` comments allowed).  A line
    whose first non-blank character is ``"`` quotes its guard as the DSL
    quotes a string; any other line's guard is the text before its last
    ``=``, stripped.  A line's choices are read through ``_CHOICES`` at
    once; only a line with blanks between them, or some other token, is
    read token by token."""
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
        try:
            choices = tuple(map(_CHOICES.__getitem__, values.strip().split(",")))
        except KeyError:  # a token with blanks around it, or no choice
            choices = _choices(values, lineno)
        decisions[label] = choices
    return Scenario(name, decisions)


def _choices(values: str, lineno: int) -> tuple[bool, ...]:
    """A line's choices read token by token, each stripped, which names
    the first token that is no choice."""
    choices = []
    for token in values.split(","):
        token = token.strip()
        if token not in _CHOICES:
            raise ScenarioError(f"line {lineno}: expected T or F, found {token!r}")
        choices.append(_CHOICES[token])
    return tuple(choices)


def _quoted_guard(line: str, lineno: int) -> tuple[str, str]:
    """The guard and the values of a scenario line that starts with ``"``."""
    match = _STRING_RE.match(line)
    if match["CLOSE"] is None:
        raise ScenarioError(f"line {lineno}: expected '\"' to close the guard")
    rest = line[match.end():].split("#", 1)[0].strip()
    if not rest.startswith("="):
        raise ScenarioError(f"line {lineno}: expected '=' after the quoted guard")
    return _ESCAPE_RE.sub(r"\1", match.group()[1:-1]), rest[1:]


# ---------------------------------------------------------------------------
# trace files

_TRACE = _template(("scenario", "steps"), 0) + "\n"
_TRACE_STEP = _template(("index", "event"), 2)


def _literal(name: str) -> str:
    """``name`` as a JSON string, as template text."""
    # here, so that commands that write no JSON never load it
    from json.encoder import encode_basestring_ascii as encode

    return encode(name).replace("%", "%%")


def _trace_text(scenario: str, steps: str) -> str:
    """The trace file around ``steps``, already laid out as a list."""
    return _TRACE % (_literal(scenario), steps)


def _step(event: str) -> str:
    """A step's template: ``event`` encoded, and ``%d`` for its index."""
    return _TRACE_STEP % ("%d", _literal(event))


def trace_to_json(trace: Trace) -> str:
    """The bytes ``json.dumps(payload, indent=2) + "\\n"`` writes for
    ``{"scenario": ..., "steps": [{"index": ..., "event": ...}, ...]}``,
    from templates; names go through the encoder ``json.dumps`` uses.
    Each distinct event is encoded once, into a step template that keeps
    ``%d`` for the index, so a bool or integral float in a hand-built
    trace still writes a JSON integer.  The steps' templates make one
    template for the whole trace, and one ``%`` fills in every index."""
    if not trace.steps:
        return _trace_text(trace.scenario, "[]") % ()
    events, indices = zip(*trace.steps, strict=True)  # every step a pair
    return _trace_text(trace.scenario, _list(_laid_out(events, _step), 1)) % indices


def simulate_to_json(chronology: ChronologyGraph, scenario: Scenario) -> str:
    """``trace_to_json(simulate(chronology, scenario))``, written from the
    walk's event numbers, with one step template per event and no trace
    made in between."""
    walk = _walk(chronology, scenario)
    ids = _plan(chronology).ids
    steps = _list(_laid_out(walk, lambda number: _step(ids[number])), 1)
    return _trace_text(scenario.name, steps) % tuple(range(len(walk)))


def trace_from_json(text: str) -> Trace:
    return _trace(decode_json(text, "trace", ScenarioError))


def _columns(payload: object) -> Optional[tuple[list, list]]:
    """A decoded trace's events and indices, read a column at a time,
    when every step is an object with an event and an int index, and the
    scenario name is a string; None otherwise.  The events' type is left
    to the caller."""
    if type(payload) is not dict or type(payload.get("steps")) is not list:
        return None
    steps, scenario = payload["steps"], payload.get("scenario", "trace")
    try:
        events = list(map(itemgetter("event"), steps))
        indices = list(map(itemgetter("index"), steps))
    except (KeyError, TypeError):  # a step that is no object, or lacks a field
        return None
    if type(scenario) is not str or not set(map(type, indices)) <= {int}:
        return None
    return events, indices


def _trace(payload: object) -> Trace:
    """The trace a decoded trace file holds, read step by step, which
    names the first fault."""
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


def conform_json(text: str, chronology: ChronologyGraph) -> ConformanceResult:
    """``conformance(trace_from_json(text), chronology)``.  A trace whose
    columns read and conform makes no trace (an event that is no string
    is no event's id, so it fails); any other is read and checked by
    those two functions."""
    payload = decode_json(text, "trace", ScenarioError)
    columns = _columns(payload)
    if columns is not None:
        events, indices = columns
        if not events or (
            indices == list(range(len(indices))) and _conforms(events, chronology)
        ):
            return ConformanceResult(True, None)
    return conformance(_trace(payload), chronology)


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
