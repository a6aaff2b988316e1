"""The walk on event numbers against the walk on event ids it replaced.

``tmkit.walk`` walks a chronology on event numbers, writes the trace and
the report's walk lines from one template per event, decides whether a
trace file conforms from its columns and int pair codes, and reads a
scenario line's choices through one table lookup.  The functions below
are the ones these paths replace or stand beside, as they were: the
walk over a plan keyed by event id, the trace reader that takes one
step at a time, the scenario reader that takes one token at a time, and
the report that writes one line per step of a simulated trace.  On
random chronologies, scenarios and trace files, each new path must give
the same value, or the same exception type and message.
"""
import json
import tracemalloc
from random import Random
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit import (
    ChronEdge,
    ModelBuilder,
    build_chronology,
    conformance,
    define_event,
    generate_report,
    parse_scenario,
    simulate,
    trace_from_json,
    trace_to_json,
)
from tmkit.cli import main
from tmkit.dynamics import Document, Event, NoInitialEventError
from tmkit.errors import decode_json
from tmkit.rules import tally, validate
from tmkit.walk import (
    NoEnabledSuccessorError,
    Scenario,
    ScenarioError,
    ScenarioExhaustedError,
    Trace,
    _name,
    _quoted_guard,
    _step_index,
    conform_json,
    simulate_to_json,
)

from conftest import ODD_NAMES
from test_dynamics import (
    GUARDS,
    PERCENT_NAMES,
    conformance_by_walk,
    events_over,
    one_action_model,
    random_chronology,
    random_scenario,
    random_trace,
    verdict,
)

seeds = st.integers(min_value=0, max_value=10_000)


# ---------------------------------------------------------------------------
# references: the walk, the trace reader, the scenario reader and the
# report's walk section that the numbered walk replaced


def step_plan_by_pair(chronology):
    """Each event's moves by id: the guarded edges as ``(guard, (src,
    dst))``, the bounded unguarded pairs, and the first unbounded
    unguarded pair."""
    plan = {}
    for src, edges in chronology.successors.items():
        guarded = tuple(
            (e.guard, (src, e.dst)) for e in edges if e.guard is not None
        )
        unguarded = [(src, e.dst) for e in edges if e.guard is None]
        looping = tuple(p for p in unguarded if p in chronology.loop_bounds)
        fallback = next(
            (p for p in unguarded if p not in chronology.loop_bounds), None
        )
        plan[src] = (guarded, looping, fallback)
    return plan


def simulate_by_pair_plan(chronology, scenario):
    """The walk on event ids, with a budget per ``(src, dst)`` pair and a
    cursor per guard."""
    if not chronology.initial_events:
        raise NoInitialEventError("chronology has no initial event")
    current = chronology.initial_events[0]

    plan = step_plan_by_pair(chronology)
    decisions = scenario.decisions
    budgets = dict(chronology.loop_bounds)
    cursors = {}
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
            for pair in looping:
                if budgets[pair] > 0:
                    taken = pair
                    break
        if taken is None:
            if guarded and not looping:
                raise NoEnabledSuccessorError(
                    f"all guards false at {current} (step {len(walk) - 1}) "
                    f"and no unguarded successor exists"
                )
            break
        if taken in budgets:
            budgets[taken] -= 1
        current = taken[1]
        walk.append(current)
    return Trace(tuple(zip(walk, range(len(walk)))), scenario.name)


def trace_from_json_by_entries(text):
    """The reader that takes the decoded steps one entry at a time."""
    payload = decode_json(text, "trace", ScenarioError)
    if not isinstance(payload, dict) or not isinstance(payload.get("steps"), list):
        raise ScenarioError("trace must be an object with a 'steps' list")
    steps = []
    for entry in payload["steps"]:
        if not isinstance(entry, dict) or "event" not in entry:
            raise ScenarioError("each trace step needs an 'event' field")
        index = entry.get("index", len(steps))
        if type(index) is not int:
            index = _step_index(index)
        event = entry["event"]
        if type(event) is not str:
            event = _name(event, "event")
        steps.append((event, index))
    return Trace(tuple(steps), _name(payload.get("scenario", "trace"), "scenario"))


def parse_scenario_by_tokens(text, name="scenario"):
    """The reader that strips and checks each token of a line in turn."""
    decisions = {}
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
            label, _, values = line.rpartition("=")
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


def generate_report_by_trace(doc, scenarios=()):
    """The report that writes one walk line per step of a simulated trace."""
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
    lines += ["validation", "----------", tally(diagnostics)]
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
        trace = simulate_by_pair_plan(doc.chronology, scenario)
        heading = f"walk: {scenario.name}"
        lines += [heading, "-" * len(heading)]
        for event_id, index in trace.steps:
            label = doc.events_by_id[event_id].label
            lines.append(f"{index + 1}. {event_id}: {label}")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


# ---------------------------------------------------------------------------
# random inputs

#: Event ids and labels, some holding ``%``, which a template must not
#: read as a directive.
NAMES = list(dict.fromkeys(ODD_NAMES + PERCENT_NAMES + ["E2", "a b", "100%"]))


def renamed(chronology, rng) -> Document:
    """``chronology`` over a one-action model, its events given distinct
    random ids and random labels; its edges, guards and bounds kept."""
    ids = rng.sample(NAMES, len(chronology.events))
    new = dict(zip((e.id for e in chronology.events), ids))
    events = [
        Event(new[e.id], rng.choice(NAMES), e.region) for e in chronology.events
    ]
    edges = [ChronEdge(new[e.src], new[e.dst], e.guard) for e in chronology.edges]
    bounds = {(new[a], new[b]): n for (a, b), n in chronology.loop_bounds.items()}
    return Document(
        one_action_model(), tuple(events), build_chronology(events, edges, bounds)
    )


#: What a guard may record instead of its choices: values that have no
#: length or take no index, which the walk must not read before it
#: consults the guard.
ODD_RECORDS = [True, 0, 1.5, {True}]


def odd_scenario(rng) -> Scenario:
    """A ``random_scenario`` whose choices are sometimes ints or a list,
    or a dict from each place to its choice (whose iteration gives the
    places, not the choices), and whose guard is sometimes recorded as
    None or as a value that is no sequence."""
    decisions = dict(random_scenario(rng).decisions)
    for guard in decisions:
        roll = rng.random()
        if roll < 0.15:
            decisions[guard] = [int(choice) for choice in decisions[guard]]
        elif roll < 0.2:
            decisions[guard] = None
        elif roll < 0.25:
            decisions[guard] = dict(enumerate(decisions[guard]))
        elif roll < 0.3:
            decisions[guard] = rng.choice(ODD_RECORDS)
    return Scenario(rng.choice(NAMES), decisions)


#: What a trace file's index, event or step may be instead.
ODD_INDICES = [None, True, False, 1.0, 0.5, -1, "0", "x", 10**20, [], {}]
ODD_EVENTS = [None, 3, 1.5, True, ["E1"], {"event": "E1"}, "E99", ""]
ODD_STEPS = [None, "E1", ["E1", 0], 0, {"index": 0}, {}]


def trace_file(rng, chronology, walked: Optional[Trace]) -> str:
    """A trace file: the walk, a random walk, or a walk that runs a
    bounded edge past its bound, with some of its steps, indices or
    events made odd or dropped."""
    steps = [
        {"index": index, "event": event}
        for event, index in random_trace(rng, chronology, walked).steps
    ]
    loops = [
        (src, dst) for src, dst in chronology.loop_bounds
        if chronology.has_edge(dst, src)
    ]
    if loops and rng.random() < 0.2:  # lap a bounded edge past its bound
        src, dst = rng.choice(loops)
        laps = [src, dst] * (chronology.loop_bounds[(src, dst)] + 1)
        steps = [{"index": i, "event": e} for i, e in enumerate(laps)]
    for step in steps:
        roll = rng.random()
        if roll < 0.05:
            step["index"] = rng.choice(ODD_INDICES)
        elif roll < 0.08:
            del step["index"]
        elif roll < 0.11:
            step["event"] = rng.choice(ODD_EVENTS)
        elif roll < 0.12:
            del step["event"]
    if steps and rng.random() < 0.1:
        steps[rng.randrange(len(steps))] = rng.choice(ODD_STEPS)
    payload = {"scenario": "fuzz", "steps": steps}
    roll = rng.random()
    if roll < 0.05:
        payload["scenario"] = rng.choice([None, 3, ["s"]])
    elif roll < 0.1:
        del payload["scenario"]
    elif roll < 0.12:
        payload = rng.choice([[], "trace", {"steps": {}}, {"scenario": "s"}])
    return json.dumps(payload, indent=rng.choice([None, 2]))


# ---------------------------------------------------------------------------
# the walk, its trace file and its report lines


@given(seeds)
@settings(max_examples=500, deadline=None)
def test_the_numbered_walk_matches_the_walk_on_ids(seed):
    rng = Random(seed)
    doc = renamed(random_chronology(rng), rng)
    chronology = doc.chronology
    for _ in range(3):
        scenario = odd_scenario(rng)
        expected = verdict(simulate_by_pair_plan, chronology, scenario)
        assert verdict(simulate, chronology, scenario) == expected
        written = verdict(trace_to_json, expected) if isinstance(expected, Trace) else expected
        assert verdict(simulate_to_json, chronology, scenario) == written
        assert verdict(generate_report, doc, [scenario]) == verdict(
            generate_report_by_trace, doc, [scenario]
        )


def test_every_way_a_walk_can_end_is_fuzzed():
    ends = set()
    for seed in range(300):
        rng = Random(seed)
        chronology = renamed(random_chronology(rng), rng).chronology
        result = verdict(simulate_by_pair_plan, chronology, odd_scenario(rng))
        ends.add(result[0] if isinstance(result[0], type) else Trace)
    assert ends == {Trace, ScenarioExhaustedError, NoEnabledSuccessorError, TypeError}


def test_a_guard_is_read_only_when_the_walk_consults_it():
    chronology = build_chronology(
        events_over(one_action_model(), 3),
        [("E1", "E2", "go"), ("E2", "E3", "never")],
        {},
    )
    scenario = Scenario("s", {"go": (False,), "never": True})
    with pytest.raises(NoEnabledSuccessorError, match="all guards false at E1"):
        simulate(chronology, scenario)
    scenario = Scenario("s", {"go": (True,), "never": True})
    with pytest.raises(TypeError, match="object of type 'bool' has no len"):
        simulate(chronology, scenario)


def test_a_report_walk_escapes_percent_in_ids_and_labels():
    builder = ModelBuilder("m")
    builder.add_thimac("t", id="t")
    builder.add_action("create", "t", id="t/a")
    model = builder.build()
    events = [define_event(model, name, f"{name} at 100%", ["t/a"]) for name in ("%d", "%s")]
    chronology = build_chronology(events, [("%d", "%s", "g")], {})
    doc = Document(model, tuple(events), chronology)
    report = generate_report(doc, [Scenario("s", {"g": (True,)})])
    assert report.endswith("1. %d: %d at 100%\n2. %s: %s at 100%\n")


# ---------------------------------------------------------------------------
# trace files: the step reader and the column check


@given(seeds)
@settings(max_examples=500, deadline=None)
def test_trace_files_read_and_conform_as_the_step_reader_has_them(seed):
    rng = Random(seed)
    chronology = random_chronology(rng)
    walked = verdict(simulate, chronology, random_scenario(rng))
    walked = walked if isinstance(walked, Trace) else None
    for _ in range(4):
        text = trace_file(rng, chronology, walked)
        expected = verdict(trace_from_json_by_entries, text)
        assert verdict(trace_from_json, text) == expected
        if isinstance(expected, Trace):
            expected = verdict(conformance_by_walk, expected, chronology)
            assert verdict(conformance, trace_from_json(text), chronology) == expected
        assert verdict(conform_json, text, chronology) == expected


def test_a_walk_past_a_bound_fails_the_column_check_and_is_worded_by_the_walk():
    chronology = build_chronology(
        events_over(one_action_model(), 3),
        [("E1", "E2"), ("E2", "E3"), ("E3", "E2")],
        {("E3", "E2"): 2},
    )
    walk = ["E1"] + ["E2", "E3"] * 4
    text = json.dumps({"steps": [{"index": i, "event": e} for i, e in enumerate(walk)]})
    result = conform_json(text, chronology)
    assert result == conformance_by_walk(trace_from_json(text), chronology)
    assert str(result.violation) == (
        "step 7: edge E3 -> E2 taken 3 times, over its loop bound 2"
    )


# ---------------------------------------------------------------------------
# scenario files

TOKENS = ["T", "F", " T", "F ", "\tT", "T ", "t", "", "X", "TF", "T F", "1"]


@given(seeds)
@settings(max_examples=500, deadline=None)
def test_scenario_files_read_as_the_token_reader_has_them(seed):
    rng = Random(seed)
    lines = []
    for _ in range(rng.randint(0, 5)):
        tokens = [rng.choice(TOKENS[:2]) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:
            tokens[rng.randrange(len(tokens))] = rng.choice(TOKENS)
        guard = rng.choice(GUARDS + ("", "a=b", "x # y"))
        line = f"{guard} ={rng.choice(['', ' ', '  '])}{','.join(tokens)}"
        if rng.random() < 0.2:
            line = f'"{guard}" = {",".join(tokens)}'
        if rng.random() < 0.1:
            line += "  # note"
        lines.append(line)
    text = "\n".join(lines)
    assert verdict(parse_scenario, text, "s") == verdict(
        parse_scenario_by_tokens, text, "s"
    )


# ---------------------------------------------------------------------------
# memory: a walk held as event numbers

#: A walk of 2 * LAPS + 3 steps: E0 -> E1, E1 -> E2 and E2 -> E1 max LAPS,
#: under an empty scenario.
LAPS = 50_000
LOOP = """\
model m {
  thimac t {
    create a
  }
}

events {
  event E0 "start" { t/a }
  event E1 "go" { t/a }
  event E2 "back" { t/a }
}

chronology {
  E0 -> E1
  E1 -> E2
  E2 -> E1 max %d
}
"""

#: The most that ``simulate -o`` may hold at once, per step of the walk,
#: as ``tracemalloc`` counts it, for the 55 bytes per step it writes.
#: Measured in a fresh process, so with the walk's own import counted:
#: the walk it replaced, which held each step as an ``(event, index)``
#: pair of a trace, peaked at 282.5, 286.8 and 286.0 bytes per step on
#: Python 3.10, 3.11 and 3.12; the walk on event numbers at 218.7, 223.0
#: and 222.2.
BYTES_PER_STEP = 250


def test_simulate_o_holds_a_bounded_number_of_bytes_per_step(tmp_path):
    model, scenario, out = (tmp_path / name for name in ("m.tm", "s.scenario", "t.json"))
    model.write_text(LOOP % LAPS)
    scenario.write_text("")
    args = ["simulate", str(model), "--scenario", str(scenario), "-o", str(out)]
    tracemalloc.start()
    try:
        main(args, standalone_mode=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    steps = 2 * LAPS + 3
    assert len(json.loads(out.read_text())["steps"]) == steps
    assert peak < BYTES_PER_STEP * steps, peak / steps
