"""Events, chronologies, simulation, conformance, and the file formats."""
from random import Random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit import (
    ChronEdge,
    ModelBuilder,
    Scenario,
    Trace,
    build_chronology,
    check_coverage,
    conformance,
    define_event,
    parse_scenario,
    simulate,
    trace_from_json,
    trace_to_json,
)
from tmkit.dynamics import (
    DisconnectedRegionError,
    DynamicsError,
    NoEnabledSuccessorError,
    NoInitialEventError,
    ScenarioError,
    ScenarioExhaustedError,
    UnboundedCycleError,
    UnknownActionError,
    UnknownEventError,
    _find_cycle,
    _weak_components,
)

from conftest import load_scenario
from generators import random_document, random_raw_model

seeds = st.integers(min_value=0, max_value=10_000)


def one_action_model():
    builder = ModelBuilder("m")
    builder.add_thimac("t", id="t")
    builder.add_action("create", "t", id="t/a")
    return builder.build()


def events_over(model, count):
    return [
        define_event(model, f"E{i + 1}", f"step {i + 1}", ["t/a"])
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# events


def test_event_region_must_be_nonempty():
    with pytest.raises(DynamicsError, match="empty region"):
        define_event(one_action_model(), "E1", "x", [])


def test_event_region_must_name_known_actions():
    with pytest.raises(UnknownActionError):
        define_event(one_action_model(), "E1", "x", ["t/ghost"])


def test_event_region_must_be_connected():
    builder = ModelBuilder("m")
    builder.add_thimac("t", id="t")
    builder.add_action("create", "t", id="t/a")
    builder.add_action("process", "t", id="t/b")
    with pytest.raises(DisconnectedRegionError) as exc:
        define_event(builder.build(), "E1", "x", ["t/a", "t/b"])
    assert exc.value.components == [["t/a"], ["t/b"]]


def test_storage_between_region_actions_connects_them():
    builder = ModelBuilder("m")
    builder.add_thimac("t", id="t")
    builder.add_action("process", "t", id="t/a")
    builder.add_storage("t", "box", id="t/box")
    builder.add_action("process", "t", id="t/b")
    builder.add_flow("t/a", "t/box")
    builder.add_flow("t/box", "t/b")
    event = define_event(builder.build(), "E1", "x", ["t/a", "t/b"])
    assert event.region == frozenset({"t/a", "t/b"})


def test_triggers_connect_regions_too():
    builder = ModelBuilder("m")
    builder.add_thimac("t", id="t")
    builder.add_action("process", "t", id="t/a")
    builder.add_action("process", "t", id="t/b")
    builder.add_trigger("t/a", "t/b")
    event = define_event(builder.build(), "E1", "x", ["t/a", "t/b"])
    assert event.region == frozenset({"t/a", "t/b"})


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_region_components_match_networkx(seed):
    rng = Random(seed)
    model = random_raw_model(rng)
    members = frozenset(
        rng.sample(sorted(model.actions_by_id), rng.randint(1, len(model.actions)))
    )
    bridges = {
        node
        for f in model.flows
        if f.src in members or f.dst in members
        for node in (f.src, f.dst)
        if node in model.storages_by_id
    }
    graph = nx.DiGraph()
    graph.add_nodes_from(members | bridges)
    graph.add_edges_from(
        (e.src, e.dst)
        for e in (*model.flows, *model.triggers)
        if e.src in graph and e.dst in graph
    )
    expected = [
        sorted(component & members)
        for component in sorted(nx.weakly_connected_components(graph), key=min)
        if component & members
    ]
    assert _weak_components(model, members) == expected


def test_check_coverage_lists_the_uncovered():
    builder = ModelBuilder("m")
    builder.add_thimac("t", id="t")
    builder.add_action("create", "t", id="t/a")
    builder.add_action("process", "t", id="t/b")
    model = builder.build()
    event = define_event(model, "E1", "x", ["t/a"])
    assert check_coverage(model, [event]) == ("t/b",)
    assert check_coverage(model, []) == ("t/a", "t/b")


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_coverage_plus_regions_is_everything(seed):
    doc = random_document(Random(seed))
    covered = set()
    for event in doc.events:
        covered |= event.region
    uncovered = set(check_coverage(doc.model, doc.events))
    assert covered | uncovered == set(doc.model.actions_by_id)
    assert not covered & uncovered


# ---------------------------------------------------------------------------
# chronology construction


def test_chronology_rejects_duplicate_events():
    events = events_over(one_action_model(), 1) * 2
    with pytest.raises(DynamicsError, match="duplicate event id"):
        build_chronology(events, [])


def test_chronology_rejects_unknown_edge_endpoints():
    events = events_over(one_action_model(), 1)
    with pytest.raises(UnknownEventError):
        build_chronology(events, [ChronEdge("E1", "E9")])


def test_loop_bound_must_sit_on_an_edge():
    events = events_over(one_action_model(), 2)
    with pytest.raises(UnknownEventError, match="nonexistent edge"):
        build_chronology(events, [ChronEdge("E1", "E2")], {("E2", "E1"): 2})


def test_loop_bound_must_be_at_least_one():
    events = events_over(one_action_model(), 2)
    with pytest.raises(DynamicsError, match="at least 1"):
        build_chronology(events, [ChronEdge("E1", "E2")], {("E1", "E2"): 0})


def test_unbounded_cycle_is_refused_with_the_cycle_named():
    events = events_over(one_action_model(), 3)
    with pytest.raises(UnboundedCycleError) as exc:
        build_chronology(
            events,
            [ChronEdge("E1", "E2"), ChronEdge("E2", "E3"), ChronEdge("E3", "E2")],
        )
    assert set(exc.value.cycle) == {"E2", "E3"}


def test_bounded_back_edge_makes_a_cycle_legal():
    events = events_over(one_action_model(), 3)
    graph = build_chronology(
        events,
        [ChronEdge("E1", "E2"), ChronEdge("E2", "E3"), ChronEdge("E3", "E2")],
        {("E3", "E2"): 2},
    )
    assert graph.initial_events == ("E1",)


def test_every_event_with_a_predecessor_is_refused():
    events = events_over(one_action_model(), 2)
    with pytest.raises(NoInitialEventError):
        build_chronology(
            events,
            [ChronEdge("E1", "E2"), ChronEdge("E2", "E1")],
            {("E2", "E1"): 2, ("E1", "E2"): 2},
        )


def test_initial_events_are_sorted():
    events = events_over(one_action_model(), 3)
    graph = build_chronology(events, [ChronEdge("E3", "E2")])
    assert graph.initial_events == ("E1", "E3")


def test_a_long_chain_chronology_builds():
    events = events_over(one_action_model(), 3000)
    chain = [ChronEdge(f"E{i}", f"E{i + 1}") for i in range(1, 3000)]
    graph = build_chronology(events, chain)
    assert graph.initial_events == ("E1",)
    with pytest.raises(UnboundedCycleError) as exc:
        build_chronology(events, [*chain, ChronEdge("E3000", "E2999")])
    assert exc.value.cycle == ["E2999", "E3000"]


def recursive_find_cycle(vertices, edges):
    """The recursive depth-first search that ``_find_cycle`` replaces,
    kept as the reference for its visit order."""
    adjacency = {}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
    color = dict.fromkeys(vertices, "white")
    path = []

    def visit(node):
        color[node] = "grey"
        path.append(node)
        for nxt in adjacency.get(node, ()):
            if color[nxt] == "grey":
                return path[path.index(nxt):]
            if color[nxt] == "white":
                cycle = visit(nxt)
                if cycle is not None:
                    return cycle
        color[node] = "black"
        path.pop()
        return None

    for vertex in sorted(vertices):
        if color[vertex] == "white":
            cycle = visit(vertex)
            if cycle is not None:
                return cycle
    return None


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_find_cycle_matches_networkx(seed):
    rng = Random(seed)
    vertices = {f"E{i}" for i in range(rng.randint(1, 10))}
    edges = [
        (rng.choice(sorted(vertices)), rng.choice(sorted(vertices)))
        for _ in range(rng.randint(0, 14))
    ]
    graph = nx.DiGraph(edges)
    graph.add_nodes_from(vertices)
    try:
        nx.find_cycle(graph)
        has_cycle = True
    except nx.NetworkXNoCycle:
        has_cycle = False

    cycle = _find_cycle(vertices, edges)
    assert (cycle is not None) == has_cycle
    assert cycle == recursive_find_cycle(vertices, edges)
    if cycle is not None:
        assert len(set(cycle)) == len(cycle)
        for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
            assert (src, dst) in edges


# ---------------------------------------------------------------------------
# simulation


def chronology(edges, bounds=None, count=None):
    if count is None:
        count = max(int(name[1:]) for pair in edges for name in pair[:2])
    events = events_over(one_action_model(), count)
    chron_edges = [ChronEdge(*e) for e in edges]
    return build_chronology(events, chron_edges, bounds or {})


def test_simulation_starts_at_the_least_initial_event():
    graph = chronology([("E2", "E3")], count=3)  # E1 and E2 are both initial
    trace = simulate(graph, Scenario("empty"))
    assert trace.steps == (("E1", 0),)


def test_first_true_guard_wins_and_later_guards_are_not_consulted():
    graph = chronology([("E1", "E2", "g"), ("E1", "E3", "h")])
    trace = simulate(graph, Scenario("s", {"g": (True,)}))
    assert trace.event_ids == ("E1", "E2")  # h never looked at

    trace = simulate(graph, Scenario("s", {"g": (False,), "h": (True,)}))
    assert trace.event_ids == ("E1", "E3")


def test_all_guards_false_falls_through_to_unguarded():
    graph = chronology([("E1", "E2", "g"), ("E1", "E3")])
    trace = simulate(graph, Scenario("s", {"g": (False,)}))
    assert trace.event_ids == ("E1", "E3")


def test_all_guards_false_without_fallback_is_an_error():
    graph = chronology([("E1", "E2", "g")])
    with pytest.raises(NoEnabledSuccessorError):
        simulate(graph, Scenario("s", {"g": (False,)}))


def test_missing_decision_is_an_exhaustion_error():
    graph = chronology([("E1", "E2", "g")])
    with pytest.raises(ScenarioExhaustedError):
        simulate(graph, Scenario("s"))


def test_bounded_loop_runs_down_then_falls_through():
    graph = chronology(
        [("E1", "E2"), ("E2", "E3"), ("E3", "E2"), ("E3", "E4")],
        bounds={("E3", "E2"): 2},
    )
    trace = simulate(graph, Scenario("empty"))
    assert trace.event_ids == ("E1", "E2", "E3", "E2", "E3", "E2", "E3", "E4")


def test_run_ends_when_only_exhausted_loops_remain():
    graph = chronology(
        [("E1", "E2"), ("E2", "E3"), ("E3", "E2")], bounds={("E3", "E2"): 1}
    )
    trace = simulate(graph, Scenario("empty"))
    assert trace.event_ids == ("E1", "E2", "E3", "E2", "E3")


def test_simulation_is_deterministic():
    graph = chronology(
        [("E1", "E2", "g"), ("E1", "E3"), ("E3", "E4"), ("E4", "E3")],
        bounds={("E4", "E3"): 3},
    )
    scenario = Scenario("s", {"g": (False,)})
    assert simulate(graph, scenario) == simulate(graph, scenario)


# ---------------------------------------------------------------------------
# conformance


def test_conformance_accepts_simulated_traces():
    graph = chronology(
        [("E1", "E2"), ("E2", "E3"), ("E3", "E2"), ("E3", "E4")],
        bounds={("E3", "E2"): 2},
    )
    trace = simulate(graph, Scenario("empty"))
    assert conformance(trace, graph).ok


def test_conformance_flags_step_indices_out_of_sequence():
    graph = chronology([("E1", "E2")])
    result = conformance(Trace((("E1", 0), ("E2", 5)), "x"), graph)
    assert not result.ok
    assert result.violation.step == 1
    assert "out of sequence" in result.violation.message


def test_conformance_flags_unknown_events():
    graph = chronology([("E1", "E2")])
    result = conformance(Trace((("E9", 0),), "x"), graph)
    assert not result.ok
    assert "unknown event" in result.violation.message


def test_conformance_flags_missing_edges():
    graph = chronology([("E1", "E2"), ("E2", "E3")])
    result = conformance(Trace((("E1", 0), ("E3", 1)), "x"), graph)
    assert not result.ok
    assert "no edge E1 -> E3" in result.violation.message


def test_conformance_counts_loop_bounds():
    graph = chronology(
        [("E1", "E2"), ("E2", "E3"), ("E3", "E2")], bounds={("E3", "E2"): 2}
    )
    steps = ["E2", "E3"] * 3 + ["E2"]
    trace = Trace(tuple((e, i) for i, e in enumerate(steps)), "x")
    result = conformance(trace, graph)
    assert not result.ok
    assert "over its loop bound" in result.violation.message
    assert str(result.violation).startswith("step 6:")


def test_loop_budgets_compound_along_a_chain():
    # a budget-2 back-edge over a 5-event chain replays the whole tail
    # each time, so traces can far exceed |events| + total budget; the
    # guaranteed ceiling is (1 + total budget) * |events|
    graph = chronology(
        [("E1", "E2"), ("E2", "E3"), ("E3", "E4"), ("E4", "E5"), ("E5", "E2")],
        bounds={("E5", "E2"): 2},
    )
    trace = simulate(graph, Scenario("empty"))
    assert len(trace.steps) == 13
    assert len(trace.steps) > 5 + 2
    assert len(trace.steps) <= (1 + 2) * 5


def test_fixture_traces_stay_within_the_additive_bound(
    atm_doc, ordering_doc
):
    # the shipped chronologies have single back-edges, where the simple
    # |events| + budgets ceiling does hold
    runs = [
        (atm_doc, "atm_happy"),
        (atm_doc, "atm_wrong_password"),
        (ordering_doc, "ordering_all_yes"),
        (ordering_doc, "ordering_invalid"),
        (ordering_doc, "ordering_out_of_stock"),
        (ordering_doc, "ordering_payment_fail"),
    ]
    for doc, name in runs:
        trace = simulate(doc.chronology, load_scenario(name))
        ceiling = len(doc.chronology.events) + sum(
            doc.chronology.loop_bounds.values()
        )
        assert len(trace.steps) <= ceiling, name


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_simulated_traces_conform_and_terminate(seed):
    rng = Random(seed)
    doc = random_document(rng)
    if doc.chronology is None or not doc.chronology.events:
        return
    guards = {e.guard for e in doc.chronology.edges if e.guard is not None}
    scenario = Scenario(
        "fuzz",
        {g: tuple(rng.random() < 0.5 for _ in range(256)) for g in guards},
    )
    try:
        trace = simulate(doc.chronology, scenario)
    except (ScenarioExhaustedError, NoEnabledSuccessorError):
        return
    assert conformance(trace, doc.chronology).ok
    budget = sum(doc.chronology.loop_bounds.values())
    assert len(trace.steps) <= (1 + budget) * len(doc.chronology.events)


# ---------------------------------------------------------------------------
# scenario and trace files


def test_parse_scenario():
    scenario = parse_scenario(
        "# choices\npassword OK = F, F, T\ncard OK = T\n\n", "retry"
    )
    assert scenario.name == "retry"
    assert scenario.decisions == {
        "password OK": (False, False, True),
        "card OK": (True,),
    }


def test_parse_scenario_rejects_garbage():
    with pytest.raises(ScenarioError, match="expected 'guard"):
        parse_scenario("just words\n")
    with pytest.raises(ScenarioError, match="expected T or F"):
        parse_scenario("g = T, maybe\n")
    with pytest.raises(ScenarioError, match="duplicate guard"):
        parse_scenario("g = T\ng = F\n")
    with pytest.raises(ScenarioError, match="empty guard label"):
        parse_scenario("= T\n")


def test_trace_json_round_trip():
    graph = chronology([("E1", "E2")])
    trace = simulate(graph, Scenario("walk"))
    again = trace_from_json(trace_to_json(trace))
    assert again.steps == trace.steps
    assert again.scenario == "walk"


def test_trace_from_json_rejects_malformed_input():
    with pytest.raises(ScenarioError, match="not valid JSON"):
        trace_from_json("{nope")
    with pytest.raises(ScenarioError, match="'steps'"):
        trace_from_json("[]")
    with pytest.raises(ScenarioError, match="'event'"):
        trace_from_json('{"steps": [{"index": 0}]}')


def test_chronology_rejects_duplicate_edges():
    events = events_over(one_action_model(), 2)
    edge = ChronEdge("E1", "E2")
    with pytest.raises(DynamicsError, match="duplicate chronology edge E1 -> E2"):
        build_chronology(events, [edge, edge])


@pytest.mark.parametrize(
    "text, complaint",
    [
        ('{"steps": ""}', "'steps' list"),
        ('{"steps": {}}', "'steps' list"),
        ('{"steps": [{"event": "E1", "index": true}]}', "index True is not"),
        ('{"steps": [{"event": "E1", "index": 0.9}]}', "index 0.9 is not"),
        ('{"steps": [{"event": "E1", "index": 1e400}]}', "index inf is not"),
        ("[" * 100_000 + "]" * 100_000, "not valid JSON"),
        ('{"steps": [{"event": ["E1"]}]}', r"event \['E1'\] is not a string"),
        ('{"scenario": 5, "steps": []}', "scenario 5 is not a string"),
    ],
    ids=[
        "string-steps", "object-steps", "bool", "fraction", "inf", "deep",
        "list-event", "number-scenario",
    ],
)
def test_trace_from_json_refuses_what_it_used_to_coerce(text, complaint):
    with pytest.raises(ScenarioError, match=complaint):
        trace_from_json(text)


def test_trace_from_json_reads_integral_indexes():
    text = '{"steps": [{"event": "E1", "index": 0.0}, {"event": "E2", "index": "1"}]}'
    assert trace_from_json(text).steps == (("E1", 0), ("E2", 1))
