"""Events, chronologies, simulation, conformance, and the file formats."""
import json
import subprocess
import sys
import time
from collections import Counter
from random import Random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit import (
    ChronEdge,
    Flow,
    ModelBuilder,
    Scenario,
    Trace,
    build_chronology,
    check_coverage,
    conformance,
    define_event,
    parse_scenario,
    simulate,
    structurally_equal,
    structurally_equal_documents,
    trace_from_json,
    trace_to_json,
)
from tmkit.dsl import parse
from tmkit.dynamics import (
    DisconnectedRegionError,
    Document,
    DynamicsError,
    Event,
    NoInitialEventError,
    UnboundedCycleError,
    UnknownActionError,
    UnknownEventError,
    _find_cycle,
    _weak_components,
    escape,
)
from tmkit.errors import _list, _template, decode_json
from tmkit.walk import (
    ConformanceResult,
    NoEnabledSuccessorError,
    ScenarioError,
    ScenarioExhaustedError,
    Violation,
    _name,
    _step_index,
)
from tmkit.writer import format_document

from conftest import ODD_LINE_BREAKS, ODD_NAMES, load_scenario, tmkit_env
from generators import mutate, random_document, random_legal_model, random_raw_model
from test_model import (
    model_changes,
    record_changes,
    storage_or_flow_models,
    structurally_equal_by_fields,
)

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


def weak_components_by_full_search(model, members):
    """The region check as it was before its first search could stop
    early: every weak component, each search started from the least
    unvisited vertex, so components come ordered by their least vertex."""
    bridge_storages = {
        node
        for member in members
        for edge in model.edges_at.get(member, ())
        if isinstance(edge, Flow)
        for node in (edge.src, edge.dst)
        if node in model.storages_by_id
    }
    vertices = members | bridge_storages
    components = []
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


def region_components_by_networkx(model, members):
    """The region's weak components by networkx, over the region and the
    storages on a flow with a member endpoint: each component's members
    sorted, the components ordered by their least vertex."""
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
    return [
        sorted(component & members)
        for component in sorted(nx.weakly_connected_components(graph), key=min)
        if component & members
    ]


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_region_components_match_networkx(seed):
    rng = Random(seed)
    model = random_raw_model(rng)
    members = frozenset(
        rng.sample(sorted(model.actions_by_id), rng.randint(1, len(model.actions)))
    )
    expected = region_components_by_networkx(model, members)
    assert _weak_components(model, members) == expected
    assert weak_components_by_full_search(model, members) == expected


def random_region(rng, model):
    """A random set of the model's actions, or one grown along its edges,
    which is more often connected."""
    actions = sorted(model.actions_by_id)
    if rng.random() < 0.5:
        return rng.sample(actions, rng.randint(1, min(4, len(actions))))
    region = [rng.choice(actions)]
    edges = (*model.flows, *model.triggers)
    for _ in range(rng.randint(0, 6)):
        ends = [
            end
            for e in edges
            if e.src in region or e.dst in region
            for end in (e.src, e.dst)
            if end in model.actions_by_id and end not in region
        ]
        if ends:
            region.append(rng.choice(ends))
    return region


@given(seeds)
@settings(max_examples=300, deadline=None)
def test_define_event_accepts_a_region_exactly_when_networkx_finds_one_component(seed):
    rng = Random(seed)
    if rng.random() < 0.5:
        model = random_legal_model(rng)
    else:
        model = random_document(rng).model
    region = random_region(rng, model)
    members = frozenset(region)
    expected = region_components_by_networkx(model, members)
    assert weak_components_by_full_search(model, members) == expected
    try:
        event = define_event(model, "E1", "x", region)
    except DisconnectedRegionError as exc:
        assert len(expected) > 1
        assert exc.components == expected
    else:
        assert expected == [sorted(members)]
        assert event.region == members


def test_check_coverage_lists_the_uncovered():
    builder = ModelBuilder("m")
    builder.add_thimac("t", id="t")
    builder.add_action("create", "t", id="t/a")
    builder.add_action("process", "t", id="t/b")
    model = builder.build()
    event = define_event(model, "E1", "x", ["t/a"])
    assert check_coverage(model, [event]) == ("t/b",)
    assert check_coverage(model, []) == ("t/a", "t/b")


def test_check_coverage_names_the_same_unknown_action_under_any_hash_seed():
    # A region is a frozenset, whose order follows the string hash, and
    # that differs from one interpreter to the next.
    script = (
        "from tmkit import ModelBuilder, check_coverage\n"
        "from tmkit.dynamics import Event, UnknownActionError\n"
        "builder = ModelBuilder('m')\n"
        "builder.add_thimac('t', id='t')\n"
        "event = Event('E1', 'x', frozenset({'t/x', 't/y', 't/z'}))\n"
        "try:\n"
        "    check_coverage(builder.build(), [event])\n"
        "except UnknownActionError as exc:\n"
        "    print(exc)\n"
    )
    for seed in range(1, 7):
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=tmkit_env(PYTHONHASHSEED=str(seed)), timeout=60,
        )
        assert result.stdout == (
            "event E1 references 't/x', which is not an action\n"
        ), seed


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


def test_chronology_names_the_first_event_id_that_recurs():
    model = one_action_model()
    events = [define_event(model, i, i, ["t/a"]) for i in ("a", "b", "b", "a")]
    with pytest.raises(DynamicsError, match="duplicate event id 'a'"):
        build_chronology(events, [])


def test_a_late_duplicate_among_20000_events_is_found_quickly():
    events = [Event(f"E{i}", "x", frozenset({"t/a"})) for i in range(20_000)]
    events.append(events[-1])
    start = time.perf_counter()
    with pytest.raises(DynamicsError, match="duplicate event id 'E19999'"):
        build_chronology(events, [])
    assert time.perf_counter() - start < 1.0


def test_chronology_rejects_unknown_edge_endpoints():
    events = events_over(one_action_model(), 1)
    with pytest.raises(UnknownEventError):
        build_chronology(events, [ChronEdge("E1", "E9")])


def test_chronology_takes_edges_as_plain_tuples():
    events = events_over(one_action_model(), 3)
    graph = build_chronology(
        events,
        [("E1", "E2"), ("E2", "E3", "again"), ChronEdge("E3", "E2")],
        {("E3", "E2"): 2},
    )
    assert graph.edges == (
        ChronEdge("E1", "E2"), ChronEdge("E2", "E3", "again"), ChronEdge("E3", "E2")
    )
    assert all(type(edge) is ChronEdge for edge in graph.edges)
    assert graph.successors["E2"][0].guard == "again"


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


def test_chronology_edges_may_be_given_as_pairs():
    # the pair form is kept for callers that build chronologies from data
    events = events_over(one_action_model(), 3)
    from_pairs = build_chronology(
        events, [("E1", "E2"), ("E2", "E3"), ("E3", "E2")], {("E3", "E2"): 2}
    )
    from_edges = build_chronology(
        events,
        [ChronEdge("E1", "E2"), ChronEdge("E2", "E3"), ChronEdge("E3", "E2")],
        {("E3", "E2"): 2},
    )
    assert from_pairs == from_edges


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


def test_a_scenario_without_decisions_has_a_read_only_empty_mapping():
    scenario = Scenario("s")
    with pytest.raises(TypeError):
        scenario.decisions["g"] = (True,)
    assert scenario.decisions == {} == Scenario("t").decisions


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


def test_conformance_requires_a_start_at_an_initial_event():
    graph = chronology([("E1", "E3"), ("E2", "E3")])
    assert graph.initial_events == ("E1", "E2")
    for first in graph.initial_events:
        assert conformance(Trace(((first, 0), ("E3", 1)), "x"), graph).ok
    result = conformance(Trace((("E3", 0),), "x"), graph)
    assert result == (False, Violation(0, "E3 is not an initial event"))
    assert conformance(Trace((), "x"), graph).ok


def test_conformance_counts_loop_bounds():
    graph = chronology(
        [("E1", "E2"), ("E2", "E3"), ("E3", "E2")], bounds={("E3", "E2"): 2}
    )
    steps = ["E1"] + ["E2", "E3"] * 3 + ["E2"]
    trace = Trace(tuple((e, i) for i, e in enumerate(steps)), "x")
    result = conformance(trace, graph)
    assert not result.ok
    assert "over its loop bound" in result.violation.message
    assert str(result.violation).startswith("step 7:")


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


def test_a_scenario_line_splits_at_its_last_equals_sign():
    scenario = parse_scenario("balance >= amount = T, F\na == b = F\n")
    assert scenario.decisions == {
        "balance >= amount": (True, False),
        "a == b": (False,),
    }


def test_a_scenario_label_is_stripped():
    # so a guard with leading or trailing whitespace cannot be named
    scenario = parse_scenario(" ok = T\n\t padded\t= F\n")
    assert scenario.decisions == {"ok": (True,), "padded": (False,)}


@given(
    st.text().filter(lambda text: "\n" not in text),
    st.sampled_from(["", "  ", "\t"]),
    st.sampled_from([" = ", "=", "\t= "]),
    st.sampled_from(["", " ", "  # note"]),
)
@settings(max_examples=300, deadline=None)
def test_a_quoted_scenario_label_reads_back_as_its_guard(guard, indent, equals, tail):
    # "x" = T names x, not a guard spelled with its quotes
    line = f'{indent}"{escape(guard)}"{equals}T, F{tail}'
    assert parse_scenario(line).decisions == {guard: (True, False)}


@pytest.mark.parametrize(
    "text, message",
    [
        ('"open = T\n', "line 1: expected '\"' to close the guard"),
        ('g = T\n "ends \\" = T\n', "line 2: expected '\"' to close the guard"),
        ('"g" T\n', "line 1: expected '=' after the quoted guard"),
        ('"g" # = T\n', "line 1: expected '=' after the quoted guard"),
        ('"g" = T\n"g" = F\n', "line 2: duplicate guard 'g'"),
        ('"g" = T, = F\n', "line 1: expected T or F, found '= F'"),
    ],
)
def test_a_malformed_quoted_scenario_line_names_its_line(text, message):
    with pytest.raises(ScenarioError) as raised:
        parse_scenario(text)
    assert str(raised.value) == message


@pytest.mark.parametrize("odd", ODD_LINE_BREAKS)
def test_scenario_line_numbers_count_newlines(odd):
    with pytest.raises(ScenarioError, match="^line 3: expected 'guard"):
        parse_scenario(f"g = T{odd}\n# two\nbad\n")
    with pytest.raises(ScenarioError, match="^line 1: expected T or F"):
        parse_scenario(f"g = T{odd}h\n")


def test_trace_json_round_trip():
    graph = chronology([("E1", "E2")])
    trace = simulate(graph, Scenario("walk"))
    again = trace_from_json(trace_to_json(trace))
    assert again.steps == trace.steps
    assert again.scenario == "walk"


@pytest.mark.parametrize(
    "steps",
    [(("E1", 0, "x"), ("E2", 1)), (("E1", 0), ("E2", 1, "x")), (("E1", 0), ("E2",))],
    ids=["long-first", "long-last", "short"],
)
def test_trace_to_json_refuses_a_step_that_is_no_pair(steps):
    with pytest.raises(ValueError):
        trace_to_json(Trace(steps, "x"))


def test_trace_json_writes_every_index_as_an_integer():
    odd = Trace((("E1", False), ("E2", True), ("E3", 2.0)), "x")
    assert trace_to_json(odd) == trace_to_json(
        Trace((("E1", 0), ("E2", 1), ("E3", 2)), "x")
    )


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


# ---------------------------------------------------------------------------
# references: the walk, the conformance check and the trace writer and
# reader that the step plan, the pair set and the template replaced


def simulate_by_scan(chronology, scenario):
    """The walk that rescans each event's successors at every step."""
    if not chronology.initial_events:
        raise NoInitialEventError("chronology has no initial event")
    current = chronology.initial_events[0]

    budgets = dict(chronology.loop_bounds)
    cursors = {}
    steps = [(current, 0)]

    while True:
        candidates = chronology.successors.get(current, ())
        if not candidates:
            break
        taken = pick_edge_by_scan(
            candidates, budgets, cursors, scenario, len(steps) - 1
        )
        if taken is None:
            break
        pair = (taken.src, taken.dst)
        if pair in budgets:
            budgets[pair] -= 1
        current = taken.dst
        steps.append((current, len(steps)))
    return Trace(tuple(steps), scenario.name)


def pick_edge_by_scan(candidates, budgets, cursors, scenario, step):
    def blocked(edge):
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
    return None


def conformance_by_scan(trace, chronology):
    """The check that scans the successors of the previous event."""
    def fail(step, message):
        return ConformanceResult(False, Violation(step, message))

    counts = {}
    previous = None
    for position, (event_id, index) in enumerate(trace.steps):
        if index != position:
            return fail(position, f"step index {index} out of sequence")
        if event_id not in chronology.events_by_id:
            return fail(position, f"unknown event {event_id!r}")
        if previous is None and event_id not in chronology.initial_events:
            return fail(position, f"{event_id} is not an initial event")
        if previous is not None:
            successors = chronology.successors.get(previous, ())
            if not any(e.dst == event_id for e in successors):
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


def trace_to_json_by_dumps(trace):
    payload = {
        "scenario": trace.scenario,
        "steps": [
            {"index": index, "event": event} for event, index in trace.steps
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def trace_to_json_by_step_template(trace):
    """The writer that encodes each step's event and fills one template
    per step."""
    from json.encoder import encode_basestring_ascii as encode

    step = _template(("index", "event"), 2) % ("%d", "%s")
    steps = [step % (index, encode(event)) for event, index in trace.steps]
    head = _template(("scenario", "steps"), 0)
    return head % (encode(trace.scenario), _list(steps, 1)) + "\n"


def conformance_by_walk(trace, chronology):
    """The check that walks every step, with the chronology's pair set and
    a count per bounded edge."""
    def fail(step, message):
        return ConformanceResult(False, Violation(step, message))

    known = chronology.events_by_id
    pairs = chronology.edge_pairs
    bounds = chronology.loop_bounds
    counts = {}
    previous = None
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


def trace_from_json_by_checks(text):
    """The reader that sends every index and name through the checks."""
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


def outcome(function, *args):
    """The result, or the type and text of the error raised."""
    try:
        return function(*args)
    except DynamicsError as exc:
        return type(exc), str(exc)


GUARDS = ("g", "h", "k l", "m'n")


def random_chronology(rng):
    """Up to 8 events, often chained E1 -> E2 -> ..., with more forward
    edges and bounded back-edges.  Guards come from a pool of four, so
    several edges may share one; a bound may sit on a forward edge or on
    a guarded edge too.  No edge enters E1, so E1 starts every walk."""
    count = rng.randint(1, 8)
    events = events_over(one_action_model(), count)
    chain = [(i, i + 1) for i in range(count - 1)] if rng.random() < 0.7 else []
    extra = [
        (rng.randrange(count), rng.randrange(1, count) if count > 1 else 0)
        for _ in range(rng.randint(0, 2 * count))
    ]
    pairs = set()
    edges = []
    bounds = {}
    for i, j in rng.sample(chain + extra, len(chain) + len(extra)):
        if i == j or (i, j) in pairs:
            continue
        pairs.add((i, j))
        src, dst = f"E{i + 1}", f"E{j + 1}"
        guard = rng.choice(GUARDS) if rng.random() < 0.5 else None
        edges.append(ChronEdge(src, dst, guard))
        if j < i or rng.random() < 0.2:
            bounds[(src, dst)] = rng.randint(1, 3)
    return build_chronology(events, edges, bounds)


def random_scenario(rng):
    """Decisions for some of the guards; short lists run out mid-walk."""
    return Scenario(
        "fuzz",
        {
            guard: tuple(rng.random() < 0.5 for _ in range(rng.randint(0, 12)))
            for guard in GUARDS
            if rng.random() < 0.85
        },
    )


def random_trace(rng, chronology, walked):
    """The simulated walk, or a walk along random edges, with at most one
    edit: a step index shifted, an event swapped, or an unknown event."""
    if walked is not None and rng.random() < 0.5:
        events = list(walked.event_ids)
    else:
        events = [rng.choice(chronology.events).id]
        for _ in range(rng.randint(0, 30)):
            successors = chronology.successors.get(events[-1])
            if not successors:
                break
            events.append(rng.choice(successors).dst)
    steps = [(event, index) for index, event in enumerate(events)]
    position = rng.randrange(len(steps))
    event, index = steps[position]
    roll = rng.random()
    if roll < 0.15:
        steps[position] = (event, index + rng.choice((-1, 1)))
    elif roll < 0.35:
        steps[position] = (rng.choice(chronology.events).id, index)
    elif roll < 0.45:
        steps[position] = ("E99", index)
    return Trace(tuple(steps), "fuzz")


@given(seeds)
@settings(max_examples=500, deadline=None)
def test_simulate_and_conformance_match_the_scans(seed):
    rng = Random(seed)
    chronology = random_chronology(rng)
    scenario = random_scenario(rng)
    expected = outcome(simulate_by_scan, chronology, scenario)
    assert outcome(simulate, chronology, scenario) == expected
    walked = expected if isinstance(expected, Trace) else None
    for _ in range(4):
        trace = random_trace(rng, chronology, walked)
        assert conformance(trace, chronology) == conformance_by_scan(
            trace, chronology
        )
    for src in chronology.events:
        for dst in chronology.events:
            assert chronology.has_edge(src.id, dst.id) == any(
                e.dst == dst.id for e in chronology.successors.get(src.id, ())
            )


def fuzzed_trace(rng, chronology, walked):
    """A ``random_trace`` whose indices are sometimes written as an equal
    float or bool, or off by a half, and which sometimes holds an event
    that cannot be hashed, or a step that is no pair."""
    steps = list(random_trace(rng, chronology, walked).steps)
    for position, (event, index) in enumerate(steps):
        roll = rng.random()
        if roll < 0.1:
            steps[position] = (event, float(index))
        elif roll < 0.2 and index in (0, 1):
            steps[position] = (event, bool(index))
        elif roll < 0.22:
            steps[position] = (event, index + 0.5)
    if rng.random() < 0.1:
        at = rng.randrange(len(steps) + 1)
        steps.insert(at, (["E1"], at))
    if rng.random() < 0.1:
        at = rng.randrange(len(steps))
        steps[at] = rng.choice([(*steps[at], "x"), steps[at][:1]])
    return Trace(tuple(steps), "fuzz")


def verdict(function, *args):
    """The result, or the type and text of any error raised."""
    try:
        return function(*args)
    except Exception as exc:
        return type(exc), str(exc)


@given(seeds)
@settings(max_examples=500, deadline=None)
def test_conformance_matches_the_walk_on_fuzzed_traces(seed):
    rng = Random(seed)
    chronology = random_chronology(rng)
    walked = outcome(simulate, chronology, random_scenario(rng))
    walked = walked if isinstance(walked, Trace) else None
    for _ in range(4):
        trace = fuzzed_trace(rng, chronology, walked)
        assert verdict(conformance, trace, chronology) == verdict(
            conformance_by_walk, trace, chronology
        )


#: Names that hold ``%``, which a template must not read as a directive.
PERCENT_NAMES = ["%", "%d", "100%s", "%%", "a%(x)s b"]


@given(seeds)
@settings(max_examples=300, deadline=None)
def test_trace_to_json_matches_the_step_template_writer(seed):
    rng = Random(seed)
    names = ODD_NAMES + PERCENT_NAMES
    steps = tuple(
        (rng.choice(names), rng.choice((i, -i, float(i), i + 0.5, i % 2 == 1, 10**20 + i)))
        for i in range(rng.randint(0, 30))
    )
    trace = Trace(steps, rng.choice(names))
    assert trace_to_json(trace) == trace_to_json_by_step_template(trace)


def test_the_scans_agree_on_the_fixture_walks(atm_doc, ordering_doc):
    for doc, name in [
        (atm_doc, "atm_happy"),
        (atm_doc, "atm_wrong_password"),
        (ordering_doc, "ordering_all_yes"),
        (ordering_doc, "ordering_invalid"),
        (ordering_doc, "ordering_out_of_stock"),
        (ordering_doc, "ordering_payment_fail"),
    ]:
        scenario = load_scenario(name)
        trace = simulate(doc.chronology, scenario)
        assert trace == simulate_by_scan(doc.chronology, scenario), name
        assert trace_to_json(trace) == trace_to_json_by_dumps(trace), name
        assert conformance(trace, doc.chronology) == ConformanceResult(True)


@pytest.mark.parametrize("name", ODD_NAMES)
def test_trace_to_json_writes_the_bytes_json_dumps_writes(name):
    for trace in [
        Trace((), name),
        Trace(((name, 0),), "walk"),
        Trace(((name, 0), ("E2", 1), (name, 2)), name),
    ]:
        assert trace_to_json(trace) == trace_to_json_by_dumps(trace)
    assert trace_to_json(Trace((), name)).endswith('"steps": []\n}\n')


@given(
    st.text(),
    st.lists(st.tuples(st.text(), st.integers(min_value=-2, max_value=10**30))),
)
@settings(max_examples=300, deadline=None)
def test_trace_to_json_matches_json_dumps(scenario, steps):
    trace = Trace(tuple(steps), scenario)
    assert trace_to_json(trace) == trace_to_json_by_dumps(trace)


TRACE_VALUES = (
    None, True, False, 0, 1, -3, 7, 0.0, 2.0, 0.5, 1e300, "", "1", " 2 ",
    "x", "E1", "é", [], {}, ["E1"], {"event": "E1"},
)


@given(seeds)
@settings(max_examples=500, deadline=None)
def test_trace_from_json_matches_the_reference(seed):
    rng = Random(seed)
    payload = {
        "scenario": "walk",
        "steps": [
            {"index": i, "event": f"E{rng.randint(1, 4)}"}
            for i in range(rng.randint(0, 5))
        ],
    }
    for _ in range(rng.randint(1, 3)):
        payload = mutate(rng, payload, TRACE_VALUES)
    text = json.dumps(payload)
    assert outcome(trace_from_json, text) == outcome(trace_from_json_by_checks, text)


@pytest.mark.parametrize(
    "steps",
    [
        [{"event": "E1", "index": True}],
        [{"event": "E1", "index": False}],
        [{"event": "E1", "index": 1.0}],
        [{"event": "E1", "index": 1.5}],
        [{"event": "E1", "index": "2"}],
        [{"event": "E1", "index": "two"}],
        [{"event": "E1"}, {"event": "E2"}],
        [{"event": 3}],
        [{"event": None, "index": 0}],
        [{"event": "E1", "index": None}],
        ["E1"],
        [["E1", 0]],
        [None],
    ],
)
def test_trace_from_json_keeps_every_refusal(steps):
    text = json.dumps({"scenario": "walk", "steps": steps})
    assert outcome(trace_from_json, text) == outcome(trace_from_json_by_checks, text)


# ---------------------------------------------------------------------------
# structural equality of documents


def structurally_equal_documents_by_fields(a: Document, b: Document) -> bool:
    """``structurally_equal_documents`` as it was before events were compared
    by their own ``==``.  The reference the tests below check it against."""
    if not structurally_equal_by_fields(a.model, b.model):
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
    if Counter((e.src, e.dst, e.guard) for e in ca.edges) != Counter(
        (e.src, e.dst, e.guard) for e in cb.edges
    ):
        return False
    return dict(ca.loop_bounds) == dict(cb.loop_bounds)


@settings(max_examples=150, deadline=None)
@given(seeds, seeds)
def test_document_equality_agrees_with_the_field_tuples_on_pairs(seed, other):
    one = random_document(Random(seed))
    again = random_document(Random(seed))
    two = random_document(Random(other))
    same_model = two._replace(model=one.model)
    assert structurally_equal_documents(one, again)
    assert structurally_equal_documents_by_fields(one, again)
    for a, b in [(one, two), (one, same_model), (same_model, one)]:
        assert structurally_equal_documents(a, b) == (
            structurally_equal_documents_by_fields(a, b)
        )


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_document_equality_agrees_with_the_field_tuples_on_one_field_changes(seed):
    rng = Random(seed)
    doc = random_document(rng)
    changes = [
        doc._replace(model=model)
        for *_, model in model_changes(doc.model, rng)
    ]
    for name, form, events in record_changes(doc.events, rng):
        changes.append(doc._replace(events=events))
        if form == "replaced":
            assert not structurally_equal_documents(doc, changes[-1]), name
    for changed in changes:
        verdict = structurally_equal_documents(doc, changed)
        assert verdict == structurally_equal_documents_by_fields(doc, changed)
        assert structurally_equal_documents(changed, doc) == verdict


def test_document_equality_tells_a_storage_from_a_flow_of_the_same_values():
    as_storage, as_flow = (Document(model) for model in storage_or_flow_models())
    assert not structurally_equal_documents(as_storage, as_flow)
    assert not structurally_equal_documents(as_flow, as_storage)
    assert structurally_equal_documents(as_storage, as_storage)


def guard_document(trigger: str, edge: str) -> Document:
    return parse(
        f"model m {{\n  thimac t {{\n    process x\n    process y\n    {trigger}\n"
        "  }\n}\n"
        'events {\n  event E "e" { t/x }\n  event F "f" { t/y }\n}\n'
        f"chronology {{\n  {edge}\n}}\n"
    )


@pytest.mark.parametrize(
    "trigger, edge", [('y ~> x if ""', "E -> F"), ("y ~> x", 'E -> F if ""')],
    ids=["condition", "guard"],
)
def test_document_equality_tells_an_absent_condition_or_guard_from_an_empty_one(
    trigger, edge
):
    plain, empty = guard_document("y ~> x", "E -> F"), guard_document(trigger, edge)
    assert format_document(plain) != format_document(empty)
    assert not structurally_equal_documents(plain, empty)
    assert not structurally_equal_documents(empty, plain)
    assert not structurally_equal_documents_by_fields(plain, empty)
    assert structurally_equal_documents(empty, guard_document(trigger, edge))
    if edge == "E -> F":
        assert not structurally_equal(plain.model, empty.model)
    else:  # only the guarded edge reads a decision
        assert simulate(plain.chronology, Scenario("s")).event_ids == ("E", "F")
        with pytest.raises(ScenarioExhaustedError):
            simulate(empty.chronology, Scenario("s"))


def test_document_equality_sees_each_chronology_difference(ordering_doc):
    chronology = ordering_doc.chronology
    first, *rest = chronology.edges
    guarded = next(i for i, e in enumerate(chronology.edges) if e.guard is not None)
    edges = list(chronology.edges)
    edges[guarded] = edges[guarded]._replace(guard="otherwise")
    changes = {
        "no chronology": None,
        "an event fewer": chronology._replace(events=chronology.events[:-1]),
        "an edge fewer": chronology._replace(edges=tuple(rest)),
        "an edge reversed": chronology._replace(
            edges=(ChronEdge(first.dst, first.src), *rest)
        ),
        "a guard changed": chronology._replace(edges=tuple(edges)),
    }
    for name, changed in changes.items():
        other = ordering_doc._replace(chronology=changed)
        assert structurally_equal_documents(other, other), name
        assert not structurally_equal_documents(ordering_doc, other), name
        assert not structurally_equal_documents(other, ordering_doc), name
