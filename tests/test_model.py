"""Model assembly, validation rules, and the simplification pass."""
import dataclasses
import json
import time
from random import Random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit import (
    ACTION_KINDS,
    LEGAL_FLOW_PAIRS,
    TRANSPORT_KINDS,
    Action,
    Flow,
    ModelBuilder,
    ModelError,
    SimplifyError,
    StaticModel,
    Storage,
    Thimac,
    Trigger,
    from_json,
    simplify,
    structurally_equal,
    to_json,
    validate,
)
from tmkit import model as model_module
from tmkit.model import (
    MAX_DEPTH,
    Diagnostic,
    NestingError,
    _check_containment,
    check_depth,
)

from generators import random_document, random_legal_model, random_raw_model

seeds = st.integers(min_value=0, max_value=10_000)


def two_thimac_builder() -> ModelBuilder:
    builder = ModelBuilder("pair")
    builder.add_thimac("a", id="a")
    builder.add_thimac("b", id="b")
    return builder


# ---------------------------------------------------------------------------
# builder


def test_builder_autogenerates_distinct_ids():
    builder = ModelBuilder("m")
    t1 = builder.add_thimac("one")
    t2 = builder.add_thimac("two")
    assert t1 != t2
    a1 = builder.add_action("create", t1)
    a2 = builder.add_action("process", t1)
    f = builder.add_flow(a1, a2)
    model = builder.build()
    assert {a1, a2} <= set(model.actions_by_id)
    assert model.flows[0].id == f


def test_builder_rejects_duplicate_id():
    builder = ModelBuilder("m")
    builder.add_thimac("one", id="t")
    with pytest.raises(ModelError, match="duplicate id"):
        builder.add_thimac("two", id="t")


def test_builder_rejects_unknown_owner():
    builder = ModelBuilder("m")
    with pytest.raises(ModelError, match="unknown thimac"):
        builder.add_action("create", "ghost")


def test_builder_rejects_dangling_flow():
    builder = two_thimac_builder()
    src = builder.add_action("create", "a")
    with pytest.raises(ModelError, match="unknown node"):
        builder.add_flow(src, "nowhere")


def test_builder_rejects_self_loops():
    builder = two_thimac_builder()
    node = builder.add_action("process", "a")
    with pytest.raises(ModelError, match="loop"):
        builder.add_flow(node, node)
    with pytest.raises(ModelError, match="loop"):
        builder.add_trigger(node, node)


def test_builder_caps_nesting_depth():
    builder = ModelBuilder("m")
    parent = None
    for i in range(MAX_DEPTH):
        parent = builder.add_thimac(f"t{i}", parent, id=f"t{i}")
    with pytest.raises(
        NestingError,
        match=f"thimac 'deeper' is nested {MAX_DEPTH + 1} deep, "
        f"over the limit of {MAX_DEPTH}",
    ):
        builder.add_thimac("deeper", parent)
    assert len(builder.build().thimacs) == MAX_DEPTH


def depth_by_walk(model, thimac):
    """The distinct thimacs on ``thimac``'s parent chain, walked alone."""
    parents = {t.id: t.parent for t in model.thimacs}
    seen = []
    node = thimac.id
    while node in parents and node not in seen:
        seen.append(node)
        node = parents[node]
    return len(seen)


@given(seeds)
@settings(max_examples=500, deadline=None)
def test_check_depth_matches_a_walk_per_thimac(seed):
    model = random_raw_model(Random(seed))  # dangling and cyclic parents
    depths = [(t.name, depth_by_walk(model, t)) for t in model.thimacs]
    for limit in range(7):
        expected = next((d for d in depths if d[1] > limit), None)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model_module, "MAX_DEPTH", limit)
            try:
                check_depth(model)
                found = None
            except NestingError as exc:
                found = (str(exc).split("'")[1], exc.depth)
        assert found == expected, limit


def test_unknown_action_kind_is_refused():
    with pytest.raises(ModelError, match="unknown action kind"):
        Action("a/x", "teleport", "a")


def test_node_kind_and_owner():
    builder = two_thimac_builder()
    act = builder.add_action("create", "a")
    store = builder.add_storage("b", "box")
    model = builder.build()
    assert model.node_kind(act) == "create"
    assert model.node_kind(store) == "storage"
    assert model.node_kind("missing") is None
    assert model.node_owner(act) == "a"
    assert model.node_owner(store) == "b"
    assert model.node_owner("missing") is None


def test_nodes_index_gives_each_endpoint_its_kind_and_owner():
    model = StaticModel(
        "shared",
        thimacs=(Thimac("t", "t"),),
        storages=(Storage("t/x", "t", "x"), Storage("t/s", "ghost", "s")),
        actions=(Action("t/x", "process", "t"), Action("t/c", "create", "t")),
    )
    # the action wins the id it shares with a storage
    assert model.nodes == {
        "t/x": ("process", "t"),
        "t/s": ("storage", "ghost"),
        "t/c": ("create", "t"),
    }
    assert model.node_kind("t/x") == "process"


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_nodes_index_matches_the_record_lookups(seed):
    model = random_raw_model(Random(seed))
    expected = {s.id: ("storage", s.owner) for s in model.storages}
    expected |= {a.id: (a.kind, a.owner) for a in model.actions}
    assert model.nodes == expected
    for edge in (*model.flows, *model.triggers):
        for ref in (edge.src, edge.dst):
            assert (model.node_kind(ref), model.node_owner(ref)) == expected.get(
                ref, (None, None)
            )


def test_children_of_none_lists_roots():
    builder = ModelBuilder("m")
    builder.add_thimac("outer", id="outer")
    builder.add_thimac("inner", parent="outer", id="outer/inner")
    model = builder.build()
    assert [t.id for t in model.children_of(None)] == ["outer"]
    assert [t.id for t in model.children_of("outer")] == ["outer/inner"]


# ---------------------------------------------------------------------------
# indexes


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_grouping_indexes_match_linear_scans(seed):
    model = random_raw_model(Random(seed))
    owners = {None, "ghost_t", *(t.id for t in model.thimacs)}
    for owner in owners:
        assert model.children_of(owner) == tuple(
            t for t in model.thimacs if t.parent == owner
        )
        assert model.actions_of(owner) == tuple(
            a for a in model.actions if a.owner == owner
        )
        assert model.storages_of(owner) == tuple(
            s for s in model.storages if s.owner == owner
        )
    nodes = {"ghost_n", *model.actions_by_id, *model.storages_by_id}
    for node in nodes:
        assert set(model.edges_at.get(node, ())) == {
            e for e in (*model.flows, *model.triggers) if node in (e.src, e.dst)
        }


# ---------------------------------------------------------------------------
# validation


def kinds_of(diagnostics):
    return [(d.severity, d.rule) for d in diagnostics]


def test_empty_model_has_no_diagnostics():
    assert validate(StaticModel("empty")) == ()


def test_r1_process_to_process_inside_one_thimac():
    builder = two_thimac_builder()
    p1 = builder.add_action("process", "a")
    p2 = builder.add_action("process", "a")
    builder.add_flow(p1, p2)
    diagnostics = validate(builder.build())
    assert kinds_of(diagnostics).count(("error", "R1")) == 1


def test_r1_storage_flows_legal_both_directions():
    builder = two_thimac_builder()
    p = builder.add_action("process", "a")
    s = builder.add_storage("a", "box")
    builder.add_flow(p, s)
    builder.add_flow(s, p)
    assert [d for d in validate(builder.build()) if d.rule in ("R1", "R2")] == []


def test_r1_transfer_may_not_touch_storage():
    builder = two_thimac_builder()
    t = builder.add_action("transfer", "a")
    s = builder.add_storage("a", "box")
    builder.add_flow(t, s)
    diagnostics = validate(builder.build())
    assert ("error", "R1") in kinds_of(diagnostics)


def test_r2_cross_thimac_flow_must_be_transfer_to_transfer():
    builder = two_thimac_builder()
    p = builder.add_action("process", "a")
    q = builder.add_action("process", "b")
    builder.add_flow(p, q)
    diagnostics = validate(builder.build())
    assert kinds_of(diagnostics).count(("error", "R2")) == 1

    builder = two_thimac_builder()
    t1 = builder.add_action("transfer", "a")
    t2 = builder.add_action("transfer", "b")
    builder.add_flow(t1, t2)
    assert [d for d in validate(builder.build()) if d.rule == "R2"] == []


def test_r3_receive_without_transfer_input():
    builder = two_thimac_builder()
    builder.add_action("receive", "a", id="a/lonely")
    diagnostics = validate(builder.build())
    assert any(
        d.rule == "R3" and d.severity == "warning" and d.subject == "a/lonely"
        for d in diagnostics
    )


def test_r4_trigger_from_transfer_warns():
    builder = two_thimac_builder()
    t = builder.add_action("transfer", "a")
    p = builder.add_action("process", "a")
    builder.add_trigger(t, p)
    diagnostics = validate(builder.build())
    assert ("warning", "R4") in kinds_of(diagnostics)


def test_r5_containment_cycle():
    model = StaticModel(
        "cyclic",
        thimacs=(Thimac("x", "x", parent="y"), Thimac("y", "y", parent="x")),
    )
    diagnostics = validate(model)
    assert any(d.rule == "R5" and d.severity == "error" for d in diagnostics)


def containment_by_rewalking(model):
    """R5 as it was first written: every thimac walks its whole parent
    chain.  Kept as the reference for the memoized check."""
    known = model.thimacs_by_id
    flagged = set()
    for thimac in model.thimacs:
        if thimac.id in flagged:
            continue
        seen = []
        current = thimac.id
        while current is not None and current in known:
            if current in seen:
                cycle = seen[seen.index(current):]
                flagged.update(cycle)
                yield Diagnostic(
                    "error", "R5", thimac.id,
                    "containment cycle: " + " -> ".join(cycle + [current]),
                )
                break
            seen.append(current)
            current = known[current].parent


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_containment_matches_the_rewalking_reference(seed):
    rng = Random(seed)
    thimacs = list(random_raw_model(rng).thimacs)
    rng.shuffle(thimacs)
    model = StaticModel("raw", thimacs=tuple(thimacs))
    assert list(_check_containment(model)) == list(containment_by_rewalking(model))


def test_deep_containment_chains_validate_fast():
    ids = [f"t{i}" for i in range(3000)]
    chain = tuple(Thimac(t, t, ids[i - 1] if i else None) for i, t in enumerate(ids))
    ring = (Thimac("t0", "t0", ids[-1]), *chain[1:])
    for thimacs, cycles in ((chain, 0), (ring, 1)):
        start = time.perf_counter()
        diagnostics = validate(StaticModel("deep", thimacs=thimacs))
        assert time.perf_counter() - start < 1.0
        assert len(diagnostics) == cycles


def test_r6_dangling_references():
    model = StaticModel(
        "broken",
        thimacs=(Thimac("t", "t"),),
        actions=(Action("t/a", "create", "t"), Action("t/b", "process", "ghost")),
        flows=(Flow("f1", "t/a", "gone"),),
    )
    diagnostics = validate(model)
    r6 = [d for d in diagnostics if d.rule == "R6"]
    assert {d.subject for d in r6} == {"t/b", "f1"}
    # the dangling flow is not also judged for legality
    assert not any(d.rule in ("R1", "R2") for d in diagnostics)


@pytest.mark.parametrize(
    "flow_dst, trigger_dst",
    [("t/ghost", "t/b"), ("t/b", "t/ghost")],
    ids=["dangling-flow", "dangling-trigger"],
)
def test_a_flow_and_trigger_sharing_an_id_are_judged_apart(flow_dst, trigger_dst):
    # the builder and from_json refuse the shared id; a model assembled in
    # Python may carry it, and gets its R6 error and nothing spurious
    model = StaticModel(
        "shared",
        thimacs=(Thimac("t", "t"),),
        actions=(Action("t/a", "create", "t"), Action("t/b", "process", "t")),
        flows=(Flow("e", "t/a", flow_dst),),
        triggers=(Trigger("e", "t/a", trigger_dst),),
    )
    assert validate(model) == (
        Diagnostic("error", "R6", "e", "endpoint 't/ghost' does not exist"),
    )


def test_r7_self_loop_in_directly_assembled_model():
    model = StaticModel(
        "loopy",
        thimacs=(Thimac("t", "t"),),
        actions=(Action("t/a", "process", "t"),),
        triggers=(Trigger("tr1", "t/a", "t/a"),),
    )
    diagnostics = validate(model)
    assert any(d.rule == "R7" and d.severity == "error" for d in diagnostics)


def test_r8_unreachable_action():
    builder = two_thimac_builder()
    builder.add_action("process", "a", id="a/orphan")
    diagnostics = validate(builder.build())
    assert any(d.rule == "R8" and d.subject == "a/orphan" for d in diagnostics)


def test_r8_create_is_reachable_by_itself():
    builder = two_thimac_builder()
    builder.add_action("create", "a")
    assert [d for d in validate(builder.build()) if d.rule == "R8"] == []


def test_r8_walks_through_storages_and_triggers():
    builder = two_thimac_builder()
    c = builder.add_action("create", "a")
    s = builder.add_storage("a", "box")
    p = builder.add_action("process", "a")
    p2 = builder.add_action("process", "a")
    builder.add_flow(c, s)
    builder.add_flow(s, p)
    builder.add_trigger(p, p2)
    assert [d for d in validate(builder.build()) if d.rule == "R8"] == []


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_validate_is_pure_and_subjects_exist(seed):
    model = random_document(Random(seed)).model
    first = validate(model)
    assert first == validate(model)
    known = (
        set(model.thimacs_by_id)
        | set(model.actions_by_id)
        | set(model.storages_by_id)
        | {f.id for f in model.flows}
        | {t.id for t in model.triggers}
    )
    assert all(d.subject in known for d in first)


# ---------------------------------------------------------------------------
# simplify


def chain_model() -> StaticModel:
    """create -> release -> transfer || transfer -> receive -> process."""
    builder = two_thimac_builder()
    builder.add_action("create", "a", id="a/c")
    builder.add_action("release", "a", id="a/rel")
    builder.add_action("transfer", "a", id="a/out")
    builder.add_action("transfer", "b", id="b/in")
    builder.add_action("receive", "b", id="b/rcv")
    builder.add_action("process", "b", id="b/p")
    builder.add_flow("a/c", "a/rel")
    builder.add_flow("a/rel", "a/out")
    builder.add_flow("a/out", "b/in")
    builder.add_flow("b/in", "b/rcv")
    builder.add_flow("b/rcv", "b/p")
    return builder.build()


def test_simplify_collapses_transport_chain():
    reduced = simplify(chain_model())
    assert [a.id for a in reduced.actions] == ["a/c", "b/p"]
    assert [(f.src, f.dst) for f in reduced.flows] == [("a/c", "b/p")]


def test_simplify_without_transports_is_identity():
    builder = two_thimac_builder()
    c = builder.add_action("create", "a")
    p = builder.add_action("process", "a")
    builder.add_flow(c, p)
    model = builder.build()
    assert simplify(model) is model


def test_simplify_rejects_error_models():
    builder = two_thimac_builder()
    p = builder.add_action("process", "a")
    q = builder.add_action("process", "b")
    builder.add_action("release", "a")  # give the pass something to remove
    builder.add_flow(p, q)  # R2
    model = builder.build()
    with pytest.raises(SimplifyError) as exc:
        simplify(model)
    assert any(d.rule == "R2" for d in exc.value.diagnostics)


def test_simplify_does_not_mutate_input():
    model = chain_model()
    before = (model.actions, model.flows, model.triggers)
    simplify(model)
    assert (model.actions, model.flows, model.triggers) == before


def test_simplify_reanchors_triggers_to_nearest_survivor():
    builder = two_thimac_builder()
    builder.add_action("process", "a", id="a/p")
    builder.add_action("release", "a", id="a/rel")
    builder.add_action("transfer", "a", id="a/out")
    builder.add_action("transfer", "b", id="b/in")
    builder.add_action("receive", "b", id="b/rcv")
    builder.add_action("process", "b", id="b/q")
    builder.add_flow("a/p", "a/rel")
    builder.add_flow("a/rel", "a/out")
    builder.add_flow("a/out", "b/in")
    builder.add_flow("b/in", "b/rcv")
    builder.add_flow("b/rcv", "b/q")
    builder.add_trigger("a/p", "a/rel", condition="go")
    reduced = simplify(builder.build())
    assert [(t.src, t.dst, t.condition) for t in reduced.triggers] == [
        ("a/p", "b/q", "go")
    ]


def test_simplify_drops_triggers_with_no_surviving_anchor():
    builder = two_thimac_builder()
    builder.add_action("create", "a", id="a/c")
    builder.add_action("release", "a", id="a/rel")
    builder.add_action("transfer", "a", id="a/out")
    builder.add_flow("a/c", "a/rel")
    builder.add_flow("a/rel", "a/out")
    builder.add_trigger("a/c", "a/out")  # chain dead-ends at the transfer
    reduced = simplify(builder.build())
    assert reduced.triggers == ()


def test_simplify_merges_parallel_synthesized_flows():
    # two transport paths between the same survivors yield one direct flow
    builder = two_thimac_builder()
    builder.add_action("process", "a", id="a/p")
    builder.add_action("process", "b", id="b/q")
    for branch in ("x", "y"):
        builder.add_action("release", "a", id=f"a/rel_{branch}")
        builder.add_action("transfer", "a", id=f"a/out_{branch}")
        builder.add_action("transfer", "b", id=f"b/in_{branch}")
        builder.add_action("receive", "b", id=f"b/rcv_{branch}")
        builder.add_flow("a/p", f"a/rel_{branch}")
        builder.add_flow(f"a/rel_{branch}", f"a/out_{branch}")
        builder.add_flow(f"a/out_{branch}", f"b/in_{branch}")
        builder.add_flow(f"b/in_{branch}", f"b/rcv_{branch}")
        builder.add_flow(f"b/rcv_{branch}", "b/q")
    reduced = simplify(builder.build())
    assert [(f.src, f.dst) for f in reduced.flows] == [("a/p", "b/q")]


def test_simplify_skips_flow_ids_the_model_keeps(atm_doc):
    data = json.loads(to_json(atm_doc.model))
    assert data["flows"][0]["id"] == "flow1"  # card/exists -> card/hand_over
    data["flows"][0]["id"] = "flow_s1"
    reduced = simplify(from_json(json.dumps(data)).model)
    ids = [f.id for f in reduced.flows]
    assert ids.count("flow_s1") == 1 and "flow_s2" in ids
    assert from_json(to_json(reduced)).model == reduced


def transport_flows_by_networkx(model: StaticModel) -> set[tuple[str, str]]:
    """The flows ``simplify`` should leave: each flow between survivors, and
    survivor to survivor wherever a path runs through removed nodes only."""
    removed = {a.id for a in model.actions if a.kind in TRANSPORT_KINDS}
    graph = nx.DiGraph()
    graph.add_edges_from((f.src, f.dst) for f in model.flows)
    inner = graph.subgraph(removed)
    pairs = set()
    for flow in model.flows:
        if flow.src in removed:
            continue
        if flow.dst not in removed:
            pairs.add((flow.src, flow.dst))
            continue
        for node in nx.descendants(inner, flow.dst) | {flow.dst}:
            pairs.update(
                (flow.src, end)
                for end in graph.successors(node)
                if end not in removed and end != flow.src
            )
    return pairs


def simplified_flows(model: StaticModel) -> set[tuple[str, str]]:
    flows = [(f.src, f.dst) for f in simplify(model).flows]
    assert len(flows) == len(set(flows))
    return set(flows)


def test_simplify_follows_converging_transports_once():
    # one release into two transfers that meet again at b/in
    builder = two_thimac_builder()
    builder.add_action("create", "a", id="a/p")
    builder.add_action("release", "a", id="a/rel")
    builder.add_action("transfer", "b", id="b/in")
    builder.add_action("receive", "b", id="b/rcv")
    builder.add_action("process", "b", id="b/q")
    builder.add_flow("a/p", "a/rel")
    for branch in ("a/out_x", "a/out_y"):
        builder.add_action("transfer", "a", id=branch)
        builder.add_flow("a/rel", branch)
        builder.add_flow(branch, "b/in")
    builder.add_flow("b/in", "b/rcv")
    builder.add_flow("b/rcv", "b/q")
    model = builder.build()
    assert [d for d in validate(model) if d.severity == "error"] == []
    assert simplified_flows(model) == {("a/p", "b/q")}
    assert transport_flows_by_networkx(model) == {("a/p", "b/q")}


def test_simplify_terminates_on_a_transfer_cycle():
    builder = two_thimac_builder()
    builder.add_action("create", "a", id="a/p")
    builder.add_action("release", "a", id="a/rel")
    builder.add_action("transfer", "a", id="a/out")
    builder.add_action("transfer", "b", id="b/in")
    builder.add_action("receive", "b", id="b/rcv")
    builder.add_action("process", "b", id="b/q")
    builder.add_flow("a/p", "a/rel")
    builder.add_flow("a/rel", "a/out")
    builder.add_flow("a/out", "b/in")
    builder.add_flow("b/in", "a/out")  # back across: a legal transfer cycle
    builder.add_flow("b/in", "b/rcv")
    builder.add_flow("b/rcv", "b/q")
    model = builder.build()
    assert [d for d in validate(model) if d.severity == "error"] == []
    reduced = simplify(model)
    assert [(f.src, f.dst) for f in reduced.flows] == [("a/p", "b/q")]
    assert transport_flows_by_networkx(model) == {("a/p", "b/q")}


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_simplified_flows_match_networkx_reachability(seed):
    model = random_legal_model(Random(seed))
    assert simplified_flows(model) == transport_flows_by_networkx(model)


def flow_reachable(model: StaticModel, start: str) -> set[str]:
    seen, stack = {start}, [start]
    while stack:
        node = stack.pop()
        for flow in model.flows_from.get(node, ()):
            if flow.dst not in seen:
                seen.add(flow.dst)
                stack.append(flow.dst)
    return seen


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_simplify_node_count_law_and_idempotence(seed):
    model = random_legal_model(Random(seed))
    reduced = simplify(model)
    transports = sum(1 for a in model.actions if a.kind in TRANSPORT_KINDS)
    assert len(reduced.actions) == len(model.actions) - transports
    assert not any(a.kind in TRANSPORT_KINDS for a in reduced.actions)
    assert structurally_equal(simplify(reduced), reduced)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_simplify_preserves_reachability_between_survivors(seed):
    model = random_legal_model(Random(seed))
    reduced = simplify(model)
    survivors = [a.id for a in reduced.actions] + [s.id for s in reduced.storages]
    for a in survivors:
        before = flow_reachable(model, a)
        after = flow_reachable(reduced, a)
        for b in survivors:
            assert (b in before) == (b in after)


# ---------------------------------------------------------------------------
# structural equality


def test_structural_equality_ignores_edge_ids_and_order():
    builder = two_thimac_builder()
    c = builder.add_action("create", "a", id="a/c")
    p = builder.add_action("process", "a", id="a/p")
    builder.add_flow(c, p, id="first")
    one = builder.build()

    builder = two_thimac_builder()
    builder.add_action("process", "a", id="a/p")
    builder.add_action("create", "a", id="a/c")
    builder.add_flow("a/c", "a/p", id="second")
    two = builder.build()

    assert structurally_equal(one, two)


def test_structural_equality_sees_condition_changes():
    builder = two_thimac_builder()
    p = builder.add_action("process", "a", id="a/p")
    q = builder.add_action("process", "a", id="a/q")
    builder.add_trigger(p, q, condition="yes")
    one = builder.build()

    builder = two_thimac_builder()
    builder.add_action("process", "a", id="a/p")
    builder.add_action("process", "a", id="a/q")
    builder.add_trigger("a/p", "a/q", condition="no")
    two = builder.build()

    assert not structurally_equal(one, two)


def structurally_equal_by_fields(a: StaticModel, b: StaticModel) -> bool:
    """``structurally_equal`` as it was before node records were compared by
    their own ``==``: each record spelled out as a tuple of its fields.
    The reference the tests below check it against."""
    if a.name != b.name:
        return False
    if {t.id: (t.name, t.parent, t.note) for t in a.thimacs} != {
        t.id: (t.name, t.parent, t.note) for t in b.thimacs
    }:
        return False
    if {x.id: (x.kind, x.owner, x.label, x.anchor) for x in a.actions} != {
        x.id: (x.kind, x.owner, x.label, x.anchor) for x in b.actions
    }:
        return False
    if {s.id: (s.owner, s.name) for s in a.storages} != {
        s.id: (s.owner, s.name) for s in b.storages
    }:
        return False
    if sorted((f.src, f.dst) for f in a.flows) != sorted(
        (f.src, f.dst) for f in b.flows
    ):
        return False
    return sorted((t.src, t.dst, t.condition or "") for t in a.triggers) == sorted(
        (t.src, t.dst, t.condition or "") for t in b.triggers
    )


NODE_SECTIONS = ("thimacs", "actions", "storages")
MODEL_SECTIONS = (*NODE_SECTIONS, "flows", "triggers")


def one_field_changes(record):
    """``(field name, copy of record)`` for each field, with that field
    changed to a value no generated record holds."""
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if field.name == "kind":
            value = next(kind for kind in ACTION_KINDS if kind != value)
        elif field.name == "region":
            value = value | {"elsewhere"}
        else:
            value = "changed" if value is None else value + "~"
        yield field.name, dataclasses.replace(record, **{field.name: value})


def record_changes(records: tuple, rng: Random):
    """``(field name, form, records)`` where one record of ``records`` has
    one field changed: in place, or as a copy added before or after it."""
    if not records:
        return
    index = rng.randrange(len(records))
    before, record, after = records[:index], records[index], records[index + 1:]
    for name, changed in one_field_changes(record):
        yield name, "replaced", (*before, changed, *after)
        yield name, "copy before", (*before, changed, record, *after)
        yield name, "copy after", (*before, record, changed, *after)


def model_changes(model: StaticModel, rng: Random):
    """``(section, field name, form, copy of model)`` for one record of each
    section, every field and every form of ``record_changes``."""
    yield "model", "name", "replaced", dataclasses.replace(model, name=model.name + "~")
    for section in MODEL_SECTIONS:
        for name, form, records in record_changes(getattr(model, section), rng):
            yield section, name, form, dataclasses.replace(model, **{section: records})


@settings(max_examples=150, deadline=None)
@given(seeds, seeds)
def test_structural_equality_agrees_with_the_field_tuples_on_pairs(seed, other):
    one = random_document(Random(seed)).model
    again = random_document(Random(seed)).model
    two = random_document(Random(other)).model
    renamed = dataclasses.replace(two, name=one.name)
    assert structurally_equal(one, again) and structurally_equal_by_fields(one, again)
    for a, b in [(one, two), (one, renamed), (renamed, one)]:
        assert structurally_equal(a, b) == structurally_equal_by_fields(a, b)


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_structural_equality_agrees_with_the_field_tuples_on_one_field_changes(seed):
    rng = Random(seed)
    model = random_document(rng).model
    seen = set()
    for section, name, form, changed in model_changes(model, rng):
        seen.add((section, name))
        verdict = structurally_equal(model, changed)
        assert verdict == structurally_equal_by_fields(model, changed)
        assert structurally_equal(changed, model) == verdict
        if form == "replaced":  # only edge ids are free to differ
            assert verdict == (section in ("flows", "triggers") and name == "id")
        elif form == "copy before" and section in NODE_SECTIONS and name != "id":
            assert verdict  # the last record with an id is the one compared
    assert {("thimacs", "note"), ("actions", "anchor")} <= seen


def test_legality_table_is_the_single_authority():
    # every pair the table blesses validates; a pair it omits does not
    assert ("process", "release") in LEGAL_FLOW_PAIRS
    assert ("process", "process") not in LEGAL_FLOW_PAIRS
    assert ("transfer", "storage") not in LEGAL_FLOW_PAIRS
