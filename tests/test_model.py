"""Model assembly, validation rules, and the simplification pass."""
import json
import time
from collections import Counter
from random import Random

import networkx as nx
import pytest
from hypothesis import example, given, settings
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
from tmkit.model import MAX_DEPTH, Diagnostic, NestingError, check_depth
from tmkit.rules import _check_containment, _errors

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


def test_builder_auto_edge_ids_skip_ids_taken_when_drawn():
    builder = ModelBuilder("m")
    for name in ("flow1", "flow2", "trigger1"):
        builder.add_thimac(name, id=name)
    a = builder.add_action("create", "flow1", id="a")
    b = builder.add_action("process", "flow1", id="b")
    assert [builder.add_flow(a, b), builder.add_flow(b, a)] == ["flow3", "flow4"]
    assert [builder.add_trigger(a, b), builder.add_trigger(b, a)] == [
        "trigger2",
        "trigger3",
    ]
    builder.add_action("receive", "flow1", id="flow5")  # taken before it is drawn
    assert builder.add_flow(a, b, id="flow7") == "flow7"
    assert [builder.add_flow(a, b), builder.add_flow(a, b)] == ["flow6", "flow8"]
    assert builder.add_storage("trigger1", "s", id="trigger4") == "trigger4"
    assert builder.add_trigger(a, b) == "trigger5"


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


class CountingBuilder(ModelBuilder):
    """The builder with its former id rule and edge insertion: one counter
    per prefix that resumes past the last auto id it gave, and a near-copy
    of the checks for each edge kind."""

    def __init__(self, name: str):
        super().__init__(name)
        self._counters: dict[str, int] = {}

    def _claim(self, explicit, prefix):
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

    def _require_node(self, node_id, what):
        if node_id not in self.node_ids:
            raise ModelError(f"{what} references unknown node {node_id!r}")

    def add_flow(self, src, dst, id=None):
        self._require_node(src, "flow")
        self._require_node(dst, "flow")
        if src == dst:
            raise ModelError(f"flow may not loop on {src!r}")
        fid = self._claim(id, "flow")
        self._flows.append(Flow(fid, src, dst))
        return fid

    def add_trigger(self, src, dst, condition=None, id=None):
        self._require_node(src, "trigger")
        self._require_node(dst, "trigger")
        if src == dst:
            raise ModelError(f"trigger may not loop on {src!r}")
        tid = self._claim(id, "trigger")
        self._triggers.append(Trigger(tid, src, dst, condition))
        return tid


#: Explicit ids shaped like the ones the builder makes, so the two meet.
ID_POOL = [
    f"{kind}{n}"
    for kind in ("thimac", "action", "storage", "flow", "trigger")
    for n in (1, 2, 3)
]
builder_calls = st.lists(
    st.tuples(
        st.sampled_from(
            ["add_thimac", "add_action", "add_storage", "add_flow", "add_trigger"]
        ),
        st.integers(0, 3),
        st.integers(0, 3),
        st.none() | st.sampled_from(ID_POOL),
    ),
    max_size=40,
)


def run_calls(builder, calls):
    """Each ``add_*`` call's id, or the text of its ``ModelError``, after a
    thimac, a process and a storage whose ids are not auto-shaped.  A call's
    two ints pick its references among the thimacs or the nodes made so far,
    3 naming an unknown one; a thimac's first int picks its parent, 0 for
    none."""
    thimacs = [builder.add_thimac("root", id="root")]
    nodes = [
        builder.add_action("process", "root", id="p"),
        builder.add_storage("root", "s", id="s"),
    ]
    out = []

    def pick(elements, i):
        return elements[i % len(elements)] if i < 3 else "unknown"

    for method, a, b, id in calls:
        args = {
            "add_thimac": ("t", pick(thimacs, a) if a else None, None, id),
            "add_action": (ACTION_KINDS[b], pick(thimacs, a), None, None, id),
            "add_storage": (pick(thimacs, a), "s", id),
            "add_flow": (pick(nodes, a), pick(nodes, b), id),
            "add_trigger": (pick(nodes, a), pick(nodes, b), "c" if b else None, id),
        }[method]
        try:
            out.append(getattr(builder, method)(*args))
        except ModelError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
            continue
        if method == "add_thimac":
            thimacs.append(out[-1])
        elif method in ("add_action", "add_storage"):
            nodes.append(out[-1])
    return out


@given(builder_calls)
@settings(max_examples=400, deadline=None)
def test_builder_ids_and_refusals_match_the_counter_loop(calls):
    builder, reference = ModelBuilder("m"), CountingBuilder("m")
    assert run_calls(builder, calls) == run_calls(reference, calls)
    assert builder.build() == reference.build()


def add_edge_by_one(builder, edges, record, what, src, dst, id, *extra):
    """``ModelBuilder._add_edge`` as it was before the builder took edges
    in batches: check one ``Flow`` or ``Trigger`` and append it to
    ``edges``."""
    nodes = builder.node_ids
    if src not in nodes or dst not in nodes:
        end = dst if src in nodes else src
        raise ModelError(f"{what} references unknown node {end!r}")
    if src == dst:
        raise ModelError(f"{what} may not loop on {src!r}")
    eid = builder._claim(id, what)
    edges.append(record(eid, src, dst, *extra))
    return eid


class OneByOneBuilder(ModelBuilder):
    """The builder that adds every edge, a batch's too, through
    ``add_edge_by_one``, one at a time."""

    def add_flow(self, src, dst, id=None):
        return add_edge_by_one(self, self._flows, Flow, "flow", src, dst, id)

    def add_trigger(self, src, dst, condition=None, id=None):
        return add_edge_by_one(
            self, self._triggers, Trigger, "trigger", src, dst, id, condition
        )

    def add_flows(self, edges):
        return [self.add_flow(src, dst) for src, dst in edges]

    def add_triggers(self, edges):
        return [self.add_trigger(src, dst, condition) for src, dst, condition in edges]


#: Edge calls: the method, each edge's two ends as picks (see
#: ``run_edge_calls``), and the id of a one-edge call.
edge_calls = st.lists(
    st.tuples(
        st.sampled_from(["add_flows", "add_triggers", "add_flow", "add_trigger"]),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=6),
        st.none() | st.sampled_from(["flow1", "flow3", "flow5", "trigger1", "p"]),
    ),
    max_size=12,
)


def run_edge_calls(builder, calls):
    """Each edge call's ids, or the text of its ``ModelError``, after
    thimacs and nodes whose ids an auto id would take (``flow2``,
    ``flow4``, ``trigger2``).  An end picks one of the four nodes, the
    unknown ``ghost`` (4) or the thimac ``root``, which is no node (5); a
    pick that repeats the other end's makes a self-loop.  A one-edge call
    adds its first edge, if it has one, with the call's id."""
    for name in ("root", "flow2", "trigger2"):
        builder.add_thimac(name, id=name)
    nodes = [
        builder.add_action("process", "root", id="p"),
        builder.add_action("create", "root", id="q"),
        builder.add_storage("flow2", "s", id="s"),
        builder.add_action("release", "flow2", id="flow4"),
        "ghost",
        "root",
    ]
    out = []
    for method, picks, id in calls:
        ends = [(nodes[a], nodes[b]) for a, b in picks]
        if method == "add_flows":
            args = (ends,)
        elif method == "add_triggers":
            args = ([(src, dst, f"c{i}" if i % 2 else None) for i, (src, dst) in enumerate(ends)],)
        elif not ends:
            continue
        elif method == "add_flow":
            args = (*ends[0], id)
        else:
            args = (*ends[0], "c", id)
        try:
            out.append(getattr(builder, method)(*args))
        except ModelError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


@given(edge_calls)
@settings(max_examples=400, deadline=None)
@example([("add_flows", [(0, 1), (1, 4), (0, 0)], None)])  # dangling before a loop
@example([("add_flows", [(0, 1), (2, 2), (1, 5)], None)])  # a loop before a non-node
@example([("add_flow", [(0, 1)], "flow3"), ("add_flows", [(0, 1)] * 3, None)])
@example([("add_flows", [(0, 1)] * 2, None), ("add_flow", [(1, 0)], "flow3")])
def test_a_batch_of_edges_is_added_as_one_by_one(calls):
    builder, reference = ModelBuilder("m"), OneByOneBuilder("m")
    assert run_edge_calls(builder, calls) == run_edge_calls(reference, calls)
    assert builder.build() == reference.build()


def test_a_batch_draws_auto_ids_past_taken_ones():
    builder = ModelBuilder("m")
    for name in ("flow2", "trigger1"):
        builder.add_thimac(name, id=name)
    a = builder.add_action("create", "flow2", id="a")
    b = builder.add_action("process", "flow2", id="b")
    builder.add_action("release", "flow2", id="flow4")
    assert builder.add_flows([(a, b), (b, a), (a, b)]) == ["flow1", "flow3", "flow5"]
    assert builder.add_triggers([(b, a, "go"), (a, b, None)]) == ["trigger2", "trigger3"]
    assert builder.add_flows([]) == []
    model = builder.build()
    assert [f.id for f in model.flows] == ["flow1", "flow3", "flow5"]
    assert model.triggers[0] == Trigger("trigger2", b, a, "go")


def test_a_refused_batch_keeps_the_edges_before_the_refused_one():
    builder = two_thimac_builder()
    a = builder.add_action("create", "a", id="a/x")
    b = builder.add_action("process", "a", id="a/y")
    with pytest.raises(ModelError, match="^flow may not loop on 'a/y'$"):
        builder.add_flows([(a, b), (b, b), (a, "ghost")])
    with pytest.raises(ModelError, match="^trigger references unknown node 'ghost'$"):
        builder.add_triggers([(b, a, "c"), ("ghost", a, None), (a, a, None)])
    model = builder.build()
    assert model.flows == (Flow("flow1", a, b),)
    assert model.triggers == (Trigger("trigger1", b, a, "c"),)


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


def test_replace_checks_the_action_kind_too():
    action = Action("a/x", "create", "a", label="start")
    with pytest.raises(ModelError, match="^unknown action kind 'teleport' for 'a/x'$"):
        action._replace(kind="teleport")
    with pytest.raises(ModelError, match="unknown action kind"):
        Action._make(["a/x", "teleport", "a", None, None])
    moved = action._replace(kind="process")
    assert type(moved) is Action
    assert moved == Action("a/x", "process", "a", "start", None)


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


def mutated_model(rng: Random) -> StaticModel:
    """A random document's model with a few fields rewritten: a parent,
    owner or endpoint set to any id, a thimac's too, or to ``ghost`` (so
    containment cycles, dangling references and self-loops), an action's
    kind changed, or a name, label or condition set to an id."""
    model = random_document(rng).model
    sections = {name: list(getattr(model, name)) for name in model._fields[1:]}
    ids = [element.id for part in sections.values() for element in part] + ["ghost"]
    for _ in range(rng.randint(0, 4)):
        part = sections[rng.choice([name for name, part in sections.items() if part])]
        place = rng.randrange(len(part))
        field = rng.choice(part[place]._fields[1:])
        value = rng.choice(ACTION_KINDS if field == "kind" else ids)
        part[place] = part[place]._replace(**{field: value})
    return StaticModel(model.name, **{name: tuple(p) for name, p in sections.items()})


@given(seeds)
@settings(max_examples=300, deadline=None)
def test_the_simplify_gate_finds_the_errors_validate_finds(seed):
    model = mutated_model(Random(seed))
    errors = tuple(d for d in validate(model) if d.severity == "error")
    assert _errors(model) == errors
    if not errors or not any(a.kind in TRANSPORT_KINDS for a in model.actions):
        return
    with pytest.raises(SimplifyError) as raised:
        simplify(model)
    assert raised.value.diagnostics == errors


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


def test_simplify_moves_a_trigger_source_back_to_the_nearest_survivor():
    builder = two_thimac_builder()
    chain = [("create", "a/c"), ("release", "a/r"), ("transfer", "a/t"),
             ("transfer", "b/t2"), ("receive", "b/rc"), ("process", "b/p")]
    for kind, node in chain:
        builder.add_action(kind, node.split("/")[0], id=node)
    for (_, src), (_, dst) in zip(chain, chain[1:]):
        builder.add_flow(src, dst)
    builder.add_trigger("a/r", "b/p", condition="go")
    model = builder.build()
    reduced = simplify(model)
    assert [(t.src, t.dst, t.condition) for t in reduced.triggers] == [
        ("a/c", "b/p", "go")
    ]
    assert reanchored_triggers_by_networkx(model) == [("trigger1", "a/c", "b/p")]


def test_simplify_moves_a_trigger_source_to_the_least_id_on_a_tie():
    builder = two_thimac_builder()
    builder.add_action("create", "a", id="a/z")  # declared first, larger id
    builder.add_action("create", "a", id="a/y")
    builder.add_action("release", "a", id="a/r")
    builder.add_action("transfer", "a", id="a/t")
    builder.add_action("receive", "a", id="a/rc")
    builder.add_action("process", "a", id="a/p")
    for src, dst in [("a/z", "a/r"), ("a/y", "a/r"), ("a/r", "a/t"),
                     ("a/t", "a/rc"), ("a/rc", "a/p")]:
        builder.add_flow(src, dst)
    builder.add_trigger("a/t", "a/p")
    model = builder.build()
    assert [(t.src, t.dst) for t in simplify(model).triggers] == [("a/y", "a/p")]
    assert reanchored_triggers_by_networkx(model) == [("trigger1", "a/y", "a/p")]


def test_simplify_drops_a_trigger_whose_source_chain_dead_ends():
    builder = two_thimac_builder()
    builder.add_action("create", "a", id="a/c")
    builder.add_action("release", "a", id="a/r")  # nothing flows into it
    builder.add_action("transfer", "a", id="a/t")
    builder.add_action("process", "a", id="a/p")
    builder.add_flow("a/c", "a/p")
    builder.add_flow("a/r", "a/t")
    builder.add_trigger("a/t", "a/p")
    builder.add_trigger("a/c", "a/p")
    model = builder.build()
    assert [(t.id, t.src, t.dst) for t in simplify(model).triggers] == [
        ("trigger2", "a/c", "a/p")
    ]
    assert reanchored_triggers_by_networkx(model) == [("trigger2", "a/c", "a/p")]


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

    # With flow_s1 and flow_s3 kept, the new flows are flow_s2, flow_s4, ...
    assert data["flows"][47]["id"] == "flow48"  # atm/pw_req -> atm/pw_req_store
    data["flows"][47]["id"] = "flow_s3"
    model = from_json(json.dumps(data)).model
    reduced = simplify(model)
    old_ids = {f.id for f in model.flows}
    assert {"flow_s1", "flow_s3"} <= {f.id for f in reduced.flows}
    new = [f.id for f in reduced.flows if f.id not in old_ids]
    assert new == ["flow_s2"] + [f"flow_s{n}" for n in range(4, len(new) + 3)]
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


def reanchored_triggers_by_networkx(
    model: StaticModel,
) -> list[tuple[str, str, str]]:
    """The triggers ``simplify`` should leave, as ``(id, src, dst)``: each
    removed end moves to the nearest survivor along a path through removed
    nodes only, back from a source and on from a target, the least id
    winning a tie.  A trigger whose end has no such survivor, or whose
    ends meet, is dropped."""
    removed = {a.id for a in model.actions if a.kind in TRANSPORT_KINDS}
    forward = nx.DiGraph()
    forward.add_nodes_from(model.nodes)
    forward.add_edges_from((f.src, f.dst) for f in model.flows)
    backward = forward.reverse()

    def nearest(node: str, graph: nx.DiGraph):
        if node not in removed:
            return node
        depths = nx.single_source_shortest_path_length(graph.subgraph(removed), node)
        found = [
            (depth + 1, end)
            for mid, depth in depths.items()
            for end in graph.successors(mid)
            if end not in removed
        ]
        return min(found)[1] if found else None

    kept = []
    for trigger in model.triggers:
        src = nearest(trigger.src, backward)
        dst = nearest(trigger.dst, forward)
        if src is not None and dst is not None and src != dst:
            kept.append((trigger.id, src, dst))
    return kept


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


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_reanchored_triggers_match_networkx(seed):
    # random_legal_model only triggers survivor -> release; add triggers
    # between any two actions, so sources move backward too
    rng = Random(seed)
    model = random_legal_model(rng)
    ids = [a.id for a in model.actions]
    extra = tuple(
        Trigger(f"extra{n}", *rng.sample(ids, 2), None)
        for n in range(rng.randint(1, 6))
    )
    model = model._replace(triggers=model.triggers + extra)
    assert [(t.id, t.src, t.dst) for t in simplify(model).triggers] == (
        reanchored_triggers_by_networkx(model)
    )


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


def storage_or_flow_models() -> tuple[StaticModel, StaticModel]:
    """Two models that differ only in whether the element ``("x", "a/p",
    "a/q")`` is a storage or a flow; the records themselves are equal
    tuples."""
    thimacs = (Thimac("a", "a"), Thimac("a/p", "p"), Thimac("a/q", "q"))
    actions = (Action("a/p", "process", "a"), Action("a/q", "process", "a"))
    storage, flow = Storage("x", "a/p", "a/q"), Flow("x", "a/p", "a/q")
    assert storage == flow == ("x", "a/p", "a/q")
    return (
        StaticModel("m", thimacs, actions, storages=(storage,)),
        StaticModel("m", thimacs, actions, flows=(flow,)),
    )


def test_structural_equality_tells_a_storage_from_a_flow_of_the_same_values():
    as_storage, as_flow = storage_or_flow_models()
    assert as_storage != as_flow
    assert not structurally_equal(as_storage, as_flow)
    assert not structurally_equal(as_flow, as_storage)
    assert not structurally_equal_by_fields(as_storage, as_flow)


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
    return Counter((t.src, t.dst, t.condition) for t in a.triggers) == Counter(
        (t.src, t.dst, t.condition) for t in b.triggers
    )


NODE_SECTIONS = ("thimacs", "actions", "storages")
MODEL_SECTIONS = (*NODE_SECTIONS, "flows", "triggers")


def one_field_changes(record):
    """``(field name, copy of record)`` for each field, with that field
    changed to a value no generated record holds."""
    for name in record._fields:
        value = getattr(record, name)
        if name == "kind":
            value = next(kind for kind in ACTION_KINDS if kind != value)
        elif name == "region":
            value = value | {"elsewhere"}
        else:
            value = "changed" if value is None else value + "~"
        yield name, record._replace(**{name: value})


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
    yield "model", "name", "replaced", model._replace(name=model.name + "~")
    for section in MODEL_SECTIONS:
        for name, form, records in record_changes(getattr(model, section), rng):
            yield section, name, form, model._replace(**{section: records})


@settings(max_examples=150, deadline=None)
@given(seeds, seeds)
def test_structural_equality_agrees_with_the_field_tuples_on_pairs(seed, other):
    one = random_document(Random(seed)).model
    again = random_document(Random(seed)).model
    two = random_document(Random(other)).model
    renamed = two._replace(name=one.name)
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
