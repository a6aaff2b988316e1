"""Seeded random builders for property and acceptance tests.

Seven families:

* ``random_document`` -- arbitrary well-formed documents (path ids, unique
  local names) for round-trip checks.  Shapes are unconstrained, so the
  models need not pass validation; round-tripping must not care.
* ``random_legal_model`` -- models wired exclusively from legal exchange
  chains, so they validate with zero errors and can feed ``simplify``.
* ``random_raw_model`` -- models assembled without the builder: dangling
  parents, owners and endpoints, storage-to-storage flows, self-loops.
  Oracles for the model's indexes run on these.
* ``random_argument`` -- implicational arguments for the soundness sweep.
* ``random_chart`` -- swimlane flowcharts for the importer's differential
  test; many break the importer's rules on purpose.
* ``ring_document`` -- a ring of ``n`` thimacs with its events and a chain
  chronology, for tests that measure how work grows with model size.
* ``loop_document`` -- a chain chronology whose guarded back-edges have
  budget ``n``, and the scenario that runs every loop to its budget, for
  tests that measure how the dynamics layer's work grows with the walk.

``mutate`` makes one random edit in a decoded JSON value, for the schema
checker's differential test and the command-line fuzz test.

Everything is driven by a caller-owned ``random.Random`` so a seed pins
the whole artifact.
"""
import copy
from random import Random

import tmkit
from tmkit import (
    Action,
    Argument,
    ChronEdge,
    Document,
    Flow,
    Implication,
    Literal,
    ModelBuilder,
    Origin,
    StaticModel,
    Storage,
    Thimac,
    Trigger,
    build_chronology,
    define_event,
)
from tmkit.flowchart import FLOW_NODE_KINDS

_WORDS = (
    "alpha", "bravo", "case", "delta", "entry", "form", "gate", "hint",
    "item", "jolt", "kick", "line", "mark", "node", "oak", "pulse",
    "quote", "ring", "sum", "turn", "unit", "vane", "wire", "yield_",
)

_LABEL_CHARS = 'abc XYZ_09 "\\\'~>#{}@,'


def _label(rng: Random) -> str:
    return "".join(rng.choice(_LABEL_CHARS) for _ in range(rng.randint(1, 12)))


def random_document(rng: Random) -> Document:
    """A document with path ids and globally unique local names."""
    builder = ModelBuilder(f"model_{rng.randint(0, 9999)}")
    serial = iter(range(10_000))

    thimacs: list[str] = []
    for _ in range(rng.randint(1, 4)):
        tid = f"t{next(serial)}"
        note = _label(rng) if rng.random() < 0.3 else None
        builder.add_thimac(tid, note=note, id=tid)
        thimacs.append(tid)
        if rng.random() < 0.4:
            child = f"t{next(serial)}"
            builder.add_thimac(child, parent=tid, note=None, id=f"{tid}/{child}")
            thimacs.append(f"{tid}/{child}")

    actions: list[str] = []
    storages: list[str] = []
    for tid in thimacs:
        for _ in range(rng.randint(1, 5)):
            aid = f"{tid}/n{next(serial)}"
            anchor = None
            if rng.random() < 0.3:
                anchor = str(rng.randint(1, 99)) if rng.random() < 0.5 else f"a{rng.randint(1, 99)}"
            builder.add_action(
                rng.choice(tmkit.ACTION_KINDS),
                tid,
                label=_label(rng) if rng.random() < 0.4 else None,
                anchor=anchor,
                id=aid,
            )
            actions.append(aid)
        if rng.random() < 0.5:
            local = f"s{next(serial)}"
            sid = f"{tid}/{local}"
            builder.add_storage(tid, local, id=sid)
            storages.append(sid)

    nodes = actions + storages
    if len(nodes) >= 2:
        for _ in range(rng.randint(0, 2 * len(nodes))):
            src, dst = rng.sample(nodes, 2)
            builder.add_flow(src, dst)
        for _ in range(rng.randint(0, len(nodes))):
            src, dst = rng.sample(nodes, 2)
            condition = _label(rng) if rng.random() < 0.5 else None
            builder.add_trigger(src, dst, condition=condition)

    model = builder.build()

    events = []
    flow_pairs = [
        (f.src, f.dst)
        for f in model.flows
        if f.src in model.actions_by_id and f.dst in model.actions_by_id
    ]
    for index in range(rng.randint(0, min(6, len(actions)))):
        if flow_pairs and rng.random() < 0.4:
            region = set(rng.choice(flow_pairs))
        else:
            region = {rng.choice(actions)}
        events.append(
            define_event(model, f"E{index + 1}", _label(rng), region)
        )

    chronology = None
    if events and rng.random() < 0.8:
        edges = []
        bounds = {}
        pairs = set()
        for _ in range(rng.randint(0, 2 * len(events))):
            i, j = rng.randrange(len(events)), rng.randrange(len(events))
            # keep event 0 target-free so an initial event always exists
            if i == j or j == 0 or (events[i].id, events[j].id) in pairs:
                continue
            pairs.add((events[i].id, events[j].id))
            guard = _label(rng) if rng.random() < 0.4 else None
            edges.append(ChronEdge(events[i].id, events[j].id, guard))
            if j < i:  # back-edge: must carry a budget
                bounds[(events[i].id, events[j].id)] = rng.randint(1, 3)
        chronology = build_chronology(events, edges, bounds)

    return Document(model, tuple(events), chronology)


def ring_document(n: int, rng: Random) -> Document:
    """``n`` thimacs in a ring, each the same seven nodes in a seeded order:
    a create, a process, a release, two transfers, a receive and a storage,
    with eight flows and a guarded trigger.  Each thimac's out-transfer feeds
    the next one's in-transfer.  Event ``Ei`` is thimac ``i``'s create and
    process, and the chronology chains the events in ring order."""
    builder = ModelBuilder(f"ring_{n}")
    names = [f"t{i:05d}" for i in range(n)]
    nodes = [
        ("create", "make"), ("process", "work"), ("release", "send"),
        ("transfer", "out"), ("transfer", "in_"), ("receive", "take"),
        (None, "shelf"),
    ]
    for name in names:
        builder.add_thimac(name, id=name)
        for kind, local in rng.sample(nodes, len(nodes)):
            if kind is None:
                builder.add_storage(name, local, id=f"{name}/{local}")
            else:
                label = _label(rng) if rng.random() < 0.5 else None
                builder.add_action(kind, name, label, id=f"{name}/{local}")
    for i, name in enumerate(names):
        flows = [("make", "work"), ("work", "send"), ("send", "out"),
                 ("in_", "take"), ("take", "work"), ("work", "shelf")]
        for src, dst in rng.sample(flows, len(flows)):
            builder.add_flow(f"{name}/{src}", f"{name}/{dst}")
        builder.add_flow(f"{name}/out", f"{names[(i + 1) % n]}/in_")
        builder.add_trigger(f"{name}/work", f"{name}/make", _label(rng))
    model = builder.build()
    events = [
        define_event(model, f"E{i}", _label(rng), {f"{name}/make", f"{name}/work"})
        for i, name in enumerate(names)
    ]
    edges = [ChronEdge(a.id, b.id) for a, b in zip(events, events[1:])]
    return Document(model, tuple(events), build_chronology(events, edges))


def loop_document(
    n: int, rng: Random, events: int = 20, loops: int = 9
) -> tuple[Document, str]:
    """A chain ``E0 -> E1 -> ...`` of ``events`` events over four thimacs
    (a create and a process each) and ``loops`` guarded back-edges
    ``E(2k+2) -> E(2k+1)`` with ``max n``, and the text of a scenario that
    answers T to every guard ``n + 1`` times.  The walk runs each loop to
    its budget: ``events + 2 * n * loops`` steps."""
    assert 2 * loops + 2 <= events
    builder = ModelBuilder(f"loops_{n}")
    for name in ("t0", "t1", "t2", "t3"):
        builder.add_thimac(name, id=name)
        builder.add_action("create", name, _label(rng), id=f"{name}/make")
        builder.add_action("process", name, id=f"{name}/work")
        builder.add_flow(f"{name}/make", f"{name}/work")
    model = builder.build()
    chain = [
        define_event(model, f"E{k}", _label(rng), {f"t{k % 4}/make", f"t{k % 4}/work"})
        for k in range(events)
    ]
    edges = [(a.id, b.id, None) for a, b in zip(chain, chain[1:])]
    guards = [f"{rng.choice(_WORDS)} {k}" for k in range(loops)]
    back = [(chain[2 * k + 2].id, chain[2 * k + 1].id) for k in range(loops)]
    edges += [(*pair, guard) for pair, guard in zip(back, guards)]
    rng.shuffle(edges)
    chronology = build_chronology(chain, edges, dict.fromkeys(back, n))
    answers = ",".join(["T"] * (n + 1))
    scenario = "".join(f"{guard} = {answers}\n" for guard in guards)
    return Document(model, tuple(chain), chronology), scenario


def random_legal_model(rng: Random) -> StaticModel:
    """A model built purely from legal exchange chains.

    Sources are creates or processes; every hop to another process goes
    through release/transfer(/transfer/receive) machinery, so validation
    reports no errors and ``simplify`` has real work to do.
    """
    builder = ModelBuilder(f"legal_{rng.randint(0, 9999)}")
    n_thimacs = rng.randint(2, 4)
    for t in range(n_thimacs):
        builder.add_thimac(f"t{t}", id=f"t{t}")

    serial = iter(range(10_000))
    sources: list[tuple[str, str]] = []  # (id, thimac)
    processes: list[tuple[str, str]] = []  # legal chain destinations
    for t in range(n_thimacs):
        tid = f"t{t}"
        for position in range(rng.randint(1, 3)):
            # at least one process per thimac; creates cannot end a chain
            kind = "process" if position == 0 else rng.choice(("create", "process"))
            aid = f"{tid}/n{next(serial)}"
            builder.add_action(kind, tid, id=aid)
            sources.append((aid, tid))
            if kind == "process":
                processes.append((aid, tid))

    wired: set[tuple[str, str]] = set()
    for _ in range(rng.randint(1, 2 * len(sources))):
        src, src_t = rng.choice(sources)
        dst, dst_t = rng.choice(processes)
        if src == dst or (src, dst) in wired:
            continue
        wired.add((src, dst))
        rel = f"{src_t}/n{next(serial)}"
        out = f"{src_t}/n{next(serial)}"
        builder.add_action("release", src_t, id=rel)
        builder.add_action("transfer", src_t, id=out)
        builder.add_flow(src, rel)
        builder.add_flow(rel, out)
        if src_t == dst_t:
            rcv = f"{src_t}/n{next(serial)}"
            builder.add_action("receive", src_t, id=rcv)
            builder.add_flow(out, rcv)
            builder.add_flow(rcv, dst)
        else:
            inp = f"{dst_t}/n{next(serial)}"
            rcv = f"{dst_t}/n{next(serial)}"
            builder.add_action("transfer", dst_t, id=inp)
            builder.add_action("receive", dst_t, id=rcv)
            builder.add_flow(out, inp)
            builder.add_flow(inp, rcv)
            builder.add_flow(rcv, dst)
        if rng.random() < 0.4:
            builder.add_trigger(src, rel, condition=f"g{rng.randint(0, 9)}")

    # a storage read/written by survivors is legal in both directions
    if rng.random() < 0.5:
        owner, owner_t = rng.choice(sources)
        local = f"s{next(serial)}"
        sid = f"{owner_t}/{local}"
        builder.add_storage(owner_t, local, id=sid)
        builder.add_flow(owner, sid)

    return builder.build()


def random_raw_model(rng: Random) -> StaticModel:
    """A model that skips every builder check.  Ids are unique; anything
    else goes, including references to ids that exist nowhere."""
    thimacs = [f"t{i}" for i in range(rng.randint(1, 5))]
    owners = thimacs + ["ghost_t"]
    actions = [
        Action(f"a{i}", rng.choice(tmkit.ACTION_KINDS), rng.choice(owners))
        for i in range(rng.randint(1, 12))
    ]
    storages = [
        Storage(f"s{i}", rng.choice(owners), f"s{i}")
        for i in range(rng.randint(0, 4))
    ]
    nodes = [a.id for a in actions] + [s.id for s in storages] + ["ghost_n"]
    flows = [
        Flow(f"f{i}", rng.choice(nodes), rng.choice(nodes))
        for i in range(rng.randint(0, 2 * len(nodes)))
    ]
    triggers = [
        Trigger(f"g{i}", rng.choice(nodes), rng.choice(nodes))
        for i in range(rng.randint(0, len(nodes)))
    ]
    return StaticModel(
        "raw",
        thimacs=tuple(
            Thimac(t, t, rng.choice([None, None, "ghost_t", *thimacs]))
            for t in thimacs
        ),
        actions=tuple(actions),
        storages=tuple(storages),
        flows=tuple(flows),
        triggers=tuple(triggers),
    )


def random_argument(rng: Random, fresh_goal_variables: bool = False) -> Argument:
    """An implicational argument: ≤ 8 variables, ≤ 20 premises.  The goal
    uses only premise variables, unless ``fresh_goal_variables``, when it
    may also use ``a`` or ``z``, which sort before and after the rest."""
    variables = [f"v{i}" for i in range(rng.randint(2, 8))]

    def literal() -> Literal:
        return Literal(rng.choice(variables), rng.random() < 0.5)

    premises = []
    for index in range(rng.randint(1, 20)):
        antecedent = literal()
        consequent = literal()
        while consequent == antecedent:
            consequent = literal()
        premises.append(
            Implication(antecedent, consequent, Origin(index + 1))
        )

    used = sorted({v for p in premises for v in (p.antecedent.variable, p.consequent.variable)})
    pool = used + ["a", "z"] if fresh_goal_variables else used
    goal_antecedent = Literal(rng.choice(pool), rng.random() < 0.5)
    goal_consequent = Literal(rng.choice(pool), rng.random() < 0.5)
    while goal_consequent == goal_antecedent:
        goal_consequent = Literal(rng.choice(pool), rng.random() < 0.5)
    return Argument(tuple(premises), Implication(goal_antecedent, goal_consequent))


def random_chart(rng: Random) -> dict:
    """A flowchart as decoded JSON that ``load_flowchart`` accepts: 1-3
    lanes, every node kind, random edges and guards.  Decisions mostly
    branch with guards and other nodes mostly have one unguarded edge, so
    about half of the charts import; the rest break one of the rules.
    Lane ``flow1`` and a node named like a bridging action test the ids
    the importer makes up."""
    lanes = rng.sample(["p", "q", "flow1"], rng.randint(1, 3))
    ids = [f"n{i}" for i in range(rng.randint(1, 8))]
    if len(ids) > 1 and rng.random() < 0.2:
        ids.append(f"n0_to_n1_{rng.choice(['rel', 'tr', 'rcv', 'out', 'in'])}")
    nodes = []
    for node_id in ids:
        node = {"id": node_id, "lane": rng.choice(lanes)}
        node["kind"] = rng.choice(FLOW_NODE_KINDS)
        if rng.random() < 0.5:
            node["label"] = _label(rng)
        nodes.append(node)

    def fits(src: dict, dst: dict) -> bool:
        cross = src["lane"] != dst["lane"]
        if dst["kind"] == "start":
            return False
        if src["kind"] == "message-send" or dst["kind"] == "message-receive":
            return cross
        if src["kind"] == "message-receive" or dst["kind"] == "message-send":
            return not cross
        return True

    edges = []
    for src in nodes:
        decision = src["kind"] == "decision"
        others = [dst for dst in nodes if dst is not src]
        if rng.random() < 0.9:  # mostly keep to the importer's rules
            others = [dst for dst in others if fits(src, dst)]
            if src["kind"] == "end":
                others = []
        sizes = [0, 1, 2, 3] if decision else [0, 1, 1, 1, 2]
        count = min(len(others), rng.choice(sizes))
        for dst in rng.sample(others, count):
            edge = {"from": src["id"], "to": dst["id"]}
            if rng.random() < (0.9 if decision else 0.05):
                edge["guard"] = _label(rng)
            edges.append(edge)
    rng.shuffle(edges)
    return {"name": "chart", "lanes": lanes, "nodes": nodes, "edges": edges}


ODD_VALUES = (
    None, True, 0, 1, -3, 0.0, 2.0, 0.5, "", "x", "a\n", "9z", "create",
    "activity", [], {}, ["a"], {"id": "x"},
)


def mutate(rng, data, values=ODD_VALUES):
    """One random edit somewhere in a JSON value: end a string in a
    newline, replace a value with one of ``values``, drop a key or an
    item, add a key, or wrap a value in a list.  Returns the edited
    value."""
    box = [data]
    slots = [(box, 0)]
    for container, key in slots:
        child = container[key]
        if isinstance(child, dict):
            slots.extend((child, k) for k in child)
        elif isinstance(child, list):
            slots.extend((child, i) for i in range(len(child)))
    container, key = rng.choice(slots)
    roll = rng.random()
    if roll < 0.2 and isinstance(container[key], str):
        container[key] += "\n"
    elif roll < 0.5 or container is box:
        container[key] = copy.deepcopy(rng.choice(values))
    elif roll < 0.75:
        del container[key]
    elif isinstance(container[key], dict):
        container[key][rng.choice(["zz", "aa", "id", "max", "edges"])] = 1
    else:
        container[key] = [container[key]]
    return box[0]
