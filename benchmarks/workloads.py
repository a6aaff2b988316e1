"""Seeded workload generators and the expected result of every operation.

Nothing here imports tmkit.  Inputs are written from the generators' own
construction, and every expectation is derived from that construction or
written by hand (the fixture verdicts come from the README and the test
suite), never from an earlier run of tmkit.

The seed varies names, labels, guard labels and declaration order; it never
changes sizes or shapes, so the expectations and the work done per operation
are the same for every seed.  For ``fixtures`` the seed only shuffles the
order in which the commands run.
"""
from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable, Optional

WORKLOADS = ("ring", "chron", "logic", "fixtures")

RING_SIZE = 500
CHART_LANES = 40
CHRON_THIMACS = 40
CHRON_EVENTS = 200
CHRON_LOOPS = 98
CHRON_BOUND = 250
DEEP_EVENTS = 1200
LOGIC_VARIABLES = 18
PROVE_PREMISES = 20000
ENCODE_PREMISES = 2000

TRANSPORT_KINDS = frozenset({"release", "transfer", "receive"})

# Five-letter words and four-letter locals keep every generated name the
# same length, so the input size does not depend on the seed.
_WORDS = (
    "amber", "birch", "cedar", "dunes", "ember", "fjord", "grove", "haven",
    "ivory", "jewel", "koala", "lemon", "maple", "nexus", "oasis", "pearl",
    "quill", "raven", "sable", "tulip", "umbra", "vivid", "wheat", "xenon",
    "yacht", "zebra",
)
_LOCALS = (
    "alfa", "brio", "coda", "dune", "echo", "flux", "gale", "hilt", "iris",
    "jade", "kiln", "lark", "mesa", "nook", "opal", "pike", "quay", "reed",
    "silo", "tarn",
)


@dataclass
class Outcome:
    """What one tmkit subprocess did."""

    exit_code: int
    stdout: str
    stderr: str
    work: Path


#: A check returns None when the outcome is as expected, else a message.
Check = Callable[[Outcome], Optional[str]]


@dataclass
class Op:
    """One tmkit command line and what it must produce.

    ``metric`` names the end-to-end metric the op's wall time feeds.  A
    probe checks for a known defect of tmkit: it runs once per run, before
    the timed loop, and its verdict is printed, but it counts neither as
    attempted nor as failed, and its time feeds no metric.
    """

    metric: str
    args: tuple[str, ...]
    check: Check
    exit_code: int = 0
    probe: bool = False


# ---------------------------------------------------------------------------
# naming


def _names(rng: Random, count: int, prefix: str = "") -> list[str]:
    """``count`` distinct identifiers of equal length, in seeded order."""
    index = list(range(count))
    rng.shuffle(index)
    return [f"{prefix}{rng.choice(_WORDS)}{i:04d}" for i in index]


def _label(rng: Random) -> str:
    return f"{rng.choice(_WORDS)} {rng.choice(_WORDS)}"


# ---------------------------------------------------------------------------
# a reader for the flat model text the generators and fixtures use


@dataclass
class FlatModel:
    """A flat (no nested thimacs) model read without tmkit."""

    name: str
    thimacs: dict[str, Optional[str]]  # id -> note
    actions: dict[str, tuple[str, str, Optional[str], Optional[str]]]
    storages: dict[str, str]  # id -> owner
    flows: Counter
    triggers: Counter
    events: dict[str, tuple[str, tuple[str, ...]]]  # id -> (label, region)
    chronology: list[tuple[str, str, Optional[str], Optional[int]]]


_STR = r'"((?:[^"\\]|\\.)*)"'
_THIMAC_RE = re.compile(rf"^thimac (\w+)(?: {_STR})? \{{$")
_ACTION_RE = re.compile(
    rf"^(create|process|release|transfer|receive) (\w+)(?: {_STR})?(?: @(\w+))?$"
)
_STORAGE_RE = re.compile(r"^storage (\w+)$")
_FLOW_RE = re.compile(r"^([\w/]+) -> ([\w/]+)$")
_TRIGGER_RE = re.compile(rf"^([\w/]+) ~> ([\w/]+)(?: if {_STR})?$")
_EVENT_RE = re.compile(rf"^event (\w+) {_STR} \{{ (.*) \}}$")
_CHRON_RE = re.compile(rf"^(\w+) -> (\w+)(?: if {_STR})?(?: max (\d+))?$")


def _unescape(text: Optional[str]) -> Optional[str]:
    if text is None:
        return None
    return re.sub(r"\\(.)", r"\1", text)


def read_flat_model(text: str) -> FlatModel:
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    lines = [line for line in lines if line]
    head = re.match(r"^model (\w+) \{$", lines[0])
    if head is None:
        raise ValueError(f"not a model header: {lines[0]!r}")
    model = FlatModel(head.group(1), {}, {}, {}, Counter(), Counter(), {}, [])
    section, owner = "model", None
    for line in lines[1:]:
        if line == "}":
            if owner is not None:
                owner = None
            else:
                section = None
            continue
        if section is None:
            section = {"events {": "events", "chronology {": "chronology"}[line]
            continue
        if section == "events":
            m = _EVENT_RE.match(line)
            region = tuple(sorted(x.strip() for x in m.group(3).split(",")))
            model.events[m.group(1)] = (_unescape(m.group(2)), region)
            continue
        if section == "chronology":
            m = _CHRON_RE.match(line)
            bound = int(m.group(4)) if m.group(4) else None
            model.chronology.append(
                (m.group(1), m.group(2), _unescape(m.group(3)), bound)
            )
            continue
        m = _THIMAC_RE.match(line)
        if m:
            owner = m.group(1)
            model.thimacs[owner] = _unescape(m.group(2))
            continue

        def ref(name: str) -> str:
            return name if "/" in name else f"{owner}/{name}"

        if m := _ACTION_RE.match(line):
            model.actions[ref(m.group(2))] = (
                m.group(1), owner, _unescape(m.group(3)), m.group(4)
            )
        elif m := _STORAGE_RE.match(line):
            model.storages[ref(m.group(1))] = owner
        elif m := _FLOW_RE.match(line):
            model.flows[(ref(m.group(1)), ref(m.group(2)))] += 1
        elif m := _TRIGGER_RE.match(line):
            model.triggers[
                (ref(m.group(1)), ref(m.group(2)), _unescape(m.group(3)))
            ] += 1
        else:
            raise ValueError(f"unreadable model line: {line!r}")
    return model


# ---------------------------------------------------------------------------
# checks shared by several workloads


def _exact(expected: str) -> Check:
    def check(out: Outcome) -> Optional[str]:
        if out.stdout == expected:
            return None
        return f"stdout differs from the expected {len(expected)} bytes"

    return check


def _same(what: str, got, want) -> Optional[str]:
    return None if got == want else f"{what} differ"


def _json_matches(model: FlatModel) -> Check:
    """``export --format json`` is structurally equal to the flat model:
    node ids and attributes, edge-endpoint multisets (edge ids aside),
    events and chronology."""

    def check(out: Outcome) -> Optional[str]:
        data = json.loads(out.stdout)
        chron = data["chronology"]["edges"] if data["chronology"] else []
        return (
            _same("names", data["name"], model.name)
            or _same(
                "thimacs",
                {t["id"]: (t["name"], t["parent"], t["note"]) for t in data["thimacs"]},
                {t: (t, None, note) for t, note in model.thimacs.items()},
            )
            or _same(
                "actions",
                {
                    a["id"]: (a["kind"], a["owner"], a["label"], a["anchor"])
                    for a in data["actions"]
                },
                model.actions,
            )
            or _same(
                "storages",
                {s["id"]: (s["owner"], s["name"]) for s in data["storages"]},
                {s: (o, s.rsplit("/", 1)[1]) for s, o in model.storages.items()},
            )
            or _same(
                "flows",
                Counter((f["from"], f["to"]) for f in data["flows"]),
                model.flows,
            )
            or _same(
                "triggers",
                Counter((t["from"], t["to"], t["condition"]) for t in data["triggers"]),
                model.triggers,
            )
            or _same(
                "events",
                {e["id"]: (e["label"], tuple(e["region"])) for e in data["events"]},
                model.events,
            )
            or _same(
                "chronology edges",
                Counter((e["from"], e["to"], e["guard"], e["max"]) for e in chron),
                Counter(model.chronology),
            )
        )

    return check


_DOT_ACTION_RE = re.compile(r'^"([^"]+)" \[shape=box, label="(\w+): [^"]*"\];$')
_DOT_STORAGE_RE = re.compile(r'^"([^"]+)" \[shape=cylinder, label="[^"]*"\];$')
_DOT_FLOW_RE = re.compile(r'^"([^"]+)" -> "([^"]+)";$')
_DOT_TRIGGER_RE = re.compile(
    r'^"([^"]+)" -> "([^"]+)" \[style=dashed(?:, label="((?:[^"\\]|\\.)*)")?\];$'
)


def _dot_matches(model: FlatModel) -> Check:
    """``export --format dot`` draws every node and edge of the model."""

    def check(out: Outcome) -> Optional[str]:
        lines = [line.strip() for line in out.stdout.splitlines()]
        if not lines or lines[0] != f'digraph "{model.name}" {{':
            return "DOT header differs"
        actions, storages, flows, triggers = {}, set(), Counter(), Counter()
        clusters = 0
        for line in lines:
            if line.startswith('subgraph "cluster_'):
                clusters += 1
            elif m := _DOT_ACTION_RE.match(line):
                actions[m.group(1)] = m.group(2)
            elif m := _DOT_STORAGE_RE.match(line):
                storages.add(m.group(1))
            elif m := _DOT_FLOW_RE.match(line):
                flows[(m.group(1), m.group(2))] += 1
            elif m := _DOT_TRIGGER_RE.match(line):
                triggers[(m.group(1), m.group(2), _unescape(m.group(3)))] += 1
        return (
            _same("clusters", clusters, len(model.thimacs))
            or _same(
                "action nodes",
                actions,
                {a: spec[0] for a, spec in model.actions.items()},
            )
            or _same("storage nodes", storages, set(model.storages))
            or _same("flow edges", flows, model.flows)
            or _same("trigger edges", triggers, model.triggers)
        )

    return check


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def chronology_dot(
    events: list[tuple[str, str]],
    edges: list[tuple[str, str, Optional[str], Optional[int]]],
) -> str:
    """The chronology drawing, built from the declared events and edges."""
    lines = ['digraph "chronology" {', "  rankdir=LR;"]
    for event_id, label in events:
        lines.append(
            f'  "{event_id}" [shape=box, label="{event_id}\\n{_dot_escape(label)}"];'
        )
    for src, dst, guard, bound in edges:
        parts = [_dot_escape(guard)] if guard is not None else []
        if bound is not None:
            parts.append(f"max {bound}")
        attrs = f' [label="{"; ".join(parts)}"]' if parts else ""
        lines.append(f'  "{src}" -> "{dst}"{attrs};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def trace_json(scenario: str, steps: list[str]) -> str:
    """A trace file in the canonical layout ``tmkit simulate`` writes."""
    payload = {
        "scenario": scenario,
        "steps": [{"index": i, "event": e} for i, e in enumerate(steps)],
    }
    return json.dumps(payload, indent=2) + "\n"


def _trace_matches(name: str, scenario: str, steps: list[str]) -> Check:
    def check(out: Outcome) -> Optional[str]:
        path = out.work / name
        if not path.exists():
            return f"{name} was not written"
        data = json.loads(path.read_text())
        got = [(s["index"], s["event"]) for s in data["steps"]]
        return _same("scenario names", data["scenario"], scenario) or _same(
            f"trace steps ({len(got)} vs {len(steps)})", got, list(enumerate(steps))
        )

    return check


def _walk(heading: str, steps: list[str], labels: dict[str, str]) -> list[str]:
    lines = [f"walk: {heading}", "-" * len(f"walk: {heading}")]
    lines += [f"{i + 1}. {e}: {labels[e]}" for i, e in enumerate(steps)]
    return lines + [""]


def _report_head(model: FlatModel) -> list[str]:
    title = f"report on {model.name}"
    lines = [title, "=" * len(title), "", "thimacs", "-------"]
    actions = Counter(spec[1] for spec in model.actions.values())
    storages = Counter(model.storages.values())
    for thimac in model.thimacs:
        lines.append(
            f"- {thimac}: {actions[thimac]} actions, {storages[thimac]} storages"
        )
    return lines + [""]


def _report_events(model: FlatModel) -> list[str]:
    lines = ["events", "------"]
    for event_id, (label, region) in model.events.items():
        lines.append(f"- {event_id}: {label} (region: {len(region)} actions)")
    return lines + [""]


def _write(work: Path, name: str, text: str) -> str:
    path = work / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# ring


@dataclass
class Ring:
    """A ring of ``n`` thimacs, as text, canonical JSON and a flat reading."""

    text: str
    json: str
    model: FlatModel
    roles: dict[str, str]  # role -> local name
    order: list[str]  # thimac names in ring order


def ring_model(seed: int, n: int = RING_SIZE) -> Ring:
    """Each thimac holds a create ``c``, process ``p``, release ``r``,
    transfers ``o``/``i``, receive ``v`` and storage ``s``, joined by 7
    flows and a guarded trigger ``p ~> c``.  Each ``o`` feeds the next
    thimac's ``i``; each thimac has a two-action event {c, p}, and the
    events form a chain chronology in ring order."""
    rng = Random(f"ring/{seed}/{n}")
    locals_ = rng.sample(_LOCALS, 7)
    roles = dict(zip("cproivs", locals_))
    kinds = {
        "c": "create", "p": "process", "r": "release", "o": "transfer",
        "i": "transfer", "v": "receive",
    }
    order = _names(rng, n)  # ring order
    declared = order[:]
    rng.shuffle(declared)  # declaration order
    succ = {t: order[(k + 1) % n] for k, t in enumerate(order)}
    event_of = dict(zip(order, _names(rng, n, "ev")))
    name = f"ring_{rng.choice(_WORDS)}"

    def node(t: str, role: str) -> str:
        return f"{t}/{roles[role]}"

    lines = [f"model {name} {{"]
    thimacs, actions, storages, flows, triggers = [], [], [], [], []
    events = {}
    for t in declared:
        labels = {"c": _label(rng), "p": _label(rng)}
        guard = f"{_label(rng)} ok"
        decls = []
        for role in "cproiv":
            label = labels.get(role)
            text = f"    {kinds[role]} {roles[role]}"
            if label is not None:
                text += f' "{label}"'
            decls.append((text, ("a", role, label)))
        decls.append((f"    storage {roles['s']}", ("s", "s", None)))
        rng.shuffle(decls)
        edges = [
            (f"    {roles[a]} -> {roles[b]}", ("f", node(t, a), node(t, b)))
            for a, b in (("c", "p"), ("p", "r"), ("r", "o"), ("i", "v"),
                         ("v", "p"), ("p", "s"))
        ]
        edges.append(
            (f"    {roles['o']} -> {node(succ[t], 'i')}",
             ("f", node(t, "o"), node(succ[t], "i")))
        )
        edges.append(
            (f'    {roles["p"]} ~> {roles["c"]} if "{guard}"',
             ("t", node(t, "p"), node(t, "c"), guard))
        )
        rng.shuffle(edges)
        lines.append(f"  thimac {t} {{")
        thimacs.append({"id": t, "name": t, "parent": None, "note": None})
        for text, (what, role, label) in decls:
            lines.append(text)
            if what == "a":
                actions.append({
                    "id": node(t, role), "kind": kinds[role], "owner": t,
                    "label": label, "anchor": None,
                })
            else:
                storages.append(
                    {"id": node(t, "s"), "owner": t, "name": roles["s"]}
                )
        for text, edge in edges:
            lines.append(text)
            if edge[0] == "f":
                flows.append({"id": f"flow{len(flows) + 1}", "from": edge[1],
                              "to": edge[2]})
            else:
                triggers.append({"id": f"trigger{len(triggers) + 1}",
                                 "from": edge[1], "to": edge[2],
                                 "condition": edge[3]})
        lines.append("  }")
        events[event_of[t]] = (
            _label(rng), tuple(sorted((node(t, "c"), node(t, "p"))))
        )
    lines += ["}", "", "events {"]
    event_order = list(events)
    rng.shuffle(event_order)
    for event_id in event_order:
        label, region = events[event_id]
        lines.append(f'  event {event_id} "{label}" {{ {", ".join(region)} }}')
    chain = [(event_of[order[k]], event_of[order[k + 1]]) for k in range(n - 1)]
    rng.shuffle(chain)
    lines += ["}", "", "chronology {"]
    lines += [f"  {a} -> {b}" for a, b in chain]
    lines.append("}")
    text = "\n".join(lines) + "\n"

    payload = {
        "name": name,
        "thimacs": thimacs,
        "actions": actions,
        "storages": storages,
        "flows": flows,
        "triggers": triggers,
        "events": [
            {"id": e, "label": events[e][0], "region": list(events[e][1])}
            for e in event_order
        ],
        "chronology": {
            "edges": [
                {"from": a, "to": b, "guard": None, "max": None} for a, b in chain
            ]
        },
    }
    model = FlatModel(
        name,
        {t["id"]: None for t in thimacs},
        {a["id"]: (a["kind"], a["owner"], a["label"], None) for a in actions},
        {s["id"]: s["owner"] for s in storages},
        Counter((f["from"], f["to"]) for f in flows),
        Counter((t["from"], t["to"], t["condition"]) for t in triggers),
        {e: (events[e][0], events[e][1]) for e in event_order},
        [(a, b, None, None) for a, b in chain],
    )
    return Ring(text, json.dumps(payload, indent=2) + "\n", model, roles, order)


def _simplified_ring(ring: Ring) -> Check:
    """``simplify`` keeps c, p and s per thimac: flows c->p, p->s and
    p->next/p (3n) and the trigger p ~> c (n), nothing else."""
    roles, order = ring.roles, ring.order
    n = len(order)
    flows = Counter()
    triggers = Counter()
    for k, t in enumerate(order):
        c, p, s = (f"{t}/{roles[r]}" for r in "cps")
        flows.update([(c, p), (p, s), (p, f"{order[(k + 1) % n]}/{roles['p']}")])
    for (src, dst, cond), count in ring.model.triggers.items():
        triggers[(src, dst, cond)] += count
    kept = {a: spec for a, spec in ring.model.actions.items()
            if spec[0] not in TRANSPORT_KINDS}

    def check(out: Outcome) -> Optional[str]:
        got = read_flat_model(out.stdout)
        return (
            _same("kept actions", got.actions, kept)
            or _same("storages", got.storages, ring.model.storages)
            or _same(f"flows ({sum(got.flows.values())} vs {3 * n})",
                     got.flows, flows)
            or _same("triggers", got.triggers, triggers)
            or _same("events", got.events, {})
        )

    return check


@dataclass
class Chart:
    json: str
    name: str
    kinds: Counter  # action kind -> count after import
    flows: int
    triggers: Counter  # (condition) -> count
    notes: Counter


def swimlane_chart(seed: int, lanes: int = CHART_LANES) -> Chart:
    """A chart of ``lanes`` lanes with 28 nodes each.

    Per lane: start ``s``, activities ``a01``..``a23``, decision ``d``,
    message-send ``ms``, message-receive ``mr`` and end ``e``, wired
    s -> a01 -> .. -> a12 -> d, d -> a13 [g1], d -> next/a01 [g2],
    a13 -> .. -> a23 -> ms -> next/mr -> e.

    On import every activity-to-activity hop in one lane gets a
    release/transfer/receive (23 per lane: 21 chain hops, a12 -> d and
    d -> a13); the cross-lane branch gets release + transfer on the
    sending side and transfer + receive on the receiving side; the
    message pair brings its own release/transfer and transfer/receive.
    """
    rng = Random(f"chart/{seed}/{lanes}")
    lane_names = _names(rng, lanes, "ln")
    ids = iter(_names(rng, lanes * 28, "n"))
    roles = ["s", *(f"a{k:02d}" for k in range(1, 24)), "d", "ms", "mr", "e"]
    kind_of = {"s": "start", "d": "decision", "ms": "message-send",
               "mr": "message-receive", "e": "end"}
    node = {(lane, role): next(ids) for lane in lane_names for role in roles}
    nodes, edges, triggers, notes = [], [], Counter(), Counter()
    for k, lane in enumerate(lane_names):
        nxt = lane_names[(k + 1) % lanes]
        for role in roles:
            entry = {"id": node[(lane, role)], "lane": lane,
                     "kind": kind_of.get(role, "activity")}
            if role.startswith("a") or role == "d":
                entry["label"] = _label(rng)
            nodes.append(entry)
        chain = ["s", *(f"a{i:02d}" for i in range(1, 13)), "d"]
        chain2 = [f"a{i:02d}" for i in range(13, 24)] + ["ms"]
        pairs = list(zip(chain, chain[1:])) + list(zip(chain2, chain2[1:]))
        for a, b in pairs:
            edges.append({"from": node[(lane, a)], "to": node[(lane, b)]})
        g1, g2 = f"{_label(rng)} yes", f"{_label(rng)} no"
        edges.append({"from": node[(lane, "d")], "to": node[(lane, "a13")],
                      "guard": g1})
        edges.append({"from": node[(lane, "d")], "to": node[(nxt, "a01")],
                      "guard": g2})
        edges.append({"from": node[(lane, "ms")], "to": node[(nxt, "mr")]})
        edges.append({"from": node[(lane, "mr")], "to": node[(lane, "e")]})
        triggers.update([g1, g2])
        notes[f"note: end node {node[(lane, 'e')]!r} dropped; a run simply "
              f"stops there"] += 1
        notes[f"note: edge {node[(lane, 'mr')]} -> {node[(lane, 'e')]} "
              f"dropped with its end node"] += 1
    rng.shuffle(nodes)
    rng.shuffle(edges)
    name = f"chart_{rng.choice(_WORDS)}"
    payload = {"name": name, "description": "a generated swimlane chart",
               "lanes": lane_names, "nodes": nodes, "edges": edges}
    per_lane = {"create": 1, "process": 24, "release": 25, "transfer": 27,
                "receive": 25}
    # flows per lane: s -> a01, 4 per legalized in-lane hop (24), 5 for
    # the cross-lane branch, one inside each message node, a23 -> ms and
    # ms -> next/mr
    flows = (1 + 4 * 23 + 5 + 2 + 1 + 1) * lanes
    return Chart(json.dumps(payload, indent=1) + "\n", name,
                 Counter({k: v * lanes for k, v in per_lane.items()}),
                 flows, triggers, notes)


def _imported_chart(chart: Chart) -> Check:
    def check(out: Outcome) -> Optional[str]:
        got = read_flat_model(out.stdout)
        kinds = Counter(spec[0] for spec in got.actions.values())
        notes = Counter(out.stderr.splitlines())
        return (
            _same("model names", got.name, chart.name)
            or _same("thimac counts", len(got.thimacs), CHART_LANES)
            or _same(f"action kinds ({dict(kinds)})", kinds, chart.kinds)
            or _same("flow counts", sum(got.flows.values()), chart.flows)
            or _same("trigger conditions",
                     Counter(c for (_, _, c) in got.triggers.elements()),
                     chart.triggers)
            or _same("notes", notes, chart.notes)
        )

    return check


def _simplify_note(check: Check) -> Check:
    note = "note: events and chronology dropped; their regions name removed actions\n"

    def wrapped(out: Outcome) -> Optional[str]:
        return _same("stderr notes", out.stderr, note) or check(out)

    return wrapped


def ring_ops(seed: int, work: Path) -> list[Op]:
    ring = ring_model(seed)
    chart = swimlane_chart(seed)
    tm = _write(work, "ring.tm", ring.text)
    js = _write(work, "ring.json", ring.json)
    ch = _write(work, "chart.json", chart.json)
    clean = _exact("0 errors, 0 warnings\n")
    return [
        Op("check_s", ("check", tm), clean),
        Op("check_json_s", ("check", js), clean),
        Op("simplify_s", ("simplify", tm), _simplify_note(_simplified_ring(ring))),
        Op("export_json_s", ("export", tm, "--format", "json"),
           _json_matches(ring.model)),
        Op("export_dot_s", ("export", tm, "--format", "dot"),
           _dot_matches(ring.model)),
        Op("import_s", ("import", ch), _imported_chart(chart)),
    ]


# ---------------------------------------------------------------------------
# chron


@dataclass
class Chron:
    text: str
    deep_text: str
    model: FlatModel
    scenario: str  # scenario file text
    steps: list[str]  # the walk the scenario produces


def chron_model(seed: int) -> Chron:
    """40 thimacs (create -> process each) and 200 events over them.

    The chronology is a chain E0 -> .. -> E199 plus 98 guarded back-edges
    E(2k+2) -> E(2k+1) with ``max 250``.  The scenario answers T to every
    guard 251 times, so each loop runs to its budget: 200 + 2*250*98 =
    49,200 steps.  ``deep_text`` is the same model with a 1,200-event chain.
    """
    rng = Random(f"chron/{seed}")
    thimacs = _names(rng, CHRON_THIMACS)
    c, p = rng.sample(_LOCALS, 2)
    name = f"chron_{rng.choice(_WORDS)}"
    head = [f"model {name} {{"]
    for t in thimacs:
        head += [f"  thimac {t} {{", f'    create {c} "{_label(rng)}"',
                 f"    process {p}", f"    {c} -> {p}", "  }"]
    head.append("}")

    def events_block(ids: list[str]) -> tuple[list[str], dict]:
        events = {}
        for k, event_id in enumerate(ids):
            t = thimacs[k % len(thimacs)]
            events[event_id] = (_label(rng), (f"{t}/{c}", f"{t}/{p}"))
        order = list(events)
        rng.shuffle(order)
        lines = ["", "events {"]
        for event_id in order:
            label, region = events[event_id]
            lines.append(f'  event {event_id} "{label}" {{ {", ".join(region)} }}')
        return lines + ["}"], {e: events[e] for e in order}

    chain = _names(rng, CHRON_EVENTS, "ev")
    event_lines, events = events_block(chain)
    edges = [(chain[k], chain[k + 1], None, None) for k in range(CHRON_EVENTS - 1)]
    guards = [f"{_label(rng)} {k:03d}" for k in range(CHRON_LOOPS)]
    edges += [(chain[2 * k + 2], chain[2 * k + 1], g, CHRON_BOUND)
              for k, g in enumerate(guards)]
    rng.shuffle(edges)
    chron_lines = ["", "chronology {"]
    for src, dst, guard, bound in edges:
        line = f"  {src} -> {dst}"
        if guard is not None:
            line += f' if "{guard}"'
        if bound is not None:
            line += f" max {bound}"
        chron_lines.append(line)
    chron_lines.append("}")
    text = "\n".join(head + event_lines + chron_lines) + "\n"

    # Chain order is sorted order, so the cycle search starts at the head
    # and walks the whole chain, whatever the seed.
    deep = [f"dp{k:04d}{rng.choice(_WORDS)}" for k in range(DEEP_EVENTS)]
    deep_events, _ = events_block(deep)
    deep_chain = ["", "chronology {"]
    deep_chain += [f"  {deep[k]} -> {deep[k + 1]}" for k in range(DEEP_EVENTS - 1)]
    deep_text = "\n".join(head + deep_events + deep_chain + ["}"]) + "\n"

    decisions = ",".join(["T"] * (CHRON_BOUND + 1))
    scenario = "".join(f"{g} = {decisions}\n" for g in rng.sample(guards, len(guards)))
    steps = chain[:3]
    for k in range(1, CHRON_EVENTS - 2):
        if k % 2 == 1 and k // 2 < CHRON_LOOPS:
            steps += [chain[k], chain[k + 1]] * CHRON_BOUND
        steps.append(chain[k + 2])
    model = FlatModel(
        name, {t: None for t in thimacs},
        {f"{t}/{x}": (kind, t, None, None)
         for t in thimacs for x, kind in ((c, "create"), (p, "process"))},
        {}, Counter((f"{t}/{c}", f"{t}/{p}") for t in thimacs), Counter(),
        events, edges,
    )
    return Chron(text, deep_text, model, scenario, steps)


def chron_ops(seed: int, work: Path) -> list[Op]:
    chron = chron_model(seed)
    model = chron.model
    tm = _write(work, "chron.tm", chron.text)
    deep = _write(work, "deep.tm", chron.deep_text)
    scenario = _write(work, "loops.scenario", chron.scenario)
    trace = _write(work, "expected_trace.json", trace_json("loops", chron.steps))
    labels = {e: label for e, (label, _) in model.events.items()}
    report = (
        _report_head(model)
        + ["validation", "----------", "0 errors, 0 warnings", ""]
        + _report_events(model)
        + _walk("loops", chron.steps, labels)
    )
    report_text = "\n".join(report).rstrip("\n") + "\n"
    dot = chronology_dot(list(labels.items()), model.chronology)
    clean = _exact("0 errors, 0 warnings\n")
    return [
        Op("simulate_s",
           ("simulate", tm, "--scenario", scenario, "-o", str(work / "trace.json")),
           _trace_matches("trace.json", "loops", chron.steps)),
        Op("conform_s", ("conform", tm, trace), _exact("ok\n")),
        Op("report_s", ("report", tm, "--scenario", scenario), _exact(report_text)),
        Op("export_dot_s", ("export", tm, "--format", "dot", "--part", "chronology"),
           _exact(dot)),
        Op("check_s", ("check", tm), clean),
        # A 1,200-event chain must check clean; the recursive cycle search
        # in build_chronology raises RecursionError on it, and this probe
        # prints that verdict on every run until the defect is fixed.
        Op("check_deep", ("check", deep), clean, probe=True),
    ]


# ---------------------------------------------------------------------------
# logic


def _variables(rng: Random, count: int) -> list[str]:
    """Distinct variable names in seeded chain order."""
    width = len(str(count - 1))
    word = rng.choice(_LOCALS)
    names = [f"{word}{k:0{width}d}" for k in range(count)]
    rng.shuffle(names)
    return names


def chain_argument(rng: Random, count: int, goal_negated: bool = False):
    """Premises v0 -> v1 -> .. -> v(count-1) in shuffled order; the goal is
    v0 -> v(count-1), or v0 -> ~v(count-1) when ``goal_negated``.

    Returns the argument text, the chain's variables and, for each chain
    link, the 1-based line of its premise."""
    names = _variables(rng, count)
    links = list(range(count - 1))
    rng.shuffle(links)
    line_of = {link: k + 1 for k, link in enumerate(links)}
    lines = [f"{names[k]} -> {names[k + 1]}" for k in links]
    neg = "~" if goal_negated else ""
    lines.append(f"|- {names[0]} -> {neg}{names[-1]}")
    return "\n".join(lines) + "\n", names, line_of


def logic_inputs(seed: int):
    rng = Random(f"logic/{seed}")
    valid, _, _ = chain_argument(rng, LOGIC_VARIABLES)
    invalid, inv_names, _ = chain_argument(rng, LOGIC_VARIABLES, goal_negated=True)
    chain, names, line_of = chain_argument(rng, PROVE_PREMISES + 1)
    proof = "".join(
        f"{names[k]} -> {names[k + 1]} [premise {line_of[k]}]\n"
        for k in range(PROVE_PREMISES)
    )
    encode, _, _ = chain_argument(rng, ENCODE_PREMISES + 1)
    countermodel = " ".join(f"{v}=T" for v in sorted(inv_names))
    return valid, invalid, chain, proof, countermodel, encode


def logic_ops(seed: int, work: Path) -> list[Op]:
    valid, invalid, chain, proof, countermodel, _ = logic_inputs(seed)
    checked = 2 ** LOGIC_VARIABLES
    return [
        Op("validate_arg_s", ("validate-arg", _write(work, "valid.arg", valid)),
           _exact(f"valid ({checked} assignments checked)\n")),
        # The only countermodel is the all-true assignment, which the
        # False-first enumeration reaches last.
        Op("validate_arg_s", ("validate-arg", _write(work, "invalid.arg", invalid)),
           _exact(f"invalid: {countermodel}\n"), exit_code=1),
        Op("prove_s", ("prove", _write(work, "chain.arg", chain)), _exact(proof)),
    ]


# ---------------------------------------------------------------------------
# fixtures

_FIX = Path("src/tmkit/fixtures")

#: The walks the README's six scenarios take, read off the fixtures'
#: chronologies by hand (the ordering walks are also in the acceptance
#: tests).
_ATM_ENTRY = ["E1", "E3", "E5", "E6", "E7", "E8", "E10", "E11", "E12"]
FIXTURE_WALKS = {
    "atm_happy": ("atm", _ATM_ENTRY + [
        "E13", "E14", "E15", "E19", "E20", "E23", "E21", "E25", "E26", "E27",
        "E28", "E29", "E30", "E31", "E2"]),
    "atm_wrong_password": ("atm", _ATM_ENTRY
                           + ["E13", "E14", "E15", "E16", "E18"] * 4 + ["E17"]),
    "ordering_all_yes": ("ordering", [
        "E1", "E2", "E4", "E5", "E8", "E9", "E10", "E11", "E12", "E13", "E15",
        "E16"]),
    "ordering_invalid": ("ordering", ["E1", "E2", "E3"]),
    "ordering_out_of_stock": ("ordering", ["E1", "E2", "E4", "E5", "E6", "E7"]),
    "ordering_payment_fail": ("ordering", [
        "E1", "E2", "E4", "E5", "E8", "E9", "E10", "E11", "E12", "E13", "E14"]),
}


def _tally(expected: Optional[str]) -> Check:
    """Findings, then an ``N errors, M warnings`` tally that counts them;
    ``expected`` pins the tally where the README states it."""

    def check(out: Outcome) -> Optional[str]:
        lines = out.stdout.splitlines()
        warnings = len(lines) - 1
        tally = expected or f"0 errors, {warnings} warnings"
        if lines[-1:] != [tally]:
            return f"last line is not {tally!r}"
        if not all(line.startswith("warning ") for line in lines[:-1]):
            return "a finding is not a warning"
        return None

    return check


def _simplified_fixture(model: FlatModel) -> Check:
    kept = {a: spec for a, spec in model.actions.items()
            if spec[0] not in TRANSPORT_KINDS}

    def check(out: Outcome) -> Optional[str]:
        got = read_flat_model(out.stdout)
        return (
            _same("model names", got.name, model.name)
            or _same("thimacs", got.thimacs, model.thimacs)
            or _same("kept actions", got.actions, kept)
            or _same("storages", got.storages, model.storages)
        )

    return check


def _fixture_report(model: FlatModel, tally: Optional[str], walk: str,
                    steps: list[str]) -> Check:
    labels = {e: label for e, (label, _) in model.events.items()}
    head = "\n".join(_report_head(model) + ["validation", "----------"]) + "\n"
    tail = "\n".join(_report_events(model) + _walk(walk, steps, labels))
    tail = tail.rstrip("\n") + "\n"

    def check(out: Outcome) -> Optional[str]:
        text = out.stdout
        if not text.startswith(head):
            return "report head differs"
        if not text.endswith(tail):
            return "report events or walk differ"
        line = text[len(head):].splitlines()[0]
        ok = line == tally if tally else re.fullmatch(r"0 errors, \d+ warnings", line)
        return None if ok else f"validation tally {line!r} unexpected"

    return check


def fixtures_ops(seed: int, work: Path, root: Path) -> list[Op]:
    fix = root / _FIX
    models = {m: read_flat_model((fix / f"{m}.tm").read_text())
              for m in ("atm", "ordering")}
    tm = {m: str(fix / f"{m}.tm") for m in models}
    scen = {s: str(fix / "scenarios" / f"{s}.scenario") for s in FIXTURE_WALKS}
    ops = [
        Op("check_s", ("check", tm["atm"]), _tally("0 errors, 2 warnings")),
        Op("check_s", ("check", tm["ordering"]), _tally(None)),
        Op("events_s", ("events", tm["ordering"]), _exact("".join(
            f"{e}: {label} ({len(region)} actions)\n"
            for e, (label, region) in models["ordering"].events.items()))),
        Op("import_s", ("import", str(fix / "ordering_chart.json")),
           _chart_fixture),
        Op("validate_arg_s", ("validate-arg", str(fix / "carroll.arg")),
           _exact("valid (1024 assignments checked)\n")),
        Op("validate_arg_s", ("validate-arg", str(fix / "converse.arg")),
           _exact("invalid: p=F q=T\n"), exit_code=1),
        Op("prove_s", ("prove", str(fix / "carroll.arg")), _carroll_proof),
        Op("prove_s", ("prove", str(fix / "converse.arg")), _no_derivation,
           exit_code=1),
        Op("report_s", ("report", tm["atm"], "--scenario", scen["atm_happy"]),
           _fixture_report(models["atm"], "0 errors, 2 warnings", "atm_happy",
                           FIXTURE_WALKS["atm_happy"][1])),
        Op("report_s", ("report", tm["ordering"], "--scenario",
                        scen["ordering_invalid"]),
           _fixture_report(models["ordering"], None, "ordering_invalid",
                           FIXTURE_WALKS["ordering_invalid"][1])),
    ]
    for m, model in models.items():
        ops += [
            Op("simplify_s", ("simplify", tm[m]),
               _simplify_note(_simplified_fixture(model))),
            Op("export_json_s", ("export", tm[m], "--format", "json"),
               _json_matches(model)),
            Op("export_dot_s", ("export", tm[m], "--format", "dot"),
               _dot_matches(model)),
            Op("export_dot_s",
               ("export", tm[m], "--format", "dot", "--part", "chronology"),
               _exact(chronology_dot(
                   [(e, label) for e, (label, _) in model.events.items()],
                   model.chronology))),
        ]
    for name, (m, steps) in FIXTURE_WALKS.items():
        out = f"{name}.trace.json"
        expected = _write(work, f"expected/{name}.json", trace_json(name, steps))
        ops += [
            Op("simulate_s", ("simulate", tm[m], "--scenario", scen[name], "-o",
                              str(work / out)),
               _trace_matches(out, name, steps)),
            Op("conform_s", ("conform", tm[m], expected), _exact("ok\n")),
        ]
    Random(f"fixtures/{seed}").shuffle(ops)
    return ops


def _chart_fixture(out: Outcome) -> Optional[str]:
    notes = (
        "note: end node 'done' dropped; a run simply stops there\n"
        "note: edge receive_goods -> done dropped with its end node\n"
    )
    got = read_flat_model(out.stdout)
    return (
        _same("model names", got.name, "ordering_chart")
        or _same("lanes", list(got.thimacs),
                 ["client", "ordering", "stock", "accounting", "shipping"])
        or _same("notes", out.stderr, notes)
    )


def _carroll_proof(out: Outcome) -> Optional[str]:
    lines = out.stdout.splitlines()
    return (
        _same("proof lengths", len(lines), 9)
        or _same("first steps", lines[0], "x -> y [premise 6]")
        or _same("last steps", lines[-1], "t -> ~u [contrapositive of 3]")
    )


def _no_derivation(out: Outcome) -> Optional[str]:
    return _same("stdout", out.stdout, "") or _same(
        "stderr", out.stderr, "error: no derivation found\n"
    )


def build(workload: str, seed: int, work: Path, root: Path) -> list[Op]:
    """Write the workload's inputs under ``work`` and return its ops."""
    if workload == "ring":
        return ring_ops(seed, work)
    if workload == "chron":
        return chron_ops(seed, work)
    if workload == "logic":
        return logic_ops(seed, work)
    if workload == "fixtures":
        return fixtures_ops(seed, work, root)
    raise ValueError(f"unknown workload {workload!r}")
