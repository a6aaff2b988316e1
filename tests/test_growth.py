"""Work per model size: the text-to-model, model-out, dynamics and logic
layers do linear work.

Each text-to-model layer, the three model writers ``to_json``, ``to_dot``
and ``format_document``, ``validate`` and ``simplify`` run on rings of
250, 1,000 and 4,000 thimacs, and the Python and C calls each makes are
counted.  The count is a fixed part plus a part per thimac, so the count
at 4,000 must lie on the line through the other two.  The dynamics layer
is counted the same way per step of a walk, over loop budgets of 25, 100
and 400, and ``derive`` per premise of a chain argument.  A count does not
see a scan inside one C call, such as a regex over the whole text or
``x in some_list``, nor a loop that makes no call, so ``parse``, the
writers, the rules and ``derive`` are also timed over an 8x span.
"""
import gc
import math
import sys
import time
from functools import lru_cache
from random import Random

import pytest

from tmkit import (
    ChronEdge,
    ModelBuilder,
    conformance,
    define_event,
    derive,
    format_document,
    from_json,
    parse,
    parse_argument,
    parse_scenario,
    simplify,
    simulate,
    to_dot,
    to_json,
    trace_from_json,
    trace_to_json,
    validate,
)
from tmkit.model import StaticModel

from generators import loop_document, ring_document

SIZES = (250, 1000, 4000)


@lru_cache(maxsize=None)
def ring(n: int):
    """The ring document of ``n`` thimacs and its text."""
    doc = ring_document(n, Random(n))
    return doc, format_document(doc)


def copied(model: StaticModel) -> StaticModel:
    """``model`` anew, so that its indexes are built again."""
    return StaticModel(*(getattr(model, f) for f in model._fields))


def count_calls(run, code=None) -> int:
    """The Python and C functions ``run()`` calls, each call counted; or,
    given ``code``, the calls of the Python function with that code.  The
    collector is paused, so the finalizers a pass would run on the rest of
    the test session's heap are not counted."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if code is None:
            calls += event == "call" or event == "c_call"
        elif event == "call" and frame.f_code is code:
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def fits_a_line(xs, counts) -> bool:
    """Whether the third count lies within 0.5% of the line through the
    first two."""
    (x1, x2, x3), (c1, c2, c3) = xs, counts
    line = c1 + (c2 - c1) * (x3 - x1) / (x2 - x1)
    return abs(c3 - line) <= 0.005 * line


def parse_ring(n: int):
    text = ring(n)[1]
    return lambda: parse(text)


def define_ring_events(n: int):
    doc = ring(n)[0]
    model = doc.model

    def run():
        fresh = copied(model)
        for event in doc.events:  # on a copy, so the indexes are built again
            define_event(fresh, event.id, event.label, event.region)

    return run


def replay_ring_model(n: int):
    model = ring(n)[0].model

    def run():
        builder = ModelBuilder(model.name)
        for t in model.thimacs:
            builder.add_thimac(t.name, t.parent, t.note, t.id)
        for a in model.actions:
            builder.add_action(a.kind, a.owner, a.label, a.anchor, a.id)
        for s in model.storages:
            builder.add_storage(s.owner, s.name, s.id)
        for f in model.flows:
            builder.add_flow(f.src, f.dst)
        for t in model.triggers:
            builder.add_trigger(t.src, t.dst, t.condition)
        builder.build()

    return run


def read_ring_json(n: int):
    text = to_json(ring(n)[0])
    return lambda: from_json(text)


def write_ring_json(n: int):
    doc = ring(n)[0]
    return lambda: to_json(doc)


def draw_ring_dot(n: int):
    model = ring(n)[0].model
    return lambda: to_dot(copied(model))


def format_ring(n: int):
    doc = ring(n)[0]
    return lambda: format_document(doc)


def validate_ring(n: int):
    model = ring(n)[0].model
    return lambda: validate(copied(model))


def simplify_ring(n: int):
    model = ring(n)[0].model
    return lambda: simplify(copied(model))


@pytest.mark.parametrize(
    "layer",
    [
        parse_ring, define_ring_events, replay_ring_model, read_ring_json,
        write_ring_json, draw_ring_dot, format_ring, validate_ring,
        simplify_ring,
    ],
)
def test_calls_grow_linearly_with_the_ring(layer):
    counts = [count_calls(layer(n)) for n in SIZES]
    assert fits_a_line(SIZES, counts), counts


def chained_actions(n: int):
    """A fresh builder holding ``n + 1`` processes in one thimac, and the
    ``n`` edges that chain them."""
    builder = ModelBuilder("m")
    owner = builder.add_thimac("t")
    nodes = [builder.add_action("process", owner) for _ in range(n + 1)]
    return builder, list(zip(nodes, nodes[1:]))


@pytest.mark.parametrize(
    "one, batch", [("add_flow", "add_flows"), ("add_trigger", "add_triggers")]
)
def test_a_one_edge_call_costs_little_more_than_a_batch_row(one, batch):
    builder, edges = chained_actions(1000)
    add = getattr(builder, one)
    by_one = count_calls(lambda: [add(*edge) for edge in edges])
    builder, edges = chained_actions(1000)
    if batch == "add_triggers":
        edges = [(src, dst, None) for src, dst in edges]
    add_all = getattr(builder, batch)
    in_batch = count_calls(lambda: add_all(edges))
    assert (by_one - in_batch) / len(edges) <= 3, (by_one, in_batch)


@pytest.mark.parametrize("read", [parse_ring, read_ring_json])
def test_a_read_makes_one_chron_edge_per_edge(read):
    doc = ring(250)[0]
    made = count_calls(read(250), ChronEdge.__new__.__code__)
    assert made == len(doc.chronology.edges) == 249


BUDGETS = (25, 100, 400)


def loops(n: int):
    """The chronology, scenario and walk of a loop document of budget
    ``n``, made afresh; making the walk builds the chronology's indexes,
    so no count includes them."""
    doc, text = loop_document(n, Random(n))
    scenario = parse_scenario(text)
    return doc.chronology, scenario, simulate(doc.chronology, scenario)


def simulate_loops(n: int):
    chronology, scenario, _ = loops(n)
    return lambda: simulate(chronology, scenario)


def check_loops(n: int):
    chronology, _, trace = loops(n)
    return lambda: conformance(trace, chronology)


def write_loops(n: int):
    trace = loops(n)[2]
    return lambda: trace_to_json(trace)


def read_loops(n: int):
    text = trace_to_json(loops(n)[2])
    return lambda: trace_from_json(text)


@pytest.mark.parametrize(
    "layer", [simulate_loops, check_loops, write_loops, read_loops]
)
def test_calls_grow_linearly_with_the_walk(layer):
    steps = [len(loops(n)[2].steps) for n in BUDGETS]
    assert steps == [20 + 18 * n for n in BUDGETS]
    runs = [layer(n) for n in BUDGETS]
    for run in runs:  # fills the caches ``isinstance`` keeps, as ``Counter`` reads
        run()
    counts = [count_calls(run) for run in runs]
    assert fits_a_line(steps, counts), counts


def chain_argument(n: int):
    """The argument whose ``n`` premises chain ``v0`` to ``vn``, in an
    order shuffled by ``n``, with the goal ``v0 -> vn``."""
    links = list(range(n))
    Random(n).shuffle(links)
    lines = [f"v{k} -> v{k + 1}" for k in links]
    return parse_argument("\n".join([*lines, f"|- v0 -> v{n}"]))


def derive_chain(n: int):
    argument = chain_argument(n)
    return lambda: derive(argument)


def test_derive_calls_grow_linearly_with_the_premises():
    runs = [derive_chain(n) for n in SIZES]
    assert all(len(run().rules) == n for run, n in zip(runs, SIZES))
    counts = [count_calls(run) for run in runs]
    assert fits_a_line(SIZES, counts), counts


def best_time(run, repeats: int = 3) -> float:
    """The least wall time of ``run()``, with the collector paused, so its
    passes over the rest of the test session's heap are not counted."""
    best = math.inf
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
    return best


def time_slope(layer, small: int = 500) -> float:
    """How ``layer``'s time grows with its size, as the exponent k of
    time ~ n**k from ``small`` to 8x ``small`` (thimacs of a ring by
    default): 8x the size takes about 8x the time when linear (k = 1),
    64x when quadratic (k = 2)."""
    low, high = (best_time(layer(n)) for n in (small, 8 * small))
    return math.log(high / low) / math.log(8)


def test_parse_time_grows_linearly_with_the_ring():
    slope = time_slope(parse_ring)
    assert slope < 1.6, slope


@pytest.mark.parametrize(
    "layer", [write_ring_json, draw_ring_dot, format_ring, validate_ring, simplify_ring]
)
def test_time_grows_linearly_with_the_ring(layer):
    slope = time_slope(layer)
    assert slope < 1.6, slope


def test_derive_time_grows_linearly_with_the_premises():
    slope = time_slope(derive_chain, 2000)
    assert slope < 1.6, slope
