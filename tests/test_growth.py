"""Work per model size: the text-to-model, model-out and dynamics layers
do linear work.

Each text-to-model layer, the two model writers ``to_json`` and
``to_dot``, and ``validate`` run on rings of 250, 1,000 and 4,000
thimacs, and the Python and C calls each makes are counted.  The count is
a fixed part plus a part per thimac, so the count at 4,000 must lie on the
line through the other two.  The dynamics layer is counted the same way
per step of a walk, over loop budgets of 25, 100 and 400.  A count does
not see a scan inside one C call, such as a regex over the whole text or
``x in some_list``, so ``parse``, the writers and ``validate`` are also
timed over an 8x span.
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
    format_document,
    from_json,
    parse,
    parse_scenario,
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


def validate_ring(n: int):
    model = ring(n)[0].model
    return lambda: validate(copied(model))


@pytest.mark.parametrize(
    "layer",
    [
        parse_ring, define_ring_events, replay_ring_model, read_ring_json,
        write_ring_json, draw_ring_dot, validate_ring,
    ],
)
def test_calls_grow_linearly_with_the_ring(layer):
    counts = [count_calls(layer(n)) for n in SIZES]
    assert fits_a_line(SIZES, counts), counts


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


def time_slope(layer) -> float:
    """How ``layer``'s time grows with the ring, as the exponent k of
    time ~ n**k from 500 to 4,000 thimacs: 8x the thimacs takes about 8x
    the time when linear (k = 1), 64x when quadratic (k = 2)."""
    small, large = (best_time(layer(n)) for n in (500, 4000))
    return math.log(large / small) / math.log(4000 / 500)


def test_parse_time_grows_linearly_with_the_ring():
    slope = time_slope(parse_ring)
    assert slope < 1.6, slope


@pytest.mark.parametrize("layer", [write_ring_json, draw_ring_dot, validate_ring])
def test_time_grows_linearly_with_the_ring(layer):
    slope = time_slope(layer)
    assert slope < 1.6, slope
