"""Traced run: each module's public functions called in-process, with spans.

The spans are recorded by this file, around the calls into tmkit; no
tmkit code is changed.  A span keeps its name, start, end, parent span and
op id, in memory, and the whole list is written to
``.bench_work/<workload>/spans.json`` when the run ends.  A layer's self
time is its span's duration minus the time its child spans cover.

One full sweep makes every layer call on every workload's inputs, so each
traced run reports every per-layer metric: the ring at 250 and 500
thimacs, the chronology, the arguments, and a fresh interpreter importing
``tmkit.cli``.  The ring calls behind each ``.growth`` are then repeated
(for at least half of ``--seconds``), and each ``.growth`` compares the
fastest times at 250 and 500.  ``trace.overhead`` is the cost of the full
sweep's spans, from timing empty spans, over the sweep's wall time; the
end-to-end runs record no spans at all.  Last, one pass of the workload's
own commands gives the end-to-end times against which the coverage of
each command by its blocking layer calls is printed.
"""
from __future__ import annotations

import gc
import json
import math
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional

import commands
import workloads


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: str
    error: Optional[str] = None


class Tracer:
    """Collects spans in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = ""

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[tuple[str, str], float]:
        """(op, span name) -> summed self time."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[tuple[str, str], float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[(span.op, span.name)] += span.end - span.start - child_time[index]
        return totals


@dataclass
class Sweep:
    tracer: Tracer
    wall: float  # in-process part, seconds
    counts: dict[str, float]
    errors: Counter  # "op: span name" -> exceptions raised
    attempted: int
    wrong: list[str]


# Per-layer metric -> (op, or op prefix, whose spans it sums; span name).
TIMED = {
    "dsl.parse_s": ("ring/500", "dsl.parse"),
    "model.ModelBuilder_s": ("ring/500", "model.ModelBuilder"),
    "dynamics.define_event_s": ("ring/500", "dynamics.define_event"),
    "convert.from_json_s": ("ring/500", "convert.from_json"),
    "dsl.format_document_s": ("ring/500", "dsl.format_document"),
    "convert.to_json_s": ("ring/500", "convert.to_json"),
    "convert.to_dot_s": ("ring/500", "convert.to_dot"),
    "model.validate_s": ("ring/500", "model.validate"),
    "model.simplify_s": ("ring/500", "model.simplify"),
    "convert.load_flowchart_s": ("ring/500", "convert.load_flowchart"),
    "convert.import_flowchart_s": ("ring/500", "convert.import_flowchart"),
    "dynamics.build_chronology_s": ("chron", "dynamics.build_chronology"),
    "dynamics.parse_scenario_s": ("chron", "dynamics.parse_scenario"),
    "dynamics.simulate_s": ("chron", "dynamics.simulate"),
    "dynamics.trace_to_json_s": ("chron", "dynamics.trace_to_json"),
    "dynamics.trace_from_json_s": ("chron", "dynamics.trace_from_json"),
    "dynamics.conformance_s": ("chron", "dynamics.conformance"),
    "convert.generate_report_s": ("chron", "convert.generate_report"),
    "convert.chronology_to_dot_s": ("chron", "convert.chronology_to_dot"),
    "logic.parse_argument_s": ("logic", "logic.parse_argument"),
    "logic.derive_s": ("logic", "logic.derive"),
    "logic.truth_table_validate_s": ("logic", "logic.truth_table_validate"),
    "logic.encode_as_tm_s": ("logic", "logic.encode_as_tm"),
}
GROWTH = ("dsl.parse", "model.ModelBuilder", "dynamics.define_event",
          "convert.from_json", "dsl.format_document")
COUNTS = ("dsl.format_document.bytes", "model.validate.diagnostics",
          "model.simplify.flows_out", "dynamics.simulate.steps",
          "logic.derive.steps", "logic.truth_table_validate.checked")
CLI = ("cli.import_s", "cli.jsonschema_import_s")

# End-to-end metric -> (its main workload, op, the blocking span names of
# one command, how many commands the op's spans serve).
COVERAGE = {
    "check_s": ("ring", "ring/500", ("dsl.parse", "model.validate"), 1),
    "check_json_s": ("ring", "ring/500", ("convert.from_json", "model.validate"), 1),
    "simplify_s": ("ring", "ring/500", (
        "dsl.parse", "model.simplify", "dsl.format_document[simplified]"), 1),
    "export_json_s": ("ring", "ring/500", ("dsl.parse", "convert.to_json"), 1),
    "export_dot_s": ("ring", "ring/500", ("dsl.parse", "convert.to_dot"), 1),
    "import_s": ("ring", "ring/500", (
        "convert.load_flowchart", "convert.import_flowchart",
        "dsl.format_document[imported]"), 1),
    "simulate_s": ("chron", "chron", (
        "dsl.parse", "dynamics.parse_scenario", "dynamics.simulate",
        "dynamics.trace_to_json"), 1),
    "conform_s": ("chron", "chron", (
        "dsl.parse", "dynamics.trace_from_json", "dynamics.conformance"), 1),
    "report_s": ("chron", "chron", (
        "dsl.parse", "dynamics.parse_scenario", "convert.generate_report"), 1),
    "prove_s": ("logic", "logic/prove", (
        "logic.parse_argument", "logic.derive", "logic.format_proof"), 1),
    "validate_arg_s": ("logic", "logic/validate", (
        "logic.parse_argument", "logic.truth_table_validate"), 2),
}

_IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import jsonschema\n"
    "t1 = time.perf_counter()\n"
    "import tmkit.cli\n"
    "t2 = time.perf_counter()\n"
    "print(t2 - t0, t1 - t0)\n"
)
IMPORT_SAMPLES = 3
#: The op of the in-process known-defect probe (see workloads.Op).
PROBE_OP = "chron/probe"
GROWTH_PASSES = 2
SPAN_COST_SAMPLES = 20000


def per_layer_names() -> list[str]:
    names = list(TIMED) + [f"{g}.growth" for g in GROWTH] + list(COUNTS)
    names += list(CLI) + ["trace.overhead"]
    names += [f"{span}.errors" for _, span in TIMED.values()]
    return names


@dataclass
class Inputs:
    ring: dict[int, workloads.Ring]
    chart: str
    chron: workloads.Chron
    deep_events: list[tuple[str, str, tuple[str, ...]]]
    deep_edges: list[tuple[str, str]]
    scenario_trace: str
    arguments: dict[str, str]


def prepare(seed: int) -> Inputs:
    chron = workloads.chron_model(seed)
    deep = workloads.read_flat_model(chron.deep_text)
    valid, invalid, chain, _, _, encode = workloads.logic_inputs(seed)
    return Inputs(
        ring={n: workloads.ring_model(seed, n) for n in (250, 500)},
        chart=workloads.swimlane_chart(seed).json,
        chron=chron,
        deep_events=[(e, label, region) for e, (label, region) in deep.events.items()],
        deep_edges=[(a, b) for a, b, _, _ in deep.chronology],
        scenario_trace=workloads.trace_json("loops", chron.steps),
        arguments={"valid": valid, "invalid": invalid, "chain": chain,
                   "encode": encode},
    )


def sweep(tmkit, inputs: Inputs, growth_only: bool = False) -> Sweep:
    """Every layer call once (only the ring calls that have a ``.growth``
    when ``growth_only``).  A call that raises is counted and the sweep
    goes on; a call that returns a wrong result is listed in ``wrong``."""
    tracer = Tracer()
    counts: dict[str, float] = {}
    errors: Counter = Counter()
    wrong: list[str] = []
    attempted = 0

    def call(name: str, fn: Callable, *args, **kwargs):
        nonlocal attempted
        if tracer.op != PROBE_OP:
            attempted += 1
        try:
            with tracer.span(name):
                return fn(*args, **kwargs)
        except Exception:  # a failing layer is data, not the end
            errors[f"{tracer.op}: {name}"] += 1
            return None

    def expect(what: str, got, want) -> None:
        if got != want:
            wrong.append(f"{tracer.op}: {what} is {got!r}, expected {want!r}")

    start = time.perf_counter()
    for n, ring in inputs.ring.items():
        tracer.op = f"ring/{n}"
        doc = reduced = chart = imported = None
        gc.collect()  # start each op from the same heap, as a fresh CLI does
        doc = call("dsl.parse", tmkit.parse, ring.text)
        if doc is None:
            continue
        call("model.ModelBuilder", _replay, tmkit, doc.model)
        call("dynamics.define_event", _define_events, tmkit, doc)
        call("convert.from_json", tmkit.from_json, ring.json)
        text = call("dsl.format_document", tmkit.format_document, doc) or ""
        if n != 500 or growth_only:
            continue
        counts["dsl.format_document.bytes"] = len(text.encode())
        call("convert.to_json", tmkit.to_json, doc)
        call("convert.to_dot", tmkit.to_dot, doc)
        diagnostics = call("model.validate", tmkit.validate, doc.model)
        counts["model.validate.diagnostics"] = len(diagnostics or ())
        expect("the diagnostic count", counts["model.validate.diagnostics"], 0)
        reduced = call("model.simplify", tmkit.simplify, doc.model)
        if reduced is not None:
            counts["model.simplify.flows_out"] = len(reduced.flows)
            expect("the simplified flow count", len(reduced.flows), 3 * n)
            call("dsl.format_document[simplified]", tmkit.format_document,
                 tmkit.Document(reduced))
        chart = call("convert.load_flowchart", tmkit.load_flowchart, inputs.chart)
        if chart is not None:
            imported = call("convert.import_flowchart", tmkit.import_flowchart, chart)
            if imported is not None:
                call("dsl.format_document[imported]", tmkit.format_document,
                     tmkit.Document(imported[0]))

    if growth_only:
        return Sweep(tracer, time.perf_counter() - start, counts, errors,
                     attempted, wrong)
    tracer.op = "chron"
    doc = reduced = chart = imported = None
    gc.collect()
    doc = call("dsl.parse", tmkit.parse, inputs.chron.text)
    if doc is not None:
        chron = doc.chronology
        call("dynamics.build_chronology", tmkit.build_chronology, chron.events,
             chron.edges, chron.loop_bounds)
        deep_events = [tmkit.Event(e, label, frozenset(region))
                       for e, label, region in inputs.deep_events]
        # The 1,200-event chain of the check_deep probe: its error counts
        # in the layer's .errors, but not in the run's failed ops.
        tracer.op = PROBE_OP
        call("dynamics.build_chronology", tmkit.build_chronology, deep_events,
             inputs.deep_edges)
        tracer.op = "chron"
        scenario = call("dynamics.parse_scenario", tmkit.parse_scenario,
                        inputs.chron.scenario, "loops")
        trace = call("dynamics.simulate", tmkit.simulate, chron, scenario)
        if trace is not None:
            counts["dynamics.simulate.steps"] = len(trace.steps)
            expect("the walk", list(trace.event_ids), inputs.chron.steps)
            call("dynamics.trace_to_json", tmkit.trace_to_json, trace)
        recorded = call("dynamics.trace_from_json", tmkit.trace_from_json,
                        inputs.scenario_trace)
        result = call("dynamics.conformance", tmkit.conformance, recorded, chron)
        expect("conformance", getattr(result, "ok", None), True)
        call("convert.generate_report", tmkit.generate_report, doc, [scenario])
        call("convert.chronology_to_dot", tmkit.chronology_to_dot, chron)

    args = inputs.arguments
    tracer.op = "logic/validate"
    doc = chron = trace = recorded = None
    gc.collect()
    checked = 0
    for name, want in (("valid", True), ("invalid", False)):
        argument = call("logic.parse_argument", tmkit.parse_argument, args[name])
        verdict = call("logic.truth_table_validate", tmkit.truth_table_validate,
                       argument)
        if verdict is not None:
            expect(f"the {name} verdict", verdict[0], want)
            checked += verdict[2]
    counts["logic.truth_table_validate.checked"] = checked
    expect("the assignments checked", checked, 2 * 2 ** workloads.LOGIC_VARIABLES)
    tracer.op = "logic/prove"
    argument = call("logic.parse_argument", tmkit.parse_argument, args["chain"])
    path = call("logic.derive", tmkit.derive, argument)
    if path is not None:
        counts["logic.derive.steps"] = len(path.steps)
        expect("the proof length", len(path.steps), workloads.PROVE_PREMISES)
        call("logic.format_proof", tmkit.format_proof, path)
    tracer.op = "logic/encode"
    argument = call("logic.parse_argument", tmkit.parse_argument, args["encode"])
    model = call("logic.encode_as_tm", tmkit.encode_as_tm, argument)
    if model is not None:
        expect("the encoded trigger count", len(model.triggers),
               2 * workloads.ENCODE_PREMISES)
    wall = time.perf_counter() - start
    return Sweep(tracer, wall, counts, errors, attempted, wrong)


def _replay(tmkit, model):
    """Rebuild a parsed model through a fresh ModelBuilder."""
    builder = tmkit.ModelBuilder(model.name)
    for t in model.thimacs:
        builder.add_thimac(t.name, parent=t.parent, note=t.note, id=t.id)
    for a in model.actions:
        builder.add_action(a.kind, a.owner, a.label, a.anchor, id=a.id)
    for s in model.storages:
        builder.add_storage(s.owner, s.name, id=s.id)
    for f in model.flows:
        builder.add_flow(f.src, f.dst, id=f.id)
    for t in model.triggers:
        builder.add_trigger(t.src, t.dst, t.condition, id=t.id)
    return builder.build()


def _define_events(tmkit, doc):
    return [tmkit.define_event(doc.model, e.id, e.label, e.region)
            for e in doc.events]


def import_times(root: Path) -> tuple[list[float], list[float]]:
    """Fresh interpreters importing ``tmkit.cli``: (total, jsonschema part)."""
    total, schema = [], []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=commands.tmkit_env(root),
            cwd=root, capture_output=True, text=True, check=True,
        )
        t, s = map(float, out.stdout.split())
        total.append(t)
        schema.append(s)
    return total, schema


def span_cost() -> float:
    """Seconds one empty span costs: the tracer's own bookkeeping."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(SPAN_COST_SAMPLES):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - start) / SPAN_COST_SAMPLES


def traced(workload: str, seed: int, seconds: float, root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    import tmkit

    env = commands.tmkit_env(root)
    ops, work, _ = commands.setup(workload, seed, root, env)
    inputs = prepare(seed)
    start = time.perf_counter()
    sweeps = [sweep(tmkit, inputs)]
    # A single slow moment can decide a ratio of two single timings, so
    # the ring calls behind each .growth are repeated and their fastest
    # times compared; the rest of the run goes to the coverage pass.
    while len(sweeps) < 1 + GROWTH_PASSES or (
        time.perf_counter() + sweeps[-1].wall < start + seconds / 2
    ):
        sweeps.append(sweep(tmkit, inputs, growth_only=True))
    cli_total, cli_schema = import_times(root)
    ops, _ = commands.split_probes(ops)
    run = commands.measure(ops, work, env, 0)
    samples, tally = run.samples, run.tally

    values: dict[str, float] = {}
    self_times = [s.tracer.self_times() for s in sweeps]

    def times_of(op: str, name: str) -> list[float]:
        return _times(self_times, op, name)

    for metric, (op, name) in TIMED.items():
        values[metric] = statistics.median(times_of(op, name))
    for name in GROWTH:
        # log2 of the time ratio for a doubling: a linear layer reads ~1
        values[f"{name}.growth"] = math.log2(
            min(times_of("ring/500", name)) / min(times_of("ring/250", name)))
    first = sweeps[0]
    for name in COUNTS:
        values[name] = first.counts.get(name, 0)
    values["cli.import_s"] = statistics.median(cli_total)
    values["cli.jsonschema_import_s"] = statistics.median(cli_schema)
    values["trace.overhead"] = span_cost() * len(first.tracer.spans) / first.wall
    for _, name in TIMED.values():
        values[f"{name}.errors"] = sum(
            count for key, count in first.errors.items()
            if key.endswith(f": {name}"))

    wrong = Counter(message for s in sweeps for message in s.wrong)
    raised = Counter(key for s in sweeps for key in s.errors.elements())
    probed = Counter({key: count for key, count in raised.items()
                      if key.startswith(f"{PROBE_OP}: ")})
    raised -= probed
    attempted = sum(s.attempted for s in sweeps) + tally.attempted
    failed = sum(raised.values()) + sum(wrong.values()) + tally.failed

    print(f"traced workload {workload}  seed {seed}  sweeps 1 full + "
          f"{len(sweeps) - 1} ring  attempted {attempted}  failed {failed}")
    for name in per_layer_names():
        unit = unit_of(name)
        print(f"  {name:<40}{unit:<7}{values[name]:>14.6f}")
    for key, count in raised.items():
        print(f"  failed: {key} raised (x{count})")
    for key, count in probed.items():
        print(f"  probe: {key} raised (x{count}): known defect")
    for message, count in wrong.items():
        print(f"  wrong: {message} (x{count})")
    for label, message in tally.messages.items():
        print(f"  failed: {label}: {message}")
    _print_coverage(workload, ops, samples, self_times, values["cli.import_s"])

    spans_path = work / "spans.json"
    spans_path.write_text(json.dumps(
        [{"sweep": k, **asdict(span)} for k, s in enumerate(sweeps)
         for span in s.tracer.spans]))
    print(f"  spans written to {spans_path.relative_to(root)}")
    return {
        # A layer that raises has failed; one that returns a wrong result,
        # or a command with wrong output, makes the run incorrect.
        "correct": not wrong and tally.wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": unit_of(n)}
                    for n in per_layer_names()},
    }


def _times(self_times, op: str, name: str) -> list[float]:
    """Per sweep that made the call: the summed self time of the spans
    called ``name`` in ``op`` or in the ops under it (``op/...``)."""
    out = []
    for times in self_times:
        hits = [v for (o, n), v in times.items()
                if n == name and (o == op or o.startswith(op + "/"))]
        if hits:
            out.append(sum(hits))
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith((".growth", ".overhead")):
        return "ratio"
    return "count"


def _print_coverage(workload, ops, samples, self_times, import_s) -> None:
    """Share of each command's end-to-end median covered by the import
    and the spans of its blocking layer calls."""
    by_metric: dict[str, list[float]] = defaultdict(list)
    for op, times in zip(ops, samples):
        by_metric[op.metric].extend(times)
    for metric, (main, op, spans, per) in COVERAGE.items():
        if main != workload or not by_metric.get(metric):
            continue
        e2e = statistics.median(by_metric[metric])
        layer = sum(statistics.median(_times(self_times, op, s))
                    for s in spans) / per
        print(f"  coverage {metric:<16}{(import_s + layer) / e2e:>7.1%} of "
              f"{e2e:.4f} s  (import {import_s:.4f} s + {' + '.join(spans)} "
              f"{layer:.4f} s)")
