"""Command-line front end.

Results go to stdout; notes and errors go to stderr.  Exit codes: 0 for
success, 1 for a negative result (validation errors, an invalid or
underivable argument, a failed run, a nonconforming trace), 2 for
unusable input (bad syntax, bad files, bad usage).  Output is plain by
default so runs are byte-reproducible; set ``TMKIT_COLOR=1`` to color
the stderr side.

Exit 2 is decided in one place, ``_Main.invoke``: every
:class:`TmkitError` that no command turned into a negative result.  A
file that cannot be read or decoded as UTF-8, and an output that cannot
be written or encoded as UTF-8, raise one too.

A command runs with the cyclic garbage collector off (``_Main.main``),
and a caller whose collector was on has it on again afterwards.  At
exit, the process freezes what it holds, so the interpreter's last
collections skip it.

Each command imports the layers it runs inside its body, below its
docstring (click reads the help text from it), so a command loads no
layer it does not use.
"""
from __future__ import annotations

import atexit
import errno
import gc
import os
import pathlib
from typing import TYPE_CHECKING, NoReturn, Optional

import click

from . import __version__
from .errors import TmkitError

if TYPE_CHECKING:
    from .dynamics import Document
    from .walk import Scenario

_MODEL_FILE = click.Path(exists=True, dir_okay=False)

# Python collects every cycle once more at exit, and again while it tears
# the modules down: about 10 of the 13 ms a command spends shutting down
# (a 2-vCPU VM), on objects the process is dropping anyway.  Frozen
# objects are out of the collector's reach.  Output is flushed as before;
# only finalizers of objects caught in cycles do not run, which Python
# never promised at exit.
atexit.register(gc.freeze)


def _style(text: str, color: str) -> str:
    if os.environ.get("TMKIT_COLOR") == "1":
        return click.style(text, fg=color)
    return text


def _note(message: str) -> None:
    click.echo(_style(f"note: {message}", "yellow"), err=True)


def _fail(message: str, code: int) -> NoReturn:
    click.echo(_style(f"error: {message}", "red"), err=True)
    raise SystemExit(code)


def _read(path: str) -> str:
    try:
        return pathlib.Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise TmkitError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise TmkitError(
            f"cannot read {path!r} as UTF-8: {exc.reason} at byte {exc.start}"
        ) from None


def _write(output: Optional[str], text: str) -> None:
    """Print ``text``, or write it to ``output``: the one place results go."""
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise TmkitError(f"cannot encode the output as UTF-8: {exc}") from None
    try:
        if output is None:
            click.echo(data, nl=False)
        else:
            pathlib.Path(output).write_bytes(data)
    except OSError as exc:
        if output is None and exc.errno == errno.EPIPE:
            raise  # a closed pipe: click's handling exits 1 quietly
        raise TmkitError(str(exc)) from None


def _lines(lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _load_document(path: str) -> Document:
    text = _read(path)
    if path.endswith(".json"):
        from .convert import from_json

        return from_json(text)
    from .dsl import parse

    return parse(text)


def _load_scenario(path: str) -> Scenario:
    from .walk import parse_scenario

    return parse_scenario(_read(path), name=pathlib.Path(path).stem)


class _Main(click.Group):
    def main(self, *args, **kwargs):
        """Run a command with the cyclic collector off.  tmkit's records
        form no reference cycles, so its passes would free nothing; one
        young collection first frees the cycles that importing click
        leaves.  A caller whose collector was on gets it back."""
        was_enabled = gc.isenabled()
        gc.collect(1)
        gc.disable()
        try:
            return super().main(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except TmkitError as exc:
            _fail(str(exc), 2)


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="tmkit")
def main() -> None:
    """Model thimacs, their events, and the arguments behind them."""


@main.command()
@click.argument("model_file", type=_MODEL_FILE)
def check(model_file: str) -> None:
    """Validate a model and print what the rules find."""
    from .rules import tally, validate

    doc = _load_document(model_file)
    diagnostics = validate(doc.model)
    _write(None, _lines([*diagnostics, tally(diagnostics)]))
    if any(d.severity == "error" for d in diagnostics):
        raise SystemExit(1)


@main.command()
@click.argument("model_file", type=_MODEL_FILE)
@click.option("-o", "--output", type=click.Path(dir_okay=False))
def simplify(model_file: str, output: Optional[str]) -> None:
    """Collapse transport actions and print the reduced model."""
    from .dynamics import Document
    from .rules import SimplifyError, simplify as simplify_model
    from .writer import format_document

    doc = _load_document(model_file)
    try:
        reduced = simplify_model(doc.model)
    except SimplifyError as exc:
        for diagnostic in exc.diagnostics:
            click.echo(_style(str(diagnostic), "red"), err=True)
        _fail("cannot simplify a model that has errors", 1)
    if doc.events or doc.chronology is not None:
        _note("events and chronology dropped; their regions name removed actions")
    kept = {trigger.id for trigger in reduced.triggers}
    for trigger in doc.model.triggers:
        if trigger.id not in kept:
            _note(
                f"trigger {trigger.id} {trigger.src} ~> {trigger.dst} dropped; "
                f"no two distinct surviving actions stand in for its ends"
            )
    _write(output, format_document(Document(reduced)))


@main.command()
@click.argument("model_file", type=_MODEL_FILE)
@click.option("--coverage", is_flag=True, help="List actions no event covers.")
def events(model_file: str, coverage: bool) -> None:
    """List a model's events (or its coverage gaps)."""
    from .dynamics import check_coverage

    doc = _load_document(model_file)
    if coverage:
        uncovered = check_coverage(doc.model, doc.events)
        _write(None, _lines(uncovered))
        if not uncovered:
            _note("every action is covered")
        return
    if not doc.events:
        _note("no events defined")
        return
    _write(None, _lines(
        f"{event.id}: {event.label} ({len(event.region)} actions)"
        for event in doc.events
    ))


@main.command()
@click.argument("model_file", type=_MODEL_FILE)
@click.option(
    "--scenario", "scenario_file", required=True, type=_MODEL_FILE,
    help="Decision file: one 'guard = T,F,...' line per guard.",
)
@click.option("-o", "--output", type=click.Path(dir_okay=False))
def simulate(model_file: str, scenario_file: str, output: Optional[str]) -> None:
    """Walk the chronology under a scenario; print the trace as JSON."""
    from .walk import SimulationError, simulate_to_json

    doc = _load_document(model_file)
    if doc.chronology is None:
        raise TmkitError("model has no chronology to simulate")
    scenario = _load_scenario(scenario_file)
    try:
        text = simulate_to_json(doc.chronology, scenario)
    except SimulationError as exc:
        _fail(str(exc), 1)
    _write(output, text)


@main.command()
@click.argument("model_file", type=_MODEL_FILE)
@click.argument("trace_file", type=_MODEL_FILE)
def conform(model_file: str, trace_file: str) -> None:
    """Check a recorded trace against the chronology."""
    from .walk import conform_json

    doc = _load_document(model_file)
    if doc.chronology is None:
        raise TmkitError("model has no chronology to conform against")
    result = conform_json(_read(trace_file), doc.chronology)
    if result.ok:
        _write(None, "ok\n")
    else:
        _write(None, f"violation at {result.violation}\n")
        raise SystemExit(1)


@main.command()
@click.argument("argument_file", type=_MODEL_FILE)
def prove(argument_file: str) -> None:
    """Derive an argument's goal by chaining premises."""
    from .logic import derive, format_proof, parse_argument

    path = derive(parse_argument(_read(argument_file)))
    if path is None:
        _fail("no derivation found", 1)
    _write(None, format_proof(path))


@main.command(name="validate-arg")
@click.argument("argument_file", type=_MODEL_FILE)
def validate_arg(argument_file: str) -> None:
    """Check an argument against its full truth table."""
    from .logic import parse_argument, truth_table_validate

    argument = parse_argument(_read(argument_file))
    valid, countermodel, checked = truth_table_validate(argument)
    if valid:
        _write(None, f"valid ({checked} assignments checked)\n")
    else:
        rendered = " ".join(
            f"{var}={'T' if value else 'F'}"
            for var, value in sorted(countermodel.items())
        )
        _write(None, f"invalid: {rendered}\n")
        raise SystemExit(1)


@main.command(name="import")
@click.argument("chart_file", type=_MODEL_FILE)
@click.option("-o", "--output", type=click.Path(dir_okay=False))
def import_chart(chart_file: str, output: Optional[str]) -> None:
    """Turn a swimlane flowchart (JSON) into model text."""
    from .dynamics import Document
    from .flowchart import import_flowchart, load_flowchart
    from .writer import format_document

    model, notes = import_flowchart(load_flowchart(_read(chart_file)))
    for note in notes:
        _note(note)
    _write(output, format_document(Document(model)))


@main.command()
@click.argument("model_file", type=_MODEL_FILE)
@click.option("--format", "fmt", type=click.Choice(["json", "dot"]), required=True)
@click.option(
    "--part", type=click.Choice(["model", "chronology"]), default="model",
    help="Which graph to draw (dot output only).",
)
@click.option("-o", "--output", type=click.Path(dir_okay=False))
def export(model_file: str, fmt: str, part: str, output: Optional[str]) -> None:
    """Write a document as canonical JSON or Graphviz text."""
    doc = _load_document(model_file)
    if fmt == "json":
        if part != "model":
            raise TmkitError("--part applies to dot output only")
        from .convert import to_json

        _write(output, to_json(doc))
    elif part == "chronology":
        if doc.chronology is None:
            raise TmkitError("model has no chronology to draw")
        from .report import chronology_to_dot

        _write(output, chronology_to_dot(doc.chronology))
    else:
        from .writer import to_dot

        _write(output, to_dot(doc))


@main.command()
@click.argument("model_file", type=_MODEL_FILE)
@click.option(
    "--scenario", "scenario_files", multiple=True, type=_MODEL_FILE,
    help="Walk this scenario in the report (repeatable).",
)
def report(model_file: str, scenario_files: tuple[str, ...]) -> None:
    """Summarize a document: thimacs, findings, events, walks."""
    from .report import generate_report

    doc = _load_document(model_file)
    if not scenario_files:  # no walk: the walk's code is not loaded
        _write(None, generate_report(doc))
        return
    from .walk import SimulationError

    scenarios = [_load_scenario(f) for f in scenario_files]
    try:
        text = generate_report(doc, scenarios)
    except SimulationError as exc:
        _fail(str(exc), 1)
    _write(None, text)
