"""Views of a document's dynamic layer: the plain-text report and the
chronology drawn in Graphviz.

They need only the model and dynamic layers, so ``tmkit report`` and
``tmkit export --part chronology`` load none of the model JSON in
``convert``, the chart code in ``flowchart`` or the model's writers in
``writer``.  The report imports the rules and the
walk as it runs, so the chronology's drawing loads neither.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .dynamics import ChronologyGraph, Document, DynamicsError, escape

if TYPE_CHECKING:
    from .walk import Scenario


def chronology_to_dot(chronology: ChronologyGraph) -> str:
    """Graphviz text: a box per event, an edge per chronology edge,
    labelled with its guard and its loop bound."""
    lines = ['digraph "chronology" {', "  rankdir=LR;"]
    for event in chronology.events:
        label = f"{escape(event.id)}\\n{escape(event.label)}"
        lines.append(f'  "{escape(event.id)}" [shape=box, label="{label}"];')
    for edge in chronology.edges:
        parts = []
        if edge.guard is not None:
            parts.append(escape(edge.guard))
        bound = chronology.loop_bounds.get((edge.src, edge.dst))
        if bound is not None:
            parts.append(f"max {bound}")
        attrs = f' [label="{"; ".join(parts)}"]' if parts else ""
        lines.append(f'  "{escape(edge.src)}" -> "{escape(edge.dst)}"{attrs};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def generate_report(doc: Document, scenarios: Iterable[Scenario] = ()) -> str:
    """Plain-text summary: thimac inventory, validation findings, event
    catalog, and a walk per requested scenario."""
    from .rules import tally, validate

    model = doc.model
    title = f"report on {model.name}"
    lines = [title, "=" * len(title), ""]

    lines += ["thimacs", "-------"]
    if not model.thimacs:
        lines.append("(none)")
    for thimac in model.thimacs:
        lines.append(
            f"- {thimac.id}: {len(model.actions_of(thimac.id))} actions, "
            f"{len(model.storages_of(thimac.id))} storages"
        )
    lines.append("")

    diagnostics = validate(model)
    lines += ["validation", "----------", tally(diagnostics)]
    for diagnostic in diagnostics:
        lines.append(f"- {diagnostic}")
    lines.append("")

    if doc.events:
        lines += ["events", "------"]
        for event in doc.events:
            lines.append(
                f"- {event.id}: {event.label} (region: {len(event.region)} actions)"
            )
        lines.append("")

    for scenario in scenarios:
        if doc.chronology is None:
            raise DynamicsError("document has no chronology to walk")
        from .walk import walk_lines

        heading = f"walk: {scenario.name}"
        walk = walk_lines(doc.chronology, doc.events_by_id, scenario)
        lines += [heading, "-" * len(heading), walk, ""]

    return "\n".join(lines).rstrip("\n") + "\n"
