"""The model's writers: the canonical text that ``dsl`` parses, and
Graphviz DOT.

``format_document`` writes a document so that ``parse`` reads it back
structurally equal.  It checks each bare word against the lexical rules
the lexer is built from (``dynamics``' NAME and INT patterns and
keywords), and refuses with :class:`FormatError` what would not read back
as written.  ``containment_walk`` visits the thimacs in the order both
writers nest them.  The writers need nothing of the parser, so ``import``
and ``simplify x.json`` load no ``dsl``, and no command that only parses
a model loads this module.
"""
from __future__ import annotations

import re
from typing import Iterator, Optional, Union

from .dynamics import (
    _INT,
    _NAME,
    _WORD,
    KEYWORDS,
    Document,
    FormatError,
    _resolve,
    escape,
)
from .model import StaticModel, Thimac, grouped

#: What the parser takes as a bare anchor (a NAME or an INT), reference (a
#: NAME) and declared name (an unqualified NAME, one word); a keyword is
#: no reference and no declared name.
_ANCHOR_RE = re.compile(f"{_NAME}|{_INT}")
_NAME_RE = re.compile(_NAME)
_WORD_RE = re.compile(_WORD)


def _quoted(text: str) -> str:
    """``text`` as a string literal.  The lexer ends a string at a line
    break, so text holding one cannot be written."""
    if "\n" in text:
        raise FormatError(f"cannot write {text!r} as a string: it holds a line break")
    return f'"{escape(text)}"'


def _bare(word: str, what: str) -> str:
    """``word`` written bare as a ``what``, if the lexer reads it back as
    one unpadded token that the parser takes there: the whole word matches
    the token's pattern.  An anchor is a NAME or an INT; a reference is a
    NAME and no keyword; any other bare word declares something, so, as the
    parser asks, it is also unqualified (one word, no ``/``)."""
    if what == "anchor":
        readable = _ANCHOR_RE.fullmatch(word)
    else:
        pattern = _NAME_RE if what == "reference" else _WORD_RE
        readable = pattern.fullmatch(word) and word not in KEYWORDS
    if not readable:
        raise FormatError(f"cannot write {word!r} as a bare {what}: parse refuses it")
    return word


def containment_walk(model: StaticModel) -> Iterator[tuple[bool, Thimac, int]]:
    """The thimacs in pre-order, children in declaration order:
    ``(True, thimac, depth)`` as each opens and ``(False, thimac, depth)``
    as it closes, top-level thimacs at depth 1.  The walk keeps its own
    stack, so depth is not bounded by Python's recursion limit.

    A writer must not drop elements, so after the last step this raises
    :class:`FormatError` for the first thimac the walk never reached (one
    in a containment cycle or under a missing parent), or else the first
    action or storage whose owner it never reached.
    """
    reached: set[str] = set()
    stack: list[tuple[Optional[Thimac], Iterator[Thimac]]] = [
        (None, iter(model.children_of(None)))
    ]
    while stack:
        parent, children = stack[-1]
        child = next(children, None)
        if child is None:
            stack.pop()
            if parent is not None:
                yield False, parent, len(stack)
            continue
        reached.add(child.id)
        yield True, child, len(stack)
        stack.append((child, iter(model.children_of(child.id))))
    for thimac in model.thimacs:
        if thimac.id not in reached:
            raise FormatError(
                f"thimac {thimac.id!r} is in a containment cycle or under a "
                f"missing parent and cannot be written"
            )
    for kind, nodes in (("action", model.actions), ("storage", model.storages)):
        for node in nodes:
            if node.owner not in reached:
                raise FormatError(
                    f"{kind} {node.id!r} belongs to {node.owner!r}, which is "
                    f"not a written thimac, and cannot be written"
                )


class _Formatter:
    def __init__(self, model: StaticModel):
        self.model = model
        self.lines: list[str] = []
        # flows and triggers by the thimac that prints them, in model order
        self.flows = grouped((self._grouping_owner(f), f) for f in model.flows)
        self.triggers = grouped((self._grouping_owner(t), t) for t in model.triggers)

    def _print_ref(self, node_id: str, owner: str) -> str:
        local = node_id.rsplit("/", 1)[-1]
        if self.model.nodes[node_id][1] == owner:
            if _resolve(local, owner, self.model.nodes) == node_id:
                return local  # checked where the node is declared
        if _resolve(node_id, owner, self.model.nodes) == node_id:
            return _bare(node_id, "reference")
        raise FormatError(
            f"{node_id!r} cannot be written unambiguously from {owner!r}"
        )

    def emit_model(self) -> None:
        self.lines.append(f"model {_bare(self.model.name, 'model name')} {{")
        for opening, thimac, depth in containment_walk(self.model):
            pad = "  " * depth
            if opening:
                self._open_thimac(thimac, pad)
            else:
                self._emit_edges(thimac.id, pad + "  ")
                self.lines.append(pad + "}")
        self.lines.append("}")

    def _open_thimac(self, thimac: Thimac, pad: str) -> None:
        inner = pad + "  "
        head = f"{pad}thimac {_bare(thimac.id.rsplit('/', 1)[-1], 'thimac name')}"
        if thimac.note is not None:
            head += f" {_quoted(thimac.note)}"
        self.lines.append(head + " {")
        for action in self.model.actions_of(thimac.id):
            name = _bare(action.id.rsplit("/", 1)[-1], "action name")
            line = f"{inner}{action.kind} {name}"
            if action.label is not None:
                line += f" {_quoted(action.label)}"
            if action.anchor is not None:
                line += f" @{_bare(action.anchor, 'anchor')}"
            self.lines.append(line)
        for storage in self.model.storages_of(thimac.id):
            name = _bare(storage.id.rsplit("/", 1)[-1], "storage name")
            self.lines.append(f"{inner}storage {name}")

    def _emit_edges(self, owner: str, pad: str) -> None:
        for flow in self.flows.get(owner, ()):
            src = self._print_ref(flow.src, owner)
            dst = self._print_ref(flow.dst, owner)
            self.lines.append(f"{pad}{src} -> {dst}")
        for trigger in self.triggers.get(owner, ()):
            src = self._print_ref(trigger.src, owner)
            dst = self._print_ref(trigger.dst, owner)
            line = f"{pad}{src} ~> {dst}"
            if trigger.condition is not None:
                line += f" if {_quoted(trigger.condition)}"
            self.lines.append(line)

    def _grouping_owner(self, edge) -> Optional[str]:
        nodes = self.model.nodes
        if edge.src not in nodes or edge.dst not in nodes:
            raise FormatError(
                f"edge {edge.id!r} has an unresolved endpoint and cannot "
                f"be written"
            )
        return nodes[edge.src][1]


def format_document(doc: Union[Document, StaticModel]) -> str:
    """Render a document as canonical text.

    Per thimac: actions, storages, nested thimacs, then the flows and
    triggers whose source lives there; two-space indent; region members
    sorted.  ``parse(format(d))`` is structurally equal to ``d`` for any
    document whose node ids are containment paths (as ``parse`` builds
    them), and ``format`` is idempotent across a parse round trip.
    """
    if isinstance(doc, StaticModel):
        doc = Document(doc)
    formatter = _Formatter(doc.model)
    formatter.emit_model()
    lines = formatter.lines

    if doc.events:
        lines.append("")
        lines.append("events {")
        for event in doc.events:
            members = ", ".join(_bare(m, "reference") for m in sorted(event.region))
            event_id = _bare(event.id, "event id")
            lines.append(f"  event {event_id} {_quoted(event.label)} {{ {members} }}")
        lines.append("}")

    if doc.chronology is not None:
        lines.append("")
        lines.append("chronology {")
        for edge in doc.chronology.edges:
            line = f"  {edge.src} -> {edge.dst}"
            if edge.guard is not None:
                line += f" if {_quoted(edge.guard)}"
            bound = doc.chronology.loop_bounds.get((edge.src, edge.dst))
            if bound is not None:
                line += f" max {bound}"
            lines.append(line)
        lines.append("}")

    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT


def to_dot(doc: Union[Document, StaticModel]) -> str:
    """Graphviz text: one cluster per thimac, boxes for actions,
    cylinders for storages, dashed edges for triggers."""
    model = doc.model if isinstance(doc, Document) else doc
    lines = [f'digraph "{escape(model.name)}" {{', "  rankdir=LR;"]
    for opening, thimac, depth in containment_walk(model):
        pad = "  " * depth
        if not opening:
            lines.append(pad + "}")
            continue
        lines.append(f'{pad}subgraph "cluster_{escape(thimac.id)}" {{')
        lines.append(f'{pad}  label="{escape(thimac.name)}";')
        for action in model.actions_of(thimac.id):
            local = action.id.rsplit("/", 1)[-1]
            lines.append(
                f'{pad}  "{escape(action.id)}" '
                f'[shape=box, label="{escape(f"{action.kind}: {local}")}"];'
            )
        for storage in model.storages_of(thimac.id):
            lines.append(
                f'{pad}  "{escape(storage.id)}" '
                f'[shape=cylinder, label="{escape(storage.name)}"];'
            )
    for flow in model.flows:
        lines.append(f'  "{escape(flow.src)}" -> "{escape(flow.dst)}";')
    for trigger in model.triggers:
        attrs = "style=dashed"
        if trigger.condition is not None:
            attrs += f', label="{escape(trigger.condition)}"'
        lines.append(
            f'  "{escape(trigger.src)}" -> "{escape(trigger.dst)}" '
            f"[{attrs}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
