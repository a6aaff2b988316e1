"""Text format for models: parser and canonical formatter.

The surface syntax:

    model NAME {
      thimac NAME ["note"] {
        create NAME ["label"] [@ANCHOR]     # process / release / transfer /
        storage NAME                        # receive declared the same way
        src -> dst                          # flow
        src ~> dst [if "condition"]         # trigger
        thimac NAME { ... }                 # nesting
      }
    }

    events {
      event ID "label" { action, action }
    }

    chronology {
      A -> B [if "guard"] [max N]
    }

``#`` starts a comment.  A name may refer to a sibling by bare name or to
anything else by ``/``-joined path; resolution tries the innermost
enclosing thimac first and walks outward.  Node ids in the parsed model
are the containment paths, so nesting is the namespace.  References may
point forward: the whole file is declared before anything is resolved.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Container, Iterator, NamedTuple, NoReturn, Optional, Union

from .dynamics import (
    ChronEdge,
    Document,
    build_chronology,
    define_event,
)
from .errors import TmkitError
from .model import ACTION_KINDS, ModelBuilder, StaticModel, Thimac, grouped

KEYWORDS = frozenset(
    {
        "model",
        "thimac",
        "storage",
        "events",
        "event",
        "chronology",
        "if",
        "max",
        *ACTION_KINDS,
    }
)


@dataclass(frozen=True)
class SourceSpan:
    line: int  # 1-based
    col: int  # 1-based
    length: int


class ParseError(TmkitError):
    def __init__(self, span: SourceSpan, expected: str, found: str):
        self.span = span
        self.expected = expected
        self.found = found
        super().__init__(
            f"line {span.line}, col {span.col}: expected {expected}, "
            f"found {found}"
        )


class FormatError(TmkitError):
    """A model cannot be written back as text without changing meaning."""


# ---------------------------------------------------------------------------
# lexer

# One named group per token kind, tried in order; STRAY takes any other
# character, so ``finditer`` skips nothing.  In a string, \\ and \" are
# escapes and any other backslash is text.  The close is optional, so the
# greedy first try matches and never backtracks to read a final \" as text.
_TOKEN_RE = re.compile(
    r"(?P<NEWLINE>\n)"
    r"|(?P<SKIP>[ \t\r]+|#[^\n]*)"  # not \s, which also takes \x0b, \f, NBSP
    r"|(?P<ARROW>->)|(?P<TRIG>~>)|(?P<LBRACE>\{)|(?P<RBRACE>\})"
    r"|(?P<AT>@)|(?P<COMMA>,)"
    r'|(?P<STRING>"[^"\\\n]*(?:\\[\\"]?[^"\\\n]*)*(?P<CLOSE>")?)'
    r"|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*(?:/[A-Za-z_][A-Za-z0-9_]*)*)"
    r"|(?P<INT>[0-9]+)"  # not \d, which takes any Unicode digit
    r"|(?P<STRAY>.)"
)
_ESCAPE_RE = re.compile(r'\\([\\"])')


class _Token(NamedTuple):
    type: str  # NAME INT STRING ARROW TRIG LBRACE RBRACE AT COMMA EOF
    value: str
    line: int
    col: int
    length: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col, self.length)


def _describe(token: _Token) -> str:
    if token.type == "EOF":
        return "end of file"
    if token.type == "STRING":
        return f'string "{token.value}"'
    return repr(token.value)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    match = None
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "SKIP":
            continue
        start, value = match.start(), match.group()
        if kind == "NEWLINE":
            line, line_start = line + 1, start + 1
            continue
        col = start - line_start + 1
        if kind == "STRING":
            if match["CLOSE"] is None:
                found = "end of file" if match.end() == len(text) else "end of line"
                span = SourceSpan(line, col, len(value))
                raise ParseError(span, "closing '\"'", found)
            value = _ESCAPE_RE.sub(r"\1", value[1:-1])
        elif kind == "STRAY":
            raise ParseError(SourceSpan(line, col, 1), "a token", repr(value))
        tokens.append(_Token(kind, value, line, col, match.end() - start))
    # A comment moves no column: EOF right after one sits at its '#'.
    end = match.start() if match and match.group()[0] == "#" else len(text)
    tokens.append(_Token("EOF", "", line, end - line_start + 1, 1))
    return tokens


# ---------------------------------------------------------------------------
# parser


def _resolve(name: str, scope: tuple[str, ...], nodes: Container[str]) -> Optional[str]:
    """The node ``name`` means inside ``scope``: the innermost enclosing
    thimac's ``scope/name`` that exists, walking outward; None if none does."""
    for i in range(len(scope), -1, -1):
        candidate = "/".join((*scope[:i], name))
        if candidate in nodes:
            return candidate
    return None


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0
        # id -> "action" | "storage" (thimacs live in _thimac_ids)
        self._nodes: dict[str, str] = {}
        self._thimac_ids: set[str] = set()
        self._pending_flows: list[tuple[tuple[str, ...], _Token, _Token]] = []
        self._pending_triggers: list[
            tuple[tuple[str, ...], _Token, _Token, Optional[str]]
        ] = []
        # (id token, label, ref tokens)
        self._pending_events: list[tuple[_Token, str, list[_Token]]] = []
        # (src token, dst token, guard, bound or None)
        self._pending_chron: list[
            tuple[_Token, _Token, Optional[str], Optional[int]]
        ] = []

    # -- token plumbing ------------------------------------------------------

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        token = self._tokens[self._pos]
        if token.type != "EOF":
            self._pos += 1
        return token

    def _error(self, token: _Token, expected: str) -> NoReturn:
        raise ParseError(token.span, expected, _describe(token))

    def _expect(self, type_: str, expected: str) -> _Token:
        token = self._peek()
        if token.type != type_:
            self._error(token, expected)
        return self._advance()

    def _at_keyword(self, word: str) -> bool:
        token = self._peek()
        return token.type == "NAME" and token.value == word

    def _expect_keyword(self, word: str) -> _Token:
        token = self._peek()
        if not self._at_keyword(word):
            self._error(token, f"'{word}'")
        return self._advance()

    def _declared_name(self, what: str) -> _Token:
        token = self._expect("NAME", what)
        if token.value in KEYWORDS:
            raise ParseError(token.span, what, f"keyword {token.value!r}")
        if "/" in token.value:
            raise ParseError(token.span, f"an unqualified {what}", _describe(token))
        return token

    # -- grammar -------------------------------------------------------------

    def parse_document(self) -> Document:
        self._expect_keyword("model")
        name = self._declared_name("model name")
        self._expect("LBRACE", "'{'")
        self._builder = ModelBuilder(name.value)
        self._parse_items()
        self._expect("RBRACE", "'}'")

        have_events = False
        if self._at_keyword("events"):
            have_events = True
            self._parse_events_block()
        have_chronology = False
        if self._at_keyword("chronology"):
            have_chronology = True
            self._parse_chronology_block()
        self._expect("EOF", "end of file")

        return self._resolve(have_events, have_chronology)

    def _parse_items(self) -> None:
        """The model block's body.  Open thimacs are kept on an explicit
        stack of (scope, owner), so nesting depth is not bounded by
        Python's recursion limit."""
        stack: list[tuple[tuple[str, ...], Optional[str]]] = [((), None)]
        while True:
            scope, owner = stack[-1]
            token = self._peek()
            if token.type in ("RBRACE", "EOF"):
                if len(stack) == 1:
                    return
                self._expect("RBRACE", "'}'")
                stack.pop()
            elif token.type != "NAME":
                self._error(token, "a declaration or '}'")
            elif token.value == "thimac":
                stack.append(self._open_thimac(scope, owner))
            elif token.value in ACTION_KINDS:
                self._parse_action(scope, owner)
            elif token.value == "storage":
                self._parse_storage(scope, owner)
            elif token.value in KEYWORDS:
                self._error(token, "a declaration or '}'")
            else:
                self._parse_edge(scope)

    def _declare(self, scope: tuple[str, ...], token: _Token) -> str:
        path = "/".join((*scope, token.value))
        if path in self._nodes or path in self._thimac_ids:
            raise ParseError(token.span, "a fresh name", f"{path!r} (already declared)")
        return path

    def _open_thimac(
        self, scope: tuple[str, ...], owner: Optional[str]
    ) -> tuple[tuple[str, ...], str]:
        """Read ``thimac NAME ["note"] {``; return the scope and owner of
        its body."""
        self._advance()
        name = self._declared_name("thimac name")
        note = self._advance().value if self._peek().type == "STRING" else None
        path = self._declare(scope, name)
        self._thimac_ids.add(path)
        self._builder.add_thimac(name.value, parent=owner, note=note, id=path)
        self._expect("LBRACE", "'{'")
        return (*scope, name.value), path

    def _parse_action(self, scope: tuple[str, ...], owner: Optional[str]) -> None:
        kind = self._advance()
        if owner is None:
            self._error(kind, "a thimac to hold this action")
        name = self._declared_name("action name")
        label = self._advance().value if self._peek().type == "STRING" else None
        anchor = None
        if self._peek().type == "AT":
            self._advance()
            token = self._peek()
            if token.type not in ("NAME", "INT"):
                self._error(token, "an anchor")
            anchor = self._advance().value
        path = self._declare(scope, name)
        self._nodes[path] = "action"
        self._builder.add_action(kind.value, owner, label, anchor, id=path)

    def _parse_storage(self, scope: tuple[str, ...], owner: Optional[str]) -> None:
        keyword = self._advance()
        if owner is None:
            self._error(keyword, "a thimac to hold this storage")
        name = self._declared_name("storage name")
        path = self._declare(scope, name)
        self._nodes[path] = "storage"
        self._builder.add_storage(owner, name.value, id=path)

    def _parse_edge(self, scope: tuple[str, ...]) -> None:
        src = self._advance()
        arrow = self._peek()
        if arrow.type == "ARROW":
            self._advance()
            dst = self._expect("NAME", "a node name")
            self._pending_flows.append((scope, src, dst))
        elif arrow.type == "TRIG":
            self._advance()
            dst = self._expect("NAME", "a node name")
            condition = None
            if self._at_keyword("if"):
                self._advance()
                condition = self._expect("STRING", "a condition string").value
            self._pending_triggers.append((scope, src, dst, condition))
        else:
            self._error(arrow, "'->' or '~>'")

    def _parse_events_block(self) -> None:
        self._advance()
        self._expect("LBRACE", "'{'")
        seen: set[str] = set()
        while self._peek().type not in ("RBRACE", "EOF"):
            self._expect_keyword("event")
            event_id = self._declared_name("event id")
            if event_id.value in seen:
                raise ParseError(
                    event_id.span,
                    "a fresh event id",
                    f"{event_id.value!r} (already declared)",
                )
            seen.add(event_id.value)
            label = self._expect("STRING", "an event label").value
            self._expect("LBRACE", "'{'")
            refs = [self._expect("NAME", "an action name")]
            while self._peek().type == "COMMA":
                self._advance()
                refs.append(self._expect("NAME", "an action name"))
            self._expect("RBRACE", "'}'")
            self._pending_events.append((event_id, label, refs))
        self._expect("RBRACE", "'}'")

    def _parse_chronology_block(self) -> None:
        self._advance()
        self._expect("LBRACE", "'{'")
        while self._peek().type not in ("RBRACE", "EOF"):
            src = self._expect("NAME", "an event id")
            self._expect("ARROW", "'->'")
            dst = self._expect("NAME", "an event id")
            guard = None
            bound = None
            if self._at_keyword("if"):
                self._advance()
                guard = self._expect("STRING", "a guard string").value
            if self._at_keyword("max"):
                self._advance()
                token = self._expect("INT", "an iteration bound")
                try:
                    bound = int(token.value)
                except ValueError:  # more digits than Python will convert
                    digits = f"{len(token.value)} digits"
                    raise ParseError(token.span, "a shorter bound", digits) from None
                if bound < 1:
                    self._error(token, "a bound of at least 1")
            self._pending_chron.append((src, dst, guard, bound))
        self._expect("RBRACE", "'}'")

    # -- resolution ----------------------------------------------------------

    def _resolve(self, have_events: bool, have_chronology: bool) -> Document:
        for scope, src, dst in self._pending_flows:
            src_id, dst_id = self._endpoints(scope, src, dst)
            self._builder.add_flow(src_id, dst_id)
        for scope, src, dst, condition in self._pending_triggers:
            src_id, dst_id = self._endpoints(scope, src, dst)
            self._builder.add_trigger(src_id, dst_id, condition)
        model = self._builder.build()

        events = []
        for event_id, label, ref_tokens in self._pending_events:
            region = []
            for token in ref_tokens:
                ref = _resolve(token.value, (), self._nodes)
                if ref is None or self._nodes[ref] != "action":
                    self._error(token, "a declared action")
                region.append(ref)
            events.append(define_event(model, event_id.value, label, region))

        chronology = None
        if have_chronology:
            known = {e.id for e in events}
            edges = []
            bounds = {}
            pairs: set[tuple[str, str]] = set()
            for src, dst, guard, bound in self._pending_chron:
                for token in (src, dst):
                    if token.value not in known:
                        self._error(token, "a declared event")
                pair = (src.value, dst.value)
                if pair in pairs:
                    self._error(dst, f"a single edge {src.value} -> {dst.value}")
                pairs.add(pair)
                edges.append(ChronEdge(src.value, dst.value, guard))
                if bound is not None:
                    bounds[pair] = bound
            chronology = build_chronology(events, edges, bounds)

        return Document(model, tuple(events), chronology)

    def _endpoints(
        self, scope: tuple[str, ...], src: _Token, dst: _Token
    ) -> tuple[str, str]:
        src_id = _resolve(src.value, scope, self._nodes)
        if src_id is None:
            self._error(src, "a declared action or storage")
        dst_id = _resolve(dst.value, scope, self._nodes)
        if dst_id is None:
            self._error(dst, "a declared action or storage")
        if src_id == dst_id:
            self._error(dst, "a node other than the source")
        return src_id, dst_id


def parse(text: str) -> Document:
    """Parse model text into a :class:`Document`.

    Raises :class:`ParseError` for syntax and name errors (with a source
    span), and lets semantic errors from the dynamic layer -- disconnected
    regions, unbounded cycles -- propagate as :class:`DynamicsError`.
    """
    return _Parser(_tokenize(text)).parse_document()


# ---------------------------------------------------------------------------
# formatter


def escape(text: str) -> str:
    """Backslash-escape ``\\`` and ``"`` for a double-quoted string.  DOT
    quotes its strings the same way, so ``convert`` uses this too."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _quoted(text: str) -> str:
    """``text`` as a string literal.  The lexer ends a string at a line
    break, so text holding one cannot be written."""
    if "\n" in text:
        raise FormatError(f"cannot write {text!r} as a string: it holds a line break")
    return f'"{escape(text)}"'


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
        self.nodes = set(model.actions_by_id) | set(model.storages_by_id)
        self.lines: list[str] = []
        # flows and triggers by the thimac that prints them, in model order
        self.flows = grouped((self._grouping_owner(f), f) for f in model.flows)
        self.triggers = grouped(
            (self._grouping_owner(t), t) for t in model.triggers
        )

    def _print_ref(self, node_id: str, scope: tuple[str, ...], owner: str) -> str:
        local = node_id.rsplit("/", 1)[-1]
        if self.model.node_owner(node_id) == owner:
            if _resolve(local, scope, self.nodes) == node_id:
                return local
        if _resolve(node_id, scope, self.nodes) == node_id:
            return node_id
        raise FormatError(
            f"{node_id!r} cannot be written unambiguously from {owner!r}"
        )

    def emit_model(self) -> None:
        self.lines.append(f"model {self.model.name} {{")
        for opening, thimac, depth in containment_walk(self.model):
            pad = "  " * depth
            if opening:
                self._open_thimac(thimac, pad)
            else:
                self._emit_edges(tuple(thimac.id.split("/")), thimac.id, pad + "  ")
                self.lines.append(pad + "}")
        self.lines.append("}")

    def _open_thimac(self, thimac: Thimac, pad: str) -> None:
        inner = pad + "  "
        head = f"{pad}thimac {thimac.id.rsplit('/', 1)[-1]}"
        if thimac.note is not None:
            head += f" {_quoted(thimac.note)}"
        self.lines.append(head + " {")
        for action in self.model.actions_of(thimac.id):
            line = f"{inner}{action.kind} {action.id.rsplit('/', 1)[-1]}"
            if action.label is not None:
                line += f" {_quoted(action.label)}"
            if action.anchor is not None:
                line += f" @{action.anchor}"
            self.lines.append(line)
        for storage in self.model.storages_of(thimac.id):
            self.lines.append(f"{inner}storage {storage.id.rsplit('/', 1)[-1]}")

    def _emit_edges(self, scope: tuple[str, ...], owner: str, pad: str) -> None:
        for flow in self.flows.get(owner, ()):
            src = self._print_ref(flow.src, scope, owner)
            dst = self._print_ref(flow.dst, scope, owner)
            self.lines.append(f"{pad}{src} -> {dst}")
        for trigger in self.triggers.get(owner, ()):
            src = self._print_ref(trigger.src, scope, owner)
            dst = self._print_ref(trigger.dst, scope, owner)
            line = f"{pad}{src} ~> {dst}"
            if trigger.condition is not None:
                line += f" if {_quoted(trigger.condition)}"
            self.lines.append(line)

    def _grouping_owner(self, edge) -> Optional[str]:
        owner = self.model.node_owner(edge.src)
        if owner is None or self.model.node_owner(edge.dst) is None:
            raise FormatError(
                f"edge {edge.id!r} has an unresolved endpoint and cannot "
                f"be written"
            )
        return owner


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
            members = ", ".join(sorted(event.region))
            lines.append(f"  event {event.id} {_quoted(event.label)} {{ {members} }}")
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
