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
are the containment paths, so nesting is the namespace.

The parser reads the file once, and each block is checked as it closes.
References inside the model block may point forward: its edges resolve
at its ``}``.  So of several faults, the first in reading order is the
one reported.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Container, Iterator, NamedTuple, NoReturn, Optional, Union

from .dynamics import (
    ChronEdge,
    ChronologyGraph,
    Document,
    Event,
    build_chronology,
    define_event,
)
from .errors import TmkitError
from .model import (
    ACTION_KINDS,
    MAX_DEPTH,
    ModelBuilder,
    ModelError,
    NestingError,
    StaticModel,
    Thimac,
    grouped,
)

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

# A NAME is words joined by '/'.  The formatter checks bare words with these.
_WORD = "[A-Za-z_][A-Za-z0-9_]*"
_NAME = f"{_WORD}(?:/{_WORD})*"
_INT = "[0-9]+"  # not \d, which takes any Unicode digit

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
    f"|(?P<NAME>{_NAME})|(?P<INT>{_INT})"
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


def _resolve(name: str, owner: Optional[str], nodes: Container[str]) -> Optional[str]:
    """The node ``name`` means inside thimac ``owner``: ``owner/name`` if
    that exists, else the same from each enclosing ``/``-prefix of
    ``owner`` outward, down to ``name`` itself; None if none exists."""
    while owner is not None:
        if f"{owner}/{name}" in nodes:
            return f"{owner}/{name}"
        head, slash, _ = owner.rpartition("/")
        owner = head if slash else None
    return name if name in nodes else None


# An edge as read: (owner, src, dst, is trigger, condition).
_Edge = tuple[Optional[str], _Token, _Token, bool, Optional[str]]


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

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
        model = self._parse_model()
        events = self._parse_events_block(model) if self._at_keyword("events") else {}
        chronology = None
        if self._at_keyword("chronology"):
            chronology = self._parse_chronology_block(events)
        self._expect("EOF", "end of file")
        return Document(model, tuple(events.values()), chronology)

    def _parse_model(self) -> StaticModel:
        """The model block's body and its ``}``, where the edges resolve,
        so they may name nodes declared after them.  Open thimacs are kept
        on an explicit stack of ids, so nesting depth is not bounded by
        Python's recursion limit."""
        stack: list[Optional[str]] = [None]
        edges: list[_Edge] = []
        while True:
            token = self._peek()
            if token.type in ("RBRACE", "EOF"):
                self._expect("RBRACE", "'}'")
                if len(stack) == 1:
                    break
                stack.pop()
            elif token.type != "NAME":
                self._error(token, "a declaration or '}'")
            elif token.value == "thimac":
                stack.append(self._open_thimac(stack[-1]))
            elif token.value in ACTION_KINDS:
                self._parse_action(stack[-1])
            elif token.value == "storage":
                self._parse_storage(stack[-1])
            elif token.value in KEYWORDS:
                self._error(token, "a declaration or '}'")
            else:
                edges.append(self._parse_edge(stack[-1]))
        nodes = self._builder.node_ids
        for owner, src, dst, is_trigger, condition in edges:
            src_id = _resolve(src.value, owner, nodes)
            if src_id is None:
                self._error(src, "a declared action or storage")
            dst_id = _resolve(dst.value, owner, nodes)
            if dst_id is None:
                self._error(dst, "a declared action or storage")
            if src_id == dst_id:
                self._error(dst, "a node other than the source")
            if is_trigger:
                self._builder.add_trigger(src_id, dst_id, condition)
            else:
                self._builder.add_flow(src_id, dst_id)
        return self._builder.build()

    def _declare(
        self, owner: Optional[str], name: _Token, add: Callable[..., str], *args
    ) -> str:
        """Add a thimac, action or storage through ``add(*args, id=path)``.
        The builder's duplicate-id and nesting-depth checks are the only
        ones."""
        path = name.value if owner is None else f"{owner}/{name.value}"
        try:
            return add(*args, id=path)
        except NestingError as exc:
            raise ParseError(
                name.span,
                f"at most {MAX_DEPTH} nested thimacs",
                f"thimac {name.value} at depth {exc.depth}",
            ) from None
        except ModelError:  # the id is taken
            raise ParseError(
                name.span, "a fresh name", f"{path!r} (already declared)"
            ) from None

    def _open_thimac(self, owner: Optional[str]) -> str:
        """Read ``thimac NAME ["note"] {``; return the thimac's id."""
        self._advance()
        name = self._declared_name("thimac name")
        note = self._advance().value if self._peek().type == "STRING" else None
        add = self._builder.add_thimac
        path = self._declare(owner, name, add, name.value, owner, note)
        self._expect("LBRACE", "'{'")
        return path

    def _parse_action(self, owner: Optional[str]) -> None:
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
        add = self._builder.add_action
        self._declare(owner, name, add, kind.value, owner, label, anchor)

    def _parse_storage(self, owner: Optional[str]) -> None:
        keyword = self._advance()
        if owner is None:
            self._error(keyword, "a thimac to hold this storage")
        name = self._declared_name("storage name")
        self._declare(owner, name, self._builder.add_storage, owner, name.value)

    def _parse_edge(self, owner: Optional[str]) -> _Edge:
        src = self._advance()
        arrow = self._peek()
        if arrow.type not in ("ARROW", "TRIG"):
            self._error(arrow, "'->' or '~>'")
        self._advance()
        dst = self._expect("NAME", "a node name")
        condition = None
        if arrow.type == "TRIG" and self._at_keyword("if"):
            self._advance()
            condition = self._expect("STRING", "a condition string").value
        return owner, src, dst, arrow.type == "TRIG", condition

    def _parse_events_block(self, model: StaticModel) -> dict[str, Event]:
        """Each event is defined as it is read, against the built model."""
        self._advance()
        self._expect("LBRACE", "'{'")
        actions = model.actions_by_id
        events: dict[str, Event] = {}
        while self._peek().type not in ("RBRACE", "EOF"):
            self._expect_keyword("event")
            event_id = self._declared_name("event id")
            if event_id.value in events:
                raise ParseError(
                    event_id.span,
                    "a fresh event id",
                    f"{event_id.value!r} (already declared)",
                )
            label = self._expect("STRING", "an event label").value
            self._expect("LBRACE", "'{'")
            region = [self._known(actions, "an action name", "action").value]
            while self._peek().type == "COMMA":
                self._advance()
                region.append(self._known(actions, "an action name", "action").value)
            self._expect("RBRACE", "'}'")
            events[event_id.value] = define_event(model, event_id.value, label, region)
        self._expect("RBRACE", "'}'")
        return events

    def _parse_chronology_block(self, events: dict[str, Event]) -> ChronologyGraph:
        """Edges are checked as they are read; the graph is built at the
        block's ``}``."""
        self._advance()
        self._expect("LBRACE", "'{'")
        edges: dict[tuple[str, str], ChronEdge] = {}
        bounds = {}
        while self._peek().type not in ("RBRACE", "EOF"):
            src = self._known(events, "an event id", "event")
            self._expect("ARROW", "'->'")
            dst = self._known(events, "an event id", "event")
            pair = (src.value, dst.value)
            if pair in edges:
                self._error(dst, f"a single edge {src.value} -> {dst.value}")
            guard = None
            if self._at_keyword("if"):
                self._advance()
                guard = self._expect("STRING", "a guard string").value
            if self._at_keyword("max"):
                self._advance()
                token = self._expect("INT", "an iteration bound")
                try:
                    bounds[pair] = int(token.value)
                except ValueError:  # more digits than Python will convert
                    digits = f"{len(token.value)} digits"
                    raise ParseError(token.span, "a shorter bound", digits) from None
                if bounds[pair] < 1:
                    self._error(token, "a bound of at least 1")
            edges[pair] = ChronEdge(src.value, dst.value, guard)
        self._expect("RBRACE", "'}'")
        return build_chronology(events.values(), edges.values(), bounds)

    def _known(self, names: Container[str], what: str, kind: str) -> _Token:
        """A NAME token (else an error expecting ``what``) among ``names``
        (else an error expecting a declared ``kind``)."""
        token = self._expect("NAME", what)
        if token.value not in names:
            self._error(token, f"a declared {kind}")
        return token


def parse(text: str) -> Document:
    """Parse model text into a :class:`Document`, in one pass.

    Raises :class:`ParseError` for syntax and name errors (with a source
    span), and lets semantic errors from the dynamic layer -- disconnected
    regions, unbounded cycles -- propagate as :class:`DynamicsError`.  Ids
    are declared straight into a :class:`ModelBuilder`, whose check is the
    only one for duplicates.  Of several faults, the first in reading order
    is reported.
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


_WORD_RE = re.compile(_WORD)
_NAME_RE = re.compile(_NAME)
_ANCHOR_RE = re.compile(f"{_NAME}|{_INT}")


def _bare(word: str, what: str) -> str:
    """``word`` written bare as a ``what``.  An anchor is a name or an int;
    a reference is a name and no keyword; any other bare word declares
    something, so, as the parser asks, it is an unqualified name and no
    keyword."""
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
