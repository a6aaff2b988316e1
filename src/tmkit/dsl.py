"""Text format for models: the lexer and the parser.

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

The lexer takes the tokens' text from one ``findall`` of the token
pattern, whitespace and comments folded into each match, and reads each
token's kind off its first character; only strings are checked and
unescaped.  It keeps no offsets: an error finds its token again with a
``finditer`` of the same pattern, and counts the line breaks before it
for its line and column.  The parser reads the tokens once, by index,
and checks each block as it closes.  References inside the model block
may point forward: its edges resolve at its ``}``.  So of several
faults, the first in reading order is the one reported.

The canonical writer, ``format_document``, is in ``writer``, so a command
that only reads a model never loads it.  The lexical rules the two share --
the NAME and INT patterns, the keywords, name resolution -- and the
writer's :class:`FormatError` are in ``dynamics``, so the writer loads
none of this module.
"""
from __future__ import annotations

import re
from collections import namedtuple
from itertools import islice
from typing import Container, NoReturn, Optional

from .dynamics import (
    _ESCAPE_RE,
    _INT,
    _NAME,
    _OPEN_STRING,
    _STRING_RE,
    KEYWORDS,
    ChronologyGraph,
    Document,
    Event,
    _resolve,
    build_chronology,
    define_event,
    escape,
)
from .errors import TmkitError
from .model import (
    ACTION_KINDS,
    MAX_DEPTH,
    ModelBuilder,
    ModelError,
    NestingError,
    StaticModel,
)

class SourceSpan(namedtuple("SourceSpan", "line col length")):
    """``line`` and ``col`` count from 1."""

    __slots__ = ()


class ParseError(TmkitError):
    def __init__(self, span: SourceSpan, expected: str, found: str):
        self.span = span
        self.expected = expected
        self.found = found
        super().__init__(
            f"line {span.line}, col {span.col}: expected {expected}, "
            f"found {found}"
        )


# ---------------------------------------------------------------------------
# lexer

# One match per token: a prefix of spaces, tabs, \r, \n and comments (not
# \s, which also takes \x0b, \f, NBSP), then the token, the one group.  A
# STRING reads by the string rule ``dynamics`` states, which scenario files
# share, its close optional.  The empty token is EOF; a STRAY is any other
# character, so ``findall`` skips nothing.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
    f'({_NAME}|->|~>|[{{}}@,]|{_OPEN_STRING}"?|{_INT}|\\Z|.)'
)

# A token's kind by its first character, as the alternatives above begin.
# A character missing here starts a STRAY, and so does a lone '-' or '~'.
_KINDS = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "NAME"),
    **dict.fromkeys("0123456789", "INT"),
    '"': "STRING", "-": "ARROW", "~": "TRIG", "@": "AT", ",": "COMMA",
    "{": "LBRACE", "}": "RBRACE",
}


# ---------------------------------------------------------------------------
# parser


class _Parser:
    """Token ``i`` is ``kinds[i]`` (NAME INT STRING ARROW TRIG LBRACE RBRACE
    AT COMMA, and EOF last) and ``values[i]``.  Where it stands in the text
    is worked out only for an error (``_span``).  A reader takes the index
    of its first token and returns the one after."""

    def __init__(self, text: str):
        self._text = text
        self._kinds, self._values = self._lex(text)

    def _lex(self, text: str) -> tuple[list[str], list[str]]:
        """The token lists, from one ``_TOKEN_RE.findall``.  The first
        stray character or unclosed string is an error."""
        values = _TOKEN_RE.findall(text)
        # The first empty token is EOF; an empty match may follow it.
        del values[values.index("", -2):]
        kind = _KINDS.get
        kinds = [kind(value[0]) for value in values]
        stray = len(values)
        if None in kinds or "-" in values or "~" in values:
            stray = next(
                i for i, value in enumerate(values)
                if kinds[i] is None or value == "-" or value == "~"
            )
        i = -1
        for _ in range(kinds.count("STRING")):
            i = kinds.index("STRING", i + 1)
            if i > stray:
                break
            token = values[i]
            if "\\" in token:  # \\ and \" are escapes, the close may be one
                closed = _STRING_RE.match(token)["CLOSE"] is not None
                values[i] = _ESCAPE_RE.sub(r"\1", token[1:-1])
            else:
                closed = token.endswith('"', 1)
                values[i] = token[1:-1]
            if not closed:
                at_end = self._match(i).end(1) == len(text)
                found = "end of file" if at_end else "end of line"
                raise ParseError(self._span(i), "closing '\"'", found)
        if stray < len(values):
            raise ParseError(self._span(stray), "a token", repr(values[stray]))
        kinds.append("EOF")
        values.append("")
        return kinds, values

    def _match(self, i: int) -> re.Match:
        """Token ``i``'s match, found again from the start of the text;
        only an error asks for one."""
        return next(islice(_TOKEN_RE.finditer(self._text), i, None))

    def _span_at(self, offset: int, length: int) -> SourceSpan:
        line = self._text.count("\n", 0, offset)  # line breaks before offset
        line_start = self._text.rfind("\n", 0, offset) + 1
        return SourceSpan(line + 1, offset - line_start + 1, length)

    def _span(self, i: int) -> SourceSpan:
        match = self._match(i)
        start, end = match.span(1)
        if start == end:  # EOF
            # A comment moves no column: EOF right after one sits at its '#'.
            text = self._text
            comment = text.find("#", max(match.start(), text.rfind("\n") + 1))
            return self._span_at(start if comment < 0 else comment, 1)
        return self._span_at(start, end - start)

    def _describe(self, i: int) -> str:
        kind, value = self._kinds[i], self._values[i]
        if kind == "STRING":  # as the source spells it
            return f'string "{escape(value)}"'
        return "end of file" if kind == "EOF" else repr(value)

    # -- token plumbing ------------------------------------------------------

    def _error(self, i: int, expected: str) -> NoReturn:
        raise ParseError(self._span(i), expected, self._describe(i))

    def _expect(self, i: int, kind: str, expected: str) -> int:
        if self._kinds[i] != kind:
            self._error(i, expected)
        return i + 1

    def _at_keyword(self, i: int, word: str) -> bool:
        return self._kinds[i] == "NAME" and self._values[i] == word

    def _declared_name(self, i: int, what: str) -> str:
        """Token ``i``'s value, which must be an unqualified name and no
        keyword."""
        value = self._values[i]
        if self._kinds[i] != "NAME":
            self._error(i, what)
        if value in KEYWORDS:
            raise ParseError(self._span(i), what, f"keyword {value!r}")
        if "/" in value:
            raise ParseError(self._span(i), f"an unqualified {what}", self._describe(i))
        return value

    def _known(self, i: int, names: Container[str], what: str, kind: str) -> int:
        """Token ``i`` must be a NAME (else an error expecting ``what``)
        among ``names`` (else an error expecting a declared ``kind``)."""
        if self._kinds[i] != "NAME":
            self._error(i, what)
        if self._values[i] not in names:
            self._error(i, f"a declared {kind}")
        return i + 1

    # -- grammar -------------------------------------------------------------

    def parse_document(self) -> Document:
        if not self._at_keyword(0, "model"):
            self._error(0, "'model'")
        self._declared_name(1, "model name")
        self._expect(2, "LBRACE", "'{'")
        self._builder = ModelBuilder(self._values[1])
        model, i = self._parse_model(3)
        events: dict[str, Event] = {}
        if self._at_keyword(i, "events"):
            events, i = self._parse_events_block(i + 1, model)
        chronology = None
        if self._at_keyword(i, "chronology"):
            chronology, i = self._parse_chronology_block(i + 1, events)
        self._expect(i, "EOF", "end of file")
        return Document(model, tuple(events.values()), chronology)

    def _parse_model(self, i: int) -> tuple[StaticModel, int]:
        """The model block's body and its ``}``, where the edges resolve,
        so they may name nodes declared after them.  Open thimacs are kept
        on an explicit stack of ids, so nesting depth is not bounded by
        Python's recursion limit.  Declarations go straight into the
        builder, whose duplicate-id and nesting-depth checks are the only
        ones; the resolved edges go in at the ``}``, as one batch of flows
        and one of triggers."""
        kinds, values = self._kinds, self._values
        stack: list[Optional[str]] = [None]
        # Each edge as read: its first token, its thimac and its condition.
        edges: list[tuple[int, Optional[str], Optional[str]]] = []
        try:
            while True:
                kind, value = kinds[i], values[i]
                if kind == "RBRACE" or kind == "EOF":
                    i = self._expect(i, "RBRACE", "'}'")
                    if len(stack) == 1:
                        break
                    stack.pop()
                elif kind != "NAME":
                    self._error(i, "a declaration or '}'")
                elif value not in KEYWORDS:  # src -> dst | src ~> dst [if "condition"]
                    arrow = kinds[i + 1]
                    if arrow != "ARROW" and arrow != "TRIG":
                        self._error(i + 1, "'->' or '~>'")
                    if kinds[i + 2] != "NAME":
                        self._error(i + 2, "a node name")
                    start, i, condition = i, i + 3, None
                    if arrow == "TRIG" and self._at_keyword(i, "if"):
                        i = self._expect(i + 1, "STRING", "a condition string")
                        condition = values[i - 1]
                    edges.append((start, stack[-1], condition))
                elif value in ACTION_KINDS:
                    i = self._parse_action(i, stack[-1])
                elif value == "thimac":
                    i = self._open_thimac(i, stack)
                elif value == "storage":
                    i = self._parse_storage(i, stack[-1])
                else:
                    self._error(i, "a declaration or '}'")
        except ModelError as exc:  # the builder refused the declaration at i
            raise self._refused(i + 1, stack[-1], exc) from None
        builder = self._builder
        nodes = builder.node_ids
        flows: list[tuple[str, str]] = []
        triggers: list[tuple[str, str, Optional[str]]] = []
        for src, owner, condition in edges:
            src_id = _resolve(values[src], owner, nodes)
            if src_id is None:
                self._error(src, "a declared action or storage")
            dst = src + 2
            dst_id = _resolve(values[dst], owner, nodes)
            if dst_id is None:
                self._error(dst, "a declared action or storage")
            if src_id == dst_id:
                self._error(dst, "a node other than the source")
            if kinds[src + 1] == "TRIG":
                triggers.append((src_id, dst_id, condition))
            else:
                flows.append((src_id, dst_id))
        # Checked above, so the builder refuses neither batch.  Flows and
        # triggers draw auto ids from prefixes of their own, so adding one
        # kind before the other numbers each as reading order does.
        builder.add_flows(flows)
        builder.add_triggers(triggers)
        return builder.build(), i

    def _refused(self, name: int, owner: Optional[str], exc: ModelError) -> ParseError:
        """The error for a declaration named by token ``name`` in thimac
        ``owner`` that the builder refused: too deep, or its id is taken."""
        value = self._values[name]
        if isinstance(exc, NestingError):
            return ParseError(
                self._span(name),
                f"at most {MAX_DEPTH} nested thimacs",
                f"thimac {value} at depth {exc.depth}",
            )
        path = value if owner is None else f"{owner}/{value}"
        found = f"{path!r} (already declared)"
        return ParseError(self._span(name), "a fresh name", found)

    def _open_thimac(self, i: int, stack: list[Optional[str]]) -> int:
        """Read ``thimac NAME ["note"] {`` and push the thimac's id."""
        name = self._declared_name(i + 1, "thimac name")
        i, note = i + 2, None
        if self._kinds[i] == "STRING":
            note, i = self._values[i], i + 1
        owner = stack[-1]
        path = name if owner is None else f"{owner}/{name}"
        stack.append(self._builder.add_thimac(name, owner, note, path))
        return self._expect(i, "LBRACE", "'{'")

    def _parse_action(self, i: int, owner: Optional[str]) -> int:
        if owner is None:
            self._error(i, "a thimac to hold this action")
        kinds, values = self._kinds, self._values
        kind = values[i]
        path = f"{owner}/{self._declared_name(i + 1, 'action name')}"
        i, label, anchor = i + 2, None, None
        if kinds[i] == "STRING":
            label, i = values[i], i + 1
        if kinds[i] == "AT":
            if kinds[i + 1] not in ("NAME", "INT"):
                self._error(i + 1, "an anchor")
            anchor, i = values[i + 1], i + 2
        self._builder.add_action(kind, owner, label, anchor, path)
        return i

    def _parse_storage(self, i: int, owner: Optional[str]) -> int:
        if owner is None:
            self._error(i, "a thimac to hold this storage")
        name = self._declared_name(i + 1, "storage name")
        self._builder.add_storage(owner, name, f"{owner}/{name}")
        return i + 2

    def _parse_events_block(
        self, i: int, model: StaticModel
    ) -> tuple[dict[str, Event], int]:
        """Each event is defined as it is read, against the built model."""
        kinds, values = self._kinds, self._values
        i = self._expect(i, "LBRACE", "'{'")
        actions = model.actions_by_id
        events: dict[str, Event] = {}
        while kinds[i] != "RBRACE" and kinds[i] != "EOF":
            if not self._at_keyword(i, "event"):
                self._error(i, "'event'")
            name = i + 1
            event_id = self._declared_name(name, "event id")
            if event_id in events:
                found = f"{event_id!r} (already declared)"
                raise ParseError(self._span(name), "a fresh event id", found)
            i = name + 1
            label, i = values[i], self._expect(i, "STRING", "an event label")
            i = self._expect(i, "LBRACE", "'{'")
            region = [values[i]]
            i = self._known(i, actions, "an action name", "action")
            while kinds[i] == "COMMA":
                region.append(values[i + 1])
                i = self._known(i + 1, actions, "an action name", "action")
            i = self._expect(i, "RBRACE", "'}'")
            events[event_id] = define_event(model, event_id, label, region)
        return events, self._expect(i, "RBRACE", "'}'")

    def _parse_chronology_block(
        self, i: int, events: dict[str, Event]
    ) -> tuple[ChronologyGraph, int]:
        """Edges are checked as they are read; the graph is built at the
        block's ``}``."""
        kinds, values = self._kinds, self._values
        i = self._expect(i, "LBRACE", "'{'")
        edges: dict[tuple[str, str], tuple[str, str, Optional[str]]] = {}
        bounds = {}
        while kinds[i] != "RBRACE" and kinds[i] != "EOF":
            src, arrow = i, self._known(i, events, "an event id", "event")
            dst = self._expect(arrow, "ARROW", "'->'")
            i = self._known(dst, events, "an event id", "event")
            pair = (values[src], values[dst])
            if pair in edges:
                self._error(dst, f"a single edge {pair[0]} -> {pair[1]}")
            guard = None
            if self._at_keyword(i, "if"):
                i = self._expect(i + 1, "STRING", "a guard string")
                guard = values[i - 1]
            if self._at_keyword(i, "max"):
                bound = i + 1
                i = self._expect(bound, "INT", "an iteration bound")
                try:
                    bounds[pair] = int(values[bound])
                except ValueError:  # more digits than Python will convert
                    digits = f"{len(values[bound])} digits"
                    span = self._span(bound)
                    raise ParseError(span, "a shorter bound", digits) from None
                if bounds[pair] < 1:
                    self._error(bound, "a bound of at least 1")
            edges[pair] = (*pair, guard)
        i = self._expect(i, "RBRACE", "'}'")
        return build_chronology(events.values(), edges.values(), bounds), i


def parse(text: str) -> Document:
    """Parse model text into a :class:`Document`, in one pass.

    Raises :class:`ParseError` for syntax and name errors (with a source
    span), and lets semantic errors from the dynamic layer -- disconnected
    regions, unbounded cycles -- propagate as :class:`DynamicsError`.  Ids
    are declared straight into a :class:`ModelBuilder`, whose check is the
    only one for duplicates.  Of several faults, the first in reading order
    is reported.
    """
    return _Parser(text).parse_document()

