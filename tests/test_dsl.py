"""Parser and canonical formatter: syntax, scoping, spans, round trips."""
import json
import re
from random import Random
from typing import Container, NamedTuple, NoReturn, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmkit import (
    Action,
    ChronEdge,
    Document,
    FormatError,
    ModelBuilder,
    ParseError,
    StaticModel,
    Storage,
    Thimac,
    TmkitError,
    build_chronology,
    define_event,
    dsl,
    format_document,
    from_json,
    parse,
    to_dot,
    to_json,
)
from tmkit.dsl import (
    ACTION_KINDS,
    KEYWORDS,
    SourceSpan,
    _INT,
    _KINDS,
    _NAME,
    _TOKEN_RE,
    _Parser,
    _resolve,
    escape,
)
from tmkit.dynamics import (
    DisconnectedRegionError,
    DynamicsError,
    NoInitialEventError,
    UnboundedCycleError,
    _ESCAPE_RE,
    _STRING,
    structurally_equal_documents,
)
from tmkit.writer import _bare

from conftest import read_fixture
from generators import random_document

seeds = st.integers(min_value=0, max_value=10_000)


def test_minimal_model():
    doc = parse("model tiny {\n}\n")
    assert doc.model.name == "tiny"
    assert doc.model.thimacs == ()
    assert doc.events == ()
    assert doc.chronology is None


def test_full_surface():
    doc = parse(
        """
        # a little of everything
        model demo {
          thimac box "holds things" {
            create make "the thing" @1
            process use @step2
            storage shelf
            make -> use
            make -> shelf
            use ~> make if "again"
            thimac inner {
              receive take
            }
          }
        }

        events {
          event E1 "made" { box/make }
          event E2 "used" { box/use, box/make }
        }

        chronology {
          E1 -> E2 if "ready" max 2
        }
        """
    )
    model = doc.model
    assert [t.id for t in model.thimacs] == ["box", "box/inner"]
    assert model.actions_by_id["box/make"].label == "the thing"
    assert model.actions_by_id["box/make"].anchor == "1"
    assert model.actions_by_id["box/use"].anchor == "step2"
    assert model.thimacs_by_id["box"].note == "holds things"
    assert [(f.src, f.dst) for f in model.flows] == [
        ("box/make", "box/use"),
        ("box/make", "box/shelf"),
    ]
    assert [(t.src, t.dst, t.condition) for t in model.triggers] == [
        ("box/use", "box/make", "again")
    ]
    assert doc.events[1].region == frozenset({"box/use", "box/make"})
    assert doc.chronology.edges[0].guard == "ready"
    assert doc.chronology.loop_bounds == {("E1", "E2"): 2}


def test_statements_need_no_separators():
    doc = parse("model m { thimac t { create a process b a -> b } }")
    assert [(f.src, f.dst) for f in doc.model.flows] == [("t/a", "t/b")]


def test_forward_references_resolve():
    doc = parse(
        """
        model m {
          thimac t {
            a -> b
            create a
            process b
          }
        }
        """
    )
    assert [(f.src, f.dst) for f in doc.model.flows] == [("t/a", "t/b")]


def test_resolution_prefers_innermost_scope():
    doc = parse(
        """
        model m {
          thimac outer {
            process x
            thimac inner {
              create x
              process y
              x -> y
            }
          }
        }
        """
    )
    # the inner x shadows outer/x
    assert [(f.src, f.dst) for f in doc.model.flows] == [
        ("outer/inner/x", "outer/inner/y")
    ]


def test_qualified_and_outer_references():
    doc = parse(
        """
        model m {
          thimac a {
            transfer send
          }
          thimac b {
            transfer get
            receive keep
            get -> keep
          }
          a/send -> b/get
        }
        """
    )
    assert ("a/send", "b/get") in [(f.src, f.dst) for f in doc.model.flows]


def test_string_escapes():
    doc = parse('model m { thimac t { create a "say \\"hi\\" \\\\ bye" } }')
    assert doc.model.actions_by_id["t/a"].label == 'say "hi" \\ bye'


def test_comment_markers_inside_strings_are_text():
    doc = parse('model m { thimac t { create a "not # a comment" } }')
    assert doc.model.actions_by_id["t/a"].label == "not # a comment"


# ---------------------------------------------------------------------------
# parse errors


def error_for(text: str) -> ParseError:
    with pytest.raises(ParseError) as exc:
        parse(text)
    return exc.value


def test_error_reports_position():
    err = error_for("model m {\n  @\n}\n")
    assert err.span.line == 2
    assert err.span.col == 3
    assert "a declaration or '}'" in str(err)


def test_bare_name_without_arrow():
    err = error_for("model m {\n  banana\n}\n")
    assert "'->' or '~>'" in str(err)
    assert err.span.line == 3  # the error sits on the token after the name


def test_keyword_cannot_name_a_node():
    err = error_for("model m { thimac t { create process } }")
    assert "keyword 'process'" in str(err)


def test_declarations_must_be_unqualified():
    err = error_for("model m { thimac t { create a/b } }")
    assert "unqualified" in str(err)


def test_duplicate_names_rejected():
    err = error_for("model m { thimac t { create a process a } }")
    assert "already declared" in str(err)


def test_action_outside_thimac():
    err = error_for("model m { create a }")
    assert "a thimac to hold this action" in str(err)


def test_storage_outside_thimac():
    err = error_for("model m {\n  storage s\n}\n")
    assert str(err) == (
        "line 2, col 3: expected a thimac to hold this storage, found 'storage'"
    )


def test_duplicate_event_ids_rejected_at_the_second():
    err = error_for(
        "model m {\n  thimac t { create a }\n}\n"
        'events {\n  event E1 "x" { t/a }\n  event E1 "y" { t/a }\n}\n'
    )
    assert str(err) == (
        "line 6, col 9: expected a fresh event id, found 'E1' (already declared)"
    )


def test_unterminated_string():
    err = error_for('model m { thimac t { create a "oops } }')
    assert "closing" in str(err)


@pytest.mark.parametrize(
    "text, found",
    [('model "a\\\\" {}', 'string "a\\\\"'), ('model "x\\"y" {}', 'string "x\\"y"')],
)
def test_an_error_quotes_a_string_as_the_source_spells_it(text, found):
    assert str(error_for(text)) == f"line 1, col 7: expected model name, found {found}"


def test_unknown_reference():
    err = error_for("model m { thimac t { create a a -> ghost } }")
    assert "a declared action or storage" in str(err)


def test_self_loop_reference():
    err = error_for("model m { thimac t { create a a -> a } }")
    assert "a node other than the source" in str(err)


def test_event_regions_resolve_at_the_root():
    err = error_for(
        "model m { thimac t { create a } }\n"
        'events { event E1 "x" { a } }\n'  # must be written t/a
    )
    assert "a declared action" in str(err)


def test_event_region_must_name_actions():
    err = error_for(
        "model m { thimac t { create a storage s } }\n"
        'events { event E1 "x" { t/s } }\n'
    )
    assert "a declared action" in str(err)


def test_chronology_needs_declared_events():
    err = error_for(
        "model m { thimac t { create a } }\n"
        'events { event E1 "x" { t/a } }\n'
        "chronology { E1 -> E9 }\n"
    )
    assert "a declared event" in str(err)


def test_chronology_rejects_duplicate_edges():
    err = error_for(
        "model m { thimac t { create a } }\n"
        'events { event E1 "x" { t/a } event E2 "y" { t/a } }\n'
        "chronology { E1 -> E2 E1 -> E2 }\n"
    )
    assert "a single edge" in str(err)


def test_chronology_bound_must_be_positive():
    err = error_for(
        "model m { thimac t { create a } }\n"
        'events { event E1 "x" { t/a } event E2 "y" { t/a } }\n'
        "chronology { E1 -> E2 max 0 }\n"
    )
    assert "at least 1" in str(err)


def test_disconnected_region_propagates():
    with pytest.raises(DisconnectedRegionError):
        parse(
            "model m { thimac t { create a process b } }\n"
            'events { event E1 "x" { t/a, t/b } }\n'
        )


def test_unbounded_cycle_propagates():
    with pytest.raises(UnboundedCycleError):
        parse(
            "model m { thimac t { create a } }\n"
            'events { event E1 "x" { t/a } event E2 "y" { t/a } }\n'
            "chronology { E1 -> E2 E2 -> E1 }\n"
        )


def test_cycle_of_bounded_edges_has_no_initial_event():
    with pytest.raises(NoInitialEventError):
        parse(
            "model m { thimac t { create a } }\n"
            'events { event E1 "x" { t/a } event E2 "y" { t/a } }\n'
            "chronology { E1 -> E2 max 2 E2 -> E1 max 2 }\n"
        )


@given(st.text(max_size=80))
@settings(max_examples=150, deadline=None)
def test_parse_error_spans_stay_inside_the_input(text):
    try:
        parse(text)
    except ParseError as err:
        lines = text.split("\n") or [""]
        assert 1 <= err.span.line <= len(lines)
        line = lines[err.span.line - 1]
        assert 1 <= err.span.col <= len(line) + 1
    except Exception:
        pass  # semantic errors from the dynamic layer are not at issue here


# ---------------------------------------------------------------------------
# the lexer against the master regex and the character loop it replaced


class _Token(NamedTuple):
    type: str  # NAME INT STRING ARROW TRIG LBRACE RBRACE AT COMMA EOF
    value: str
    line: int
    col: int
    length: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col, self.length)


def describe(token: _Token) -> str:
    """What an error says it found: a string as the source spells it."""
    if token.type == "EOF":
        return "end of file"
    if token.type == "STRING":
        return f'string "{escape(token.value)}"'
    return repr(token.value)


def tokenize_by_offsets(text: str) -> list[tuple]:
    """``dsl``'s lexer, each token with the span an error at it would give."""
    parser = _Parser(text)
    tokens = []
    for i, (kind, value) in enumerate(zip(parser._kinds, parser._values)):
        span = parser._span(i)
        tokens.append((kind, value, span.line, span.col, span.length))
    return tokens


# One match per token, whitespace and each line break included.
TOKEN_RE_BY_REGEX = re.compile(
    r"(?P<NEWLINE>\n)"
    r"|(?P<SKIP>[ \t\r]+|#[^\n]*)"
    r"|(?P<ARROW>->)|(?P<TRIG>~>)|(?P<LBRACE>\{)|(?P<RBRACE>\})"
    r"|(?P<AT>@)|(?P<COMMA>,)"
    f"|(?P<STRING>{_STRING})"
    f"|(?P<NAME>{_NAME})|(?P<INT>{_INT})"
    r"|(?P<STRAY>.)"
)


def tokenize_by_regex(text: str) -> list[_Token]:
    """The lexer as it was before it folded whitespace into each token's
    match: a token object with a line and column for every token.  Kept as
    the reference for ``dsl``'s lexer, token for token."""
    tokens: list[_Token] = []
    line, line_start = 1, 0
    match = None
    for match in TOKEN_RE_BY_REGEX.finditer(text):
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


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:/[A-Za-z_][A-Za-z0-9_]*)*")
_INT_RE = re.compile(r"[0-9]+")


def tokenize_by_chars(text: str) -> list[_Token]:
    """The lexer as first written, one character at a time.  Kept as the
    reference for the master-regex lexers."""
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def emit(type_: str, value: str, length: int) -> None:
        tokens.append(_Token(type_, value, line, col, length))

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            emit("ARROW", "->", 2)
            i += 2
            col += 2
            continue
        if text.startswith("~>", i):
            emit("TRIG", "~>", 2)
            i += 2
            col += 2
            continue
        if ch in "{}@,":
            kind = {"{": "LBRACE", "}": "RBRACE", "@": "AT", ",": "COMMA"}[ch]
            emit(kind, ch, 1)
            i += 1
            col += 1
            continue
        if ch == '"':
            j = i + 1
            buf: list[str] = []
            while j < n and text[j] not in ('"', "\n"):
                if text[j] == "\\" and j + 1 < n and text[j + 1] in ('\\', '"'):
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n or text[j] == "\n":
                raise ParseError(
                    SourceSpan(line, col, j - i),
                    "closing '\"'",
                    "end of line" if j < n else "end of file",
                )
            emit("STRING", "".join(buf), j - i + 1)
            col += j - i + 1
            i = j + 1
            continue
        match = _NAME_RE.match(text, i)
        if match:
            emit("NAME", match.group(), len(match.group()))
            col += len(match.group())
            i = match.end()
            continue
        match = _INT_RE.match(text, i)
        if match:
            emit("INT", match.group(), len(match.group()))
            col += len(match.group())
            i = match.end()
            continue
        raise ParseError(SourceSpan(line, col, 1), "a token", repr(ch))
    tokens.append(_Token("EOF", "", line, col, 1))
    return tokens


# One match per token after a prefix of blanks and comments, one named
# group per token kind, tried in order.
TOKEN_RE_BY_GROUPS = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*)*"
    f"(?:(?P<NAME>{_NAME})|(?P<ARROW>->)|(?P<TRIG>~>)"
    r"|(?P<LBRACE>\{)|(?P<RBRACE>\})|(?P<AT>@)|(?P<COMMA>,)"
    f"|(?P<STRING>{_STRING})|(?P<INT>{_INT})"
    r"|(?P<EOF>\Z)|(?P<STRAY>.))"
)


def lex_by_groups(text: str) -> tuple[list[str], list[str], list[int]]:
    """The lexer as it was before it took the tokens from one ``findall``:
    a match per token, its kind the match's named group, every string
    unescaped and every offset kept.  Returns the kinds, the values and
    the offsets, EOF last."""
    kinds, values, starts = [], [], []
    for match in TOKEN_RE_BY_GROUPS.finditer(text):
        kind = match.lastgroup
        start, value = match.start(kind), match[kind]
        if kind == "STRING":
            if match["CLOSE"] is None:
                found = "end of file" if match.end() == len(text) else "end of line"
                span = span_at(text, start, len(value))
                raise ParseError(span, "closing '\"'", found)
            value = _ESCAPE_RE.sub(r"\1", value[1:-1])
        elif kind == "STRAY":
            raise ParseError(span_at(text, start, 1), "a token", repr(value))
        elif kind == "EOF":
            # A comment moves no column: EOF right after one sits at its '#'.
            comment = text.find("#", max(match.start(), text.rfind("\n") + 1))
            starts.append(start if comment < 0 else comment)
            break
        kinds.append(kind)
        values.append(value)
        starts.append(start)
    kinds.append("EOF")
    values.append("")
    return kinds, values, starts


def span_at(text: str, offset: int, length: int) -> SourceSpan:
    line = text.count("\n", 0, offset)
    return SourceSpan(line + 1, offset - text.rfind("\n", 0, offset), length)


def tokenize_by_groups(text: str) -> list[_Token]:
    """``lex_by_groups``' tokens, each with the span an error at it gave:
    a token's length is that of its match from its offset.  Kept as the
    reference for ``dsl``'s lexer, token for token."""
    tokens = []
    for kind, value, start in zip(*lex_by_groups(text)):
        if kind == "EOF":
            end = start + 1
        else:
            end = TOKEN_RE_BY_GROUPS.match(text, start).end()
        tokens.append(_Token(kind, value, *span_at(text, start, end - start)))
    return tokens


def lexed(tokenize, text):
    """The token tuples, or the error's message and span."""
    try:
        return [tuple(token) for token in tokenize(text)]
    except ParseError as err:
        return str(err), err.span


FIXTURE_TEXTS = [read_fixture(name) for name in ("atm.tm", "ordering.tm")]
# The first character of every token, plus look-alikes the lexer refuses:
# other whitespace (\x0b, \f, NBSP), a non-ASCII letter and digit.
LEXER_ALPHABET = 'ab_/ 1\t\r\n#"\\->~{}@,.\x0b\x0c\xa0\xe9\u0663'


@st.composite
def lexer_inputs(draw):
    """Formatted random documents, the shipped fixtures, fixtures with a
    short splice, and short strings over the lexer's alphabet."""
    kind = draw(st.sampled_from(["document", "fixture", "spliced", "short"]))
    short = st.text(alphabet=LEXER_ALPHABET, max_size=24) | st.text(max_size=6)
    if kind == "document":
        return format_document(random_document(Random(draw(seeds))))
    if kind == "short":
        return draw(short)
    text = draw(st.sampled_from(FIXTURE_TEXTS))
    if kind == "spliced":
        start = draw(st.integers(min_value=0, max_value=len(text)))
        end = start + draw(st.integers(min_value=0, max_value=4))
        text = text[:start] + draw(short) + text[end:]
    return text


@given(lexer_inputs())
@settings(max_examples=500, deadline=None)
def test_the_lexer_matches_the_character_loop(text):
    assert lexed(tokenize_by_offsets, text) == lexed(tokenize_by_chars, text)


@given(lexer_inputs())
@settings(max_examples=500, deadline=None)
def test_the_lexer_matches_the_master_regex_token_for_token(text):
    # kind, value, line, column and length of every token, or the error
    assert lexed(tokenize_by_offsets, text) == lexed(tokenize_by_regex, text)


@given(lexer_inputs())
@settings(max_examples=500, deadline=None)
def test_the_lexer_matches_the_named_group_lexer_token_for_token(text):
    assert lexed(tokenize_by_offsets, text) == lexed(tokenize_by_groups, text)


@pytest.mark.parametrize(
    "text",
    [
        'model m { "a\\" }',  # a final \" is an escape: the string is open
        '"a\\"',
        '"\\\\"',  # \\ then the close
        '"a\\b"',  # a backslash before anything else is text
        "x #-",  # EOF keeps the column of the comment's '#'
        "a\x0bb",  # whitespace is space, tab and \r only
        "m \u0663",  # an int is ASCII digits only
        '"open\nx',
        " #> @/",  # the whole text is one comment, with no line break
        "model m {\n  # c",  # a comment after the last line break
        'm "#" x',  # a '#' in a string is no comment, on the last line too
        'm "#" x # c',
        "a # c\rb\nc",  # \r does not end a comment
        "model m {\r\n.x",  # \r\n line breaks, a stray at a line's start
        "model m {\nthimac t { x",  # no final line break
        'model m "open',  # an unclosed string at the end of the file
        'model m "open\n}',  # and at the end of a line
    ],
)
def test_the_lexer_keeps_the_character_loops_edge_cases(text):
    assert lexed(tokenize_by_offsets, text) == lexed(tokenize_by_chars, text)
    assert lexed(tokenize_by_offsets, text) == lexed(tokenize_by_regex, text)
    assert lexed(tokenize_by_offsets, text) == lexed(tokenize_by_groups, text)


def test_a_span_is_made_only_for_the_error(monkeypatch):
    # the lexer keeps offsets; a line and column are worked out per error
    made = []

    class CountedSpan(SourceSpan):
        def __new__(cls, *args):
            made.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(dsl, "SourceSpan", CountedSpan)
    documents = [format_document(random_document(Random(seed))) for seed in range(200)]
    for text in documents + FIXTURE_TEXTS:
        parse(text)
    assert made == []
    for text in [
        "model m { ? }",  # a stray character
        'model m { thimac t { create a "open } }',
        "model m { thimac t { create a create a } }",
        "model m { thimac t { create a a -> ghost } }",  # resolved at the '}'
        "model m { thimac t {",
        FIXTURE_TEXTS[1] + "chronology { }",
    ]:
        made.clear()
        with pytest.raises(ParseError):
            parse(text)
        assert len(made) == 1, text


# ---------------------------------------------------------------------------
# the one-pass parser against the two-pass parser it replaced


def resolve_in_scope(
    name: str, scope: tuple[str, ...], nodes: Container[str]
) -> Optional[str]:
    """The node ``name`` means inside ``scope``: the innermost enclosing
    thimac's ``scope/name`` that exists, walking outward; None if none does."""
    for i in range(len(scope), -1, -1):
        candidate = "/".join((*scope[:i], name))
        if candidate in nodes:
            return candidate
    return None


class _TwoPassParser:
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
        raise ParseError(token.span, expected, describe(token))

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
            raise ParseError(token.span, f"an unqualified {what}", describe(token))
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
                ref = resolve_in_scope(token.value, (), self._nodes)
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
        src_id = resolve_in_scope(src.value, scope, self._nodes)
        if src_id is None:
            self._error(src, "a declared action or storage")
        dst_id = resolve_in_scope(dst.value, scope, self._nodes)
        if dst_id is None:
            self._error(dst, "a declared action or storage")
        if src_id == dst_id:
            self._error(dst, "a node other than the source")
        return src_id, dst_id


def parse_in_two_passes(text: str) -> Document:
    """The parser as it was before it resolved each block as it closed:
    it kept its own id table and parked events and chronology edges until
    the end of the file.  Kept as the reference for ``parse``."""
    return _TwoPassParser(tokenize_by_regex(text)).parse_document()


# Words an edit may put in: every token kind, each keyword, and names the
# fixtures do not declare.  An edit also reuses the text's own tokens.
EDIT_WORDS = (
    "->", "~>", "{", "}", "@", ",", '"x"', "0", "7", *sorted(KEYWORDS),
    "ghost", "a/ghost", "E1", "E99",
)


def _edit(rng: Random, text: str) -> str:
    """One character splice, or one token deleted, inserted or replaced.
    A word put in is often a name from near the edit, which makes
    self-loops, duplicates and dangling references."""
    spans = [
        (m.start(), m.end(), m.lastgroup)
        for m in TOKEN_RE_BY_REGEX.finditer(text)
        if m.lastgroup not in ("SKIP", "NEWLINE")
    ]
    roll = rng.random()
    if roll < 0.25 or not spans:
        start = rng.randint(0, len(text))
        end = start + rng.randint(0, 4)
        splice = "".join(rng.choice(LEXER_ALPHABET) for _ in range(rng.randint(0, 3)))
        return text[:start] + splice + text[end:]
    i = rng.randrange(len(spans))
    start, end, _ = spans[i]
    names = [
        text[a:b]
        for a, b, kind in rng.choice((spans, spans[max(i - 4, 0) : i + 5]))
        if kind == "NAME"
    ]
    word = rng.choice(names) if names and rng.random() < 0.6 else rng.choice(EDIT_WORDS)
    if roll < 0.45:
        return text[:start] + text[end:]
    if roll < 0.65:
        return f"{text[:start]}{word} {text[start:]}"
    return text[:start] + word + text[end:]


def oracle_input(rng: Random) -> str:
    """A formatted random document or a shipped fixture, as it is or with
    one to three edits."""
    if rng.random() < 0.5:
        text = format_document(random_document(rng))
    else:
        text = rng.choice(FIXTURE_TEXTS)
    if rng.random() < 0.8:
        for _ in range(rng.randint(1, 3)):
            text = _edit(rng, text)
    return text


def _outcome(parse_text, text):
    try:
        return to_json(parse_text(text))
    except TmkitError as err:
        return err


def compare_with_the_oracle(text: str) -> str:
    """Assert that ``parse`` agrees with the two-pass parser on ``text``,
    and say how: "accepted", "same error", "earlier" (a parse error at a
    span not after the oracle's) or "dynamics" (a dynamic-layer error that the oracle
    met only after a parse error further on)."""
    new, old = _outcome(parse, text), _outcome(parse_in_two_passes, text)
    if isinstance(new, str) or isinstance(old, str):
        assert new == old
        return "accepted"
    if (type(new), str(new)) == (type(old), str(old)):
        return "same error"
    assert isinstance(old, ParseError), (new, old)
    if isinstance(new, ParseError):
        assert (new.span.line, new.span.col) <= (old.span.line, old.span.col)
        return "earlier"
    assert isinstance(new, DynamicsError), (new, old)
    return "dynamics"


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=500, deadline=None)
def test_the_one_pass_parser_matches_the_two_pass_parser(seed):
    compare_with_the_oracle(oracle_input(Random(seed)))


@given(
    name=st.text("ab/", min_size=1, max_size=4),
    owner=st.none() | st.text("ab/", max_size=8),
    noise=st.sets(st.text("ab/", max_size=10), max_size=6),
    picks=st.sets(st.integers(min_value=0, max_value=8)),
)
@example(name="a", owner="", noise=set(), picks={0, 1})
@example(name="a", owner="/a", noise=set(), picks={1})
@example(name="b", owner="a//b", noise=set(), picks={2, 3})
@settings(max_examples=500, deadline=None)
def test_resolve_walks_the_owner_id_as_the_scope_tuple_did(name, owner, noise, picks):
    # the formatter passes any thimac id from JSON, "" and "a//b" included
    scope = () if owner is None else tuple(owner.split("/"))
    candidates = ["/".join((*scope[:i], name)) for i in range(len(scope), -1, -1)]
    nodes = noise | {c for i, c in enumerate(candidates) if i in picks}
    assert _resolve(name, owner, nodes) == resolve_in_scope(name, scope, nodes)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "model m { thimac t { create a a -> ghost } }\n"
            'events { event E1 "x" { t/a } oops }\n',
            "line 1, col 36: expected a declared action or storage, found 'ghost'",
        ),
        (
            "model m { thimac t { create a } }\n"
            'events { event E1 "x" { t/ghost } }\n'
            "chronology { E1 -> }\n",
            "line 2, col 25: expected a declared action, found 't/ghost'",
        ),
    ],
    ids=["flow-before-events", "region-before-chronology"],
)
def test_the_first_fault_in_reading_order_is_reported(text, message):
    assert str(error_for(text)) == message


# ---------------------------------------------------------------------------
# formatter


def test_format_empty_model():
    assert format_document(parse("model e {}")) == "model e {\n}\n"


def test_canonical_shape():
    text = format_document(
        parse(
            "model m { thimac t { a -> b create a \n"
            ' process b storage s b ~> a if "re-do" } }'
        )
    )
    assert text == (
        "model m {\n"
        "  thimac t {\n"
        "    create a\n"
        "    process b\n"
        "    storage s\n"
        "    a -> b\n"
        '    b ~> a if "re-do"\n'
        "  }\n"
        "}\n"
    )


def test_cross_thimac_references_print_absolute():
    text = format_document(
        parse(
            "model m { thimac a { transfer out } "
            "thimac b { transfer in receive got in -> got } "
            "a/out -> b/in }"
        )
    )
    assert "    out -> b/in\n" in text


def test_format_escapes_strings():
    doc = parse('model m { thimac t { create a "q\\"q" } }')
    text = format_document(doc)
    assert '"q\\"q"' in text
    assert structurally_equal_documents(doc, parse(text))


@pytest.mark.parametrize(
    "section, key",
    [
        ("thimacs", "note"),
        ("actions", "label"),
        ("triggers", "condition"),
        ("events", "label"),
        ("chronology", "guard"),
    ],
)
def test_format_refuses_a_line_break_in_a_string(ordering_doc, section, key):
    # JSON can carry one, but the lexer ends every string at a line break
    data = json.loads(to_json(ordering_doc))
    entries = data["chronology"]["edges"] if section == "chronology" else data[section]
    entries[0][key] = "two\nlines"
    with pytest.raises(FormatError, match="holds a line break"):
        format_document(from_json(json.dumps(data)))


def test_format_refuses_an_edge_with_an_unresolved_endpoint(ordering_doc):
    # from_json loads a dangling flow; validate reports it as R6
    data = json.loads(to_json(ordering_doc))
    data["flows"].append({"id": "f9", "from": "client/make_order", "to": "ghost/x"})
    with pytest.raises(FormatError) as exc:
        format_document(from_json(json.dumps(data)))
    assert str(exc.value) == "edge 'f9' has an unresolved endpoint and cannot be written"


def one_action_document(
    name="m", thimac="t", action="a", anchor=None, storage="s", event="E1"
):
    builder = ModelBuilder(name)
    builder.add_thimac(thimac, id=thimac)
    builder.add_action("create", thimac, anchor=anchor, id=f"{thimac}/{action}")
    builder.add_storage(thimac, storage, id=f"{thimac}/{storage}")
    model = builder.build()
    return Document(model, (define_event(model, event, "x", [f"{thimac}/{action}"]),))


@pytest.mark.parametrize(
    "changes, complaint",
    [
        ({"name": "my model"}, "'my model' as a bare model name"),
        ({"name": "thimac"}, "'thimac' as a bare model name"),
        ({"thimac": "t x"}, "'t x' as a bare thimac name"),
        ({"thimac": "event"}, "'event' as a bare thimac name"),
        ({"action": "max"}, "'max' as a bare action name"),
        ({"storage": "s s"}, "'s s' as a bare storage name"),
        ({"anchor": "a b"}, "'a b' as a bare anchor"),
        ({"anchor": "-1"}, "'-1' as a bare anchor"),
        ({"event": "E 1"}, "'E 1' as a bare event id"),
        ({"event": "if"}, "'if' as a bare event id"),
        ({"action": "/a"}, "'t//a' as a bare reference"),
    ],
)
def test_format_refuses_bare_words_that_parse_refuses(changes, complaint):
    with pytest.raises(FormatError, match=complaint):
        format_document(one_action_document(**changes))


@pytest.mark.parametrize("anchor", ["12", "a", "a/b", "create"])
def test_anchors_may_be_any_name_or_int(anchor):
    doc = one_action_document(anchor=anchor)
    assert parse(format_document(doc)).model.actions[0].anchor == anchor


_BARE_WHATS = [
    "anchor", "reference", "model name", "thimac name", "action name",
    "storage name", "event id",
]
_bare_words = st.lists(
    st.one_of(
        st.text(alphabet='aZ_09/- #"\n', max_size=4), st.sampled_from(sorted(KEYWORDS))
    ),
    max_size=3,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(word=_bare_words, what=st.sampled_from(_BARE_WHATS))
@example(word="a b", what="anchor")
@example(word=" a", what="reference")
@example(word="a #c", what="reference")
@example(word="12", what="anchor")
@example(word="12", what="event id")
@example(word="a/b", what="reference")
@example(word="a/b", what="thimac name")
@example(word="max", what="anchor")
@example(word="max", what="action name")
def test_a_bare_word_is_written_exactly_when_the_lexer_reads_it_back(word, what):
    # the parser takes a NAME or an INT as an anchor, a NAME but no keyword
    # as a reference, and an unqualified one as any declared name
    try:
        tokens = [token[:2] for token in tokenize_by_offsets(word) if token[0] != "EOF"]
    except ParseError:
        tokens = []
    kinds = ("NAME", "INT") if what == "anchor" else ("NAME",)
    readable = len(tokens) == 1 and tokens[0][0] in kinds and tokens[0][1] == word
    if what != "anchor":
        readable = readable and word not in KEYWORDS
    if what not in ("anchor", "reference"):
        readable = readable and "/" not in word
    try:
        written = _bare(word, what) == word
    except FormatError:
        written = False
    assert written == readable


def bare_by_lexer(word: str, what: str) -> str:
    """``writer._bare`` as it was when it asked the lexer: ``word`` is
    written bare as a ``what`` if the token pattern reads it whole as one
    unpadded token whose kind the parser takes there."""
    match = _TOKEN_RE.fullmatch(word)
    kind = _KINDS.get(word[:1]) if match and match.start(1) == 0 else None
    if what == "anchor":
        readable = kind in ("NAME", "INT")
    elif what == "reference":
        readable = kind == "NAME" and word not in KEYWORDS
    else:
        readable = kind == "NAME" and word not in KEYWORDS and "/" not in word
    if not readable:
        raise FormatError(f"cannot write {word!r} as a bare {what}: parse refuses it")
    return word


def outcome(write, word: str, what: str) -> str:
    try:
        return f"written {write(word, what)!r}"
    except FormatError as exc:
        return f"FormatError: {exc}"


#: Pieces of words the lexer may read otherwise than the patterns do:
#: keywords, '/'-paths, digits (ASCII and not), letters (ASCII and not),
#: blanks, comments, quotes, arrows and lone punctuation.
_WORD_PIECES = [
    *sorted(KEYWORDS), "a/b", "/", "//", "0", "7", "12", "\u0663", "\u00b2",
    "\u0661", "\u00e9", "\u03a9", "\u00df", "\u0131", "_", "a", "Z",
    " ", "\t", "\n", "\r", "\x0b", "\x0c", "\xa0", "#", "#c\n", '"', '""',
    '"a"', "->", "~>", "-", "~", "@", "{", "}", ",", "\\", "\x00",
]
_lexer_words = st.lists(
    st.one_of(st.sampled_from(_WORD_PIECES), st.characters(), st.text(max_size=3)),
    max_size=4,
).map("".join)


@settings(max_examples=2000, deadline=None)
@given(word=_lexer_words, what=st.sampled_from(_BARE_WHATS))
@example(word="", what="anchor")
@example(word="1a", what="anchor")
@example(word="\u0663", what="anchor")
@example(word="a/", what="reference")
@example(word="a\n", what="reference")
@example(word="#", what="reference")
@example(word="->", what="anchor")
@example(word="model/x", what="reference")
@example(word="x/model", what="action name")
def test_a_bare_word_is_judged_as_the_lexer_judged_it(word, what):
    assert outcome(_bare, word, what) == outcome(bare_by_lexer, word, what)


def test_format_accepts_bare_models():
    builder = ModelBuilder("bare")
    builder.add_thimac("t", id="t")
    builder.add_action("create", "t", id="t/a")
    assert format_document(builder.build()) == (
        "model bare {\n  thimac t {\n    create a\n  }\n}\n"
    )


def test_format_refuses_shadowed_references():
    # a/x/y shadows x/y when printing from inside a, so there is no
    # spelling of this edge that parses back to the same model
    builder = ModelBuilder("shadow")
    builder.add_thimac("a", id="a")
    builder.add_thimac("x", parent="a", id="a/x")
    builder.add_thimac("x", id="x")
    builder.add_action("process", "a", id="a/p")
    builder.add_action("process", "a/x", id="a/x/y")
    builder.add_action("process", "x", id="x/y")
    builder.add_flow("a/p", "x/y")
    with pytest.raises(FormatError, match="unambiguous"):
        format_document(builder.build())


def test_builder_ids_differ_from_path_ids_but_still_format():
    # auto-generated ids are not containment paths; the formatter points
    # this out only when a spelling would be ambiguous, otherwise the
    # text simply re-parses to path ids
    builder = ModelBuilder("auto")
    t = builder.add_thimac("t")
    a = builder.add_action("create", t)
    b = builder.add_action("process", t)
    builder.add_flow(a, b)
    text = format_document(builder.build())
    reparsed = parse(text).model
    assert {x.kind for x in reparsed.actions} == {"create", "process"}
    assert len(reparsed.flows) == 1


def test_auto_edge_ids_skip_thimacs_named_like_them():
    # edges resolve at the model block's '}', after every declaration, so
    # the thimac ids flow1, flow2 and trigger1 are taken before any edge id
    doc = parse(
        "model m {\n"
        "  thimac flow1 { create a process b a -> b }\n"
        "  thimac flow2 { create a process b a -> b b ~> a }\n"
        "  thimac trigger1 { create a process b b ~> a }\n"
        "}\n"
    )
    assert [(f.id, f.src) for f in doc.model.flows] == [
        ("flow3", "flow1/a"),
        ("flow4", "flow2/a"),
    ]
    assert [(t.id, t.src) for t in doc.model.triggers] == [
        ("trigger2", "flow2/b"),
        ("trigger3", "trigger1/b"),
    ]


def test_fixture_round_trip_and_canonicality():
    for name in ("atm.tm", "ordering.tm"):
        source = read_fixture(name)
        doc = parse(source)
        canon = format_document(doc)
        again = parse(canon)
        assert structurally_equal_documents(doc, again), name
        assert format_document(again) == canon, name


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_round_trip_random_documents(seed):
    doc = random_document(Random(seed))
    text = format_document(doc)
    again = parse(text)
    assert structurally_equal_documents(doc, again)
    assert format_document(again) == text


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_json_and_text_agree_on_random_documents(seed):
    doc = random_document(Random(seed))
    via_text = parse(format_document(doc))
    via_json = from_json(to_json(doc))
    assert structurally_equal_documents(via_text, via_json)


# ---------------------------------------------------------------------------
# deep nesting and the shared containment walk

DEPTH = 1500  # above the default recursion limit of 1000


def test_parser_and_formatter_keep_their_own_stacks():
    text = (
        "model m {\n"
        + "".join(f"thimac t{i} {{ process p{i}\n" for i in range(DEPTH))
        + "}\n" * DEPTH
        + "}\n"
    )
    doc = parse(text)
    deepest = "/".join(f"t{i}" for i in range(DEPTH))
    assert doc.model.actions[-1].id == f"{deepest}/p{DEPTH - 1}"
    canon = format_document(doc)
    assert canon.splitlines()[2 * DEPTH - 1] == "  " * DEPTH + f"thimac t{DEPTH - 1} {{"
    assert format_document(parse(canon)) == canon


def test_unclosed_nesting_is_a_parse_error():
    with pytest.raises(ParseError, match="expected '}', found end of file"):
        parse("model m {\n" + "thimac t {\n" * DEPTH)


def chain_model(depth):
    """Thimacs t0 .. t(depth-1), each inside the one before, built without
    the builder, as ``from_json`` may build them."""
    return StaticModel(
        "chain",
        thimacs=tuple(
            Thimac(f"t{i}", f"t{i}", f"t{i - 1}" if i else None)
            for i in range(depth)
        ),
        actions=(Action("a", "process", f"t{depth - 1}"),),
    )


@pytest.mark.parametrize("write", [format_document, to_dot])
def test_both_writers_walk_deep_chains(write):
    lines = write(chain_model(DEPTH)).splitlines()
    closing = [line for line in lines if line.strip() == "}"]
    assert len(closing) == DEPTH + 1
    assert closing[0] == "  " * DEPTH + "}"


@pytest.mark.parametrize("write", [format_document, to_dot])
@pytest.mark.parametrize(
    "thimacs, actions, storages, complaint",
    [
        (
            [Thimac("t", "t", "u"), Thimac("u", "u", "t")], [], [],
            "thimac 't' is in a containment cycle or under a missing parent",
        ),
        (
            [Thimac("t", "t", None), Thimac("u", "u", "ghost")], [], [],
            "thimac 'u' is in a containment cycle or under a missing parent",
        ),
        (
            [Thimac("t", "t", None)], [Action("a", "process", "ghost")], [],
            "action 'a' belongs to 'ghost', which is not a written thimac",
        ),
        (
            [Thimac("t", "t", None)], [], [Storage("s", "ghost", "s")],
            "storage 's' belongs to 'ghost', which is not a written thimac",
        ),
    ],
    ids=["cycle", "missing-parent", "action-owner", "storage-owner"],
)
def test_writers_refuse_what_they_cannot_reach(
    write, thimacs, actions, storages, complaint
):
    model = StaticModel(
        "m", thimacs=tuple(thimacs), actions=tuple(actions),
        storages=tuple(storages),
    )
    with pytest.raises(FormatError, match=complaint):
        write(model)
