"""Parser and canonical formatter: syntax, scoping, spans, round trips."""
import json
import re
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit import (
    Action,
    Document,
    FormatError,
    ModelBuilder,
    ParseError,
    StaticModel,
    Storage,
    Thimac,
    format_document,
    from_json,
    parse,
    to_dot,
    to_json,
)
from tmkit.dsl import SourceSpan, _Token, _tokenize
from tmkit.dynamics import (
    DisconnectedRegionError,
    NoInitialEventError,
    UnboundedCycleError,
    structurally_equal_documents,
)

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


def test_unterminated_string():
    err = error_for('model m { thimac t { create a "oops } }')
    assert "closing" in str(err)


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
# the lexer against the character loop it replaced

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:/[A-Za-z_][A-Za-z0-9_]*)*")
_INT_RE = re.compile(r"[0-9]+")


def tokenize_by_chars(text: str) -> list[_Token]:
    """The lexer as first written, one character at a time.  Kept as the
    reference for the master-regex ``_tokenize``."""
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
    assert lexed(_tokenize, text) == lexed(tokenize_by_chars, text)


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
    ],
)
def test_the_lexer_keeps_the_character_loops_edge_cases(text):
    assert lexed(_tokenize, text) == lexed(tokenize_by_chars, text)


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
