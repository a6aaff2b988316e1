"""Implication chaining, validity, argument files, and the encoding."""
import itertools
import re
from collections import Counter
from random import Random
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit import (
    Argument,
    Implication,
    Literal,
    LogicError,
    Origin,
    close_contrapositive,
    derive,
    encode_as_tm,
    format_argument,
    format_proof,
    parse_argument,
    truth_table_validate,
    validate,
)
from tmkit import dynamics, logic
from tmkit.logic import MAX_VARIABLES, _literal_thimac

from conftest import ODD_LINE_BREAKS
from generators import random_argument

seeds = st.integers(min_value=0, max_value=10_000)


def imp(ant, cons, index=None):
    def lit(text):
        return Literal(text[1:], False) if text.startswith("~") else Literal(text)

    origin = None if index is None else Origin(index)
    return Implication(lit(ant), lit(cons), origin)


def argument(*premise_pairs, goal):
    premises = tuple(
        imp(a, c, i) for i, (a, c) in enumerate(premise_pairs, start=1)
    )
    return Argument(premises, imp(*goal))


# ---------------------------------------------------------------------------
# oracles: closure, derivation and validity over Literal objects, as they
# were before all three moved onto the int implication graph


def close_by_literals(
    premises: tuple[Implication, ...]
) -> tuple[Implication, ...]:
    out: list[Implication] = []
    seen: set[tuple[Literal, Literal]] = set()
    for group in (premises, [p.contrapositive() for p in premises]):
        for imp in group:
            key = (imp.antecedent, imp.consequent)
            if key not in seen:
                seen.add(key)
                out.append(imp)
    return tuple(out)


def derive_by_literals(argument: Argument) -> Optional[tuple[Implication, ...]]:
    rules = close_by_literals(argument.premises)
    outgoing: dict[Literal, list[Implication]] = {}
    for rule in rules:
        outgoing.setdefault(rule.antecedent, []).append(rule)

    start, target = argument.goal.antecedent, argument.goal.consequent
    came_by: dict[Literal, Implication] = {}
    visited = {start}
    queue = [start]
    while queue:
        current = queue.pop(0)
        for rule in outgoing.get(current, ()):
            nxt = rule.consequent
            if nxt in visited:
                continue
            visited.add(nxt)
            came_by[nxt] = rule
            if nxt == target:
                steps = []
                while nxt != start:
                    steps.append(came_by[nxt])
                    nxt = came_by[nxt].antecedent
                return tuple(reversed(steps))
            queue.append(nxt)
    return None


def validate_by_enumeration(
    argument: Argument
) -> tuple[bool, Optional[dict[str, bool]], int]:
    def holds(lit: Literal, assignment: dict[str, bool]) -> bool:
        return assignment[lit.variable] == lit.positive

    def implies(imp: Implication, assignment: dict[str, bool]) -> bool:
        return not holds(imp.antecedent, assignment) or holds(
            imp.consequent, assignment
        )

    premise_variables = {
        lit.variable
        for imp in argument.premises
        for lit in (imp.antecedent, imp.consequent)
    }
    fresh = {
        argument.goal.antecedent.variable,
        argument.goal.consequent.variable,
    } - premise_variables
    if fresh:
        raise LogicError(
            "goal uses variables absent from every premise: "
            + ", ".join(sorted(fresh))
        )
    variables = sorted(premise_variables)
    if len(variables) > MAX_VARIABLES:
        raise LogicError(
            f"{len(variables)} variables would need "
            f"2**{len(variables)} assignments; the cap is {MAX_VARIABLES}"
        )
    checked = 0
    for values in itertools.product((False, True), repeat=len(variables)):
        checked += 1
        assignment = dict(zip(variables, values))
        if all(implies(p, assignment) for p in argument.premises) and (
            not implies(argument.goal, assignment)
        ):
            return (False, assignment, checked)
    return (True, None, checked)


# ---------------------------------------------------------------------------
# oracle: the argument-file reader as it was before it read the whole
# text with one regex and numbered variables as it went -- a line at a
# time, building records


_LINE_BY_LINE_RE = re.compile(
    r"^(?P<goal>\|-\s*)?(?P<ant>~?[A-Za-z_][A-Za-z0-9_]*)\s*->\s*"
    r"(?P<cons>~?[A-Za-z_][A-Za-z0-9_]*)$"
)


def _parse_literal(text: str) -> Literal:
    if text.startswith("~"):
        return Literal(text[1:], False)
    return Literal(text)


def parse_argument_by_lines(text: str) -> Argument:
    premises: list[Implication] = []
    goal: Optional[Implication] = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _LINE_BY_LINE_RE.match(line)
        if match is None:
            raise LogicError(
                f"line {lineno}: expected 'literal -> literal', found {line!r}"
            )
        ant = _parse_literal(match.group("ant"))
        cons = _parse_literal(match.group("cons"))
        if match.group("goal"):
            if goal is not None:
                raise LogicError(f"line {lineno}: second goal line")
            goal = Implication(ant, cons)
        else:
            premises.append(
                Implication(ant, cons, Origin(len(premises) + 1))
            )
    if goal is None:
        raise LogicError("no goal line ('|- a -> b') found")
    if not premises:
        raise LogicError("no premises found")
    return Argument(tuple(premises), goal)


# ---------------------------------------------------------------------------
# the pieces


def test_literal_and_origin_render_plainly():
    assert str(Literal("p")) == "p"
    assert str(Literal("p", False)) == "~p"
    assert str(Origin(3)) == "premise 3"
    assert str(Origin(3, contrapositive=True)) == "contrapositive of 3"
    assert str(imp("~p", "q")) == "~p -> q"


def test_implication_to_itself_is_refused():
    with pytest.raises(LogicError, match="vacuous"):
        imp("a", "a")
    imp("a", "~a")  # fine: this one actually says something


def test_replace_checks_for_a_vacuous_implication_too():
    rule = imp("a", "~b", 2)
    with pytest.raises(LogicError, match="^implication a -> itself is vacuous$"):
        rule._replace(consequent=rule.antecedent)
    with pytest.raises(LogicError, match="vacuous"):
        Implication._make([Literal("a"), Literal("a"), None])
    flipped = rule._replace(consequent=Literal("b"))
    assert type(flipped) is Implication
    assert flipped == Implication(Literal("a"), Literal("b"), Origin(2))


def test_contrapositive_is_an_involution():
    rule = imp("a", "~b", 4)
    flipped = rule.contrapositive()
    assert str(flipped) == "b -> ~a"
    assert str(flipped.origin) == "contrapositive of 4"
    assert flipped.contrapositive() == rule


def test_closure_keeps_the_stated_form_of_a_premise():
    premises = (imp("a", "b", 1), imp("~b", "~a", 2))
    closed = close_contrapositive(premises)
    # both contrapositives duplicate the other premise, so nothing is added
    assert closed == premises


def test_premises_without_an_origin_close_without_one():
    closed = close_contrapositive((Implication(Literal("a"), Literal("b")),))
    assert [str(rule) for rule in closed] == ["a -> b", "~b -> ~a"]
    assert [rule.origin for rule in closed] == [None, None]


def test_closing_twice_adds_nothing():
    premises = (imp("a", "b", 1), imp("c", "~b", 2))
    once = close_contrapositive(premises)
    assert close_contrapositive(once) == once
    assert len(once) == 4


# ---------------------------------------------------------------------------
# derivation


def test_derive_prefers_the_shortest_chain():
    arg = argument(("a", "b"), ("b", "c"), ("a", "c"), goal=("a", "c"))
    path = derive(arg)
    assert [str(s.origin) for s in path.steps] == ["premise 3"]


def test_derive_breaks_ties_toward_earlier_premises():
    arg = argument(
        ("a", "b"), ("b", "c"), ("a", "d"), ("d", "c"), goal=("a", "c")
    )
    path = derive(arg)
    assert [str(s.origin) for s in path.steps] == ["premise 1", "premise 2"]


def test_derive_uses_contrapositives():
    arg = argument(("~b", "~a"), goal=("a", "b"))
    path = derive(arg)
    assert [str(s.origin) for s in path.steps] == ["contrapositive of 1"]


def test_derive_returns_none_for_the_converse():
    assert derive(argument(("a", "b"), goal=("b", "a"))) is None


def test_format_proof():
    arg = argument(("x", "y"), ("~z", "~y"), goal=("x", "z"))
    assert format_proof(derive(arg)) == (
        "x -> y [premise 1]\ny -> z [contrapositive of 2]\n"
    )


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_derivations_are_sound_and_well_chained(seed):
    arg = random_argument(Random(seed))
    path = derive(arg)
    if path is None:
        return
    assert path.steps[0].antecedent == arg.goal.antecedent
    assert path.steps[-1].consequent == arg.goal.consequent
    for left, right in zip(path.steps, path.steps[1:]):
        assert left.consequent == right.antecedent
    valid, countermodel, _ = truth_table_validate(arg)
    assert valid, f"derived a chain for an invalid argument: {countermodel}"


@given(seeds)
@settings(max_examples=500, deadline=None)
def test_derive_and_closure_match_the_literal_oracles(seed):
    arg = random_argument(Random(seed), fresh_goal_variables=True)
    path = derive(arg)
    assert (path and path.steps) == derive_by_literals(arg)
    assert close_contrapositive(arg.premises) == close_by_literals(arg.premises)


def test_derive_cannot_reach_a_variable_no_premise_uses():
    assert derive(argument(("a", "b"), goal=("a", "z"))) is None
    assert derive(argument(("a", "b"), goal=("z", "b"))) is None


# ---------------------------------------------------------------------------
# validity


def test_truth_table_confirms_a_valid_argument():
    valid, countermodel, checked = truth_table_validate(
        argument(("a", "b"), ("b", "c"), goal=("a", "c"))
    )
    assert (valid, countermodel, checked) == (True, None, 8)


def test_truth_table_returns_the_least_countermodel():
    valid, countermodel, checked = truth_table_validate(
        argument(("p", "q"), goal=("q", "p"))
    )
    assert not valid
    assert countermodel == {"p": False, "q": True}
    assert checked == 2  # stopped at the first failing assignment


def test_fresh_goal_variables_are_refused_by_default():
    arg = argument(("a", "b"), goal=("a", "z"))
    with pytest.raises(LogicError, match="absent from every premise: z"):
        truth_table_validate(arg)


def test_truth_table_refuses_oversized_arguments():
    names = [f"v{i:02d}" for i in range(25)]
    arg = argument(
        *zip(names, names[1:]), goal=(names[0], names[-1])
    )
    with pytest.raises(LogicError, match="cap is 24"):
        truth_table_validate(arg)


def test_chaining_is_incomplete_by_design():
    # b is forced outright, so anything implies it -- but no chain can
    # reach b from c, whose only rule leads to d.
    arg = argument(("a", "b"), ("~a", "b"), ("c", "d"), goal=("c", "b"))
    assert derive(arg) is None
    assert truth_table_validate(arg) == (True, None, 16)


def _outcome(validator, arg):
    try:
        return validator(arg)
    except LogicError as error:
        return str(error)


@given(seeds)
@settings(max_examples=500, deadline=None)
def test_truth_table_validate_matches_enumeration(seed):
    arg = random_argument(Random(seed), fresh_goal_variables=True)
    assert _outcome(truth_table_validate, arg) == _outcome(
        validate_by_enumeration, arg
    )


def test_a_literal_implied_by_its_negation_is_forced():
    # ~a -> a: both values of a conflict, so any goal ending in a is valid
    arg = argument(("~a", "a"), ("b", "c"), goal=("b", "a"))
    assert truth_table_validate(arg) == (True, None, 8)


# ---------------------------------------------------------------------------
# argument files


def test_parse_argument():
    arg = parse_argument(
        "# a little argument\n"
        "p -> q\n"
        "~r -> ~q   # contraposed in spirit\n"
        "\n"
        "|- p -> r\n"
    )
    assert [str(p) for p in arg.premises] == ["p -> q", "~r -> ~q"]
    assert [str(p.origin) for p in arg.premises] == ["premise 1", "premise 2"]
    assert str(arg.goal) == "p -> r"


def test_parse_argument_rejects_malformed_files():
    with pytest.raises(LogicError, match="no goal line"):
        parse_argument("a -> b\n")
    with pytest.raises(LogicError, match="no premises"):
        parse_argument("|- a -> b\n")
    with pytest.raises(LogicError, match="line 2: second goal"):
        parse_argument("|- a -> b\n|- b -> c\na -> b\n")
    with pytest.raises(LogicError, match="line 1: expected 'literal -> literal'"):
        parse_argument("a & b -> c\n|- a -> c\n")
    with pytest.raises(LogicError, match="^line 2: implication ~a -> itself is vacuous$"):
        parse_argument("a -> b\n ~a->~a # no news\n|- a -> b\n")
    with pytest.raises(LogicError, match="^line 3: implication b -> itself is vacuous$"):
        parse_argument("a -> b\n\n|- b -> b\n")


def test_a_variable_is_spelled_as_a_word_of_the_dsl():
    assert logic._WORD == dynamics._WORD  # logic's copy spares prove loading dynamics


@pytest.mark.parametrize("odd", ODD_LINE_BREAKS)
def test_argument_line_numbers_count_newlines(odd):
    with pytest.raises(LogicError, match="^line 3: expected 'literal -> literal'"):
        parse_argument(f"a -> b{odd}\n|- a -> c\nbad line\n")
    with pytest.raises(LogicError, match="^line 1: expected 'literal -> literal'"):
        parse_argument(f"a -> b{odd}c -> d\n|- a -> d\n")


def test_format_argument_round_trips():
    arg = argument(("p", "~q"), ("~q", "r"), goal=("p", "r"))
    assert parse_argument(format_argument(arg)) == arg


@given(seeds, st.booleans())
@settings(max_examples=300, deadline=None)
def test_an_argument_round_trips_through_records_and_text(seed, fresh):
    arg = random_argument(Random(seed), fresh_goal_variables=fresh)
    assert Argument(arg.premises, arg.goal) == arg
    assert parse_argument(format_argument(arg)) == arg
    # the record views and the text table render the same argument
    assert format_argument(arg) == (
        "".join(f"{p}\n" for p in arg.premises) + f"|- {arg.goal}\n"
    )
    assert [p.origin for p in arg.premises] == [
        Origin(k) for k in range(1, len(arg.premises) + 1)
    ]


# Blanks: what str.strip() removes besides "\n", odd line breaks included.
_BLANKS = [" ", "\t", "\r", "\xa0", "\x85", "\u3000", *ODD_LINE_BREAKS]
_MALFORMED = [
    "a & b -> c", "a ->", "-> b", "~ a -> b", "a -> b c", "|-", "|- a",
    "1a -> b", "a - > b", "a => b", "~~a -> b", "|- |- a -> b", "a -> ~",
    "a#b -> c", "a -> b -> c",
]


@st.composite
def argument_lines(draw):
    def blank():
        return draw(st.text(st.sampled_from(_BLANKS), max_size=2))

    kind = draw(st.sampled_from(
        ["premise"] * 6 + ["goal", "goal", "blank", "blank", "bad", "vacuous"]
    ))
    if kind == "bad" and draw(st.booleans()):
        line = draw(st.text("ab~-> |#\t\r", max_size=10))
    elif kind == "bad":
        line = blank() + draw(st.sampled_from(_MALFORMED)) + blank()
    elif kind == "blank":
        line = blank()
    else:
        literals = ["a", "~a", "b", "~b", "B_2", "_x", "~c9"]
        ant = draw(st.sampled_from(literals))
        others = [lit for lit in literals if lit != ant]
        cons = ant if kind == "vacuous" else draw(st.sampled_from(others))
        goal = kind == "goal" or (kind == "vacuous" and draw(st.booleans()))
        mark = "|-" + blank() if goal else ""
        line = f"{blank()}{mark}{ant}{blank()}->{blank()}{cons}{blank()}"
    if draw(st.booleans()):
        line += "#" + draw(st.text("a~->|# \t\x85", max_size=6))
    return line


@given(st.lists(argument_lines(), max_size=8), st.booleans())
@settings(max_examples=1000, deadline=None)
def test_parse_argument_agrees_with_the_line_by_line_reader(lines, final_newline):
    text = "\n".join(lines) + ("\n" if final_newline else "")
    found = _outcome(parse_argument, text)
    expected = _outcome(parse_argument_by_lines, text)
    if isinstance(expected, str) and expected.startswith("implication "):
        # The one difference: a vacuous line is now named, and it is the
        # line the records refuse on their own.
        lineno, message = re.fullmatch(r"line (\d+): (.*)", found).groups()
        assert message == expected
        line = text.split("\n")[int(lineno) - 1]
        assert _outcome(parse_argument_by_lines, line) == expected
    else:
        assert found == expected


def test_prove_builds_no_record_per_premise_or_step(monkeypatch):
    # Every other link is stated backward, so the proof takes premises
    # and contrapositives alike.
    names = [f"v{k}" for k in range(1001)]
    text = "".join(
        f"~{b} -> ~{a}\n" if k % 2 else f"{a} -> {b}\n"
        for k, (a, b) in enumerate(zip(names, names[1:]))
    ) + "|- v0 -> v1000\n"
    built = Counter()
    for record in (Implication, Literal, Origin):
        def counting(cls, *args, _new=record.__new__, _name=record.__name__):
            built[_name] += 1
            return _new(cls, *args)

        monkeypatch.setattr(record, "__new__", counting)
    path = derive(parse_argument(text))
    proof = format_proof(path)
    assert proof.count("[premise") == proof.count("[contrapositive") == 500
    assert not built
    assert len(path.steps) == 1000  # the view builds records, and is counted
    assert set(built) == {"Implication", "Literal", "Origin"}


# ---------------------------------------------------------------------------
# rendering arguments as models


def test_encoding_shape():
    model = encode_as_tm(argument(("a", "b"), goal=("a", "b")), name="mp")
    assert model.name == "mp"
    assert sorted(model.thimacs_by_id) == ["a", "b", "not_a", "not_b"]
    assert sorted(model.actions_by_id) == [
        "a/holds", "b/holds", "not_a/holds", "not_b/holds"
    ]
    assert all(a.kind == "create" for a in model.actions)
    assert not model.flows
    triggers = {(t.src, t.dst): t.condition for t in model.triggers}
    assert triggers == {
        ("a/holds", "b/holds"): "premise 1",
        ("not_b/holds", "not_a/holds"): "contrapositive of 1",
    }
    assert validate(model) == ()


@pytest.mark.parametrize(
    "arg, complaint",
    [
        (
            argument(("~a", "not_a"), goal=("~a", "not_a")),
            "literals ~a and not_a",
        ),
        (
            argument(("a", "not_a"), ("~a", "b"), goal=("a", "b")),
            "literals not_a and ~a",
        ),
    ],
    ids=["would-self-loop", "would-merge"],
)
def test_encoding_refuses_literals_that_would_share_a_thimac(arg, complaint):
    with pytest.raises(LogicError, match=f"{complaint} would share the thimac 'not_a'"):
        encode_as_tm(arg)


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_encoding_carries_every_closure_rule_and_validates(seed):
    arg = random_argument(Random(seed))
    model = encode_as_tm(arg)
    assert validate(model) == ()
    triggers = {(t.src, t.dst): t.condition for t in model.triggers}
    for rule in close_contrapositive(arg.premises):
        src = f"{_literal_thimac(rule.antecedent)}/holds"
        dst = f"{_literal_thimac(rule.consequent)}/holds"
        assert triggers[(src, dst)] == str(rule.origin)
    path = derive(arg)
    if path is not None:
        for step in path.steps:
            src = f"{_literal_thimac(step.antecedent)}/holds"
            dst = f"{_literal_thimac(step.consequent)}/holds"
            assert (src, dst) in triggers
