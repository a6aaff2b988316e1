"""Implicational arguments: derivation by chaining and truth-table checking.

An argument is a list of premises, each an implication between literals,
plus a goal implication.  ``derive`` searches for a proof of the goal by
chaining premises and their contrapositives; ``truth_table_validate``
decides semantic validity by enumeration.  Chaining is sound (anything it
proves is valid) but not complete: an argument can be valid for reasons
no single chain captures, as when the premises force a literal outright.

``encode_as_tm`` renders an argument as a model -- one thimac per
literal, triggered along each implication -- so arguments can sit in the
same tooling as everything else.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Optional

from .errors import TmkitError
from .model import ModelBuilder, StaticModel

#: Enumeration guard: past this many variables a truth table stops being
#: a reasonable way to spend time and memory.
MAX_VARIABLES = 24


class LogicError(TmkitError):
    pass


@dataclass(frozen=True)
class Literal:
    variable: str
    positive: bool = True

    def negated(self) -> "Literal":
        return Literal(self.variable, not self.positive)

    def holds_under(self, assignment: dict[str, bool]) -> bool:
        value = assignment[self.variable]
        return value if self.positive else not value

    def __str__(self) -> str:
        return self.variable if self.positive else f"~{self.variable}"


@dataclass(frozen=True)
class Origin:
    """Where a usable implication came from: premise ``index`` (1-based),
    either as stated or flipped into its contrapositive."""

    index: int
    contrapositive: bool = False

    def __str__(self) -> str:
        if self.contrapositive:
            return f"contrapositive of {self.index}"
        return f"premise {self.index}"


@dataclass(frozen=True)
class Implication:
    antecedent: Literal
    consequent: Literal
    origin: Optional[Origin] = None

    def __post_init__(self) -> None:
        if self.antecedent == self.consequent:
            raise LogicError(f"implication {self.antecedent} -> itself is vacuous")

    def contrapositive(self) -> "Implication":
        assert self.origin is not None
        return Implication(
            self.consequent.negated(),
            self.antecedent.negated(),
            Origin(self.origin.index, not self.origin.contrapositive),
        )

    def holds_under(self, assignment: dict[str, bool]) -> bool:
        return (not self.antecedent.holds_under(assignment)) or (
            self.consequent.holds_under(assignment)
        )

    def __str__(self) -> str:
        return f"{self.antecedent} -> {self.consequent}"


@dataclass(frozen=True)
class Argument:
    premises: tuple[Implication, ...]
    goal: Implication

    @property
    def premise_variables(self) -> frozenset[str]:
        return frozenset(
            lit.variable
            for imp in self.premises
            for lit in (imp.antecedent, imp.consequent)
        )

    @property
    def variables(self) -> tuple[str, ...]:
        extra = {self.goal.antecedent.variable, self.goal.consequent.variable}
        return tuple(sorted(self.premise_variables | extra))


@dataclass(frozen=True)
class ProofPath:
    """A chain of implications leading antecedent-to-consequent from the
    goal's antecedent to its consequent."""

    steps: tuple[Implication, ...]


def close_contrapositive(
    premises: tuple[Implication, ...]
) -> tuple[Implication, ...]:
    """Premises followed by their contrapositives, in premise order,
    keeping the first implication seen for any (antecedent, consequent)
    pair -- so a premise always beats a derived form."""
    out: list[Implication] = []
    seen: set[tuple[Literal, Literal]] = set()
    for group in (premises, [p.contrapositive() for p in premises]):
        for imp in group:
            key = (imp.antecedent, imp.consequent)
            if key not in seen:
                seen.add(key)
                out.append(imp)
    return tuple(out)


def derive(argument: Argument) -> Optional[ProofPath]:
    """Shortest chain from the goal's antecedent to its consequent, or
    None.  Breadth-first over the closed premise list, consulting rules
    in list order, so the result is deterministic."""
    rules = close_contrapositive(argument.premises)
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
                return ProofPath(tuple(reversed(steps)))
            queue.append(nxt)
    return None


def format_proof(path: ProofPath) -> str:
    return "\n".join(f"{step} [{step.origin}]" for step in path.steps) + "\n"


def truth_table_validate(
    argument: Argument, allow_new_goal_variables: bool = False
) -> tuple[bool, Optional[dict[str, bool]], int]:
    """Decide validity by enumerating assignments.

    Returns ``(valid, countermodel, assignments_checked)``.  Variables
    are taken in sorted order and assignments enumerated False-first, so
    the countermodel returned for an invalid argument is always the
    lexicographically least one.
    """
    if not allow_new_goal_variables:
        fresh = {
            argument.goal.antecedent.variable,
            argument.goal.consequent.variable,
        } - set(argument.premise_variables)
        if fresh:
            raise LogicError(
                "goal uses variables absent from every premise: "
                + ", ".join(sorted(fresh))
            )
    variables = argument.variables
    if len(variables) > MAX_VARIABLES:
        raise LogicError(
            f"{len(variables)} variables would need "
            f"2**{len(variables)} assignments; the cap is {MAX_VARIABLES}"
        )
    checked = 0
    for values in itertools.product((False, True), repeat=len(variables)):
        checked += 1
        assignment = dict(zip(variables, values))
        if all(p.holds_under(assignment) for p in argument.premises) and (
            not argument.goal.holds_under(assignment)
        ):
            return (False, assignment, checked)
    return (True, None, checked)


# ---------------------------------------------------------------------------
# argument files


_LINE_RE = re.compile(
    r"^(?P<goal>\|-\s*)?(?P<ant>~?[A-Za-z_][A-Za-z0-9_]*)\s*->\s*"
    r"(?P<cons>~?[A-Za-z_][A-Za-z0-9_]*)$"
)


def _parse_literal(text: str) -> Literal:
    if text.startswith("~"):
        return Literal(text[1:], False)
    return Literal(text)


def parse_argument(text: str) -> Argument:
    """Parse an argument file: one implication per line, ``~`` for
    negation, the goal marked with a leading ``|-``, ``#`` comments."""
    premises: list[Implication] = []
    goal: Optional[Implication] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _LINE_RE.match(line)
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


def format_argument(argument: Argument) -> str:
    lines = [str(p) for p in argument.premises]
    lines.append(f"|- {argument.goal}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# encoding arguments as models


def _literal_thimac(lit: Literal) -> str:
    return lit.variable if lit.positive else f"not_{lit.variable}"


def encode_as_tm(argument: Argument, name: str = "argument") -> StaticModel:
    """One thimac per literal, holding a single create; each implication
    in the contrapositive closure becomes a trigger between the creates,
    its condition recording which premise it came from.  Raises
    :class:`LogicError` when two literals would share a thimac, as ``~a``
    and a variable named ``not_a`` would.
    """
    rules = close_contrapositive(argument.premises)
    builder = ModelBuilder(name)
    created: dict[str, tuple[Literal, str]] = {}

    def ensure(lit: Literal) -> str:
        tid = _literal_thimac(lit)
        found = created.get(tid)
        if found is None:
            builder.add_thimac(str(lit), id=tid)
            action = builder.add_action("create", tid, id=f"{tid}/holds")
            found = created[tid] = (lit, action)
        elif found[0] != lit:
            raise LogicError(
                f"literals {found[0]} and {lit} would share the thimac {tid!r}"
            )
        return found[1]

    for lit in (argument.goal.antecedent, argument.goal.consequent):
        ensure(lit)
    for rule in rules:
        src = ensure(rule.antecedent)
        dst = ensure(rule.consequent)
        builder.add_trigger(src, dst, condition=str(rule.origin))
    return builder.build()
