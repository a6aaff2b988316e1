"""Implicational arguments: derivation by chaining, and validity.

An argument is a list of premises, each an implication between literals,
plus a goal implication.  ``derive`` searches for a proof of the goal by
chaining premises and their contrapositives; ``truth_table_validate``
decides semantic validity, answering as a full truth table would.
Chaining is sound (anything it proves is valid) but not complete: an
argument can be valid for reasons no single chain captures, as when the
premises force a literal outright.

An argument travels as ints, from ``parse_argument`` to the printed
proof.  Each variable is numbered once, in order of first use in the
premises and then in the goal, and each literal is the int
``2 * var + negated``.  ``Argument`` holds the variable names in number
order, the premises' literals in one flat tuple (antecedent, consequent,
antecedent, ...), and the goal's two.  A rule is the int ``r``: premise
``r`` when ``r < n``, the contrapositive of premise ``r - n`` otherwise,
where ``n`` is the number of premises.

``_implication_graph`` stores the rules flat: sorted by tail, in rule
order within a tail, with one offset per literal where its rules start.
A rule that repeats an earlier rule's tail and head never reaches a
literal first, so the graph keeps every rule.  Its readers:

* ``derive`` runs its breadth-first search over it and returns the rules
  of the proof;
* ``truth_table_validate`` makes a goal ``a -> b``'s ``a`` true and ``b``
  false and propagates assignments over it: premises plus ``a`` and
  ``~b`` is a 2-CNF formula, with no model exactly when the argument is
  valid.

``format_proof`` and ``format_argument`` write from a table of literal
texts.  Records -- ``Literal``, ``Origin`` and ``Implication`` -- are
built only by ``Argument.premises``, ``Argument.goal`` and
``ProofPath.steps``, views made on first use, and by
``close_contrapositive`` and ``encode_as_tm``; ``tmkit prove`` and
``tmkit validate-arg`` build none.

``encode_as_tm`` renders an argument as a model -- one thimac per
literal, triggered along each implication -- so arguments can sit in the
same tooling as everything else.
"""
from __future__ import annotations

import re
from collections import namedtuple
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Optional

from .errors import TmkitError

if TYPE_CHECKING:
    from .model import StaticModel

#: Past this many variables a truth table stops being a reasonable way to
#: spend time and memory.  ``truth_table_validate`` no longer enumerates
#: one, but keeps the cap, since the count it reports is of its rows.
MAX_VARIABLES = 24


class LogicError(TmkitError):
    pass


class Literal(namedtuple("Literal", "variable positive", defaults=(True,))):
    __slots__ = ()

    def negated(self) -> "Literal":
        return Literal(self.variable, not self.positive)

    def __str__(self) -> str:
        return self.variable if self.positive else f"~{self.variable}"


class Origin(namedtuple("Origin", "index contrapositive", defaults=(False,))):
    """Where a usable implication came from: premise ``index`` (1-based),
    either as stated or flipped into its contrapositive."""

    __slots__ = ()

    def __str__(self) -> str:
        if self.contrapositive:
            return f"contrapositive of {self.index}"
        return f"premise {self.index}"


class Implication(
    namedtuple("Implication", "antecedent consequent origin", defaults=(None,))
):
    """``antecedent -> consequent``, refused when the two are one literal.
    The check is in ``__new__``, and ``_make`` (so ``_replace`` too) goes
    through it."""

    __slots__ = ()

    def __new__(
        cls, antecedent: Literal, consequent: Literal, origin: Optional[Origin] = None
    ) -> "Implication":
        if antecedent == consequent:
            raise LogicError(f"implication {antecedent} -> itself is vacuous")
        return tuple.__new__(cls, (antecedent, consequent, origin))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Implication":
        return cls(*iterable)

    def contrapositive(self) -> "Implication":
        """``~consequent -> ~antecedent``, from the same premise flipped;
        an implication with no origin gives one with none."""
        origin = self.origin
        if origin is not None:
            origin = Origin(origin.index, not origin.contrapositive)
        return Implication(self.consequent.negated(), self.antecedent.negated(), origin)

    def __str__(self) -> str:
        return f"{self.antecedent} -> {self.consequent}"


def _literals(number: dict[str, int], implications: Iterable[Implication]) -> list[int]:
    """Each implication's two literals as ints, numbering each new
    variable in ``number`` as it is first used."""
    return [
        2 * number.setdefault(lit.variable, len(number)) + (not lit.positive)
        for imp in implications
        for lit in (imp.antecedent, imp.consequent)
    ]


class Argument:
    """Premises and a goal, held as ints (see the module docstring):
    ``names``, ``ends`` and ``goal_ends``.  ``Argument(premises, goal)``
    numbers records; premise ``k`` is always ``Origin(k)``, whatever
    origin it was given."""

    def __init__(self, premises: Iterable[Implication], goal: Implication) -> None:
        number: dict[str, int] = {}
        ends = _literals(number, premises)
        self.goal_ends = tuple(_literals(number, (goal,)))
        self.names, self.ends = tuple(number), tuple(ends)

    @classmethod
    def _of(cls, names: tuple[str, ...], ends: tuple[int, ...],
            goal_ends: tuple[int, int]) -> "Argument":
        argument = cls.__new__(cls)
        argument.names, argument.ends, argument.goal_ends = names, ends, goal_ends
        return argument

    def _literal(self, lit: int) -> Literal:
        return Literal(self.names[lit >> 1], not (lit & 1))

    @cached_property
    def premises(self) -> tuple[Implication, ...]:
        lit, ends = self._literal, self.ends
        return tuple(
            Implication(lit(a), lit(b), Origin(k))
            for k, (a, b) in enumerate(zip(ends[0::2], ends[1::2]), start=1)
        )

    @cached_property
    def goal(self) -> Implication:
        a, b = self.goal_ends
        return Implication(self._literal(a), self._literal(b))

    def _key(self) -> tuple:
        return (self.names, self.ends, self.goal_ends)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Argument):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Argument({self.premises!r}, {self.goal!r})"


class ProofPath:
    """A chain of implications leading antecedent-to-consequent from the
    goal's antecedent to its consequent: the ``rules`` of ``argument`` it
    takes, in order."""

    def __init__(self, argument: Argument, rules: tuple[int, ...]) -> None:
        self.argument, self.rules = argument, rules

    @cached_property
    def steps(self) -> tuple[Implication, ...]:
        premises = self.argument.premises
        return tuple(_implication(premises, r) for r in self.rules)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProofPath):
            return NotImplemented
        return (self.argument, self.rules) == (other.argument, other.rules)

    def __hash__(self) -> int:
        return hash((self.argument, self.rules))

    def __repr__(self) -> str:
        return f"ProofPath({self.argument!r}, {self.rules!r})"


def _rule_ends(ends: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Each rule's tail and head literal, indexed by rule."""
    ants, cons = ends[0::2], ends[1::2]
    return (
        [*ants, *(c ^ 1 for c in cons)],
        [*cons, *(a ^ 1 for a in ants)],
    )


#: ``heads`` maps each rule to the literal it implies; ``order`` holds
#: every rule, sorted by tail, in rule order within one; ``start`` maps
#: each literal to where its rules start in ``order``.
_Graph = namedtuple("_Graph", "heads order start")


def _implication_graph(argument: Argument) -> _Graph:
    """The premises and their contrapositives as rules over int literals;
    see the module docstring.  Each rule is kept as a bare int, and no
    literal gets a container of its own, since a long argument has many."""
    tails, heads = _rule_ends(argument.ends)
    order = sorted(range(len(tails)), key=tails.__getitem__)
    start = [0] * (2 * len(argument.names) + 1)
    for tail in tails:
        start[tail + 1] += 1
    return _Graph(heads, order, list(accumulate(start)))


def _implication(premises: tuple[Implication, ...], r: int) -> Implication:
    n = len(premises)
    return premises[r] if r < n else premises[r - n].contrapositive()


def close_contrapositive(
    premises: tuple[Implication, ...]
) -> tuple[Implication, ...]:
    """Premises followed by their contrapositives, in premise order,
    keeping the first implication seen for any (antecedent, consequent)
    pair -- so a premise always beats a derived form."""
    first: dict[tuple[int, int], int] = {}
    for r, pair in enumerate(zip(*_rule_ends(_literals({}, premises)))):
        first.setdefault(pair, r)
    return tuple(_implication(premises, r) for r in first.values())


def derive(argument: Argument) -> Optional[ProofPath]:
    """Shortest chain from the goal's antecedent to its consequent, or
    None.  Breadth-first over the premises and their contrapositives,
    consulting rules in rule order, so the result is deterministic."""
    heads, order, start = _implication_graph(argument)
    source, target = argument.goal_ends
    n = len(argument.ends) // 2
    came_by = [-1] * (len(start) - 1)  # the rule that first reached a literal
    came_by[source] = 2 * n  # no rule, but visited
    queue = [source]
    # A literal no premise mentions has no rules, and is never reached.
    for current in queue:  # the loop reaches what it appends
        for r in order[start[current]:start[current + 1]]:
            nxt = heads[r]
            if came_by[nxt] >= 0:
                continue
            came_by[nxt] = r
            if nxt == target:
                rules = []
                while nxt != source:
                    rules.append(came_by[nxt])
                    # Rules r and r - n are each other's contrapositive
                    # (the index taken modulo 2n, as Python's negative
                    # indexing does), so r's tail is r - n's head negated.
                    nxt = heads[came_by[nxt] - n] ^ 1
                return ProofPath(argument, tuple(reversed(rules)))
            queue.append(nxt)
    return None


def _texts(names: tuple[str, ...]) -> list[str]:
    """Each literal's text, indexed by the literal."""
    return [text for name in names for text in (name, f"~{name}")]


def format_proof(path: ProofPath) -> str:
    ends = path.argument.ends
    text, n = _texts(path.argument.names), len(ends) // 2
    lines = []
    for r in path.rules:
        if r < n:
            ant, cons = text[ends[2 * r]], text[ends[2 * r + 1]]
            lines.append(f"{ant} -> {cons} [premise {r + 1}]")
        else:
            r -= n
            ant, cons = text[ends[2 * r + 1] ^ 1], text[ends[2 * r] ^ 1]
            lines.append(f"{ant} -> {cons} [contrapositive of {r + 1}]")
    return "\n".join(lines) + "\n"


def truth_table_validate(
    argument: Argument
) -> tuple[bool, Optional[dict[str, bool]], int]:
    """Decide validity as a truth table would, without enumerating it.

    Returns ``(valid, countermodel, assignments_checked)``.  The table's
    variables are the premises' variables, which the argument numbers
    first; a goal variable that no premise uses is refused.  Variables
    are taken in sorted order and assignments read False-first, so the
    countermodel returned for an invalid argument is always the
    lexicographically least one, and the count is the rows read to reach
    it: its rank plus one, the first variable being the most significant
    bit and True being 1, or all ``2**v`` for a valid argument.

    The argument ``premises |- a -> b`` is invalid exactly when premises
    plus the unit clauses ``a`` and ``~b`` have a model.  Those two are
    made true first, then each unset variable in turn is made False and
    its consequences propagated over the implication graph, or, if that
    conflicts, made True.  A propagation without conflict leaves
    untouched only clauses the formula already held, so it keeps a
    satisfiable formula satisfiable (Even, Itai & Shamir, 1976): a
    conflict on both values, or on a unit clause, proves the argument
    valid, and otherwise the assignment is the least countermodel.  This
    takes O(v * (v + rules)) for v variables.
    """
    names, ends = argument.names, argument.ends
    used = max(ends) // 2 + 1 if ends else 0  # the premises' variables
    a, b = argument.goal_ends
    fresh = {names[lit >> 1] for lit in (a, b) if lit >> 1 >= used}
    if fresh:
        raise LogicError(
            "goal uses variables absent from every premise: "
            + ", ".join(sorted(fresh))
        )
    if used > MAX_VARIABLES:
        raise LogicError(
            f"{used} variables would need "
            f"2**{used} assignments; the cap is {MAX_VARIABLES}"
        )
    heads, order, start = _implication_graph(argument)
    implied = [heads[r] for r in order]
    value: list[Optional[bool]] = [None] * used

    def assume(lit: int) -> bool:
        """Make ``lit`` and all it implies true; on a conflict, unset
        what this call set and return False."""
        trail = []
        stack = [lit]
        while stack:
            lit = stack.pop()
            var, holds = lit >> 1, not (lit & 1)
            if value[var] is None:
                value[var] = holds
                trail.append(var)
                stack += implied[start[lit]:start[lit + 1]]
            elif value[var] != holds:
                for var in trail:
                    value[var] = None
                return False
        return True

    variables = sorted(range(used), key=names.__getitem__)
    if not (assume(a) and assume(b ^ 1)):
        return (True, None, 2 ** used)
    for var in variables:
        if value[var] is None and not (assume(2 * var + 1) or assume(2 * var)):
            return (True, None, 2 ** used)
    countermodel = {names[var]: value[var] for var in variables}
    rank = 0
    for holds in countermodel.values():
        rank = 2 * rank + holds
    return (False, countermodel, rank + 1)


# ---------------------------------------------------------------------------
# argument files


# A variable is a word of the DSL (``dynamics._WORD``), spelled again
# here because ``prove`` and ``validate-arg`` load neither ``dynamics``
# nor ``model``.  Blanks are what ``str.strip()`` removes, short of the
# line break.
_WORD = r"[A-Za-z_][A-Za-z0-9_]*"
_BLANK = r"[^\S\n]*"

# One line through its "\n": blank, or an implication with an optional
# goal mark, either with an optional comment; or else anything, in the
# last group.  So each match is one whole line, and the matches tile the
# text, with one empty match at its end.
_LINE_RE = re.compile(
    rf"{_BLANK}(?:(\|-{_BLANK})?(~)?({_WORD}){_BLANK}->{_BLANK}(~)?({_WORD}){_BLANK})?"
    r"(?:#.*)?(?:\n|\Z)"
    r"|(.*)(?:\n|\Z)"
)


def _line_error(text: str, match: re.Match, message: str) -> LogicError:
    lineno = text.count("\n", 0, match.start()) + 1
    return LogicError(f"line {lineno}: {message}")


def parse_argument(text: str) -> Argument:
    """Parse an argument file: one implication per line, ``~`` for
    negation, the goal marked with a leading ``|-``, ``#`` comments.
    The first fault in reading order is the one reported."""
    number: dict[str, int] = {}
    ends: list[int] = []
    add = ends.append
    goal = None
    for match in _LINE_RE.finditer(text):
        mark, ant_neg, ant, cons_neg, cons, bad = match.groups()
        if ant is None:
            if bad is not None:
                found = bad.split("#", 1)[0].strip()
                raise _line_error(
                    text, match, f"expected 'literal -> literal', found {found!r}"
                )
            continue
        if mark is not None and goal is not None:
            raise _line_error(text, match, "second goal line")
        if ant == cons and ant_neg == cons_neg:
            raise _line_error(
                text, match, f"implication {ant_neg or ''}{ant} -> itself is vacuous"
            )
        if mark is not None:
            goal = (ant_neg, ant, cons_neg, cons)
        else:
            add(2 * number.setdefault(ant, len(number)) + (ant_neg is not None))
            add(2 * number.setdefault(cons, len(number)) + (cons_neg is not None))
    if goal is None:
        raise LogicError("no goal line ('|- a -> b') found")
    if not ends:
        raise LogicError("no premises found")
    ant_neg, ant, cons_neg, cons = goal
    goal_ends = (
        2 * number.setdefault(ant, len(number)) + (ant_neg is not None),
        2 * number.setdefault(cons, len(number)) + (cons_neg is not None),
    )
    return Argument._of(tuple(number), tuple(ends), goal_ends)


def format_argument(argument: Argument) -> str:
    text, ends = _texts(argument.names), argument.ends
    lines = [f"{text[a]} -> {text[b]}" for a, b in zip(ends[0::2], ends[1::2])]
    a, b = argument.goal_ends
    lines.append(f"|- {text[a]} -> {text[b]}")
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
    from .model import ModelBuilder

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
