"""Implicational arguments: derivation by chaining, and validity.

An argument is a list of premises, each an implication between literals,
plus a goal implication.  ``derive`` searches for a proof of the goal by
chaining premises and their contrapositives; ``truth_table_validate``
decides semantic validity, answering as a full truth table would.
Chaining is sound (anything it proves is valid) but not complete: an
argument can be valid for reasons no single chain captures, as when the
premises force a literal outright.

Both work on one implication graph, built by ``_implication_graph``.
Each variable is numbered once, in order of first use, and each literal
is the int ``2 * var + negated``.  A rule is
the int ``r``: premise ``r`` when ``r < n``, the contrapositive of
premise ``r - n`` otherwise, where ``n`` is the number of premises.  The
graph keeps the rules in premise-then-contrapositive order, the first
for any (antecedent, consequent) pair winning, and lists each literal's
outgoing rules in that order.  Its readers:

* ``close_contrapositive`` turns the kept rules back into implications;
* ``derive`` runs its breadth-first search over the int literals and
  builds implications only for the steps of the proof it returns;
* ``truth_table_validate`` adds the unit clauses ``a`` and ``~b`` of a
  goal ``a -> b`` and propagates assignments over the graph: premises
  plus ``a`` and ``~b`` is a 2-CNF formula, with no model exactly when
  the argument is valid.

``encode_as_tm`` renders an argument as a model -- one thimac per
literal, triggered along each implication -- so arguments can sit in the
same tooling as everything else.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import TmkitError

if TYPE_CHECKING:
    from .model import StaticModel

#: Past this many variables a truth table stops being a reasonable way to
#: spend time and memory.  ``truth_table_validate`` no longer enumerates
#: one, but keeps the cap, since the count it reports is of its rows.
MAX_VARIABLES = 24


class LogicError(TmkitError):
    pass


@dataclass(frozen=True)
class Literal:
    variable: str
    positive: bool = True

    def negated(self) -> "Literal":
        return Literal(self.variable, not self.positive)

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

    def __str__(self) -> str:
        return f"{self.antecedent} -> {self.consequent}"


@dataclass(frozen=True)
class Argument:
    premises: tuple[Implication, ...]
    goal: Implication


@dataclass(frozen=True)
class ProofPath:
    """A chain of implications leading antecedent-to-consequent from the
    goal's antecedent to its consequent."""

    steps: tuple[Implication, ...]


class _Graph(NamedTuple):
    number: dict[str, int]  # variable -> var, in order of first use
    heads: list[int]  # rule -> the literal it implies
    out: list[list[int]]  # literal -> its kept rules, in rule order
    kept: list[int]  # the kept rules, in rule order

    def literal(self, lit: Literal) -> Optional[int]:
        var = self.number.get(lit.variable)
        return None if var is None else 2 * var + (not lit.positive)


def _implication_graph(premises: tuple[Implication, ...]) -> _Graph:
    """The premises and their contrapositives as rules over int literals;
    see the module docstring.  Each rule is kept as a bare int, since the
    graph of a long argument holds many."""
    number: dict[str, int] = {}
    ends = [
        2 * number.setdefault(lit.variable, len(number)) + (not lit.positive)
        for imp in premises
        for lit in (imp.antecedent, imp.consequent)
    ]
    heads = ends[1::2] + [lit ^ 1 for lit in ends[0::2]]
    # Rules r and r - n are each other's contrapositive (the index taken
    # modulo 2n, as Python's negative indexing does), so the tail of rule
    # r is the negated head of rule r - n.
    n, width = len(premises), 2 * len(number)
    pairs = [(heads[r - n] ^ 1) * width + heads[r] for r in range(2 * n)]
    # Read backwards, a dict keeps for each pair the first rule stating it.
    first = dict(zip(reversed(pairs), range(2 * n - 1, -1, -1)))
    kept = sorted(first.values())
    out: list[list[int]] = [[] for _ in range(width)]
    for r in kept:
        out[heads[r - n] ^ 1].append(r)
    return _Graph(number, heads, out, kept)


def _implication(premises: tuple[Implication, ...], r: int) -> Implication:
    n = len(premises)
    return premises[r] if r < n else premises[r - n].contrapositive()


def close_contrapositive(
    premises: tuple[Implication, ...]
) -> tuple[Implication, ...]:
    """Premises followed by their contrapositives, in premise order,
    keeping the first implication seen for any (antecedent, consequent)
    pair -- so a premise always beats a derived form."""
    return tuple(
        _implication(premises, r) for r in _implication_graph(premises).kept
    )


def derive(argument: Argument) -> Optional[ProofPath]:
    """Shortest chain from the goal's antecedent to its consequent, or
    None.  Breadth-first over the closed premise list, consulting rules
    in list order, so the result is deterministic."""
    premises = argument.premises
    graph = _implication_graph(premises)
    start = graph.literal(argument.goal.antecedent)
    target = graph.literal(argument.goal.consequent)
    if start is None or target is None:
        return None  # a literal no premise mentions is never reached
    heads, out = graph.heads, graph.out
    came_by = [-1] * len(out)  # the rule that first reached a literal
    came_by[start] = len(heads)  # no rule, but visited
    queue = [start]
    for current in queue:  # the loop reaches what it appends
        for r in out[current]:
            nxt = heads[r]
            if came_by[nxt] >= 0:
                continue
            came_by[nxt] = r
            if nxt == target:
                rules = []
                while nxt != start:
                    rules.append(came_by[nxt])
                    nxt = heads[came_by[nxt] - len(premises)] ^ 1  # its tail
                return ProofPath(
                    tuple(_implication(premises, r) for r in reversed(rules))
                )
            queue.append(nxt)
    return None


def format_proof(path: ProofPath) -> str:
    return "\n".join(f"{step} [{step.origin}]" for step in path.steps) + "\n"


def truth_table_validate(
    argument: Argument
) -> tuple[bool, Optional[dict[str, bool]], int]:
    """Decide validity as a truth table would, without enumerating it.

    Returns ``(valid, countermodel, assignments_checked)``.  The table's
    variables are the premises' variables, as ``_implication_graph``
    numbers them; a goal variable that no premise uses is refused.
    Variables are taken in sorted order and assignments read False-first,
    so the countermodel returned for an invalid argument is always the
    lexicographically least one, and the count is the rows read to reach
    it: its rank plus one, the first variable being the most significant
    bit and True being 1, or all ``2**v`` for a valid argument.

    The argument ``premises |- a -> b`` is invalid exactly when premises
    plus the unit clauses ``a`` and ``~b`` have a model.  Each unset
    variable in turn is made False and its consequences propagated over
    the implication graph, or, if that conflicts, made True.  A
    propagation without conflict leaves untouched only clauses the
    formula already held, so it keeps a satisfiable formula satisfiable
    (Even, Itai & Shamir, 1976): the first variable where both values
    conflict proves the argument valid, and otherwise the assignment is
    the least countermodel.  This takes O(v * (v + rules)) for v
    variables.
    """
    graph = _implication_graph(argument.premises)
    goal = argument.goal
    fresh = {goal.antecedent.variable, goal.consequent.variable}
    fresh -= graph.number.keys()
    if fresh:
        raise LogicError(
            "goal uses variables absent from every premise: "
            + ", ".join(sorted(fresh))
        )
    variables = sorted(graph.number)
    if len(variables) > MAX_VARIABLES:
        raise LogicError(
            f"{len(variables)} variables would need "
            f"2**{len(variables)} assignments; the cap is {MAX_VARIABLES}"
        )
    implied = [[graph.heads[r] for r in rules] for rules in graph.out]
    a, b = graph.literal(goal.antecedent), graph.literal(goal.consequent)
    implied[a ^ 1].append(a)
    implied[b].append(b ^ 1)

    value: list[Optional[bool]] = [None] * len(graph.number)

    def assume(lit: int) -> bool:
        """Make ``lit`` and all it implies true; on a conflict, unset
        what this call set and return False."""
        value[lit >> 1] = not (lit & 1)
        trail = [lit >> 1]
        stack = [lit]
        while stack:
            for nxt in implied[stack.pop()]:
                var, holds = nxt >> 1, not (nxt & 1)
                if value[var] is None:
                    value[var] = holds
                    trail.append(var)
                    stack.append(nxt)
                elif value[var] != holds:
                    for var in trail:
                        value[var] = None
                    return False
        return True

    for name in variables:
        var = graph.number[name]
        if value[var] is None and not (assume(2 * var + 1) or assume(2 * var)):
            return (True, None, 2 ** len(variables))
    countermodel = {name: value[graph.number[name]] for name in variables}
    rank = 0
    for holds in countermodel.values():
        rank = 2 * rank + holds
    return (False, countermodel, rank + 1)


# ---------------------------------------------------------------------------
# argument files


# A variable is a word of the DSL (``dsl._WORD``), spelled again here
# because ``prove`` and ``validate-arg`` must not load ``dsl``.
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
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
