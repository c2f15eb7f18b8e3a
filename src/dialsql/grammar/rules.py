"""Production system for SQL abstract syntax trees.

A query is a tree of productions; flattening the tree in pre-order
(node first, children left to right) gives an action sequence that
determines the tree uniquely. The decoder emits such sequences one
production at a time, restricted to the rules whose left-hand side is
the current frontier nonterminal.

Rules come in two groups: a fixed schema-agnostic set, and per-database
Col/Tab rules instantiated from the schema.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

__all__ = [
    "NonTerminal",
    "Production",
    "AST",
    "Grammar",
    "GrammarError",
    "StructureError",
    "DerivationError",
    "IncompleteSequenceError",
    "SequenceLengthError",
    "Derivation",
    "build_grammar",
    "agnostic_productions",
    "ast_to_actions",
    "actions_to_ast",
    "extract_subtrees",
    "format_actions",
    "AGG_FUNCTIONS",
    "COMPARISON_OPS",
]


class GrammarError(Exception):
    """Base class for grammar-level failures."""


class StructureError(GrammarError):
    """An AST violates the production system's shape constraints."""


class DerivationError(GrammarError):
    """An action cannot be applied at its position in the derivation."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message if step is None else f"step {step}: {message}")
        self.step = step


class IncompleteSequenceError(GrammarError):
    """The action sequence ended with frontier nonterminals unexpanded."""


class SequenceLengthError(GrammarError):
    """Actions remain after the derivation completed."""


class NonTerminal(enum.Enum):
    START = "Start"
    ROOT = "Root"
    SELECT = "Select"
    AGG = "Agg"
    ORDER = "Order"
    FILTER = "Filter"
    COL = "Col"
    TAB = "Tab"
    VALUE = "Value"

    def __str__(self) -> str:
        return self.value

    # Members are singletons: identity hashing is exact and runs in C,
    # where Enum's default hashes the member name in Python. Production
    # hashing, on every embedding-cache and rule-index lookup, calls it.
    __hash__ = object.__hash__


Symbol = Union[NonTerminal, str]

AGG_FUNCTIONS = ("none", "max", "min", "count", "sum", "avg")
COMPARISON_OPS = ("=", "!=", ">", "<", ">=", "<=", "like")


@dataclass(frozen=True)
class Production:
    """One grammar rule; also the unit the decoder emits (an action)."""

    lhs: NonTerminal
    rhs: tuple[Symbol, ...]

    # Every embedding-cache, rule-index and list-key lookup hashes a
    # production, so its hash is computed once, and so is whether it is
    # a Col/Tab rule (``schema_specific``), which the decoder asks per
    # candidate; equality is still the dataclass's comparison of lhs and
    # rhs.
    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.lhs, self.rhs)))
        object.__setattr__(self, "schema_specific", self.lhs in (NonTerminal.COL,
                                                                 NonTerminal.TAB))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt from its fields, so that an unpickled production hashes
        # by the NonTerminal identities of its new process.
        return Production, (self.lhs, self.rhs)

    def rhs_nonterminals(self) -> tuple[NonTerminal, ...]:
        return tuple(s for s in self.rhs if isinstance(s, NonTerminal))

    def __str__(self) -> str:
        return f"{self.lhs} -> {' '.join(str(s) for s in self.rhs)}"


def format_actions(actions: Sequence[Production]) -> str:
    """One action per line, in the grammar-dump notation."""
    return "\n".join(str(a) for a in actions)


@dataclass(frozen=True)
class AST:
    """A production application plus one subtree per rhs nonterminal."""

    production: Production
    children: tuple["AST", ...] = ()

    def __post_init__(self):
        expected = self.production.rhs_nonterminals()
        if len(self.children) != len(expected):
            raise StructureError(
                f"{self.production}: expected {len(expected)} children, got {len(self.children)}")
        for child, nt in zip(self.children, expected):
            if child.production.lhs is not nt:
                raise StructureError(
                    f"{self.production}: child rooted at {child.production.lhs}, expected {nt}")

    @property
    def lhs(self) -> NonTerminal:
        return self.production.lhs

    def terminals(self) -> tuple[str, ...]:
        return tuple(s for s in self.production.rhs if isinstance(s, str))


def agnostic_productions() -> list[Production]:
    """The fixed schema-agnostic rule set, in stable order."""
    nt = NonTerminal
    rules = [
        Production(nt.START, (nt.ROOT,)),
        Production(nt.ROOT, (nt.SELECT,)),
        Production(nt.ROOT, (nt.SELECT, nt.FILTER)),
        Production(nt.ROOT, (nt.SELECT, nt.ORDER)),
        Production(nt.ROOT, (nt.SELECT, nt.FILTER, nt.ORDER)),
        Production(nt.SELECT, (nt.AGG,)),
        Production(nt.SELECT, (nt.AGG, nt.AGG)),
        Production(nt.SELECT, (nt.AGG, nt.AGG, nt.AGG)),
    ]
    rules += [Production(nt.AGG, (f, nt.COL, nt.TAB)) for f in AGG_FUNCTIONS]
    rules += [
        Production(nt.ORDER, ("asc", nt.AGG)),
        Production(nt.ORDER, ("desc", nt.AGG)),
        Production(nt.ORDER, ("asc", "limit", nt.AGG)),
        Production(nt.ORDER, ("desc", "limit", nt.AGG)),
        Production(nt.FILTER, ("and", nt.FILTER, nt.FILTER)),
        Production(nt.FILTER, ("or", nt.FILTER, nt.FILTER)),
    ]
    rules += [Production(nt.FILTER, (op, nt.AGG, nt.VALUE)) for op in COMPARISON_OPS]
    rules.append(Production(nt.FILTER, ("between", nt.AGG, nt.VALUE, nt.VALUE)))
    rules.append(Production(nt.VALUE, ("value",)))
    return rules


class Grammar:
    """An indexed production set bound to one database schema."""

    def __init__(self, productions: list[Production], schema):
        self.productions = list(productions)
        self.schema = schema
        self.index: dict[Production, int] = {p: k for k, p in enumerate(self.productions)}
        if len(self.index) != len(self.productions):
            raise GrammarError("duplicate productions")
        self.by_lhs: dict[NonTerminal, list[Production]] = {nt: [] for nt in NonTerminal}
        for p in self.productions:
            self.by_lhs[p.lhs].append(p)

    def __len__(self) -> int:
        return len(self.productions)

    def __contains__(self, production: Production) -> bool:
        return production in self.index

    def expansions(self, nt: NonTerminal) -> list[Production]:
        return self.by_lhs[nt]

    def dump(self) -> str:
        """One production per line; schema-specific rules last."""
        return "\n".join(str(p) for p in self.productions) + "\n"


def build_grammar(schema) -> Grammar:
    """Instantiate the grammar for one database.

    Col rules are deduplicated by column name across tables (the rule
    carries only the name); Tab rules follow, one per table. Ordering
    follows the schema file, so indices are stable per schema.
    """
    if not schema.tables or any(not t.columns for t in schema.tables):
        raise GrammarError(f"schema {schema.db_id!r} needs at least one table with columns")
    rules = agnostic_productions()
    seen: set[str] = set()
    for table in schema.tables:
        for column in table.columns:
            key = column.name.lower()
            if key not in seen:
                seen.add(key)
                rules.append(Production(NonTerminal.COL, (column.name,)))
    for table in schema.tables:
        rules.append(Production(NonTerminal.TAB, (table.name,)))
    return Grammar(rules, schema)


# ---------------------------------------------------------------------------
# tree <-> sequence


def _preorder(node: AST) -> list[Production]:
    """Production sequence of a subtree rooted anywhere, node first."""
    out: list[Production] = []

    def walk(n: AST) -> None:
        out.append(n.production)
        for child in n.children:
            walk(child)

    walk(node)
    return out


def ast_to_actions(ast: AST) -> list[Production]:
    """Pre-order flattening; inverse of :func:`actions_to_ast`."""
    if ast.lhs is not NonTerminal.START:
        raise StructureError(f"tree must be rooted at Start, got {ast.lhs}")
    return _preorder(ast)


def actions_to_ast(actions: Sequence[Production], grammar: Grammar | None = None) -> AST:
    """Rebuild the unique tree a pre-order action sequence denotes."""
    if not actions:
        raise IncompleteSequenceError("empty action sequence")

    def build(pos: int, expect: NonTerminal) -> tuple[AST, int]:
        if pos >= len(actions):
            raise IncompleteSequenceError(
                f"sequence ended while expanding {expect} at step {pos}")
        prod = actions[pos]
        if prod.lhs is not expect:
            raise DerivationError(f"expected a {expect} production, got {prod}", step=pos)
        if grammar is not None and prod not in grammar:
            raise DerivationError(f"production not in grammar: {prod}", step=pos)
        children = []
        next_pos = pos + 1
        for sym in prod.rhs:
            if isinstance(sym, NonTerminal):
                child, next_pos = build(next_pos, sym)
                children.append(child)
        return AST(prod, tuple(children)), next_pos

    tree, end = build(0, NonTerminal.START)
    if end != len(actions):
        raise SequenceLengthError(f"{len(actions) - end} actions left after derivation completed")
    return tree


class Derivation:
    """Incremental left-to-right depth-first derivation state."""

    def __init__(self, grammar: Grammar):
        self.grammar = grammar
        self.actions: list[Production] = []
        self._stack: list[NonTerminal] = [NonTerminal.START]

    @property
    def is_complete(self) -> bool:
        return not self._stack

    def frontier(self) -> NonTerminal | None:
        return self._stack[-1] if self._stack else None

    def apply(self, action: Production) -> None:
        if not self._stack:
            raise DerivationError("derivation already complete", step=len(self.actions))
        if action.lhs is not self._stack[-1]:
            raise DerivationError(
                f"frontier is {self._stack[-1]}, action expands {action.lhs}",
                step=len(self.actions))
        if action not in self.grammar:
            raise DerivationError(f"production not in grammar: {action}",
                                  step=len(self.actions))
        self._stack.pop()
        for sym in reversed(action.rhs):
            if isinstance(sym, NonTerminal):
                self._stack.append(sym)
        self.actions.append(action)

    def apply_sequence(self, actions: Iterable[Production]) -> None:
        for a in actions:
            self.apply(a)


# ---------------------------------------------------------------------------
# subtrees

_SUBTREE_ROOTS = (NonTerminal.SELECT, NonTerminal.FILTER, NonTerminal.ORDER, NonTerminal.AGG)


def extract_subtrees(actions: Sequence[Production]) -> list[tuple[NonTerminal, tuple[Production, ...]]]:
    """Pre-order subsequences rooted at Select/Filter/Order/Agg nodes.

    Duplicates (by sequence equality) are dropped; first occurrence
    order is kept.
    """
    actions_to_ast(actions)  # validates the sequence

    spans: list[tuple[int, int]] = []

    def consume(pos: int) -> int:
        prod = actions[pos]
        start = pos
        pos += 1
        for sym in prod.rhs:
            if isinstance(sym, NonTerminal):
                pos = consume(pos)
        if prod.lhs in _SUBTREE_ROOTS:
            spans.append((start, pos))
        return pos

    consume(0)
    spans.sort()
    out: list[tuple[NonTerminal, tuple[Production, ...]]] = []
    seen: set[tuple[Production, ...]] = set()
    for lo, hi in spans:
        seq = tuple(actions[lo:hi])
        if seq not in seen:
            seen.add(seq)
            out.append((seq[0].lhs, seq))
    return out

