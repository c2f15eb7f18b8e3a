"""Rendering ASTs to SQL text and parsing the supported subset back.

The grammar drops FROM clauses, literal values and LIMIT counts, so
both directions apply fixed conventions:

- FROM is synthesized by joining the referenced tables along declared
  foreign keys (shortest path, ties broken by schema table order).
- Every Value renders as the placeholder literal 1; parsing accepts any
  literal.
- LIMIT is always LIMIT 1 (the superlative pattern).
- Under an ORDER BY with LIMIT, a bare SELECT column denotes the
  superlative aggregate: it parses as max for DESC and min for ASC, and
  those aggregates render bare again. canonicalize folds a plain `none`
  in that position onto the same aggregate, which is what makes
  parse(render(t)) equal canonicalize(t) for every tree t.

Compound WHERE operands are parenthesized whenever they are themselves
and/or nodes, so the written string pins down the exact tree shape.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..schema import DatabaseSchema, Table
from .rules import (
    AGG_FUNCTIONS,
    AST,
    COMPARISON_OPS,
    GrammarError,
    NonTerminal,
    Production,
    _preorder,
)

__all__ = [
    "UnsupportedSQLError",
    "JoinPathError",
    "ast_to_sql",
    "sql_to_ast",
    "canonicalize",
]

_NT = NonTerminal


class UnsupportedSQLError(GrammarError):
    """The SQL uses a construct outside the supported subset."""

    def __init__(self, construct: str, detail: str = ""):
        message = f"unsupported SQL construct: {construct}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.construct = construct


class JoinPathError(GrammarError):
    """Referenced tables cannot be connected through foreign keys."""


# ---------------------------------------------------------------------------
# tree accessors


def _split_root(root: AST) -> tuple[AST, AST | None, AST | None]:
    select = filt = order = None
    for child in root.children:
        if child.lhs is _NT.SELECT:
            select = child
        elif child.lhs is _NT.FILTER:
            filt = child
        elif child.lhs is _NT.ORDER:
            order = child
    assert select is not None
    return select, filt, order


def _order_terms(order: AST) -> tuple[str, bool]:
    terms = order.terminals()
    return terms[0], "limit" in terms


def _superlative(order: AST | None) -> str | None:
    """The aggregate a bare SELECT column denotes under this ORDER clause."""
    if order is None:
        return None
    direction, limited = _order_terms(order)
    if not limited:
        return None
    return "max" if direction == "desc" else "min"


def _agg_parts(agg: AST) -> tuple[str, str, str]:
    f = agg.terminals()[0]
    col = agg.children[0].terminals()[0]
    tab = agg.children[1].terminals()[0]
    return f, col, tab


def _serial(node: AST) -> str:
    return "\n".join(str(p) for p in _preorder(node))


# ---------------------------------------------------------------------------
# rendering


def _referenced_tables(root: AST, schema: DatabaseSchema) -> list[str]:
    """Table names referenced in the query, in first-use order."""
    seen: dict[str, str] = {}

    def walk(node: AST) -> None:
        if node.lhs is _NT.TAB:
            name = node.terminals()[0]
            table = schema.table(name)
            rendered = table.name if table is not None else name
            seen.setdefault(rendered.lower(), rendered)
            return
        for child in node.children:
            walk(child)

    walk(root)
    return list(seen.values())


def _render_from(tables: list[str], schema: DatabaseSchema) -> str:
    if len(tables) == 1:
        return tables[0]
    adjacency = schema.adjacency()
    for name in tables:
        if name.lower() not in adjacency:
            raise JoinPathError(f"table {name!r} not in schema {schema.db_id!r}")
    connected = {tables[0].lower()}
    clause = tables[0]
    for target in tables[1:]:
        key = target.lower()
        if key in connected:
            continue
        # multi-source BFS from everything already joined
        frontier = sorted(connected, key=schema.table_index)
        parents: dict[str, tuple[str, object]] = {t: None for t in frontier}
        found = False
        while frontier and not found:
            nxt = []
            for node in frontier:
                for neighbor, fk in adjacency[node]:
                    if neighbor in parents:
                        continue
                    parents[neighbor] = (node, fk)
                    if neighbor == key:
                        found = True
                        break
                    nxt.append(neighbor)
                if found:
                    break
            frontier = nxt
        if not found:
            raise JoinPathError(
                f"no foreign-key path joining {target!r} in schema {schema.db_id!r}")
        path = []
        node = key
        while parents[node] is not None:
            prev, fk = parents[node]
            path.append((node, fk))
            node = prev
        for table_key, fk in reversed(path):
            if table_key in connected:
                continue
            connected.add(table_key)
            table = schema.table(table_key)
            clause += (f" JOIN {table.name} ON "
                       f"{fk.table}.{fk.column} = {fk.ref_table}.{fk.ref_column}")
    return clause


def _render_col(col: str, tab: str, qualify: bool) -> str:
    return f"{tab}.{col}" if qualify else col


def _render_agg(agg: AST, qualify: bool, bare_f: str | None = None) -> str:
    f, col, tab = _agg_parts(agg)
    col_sql = _render_col(col, tab, qualify)
    if f == "none" or f == bare_f:
        return col_sql
    return f"{f}({col_sql})"


def _render_filter(filt: AST, qualify: bool) -> str:
    op = filt.terminals()[0]
    if op in ("and", "or"):
        rendered = []
        for child in filt.children:
            text = _render_filter(child, qualify)
            if child.terminals()[0] in ("and", "or"):
                text = f"({text})"
            rendered.append(text)
        return f" {op.upper()} ".join(rendered)
    if op == "between":
        return f"{_render_agg(filt.children[0], qualify)} BETWEEN 1 AND 1"
    keyword = "LIKE" if op == "like" else op
    return f"{_render_agg(filt.children[0], qualify)} {keyword} 1"


def _render_order(order: AST, qualify: bool) -> str:
    direction, limited = _order_terms(order)
    text = f"{_render_agg(order.children[0], qualify)} {direction.upper()}"
    if limited:
        text += " LIMIT 1"
    return text


def _render_root(root: AST, schema: DatabaseSchema) -> str:
    select, filt, order = _split_root(root)
    tables = _referenced_tables(root, schema)
    qualify = len(tables) > 1
    bare_f = _superlative(order)
    items = ", ".join(_render_agg(a, qualify, bare_f) for a in select.children)
    parts = [f"SELECT {items}", f"FROM {_render_from(tables, schema)}"]
    if filt is not None:
        parts.append(f"WHERE {_render_filter(filt, qualify)}")
    if order is not None:
        parts.append(f"ORDER BY {_render_order(order, qualify)}")
    return " ".join(parts)


def ast_to_sql(ast: AST, schema: DatabaseSchema) -> str:
    """Deterministic SQL text for a tree rooted at Start or Root."""
    if ast.lhs is _NT.START:
        ast = ast.children[0]
    if ast.lhs is not _NT.ROOT:
        raise GrammarError(f"cannot render a tree rooted at {ast.lhs}")
    return _render_root(ast, schema)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*("
    r">=|<=|!=|<>|=|>|<|\(|\)|,|\.|\*|-"
    r"|'[^']*'"
    r"|\"[^\"]*\""
    r"|[A-Za-z_][A-Za-z0-9_]*"
    r"|\d+(?:\.\d+)?"
    r")")

_REJECTED_KEYWORDS = {
    "group": "GROUP BY",
    "having": "HAVING",
    "union": "UNION",
    "intersect": "INTERSECT",
    "except": "EXCEPT",
    "distinct": "DISTINCT",
}

_AGG_KEYWORDS = {f for f in AGG_FUNCTIONS if f != "none"}


def _tokenize(sql: str) -> list[str]:
    tokens = []
    pos = 0
    text = sql.strip().rstrip(";")
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or not m.group(1):
            raise UnsupportedSQLError("lexical", f"cannot tokenize near {text[pos:pos + 12]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


@dataclass
class _ColRef:
    table: str | None
    column: str


class _Parser:
    def __init__(self, tokens: list[str], schema: DatabaseSchema):
        self.tokens = tokens
        self.schema = schema
        self.pos = 0

    # -- token plumbing

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def peek_kw(self) -> str | None:
        tok = self.peek()
        return tok.lower() if tok is not None else None

    def advance(self) -> str:
        tok = self.peek()
        if tok is None:
            raise UnsupportedSQLError("syntax", "unexpected end of input")
        self.pos += 1
        return tok

    def accept_kw(self, *keywords: str) -> str | None:
        if self.peek_kw() in keywords:
            return self.advance().lower()
        return None

    def expect_kw(self, keyword: str) -> None:
        if self.accept_kw(keyword) is None:
            raise UnsupportedSQLError("syntax", f"expected {keyword.upper()}, got {self.peek()!r}")

    def reject_keyword(self) -> None:
        kw = self.peek_kw()
        if kw in _REJECTED_KEYWORDS:
            raise UnsupportedSQLError(_REJECTED_KEYWORDS[kw])

    # -- grammar productions

    def parse_statement(self) -> AST:
        root = self.parse_root()
        self.reject_keyword()
        if self.peek() is not None:
            raise UnsupportedSQLError("syntax", f"trailing input at {self.peek()!r}")
        return AST(Production(_NT.START, (_NT.ROOT,)), (root,))

    def parse_root(self) -> AST:
        self.expect_kw("select")
        self.reject_keyword()
        raw_items = [self.parse_select_item()]
        while self.accept_kw(","):
            raw_items.append(self.parse_select_item())
        if len(raw_items) > 3:
            raise UnsupportedSQLError("wide SELECT", f"{len(raw_items)} columns, at most 3")
        self.expect_kw("from")
        from_tables = self.parse_from()

        filt = None
        if self.accept_kw("where"):
            filt = self.parse_or(from_tables)

        order = None
        if self.peek_kw() == "order":
            self.advance()
            self.expect_kw("by")
            order = self.parse_order(from_tables)
        self.reject_keyword()

        bare_f = _superlative(order)
        aggs = []
        for f, ref in raw_items:
            if f == "none" and bare_f is not None:
                f = bare_f
            aggs.append(self.make_agg(f, ref, from_tables))
        select = AST(Production(_NT.SELECT, (_NT.AGG,) * len(aggs)), tuple(aggs))

        rhs: tuple = (_NT.SELECT,)
        children: tuple = (select,)
        if filt is not None:
            rhs += (_NT.FILTER,)
            children += (filt,)
        if order is not None:
            rhs += (_NT.ORDER,)
            children += (order,)
        return AST(Production(_NT.ROOT, rhs), children)

    def parse_select_item(self) -> tuple[str, _ColRef]:
        kw = self.peek_kw()
        if kw in _AGG_KEYWORDS:
            f = self.advance().lower()
            self.expect_kw("(")
            if self.peek() == "*":
                raise UnsupportedSQLError("count(*)", "star arguments are not supported")
            ref = self.parse_colref()
            self.expect_kw(")")
            return f, ref
        self.reject_keyword()
        return "none", self.parse_colref()

    def parse_colref(self) -> _ColRef:
        first = self.advance()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", first):
            raise UnsupportedSQLError("syntax", f"expected a column name, got {first!r}")
        if self.peek() == ".":
            self.advance()
            second = self.advance()
            return _ColRef(first, second)
        return _ColRef(None, first)

    def parse_from(self) -> list[Table]:
        tables = [self.parse_table_name()]
        while True:
            if self.accept_kw(","):
                tables.append(self.parse_table_name())
            elif self.peek_kw() == "join":
                self.advance()
                tables.append(self.parse_table_name())
                self.expect_kw("on")
                left = self.parse_colref()
                self.expect_kw("=")
                right = self.parse_colref()
                for ref in (left, right):
                    if ref.table is None:
                        raise UnsupportedSQLError(
                            "syntax", "JOIN conditions need qualified columns")
                    self.resolve(ref, tables)
            else:
                break
        return tables

    def parse_table_name(self) -> Table:
        name = self.advance()
        table = self.schema.table(name)
        if table is None:
            raise UnsupportedSQLError("unknown table", name)
        return table

    def parse_or(self, from_tables: list[Table]) -> AST:
        left = self.parse_and(from_tables)
        while self.accept_kw("or"):
            right = self.parse_and(from_tables)
            left = AST(Production(_NT.FILTER, ("or", _NT.FILTER, _NT.FILTER)), (left, right))
        return left

    def parse_and(self, from_tables: list[Table]) -> AST:
        left = self.parse_condition(from_tables)
        while self.accept_kw("and"):
            right = self.parse_condition(from_tables)
            left = AST(Production(_NT.FILTER, ("and", _NT.FILTER, _NT.FILTER)), (left, right))
        return left

    def parse_condition(self, from_tables: list[Table]) -> AST:
        if self.accept_kw("("):
            inner = self.parse_or(from_tables)
            self.expect_kw(")")
            return inner
        f, ref = self.parse_select_item()
        agg = self.make_agg(f, ref, from_tables)

        if self.accept_kw("not"):
            self.expect_kw("in")
            raise UnsupportedSQLError("IN subquery")
        if self.accept_kw("in"):
            raise UnsupportedSQLError("IN subquery")
        if self.accept_kw("between"):
            v1 = self.parse_value()
            self.expect_kw("and")
            v2 = self.parse_value()
            return AST(Production(_NT.FILTER, ("between", _NT.AGG, _NT.VALUE, _NT.VALUE)),
                       (agg, v1, v2))
        if self.accept_kw("like"):
            return AST(Production(_NT.FILTER, ("like", _NT.AGG, _NT.VALUE)),
                       (agg, self.parse_value()))
        op = self.peek()
        if op == "<>":
            op = "!="
            self.advance()
        elif op in COMPARISON_OPS:
            self.advance()
        else:
            raise UnsupportedSQLError("syntax", f"expected a comparison, got {op!r}")
        return AST(Production(_NT.FILTER, (op, _NT.AGG, _NT.VALUE)), (agg, self.parse_value()))

    def parse_value(self) -> AST:
        tok = self.peek()
        if tok == "-":
            self.advance()
            tok = self.peek()
        if tok is None:
            raise UnsupportedSQLError("syntax", "expected a literal value")
        if re.fullmatch(r"\d+(?:\.\d+)?", tok) or tok[0] in "'\"":
            self.advance()
            return AST(Production(_NT.VALUE, ("value",)))
        raise UnsupportedSQLError("syntax", f"expected a literal value, got {tok!r}")

    def parse_order(self, from_tables: list[Table]) -> AST:
        f, ref = self.parse_select_item()
        agg = self.make_agg(f, ref, from_tables)
        direction = self.accept_kw("asc", "desc") or "asc"
        limited = False
        if self.accept_kw("limit"):
            count = self.advance()
            if count != "1":
                raise UnsupportedSQLError("LIMIT", f"only LIMIT 1 is supported, got {count}")
            limited = True
        if self.peek() == ",":
            raise UnsupportedSQLError("multiple ORDER BY keys")
        rhs = (direction, "limit", _NT.AGG) if limited else (direction, _NT.AGG)
        return AST(Production(_NT.ORDER, rhs), (agg,))

    # -- name resolution

    def resolve(self, ref: _ColRef, from_tables: list[Table]) -> tuple[str, Table]:
        if ref.table is not None:
            table = self.schema.table(ref.table)
            if table is None:
                raise UnsupportedSQLError("unknown table", ref.table)
            column = table.column(ref.column)
            if column is None:
                raise UnsupportedSQLError("unknown column", f"{ref.table}.{ref.column}")
        else:
            owners = [t for t in from_tables if t.column(ref.column) is not None]
            if not owners:
                raise UnsupportedSQLError("unknown column", ref.column)
            if len(owners) > 1:
                raise UnsupportedSQLError("ambiguous column", ref.column)
            table = owners[0]
            column = table.column(ref.column)
        # the Col rule name is deduplicated schema-wide; use its casing
        canonical = self.schema.tables_with_column(column.name)[0].column(column.name).name
        return canonical, table

    def make_agg(self, f: str, ref: _ColRef, from_tables: list[Table]) -> AST:
        col_name, table = self.resolve(ref, from_tables)
        col = AST(Production(_NT.COL, (col_name,)))
        tab = AST(Production(_NT.TAB, (table.name,)))
        return AST(Production(_NT.AGG, (f, _NT.COL, _NT.TAB)), (col, tab))


def sql_to_ast(sql: str, schema: DatabaseSchema) -> AST:
    """Parse supported SQL into a Start-rooted tree.

    Raises :class:`UnsupportedSQLError` naming the offending construct
    when the query falls outside the subset.
    """
    parser = _Parser(_tokenize(sql), schema)
    return parser.parse_statement()


# ---------------------------------------------------------------------------
# canonical form


def canonicalize(ast: AST) -> AST:
    """Normal form for set-semantics comparison. Idempotent.

    Folds `none` SELECT aggregates onto the superlative implied by a
    LIMIT order (those two trees print identically), then sorts the
    order-insensitive sibling groups: SELECT's Agg children and the two
    operands of and/or. ORDER BY children are never reordered.
    """

    def walk(node: AST, bare_f: str | None) -> AST:
        prod = node.production
        if node.lhs is _NT.ROOT:
            _select, _filt, order = _split_root(node)
            inherited = _superlative(order)
            children = tuple(walk(c, inherited) for c in node.children)
            return AST(prod, children)
        if node.lhs is _NT.SELECT:
            children = tuple(walk(c, bare_f) for c in node.children)
            if len(children) > 1:
                children = tuple(sorted(children, key=_serial))
            return AST(prod, children)
        if node.lhs is _NT.AGG:
            f = node.terminals()[0]
            children = tuple(walk(c, None) for c in node.children)
            if bare_f is not None and f == "none":
                prod = Production(_NT.AGG, (bare_f, _NT.COL, _NT.TAB))
            return AST(prod, children)
        if node.lhs is _NT.FILTER and node.terminals()[0] in ("and", "or"):
            children = tuple(walk(c, None) for c in node.children)
            children = tuple(sorted(children, key=_serial))
            return AST(prod, children)
        # superlative folding applies only to SELECT items
        children = tuple(walk(c, None) for c in node.children)
        return AST(prod, children)

    return walk(ast, None)
