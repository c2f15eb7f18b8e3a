"""Database schemas and question-token linking features.

A schema is the static description of one database: ordered tables,
ordered columns, foreign keys. Ordering matters because grammar rule
indices and FROM-clause synthesis are derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import checks

__all__ = [
    "Column",
    "Table",
    "DatabaseSchema",
    "SchemaError",
    "load_schemas",
    "schema_from_dict",
    "name_tokens",
    "linking_features",
]


class SchemaError(Exception):
    """Malformed schema definition."""


@dataclass(frozen=True)
class Column:
    name: str
    type: str = "text"


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[Column, ...]

    def column(self, name: str) -> Column | None:
        lowered = name.lower()
        for c in self.columns:
            if c.name.lower() == lowered:
                return c
        return None


@dataclass(frozen=True)
class ForeignKey:
    table: str
    column: str
    ref_table: str
    ref_column: str


class DatabaseSchema:
    """Validated, immutable description of one database."""

    def __init__(self, db_id: str, tables: list[Table], foreign_keys: list[ForeignKey]):
        self.db_id = db_id
        self.tables = tuple(tables)
        self.foreign_keys = tuple(foreign_keys)
        self._by_name = {}
        for t in self.tables:
            key = t.name.lower()
            if key in self._by_name:
                raise SchemaError(f"{db_id}: duplicate table name {t.name!r}")
            seen_cols = set()
            for c in t.columns:
                ckey = c.name.lower()
                if ckey in seen_cols:
                    raise SchemaError(f"{db_id}: duplicate column {t.name}.{c.name}")
                seen_cols.add(ckey)
            self._by_name[key] = t
        for fk in self.foreign_keys:
            for tname, cname in ((fk.table, fk.column), (fk.ref_table, fk.ref_column)):
                table = self.table(tname)
                if table is None:
                    raise SchemaError(f"{db_id}: foreign key references missing table {tname!r}")
                if table.column(cname) is None:
                    raise SchemaError(
                        f"{db_id}: foreign key references missing column {tname}.{cname}")

    def table(self, name: str) -> Table | None:
        return self._by_name.get(name.lower())

    def table_index(self, name: str) -> int:
        lowered = name.lower()
        for k, t in enumerate(self.tables):
            if t.name.lower() == lowered:
                return k
        raise SchemaError(f"{self.db_id}: unknown table {name!r}")

    def tables_with_column(self, column_name: str) -> list[Table]:
        lowered = column_name.lower()
        return [t for t in self.tables if any(c.name.lower() == lowered for c in t.columns)]

    def adjacency(self) -> dict[str, list[tuple[str, ForeignKey]]]:
        """Undirected foreign-key graph keyed by lowercase table name.

        Neighbor lists are sorted by schema table order so path search
        is deterministic.
        """
        adj: dict[str, list[tuple[str, ForeignKey]]] = {t.name.lower(): [] for t in self.tables}
        for fk in self.foreign_keys:
            a, b = fk.table.lower(), fk.ref_table.lower()
            adj[a].append((b, fk))
            adj[b].append((a, fk))
        for key in adj:
            adj[key].sort(key=lambda pair: self.table_index(pair[0]))
        return adj

    def to_dict(self) -> dict:
        return {
            "db_id": self.db_id,
            "tables": [
                {"name": t.name,
                 "columns": [{"name": c.name, "type": c.type} for c in t.columns]}
                for t in self.tables
            ],
            "foreign_keys": [
                [f"{fk.table}.{fk.column}", f"{fk.ref_table}.{fk.ref_column}"]
                for fk in self.foreign_keys
            ],
        }


def _parse_endpoint(spec, where: str) -> tuple[str, str]:
    parts = spec.split(".") if isinstance(spec, str) else []
    if len(parts) != 2 or not all(parts):
        raise SchemaError(f"{where}: foreign-key endpoint must be 'table.column', got {spec!r}")
    return parts[0], parts[1]


def _parse_table(raw, k: int, where: str) -> Table:
    name = checks.field(SchemaError, f"{where}, table {k}", raw, "name", str)
    where = f"{where}, table {name!r}"
    raw_cols = checks.of_type(SchemaError, f"{where}: columns", raw.get("columns", []), list)
    if not raw_cols:
        raise SchemaError(f"{where}: needs a non-empty list of columns")
    cols = []
    for j, c in enumerate(raw_cols):
        col_name = checks.field(SchemaError, f"{where}, column {j}", c, "name", str)
        col_type = checks.of_type(SchemaError, f"{where}, column {col_name!r}: type",
                                  c.get("type", "text"), str)
        cols.append(Column(col_name, col_type))
    return Table(name, tuple(cols))


def schema_from_dict(data: dict, where: str = "<memory>") -> DatabaseSchema:
    """Build a schema from its JSON object; ``where`` names the source
    in errors, which also name the schema and the table."""
    db_id = checks.field(SchemaError, where, data, "db_id", str)
    source, where = where, f"{where}: schema {db_id!r}"
    raw_tables = checks.field(SchemaError, where, data, "tables", list)
    if not raw_tables:
        raise SchemaError(f"{where}: needs at least one table")
    tables = [_parse_table(t, k, where) for k, t in enumerate(raw_tables)]
    fks = []
    for pair in checks.pairs(SchemaError, f"{where}: foreign_keys",
                             data.get("foreign_keys", [])):
        (t1, c1) = _parse_endpoint(pair[0], where)
        (t2, c2) = _parse_endpoint(pair[1], where)
        fks.append(ForeignKey(t1, c1, t2, c2))
    try:
        return DatabaseSchema(db_id, tables, fks)
    except SchemaError as err:     # a duplicate name or a dangling foreign key
        raise SchemaError(f"{source}: {err}") from err


def load_schemas(path: str | Path) -> dict[str, DatabaseSchema]:
    """Read a JSON file holding either one schema or a list of schemas."""
    data = checks.read_json(SchemaError, path)
    entries = data if isinstance(data, list) else [data]
    out: dict[str, DatabaseSchema] = {}
    for k, entry in enumerate(entries):
        where = f"{path}, entry {k}" if isinstance(data, list) else str(path)
        schema = schema_from_dict(entry, where=where)
        if schema.db_id in out:
            raise SchemaError(f"{path}: duplicate db_id {schema.db_id!r}")
        out[schema.db_id] = schema
    return out


# ---------------------------------------------------------------------------
# linking features


def name_tokens(name: str) -> list[str]:
    """Lowercased word pieces of a schema item name."""
    return [piece for piece in name.lower().replace("_", " ").split() if piece]


def linking_features(token: str, schema_name: str) -> tuple[int, int]:
    """(exact_match, partial_match) between a question token and a name.

    Partial fires only for multi-word names where the token equals one
    word piece; exact and partial never fire together.
    """
    token = token.lower()
    lowered = schema_name.lower()
    if token == lowered:
        return 1, 0
    if token not in lowered:         # every word piece is a substring of the name
        return 0, 0
    pieces = name_tokens(schema_name)
    if len(pieces) > 1 and token in pieces:
        return 0, 1
    return 0, 0
