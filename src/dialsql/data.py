"""Corpus loading, vocabulary, embeddings, splits, and synthetic data.

Dialogue files are JSON lists:

    [{"dialogue_id": str, "db_id": str,
      "turns": [{"question": str, "sql": str, "phenomenon": str?}]}]

Gold SQL outside the supported subset does not fail the load; the
example is kept with supported=false so context windows stay intact.
"""

from __future__ import annotations

import json
import logging
import string
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .grammar import (
    AST,
    AGG_FUNCTIONS,
    COMPARISON_OPS,
    GrammarError,
    NonTerminal,
    Production,
    ast_to_actions,
    ast_to_sql,
    build_grammar,
    sql_to_ast,
)
from . import checks
from .schema import DatabaseSchema, load_schemas, name_tokens, schema_from_dict

__all__ = [
    "DataError",
    "Example",
    "Dialogue",
    "Corpus",
    "Vocabulary",
    "tokenize",
    "load_corpus",
    "build_vocab",
    "load_embeddings",
    "ood_split",
    "gen_synthetic",
    "synthetic_schemas",
    "write_dialogues",
    "write_schemas",
]

logger = logging.getLogger("dialsql.data")


class DataError(Exception):
    """A corpus or embedding file violates its format."""


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class Example:
    dialogue_id: str
    turn_index: int                      # 1-based, contiguous within a dialogue
    question: tuple[str, ...]
    gold_sql: str
    gold_actions: tuple[Production, ...] | None
    phenomenon: str | None = None
    supported: bool = True
    scored: bool = True                  # False for context-only turns of a split

    def key(self) -> tuple[str, int]:
        return (self.dialogue_id, self.turn_index)


@dataclass
class Dialogue:
    dialogue_id: str
    db_id: str
    turns: list[Example]


@dataclass
class Corpus:
    dialogues: list[Dialogue]
    schemas: dict[str, DatabaseSchema]

    def examples(self):
        for d in self.dialogues:
            yield from d.turns

    def supported_examples(self):
        return [e for e in self.examples() if e.supported]

    def coverage(self) -> float:
        total = sum(len(d.turns) for d in self.dialogues)
        if total == 0:
            return 0.0
        return len(self.supported_examples()) / total


# ---------------------------------------------------------------------------
# Tokenization and vocabulary


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace split, detaching trailing punctuation."""
    out: list[str] = []
    for raw in text.lower().split():
        trail: list[str] = []
        while len(raw) > 1 and raw[-1] in string.punctuation:
            trail.append(raw[-1])
            raw = raw[:-1]
        out.append(raw)
        out.extend(reversed(trail))
    return out


class Vocabulary:
    """Token-index bijection with reserved pad/unk/bos entries."""

    PAD, UNK, BOS = "<pad>", "<unk>", "<bos>"
    RESERVED = (PAD, UNK, BOS)

    def __init__(self, tokens: list[str]):
        self._tokens = list(self.RESERVED) + [t for t in tokens if t not in self.RESERVED]
        self._index = {t: i for i, t in enumerate(self._tokens)}
        if len(self._index) != len(self._tokens):
            raise DataError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    @property
    def unk_index(self) -> int:
        return 1

    def index(self, token: str) -> int:
        return self._index.get(token, self.unk_index)

    def to_list(self) -> list[str]:
        return list(self._tokens[len(self.RESERVED):])


def build_vocab(corpus: Corpus, min_freq: int = 1) -> Vocabulary:
    """Corpus tokens at or above min_freq plus all schema-name tokens.

    Order is deterministic: frequency descending, ties lexicographic;
    schema tokens not already present follow in sorted order.
    """
    counts = Counter()
    for ex in corpus.examples():
        counts.update(ex.question)
    kept = sorted((t for t, n in counts.items() if n >= min_freq),
                  key=lambda t: (-counts[t], t))
    schema_tokens = set()
    for schema in corpus.schemas.values():
        for table in schema.tables:
            schema_tokens.update(name_tokens(table.name))
            for col in table.columns:
                schema_tokens.update(name_tokens(col.name))
    extra = sorted(schema_tokens - set(kept))
    return Vocabulary(kept + extra)


def load_embeddings(path: str | Path, vocab: Vocabulary, matrix: np.ndarray) -> float:
    """Overwrite rows of ``matrix`` with vectors from a text file.

    Each line is a word followed by the vector, space-separated. Words
    outside the vocabulary are skipped; rows of absent words keep their
    existing (seeded) values, and every value written must be finite.
    Returns the fraction of vocabulary rows that were set, each once.
    """
    path = Path(path)
    dim = matrix.shape[1]
    found = set()
    for lineno, line in enumerate(checks.text_lines(DataError, path), start=1):
        parts = line.rstrip("\r\n").split(" ")
        if len(parts) <= 1 and not line.strip():
            continue
        word, values = parts[0], parts[1:]
        if len(values) != dim:
            raise DataError(
                f"{path}:{lineno}: expected {dim} values, got {len(values)}")
        if word in vocab:
            try:
                row = np.array([float(v) for v in values], dtype=matrix.dtype)
            except ValueError as err:
                raise DataError(f"{path}:{lineno}: {err}") from err
            if not np.isfinite(row).all():
                raise DataError(f"{path}:{lineno}: {word!r} has a non-finite value")
            matrix[vocab.index(word)] = row
            found.add(word)
    return len(found) / len(vocab)


# ---------------------------------------------------------------------------
# Loading


def load_corpus(dialogues_path: str | Path, schemas_path: str | Path) -> Corpus:
    """Read dialogues and schemas; derive gold action sequences.

    Queries the grammar cannot express are kept with supported=false
    and logged; the per-file coverage fraction is logged at the end.
    """
    schemas = load_schemas(schemas_path)
    records = checks.of_type(DataError, dialogues_path,
                             checks.read_json(DataError, dialogues_path), list)

    dialogues = []
    first_record: dict[str, int] = {}    # dialogue id -> its record number
    for rec_no, rec in enumerate(records):
        where = f"{dialogues_path}: dialogue #{rec_no}"
        checks.keyed(DataError, where, rec, ("dialogue_id", "db_id", "turns"))
        dialogue_id, db_id = str(rec["dialogue_id"]), rec["db_id"]
        if dialogue_id in first_record:
            raise DataError(f"{where}: dialogue_id {dialogue_id!r} repeats "
                            f"dialogue #{first_record[dialogue_id]}")
        first_record[dialogue_id] = rec_no
        if not isinstance(db_id, str) or db_id not in schemas:
            raise DataError(f"{where}: unknown db_id {db_id!r}")
        schema = schemas[db_id]
        raw_turns = checks.field(DataError, where, rec, "turns", list)
        turns = []
        for t, raw in enumerate(raw_turns, start=1):
            for key in ("question", "sql"):
                checks.field(DataError, f"{where}, turn {t}", raw, key, str)
            if raw.get("phenomenon") is not None:      # the label is optional
                checks.field(DataError, f"{where}, turn {t}", raw, "phenomenon", str)
            sql = raw["sql"]
            actions: tuple[Production, ...] | None
            supported = True
            try:
                actions = tuple(ast_to_actions(sql_to_ast(sql, schema)))
            except GrammarError as err:
                logger.warning("%s, turn %d: unsupported SQL (%s)", where, t, err)
                actions = None
                supported = False
            turns.append(Example(
                dialogue_id=dialogue_id,
                turn_index=t,
                question=tuple(tokenize(raw["question"])),
                gold_sql=sql,
                gold_actions=actions,
                phenomenon=raw.get("phenomenon"),
                supported=supported,
            ))
        dialogues.append(Dialogue(dialogue_id, db_id, turns))

    corpus = Corpus(dialogues, schemas)
    total = sum(len(d.turns) for d in dialogues)
    if total:
        logger.info("loaded %d examples, %.1f%% supported", total, 100.0 * corpus.coverage())
    return corpus


# ---------------------------------------------------------------------------
# Out-of-distribution turn split


def ood_split(corpus: Corpus) -> tuple[Corpus, Corpus]:
    """Train on turns 1-2; evaluate turns 3+ with full history as context.

    Evaluation dialogues keep their early turns (the model needs them
    as context) but those are marked scored=False.
    """
    train_dialogues = []
    eval_dialogues = []
    for d in corpus.dialogues:
        head = [ex for ex in d.turns if ex.turn_index <= 2]
        if head:
            train_dialogues.append(Dialogue(d.dialogue_id, d.db_id, list(head)))
        if any(ex.turn_index >= 3 for ex in d.turns):
            turns = [replace(ex, scored=ex.turn_index >= 3) for ex in d.turns]
            eval_dialogues.append(Dialogue(d.dialogue_id, d.db_id, turns))
    return (Corpus(train_dialogues, dict(corpus.schemas)),
            Corpus(eval_dialogues, dict(corpus.schemas)))


# ---------------------------------------------------------------------------
# Synthetic corpus


_FLEET = {
    "db_id": "fleet",
    "tables": [
        {"name": "trucks", "columns": [
            {"name": "truck_id", "type": "number"},
            {"name": "capacity", "type": "number"},
            {"name": "mileage", "type": "number"},
            {"name": "max_load", "type": "number"}]},
        {"name": "drivers", "columns": [
            {"name": "driver_id", "type": "number"},
            {"name": "truck_id", "type": "number"},
            {"name": "rating", "type": "number"},
            {"name": "salary", "type": "number"}]},
    ],
    "foreign_keys": [["drivers.truck_id", "trucks.truck_id"]],
}

_CAMPUS = {
    "db_id": "campus",
    "tables": [
        {"name": "courses", "columns": [
            {"name": "course_id", "type": "number"},
            {"name": "credits", "type": "number"},
            {"name": "seats", "type": "number"},
            {"name": "course_name", "type": "text"}]},
        {"name": "students", "columns": [
            {"name": "student_id", "type": "number"},
            {"name": "course_id", "type": "number"},
            {"name": "gpa", "type": "number"},
            {"name": "year", "type": "number"}]},
    ],
    "foreign_keys": [["students.course_id", "courses.course_id"]],
}

_OP_WORDS = {"=": "equals", "!=": "differs", ">": "above", "<": "below",
             ">=": "atleast", "<=": "atmost", "like": "like"}


def synthetic_schemas() -> dict[str, DatabaseSchema]:
    return {d["db_id"]: schema_from_dict(d) for d in (_FLEET, _CAMPUS)}


def _pick(rng: np.random.Generator, seq):
    return seq[int(rng.integers(len(seq)))]


class _TreeSampler:
    """Samples small grammar-valid queries over one schema."""

    def __init__(self, schema: DatabaseSchema, rng: np.random.Generator):
        self.schema = schema
        self.grammar = build_grammar(schema)
        self.rng = rng
        self._prods = {str(p): p for p in self.grammar.productions}

    def _node(self, key: str, *children: AST) -> AST:
        return AST(self._prods[key], tuple(children))

    def _agg(self, func: str | None = None) -> AST:
        rng = self.rng
        table = _pick(rng, self.schema.tables)
        column = _pick(rng, table.columns)
        if func is None:
            func = "none" if rng.random() < 0.6 else _pick(rng, AGG_FUNCTIONS[1:])
        return self._node(f"Agg -> {func} Col Tab",
                          self._node(f"Col -> {column.name}"),
                          self._node(f"Tab -> {table.name}"))

    def _value(self) -> AST:
        return self._node("Value -> value")

    def _comparison(self) -> AST:
        op = _pick(self.rng, COMPARISON_OPS)
        return self._node(f"Filter -> {op} Agg Value", self._agg("none"), self._value())

    def _filter(self) -> AST:
        if self.rng.random() < 0.3:
            join = _pick(self.rng, ["and", "or"])
            return self._node(f"Filter -> {join} Filter Filter",
                              self._comparison(), self._comparison())
        return self._comparison()

    def _select(self) -> AST:
        n = 1 if self.rng.random() < 0.7 else 2
        aggs = [self._agg() for _ in range(n)]
        key = "Select -> " + " ".join(["Agg"] * n)
        return self._node(key, *aggs)

    def _order(self, allow_limit: bool = True) -> AST:
        direction = _pick(self.rng, ["asc", "desc"])
        limited = allow_limit and self.rng.random() < 0.3
        key = f"Order -> {direction} limit Agg" if limited else f"Order -> {direction} Agg"
        return self._node(key, self._agg("none"))

    def root(self, select: AST | None = None, allow_limit: bool = True) -> AST:
        form = _pick(self.rng, ["plain", "filter", "order", "filter_order"])
        select = select if select is not None else self._select()
        if form == "plain":
            body = self._node("Root -> Select", select)
        elif form == "filter":
            body = self._node("Root -> Select Filter", select, self._filter())
        elif form == "order":
            body = self._node("Root -> Select Order", select, self._order(allow_limit))
        else:
            body = self._node("Root -> Select Filter Order", select, self._filter(),
                              self._order(allow_limit))
        return self._node("Start -> Root", body)


def _question_for(start: AST) -> tuple[str, ...]:
    """Deterministic question tokens naming everything the query uses."""
    root = start.children[0]
    tokens: list[str] = ["show"]

    def agg_phrase(agg: AST) -> list[str]:
        func = agg.production.rhs[0]
        col = agg.children[0].production.rhs[0]
        tab = agg.children[1].production.rhs[0]
        words = [] if func == "none" else [func]
        return words + name_tokens(col) + ["of"] + name_tokens(tab)

    def filter_phrase(f: AST) -> list[str]:
        head = f.production.rhs[0]
        if head in ("and", "or"):
            return filter_phrase(f.children[0]) + [head] + filter_phrase(f.children[1])
        if head == "between":
            return agg_phrase(f.children[0]) + ["between"]
        return agg_phrase(f.children[0]) + [_OP_WORDS[head]] + ["value"]

    select = root.children[0]
    parts = [agg_phrase(a) for a in select.children]
    for i, p in enumerate(parts):
        if i:
            tokens.append("and")
        tokens.extend(p)
    for child in root.children[1:]:
        if child.lhs is NonTerminal.FILTER:
            tokens.append("where")
            tokens.extend(filter_phrase(child))
        else:
            rhs = child.production.rhs
            tokens.extend(["order", "by"])
            tokens.extend(agg_phrase(child.children[0]))
            tokens.append(rhs[0])
            if "limit" in rhs:
                tokens.append("top")
    tokens.append("?")
    return tuple(tokens)


def gen_synthetic(seed: int, n_dialogues: int = 20, max_turns: int = 4,
                  share_prob: float = 0.5) -> Corpus:
    """Deterministic synthetic corpus on :func:`synthetic_schemas`.

    Consecutive turns reuse the previous turn's SELECT subtree with
    probability ``share_prob`` so copy mechanisms have signal. Gold
    actions are derived by re-parsing the rendered SQL, exactly as
    load_corpus would.
    """
    for name, value, least in (("seed", seed, 0), ("n_dialogues", n_dialogues, 1),
                               ("max_turns", max_turns, 1)):
        if value < least:
            raise DataError(f"{name} must be at least {least}, got {value}")
    if not 0 <= share_prob <= 1:
        raise DataError(f"share_prob must be in [0, 1], got {share_prob}")
    schemas = synthetic_schemas()
    db_ids = sorted(schemas)
    rng = np.random.default_rng(seed)
    samplers = {db: _TreeSampler(schemas[db], rng) for db in db_ids}

    dialogues = []
    for d in range(n_dialogues):
        db_id = db_ids[d % len(db_ids)]
        schema = schemas[db_id]
        sampler = samplers[db_id]
        dialogue_id = f"{db_id}_{d:03d}"
        n_turns = int(rng.integers(1, max_turns + 1))
        turns: list[Example] = []
        prev_parsed: AST | None = None
        for t in range(1, n_turns + 1):
            share = prev_parsed is not None and rng.random() < share_prob
            if share:
                # Reusing the parsed SELECT verbatim; a LIMIT order would
                # refold its aggregates and break the overlap.
                tree = sampler.root(select=prev_parsed.children[0].children[0],
                                    allow_limit=False)
            else:
                tree = sampler.root()
            sql = ast_to_sql(tree, schema)
            parsed = sql_to_ast(sql, schema)
            turns.append(Example(
                dialogue_id=dialogue_id,
                turn_index=t,
                question=_question_for(parsed),
                gold_sql=sql,
                gold_actions=tuple(ast_to_actions(parsed)),
            ))
            prev_parsed = parsed
        dialogues.append(Dialogue(dialogue_id, db_id, turns))
    return Corpus(dialogues, dict(schemas))


def write_dialogues(corpus: Corpus, path: str | Path) -> None:
    """Serialize dialogues back to the JSON interchange format."""
    records = []
    for d in corpus.dialogues:
        records.append({
            "dialogue_id": d.dialogue_id,
            "db_id": d.db_id,
            "turns": [
                {"question": " ".join(ex.question), "sql": ex.gold_sql,
                 **({"phenomenon": ex.phenomenon} if ex.phenomenon else {})}
                for ex in d.turns
            ],
        })
    Path(path).write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")


def write_schemas(schemas: dict[str, DatabaseSchema], path: str | Path) -> None:
    data = [schemas[db].to_dict() for db in sorted(schemas)]
    Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
