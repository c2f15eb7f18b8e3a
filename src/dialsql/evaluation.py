"""Exact set match and dialogue-level accuracy metrics.

Predictions are compared structurally over canonicalized trees, so two
queries that differ only in the order of SELECT columns or of AND/OR
operands count as equal. Metrics follow the usual dialogue conventions:
question-level accuracy, interaction-level accuracy (every scored turn
of a dialogue must match), and a per-turn breakdown. A fine-grained
phenomenon breakdown is computed from annotation labels when present.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from . import checks
from .data import Corpus, DataError, Dialogue
from .grammar import AST, actions_to_ast, canonicalize
from .nn import ContractError

logger = logging.getLogger(__name__)

__all__ = [
    "CellStat",
    "MetricsReport",
    "COARSE_OF",
    "FINE_LABELS",
    "exact_set_match",
    "compute_metrics",
    "load_annotations",
    "apply_annotations",
    "emit_report",
    "read_report",
]


# Fine phenomenon labels and the coarse class each belongs to.
COARSE_OF = {
    "context_independent": "semantically_complete",
    "bridging_anaphora": "coreference",
    "definite_noun_phrases": "coreference",
    "one_anaphora": "coreference",
    "demonstrative_pronoun": "coreference",
    "possessive_determiner": "coreference",
    "continuation": "ellipsis",
    "substitution_explicit": "ellipsis",
    "substitution_implicit": "ellipsis",
    "substitution_schema": "ellipsis",
    "substitution_operator": "ellipsis",
}
FINE_LABELS = tuple(COARSE_OF)


@dataclass(frozen=True)
class CellStat:
    """Matched-over-total counts behind one reported fraction."""

    matched: int
    total: int

    def __post_init__(self):
        if not 0 <= self.matched <= self.total:
            raise ContractError(f"bad cell counts {self.matched}/{self.total}")

    @property
    def fraction(self) -> float:
        return self.matched / self.total if self.total else 0.0


@dataclass
class MetricsReport:
    ques_match: CellStat
    int_match: CellStat
    turn_match: dict[int, CellStat] = field(default_factory=dict)
    per_phenomenon: dict[str, CellStat] = field(default_factory=dict)


def exact_set_match(pred: AST | None, gold: AST) -> bool:
    """Structural equality of canonicalized trees; invalid pred is wrong."""
    if pred is None:
        return False
    return canonicalize(pred) == canonicalize(gold)


def _scored_examples(corpus: Corpus):
    for ex in corpus.examples():
        if ex.supported and ex.scored:
            yield ex


def _matches(predictions: dict, corpus: Corpus) -> dict[tuple[str, int], bool]:
    out = {}
    for ex in _scored_examples(corpus):
        if ex.key() not in predictions:
            raise ContractError(
                f"no prediction for dialogue {ex.dialogue_id!r} turn {ex.turn_index}")
        gold = actions_to_ast(list(ex.gold_actions))
        out[ex.key()] = exact_set_match(predictions[ex.key()], gold)
    return out


def compute_metrics(predictions: dict[tuple[str, int], AST | None],
                    corpus: Corpus) -> MetricsReport:
    """Question, interaction, and per-turn exact-match accuracy.

    ``predictions`` maps (dialogue_id, turn_index) to a parse tree or
    None for an invalid/truncated decode. Every supported, scored
    example needs an entry; unsupported and context-only turns are
    excluded from all denominators.
    """
    matches = _matches(predictions, corpus)

    ques = CellStat(sum(matches.values()), len(matches))

    int_matched = 0
    int_total = 0
    for d in corpus.dialogues:
        keys = [ex.key() for ex in d.turns if ex.supported and ex.scored]
        if not keys:
            continue
        int_total += 1
        int_matched += all(matches[k] for k in keys)

    by_turn: dict[int, list[bool]] = {}
    for ex in _scored_examples(corpus):
        by_turn.setdefault(ex.turn_index, []).append(matches[ex.key()])
    turn_match = {t: CellStat(sum(hits), len(hits))
                  for t, hits in sorted(by_turn.items())}

    return MetricsReport(ques, CellStat(int_matched, int_total), turn_match,
                         _phenomenon_cells(matches, corpus))


def _phenomenon_cells(matches: dict[tuple[str, int], bool],
                      corpus: Corpus) -> dict[str, CellStat]:
    """Per-fine-label cells from computed matches; empty without labels."""
    by_label: dict[str, list[bool]] = {}
    for ex in _scored_examples(corpus):
        if not ex.phenomenon:
            continue
        if ex.phenomenon not in COARSE_OF:
            raise DataError(
                f"dialogue {ex.dialogue_id!r} turn {ex.turn_index}: "
                f"unknown phenomenon label {ex.phenomenon!r}")
        by_label.setdefault(ex.phenomenon, []).append(matches[ex.key()])
    return {label: CellStat(sum(hits), len(hits))
            for label, hits in sorted(by_label.items())}


# ---------------------------------------------------------------------------
# Annotation sidecar


def load_annotations(path: str | Path) -> dict[str, dict[int, str]]:
    """Read a dialogue_id -> turn_index -> fine-label JSON sidecar."""
    raw = checks.of_type(DataError, path, checks.read_json(DataError, path), dict)
    out: dict[str, dict[int, str]] = {}
    for dialogue_id, turns in raw.items():
        where = f"{path}: {dialogue_id!r}"
        entry = {}
        for turn_key, label in checks.of_type(DataError, where, turns, dict).items():
            turn = checks.digits(DataError, f"{where}: turn index", turn_key)
            if not isinstance(label, str) or label not in COARSE_OF:
                raise DataError(f"{where} turn {turn}: unknown label {label!r}")
            entry[turn] = label
        out[dialogue_id] = entry
    return out


def apply_annotations(corpus: Corpus,
                      annotations: dict[str, dict[int, str]]) -> Corpus:
    """Attach sidecar labels; unmatched annotation entries are an error."""
    known = {d.dialogue_id: {ex.turn_index for ex in d.turns}
             for d in corpus.dialogues}
    for dialogue_id, turns in annotations.items():
        if dialogue_id not in known:
            raise DataError(f"annotation for unknown dialogue {dialogue_id!r}")
        for turn in turns:
            if turn not in known[dialogue_id]:
                raise DataError(
                    f"annotation for unknown turn {turn} of dialogue {dialogue_id!r}")
    dialogues = []
    for d in corpus.dialogues:
        labels = annotations.get(d.dialogue_id, {})
        turns = [replace(ex, phenomenon=labels.get(ex.turn_index, ex.phenomenon))
                 for ex in d.turns]
        dialogues.append(Dialogue(d.dialogue_id, d.db_id, turns))
    return Corpus(dialogues, dict(corpus.schemas))


# ---------------------------------------------------------------------------
# Report files


def _report_rows(report: MetricsReport) -> list[tuple[str, float, int]]:
    rows = [("ques_match", report.ques_match.fraction, report.ques_match.total),
            ("int_match", report.int_match.fraction, report.int_match.total)]
    for turn in sorted(report.turn_match):
        cell = report.turn_match[turn]
        rows.append((f"turn_match_{turn}", cell.fraction, cell.total))
    for label in sorted(report.per_phenomenon):
        cell = report.per_phenomenon[label]
        rows.append((f"phenomenon_{label}", cell.fraction, cell.total))
    return rows


def _cell_dict(cell: CellStat) -> dict:
    return {"matched": cell.matched, "total": cell.total, "fraction": cell.fraction}


def emit_report(report: MetricsReport, format: str, path: str | Path) -> None:
    """Write the report as csv (metric,value,count) or schema-backed JSON."""
    path = Path(path)
    if format == "csv":
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "value", "count"])
            for metric, value, count in _report_rows(report):
                writer.writerow([metric, repr(value), count])
    elif format == "json":
        blob = {
            "ques_match": _cell_dict(report.ques_match),
            "int_match": _cell_dict(report.int_match),
            "turn_match": {str(t): _cell_dict(c)
                           for t, c in sorted(report.turn_match.items())},
            "per_phenomenon": {label: _cell_dict(c)
                               for label, c in sorted(report.per_phenomenon.items())},
        }
        path.write_text(json.dumps(blob, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    else:
        raise ContractError(f"unknown report format {format!r}")


def _json_cells(path: Path):
    """``(where, metric, matched, total)`` for each cell of a JSON report."""
    blob = checks.keyed(DataError, path, checks.read_json(DataError, path),
                        ("ques_match", "int_match", "turn_match", "per_phenomenon"))
    named = [(f"{path}: {key}", key, blob[key]) for key in ("ques_match", "int_match")]
    for key, prefix in (("turn_match", "turn_match_"), ("per_phenomenon", "phenomenon_")):
        named += [(f"{path}: {key}: {name}", prefix + name, raw) for name, raw
                  in checks.of_type(DataError, f"{path}: {key}", blob[key], dict).items()]
    for where, metric, raw in named:
        yield where, metric, *(checks.field(DataError, where, raw, key, int)
                               for key in ("matched", "total"))


def _csv_cells(path: Path):
    """``(where, metric, matched, total)`` for each row of a CSV report."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as err:
        raise DataError(f"{path}: not a CSV report ({err})") from err
    if not rows or rows[0] != ["metric", "value", "count"]:
        raise DataError(f"{path}: unexpected header {rows[:1]}")
    for n, row in enumerate(rows[1:], start=2):
        where = f"{path} line {n}"
        if len(row) != 3:
            raise DataError(f"{where}: expected 3 comma-separated fields")
        metric, value, count = row
        count = checks.digits(DataError, f"{where}: count", count)
        try:
            matched = round(float(value) * count)
        except (ValueError, OverflowError) as err:
            raise DataError(f"{where}: value {value!r} is not a fraction") from err
        yield where, metric, matched, count


def read_report(path: str | Path) -> MetricsReport:
    """Inverse of emit_report: JSON for a ``.json`` suffix, CSV otherwise.
    A malformed file is a DataError naming the file and the cell or line."""
    path = Path(path)
    named, turn_match, per_phenomenon = {}, {}, {}
    cells = _json_cells(path) if path.suffix == ".json" else _csv_cells(path)
    for where, metric, matched, total in cells:
        try:
            cell = CellStat(matched, total)
        except ContractError as err:
            raise DataError(f"{where}: {err}") from err
        if metric in ("ques_match", "int_match"):
            named[metric] = cell
        elif metric.startswith("turn_match_"):
            turn = checks.digits(DataError, f"{where}: turn", metric[len("turn_match_"):])
            turn_match[turn] = cell
        elif metric.startswith("phenomenon_"):
            per_phenomenon[metric[len("phenomenon_"):]] = cell
        else:
            raise DataError(f"{where}: unknown metric {metric!r}")
    if len(named) != 2:
        raise DataError(f"{path}: report is missing ques_match or int_match")
    return MetricsReport(named["ques_match"], named["int_match"], turn_match, per_phenomenon)


def report_schema() -> dict:
    """The JSON schema shipped for the json report format."""
    text = resources.files("dialsql").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)
