"""Command-line surface: train, evaluate, predict, ood-experiment,
synth-data, convert, analyze.

Every command is reproducible from (config file, seed) alone; logs and
checkpoint sidecars embed the configuration hash. Exit codes: 0 on
success, 1 on runtime failure, 2 on usage errors.

The settings are ``SqlParser``'s fields plus ``precision``: each field
is a ``--<name>`` flag (underscores become dashes) and a ``--config``
key, of the field's type, and its default is the field's default.
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import sys
import typing
from dataclasses import fields
from pathlib import Path

from . import checks
from .context import ConfigError, config_hash, load_checkpoint
from .data import Corpus, DataError, gen_synthetic, load_corpus, ood_split, \
    write_dialogues, write_schemas
from .estimator import SqlParser, predict_corpus
from .evaluation import MetricsReport, apply_annotations, compute_metrics, \
    emit_report, load_annotations
from .grammar import GrammarError, ast_to_sql, sql_to_ast
from .nn import ContractError, TensorError, get_precision, set_precision
from .schema import SchemaError

logger = logging.getLogger(__name__)

_RUNTIME_ERRORS = (ConfigError, ContractError, DataError, GrammarError,
                   SchemaError, TensorError, OSError, ValueError)


def _setting_types() -> dict[str, tuple[type, bool]]:
    """Each setting's type (str, int or float; ``X`` of ``X | None``) and
    whether it may be null."""
    types = {}
    for name, hint in typing.get_type_hints(SqlParser).items():
        kinds = typing.get_args(hint) or (hint,)
        types[name] = (kinds[0], type(None) in kinds)
    types["precision"] = (int, False)
    return types


_SETTING_TYPES = _setting_types()


def _usage_error(message: str) -> "SystemExit":
    """Print ``message``; returns the exit to raise (the --config reader's error)."""
    print(f"usage error: {message}", file=sys.stderr)
    return SystemExit(2)


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, then the --config file, then explicit flags."""
    merged = {"precision": 64}
    merged.update(SqlParser().get_params())
    if getattr(args, "config", None):
        try:
            loaded = checks.read_json(_usage_error, args.config)
        except OSError as err:
            raise _usage_error(f"cannot read config file: {err}")
        checks.of_type(_usage_error, args.config, loaded, dict)
        unknown = set(loaded) - set(_SETTING_TYPES)
        if unknown:
            raise _usage_error(
                f"{args.config}: unknown config keys {sorted(unknown)}")
        for key, value in loaded.items():
            kind, nullable = _SETTING_TYPES[key]
            if value is None and nullable:
                continue
            # a float setting also takes an integer
            checks.of_type(_usage_error, f"{args.config}: {key}", value,
                           (int, float) if kind is float else kind)
        merged.update(loaded)
    for key in _SETTING_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if merged["precision"] not in (32, 64):
        # Not the default, nor the flag (whose choices are 32 and 64): the file.
        source = f"{args.config}: " if getattr(args, "precision", None) is None else ""
        raise _usage_error(f"{source}precision must be 32 or 64")
    return merged


def _write_train_log(path: Path, parser: SqlParser) -> None:
    rows = ["epoch,loss,grad_norm,clipped,ques_match"]
    for entry in parser.history_:
        metric = entry.get("ques_match")
        rows.append(f"{entry['epoch']},{entry['loss']!r},{entry['grad_norm']!r},"
                    f"{entry['clipped']!r},{'' if metric is None else repr(metric)}")
    header = (f"# config_hash={config_hash(parser.model_.config)}"
              f" seed={parser.seed} precision={get_precision()}")
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


def _print_report(report: MetricsReport) -> None:
    print(f"ques_match {report.ques_match.fraction:.4f} "
          f"({report.ques_match.matched}/{report.ques_match.total})")
    print(f"int_match  {report.int_match.fraction:.4f} "
          f"({report.int_match.matched}/{report.int_match.total})")
    for turn in sorted(report.turn_match):
        cell = report.turn_match[turn]
        print(f"turn {turn}     {cell.fraction:.4f} ({cell.matched}/{cell.total})")


def _write_reports(report: MetricsReport, prefix: Path) -> list[Path]:
    prefix.parent.mkdir(parents=True, exist_ok=True)
    paths = [prefix.with_suffix(".csv"), prefix.with_suffix(".json")]
    for fmt, path in zip(("csv", "json"), paths):
        emit_report(report, fmt, path)
    return paths


# ---------------------------------------------------------------------------
# commands: each takes its arguments and an unfitted SqlParser that holds
# the resolved settings (None for a command without config flags)


def cmd_train(args: argparse.Namespace, parser: SqlParser) -> int:
    parser.fit(load_corpus(args.dialogues, args.schemas))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    parser.save(out)
    log_path = Path(args.log) if args.log else out.with_suffix(".log.csv")
    _write_train_log(log_path, parser)
    logger.info("wrote checkpoint %s and training log %s", out, log_path)
    return 0


def cmd_evaluate(args: argparse.Namespace, parser: SqlParser) -> int:
    corpus = load_corpus(args.dialogues, args.schemas)
    if args.annotations:
        corpus = apply_annotations(corpus, load_annotations(args.annotations))
    model = load_checkpoint(args.checkpoint)
    logger.info("evaluating checkpoint %s (config %s)", args.checkpoint,
                config_hash(model.config))
    predictions = predict_corpus(model, corpus,
                                 gold_previous_sql=args.gold_previous_sql,
                                 max_steps=parser.max_steps)
    report = compute_metrics(predictions, corpus)
    for path in _write_reports(report, Path(args.out)):
        logger.info("wrote %s", path)
    _print_report(report)
    return 0


def cmd_predict(args: argparse.Namespace, parser: SqlParser) -> int:
    corpus = load_corpus(args.dialogues, args.schemas)
    model = load_checkpoint(args.checkpoint)
    predictions = predict_corpus(model, corpus,
                                 gold_previous_sql=args.gold_previous_sql,
                                 max_steps=parser.max_steps)
    write_predictions(predictions, corpus, args.out)
    logger.info("wrote predictions for %d turns to %s", len(predictions), args.out)
    return 0


def cmd_ood_experiment(args: argparse.Namespace, parser: SqlParser) -> int:
    train_corpus, eval_corpus = ood_split(load_corpus(args.dialogues, args.schemas))
    if not eval_corpus.dialogues:
        raise DataError(f"{args.dialogues}: no dialogue has a third turn to evaluate")
    logger.info("ood split: %d training examples, %d evaluation dialogues",
                len(train_corpus.supported_examples()), len(eval_corpus.dialogues))
    parser.fit(train_corpus)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    parser.save(out_dir / "model.ckpt")
    _write_train_log(out_dir / "train.log.csv", parser)
    predictions = parser.predict(eval_corpus,
                                 gold_previous_sql=args.gold_previous_sql)
    write_predictions(predictions, eval_corpus, out_dir / "predictions.tsv")
    report = compute_metrics(predictions, eval_corpus)
    _write_reports(report, out_dir / "report")
    _print_report(report)
    return 0


def cmd_synth_data(args: argparse.Namespace, parser: SqlParser) -> int:
    corpus = gen_synthetic(seed=parser.seed, n_dialogues=args.n_dialogues,
                           max_turns=args.max_turns, share_prob=args.share_prob)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_dialogues(corpus, out_dir / "dialogues.json")
    write_schemas(corpus.schemas, out_dir / "schemas.json")
    logger.info("wrote %d dialogues (%d turns) to %s", len(corpus.dialogues),
                sum(len(d.turns) for d in corpus.dialogues), out_dir)
    return 0


def cmd_convert(args: argparse.Namespace, parser: None) -> int:
    n_dialogues, n_turns = convert_public(args.dialogues, args.tables,
                                          Path(args.out_dir), args.prefix)
    logger.info("converted %d dialogues (%d turns) into %s",
                n_dialogues, n_turns, args.out_dir)
    return 0


def cmd_analyze(args: argparse.Namespace, parser: SqlParser) -> int:
    corpus = apply_annotations(load_corpus(args.dialogues, args.schemas),
                               load_annotations(args.annotations))
    predictions = read_predictions(args.predictions, corpus)
    report = compute_metrics(predictions, corpus)
    if not report.per_phenomenon:
        raise ContractError(f"{args.annotations}: no scored turn carries a phenomenon label")
    for path in _write_reports(report, Path(args.out)):
        logger.info("wrote %s", path)
    print("phenomenon breakdown:")
    for label in sorted(report.per_phenomenon):
        cell = report.per_phenomenon[label]
        print(f"  {label:<28} {cell.fraction:.4f} ({cell.matched}/{cell.total})")
    return 0


# ---------------------------------------------------------------------------
# prediction files


def write_predictions(predictions: dict, corpus: Corpus, path) -> None:
    """TSV of dialogue_id, turn_index, rendered SQL, validity flag.

    The flag is 1 only when the decode completed and the rendered SQL
    re-parses: the grammar derives columns and tables independently, so
    a tree can name a column outside its FROM clause. Such rows keep
    the rendered text for inspection but are flagged 0 (they can never
    match a gold query either way).
    """
    schemas = {d.dialogue_id: corpus.schemas[d.db_id] for d in corpus.dialogues}
    lines = ["dialogue_id\tturn_index\tsql\tvalid"]
    for d in corpus.dialogues:
        for ex in d.turns:
            ast = predictions.get(ex.key())
            sql, valid = "", 0
            if ast is not None:
                sql = ast_to_sql(ast, schemas[d.dialogue_id])
                try:
                    sql_to_ast(sql, schemas[d.dialogue_id])
                    valid = 1
                except GrammarError:
                    valid = 0
            lines.append(f"{d.dialogue_id}\t{ex.turn_index}\t{sql}\t{valid}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_predictions(path, corpus: Corpus) -> dict:
    """Inverse of write_predictions; invalid rows map to None."""
    schemas = {d.dialogue_id: corpus.schemas[d.db_id] for d in corpus.dialogues}
    turns = {ex.key() for ex in corpus.examples()}
    lines = "".join(checks.text_lines(DataError, path)).splitlines()
    if not lines or lines[0] != "dialogue_id\tturn_index\tsql\tvalid":
        raise DataError(f"{path}: not a prediction file (bad header)")
    out: dict = {}
    for n, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(f"{path} line {n}: expected 4 tab-separated fields")
        dialogue_id, turn, sql, valid = parts
        if dialogue_id not in schemas:
            raise DataError(f"{path} line {n}: unknown dialogue {dialogue_id!r}")
        if valid not in ("0", "1"):
            raise DataError(f"{path} line {n}: validity flag must be 0 or 1")
        key = (dialogue_id, checks.digits(DataError, f"{path} line {n}: turn index", turn))
        if key not in turns:
            raise DataError(f"{path} line {n}: dialogue {dialogue_id!r} has no turn {turn}")
        if key in out:
            raise DataError(f"{path} line {n}: repeats dialogue {dialogue_id!r} turn {turn}")
        if valid == "0":
            out[key] = None
            continue
        try:
            out[key] = sql_to_ast(sql, schemas[dialogue_id])
        except GrammarError as err:
            raise DataError(f"{path} line {n}: unparseable SQL: {err}") from err
    return out


# ---------------------------------------------------------------------------
# public-release conversion


_TABLE_KEYS = ("db_id", "table_names_original", "column_names_original", "column_types")
_DIALOGUE_KEYS = ("database_id", "interaction")
_ITEM_KEYS = ("utterance", "query")


def convert_public(dialogues_path, tables_path, out_dir: Path,
                   prefix: str) -> tuple[int, int]:
    """Reshape a SParC/CoSQL release (interactions + tables.json) into the
    native dialogue and schema JSON files.

    Each interaction entry becomes one dialogue: database_id maps to
    db_id and every interaction item contributes one turn (utterance ->
    question, query -> sql). The goal-oriented "final" entry is dropped;
    it restates the interaction, it is not an extra turn.
    """
    raw_tables = checks.read_json(DataError, tables_path)
    raw_dialogues = checks.read_json(DataError, dialogues_path)

    schemas = []
    known = set()
    for k, entry in enumerate(checks.objects(DataError, tables_path, raw_tables, _TABLE_KEYS)):
        where = f"{tables_path}: entry {k}"
        db_id = checks.field(DataError, where, entry, "db_id", str)
        table_names = checks.strings(DataError, f"{where}: table_names_original",
                                     entry["table_names_original"])
        tables: list[dict] = [{"name": name, "columns": []} for name in table_names]
        columns = checks.pairs(DataError, f"{where}: column_names_original",
                               entry["column_names_original"])
        types = checks.strings(DataError, f"{where}: column_types", entry["column_types"])
        if len(columns) != len(types):
            raise DataError(f"{where}: column_names_original and column_types"
                            " lengths differ")
        qualified = []                           # per column index; None for "*"
        for (table_idx, column), kind in zip(columns, types):
            if table_idx == -1:                  # the "*" pseudo-column
                qualified.append(None)
                continue
            checks.index(DataError, f"{where}: table index", table_idx, len(tables))
            column = checks.of_type(DataError, f"{where}: column name", column, str)
            tables[table_idx]["columns"].append({"name": column, "type": kind})
            qualified.append(f"{table_names[table_idx]}.{column}")
        foreign_keys = []
        for here, there in checks.pairs(DataError, f"{where}: foreign_keys",
                                        entry.get("foreign_keys", [])):
            for idx in (here, there):
                checks.index(DataError, f"{where}: foreign-key column index", idx, len(qualified))
            if qualified[here] is None or qualified[there] is None:
                raise DataError(f"{where}: foreign key references the * column")
            foreign_keys.append([qualified[here], qualified[there]])
        schemas.append({"db_id": db_id, "tables": tables,
                        "foreign_keys": foreign_keys})
        known.add(db_id)

    records = []
    n_turns = 0
    for i, entry in enumerate(checks.objects(DataError, dialogues_path, raw_dialogues,
                                             _DIALOGUE_KEYS)):
        where = f"{dialogues_path}: entry {i}"
        db_id = checks.field(DataError, where, entry, "database_id", str)
        if db_id not in known:
            raise DataError(f"{where}: unknown database_id {db_id!r}")
        turns = []
        items = checks.objects(DataError, f"{where}: interaction", entry["interaction"],
                               _ITEM_KEYS)
        for j, item in enumerate(items):
            item_where = f"{where}: interaction: entry {j}"
            question = checks.field(DataError, item_where, item, "utterance", str)
            sql = checks.field(DataError, item_where, item, "query", str)
            turns.append({"question": question.strip(), "sql": sql.strip()})
            n_turns += 1
        if not turns:
            continue
        records.append({"dialogue_id": f"{prefix}-{i:04d}", "db_id": db_id,
                        "turns": turns})

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "dialogues.json").write_text(
        json.dumps(records, indent=2) + "\n", encoding="utf-8")
    (out_dir / "schemas.json").write_text(
        json.dumps(schemas, indent=2) + "\n", encoding="utf-8")
    return len(records), n_turns


# ---------------------------------------------------------------------------
# argument parsing


def _add_config_flags(cmd: argparse.ArgumentParser, names=None) -> None:
    """``--config``, a flag for each setting in ``names`` (default: all)
    and ``--precision``; a str setting's flag keeps argparse's default type."""
    cmd.add_argument("--config", help="JSON file of configuration overrides")
    for f in fields(SqlParser):
        if names is None or f.name in names:
            kind, _ = _SETTING_TYPES[f.name]
            cmd.add_argument("--" + f.name.replace("_", "-"),
                             type=None if kind is str else kind,
                             help=f.metadata.get("help"))
    cmd.add_argument("--precision", type=int, choices=(32, 64))


def _add_data_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--dialogues", required=True, help="dialogue JSON file")
    cmd.add_argument("--schemas", required=True, help="schema JSON file")


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="dialsql",
                                  description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("train", help="fit a model and write a checkpoint")
    _add_data_flags(cmd)
    _add_config_flags(cmd)
    cmd.add_argument("--out", required=True, help="checkpoint path")
    cmd.add_argument("--log", help="per-epoch CSV log path "
                                   "(default: checkpoint with .log.csv)")
    cmd.set_defaults(run=cmd_train)

    cmd = sub.add_parser("evaluate", help="score a checkpoint on a corpus")
    _add_data_flags(cmd)
    _add_config_flags(cmd)
    cmd.add_argument("--checkpoint", required=True)
    cmd.add_argument("--out", required=True,
                     help="report path prefix (.csv and .json are written)")
    cmd.add_argument("--annotations", help="phenomenon annotation JSON")
    cmd.add_argument("--gold-previous-sql", action="store_true",
                     help="feed gold previous queries instead of predictions")
    cmd.set_defaults(run=cmd_evaluate)

    cmd = sub.add_parser("predict", help="write per-turn predictions as TSV")
    _add_data_flags(cmd)
    _add_config_flags(cmd)
    cmd.add_argument("--checkpoint", required=True)
    cmd.add_argument("--out", required=True, help="prediction TSV path")
    cmd.add_argument("--gold-previous-sql", action="store_true")
    cmd.set_defaults(run=cmd_predict)

    cmd = sub.add_parser("ood-experiment",
                         help="train on turns 1-2, evaluate on turns 3+")
    _add_data_flags(cmd)
    _add_config_flags(cmd)
    cmd.add_argument("--out-dir", required=True, dest="out_dir")
    cmd.add_argument("--gold-previous-sql", action="store_true")
    cmd.set_defaults(run=cmd_ood_experiment)

    cmd = sub.add_parser("synth-data", help="generate a synthetic corpus")
    cmd.add_argument("--out-dir", required=True, dest="out_dir")
    params = inspect.signature(gen_synthetic).parameters
    for name in ("n_dialogues", "max_turns", "share_prob"):
        default = params[name].default
        cmd.add_argument("--" + name.replace("_", "-"), type=type(default),
                         default=default)
    _add_config_flags(cmd, names=("seed",))
    cmd.set_defaults(run=cmd_synth_data)

    cmd = sub.add_parser("convert",
                         help="reshape a public SParC/CoSQL release into "
                              "native dialogue and schema files")
    cmd.add_argument("--dialogues", required=True,
                     help="public interaction JSON (e.g. train.json)")
    cmd.add_argument("--tables", required=True, help="public tables.json")
    cmd.add_argument("--out-dir", required=True, dest="out_dir")
    cmd.add_argument("--prefix", default="dlg",
                     help="dialogue_id prefix for converted records")
    cmd.set_defaults(run=cmd_convert)

    cmd = sub.add_parser("analyze",
                         help="per-phenomenon breakdown of a prediction file")
    _add_data_flags(cmd)
    _add_config_flags(cmd)
    cmd.add_argument("--predictions", required=True, help="prediction TSV")
    cmd.add_argument("--annotations", required=True,
                     help="phenomenon annotation JSON")
    cmd.add_argument("--out", required=True, help="report path prefix")
    cmd.set_defaults(run=cmd_analyze)
    return top


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        parser = None
        if "config" in args:            # the commands that take config flags
            settings = resolve_config(args)
            set_precision(settings.pop("precision"))
            parser = SqlParser(**settings)
        return args.run(args, parser)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except _RUNTIME_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
